//! Per-tenant durable state: workload specs, live inputs, snapshots.
//!
//! A tenant's workload arrives as a [`WorkloadSpec`] — a deterministic
//! generator recipe, not inline PMFs — so identical submissions hash to
//! identical engine inputs (the cache/coalescing key) and a snapshot
//! stays small. Events then evolve the expanded `(batch, platform)` pair
//! in place through the shared remap entry points
//! ([`cdsf_events::remap`]), and a [`TenantSnapshot`] captures the
//! evolved inputs bit-exactly: restoring and rebuilding is guaranteed to
//! reproduce byte-identical engine tables because engine builds are
//! deterministic functions of their input bits.

use crate::error::{Result, ServeError};
use cdsf_events::remap;
use cdsf_system::{Batch, Platform};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator};
use serde::{Deserialize, Serialize};

/// Bounds on what one request may ask a shard to build — admission
/// control against a single tenant monopolizing a shard with one
/// pathological spec.
const MAX_APPS: usize = 64;
const MAX_TYPES: usize = 16;
const MAX_PULSES: usize = 256;

/// A deterministic workload recipe: the seeded generator parameters the
/// shard expands into a `(batch, platform)` pair.
///
/// The optional catalog fields let tenants *share* pieces of a workload:
/// `platform_seed` pins the platform independently of the batch seed,
/// and `app_seeds` names each application by its own generator seed — so
/// two tenants whose catalogs overlap produce bit-identical PMFs for the
/// shared applications, which the cross-shard
/// [`cdsf_ra::CellStore`] then interns exactly once. Both default
/// to absent, where expansion is byte-for-byte the legacy single-seed
/// recipe (deserialization fills them in for old wire payloads).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Applications in the batch.
    pub apps: usize,
    /// Processor types in the platform.
    pub types: usize,
    /// Pulses per execution-time PMF.
    pub pulses: usize,
    /// Generator seed (platform and batch, unless overridden below).
    pub seed: u64,
    /// Platform seed override — tenants sharing it (and `types`) expand
    /// to bit-identical platforms regardless of their batch seeds.
    #[serde(default)]
    pub platform_seed: Option<u64>,
    /// Per-application seeds (must have length `apps` when present):
    /// application `i` is generated alone from `app_seeds[i]`, so equal
    /// seeds yield bit-identical applications across specs and tenants.
    #[serde(default)]
    pub app_seeds: Option<Vec<u64>>,
}

impl WorkloadSpec {
    /// The legacy single-seed recipe — no catalog fields.
    pub fn simple(apps: usize, types: usize, pulses: usize, seed: u64) -> Self {
        Self {
            apps,
            types,
            pulses,
            seed,
            platform_seed: None,
            app_seeds: None,
        }
    }

    /// Validates the bounds and expands the spec into concrete inputs.
    /// Deterministic: equal specs expand to bit-identical pairs.
    pub fn expand(&self) -> Result<(Batch, Platform)> {
        if self.apps == 0 || self.apps > MAX_APPS {
            return Err(ServeError::Protocol(format!(
                "spec.apps = {} out of [1, {MAX_APPS}]",
                self.apps
            )));
        }
        if self.types == 0 || self.types > MAX_TYPES {
            return Err(ServeError::Protocol(format!(
                "spec.types = {} out of [1, {MAX_TYPES}]",
                self.types
            )));
        }
        if self.pulses < 2 || self.pulses > MAX_PULSES {
            return Err(ServeError::Protocol(format!(
                "spec.pulses = {} out of [2, {MAX_PULSES}]",
                self.pulses
            )));
        }
        let platform = PlatformGenerator {
            num_types: self.types,
            ..PlatformGenerator::default()
        }
        .generate(self.platform_seed.unwrap_or(self.seed))?;
        let batch = match &self.app_seeds {
            None => BatchGenerator {
                num_apps: self.apps,
                pulses: self.pulses,
                ..BatchGenerator::default()
            }
            .generate(&platform, self.seed)?,
            Some(seeds) => {
                if seeds.len() != self.apps {
                    return Err(ServeError::Protocol(format!(
                        "spec.app_seeds has {} entries for {} apps",
                        seeds.len(),
                        self.apps
                    )));
                }
                let per_app = BatchGenerator {
                    num_apps: 1,
                    pulses: self.pulses,
                    ..BatchGenerator::default()
                };
                let mut apps = Vec::with_capacity(seeds.len());
                for &s in seeds {
                    let one = per_app.generate(&platform, s)?;
                    apps.push(one.apps()[0].clone());
                }
                Batch::new(apps)
            }
        };
        Ok((batch, platform))
    }
}

/// A disruption injected into a tenant's live workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TenantEvent {
    /// A processor type is lost outright.
    Crash {
        /// Index of the lost type in the tenant's *current* platform.
        proc_type: usize,
    },
    /// One type's availability degrades (or recovers) by a factor.
    Degrade {
        /// Index of the affected type.
        proc_type: usize,
        /// Availability scale in `[0.05, 4]` (clamped into `(0, 1]`
        /// per level after scaling).
        factor: f64,
    },
    /// Every type's availability drifts by a common factor.
    Drift {
        /// Availability scale in `[0.05, 4]`.
        factor: f64,
    },
}

/// Domain check shared by `Degrade` and `Drift` factors.
fn check_factor(factor: f64) -> Result<()> {
    if !(0.05..=4.0).contains(&factor) {
        return Err(ServeError::Protocol(format!(
            "event factor {factor} out of [0.05, 4]"
        )));
    }
    Ok(())
}

/// Everything needed to re-create a tenant on a fresh server and land on
/// byte-identical engine tables: the original spec (provenance), the
/// *evolved* inputs bit-exactly, and the scheduling parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Tenant identity (shard routing key).
    pub tenant: String,
    /// The spec of the most recent submission.
    pub spec: WorkloadSpec,
    /// Common deadline Δ.
    pub deadline: f64,
    /// Stage-I allocator name.
    pub allocator: String,
    /// φ₁ robustness threshold.
    pub threshold: f64,
    /// Current (post-event) batch, exact bits.
    pub batch: Batch,
    /// Current (post-event) platform, exact bits.
    pub platform: Platform,
    /// Events applied since the last submission.
    pub events_applied: u64,
}

/// A shard's live record of one tenant.
#[derive(Debug, Clone)]
pub(crate) struct TenantState {
    pub spec: WorkloadSpec,
    pub deadline: f64,
    pub allocator: String,
    pub threshold: f64,
    pub batch: Batch,
    pub platform: Platform,
    /// Input fingerprint of the engine currently serving this tenant.
    pub engine_key: u64,
    pub events_applied: u64,
}

impl TenantState {
    /// Captures the durable parts.
    pub fn snapshot(&self, tenant: &str) -> TenantSnapshot {
        TenantSnapshot {
            tenant: tenant.to_string(),
            spec: self.spec.clone(),
            deadline: self.deadline,
            allocator: self.allocator.clone(),
            threshold: self.threshold,
            batch: self.batch.clone(),
            platform: self.platform.clone(),
            events_applied: self.events_applied,
        }
    }

    /// Rebuilds the live record from a snapshot; the engine key is filled
    /// in by the shard once the engine is resident again.
    pub fn from_snapshot(s: &TenantSnapshot) -> Self {
        Self {
            spec: s.spec.clone(),
            deadline: s.deadline,
            allocator: s.allocator.clone(),
            threshold: s.threshold,
            batch: s.batch.clone(),
            platform: s.platform.clone(),
            engine_key: 0,
            events_applied: s.events_applied,
        }
    }

    /// Derives the post-event inputs. Pure — the state itself is
    /// updated only after the rebuild succeeds.
    pub fn apply_event(&self, event: &TenantEvent) -> Result<(Batch, Platform)> {
        match *event {
            TenantEvent::Crash { proc_type } => {
                Ok(remap::crashed(&self.batch, &self.platform, proc_type)?)
            }
            TenantEvent::Degrade { proc_type, factor } => {
                check_factor(factor)?;
                let platform = remap::degraded_platform(&self.platform, proc_type, factor)?;
                Ok((self.batch.clone(), platform))
            }
            TenantEvent::Drift { factor } => {
                check_factor(factor)?;
                let platform = remap::drifted_platform(&self.platform, factor)?;
                Ok((self.batch.clone(), platform))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        let spec = WorkloadSpec::simple(3, 2, 6, 99);
        let (b1, p1) = spec.expand().unwrap();
        let (b2, p2) = spec.expand().unwrap();
        assert_eq!(cdsf_ra::inputs_key(&b1, &p1), cdsf_ra::inputs_key(&b2, &p2));
    }

    #[test]
    fn expansion_rejects_out_of_bounds_specs() {
        for spec in [
            WorkloadSpec::simple(0, 2, 6, 1),
            WorkloadSpec::simple(3, 99, 6, 1),
            WorkloadSpec::simple(3, 2, 1, 1),
        ] {
            assert!(spec.expand().is_err(), "{spec:?}");
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly_through_json() {
        let spec = WorkloadSpec::simple(2, 2, 5, 7);
        let (batch, platform) = spec.expand().unwrap();
        let state = TenantState {
            spec,
            deadline: 2_800.0,
            allocator: "sufferage".into(),
            threshold: 0.8,
            batch,
            platform,
            engine_key: 123,
            events_applied: 2,
        };
        let snap = state.snapshot("acme");
        let json = serde_json::to_string(&snap).unwrap();
        let back: TenantSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(
            cdsf_ra::inputs_key(&back.batch, &back.platform),
            cdsf_ra::inputs_key(&snap.batch, &snap.platform),
            "wire transport must preserve every input bit"
        );
        assert_eq!(back.events_applied, 2);
    }
}
