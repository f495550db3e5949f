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

    fn state(spec: WorkloadSpec) -> TenantState {
        let (batch, platform) = spec.expand().unwrap();
        TenantState {
            spec,
            deadline: 2_800.0,
            allocator: "lattice".into(),
            threshold: 0.5,
            batch,
            platform,
            engine_key: 0,
            events_applied: 0,
        }
    }

    fn protocol_message(r: Result<(Batch, Platform)>) -> String {
        match r {
            Err(ServeError::Protocol(msg)) => msg,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn expansion_names_the_field_one_past_its_bound() {
        for (spec, field) in [
            (WorkloadSpec::simple(MAX_APPS + 1, 2, 6, 1), "spec.apps"),
            (WorkloadSpec::simple(3, MAX_TYPES + 1, 6, 1), "spec.types"),
            (WorkloadSpec::simple(3, 2, MAX_PULSES + 1, 1), "spec.pulses"),
            (WorkloadSpec::simple(3, 0, 6, 1), "spec.types"),
        ] {
            let msg = protocol_message(spec.expand());
            assert!(msg.contains(field), "{msg:?} should name {field}");
        }
        // The lower pulse bound is inclusive.
        assert!(WorkloadSpec::simple(1, 1, 2, 1).expand().is_ok());
    }

    #[test]
    fn app_seeds_must_name_every_application() {
        let spec = WorkloadSpec {
            app_seeds: Some(vec![1, 2]),
            ..WorkloadSpec::simple(3, 2, 6, 1)
        };
        let msg = protocol_message(spec.expand());
        assert!(msg.contains("2 entries for 3 apps"), "{msg:?}");
    }

    #[test]
    fn shared_app_seeds_expand_to_bit_identical_applications() {
        let a = WorkloadSpec {
            platform_seed: Some(5),
            app_seeds: Some(vec![10, 11]),
            ..WorkloadSpec::simple(2, 3, 6, 1)
        };
        let b = WorkloadSpec {
            platform_seed: Some(5),
            app_seeds: Some(vec![11, 12, 10]),
            ..WorkloadSpec::simple(3, 3, 6, 2)
        };
        let (ba, pa) = a.expand().unwrap();
        let (bb, pb) = b.expand().unwrap();
        for (x, y) in pa.types().iter().zip(pb.types()) {
            assert!(x.availability().bits_eq(y.availability()));
        }
        let same = |x: &cdsf_system::Application, y: &cdsf_system::Application| {
            (0..3).all(|j| {
                let j = cdsf_system::ProcTypeId(j);
                x.exec_time(j).unwrap().bits_eq(y.exec_time(j).unwrap())
            })
        };
        assert!(same(&ba.apps()[0], &bb.apps()[2]), "seed 10");
        assert!(same(&ba.apps()[1], &bb.apps()[0]), "seed 11");
        assert!(!same(&ba.apps()[0], &bb.apps()[1]), "seeds 10 and 12");
    }

    #[test]
    fn a_platform_seed_equal_to_the_seed_expands_like_the_legacy_recipe() {
        let legacy = WorkloadSpec::simple(3, 2, 6, 42);
        let pinned = WorkloadSpec {
            platform_seed: Some(42),
            ..legacy.clone()
        };
        let (b1, p1) = legacy.expand().unwrap();
        let (b2, p2) = pinned.expand().unwrap();
        assert_eq!(cdsf_ra::inputs_key(&b1, &p1), cdsf_ra::inputs_key(&b2, &p2));
    }

    #[test]
    fn payloads_without_catalog_fields_read_as_the_legacy_recipe() {
        let spec: WorkloadSpec =
            serde_json::from_str(r#"{"apps":3,"types":2,"pulses":6,"seed":9}"#).unwrap();
        assert_eq!(spec, WorkloadSpec::simple(3, 2, 6, 9));
    }

    #[test]
    fn event_factors_outside_their_domain_are_refused() {
        let s = state(WorkloadSpec::simple(2, 2, 5, 3));
        for factor in [0.049, 4.01, f64::NAN, -1.0] {
            for event in [
                TenantEvent::Degrade {
                    proc_type: 0,
                    factor,
                },
                TenantEvent::Drift { factor },
            ] {
                let msg = protocol_message(s.apply_event(&event));
                assert!(msg.contains("factor"), "{msg:?}");
            }
        }
        for factor in [0.05, 4.0] {
            assert!(s.apply_event(&TenantEvent::Drift { factor }).is_ok());
        }
    }

    #[test]
    fn apply_event_derives_new_inputs_and_leaves_the_state_alone() {
        let s = state(WorkloadSpec::simple(3, 3, 5, 8));
        let before = cdsf_ra::inputs_key(&s.batch, &s.platform);

        let (batch, platform) = s.apply_event(&TenantEvent::Crash { proc_type: 1 }).unwrap();
        assert_eq!(platform.num_types(), 2);
        assert_eq!(batch.len(), 3);

        let (batch, platform) = s
            .apply_event(&TenantEvent::Degrade {
                proc_type: 2,
                factor: 0.5,
            })
            .unwrap();
        assert_eq!(
            cdsf_ra::inputs_key(&batch, &s.platform),
            before,
            "a degrade keeps the batch bits"
        );
        assert_ne!(cdsf_ra::inputs_key(&batch, &platform), before);

        assert_eq!(cdsf_ra::inputs_key(&s.batch, &s.platform), before);
        assert_eq!(s.events_applied, 0);
    }

    #[test]
    fn a_crash_of_an_unknown_type_is_a_framework_error() {
        let s = state(WorkloadSpec::simple(2, 2, 5, 4));
        let err = s
            .apply_event(&TenantEvent::Crash { proc_type: 2 })
            .unwrap_err();
        assert!(matches!(err, ServeError::Framework(_)), "{err:?}");
    }

    #[test]
    fn from_snapshot_restores_everything_but_the_engine_key() {
        let mut s = state(WorkloadSpec::simple(2, 2, 5, 6));
        s.engine_key = 77;
        s.events_applied = 3;
        let back = TenantState::from_snapshot(&s.snapshot("t"));
        assert_eq!(back.spec, s.spec);
        assert_eq!(back.deadline, s.deadline);
        assert_eq!(back.allocator, s.allocator);
        assert_eq!(back.threshold, s.threshold);
        assert_eq!(back.events_applied, 3);
        assert_eq!(back.engine_key, 0, "the shard fills the key in");
        assert_eq!(
            cdsf_ra::inputs_key(&back.batch, &back.platform),
            cdsf_ra::inputs_key(&s.batch, &s.platform)
        );
    }
}
