//! Engine configuration: deadline, seeding, remap triggers, and the
//! Stage-I policy used for reactive re-allocation.

use crate::{EventsError, Result};
use cdsf_core::ImPolicy;
use cdsf_dls::TechniqueKind;

/// Configuration of one online run.
///
/// Not `Clone` because the remap allocator ([`ImPolicy`]) may box an
/// arbitrary custom allocator; construct one per run (cheap).
#[derive(Debug)]
pub struct EngineConfig {
    /// The common absolute deadline Δ every application must meet.
    pub deadline: f64,
    /// Base seed; sessions and drift draws derive independent streams.
    pub seed: u64,
    /// DLS technique used by every Stage-II executor session.
    pub technique: TechniqueKind,
    /// Per-chunk scheduling overhead (wall-clock time units).
    pub overhead: f64,
    /// Mean dwell of the availability renewal process driving executors.
    pub mean_dwell: f64,
    /// Run horizon as a multiple of the deadline: the engine stops at
    /// `horizon_factor · deadline` and marks stragglers as missed.
    pub horizon_factor: f64,
    /// Number of evenly spaced watchdog checkpoints in `(0, deadline)`.
    pub watchdog_checks: usize,
    /// Whether reactive Stage-I remapping is enabled. When `false`, faults
    /// degrade each affected group in place (capacity clamping) — the
    /// static baseline.
    pub remap: bool,
    /// Live-`φ₁` remap trigger: after a collapse or drift event the joint
    /// probability of the remnant batch meeting the deadline is re-evaluated
    /// and a remap fires when it drops below this threshold. `0` disables
    /// the φ₁ trigger (crash and watchdog triggers remain).
    pub phi1_threshold: f64,
    /// Stage-I policy used for the initial mapping and every remap.
    pub allocator: ImPolicy,
    /// Worker threads for φ₁ engine builds (never affects results).
    pub threads: usize,
}

impl EngineConfig {
    /// A configuration with the framework defaults for the given deadline:
    /// FAC (a paper robust-set technique), remapping enabled with a 50 %
    /// φ₁ threshold, two watchdog checkpoints, the robust (exact lattice)
    /// allocator, and the simulation-grid default seed/overhead/dwell.
    pub fn new(deadline: f64) -> Self {
        Self {
            deadline,
            seed: 0xCD5F,
            technique: TechniqueKind::Fac,
            overhead: 1.0,
            mean_dwell: 300.0,
            horizon_factor: 2.0,
            watchdog_checks: 2,
            remap: true,
            phi1_threshold: 0.5,
            allocator: ImPolicy::Robust,
            threads: cdsf_core::default_threads(),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.deadline > 0.0) || !self.deadline.is_finite() {
            return Err(EventsError::BadParameter {
                name: "deadline",
                value: self.deadline,
            });
        }
        if !(self.overhead >= 0.0) || !self.overhead.is_finite() {
            return Err(EventsError::BadParameter {
                name: "overhead",
                value: self.overhead,
            });
        }
        if !(self.mean_dwell > 0.0) || !self.mean_dwell.is_finite() {
            return Err(EventsError::BadParameter {
                name: "mean_dwell",
                value: self.mean_dwell,
            });
        }
        if !(self.horizon_factor >= 1.0) || !self.horizon_factor.is_finite() {
            return Err(EventsError::BadParameter {
                name: "horizon_factor",
                value: self.horizon_factor,
            });
        }
        if !(0.0..=1.0).contains(&self.phi1_threshold) {
            return Err(EventsError::BadParameter {
                name: "phi1_threshold",
                value: self.phi1_threshold,
            });
        }
        if self.threads == 0 {
            return Err(EventsError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        EngineConfig::new(5000.0).validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_domains() {
        let breakages: [fn(&mut EngineConfig); 7] = [
            |c| c.deadline = 0.0,
            |c| c.deadline = f64::NAN,
            |c| c.overhead = -1.0,
            |c| c.mean_dwell = 0.0,
            |c| c.horizon_factor = 0.5,
            |c| c.phi1_threshold = 1.5,
            |c| c.threads = 0,
        ];
        for breakage in breakages {
            let mut cfg = EngineConfig::new(5000.0);
            breakage(&mut cfg);
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn validation_names_the_parameter_it_refuses() {
        type Breakage = fn(&mut EngineConfig);
        let breakages: [(Breakage, &str); 6] = [
            (|c| c.deadline = f64::INFINITY, "deadline"),
            (|c| c.overhead = f64::NAN, "overhead"),
            (|c| c.mean_dwell = -3.0, "mean_dwell"),
            (|c| c.horizon_factor = f64::INFINITY, "horizon_factor"),
            (|c| c.phi1_threshold = -0.1, "phi1_threshold"),
            (|c| c.threads = 0, "threads"),
        ];
        for (breakage, want) in breakages {
            let mut cfg = EngineConfig::new(5000.0);
            breakage(&mut cfg);
            match cfg.validate() {
                Err(EventsError::BadParameter { name, .. }) => assert_eq!(name, want),
                other => panic!("{want}: expected BadParameter, got {other:?}"),
            }
        }
        // The boundaries themselves are admitted.
        let mut edge = EngineConfig::new(5000.0);
        edge.overhead = 0.0;
        edge.horizon_factor = 1.0;
        edge.phi1_threshold = 0.0;
        edge.validate().unwrap();
        edge.phi1_threshold = 1.0;
        edge.validate().unwrap();
    }
}
