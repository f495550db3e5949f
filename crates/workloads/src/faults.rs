//! Fault-injection scenarios for the event-driven online scheduler.
//!
//! A [`FaultPlan`] is a declarative, serializable description of *what goes
//! wrong* during a batch execution: staggered application arrivals, injected
//! faults (processor-group crashes, availability collapses, transient
//! stalls) and an optional periodic availability-drift process. The plan is
//! pure data — `cdsf-events` interprets it against a platform and batch, so
//! the same plan can be replayed under different engine configurations
//! (e.g. remapping enabled vs disabled) for controlled comparisons.
//!
//! The named scenarios returned by [`scenario`] are calibrated against the
//! paper's small-scale fixture ([`crate::paper`]): three applications on
//! 4 + 8 processors of two types, with a relaxed online deadline
//! ([`SCENARIO_DEADLINE`]) that leaves room for reactive remapping to pay
//! off after a mid-run fault.

use serde::{Deserialize, Serialize};

/// Online deadline Δ used by the named fault scenarios. Larger than the
/// paper's 3250 offline deadline: online runs absorb arrival staggering and
/// mid-run faults, and the interesting question is whether *reaction*
/// (remapping) saves applications that a static mapping loses.
pub const SCENARIO_DEADLINE: f64 = 5000.0;

/// Execution-time PMF resolution (equiprobable pulses) used by the named
/// scenarios. Coarser than [`crate::paper::DEFAULT_PULSES`]: online runs
/// rebuild the φ₁ engine at every remap, and the scenarios are regression
/// anchors, not fidelity experiments.
pub const SCENARIO_PULSES: usize = 8;

/// What kind of fault strikes a processor type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// `procs` processors of the type crash permanently.
    Crash {
        /// Index of the processor type hit.
        proc_type: usize,
        /// Number of processors lost (clamped to the surviving count).
        procs: u32,
    },
    /// The type's availability distribution collapses: every level is
    /// multiplied by `scale ∈ (0, 1)` (competing load arrives and stays).
    Collapse {
        /// Index of the processor type hit.
        proc_type: usize,
        /// Multiplicative availability scale.
        scale: f64,
    },
    /// The type stalls (availability pinned near zero) for `duration` time
    /// units, then recovers to its pre-stall distribution.
    Stall {
        /// Index of the processor type hit.
        proc_type: usize,
        /// Stall length in simulation time units.
        duration: f64,
    },
}

impl FaultKind {
    /// The processor type this fault strikes.
    pub fn proc_type(&self) -> usize {
        match *self {
            FaultKind::Crash { proc_type, .. }
            | FaultKind::Collapse { proc_type, .. }
            | FaultKind::Stall { proc_type, .. } => proc_type,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Absolute injection time.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Periodic availability drift: at every multiple of `period`, each type's
/// availability PMF is redrawn as the *historical* distribution scaled by a
/// factor sampled uniformly from `[min_scale, max_scale]` (seeded by the
/// engine — the plan only declares the process).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftSpec {
    /// Time between drift redraws.
    pub period: f64,
    /// Smallest multiplicative scale.
    pub min_scale: f64,
    /// Largest multiplicative scale (≤ 1 keeps drift pessimistic).
    pub max_scale: f64,
}

/// A complete fault-injection scenario: arrivals, faults, optional drift.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Human-readable scenario label.
    pub label: String,
    /// Per-application arrival times (index-aligned with the batch;
    /// missing entries mean arrival at `t = 0`).
    pub arrivals: Vec<f64>,
    /// Scheduled faults.
    pub faults: Vec<FaultSpec>,
    /// Optional periodic availability drift.
    pub drift: Option<DriftSpec>,
}

impl FaultPlan {
    /// Starts an empty plan (no arrivals staggered, no faults, no drift).
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            arrivals: Vec::new(),
            faults: Vec::new(),
            drift: None,
        }
    }

    /// Appends one application arrival time.
    pub fn arrival(mut self, t: f64) -> Self {
        self.arrivals.push(t);
        self
    }

    /// Sets all arrival times at once.
    pub fn arrivals(mut self, times: &[f64]) -> Self {
        self.arrivals = times.to_vec();
        self
    }

    /// Schedules a crash of `procs` processors of `proc_type` at `time`.
    pub fn crash_at(mut self, time: f64, proc_type: usize, procs: u32) -> Self {
        self.faults.push(FaultSpec {
            time,
            kind: FaultKind::Crash { proc_type, procs },
        });
        self
    }

    /// Schedules an availability collapse of `proc_type` at `time`.
    pub fn collapse_at(mut self, time: f64, proc_type: usize, scale: f64) -> Self {
        self.faults.push(FaultSpec {
            time,
            kind: FaultKind::Collapse { proc_type, scale },
        });
        self
    }

    /// Schedules a transient stall of `proc_type` at `time`.
    pub fn stall_at(mut self, time: f64, proc_type: usize, duration: f64) -> Self {
        self.faults.push(FaultSpec {
            time,
            kind: FaultKind::Stall {
                proc_type,
                duration,
            },
        });
        self
    }

    /// Enables periodic availability drift.
    pub fn drift(mut self, period: f64, min_scale: f64, max_scale: f64) -> Self {
        self.drift = Some(DriftSpec {
            period,
            min_scale,
            max_scale,
        });
        self
    }

    /// Arrival time of application `i` (0 when not staggered).
    pub fn arrival_of(&self, i: usize) -> f64 {
        self.arrivals.get(i).copied().unwrap_or(0.0)
    }
}

/// Names of the predefined fault scenarios (see [`scenario`]).
pub fn scenario_names() -> &'static [&'static str] {
    &["crash", "collapse", "stall", "drift", "mixed"]
}

/// A named fault scenario for the paper fixture, or `None` for an unknown
/// name.
///
/// * `"crash"` — the canonical crash scenario: staggered arrivals, then
///   3 of the 4 Type-1 processors crash at `t = 600`, long before any
///   application can finish. Without remapping the Type-1 applications
///   are squeezed onto the lone survivor (one of them finds no capacity
///   at all); with remapping the whole remaining batch is re-allocated
///   across the 9 surviving processors.
/// * `"collapse"` — Type 2's availability collapses to 30 % mid-run,
///   degrading the live φ1 below any reasonable threshold.
/// * `"stall"` — Type 2 stalls for 900 time units and recovers.
/// * `"drift"` — no discrete fault; availability drifts every 400 time
///   units between 55 % and 100 % of the historical distribution.
/// * `"mixed"` — a stall, a partial crash and a collapse on top of drift.
pub fn scenario(name: &str) -> Option<FaultPlan> {
    let plan = match name {
        "crash" => FaultPlan::new("canonical Type-1 crash")
            .arrivals(&[0.0, 40.0, 80.0])
            .crash_at(600.0, 0, 3),
        "collapse" => FaultPlan::new("Type-2 availability collapse")
            .arrivals(&[0.0, 40.0, 80.0])
            .collapse_at(500.0, 1, 0.3),
        "stall" => FaultPlan::new("transient Type-2 stall")
            .arrivals(&[0.0, 40.0, 80.0])
            .stall_at(400.0, 1, 900.0),
        "drift" => FaultPlan::new("availability drift only")
            .arrivals(&[0.0, 40.0, 80.0])
            .drift(400.0, 0.55, 1.0),
        "mixed" => FaultPlan::new("stall + crash + collapse under drift")
            .arrivals(&[0.0, 40.0, 80.0])
            .stall_at(300.0, 1, 500.0)
            .crash_at(700.0, 0, 2)
            .collapse_at(1000.0, 1, 0.5)
            .drift(500.0, 0.7, 1.0),
        _ => return None,
    };
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_everything() {
        let plan = FaultPlan::new("t")
            .arrival(0.0)
            .arrival(50.0)
            .crash_at(100.0, 0, 2)
            .collapse_at(200.0, 1, 0.5)
            .stall_at(300.0, 1, 40.0)
            .drift(250.0, 0.6, 1.0);
        assert_eq!(plan.arrivals, vec![0.0, 50.0]);
        assert_eq!(plan.faults.len(), 3);
        assert!(plan.drift.is_some());
        assert_eq!(plan.arrival_of(1), 50.0);
        assert_eq!(plan.arrival_of(7), 0.0, "missing arrivals default to 0");
        assert_eq!(plan.faults[0].kind.proc_type(), 0);
        assert_eq!(plan.faults[1].kind.proc_type(), 1);
    }

    #[test]
    fn named_scenarios_resolve() {
        for name in scenario_names() {
            let plan = scenario(name).unwrap_or_else(|| panic!("scenario {name} missing"));
            assert_eq!(plan.arrivals.len(), 3, "{name}: paper fixture has 3 apps");
            assert!(
                plan.faults.iter().all(|f| f.time > 0.0),
                "{name}: faults must strike mid-run"
            );
        }
        assert!(scenario("nope").is_none());
    }

    #[test]
    fn canonical_crash_shape() {
        let plan = scenario("crash").unwrap();
        assert_eq!(plan.faults.len(), 1);
        let FaultKind::Crash { proc_type, procs } = plan.faults[0].kind else {
            panic!("canonical scenario must be a crash");
        };
        assert_eq!(proc_type, 0);
        assert_eq!(procs, 3);
        assert!(plan.faults[0].time < SCENARIO_DEADLINE);
    }

    #[test]
    fn plans_serialize_round_trip() {
        let plan = scenario("mixed").unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn drift_scenario_declares_a_process_and_no_discrete_fault() {
        let plan = scenario("drift").unwrap();
        assert!(plan.faults.is_empty());
        assert_eq!(
            plan.drift,
            Some(DriftSpec {
                period: 400.0,
                min_scale: 0.55,
                max_scale: 1.0,
            })
        );
        let mixed = scenario("mixed").unwrap();
        let kinds: Vec<usize> = mixed.faults.iter().map(|f| f.kind.proc_type()).collect();
        assert_eq!(kinds, [1, 0, 1]);
        assert!(mixed.drift.is_some());
    }

    #[test]
    fn a_new_plan_is_empty_and_arrivals_replace_what_arrival_appends() {
        let plan = FaultPlan::new("quiet");
        assert_eq!(plan.label, "quiet");
        assert!(plan.arrivals.is_empty() && plan.faults.is_empty());
        assert!(plan.drift.is_none());
        assert_eq!(plan.arrival_of(0), 0.0);
        let staggered = plan.arrivals(&[5.0, 10.0]).arrival(15.0);
        assert_eq!(staggered.arrivals, [5.0, 10.0, 15.0]);
        let reset = staggered.arrivals(&[1.0]);
        assert_eq!(reset.arrivals, [1.0]);
    }
}
