//! Stage-I allocation policies.
//!
//! * [`EqualShare`] — the paper's naïve load balancing: every application
//!   receives an equal share of the machine; only the type placement is
//!   optimized.
//! * [`Lattice`] — the paper's "robust IM": the `φ₁`-optimal allocation by
//!   exact branch-and-bound over the allocation lattice, pruned with
//!   prefix-CDF bound tables; [`Lattice::anytime_with_engine`] bounds its
//!   work and certifies what it did not prove. [`GammaRobust`] is its
//!   Γ-budget worst-case variant with provable infeasibility.
//! * [`Exhaustive`] — the serial reference the lattice is held to:
//!   enumerate every feasible allocation and keep the one maximizing `φ₁`
//!   under the same total order. Only viable for small instances, which
//!   is exactly the paper's point; the equivalence suites run it, no
//!   front end does.
//! * [`GreedyMinTime`], [`GreedyMaxRobust`], [`Sufferage`] — list-scheduling
//!   heuristics in the Min-min/Max-min/Sufferage tradition, scored on the
//!   stochastic robustness table instead of deterministic completion times.
//!   They and [`allocate_incremental`]'s wave allocator share one loop.
//! * [`SimulatedAnnealing`], [`GeneticAlgorithm`] — metaheuristics for the
//!   large instances the paper defers to future work.
//!
//! All policies implement [`Allocator`] through its one required method,
//! `allocate_with_engine`, and are deterministic: the metaheuristics take
//! explicit seeds.

mod equal_share;
mod exhaustive;
mod greedy;
mod incremental;
mod lattice;
mod metaheuristic;

pub use equal_share::EqualShare;
pub use exhaustive::Exhaustive;
pub use greedy::{GreedyMaxRobust, GreedyMinTime, Sufferage};
pub use incremental::{allocate_incremental, allocate_incremental_with_engine};
pub use lattice::{
    GammaRobust, Lattice, LatticeCounters, LatticeReport, LatticeScratch, LatticeSolution, Unproven,
};
pub use metaheuristic::{GeneticAlgorithm, MultiStartReport, SimulatedAnnealing};

use crate::allocation::{Allocation, Assignment};
use crate::engine::Phi1Engine;
use crate::{RaError, Result};
#[cfg(test)]
use cdsf_system::ProcTypeId;
use cdsf_system::{Batch, Platform};

/// A Stage-I allocation policy.
///
/// A policy writes one method, [`Allocator::allocate_with_engine`], and
/// answers every probability and expected-time query from the prebuilt
/// [`Phi1Engine`] it is handed. [`Allocator::allocate`] builds that
/// engine itself; callers that need a given build width, or allocate
/// more than once on the same inputs, build it themselves.
pub trait Allocator {
    /// Policy name for reports (e.g. `"EqualShare"`).
    fn name(&self) -> &'static str;

    /// Produces a feasible allocation for `batch` on `platform` targeting
    /// the common deadline, with `engine` built for `(batch, platform)`.
    fn allocate_with_engine(
        &self,
        batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation>;

    /// As [`Allocator::allocate_with_engine`], building the engine at the
    /// host width ([`cdsf_system::default_threads`]). The engine's bits do
    /// not depend on the width, so neither does the answer. An empty batch
    /// is rejected by the build.
    fn allocate(&self, batch: &Batch, platform: &Platform, deadline: f64) -> Result<Allocation> {
        let engine = Phi1Engine::build_parallel(batch, platform, cdsf_system::default_threads())?;
        self.allocate_with_engine(batch, platform, &engine, deadline)
    }
}

/// Shared helper: all feasible `(type, pow2 count)` options for one
/// application, in deterministic order. The engine pre-computes the same
/// lists; this direct form remains as the test oracle for them.
#[cfg(test)]
pub(crate) fn app_options(
    app: &cdsf_system::Application,
    platform: &Platform,
) -> Result<Vec<Assignment>> {
    let mut opts = Vec::new();
    for j in 0..platform.num_types() {
        let id = ProcTypeId(j);
        if app.exec_time(id).is_err() {
            continue;
        }
        for n in platform.pow2_options(id)? {
            opts.push(Assignment {
                proc_type: id,
                procs: n,
            });
        }
    }
    if opts.is_empty() {
        return Err(RaError::NoFeasibleAllocation);
    }
    Ok(opts)
}

/// Shared helper: per-application option lists served by the engine, in
/// the same deterministic order as [`app_options`]. Errors when any
/// application has no feasible option at all.
pub(crate) fn engine_options(engine: &Phi1Engine) -> Result<Vec<Vec<Assignment>>> {
    let mut all = Vec::with_capacity(engine.num_apps());
    for i in 0..engine.num_apps() {
        let opts = engine.options(i);
        if opts.is_empty() {
            return Err(RaError::NoFeasibleAllocation);
        }
        all.push(opts);
    }
    Ok(all)
}

/// Shared helper: per-type free capacity tracking.
#[derive(Debug, Clone)]
pub(crate) struct Capacity {
    free: Vec<u32>,
}

impl Capacity {
    pub(crate) fn of(platform: &Platform) -> Self {
        Self {
            free: platform.types().iter().map(|t| t.count()).collect(),
        }
    }

    pub(crate) fn fits(&self, asg: Assignment) -> bool {
        self.free[asg.proc_type.0] >= asg.procs
    }

    pub(crate) fn take(&mut self, asg: Assignment) {
        debug_assert!(self.fits(asg));
        self.free[asg.proc_type.0] -= asg.procs;
    }

    pub(crate) fn release(&mut self, asg: Assignment) {
        self.free[asg.proc_type.0] += asg.procs;
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use cdsf_pmf::Pmf;
    use cdsf_system::{Application, Batch, Platform, ProcessorType};

    /// The paper's platform (Table I, case 1).
    pub fn paper_platform() -> Platform {
        Platform::new(vec![
            ProcessorType::new(
                "Type 1",
                4,
                Pmf::from_pairs([(0.75, 0.5), (1.0, 0.5)]).unwrap(),
            )
            .unwrap(),
            ProcessorType::new(
                "Type 2",
                8,
                Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap(),
            )
            .unwrap(),
        ])
        .unwrap()
    }

    /// The paper's batch (Tables II and III), with `pulses` PMF resolution.
    pub fn paper_batch(pulses: usize) -> Batch {
        let mk = |name: &str, s: u64, p: u64, t1: f64, t2: f64| {
            Application::builder(name)
                .serial_iters(s)
                .parallel_iters(p)
                .exec_time_normal(t1, pulses)
                .unwrap()
                .exec_time_normal(t2, pulses)
                .unwrap()
                .build()
                .unwrap()
        };
        Batch::new(vec![
            mk("app 1", 439, 1024, 1800.0, 4000.0),
            mk("app 2", 512, 2048, 2800.0, 6000.0),
            mk("app 3", 216, 4096, 12000.0, 8000.0),
        ])
    }

    /// The paper's deadline.
    pub const DEADLINE: f64 = 3250.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::*;

    #[test]
    fn app_options_cover_both_types() {
        let b = paper_batch(8);
        let p = paper_platform();
        let opts = app_options(b.app(cdsf_system::AppId(0)).unwrap(), &p).unwrap();
        // Type 1: 1,2,4; Type 2: 1,2,4,8 → 7 options.
        assert_eq!(opts.len(), 7);
    }

    #[test]
    fn capacity_bookkeeping() {
        let p = paper_platform();
        let mut cap = Capacity::of(&p);
        let asg = Assignment {
            proc_type: ProcTypeId(0),
            procs: 4,
        };
        assert!(cap.fits(asg));
        cap.take(asg);
        assert!(!cap.fits(Assignment {
            proc_type: ProcTypeId(0),
            procs: 1
        }));
        cap.release(asg);
        assert!(cap.fits(asg));
    }
}
