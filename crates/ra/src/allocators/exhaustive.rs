//! The paper's optimal (robust) initial mapping: exhaustive search.

use super::{Allocator, Capacity};
use crate::allocation::{Allocation, Assignment};
use crate::engine::{OptionStats, Phi1Engine};
use crate::{RaError, Result};
use cdsf_system::{Batch, Platform};

/// Relative slack of the upper-bound cut. The bound and a leaf multiply
/// the same ≤ 64 factors in different orders, which moves them apart by
/// ~1e-14 at most (in the normal range), so the slack can keep an extra
/// subtree but never cut one that ties the incumbent.
const SLACK: f64 = 1.0 + 1e-9;

/// Exhaustive — enumerate every feasible allocation and keep the one with
/// the highest `φ₁ = Pr(Ψ ≤ Δ)`.
///
/// This is the paper's "robust IM" as the paper states it: *"all
/// possible resource allocations are compared and the one with the
/// highest probability of all applications completing before the system
/// deadline is chosen"*. The paper also notes such a search "is only
/// feasible in the case of the small demonstrative example" — which the
/// `ra_search` bench quantifies.
///
/// It is the serial reference the [`super::Lattice`] solver is held to;
/// the lattice answers the robust IM everywhere else. One depth-first
/// enumeration over the [`Phi1Engine`]'s option rows, each application's
/// ranked by probability (descending) then expected time, with capacity
/// pruning and a slack-guarded upper-bound cut. Ties on `φ₁` are broken
/// by the *smaller sum of expected completion times* (several
/// allocations can saturate the deadline probability once PMF tails are
/// truncated by discretization; preferring the faster one among them
/// recovers the paper's Table IV exactly), then by the lexicographically
/// smallest option path: leaves are visited in path order, so the first
/// of equal keys is kept.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

/// The serial depth-first search over ranked option rows.
struct Search<'a> {
    options: &'a [Vec<OptionStats>],
    /// `suffix_best[d]`: product of the per-app maximum probabilities of
    /// applications `d..`, the upper bound the cut uses.
    suffix_best: &'a [f64],
    cap: Capacity,
    current: Vec<Assignment>,
    /// `(φ₁, Σ E[T], allocation)` of the incumbent.
    best: Option<(f64, f64, Vec<Assignment>)>,
}

impl Search<'_> {
    fn dfs(&mut self, prob: f64, sum_exp: f64) {
        let depth = self.current.len();
        if depth == self.options.len() {
            let better = self
                .best
                .as_ref()
                .map_or(true, |&(p, s, _)| prob > p || (prob == p && sum_exp < s));
            if better {
                self.best = Some((prob, sum_exp, self.current.clone()));
            }
            return;
        }
        if let Some((p, ..)) = self.best {
            if prob * self.suffix_best[depth] * SLACK < p {
                return;
            }
        }
        let options = self.options;
        for o in &options[depth] {
            if !self.cap.fits(o.asg) {
                continue;
            }
            self.cap.take(o.asg);
            self.current.push(o.asg);
            self.dfs(prob * o.prob, sum_exp + o.exp_time);
            self.current.pop();
            self.cap.release(o.asg);
        }
    }
}

impl Allocator for Exhaustive {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }

    fn allocate_with_engine(
        &self,
        batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        if !(deadline > 0.0) || !deadline.is_finite() {
            return Err(RaError::BadParameter {
                name: "deadline",
                value: deadline,
            });
        }
        let mut options = Vec::with_capacity(engine.num_apps());
        for app in 0..engine.num_apps() {
            let mut row = Vec::new();
            engine.option_stats_into(app, deadline, &mut row);
            if row.is_empty() {
                return Err(RaError::NoFeasibleAllocation);
            }
            row.sort_by(|a, b| {
                b.prob
                    .total_cmp(&a.prob)
                    .then_with(|| a.exp_time.total_cmp(&b.exp_time))
            });
            options.push(row);
        }
        let mut suffix_best = vec![1.0f64; options.len() + 1];
        for d in (0..options.len()).rev() {
            let max_p = options[d].iter().map(|o| o.prob).fold(0.0f64, f64::max);
            suffix_best[d] = suffix_best[d + 1] * max_p;
        }
        let mut search = Search {
            options: &options,
            suffix_best: &suffix_best,
            cap: Capacity::of(platform),
            current: Vec::with_capacity(options.len()),
            best: None,
        };
        search.dfs(1.0, 0.0);
        let (.., alloc) = search.best.ok_or(RaError::NoFeasibleAllocation)?;
        Ok(Allocation::new(alloc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::testutil::*;
    use crate::robustness::evaluate;
    use cdsf_system::ProcTypeId;

    #[test]
    fn reproduces_paper_table4_robust_row() {
        let alloc = Exhaustive
            .allocate(&paper_batch(64), &paper_platform(), DEADLINE)
            .unwrap();
        let a = alloc.assignments();
        // Paper Table IV robust: app1 → 2×type1, app2 → 2×type1, app3 → 8×type2.
        assert_eq!(
            a[0],
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2
            }
        );
        assert_eq!(
            a[1],
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2
            }
        );
        assert_eq!(
            a[2],
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 8
            }
        );
    }

    #[test]
    fn optimum_matches_brute_force_over_enumeration() {
        let (b, p) = (paper_batch(32), paper_platform());
        let best = Exhaustive.allocate(&b, &p, DEADLINE).unwrap();
        let best_prob = evaluate(&b, &p, &best, DEADLINE).unwrap().joint;
        for alloc in Allocation::enumerate_feasible(&b, &p).unwrap() {
            let prob = evaluate(&b, &p, &alloc, DEADLINE).unwrap().joint;
            assert!(
                prob <= best_prob + 1e-12,
                "{alloc} beats optimum: {prob} > {best_prob}"
            );
        }
    }

    #[test]
    fn prebuilt_engine_matches_self_built_path() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let direct = Exhaustive.allocate(&b, &p, DEADLINE).unwrap();
        let via_engine = Exhaustive
            .allocate_with_engine(&b, &p, &engine, DEADLINE)
            .unwrap();
        assert_eq!(direct, via_engine);
    }

    #[test]
    fn rejects_empty_batch_and_bad_deadline() {
        let p = paper_platform();
        assert!(Exhaustive
            .allocate(&cdsf_system::Batch::new(vec![]), &p, DEADLINE)
            .is_err());
        let b = paper_batch(8);
        let engine = Phi1Engine::build(&b, &p).unwrap();
        assert!(Exhaustive
            .allocate_with_engine(&b, &p, &engine, f64::NAN)
            .is_err());
    }
}
