//! The paper's optimal (robust) initial mapping: exhaustive search.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use super::{Allocator, Capacity};
use crate::allocation::{Allocation, Assignment};
use crate::engine::Phi1Engine;
use crate::{RaError, Result};
use cdsf_system::{Batch, Platform};

/// Exhaustive — enumerate every feasible allocation and keep the one with
/// the highest `φ₁ = Pr(Ψ ≤ Δ)`.
///
/// This is the paper's "robust IM": *"all possible resource allocations
/// are compared and the one with the highest probability of all
/// applications completing before the system deadline is chosen"*. The
/// paper also notes such a search "is only feasible in the case of the
/// small demonstrative example" — which the `ra_search` bench quantifies.
///
/// The search is a depth-first enumeration with capacity pruning and an
/// upper-bound cutoff, fed by the shared [`Phi1Engine`] so every candidate
/// evaluation is a table lookup. Parallelism: the prefix tree is expanded
/// breadth-first into a work frontier, worker threads drain it through an
/// atomic cursor, and all workers share a monotonic φ₁ lower bound (an
/// atomic `f64`-bits max). The bound only ever prunes subtrees that cannot
/// *strictly* beat a complete allocation some worker has already seen, so
/// the final argmax is bit-identical for every thread count and schedule.
/// Ties on `φ₁` are broken by the *smaller sum of expected completion
/// times* (several allocations can saturate the deadline probability once
/// PMF tails are truncated by discretization; preferring the faster one
/// among them recovers the paper's Table IV exactly), then
/// lexicographically by option path.
#[derive(Debug, Clone, Copy)]
pub struct Exhaustive {
    /// Number of worker threads for the search. The engine is built by
    /// the caller, or by [`Allocator::allocate`] at the host width.
    pub threads: usize,
}

impl Default for Exhaustive {
    fn default() -> Self {
        Self {
            threads: cdsf_system::default_threads(),
        }
    }
}

impl Exhaustive {
    /// Creates the policy with the given thread count (≥ 1).
    pub fn new(threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(RaError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }
        Ok(Self { threads })
    }
}

/// One candidate option: assignment, probability, expected loaded time.
#[derive(Debug, Clone, Copy)]
struct Option3 {
    asg: Assignment,
    prob: f64,
    exp_time: f64,
}

struct SearchSpace {
    /// Per-application options, sorted by descending probability then
    /// ascending expected time so the DFS finds strong incumbents early.
    options: Vec<Vec<Option3>>,
    /// `suffix_best[d]` = product of per-app max probabilities for apps
    /// `d..`, the admissible upper bound used for pruning.
    suffix_best: Vec<f64>,
}

impl SearchSpace {
    fn build(engine: &Phi1Engine, deadline: f64) -> Result<Self> {
        let mut options = Vec::with_capacity(engine.num_apps());
        for i in 0..engine.num_apps() {
            let mut opts: Vec<Option3> = Vec::new();
            for asg in engine.options(i) {
                let prob = engine
                    .prob(i, asg.proc_type, asg.procs, deadline)
                    .expect("engine option has a cell");
                let exp_time = engine
                    .expected_time(i, asg.proc_type, asg.procs)
                    .expect("engine option has a cell");
                opts.push(Option3 {
                    asg,
                    prob,
                    exp_time,
                });
            }
            if opts.is_empty() {
                return Err(RaError::NoFeasibleAllocation);
            }
            opts.sort_by(|a, b| {
                b.prob
                    .total_cmp(&a.prob)
                    .then_with(|| a.exp_time.total_cmp(&b.exp_time))
            });
            options.push(opts);
        }
        let n = options.len();
        let mut suffix_best = vec![1.0f64; n + 1];
        for d in (0..n).rev() {
            let max_p = options[d].iter().map(|o| o.prob).fold(0.0f64, f64::max);
            suffix_best[d] = suffix_best[d + 1] * max_p;
        }
        Ok(Self {
            options,
            suffix_best,
        })
    }
}

/// Best allocation found in a DFS subtree, with deterministic ordering:
/// max probability, then min total expected time, then smallest path.
#[derive(Clone)]
struct Best {
    prob: f64,
    sum_exp: f64,
    alloc: Vec<Assignment>,
    /// Option-index path, used as the final deterministic tiebreak.
    path: Vec<usize>,
}

impl Best {
    /// Whether `(prob, sum_exp, path)` beats this incumbent.
    fn beaten_by(&self, prob: f64, sum_exp: f64, path: &[usize]) -> bool {
        prob > self.prob
            || (prob == self.prob
                && (sum_exp < self.sum_exp
                    || (sum_exp == self.sum_exp && path < self.path.as_slice())))
    }
}

/// A partial assignment for the first `path.len()` applications — one unit
/// of parallel work.
#[derive(Clone)]
struct Prefix {
    path: Vec<usize>,
    asgs: Vec<Assignment>,
    prob: f64,
    sum_exp: f64,
    cap: Capacity,
}

/// Expands feasible prefixes breadth-first until at least `target` work
/// items exist (or the tree is fully expanded). Every feasible complete
/// allocation extends exactly one frontier prefix, so draining the
/// frontier covers the whole space; an empty frontier means the instance
/// is infeasible.
fn expand_frontier(space: &SearchSpace, platform: &Platform, target: usize) -> Vec<Prefix> {
    let mut frontier = vec![Prefix {
        path: Vec::new(),
        asgs: Vec::new(),
        prob: 1.0,
        sum_exp: 0.0,
        cap: Capacity::of(platform),
    }];
    let n = space.options.len();
    let mut depth = 0usize;
    while depth < n && frontier.len() < target {
        let mut next = Vec::with_capacity(frontier.len() * space.options[depth].len());
        for pre in &frontier {
            for (idx, opt) in space.options[depth].iter().enumerate() {
                if !pre.cap.fits(opt.asg) {
                    continue;
                }
                let mut cap = pre.cap.clone();
                cap.take(opt.asg);
                let mut path = pre.path.clone();
                path.push(idx);
                let mut asgs = pre.asgs.clone();
                asgs.push(opt.asg);
                next.push(Prefix {
                    path,
                    asgs,
                    prob: pre.prob * opt.prob,
                    sum_exp: pre.sum_exp + opt.exp_time,
                    cap,
                });
            }
        }
        if next.is_empty() {
            return next; // no feasible prefix at this depth → infeasible
        }
        frontier = next;
        depth += 1;
    }
    frontier
}

/// Loads the shared lower bound. φ₁ values are non-negative, so their
/// IEEE-754 bit patterns order like the values themselves and an atomic
/// `u64` max doubles as an atomic `f64` max.
fn load_bound(bound: &AtomicU64) -> f64 {
    f64::from_bits(bound.load(Ordering::Relaxed))
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    space: &SearchSpace,
    cap: &mut Capacity,
    current: &mut Vec<Assignment>,
    path: &mut Vec<usize>,
    prob: f64,
    sum_exp: f64,
    best: &mut Option<Best>,
    bound: &AtomicU64,
) {
    let depth = current.len();
    if depth == space.options.len() {
        let better = match best {
            None => true,
            Some(b) => b.beaten_by(prob, sum_exp, path),
        };
        if better {
            *best = Some(Best {
                prob,
                sum_exp,
                alloc: current.clone(),
                path: path.clone(),
            });
            bound.fetch_max(prob.to_bits(), Ordering::Relaxed);
        }
        return;
    }
    // Bound: even taking the best remaining options cannot *strictly* beat
    // a complete allocation some worker has already found; subtrees that
    // can only tie are kept alive for the expected-time tiebreak, which is
    // why sharing the bound across threads cannot change the final argmax.
    if prob * space.suffix_best[depth] < load_bound(bound) {
        return;
    }
    for (idx, opt) in space.options[depth].iter().enumerate() {
        if !cap.fits(opt.asg) {
            continue;
        }
        cap.take(opt.asg);
        current.push(opt.asg);
        path.push(idx);
        dfs(
            space,
            cap,
            current,
            path,
            prob * opt.prob,
            sum_exp + opt.exp_time,
            best,
            bound,
        );
        path.pop();
        current.pop();
        cap.release(opt.asg);
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
        if self.threads == 0 {
            return Err(RaError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }
        let space = SearchSpace::build(engine, deadline)?;

        // Oversubscribe the frontier so pruning-induced load imbalance
        // evens out across the shared cursor.
        let frontier = expand_frontier(&space, platform, self.threads * 16);
        let bound = AtomicU64::new(0);
        let cursor = AtomicUsize::new(0);

        let results: Vec<Option<Best>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.threads);
            for _ in 0..self.threads {
                let space = &space;
                let frontier = &frontier;
                let bound = &bound;
                let cursor = &cursor;
                handles.push(scope.spawn(move || {
                    let mut best: Option<Best> = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(pre) = frontier.get(i) else {
                            break;
                        };
                        let mut cap = pre.cap.clone();
                        let mut current = pre.asgs.clone();
                        let mut path = pre.path.clone();
                        dfs(
                            space,
                            &mut cap,
                            &mut current,
                            &mut path,
                            pre.prob,
                            pre.sum_exp,
                            &mut best,
                            bound,
                        );
                    }
                    best
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked"))
                .collect()
        });

        let best = results
            .into_iter()
            .flatten()
            .max_by(|a, b| {
                a.prob
                    .total_cmp(&b.prob)
                    .then_with(|| b.sum_exp.total_cmp(&a.sum_exp)) // smaller time wins
                    .then_with(|| b.path.cmp(&a.path)) // smaller path wins
            })
            .ok_or(RaError::NoFeasibleAllocation)?;
        Ok(Allocation::new(best.alloc))
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
        let alloc = Exhaustive::default()
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
        let best = Exhaustive::default().allocate(&b, &p, DEADLINE).unwrap();
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
    fn thread_count_does_not_change_result() {
        let (b, p) = (paper_batch(32), paper_platform());
        let a1 = Exhaustive::new(1)
            .unwrap()
            .allocate(&b, &p, DEADLINE)
            .unwrap();
        let a8 = Exhaustive::new(8)
            .unwrap()
            .allocate(&b, &p, DEADLINE)
            .unwrap();
        assert_eq!(a1, a8);
        assert!(Exhaustive::new(0).is_err());
    }

    #[test]
    fn prebuilt_engine_matches_self_built_path() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let direct = Exhaustive::default().allocate(&b, &p, DEADLINE).unwrap();
        let via_engine = Exhaustive::default()
            .allocate_with_engine(&b, &p, &engine, DEADLINE)
            .unwrap();
        assert_eq!(direct, via_engine);
    }

    #[test]
    fn rejects_empty_batch_and_bad_deadline() {
        let p = paper_platform();
        assert!(Exhaustive::default()
            .allocate(&cdsf_system::Batch::new(vec![]), &p, DEADLINE)
            .is_err());
        let b = paper_batch(8);
        let engine = Phi1Engine::build(&b, &p).unwrap();
        assert!(Exhaustive::default()
            .allocate_with_engine(&b, &p, &engine, f64::NAN)
            .is_err());
    }
}
