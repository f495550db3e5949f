//! Greedy list-scheduling heuristics scored on stochastic robustness.
//!
//! The paper's future work calls for "robust and scalable RA heuristics";
//! these are stochastic-metric versions of the classic Min-min / Max-min /
//! Sufferage mapping heuristics (Ibarra & Kim; Maheswaran et al.),
//! evaluating candidates on the memoized `Pr(T ≤ Δ)` table rather than on
//! deterministic completion times. All run in `O(N² · options)` or better —
//! polynomial where [`super::Exhaustive`] is exponential. All candidate
//! probabilities and expected times are served by the [`Phi1Engine`]
//! handed to `allocate_with_engine`; the policies themselves are
//! single-threaded and carry no settings.

use super::{engine_options, Allocator, Capacity};
use crate::allocation::{Allocation, Assignment};
use crate::engine::Phi1Engine;
use crate::{RaError, Result};
use cdsf_system::{Batch, Platform};

/// Whether taking `asg` still leaves every other unassigned application at
/// least one fitting option. A one-step lookahead, not an exact matching
/// test, but it prevents the classic greedy dead-end where an early large
/// grab starves a later application of *all* options. (An application can
/// always fall back to a 1-processor group, so per-app checks are nearly
/// always sufficient in practice.)
fn leaves_others_feasible(
    cap: &mut Capacity,
    asg: Assignment,
    unassigned: &[usize],
    skip: usize,
    options: &[Vec<Assignment>],
) -> bool {
    cap.take(asg);
    let ok = unassigned
        .iter()
        .filter(|&&i| i != skip)
        .all(|&i| options[i].iter().any(|o| cap.fits(*o)));
    cap.release(asg);
    ok
}

/// GreedyMinTime — assign applications (hardest first) to the feasible
/// option minimizing their *expected loaded completion time*.
///
/// "Hardest" = largest best-case expected completion time over all
/// currently-feasible options, recomputed as capacity shrinks. This is the
/// Max-min analogue on expectations; it ignores the deadline entirely,
/// which makes it a useful "efficiency-only" baseline for the robustness
/// heuristics.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyMinTime;

impl GreedyMinTime {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Allocator for GreedyMinTime {
    fn name(&self) -> &'static str {
        "GreedyMinTime"
    }

    fn allocate_with_engine(
        &self,
        batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        _deadline: f64,
    ) -> Result<Allocation> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        // Expected loaded times for all (app, option) pairs — engine lookups.
        let plain = engine_options(engine)?;
        let expected: Vec<Vec<(Assignment, f64)>> = plain
            .iter()
            .enumerate()
            .map(|(i, opts)| {
                opts.iter()
                    .map(|&asg| {
                        let t = engine
                            .expected_time(i, asg.proc_type, asg.procs)
                            .expect("engine option has a cell");
                        (asg, t)
                    })
                    .collect()
            })
            .collect();

        let mut cap = Capacity::of(platform);
        let mut chosen: Vec<Option<Assignment>> = vec![None; batch.len()];
        let mut unassigned: Vec<usize> = (0..batch.len()).collect();
        while !unassigned.is_empty() {
            // For each unassigned app: its best option that fits *and*
            // leaves every other unassigned app at least one option.
            let mut best_per_app: Vec<(usize, Assignment, f64)> = Vec::new();
            for &i in &unassigned {
                let mut row: Vec<(Assignment, f64)> = expected[i]
                    .iter()
                    .copied()
                    .filter(|(asg, _)| cap.fits(*asg))
                    .collect();
                row.sort_by(|a, b| a.1.total_cmp(&b.1));
                let pick = row.into_iter().find(|&(asg, _)| {
                    leaves_others_feasible(&mut cap, asg, &unassigned, i, &plain)
                });
                match pick {
                    Some((asg, t)) => best_per_app.push((i, asg, t)),
                    None => return Err(RaError::NoFeasibleAllocation),
                }
            }
            // Hardest app first: the one whose best option is worst.
            let &(i, asg, _) = best_per_app
                .iter()
                .max_by(|a, b| a.2.total_cmp(&b.2))
                .expect("unassigned is non-empty");
            cap.take(asg);
            chosen[i] = Some(asg);
            unassigned.retain(|&x| x != i);
        }
        Ok(Allocation::new(
            chosen
                .into_iter()
                .map(|c| c.expect("all assigned"))
                .collect(),
        ))
    }
}

/// GreedyMaxRobust — most-constrained-first on deadline probability.
///
/// Repeatedly pick the unassigned application whose *best* feasible
/// `Pr(T ≤ Δ)` is lowest (it is the bottleneck for the joint product) and
/// give it that best option.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyMaxRobust;

impl GreedyMaxRobust {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Allocator for GreedyMaxRobust {
    fn name(&self) -> &'static str {
        "GreedyMaxRobust"
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
        let table = engine.table(deadline)?;
        let options = engine_options(engine)?;

        let mut cap = Capacity::of(platform);
        let mut chosen: Vec<Option<Assignment>> = vec![None; batch.len()];
        let mut unassigned: Vec<usize> = (0..batch.len()).collect();
        while !unassigned.is_empty() {
            let mut pick: Option<(usize, Assignment, f64)> = None;
            for &i in &unassigned {
                let mut row: Vec<(Assignment, f64)> = options[i]
                    .iter()
                    .filter(|asg| cap.fits(**asg))
                    .filter_map(|asg| table.prob(i, asg.proc_type, asg.procs).map(|p| (*asg, p)))
                    .collect();
                row.sort_by(|a, b| b.1.total_cmp(&a.1));
                let best = row.into_iter().find(|&(asg, _)| {
                    leaves_others_feasible(&mut cap, asg, &unassigned, i, &options)
                });
                let Some((asg, p)) = best else {
                    return Err(RaError::NoFeasibleAllocation);
                };
                // Keep the app with the *lowest* best probability.
                if pick.as_ref().map_or(true, |&(_, _, bp)| p < bp) {
                    pick = Some((i, asg, p));
                }
            }
            let (i, asg, _) = pick.expect("unassigned non-empty");
            cap.take(asg);
            chosen[i] = Some(asg);
            unassigned.retain(|&x| x != i);
        }
        Ok(Allocation::new(
            chosen
                .into_iter()
                .map(|c| c.expect("all assigned"))
                .collect(),
        ))
    }
}

/// Sufferage — assign the application that would *suffer* most if denied
/// its best option.
///
/// Sufferage value = best `Pr(T ≤ Δ)` − second-best `Pr(T ≤ Δ)` among
/// currently-feasible options; the largest sufferage gets its best option
/// first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sufferage;

impl Sufferage {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Allocator for Sufferage {
    fn name(&self) -> &'static str {
        "Sufferage"
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
        let table = engine.table(deadline)?;
        let options = engine_options(engine)?;

        let mut cap = Capacity::of(platform);
        let mut chosen: Vec<Option<Assignment>> = vec![None; batch.len()];
        let mut unassigned: Vec<usize> = (0..batch.len()).collect();
        while !unassigned.is_empty() {
            let mut pick: Option<(usize, Assignment, f64)> = None; // (app, asg, sufferage)
            for &i in &unassigned {
                let mut probs: Vec<(Assignment, f64)> = options[i]
                    .iter()
                    .filter(|asg| cap.fits(**asg))
                    .filter_map(|asg| table.prob(i, asg.proc_type, asg.procs).map(|p| (*asg, p)))
                    .collect();
                probs.sort_by(|a, b| b.1.total_cmp(&a.1));
                probs.retain(|&(asg, _)| {
                    leaves_others_feasible(&mut cap, asg, &unassigned, i, &options)
                });
                if probs.is_empty() {
                    return Err(RaError::NoFeasibleAllocation);
                }
                let best = probs[0];
                let second = probs.get(1).map_or(0.0, |s| s.1);
                let sufferage = best.1 - second;
                if pick.as_ref().map_or(true, |&(_, _, s)| sufferage > s) {
                    pick = Some((i, best.0, sufferage));
                }
            }
            let (i, asg, _) = pick.expect("unassigned non-empty");
            cap.take(asg);
            chosen[i] = Some(asg);
            unassigned.retain(|&x| x != i);
        }
        Ok(Allocation::new(
            chosen
                .into_iter()
                .map(|c| c.expect("all assigned"))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::testutil::*;
    use crate::robustness::evaluate;

    fn check_feasible(alloc: &Allocation) {
        alloc.validate(&paper_batch(16), &paper_platform()).unwrap();
    }

    #[test]
    fn all_greedy_policies_produce_feasible_allocations() {
        let (b, p) = (paper_batch(16), paper_platform());
        for policy in [
            &GreedyMinTime::new() as &dyn Allocator,
            &GreedyMaxRobust::new(),
            &Sufferage::new(),
        ] {
            let alloc = policy.allocate(&b, &p, DEADLINE).unwrap();
            check_feasible(&alloc);
        }
    }

    #[test]
    fn engine_path_matches_direct_path() {
        let (b, p) = (paper_batch(16), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        for policy in [
            &GreedyMinTime::new() as &dyn Allocator,
            &GreedyMaxRobust::new(),
            &Sufferage::new(),
        ] {
            let direct = policy.allocate(&b, &p, DEADLINE).unwrap();
            let cached = policy
                .allocate_with_engine(&b, &p, &engine, DEADLINE)
                .unwrap();
            assert_eq!(direct, cached, "{} diverged", policy.name());
        }
    }

    #[test]
    fn greedy_max_robust_beats_naive_on_paper_example() {
        let (b, p) = (paper_batch(64), paper_platform());
        let naive = super::super::EqualShare::new()
            .allocate(&b, &p, DEADLINE)
            .unwrap();
        let greedy = GreedyMaxRobust::new().allocate(&b, &p, DEADLINE).unwrap();
        let p_naive = evaluate(&b, &p, &naive, DEADLINE).unwrap().joint;
        let p_greedy = evaluate(&b, &p, &greedy, DEADLINE).unwrap().joint;
        assert!(
            p_greedy > p_naive,
            "greedy {p_greedy} should beat naïve {p_naive}"
        );
    }

    #[test]
    fn sufferage_close_to_optimal_on_paper_example() {
        let (b, p) = (paper_batch(64), paper_platform());
        let opt = super::super::Exhaustive::default()
            .allocate(&b, &p, DEADLINE)
            .unwrap();
        let suf = Sufferage::new().allocate(&b, &p, DEADLINE).unwrap();
        let p_opt = evaluate(&b, &p, &opt, DEADLINE).unwrap().joint;
        let p_suf = evaluate(&b, &p, &suf, DEADLINE).unwrap().joint;
        assert!(p_suf >= 0.5 * p_opt, "sufferage {p_suf} vs optimum {p_opt}");
    }

    #[test]
    fn greedy_min_time_prefers_fast_types() {
        // On the paper's example, app 3 is far faster on type 2 (8000 vs
        // 12000 serial) and parallelizes well, so GreedyMinTime must put it
        // on type 2 with the largest group.
        let (b, p) = (paper_batch(16), paper_platform());
        let alloc = GreedyMinTime::new().allocate(&b, &p, DEADLINE).unwrap();
        let a3 = alloc.assignments()[2];
        assert_eq!(a3.proc_type.0, 1);
        assert_eq!(a3.procs, 8);
    }

    #[test]
    fn greedy_policies_reject_empty_batch() {
        let p = paper_platform();
        let empty = cdsf_system::Batch::new(vec![]);
        assert!(GreedyMinTime::new().allocate(&empty, &p, DEADLINE).is_err());
        assert!(GreedyMaxRobust::new()
            .allocate(&empty, &p, DEADLINE)
            .is_err());
        assert!(Sufferage::new().allocate(&empty, &p, DEADLINE).is_err());
    }
}
