//! Greedy list-scheduling heuristics scored on stochastic robustness.
//!
//! The paper's future work calls for "robust and scalable RA heuristics";
//! these are stochastic-metric versions of the classic Min-min / Max-min /
//! Sufferage mapping heuristics (Ibarra & Kim; Maheswaran et al.),
//! evaluating candidates on the memoized `Pr(T ≤ Δ)` table rather than on
//! deterministic completion times. All run in `O(N² · options)` or better —
//! polynomial where exact search is exponential. All three, and the wave
//! allocator of [`super::allocate_incremental`], are one list-scheduling
//! loop with a different `Rule`; every candidate probability and
//! expected time is served by the [`Phi1Engine`] handed to
//! `allocate_with_engine`. The policies are single-threaded and carry no
//! settings.

use super::{Allocator, Capacity};
use crate::allocation::{Allocation, Assignment};
use crate::engine::{OptionStats, Phi1Engine};
use crate::{RaError, Result};
use cdsf_system::{Batch, Platform};

/// How [`list_schedule`] ranks an application's options and picks the
/// application to place each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Rule {
    /// Fastest expected time first; the application whose best option is
    /// slowest is placed, ties to the later application.
    MinTime,
    /// Most probable option first; the application whose best option is
    /// least probable is placed, ties to the earlier application.
    MaxRobust,
    /// Most probable option first; the application that loses most by
    /// falling back to its second best is placed, ties to the earlier
    /// application.
    Sufferage,
}

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
    ranked: &[Vec<OptionStats>],
) -> bool {
    cap.take(asg);
    let ok = unassigned
        .iter()
        .filter(|&&i| i != skip)
        .all(|&i| ranked[i].iter().any(|o| cap.fits(o.asg)));
    cap.release(asg);
    ok
}

/// The one list-scheduling loop behind every greedy policy and the wave
/// allocator. Applications arrive in `waves` (consecutive batch-order
/// runs whose sizes sum to the batch length); each wave is mapped with
/// the capacity the earlier waves left, one application per round, with
/// the lookahead restricted to the wave. `rule` ranks each application's
/// options once per call — a stable sort, so equal keys keep the
/// engine's order — and picks which application a round places.
/// [`Rule::MinTime`] neither checks nor scores the deadline.
pub(super) fn list_schedule(
    engine: &Phi1Engine,
    platform: &Platform,
    deadline: f64,
    waves: &[usize],
    rule: Rule,
) -> Result<Allocation> {
    if rule != Rule::MinTime && (!(deadline > 0.0) || !deadline.is_finite()) {
        return Err(RaError::BadParameter {
            name: "deadline",
            value: deadline,
        });
    }
    let n = engine.num_apps();
    let mut ranked = Vec::with_capacity(n);
    for app in 0..n {
        let mut row = Vec::new();
        engine.option_stats_into(app, deadline, &mut row);
        if row.is_empty() {
            return Err(RaError::NoFeasibleAllocation);
        }
        match rule {
            Rule::MinTime => row.sort_by(|a, b| a.exp_time.total_cmp(&b.exp_time)),
            Rule::MaxRobust | Rule::Sufferage => row.sort_by(|a, b| b.prob.total_cmp(&a.prob)),
        }
        ranked.push(row);
    }

    let mut cap = Capacity::of(platform);
    let mut chosen: Vec<Option<Assignment>> = vec![None; n];
    let mut next_app = 0usize;
    for &wave in waves {
        let mut unassigned: Vec<usize> = (next_app..next_app + wave).collect();
        next_app += wave;
        while !unassigned.is_empty() {
            let mut pick: Option<(usize, Assignment, f64)> = None; // (app, option, score)
            for &i in &unassigned {
                let mut fitting = ranked[i].iter().filter(|o| {
                    cap.fits(o.asg)
                        && leaves_others_feasible(&mut cap, o.asg, &unassigned, i, &ranked)
                });
                let Some(best) = fitting.next() else {
                    return Err(RaError::NoFeasibleAllocation);
                };
                let score = match rule {
                    Rule::MinTime => best.exp_time,
                    Rule::MaxRobust => best.prob,
                    Rule::Sufferage => best.prob - fitting.next().map_or(0.0, |o| o.prob),
                };
                let wins = pick.map_or(true, |(.., s)| match rule {
                    Rule::MinTime => score.total_cmp(&s).is_ge(),
                    Rule::MaxRobust => score < s,
                    Rule::Sufferage => score > s,
                });
                if wins {
                    pick = Some((i, best.asg, score));
                }
            }
            let (i, asg, _) = pick.expect("the wave is non-empty");
            cap.take(asg);
            chosen[i] = Some(asg);
            unassigned.retain(|&x| x != i);
        }
    }
    Ok(Allocation::new(
        chosen
            .into_iter()
            .map(|c| c.expect("every wave is assigned"))
            .collect(),
    ))
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
        deadline: f64,
    ) -> Result<Allocation> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        list_schedule(engine, platform, deadline, &[batch.len()], Rule::MinTime)
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
        list_schedule(engine, platform, deadline, &[batch.len()], Rule::MaxRobust)
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
        list_schedule(engine, platform, deadline, &[batch.len()], Rule::Sufferage)
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
        let opt = super::super::Exhaustive.allocate(&b, &p, DEADLINE).unwrap();
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

    /// The paper's two processor types with one processor each: too few
    /// for the paper's three applications.
    fn two_processor_platform() -> Platform {
        let types = paper_platform()
            .types()
            .iter()
            .map(|t| cdsf_system::ProcessorType::new(t.name(), 1, t.availability().clone()))
            .collect::<std::result::Result<Vec<_>, _>>()
            .unwrap();
        Platform::new(types).unwrap()
    }

    #[test]
    fn greedy_min_time_ignores_the_deadline() {
        let (b, p) = (paper_batch(16), paper_platform());
        let at_paper = GreedyMinTime::new().allocate(&b, &p, DEADLINE).unwrap();
        for deadline in [DEADLINE / 4.0, DEADLINE * 4.0] {
            let alloc = GreedyMinTime::new().allocate(&b, &p, deadline).unwrap();
            assert_eq!(alloc, at_paper, "Δ = {deadline}");
        }
    }

    #[test]
    fn errors_keep_their_variant_and_order() {
        let (b, p) = (paper_batch(16), paper_platform());
        let empty = cdsf_system::Batch::new(vec![]);
        let scarce = two_processor_platform();
        let policies = [
            &GreedyMinTime::new() as &dyn Allocator,
            &GreedyMaxRobust::new(),
            &Sufferage::new(),
        ];
        for policy in policies {
            // The empty batch is reported before the deadline is read.
            assert_eq!(
                policy.allocate(&empty, &p, f64::NAN),
                Err(RaError::EmptyBatch),
                "{}",
                policy.name()
            );
            // Three applications cannot share two processors.
            assert_eq!(
                policy.allocate(&b, &scarce, DEADLINE),
                Err(RaError::NoFeasibleAllocation),
                "{}",
                policy.name()
            );
        }
        // The deadline-scored policies check Δ before they search.
        for policy in &policies[1..] {
            for deadline in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
                for platform in [&p, &scarce] {
                    let err = policy.allocate(&b, platform, deadline).unwrap_err();
                    assert!(
                        matches!(err, RaError::BadParameter { name: "deadline", .. }),
                        "{} at Δ = {deadline}: {err:?}",
                        policy.name()
                    );
                }
            }
        }
    }
}
