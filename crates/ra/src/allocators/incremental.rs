//! Incremental allocation for applications that arrive in waves.
//!
//! The paper maps one batch at a time; its future work points to *dynamic*
//! stochastic resource allocation (Smith et al., ICPP'09), where requests
//! arrive while earlier applications are still running. This module
//! implements that arrival model: the batch is partitioned into waves, and
//! each wave is mapped with only the capacity the earlier waves left
//! behind (their groups stay allocated until the batch completes — the
//! paper forbids runtime reallocation).
//!
//! Within a wave the assignment rule is the most-constrained-first greedy
//! of [`super::GreedyMaxRobust`] — the same list-scheduling loop, with the
//! lookahead restricted to the wave (future waves are unknown). The
//! whole-batch φ₁ of an incremental mapping is therefore at most that of
//! the clairvoyant full-batch optimum — the gap quantifies the price of
//! not knowing future arrivals, which the integration tests measure.

use super::greedy::{list_schedule, Rule};
use crate::allocation::Allocation;
use crate::engine::Phi1Engine;
use crate::{RaError, Result};
use cdsf_system::{Batch, Platform};

/// Allocates a batch whose applications arrive in `waves` (sizes must sum
/// to the batch length). Returns the combined allocation, indexed like the
/// batch. Builds a fresh [`Phi1Engine`]; use
/// [`allocate_incremental_with_engine`] to reuse a prebuilt cache.
pub fn allocate_incremental(
    batch: &Batch,
    platform: &Platform,
    deadline: f64,
    waves: &[usize],
) -> Result<Allocation> {
    if batch.is_empty() {
        return Err(RaError::EmptyBatch);
    }
    let engine = Phi1Engine::build(batch, platform)?;
    allocate_incremental_with_engine(batch, platform, &engine, deadline, waves)
}

/// As [`allocate_incremental`], reusing a prebuilt [`Phi1Engine`] for
/// `(batch, platform)`; bit-identical results.
pub fn allocate_incremental_with_engine(
    batch: &Batch,
    platform: &Platform,
    engine: &Phi1Engine,
    deadline: f64,
    waves: &[usize],
) -> Result<Allocation> {
    if batch.is_empty() {
        return Err(RaError::EmptyBatch);
    }
    let total: usize = waves.iter().sum();
    if total != batch.len() || waves.contains(&0) {
        return Err(RaError::BadParameter {
            name: "waves",
            value: total as f64,
        });
    }
    list_schedule(engine, platform, deadline, waves, Rule::MaxRobust)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::testutil::{paper_batch, paper_platform, DEADLINE};
    use crate::allocators::{Allocator, Exhaustive};
    use crate::robustness::evaluate;

    #[test]
    fn single_wave_is_feasible_and_competitive() {
        let (b, p) = (paper_batch(64), paper_platform());
        let alloc = allocate_incremental(&b, &p, DEADLINE, &[3]).unwrap();
        alloc.validate(&b, &p).unwrap();
        let phi1 = evaluate(&b, &p, &alloc, DEADLINE).unwrap().joint;
        assert!(
            phi1 > 0.26,
            "single-wave greedy φ1 {phi1} should beat naive"
        );
    }

    #[test]
    fn per_app_waves_are_feasible() {
        let (b, p) = (paper_batch(32), paper_platform());
        let alloc = allocate_incremental(&b, &p, DEADLINE, &[1, 1, 1]).unwrap();
        alloc.validate(&b, &p).unwrap();
    }

    #[test]
    fn incremental_never_beats_clairvoyant_optimum() {
        let (b, p) = (paper_batch(64), paper_platform());
        let opt = Exhaustive.allocate(&b, &p, DEADLINE).unwrap();
        let p_opt = evaluate(&b, &p, &opt, DEADLINE).unwrap().joint;
        for waves in [vec![3], vec![2, 1], vec![1, 2], vec![1, 1, 1]] {
            let alloc = allocate_incremental(&b, &p, DEADLINE, &waves).unwrap();
            let phi1 = evaluate(&b, &p, &alloc, DEADLINE).unwrap().joint;
            assert!(
                phi1 <= p_opt + 1e-9,
                "waves {waves:?}: incremental {phi1} beat optimum {p_opt}"
            );
        }
    }

    #[test]
    fn engine_path_matches_direct_path() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = crate::engine::Phi1Engine::build(&b, &p).unwrap();
        for waves in [vec![3], vec![2, 1], vec![1, 1, 1]] {
            let direct = allocate_incremental(&b, &p, DEADLINE, &waves).unwrap();
            let cached =
                allocate_incremental_with_engine(&b, &p, &engine, DEADLINE, &waves).unwrap();
            assert_eq!(direct, cached, "waves {waves:?} diverged");
        }
    }

    #[test]
    fn wave_validation() {
        let (b, p) = (paper_batch(8), paper_platform());
        assert!(allocate_incremental(&b, &p, DEADLINE, &[2]).is_err()); // sum ≠ 3
        assert!(allocate_incremental(&b, &p, DEADLINE, &[3, 0]).is_err()); // zero wave
        assert!(allocate_incremental(&cdsf_system::Batch::new(vec![]), &p, DEADLINE, &[]).is_err());
    }

    #[test]
    fn single_wave_equals_greedy_max_robust() {
        let p = paper_platform();
        for pulses in [8, 16, 32, 64] {
            let b = paper_batch(pulses);
            for deadline in [DEADLINE / 2.0, DEADLINE, DEADLINE * 2.0] {
                let greedy = crate::allocators::GreedyMaxRobust::new().allocate(&b, &p, deadline);
                let waves = allocate_incremental(&b, &p, deadline, &[3]);
                assert_eq!(waves, greedy, "{pulses} pulses, Δ = {deadline}");
            }
        }
    }

    #[test]
    fn wave_errors_keep_their_variant_and_order() {
        let (b, p) = (paper_batch(8), paper_platform());
        let empty = cdsf_system::Batch::new(vec![]);
        // The empty batch, then the waves, then the deadline.
        assert_eq!(
            allocate_incremental(&empty, &p, f64::NAN, &[1]),
            Err(RaError::EmptyBatch)
        );
        for waves in [&[2][..], &[3, 0], &[1, 1, 1, 1]] {
            let err = allocate_incremental(&b, &p, f64::NAN, waves).unwrap_err();
            assert!(
                matches!(err, RaError::BadParameter { name: "waves", .. }),
                "waves {waves:?}: {err:?}"
            );
        }
        for deadline in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let err = allocate_incremental(&b, &p, deadline, &[2, 1]).unwrap_err();
            assert!(
                matches!(err, RaError::BadParameter { name: "deadline", .. }),
                "Δ = {deadline}: {err:?}"
            );
        }
    }

    #[test]
    fn earlier_waves_constrain_later_ones() {
        // When the first wave grabs type-1 capacity, a later single-app
        // wave must still find something (possibly worse).
        let (b, p) = (paper_batch(32), paper_platform());
        let combined = allocate_incremental(&b, &p, DEADLINE, &[2, 1]).unwrap();
        combined.validate(&b, &p).unwrap();
        // The last application is assigned with whatever capacity is left.
        let used_before: u32 = combined.assignments()[..2].iter().map(|a| a.procs).sum();
        assert!(used_before >= 2);
    }
}
