//! Equivalence suite for the shared φ₁ evaluation engine.
//!
//! The engine's contract is *bit-identical* agreement with the direct
//! (uncached, serial) PMF arithmetic: same cells, same probability table,
//! same robustness reports, same Monte-Carlo estimates, and the same
//! `Allocation` out of every allocator — for every thread count. These
//! tests assert exact `f64` equality throughout; there are no tolerances.

use cdsf_ra::allocators::{
    allocate_incremental, allocate_incremental_with_engine, EqualShare, GammaRobust,
    GeneticAlgorithm, GreedyMaxRobust, GreedyMinTime, Lattice, SimulatedAnnealing, Sufferage,
};
use cdsf_ra::robustness::{
    evaluate, evaluate_with_engine, monte_carlo_phi1_ci, monte_carlo_phi1_ci_with_engine,
    MonteCarloConfig, ProbabilityTable,
};
use cdsf_ra::{Allocator, Phi1Engine};
use cdsf_system::parallel_time::{loaded_time_pmf, parallel_time_pmf};
use cdsf_system::{Batch, Platform, ProcTypeId};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
use cdsf_workloads::paper;

fn paper_instance() -> (Batch, Platform) {
    (paper::batch_with_pulses(32), paper::platform())
}

/// The service's generated instance shape at `seed`: 2–3 processor types
/// of 4–32 processors, 3–6 applications of 5–8 pulses.
fn serve_shaped_instance(seed: u64) -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types: 2 + (seed % 2) as usize,
        ..Default::default()
    }
    .generate(seed)
    .unwrap();
    let batch = BatchGenerator {
        num_apps: 3 + (seed % 4) as usize,
        pulses: 5 + (seed % 4) as usize,
        ..Default::default()
    }
    .generate(&platform, seed)
    .unwrap();
    (batch, platform)
}

/// A generated instance, larger than the paper's 3×2 example so the
/// parallel chunking actually splits work.
fn generated_instance(seed: u64) -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(seed)
    .unwrap();
    let batch = BatchGenerator {
        num_apps: 7,
        total_iters: (1_000, 8_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses: 12,
    }
    .generate(&platform, seed.wrapping_add(1))
    .unwrap();
    (batch, platform)
}

#[test]
fn parallel_engine_build_is_bit_identical_to_serial() {
    for (batch, platform) in [paper_instance(), generated_instance(5)] {
        let serial = Phi1Engine::build(&batch, &platform).unwrap();
        for threads in [2, 3, 4, 7, 16] {
            let parallel = Phi1Engine::build_parallel(&batch, &platform, threads).unwrap();
            for i in 0..batch.len() {
                for j in 0..platform.num_types() {
                    let ty = ProcTypeId(j);
                    for n in platform.pow2_options(ty).unwrap() {
                        assert_eq!(
                            serial.loaded_pmf(i, ty, n),
                            parallel.loaded_pmf(i, ty, n),
                            "loaded PMF diverged at app {i}, type {j}, n {n}, threads {threads}"
                        );
                        assert_eq!(
                            serial.dedicated_pmf(i, ty, n),
                            parallel.dedicated_pmf(i, ty, n),
                            "dedicated PMF diverged at app {i}, type {j}, n {n}"
                        );
                        assert_eq!(
                            serial.expected_time(i, ty, n),
                            parallel.expected_time(i, ty, n),
                            "expected time diverged at app {i}, type {j}, n {n}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn engine_cells_equal_direct_pmf_arithmetic() {
    let (batch, platform) = generated_instance(11);
    let engine = Phi1Engine::build_parallel(&batch, &platform, 4).unwrap();
    for (id, app) in batch.iter() {
        for j in 0..platform.num_types() {
            let ty = ProcTypeId(j);
            if app.exec_time(ty).is_err() {
                assert!(engine.loaded_pmf(id.0, ty, 1).is_none());
                continue;
            }
            for n in platform.pow2_options(ty).unwrap() {
                let dedicated = parallel_time_pmf(app, ty, n).unwrap();
                let loaded = loaded_time_pmf(app, &platform, ty, n).unwrap();
                assert_eq!(engine.dedicated_pmf(id.0, ty, n), Some(&dedicated));
                assert_eq!(engine.loaded_pmf(id.0, ty, n), Some(&loaded));
                assert_eq!(
                    engine.expected_time(id.0, ty, n),
                    Some(loaded.expectation())
                );
            }
        }
    }
}

#[test]
fn cached_table_equals_uncached_probability_table() {
    for (batch, platform) in [paper_instance(), generated_instance(23)] {
        let engine = Phi1Engine::build_parallel(&batch, &platform, 4).unwrap();
        for deadline in [900.0, 2_500.0, paper::DEADLINE, 50_000.0] {
            let uncached = ProbabilityTable::build(&batch, &platform, deadline).unwrap();
            let cached = engine.table(deadline).unwrap();
            for i in 0..batch.len() {
                for j in 0..platform.num_types() {
                    let ty = ProcTypeId(j);
                    for n in platform.pow2_options(ty).unwrap() {
                        assert_eq!(
                            uncached.prob(i, ty, n),
                            cached.prob(i, ty, n),
                            "table diverged at app {i}, type {j}, n {n}, Δ {deadline}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn evaluate_with_engine_is_bit_identical() {
    for (batch, platform) in [paper_instance(), generated_instance(23)] {
        let engine = Phi1Engine::build_parallel(&batch, &platform, 4).unwrap();
        let deadline = 2_800.0;
        let alloc = Sufferage::new()
            .allocate(&batch, &platform, deadline)
            .unwrap();
        let direct = evaluate(&batch, &platform, &alloc, deadline).unwrap();
        let cached = evaluate_with_engine(&engine, &batch, &platform, &alloc, deadline).unwrap();
        assert_eq!(direct.joint, cached.joint);
        assert_eq!(direct.per_app, cached.per_app);
        assert_eq!(direct.expected_times, cached.expected_times);
    }
}

#[test]
fn monte_carlo_with_engine_is_bit_identical() {
    let (batch, platform) = paper_instance();
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let alloc = GreedyMaxRobust::new()
        .allocate(&batch, &platform, paper::DEADLINE)
        .unwrap();
    for threads in [1, 2, 4] {
        let cfg = MonteCarloConfig {
            replicates: 20_000,
            threads,
            seed: 0xFEED,
        };
        let direct = monte_carlo_phi1_ci(&batch, &platform, &alloc, paper::DEADLINE, &cfg).unwrap();
        let cached = monte_carlo_phi1_ci_with_engine(
            &engine,
            &batch,
            &platform,
            &alloc,
            paper::DEADLINE,
            &cfg,
        )
        .unwrap();
        assert_eq!(direct, cached, "MC estimate diverged at threads {threads}");
    }
}

#[test]
fn all_allocators_agree_between_direct_and_engine_paths() {
    for (batch, platform) in [paper_instance(), generated_instance(47)] {
        let deadline = 2_800.0;
        let engine = Phi1Engine::build_parallel(&batch, &platform, 4).unwrap();
        let policies: Vec<Box<dyn Allocator>> = vec![
            Box::new(EqualShare::new()),
            Box::new(GreedyMinTime::new()),
            Box::new(GreedyMaxRobust::new()),
            Box::new(Sufferage::new()),
            Box::new(SimulatedAnnealing {
                iterations: 3_000,
                ..Default::default()
            }),
            Box::new(GeneticAlgorithm {
                generations: 25,
                ..Default::default()
            }),
        ];
        for policy in &policies {
            let direct = policy.allocate(&batch, &platform, deadline).unwrap();
            let cached = policy
                .allocate_with_engine(&batch, &platform, &engine, deadline)
                .unwrap();
            assert_eq!(
                direct,
                cached,
                "{} diverged from its engine path",
                policy.name()
            );
        }
    }
}

#[test]
fn lattice_equals_exhaustive_bit_exactly_across_deadlines() {
    let mut cases = Vec::new();
    for (batch, platform) in [
        paper_instance(),
        generated_instance(53),
        generated_instance(71),
    ] {
        for deadline in [900.0, 2_800.0, paper::DEADLINE, 50_000.0] {
            cases.push((batch.clone(), platform.clone(), deadline));
        }
    }
    // Service-shaped instances where every CDF read near the deadline
    // rounds to 1 ± an ulp: many allocations tie on the φ1 bits, and the
    // expected-time sum decides.
    for (seed, deadline) in [
        (31, 10_000.0),
        (39, 10_000.0),
        (146, 10_000.0),
        (123, 5_000.0),
    ] {
        let (batch, platform) = serve_shaped_instance(seed);
        cases.push((batch, platform, deadline));
    }
    for (batch, platform, deadline) in cases {
        let reference = cdsf_ra::allocators::Exhaustive
            .allocate(&batch, &platform, deadline)
            .unwrap();
        let exact = Lattice::new(2)
            .unwrap()
            .allocate(&batch, &platform, deadline)
            .unwrap();
        assert_eq!(
            reference,
            exact,
            "lattice diverged at Δ {deadline} on {} apps",
            batch.len()
        );
        let p_ref = evaluate(&batch, &platform, &reference, deadline)
            .unwrap()
            .joint;
        let p_lat = evaluate(&batch, &platform, &exact, deadline).unwrap().joint;
        assert_eq!(
            p_ref.to_bits(),
            p_lat.to_bits(),
            "φ1 bits diverged at Δ {deadline}"
        );
    }
}

#[test]
fn lattice_is_thread_invariant_on_generated_instance() {
    let (batch, platform) = generated_instance(53);
    let deadline = 2_800.0;
    let baseline = Lattice::new(1)
        .unwrap()
        .allocate(&batch, &platform, deadline)
        .unwrap();
    for threads in [2, 4, 7, 16] {
        let alloc = Lattice::new(threads)
            .unwrap()
            .allocate(&batch, &platform, deadline)
            .unwrap();
        assert_eq!(baseline, alloc, "lattice diverged at {threads} threads");
    }
}

#[test]
fn gamma_robust_is_thread_invariant_on_generated_instance() {
    use cdsf_ra::{LatticeScratch, LatticeSolution};
    let (batch, platform) = generated_instance(53);
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    // Both regimes: a loose deadline (Optimal) and a hopeless one
    // (Infeasible, carrying the tightest-deadline proof).
    for deadline in [50_000.0, 1e-6] {
        let solve = |threads| -> LatticeSolution {
            let mut scratch = LatticeScratch::new();
            GammaRobust {
                threads,
                ..Default::default()
            }
            .solve_with_engine(&platform, &engine, deadline, &mut scratch)
            .unwrap()
            .0
        };
        let baseline = solve(1);
        for threads in [2, 4, 7, 16] {
            assert_eq!(
                baseline,
                solve(threads),
                "γ-robust diverged at {threads} threads, Δ {deadline}"
            );
        }
    }
}

#[test]
fn incremental_allocation_agrees_with_engine_path() {
    let (batch, platform) = generated_instance(61);
    let deadline = 2_800.0;
    let engine = Phi1Engine::build_parallel(&batch, &platform, 4).unwrap();
    for waves in [vec![7], vec![3, 4], vec![2, 2, 3], vec![1; 7]] {
        let direct = allocate_incremental(&batch, &platform, deadline, &waves).unwrap();
        let cached =
            allocate_incremental_with_engine(&batch, &platform, &engine, deadline, &waves).unwrap();
        assert_eq!(direct, cached, "waves {waves:?} diverged");
    }
}
