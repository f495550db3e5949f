//! Property-based tests: every technique terminates, conserves iterations,
//! and the executor's makespans respect physical bounds.

use cdsf_dls::executor::{execute, ExecutorConfig};
use cdsf_dls::{SchedContext, TechniqueKind, WorkerSnapshot};
use cdsf_system::availability::AvailabilitySpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_kinds() -> Vec<TechniqueKind> {
    TechniqueKind::all(32)
}

/// Strategy over (num_workers, total_iters, synthetic worker stats).
fn arb_loop() -> impl Strategy<Value = (usize, u64, Vec<WorkerSnapshot>)> {
    (1usize..=16, 1u64..=20_000).prop_flat_map(|(p, n)| {
        prop::collection::vec((0.1f64..10.0, 0.0f64..4.0), p).prop_map(move |params| {
            let stats = params
                .iter()
                .map(|&(mean, var)| {
                    let mut snapshot = WorkerSnapshot {
                        iters_done: 100,
                        chunks_done: 4,
                        ..WorkerSnapshot::default()
                    };
                    snapshot.set_estimates(mean, var, mean * 1.1);
                    snapshot
                })
                .collect();
            (p, n, stats)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every technique drains any loop: chunks are in range, iterations are
    /// conserved, and the request count is bounded.
    #[test]
    fn techniques_conserve_iterations((p, n, stats) in arb_loop()) {
        for kind in all_kinds() {
            let mut t = kind.build(p, n).unwrap();
            let mut remaining = n;
            let mut requests = 0u64;
            let mut w = 0usize;
            while remaining > 0 {
                let ctx = SchedContext {
                    worker: w,
                    num_workers: p,
                    total_iters: n,
                    remaining,
                    now: requests as f64,
                    workers: &stats,
                };
                let chunk = t.next_chunk(&ctx);
                prop_assert!(chunk >= 1, "{} returned 0 with {} remaining", kind.name(), remaining);
                prop_assert!(chunk <= remaining, "{} overshot: {chunk} > {remaining}", kind.name());
                remaining -= chunk;
                w = (w + 1) % p;
                requests += 1;
                prop_assert!(requests <= 4 * n + 64, "{} failed to progress", kind.name());
            }
        }
    }

    /// Executor invariants on a dedicated system: makespan is bounded below
    /// by the fluid limit and above by fully-serial execution, and worker
    /// finish times never exceed the makespan.
    #[test]
    fn makespan_physical_bounds(
        p in 1usize..=8,
        iters in 64u64..=4096,
        mean in 0.1f64..4.0,
        seed in 0u64..500,
    ) {
        let cfg = ExecutorConfig::builder()
            .workers(p)
            .parallel_iters(iters)
            .iter_time_mean_sigma(mean, 0.0).unwrap()
            .availability(AvailabilitySpec::Constant { a: 1.0 })
            .build().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in [TechniqueKind::Static, TechniqueKind::Gss, TechniqueKind::Fac, TechniqueKind::Af] {
            let run = execute(&kind, &cfg, &mut rng).unwrap();
            let total_work = iters as f64 * mean;
            prop_assert!(run.makespan + 1e-6 >= total_work / p as f64,
                "{} beat the fluid bound: {} < {}", kind.name(), run.makespan, total_work / p as f64);
            prop_assert!(run.makespan <= total_work + 1e-6,
                "{} exceeded serial time: {}", kind.name(), run.makespan);
            for &f in &run.worker_finish {
                prop_assert!(f <= run.makespan + 1e-9);
            }
            prop_assert!(run.parallel_time >= 0.0);
        }
    }

    /// Halving availability doubles the makespan on a constant-availability
    /// system (work integration is linear).
    #[test]
    fn makespan_scales_inversely_with_availability(
        p in 1usize..=8,
        iters in 64u64..=2048,
        a in 0.2f64..=0.5,
        seed in 0u64..200,
    ) {
        let mk = |avail: f64, seed: u64| {
            let cfg = ExecutorConfig::builder()
                .workers(p)
                .parallel_iters(iters)
                .iter_time_mean_sigma(1.0, 0.0).unwrap()
                .availability(AvailabilitySpec::Constant { a: avail })
                .build().unwrap();
            execute(&TechniqueKind::Fac, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap().makespan
        };
        let slow = mk(a, seed);
        let fast = mk(2.0 * a, seed);
        prop_assert!((slow / fast - 2.0).abs() < 1e-6, "slow {slow} fast {fast}");
    }

    /// Adding scheduling overhead never speeds a run up (same seed).
    #[test]
    fn overhead_monotonicity(
        iters in 128u64..=2048,
        h in 0.0f64..=2.0,
        seed in 0u64..200,
    ) {
        let mk = |overhead: f64| {
            let cfg = ExecutorConfig::builder()
                .workers(4)
                .parallel_iters(iters)
                .iter_time_mean_sigma(1.0, 0.0).unwrap()
                .overhead(overhead)
                .build().unwrap();
            execute(&TechniqueKind::Gss, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap().makespan
        };
        prop_assert!(mk(h) <= mk(h + 0.5) + 1e-9);
    }
}
