//! Property-based tests for Stage-I allocation over generated instances.

use cdsf_pmf::discretize::{Discretize, Normal};
use cdsf_pmf::Pmf;
use cdsf_ra::allocators::{
    allocate_incremental, EqualShare, Exhaustive, GammaRobust, GreedyMaxRobust, Lattice, Sufferage,
};
use cdsf_ra::robustness::{evaluate, ProbabilityTable};
use cdsf_ra::{
    Allocation, Allocator, Assignment, CellStore, DeltaFitness, EngineBuild, LatticeScratch,
    OptionProbs, Phi1Engine,
};
use cdsf_system::{Application, Batch, Platform, ProcTypeId, ProcessorType};
use proptest::prelude::*;

/// Strategy: a platform of 2–3 types with 2–8 processors each and random
/// two-pulse availability.
fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::collection::vec((2u32..=8, 0.2f64..0.8, 0.8f64..=1.0, 0.1f64..0.9), 2..=3).prop_map(
        |types| {
            Platform::new(
                types
                    .into_iter()
                    .enumerate()
                    .map(|(i, (count, lo, hi, w))| {
                        let avail =
                            Pmf::from_weighted([(lo, w), (hi, 1.0 - w)]).expect("positive weights");
                        ProcessorType::new(format!("T{i}"), count, avail).expect("valid type")
                    })
                    .collect(),
            )
            .expect("non-empty")
        },
    )
}

/// Strategy: a batch of 2–4 applications with PMFs for `num_types` types.
fn arb_batch(num_types: usize) -> impl Strategy<Value = Batch> {
    prop::collection::vec(
        (
            10u64..=500,
            100u64..=5_000,
            prop::collection::vec(500.0f64..8_000.0, num_types..=num_types),
        ),
        2..=4,
    )
    .prop_map(|apps| {
        Batch::new(
            apps.into_iter()
                .enumerate()
                .map(|(i, (s, p, means))| {
                    let mut b = Application::builder(format!("app{i}"))
                        .serial_iters(s)
                        .parallel_iters(p);
                    for mu in means {
                        b = b.exec_time_pmf(
                            Normal::with_paper_sigma(mu).expect("valid").equiprobable(8),
                        );
                    }
                    b.build().expect("valid app")
                })
                .collect(),
        )
    })
}

/// Strategy: an instance (platform, batch, deadline).
fn arb_instance() -> impl Strategy<Value = (Platform, Batch, f64)> {
    arb_platform().prop_flat_map(|platform| {
        let n = platform.num_types();
        (Just(platform), arb_batch(n), 1_000.0f64..10_000.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every allocator either produces a feasible allocation or reports
    /// infeasibility — never an invalid allocation, never a panic.
    #[test]
    fn allocators_are_feasible_or_fail_cleanly((platform, batch, deadline) in arb_instance()) {
        let policies: Vec<Box<dyn Allocator>> = vec![
            Box::new(EqualShare::new()),
            Box::new(Exhaustive::new(2).unwrap()),
            Box::new(GreedyMaxRobust::new()),
            Box::new(Sufferage::new()),
        ];
        for policy in &policies {
            if let Ok(alloc) = policy.allocate(&batch, &platform, deadline) {
                prop_assert!(alloc.validate(&batch, &platform).is_ok(),
                    "{} returned an infeasible allocation", policy.name());
            }
        }
    }

    /// The exhaustive optimum dominates every other policy's φ1.
    #[test]
    fn exhaustive_dominates((platform, batch, deadline) in arb_instance()) {
        let Ok(opt) = Exhaustive::new(2).unwrap().allocate(&batch, &platform, deadline) else {
            return Ok(()); // infeasible instance
        };
        let p_opt = evaluate(&batch, &platform, &opt, deadline).unwrap().joint;
        for policy in [&EqualShare::new() as &dyn Allocator, &GreedyMaxRobust::new(), &Sufferage::new()] {
            if let Ok(alloc) = policy.allocate(&batch, &platform, deadline) {
                let p = evaluate(&batch, &platform, &alloc, deadline).unwrap().joint;
                prop_assert!(p <= p_opt + 1e-9,
                    "{} φ1 {p} beat the exhaustive optimum {p_opt}", policy.name());
            }
        }
    }

    /// The pruned lattice branch-and-bound is a drop-in for the unpruned
    /// full enumeration: on arbitrary instances both policies agree on
    /// feasibility, and when feasible return the *same* allocation with
    /// bit-identical φ1 — i.e. pruning never changes the optimum.
    #[test]
    fn lattice_equals_exhaustive_on_arbitrary_instances(
        (platform, batch, deadline) in arb_instance(),
    ) {
        let reference = Exhaustive::new(2).unwrap().allocate(&batch, &platform, deadline);
        let exact = Lattice::new(2).unwrap().allocate(&batch, &platform, deadline);
        match (reference, exact) {
            (Ok(reference), Ok(exact)) => {
                prop_assert_eq!(&reference, &exact, "lattice diverged from exhaustive");
                let p_ref = evaluate(&batch, &platform, &reference, deadline).unwrap().joint;
                let p_lat = evaluate(&batch, &platform, &exact, deadline).unwrap().joint;
                prop_assert_eq!(p_ref.to_bits(), p_lat.to_bits());
            }
            (Err(_), Err(_)) => {}
            (reference, exact) => prop_assert!(false,
                "feasibility verdicts diverged: exhaustive {reference:?}, lattice {exact:?}"),
        }
    }

    /// Γ-robustness costs probability, never creates it: when the robust
    /// solver finds an allocation, its *nominal* φ1 cannot exceed the
    /// nominal optimum, and hedging against zero adversary types is a
    /// bitwise no-op relative to the plain lattice.
    #[test]
    fn gamma_robust_never_beats_the_nominal_optimum(
        (platform, batch, deadline) in arb_instance(),
        budget in 0usize..=2,
    ) {
        let robust = GammaRobust { threads: 2, budget, degradation: 0.9 };
        let Ok(hedged) = robust.allocate(&batch, &platform, deadline) else {
            return Ok(()); // capacity-infeasible or proven deadline-infeasible
        };
        let Ok(opt) = Exhaustive::new(2).unwrap().allocate(&batch, &platform, deadline) else {
            return Ok(());
        };
        let p_hedged = evaluate(&batch, &platform, &hedged, deadline).unwrap().joint;
        let p_opt = evaluate(&batch, &platform, &opt, deadline).unwrap().joint;
        prop_assert!(p_hedged <= p_opt + 1e-9,
            "robust nominal φ1 {p_hedged} beat the exhaustive optimum {p_opt}");
        if budget == 0 {
            let plain = Lattice::new(2).unwrap().allocate(&batch, &platform, deadline).unwrap();
            prop_assert_eq!(&plain, &hedged, "Γ=0 diverged from the plain lattice");
        }
    }

    /// Incremental (wave) allocation stays feasible and below the optimum
    /// for any wave partition.
    #[test]
    fn incremental_feasible_for_any_partition(
        (platform, batch, deadline) in arb_instance(),
        split in 1usize..=3,
    ) {
        let n = batch.len();
        let first = split.min(n - 1).max(1);
        let waves = if n > first { vec![first, n - first] } else { vec![n] };
        if let Ok(alloc) = allocate_incremental(&batch, &platform, deadline, &waves) {
            prop_assert!(alloc.validate(&batch, &platform).is_ok());
            if let Ok(opt) = Exhaustive::new(2).unwrap().allocate(&batch, &platform, deadline) {
                let p_inc = evaluate(&batch, &platform, &alloc, deadline).unwrap().joint;
                let p_opt = evaluate(&batch, &platform, &opt, deadline).unwrap().joint;
                prop_assert!(p_inc <= p_opt + 1e-9);
            }
        }
    }

    /// φ₁ cells are monotone: shrinking the deadline can only lower each
    /// per-assignment probability, and doubling an application's share can
    /// only raise it (Amdahl's factor shrinks every execution time).
    #[test]
    fn phi1_monotone_in_deadline_and_procs(
        (platform, batch, _deadline) in arb_instance(),
        d_lo in 500.0f64..5_000.0,
        factor in 1.1f64..3.0,
    ) {
        let engine = Phi1Engine::build(&batch, &platform).unwrap();
        let d_hi = d_lo * factor;
        for i in 0..batch.len() {
            for asg in engine.options(i) {
                let p_lo = engine.prob(i, asg.proc_type, asg.procs, d_lo).unwrap();
                let p_hi = engine.prob(i, asg.proc_type, asg.procs, d_hi).unwrap();
                prop_assert!(p_lo <= p_hi + 1e-12,
                    "app {i}: φ1 rose from {p_hi} to {p_lo} as Δ shrank {d_hi}→{d_lo}");
                if let Some(p_double) = engine.prob(i, asg.proc_type, asg.procs * 2, d_lo) {
                    prop_assert!(p_double + 1e-9 >= p_lo,
                        "app {i}: φ1 fell from {p_lo} to {p_double} when doubling {} procs",
                        asg.procs);
                }
            }
        }
    }

    /// The parallel engine build is bit-identical to the serial build for
    /// arbitrary instances and thread counts.
    #[test]
    fn engine_parallel_equals_serial(
        (platform, batch, deadline) in arb_instance(),
        threads in 2usize..=8,
    ) {
        let serial = Phi1Engine::build(&batch, &platform).unwrap();
        let parallel = Phi1Engine::build_parallel(&batch, &platform, threads).unwrap();
        for i in 0..batch.len() {
            for asg in serial.options(i) {
                prop_assert_eq!(
                    serial.loaded_pmf(i, asg.proc_type, asg.procs),
                    parallel.loaded_pmf(i, asg.proc_type, asg.procs)
                );
                prop_assert_eq!(
                    serial.prob(i, asg.proc_type, asg.procs, deadline),
                    parallel.prob(i, asg.proc_type, asg.procs, deadline)
                );
            }
        }
    }

    /// Probability-table lookups agree with direct evaluation on every
    /// feasible allocation of small instances.
    #[test]
    fn table_agrees_with_direct_evaluation((platform, batch, deadline) in arb_instance()) {
        let table = ProbabilityTable::build(&batch, &platform, deadline).unwrap();
        let Ok(allocs) = Allocation::enumerate_feasible(&batch, &platform) else {
            return Ok(());
        };
        for alloc in allocs.iter().take(32) {
            let direct = evaluate(&batch, &platform, alloc, deadline).unwrap().joint;
            let via = table.joint(alloc).unwrap();
            prop_assert!((direct - via).abs() < 1e-9);
        }
    }

    /// The incremental delta-fitness evaluator equals a full recompute on
    /// random mutation sequences: the product fitness is bit-identical
    /// after every mutation, and the advisory running log-fitness is exact
    /// right after a re-sync and within 1e-12 (relative) between re-syncs.
    #[test]
    fn delta_fitness_equals_full_recompute(
        (platform, batch, deadline) in arb_instance(),
        moves in prop::collection::vec((0usize..64, 0usize..64), 1..200),
    ) {
        let engine = Phi1Engine::build(&batch, &platform).unwrap();
        let probs = OptionProbs::from_engine(&engine, deadline).unwrap();
        let options: Vec<Vec<Assignment>> =
            (0..engine.num_apps()).map(|a| engine.options(a)).collect();
        let mut genome: Vec<Assignment> = options.iter().map(|o| o[0]).collect();
        let mut delta = DeltaFitness::new(&probs, &genome);
        prop_assert_eq!(delta.fitness(), probs.fitness(&genome));

        for (step, &(app_sel, opt_sel)) in moves.iter().enumerate() {
            let app = app_sel % genome.len();
            let asg = options[app][opt_sel % options[app].len()];
            genome[app] = asg;
            delta.set_gene(app, asg);

            // Exact product, bit-identical to the full recompute.
            prop_assert_eq!(delta.fitness(), probs.fitness(&genome), "step {}", step);

            // Advisory log-sum vs. exact left-to-right recompute.
            let all_alive = genome
                .iter()
                .enumerate()
                .all(|(a, g)| probs.prob(a, g).is_some_and(|q| q > 0.0));
            if all_alive {
                let exact: f64 = genome
                    .iter()
                    .enumerate()
                    .map(|(a, g)| probs.log_prob(a, g).unwrap())
                    .sum();
                if delta.updates_since_resync() == 0 {
                    prop_assert_eq!(delta.log_fitness(), exact, "step {}", step);
                } else {
                    let err = (delta.log_fitness() - exact).abs();
                    prop_assert!(
                        err <= 1e-12 * exact.abs().max(1.0),
                        "step {}: drift {} vs exact {}",
                        step, err, exact
                    );
                }
            } else {
                prop_assert_eq!(delta.log_fitness(), f64::NEG_INFINITY);
            }
        }

        // Forcing a re-sync restores exactness no matter the history.
        delta.resync();
        prop_assert_eq!(delta.fitness(), probs.fitness(&genome));
    }
}

/// An engine built through `store` with `threads` workers, the pool
/// forced on.
fn build_through(
    store: &CellStore,
    batch: &Batch,
    platform: &Platform,
    threads: usize,
) -> Phi1Engine {
    let opts = EngineBuild {
        threads,
        min_work: 0,
        store: Some(store),
    };
    Phi1Engine::build_with(batch, platform, &opts).unwrap().0
}

/// Asserts two engines answer every cell query with the same bits.
fn assert_cells_bit_identical(
    a: &Phi1Engine,
    b: &Phi1Engine,
    batch: &Batch,
    platform: &Platform,
) -> Result<(), TestCaseError> {
    for i in 0..batch.len() {
        for j in 0..platform.num_types() {
            let ty = ProcTypeId(j);
            for n in platform.pow2_options(ty).unwrap() {
                let (x, y) = (a.loaded_pmf(i, ty, n), b.loaded_pmf(i, ty, n));
                prop_assert_eq!(x.is_some(), y.is_some());
                if let (Some(x), Some(y)) = (x, y) {
                    prop_assert!(x.bits_eq(y));
                }
                let (x, y) = (a.dedicated_pmf(i, ty, n), b.dedicated_pmf(i, ty, n));
                if let (Some(x), Some(y)) = (x, y) {
                    prop_assert!(x.bits_eq(y));
                }
                let (x, y) = (a.expected_time(i, ty, n), b.expected_time(i, ty, n));
                prop_assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
            }
        }
    }
    prop_assert_eq!(a.table_fingerprint(), b.table_fingerprint());
    Ok(())
}

/// A copy of `app` with every execution PMF scaled by `frac` — the shape
/// of a remnant app after partial progress.
fn rescaled_app(app: &Application, frac: f64) -> Application {
    let mut b = Application::builder(app.name())
        .serial_iters(app.serial_iters())
        .parallel_iters(app.parallel_iters());
    for j in 0..app.num_proc_types() {
        b = b.exec_time_pmf(app.exec_time(ProcTypeId(j)).unwrap().scale(frac).unwrap());
    }
    b.build().unwrap()
}

proptest! {
    /// The remnant after one of each online event — a type crashed (the
    /// survivors' indices shift down), the first survivor degraded, a
    /// random subset of apps kept in reverse order with some rescaled to
    /// their leftover work — built through a store the original batch
    /// warmed is bit-identical to a fresh storeless build at 1/2/4/7
    /// workers, and the fresh store's hits are exactly the remnant's
    /// unchanged cells: the untouched apps on the untouched types.
    #[test]
    fn store_routed_remnant_matches_fresh_build(
        (platform, batch) in arb_platform().prop_flat_map(|p| {
            let nt = p.num_types();
            (Just(p), arb_batch(nt))
        }),
        keep in prop::collection::vec(0u8..2, 4),
        fracs in prop::collection::vec(0.1f64..0.95, 4),
        pending in prop::collection::vec(0u8..2, 4),
        crash in 0usize..3,
    ) {
        use cdsf_events::remap::{crashed, degraded_platform};

        let (survivors, reduced) = crashed(&batch, &platform, crash % platform.num_types()).unwrap();
        let reduced = degraded_platform(&reduced, 0, 0.5).unwrap();
        let mut remnant_apps = Vec::new();
        let mut untouched_apps = 0u64;
        for (i, app) in survivors.apps().iter().enumerate().rev() {
            // Always keep app 0 so the remnant is never empty.
            if i != 0 && keep[i % keep.len()] == 0 {
                continue;
            }
            if pending[i % pending.len()] == 1 {
                remnant_apps.push(app.clone());
                untouched_apps += 1;
            } else {
                remnant_apps.push(rescaled_app(app, fracs[i % fracs.len()]));
            }
        }
        let remnant = Batch::new(remnant_apps);
        let untouched_options: u64 = (1..reduced.num_types())
            .map(|j| reduced.pow2_options(ProcTypeId(j)).unwrap().len() as u64)
            .sum();

        let fresh = Phi1Engine::build(&remnant, &reduced).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let store = CellStore::new(4_096);
            build_through(&store, &batch, &platform, threads);
            let resolved = build_through(&store, &remnant, &reduced, threads);
            prop_assert_eq!(store.stats().hits, untouched_apps * untouched_options);
            assert_cells_bit_identical(&resolved, &fresh, &remnant, &reduced)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A store-resolved engine build is bit-identical to a storeless
    /// build for any pool worker count and any store capacity — including
    /// capacities small enough that the warming build itself evicts
    /// continuously, so the resolved build mixes hits, misses, and
    /// re-insertions. Verify-on-hit must never fire on honest inputs.
    #[test]
    fn store_resolved_build_matches_fresh(
        (platform, batch) in arb_platform().prop_flat_map(|p| {
            let nt = p.num_types();
            (Just(p), arb_batch(nt))
        }),
        threads in 1usize..=7,
        capacity_sel in 0usize..3,
    ) {
        let capacity = [2usize, 16, 4_096][capacity_sel];
        let fresh = Phi1Engine::build_parallel(&batch, &platform, threads).unwrap();
        let store = CellStore::new(capacity);
        build_through(&store, &batch, &platform, threads);
        let resolved = build_through(&store, &batch, &platform, threads);
        let stats = store.stats();
        prop_assert_eq!(stats.verify_rejects, 0, "structural hashes collided");
        prop_assert!(stats.resident <= stats.capacity,
            "store holds {} cells over its {} capacity", stats.resident, stats.capacity);
        assert_cells_bit_identical(&resolved, &fresh, &batch, &platform)?;
    }

    /// Γ-robust solves are indifferent to how their engine was built: a
    /// store-resolved engine (warm hits, small-capacity evictions and
    /// all) reaches the same solution with bit-identical worst-case φ1
    /// as a storeless engine, for every adversary budget.
    #[test]
    fn gamma_robust_unchanged_through_store(
        (platform, batch, deadline) in arb_instance(),
        budget in 0usize..=2,
    ) {
        let robust = GammaRobust { threads: 1, budget, degradation: 0.9 };
        let fresh = Phi1Engine::build(&batch, &platform).unwrap();
        let store = CellStore::new(8);
        build_through(&store, &batch, &platform, 2);
        let resolved = build_through(&store, &batch, &platform, 2);
        let mut s1 = LatticeScratch::new();
        let mut s2 = LatticeScratch::new();
        let a = robust.solve_with_engine(&platform, &fresh, deadline, &mut s1);
        let b = robust.solve_with_engine(&platform, &resolved, deadline, &mut s2);
        match (a, b) {
            (Ok((sol_a, rep_a)), Ok((sol_b, rep_b))) => {
                prop_assert_eq!(sol_a, sol_b, "solutions diverged through the store");
                prop_assert_eq!(rep_a.phi1.to_bits(), rep_b.phi1.to_bits());
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "verdicts diverged: fresh {:?}, store {:?}", a, b),
        }
    }
}
