//! Cross-crate determinism battery: every parallel path in the framework
//! must produce *bit-identical* results at every worker count.
//!
//! The work-stealing pool (`cdsf_system::pool`) schedules nondeterministically
//! — which worker runs which chunk depends on timing — so these tests pin
//! the contract that scheduling freedom never leaks into results: tasks
//! write to pre-assigned slots and reductions run in task order. Each test
//! runs the same computation at 1, 2, 4, and 7 workers (7 exercises
//! non-divisible work splits) and compares against the single-thread run at
//! the `f64::to_bits` level — equality of bits, not approximate agreement.

use cdsf_core::simulation::{simulate_grid, SimParams};
use cdsf_dls::TechniqueKind;
use cdsf_ra::allocators::{EqualShare, GreedyMaxRobust, SimulatedAnnealing};
use cdsf_ra::{Allocator, Assignment, EngineBuild, Phi1Engine};
use cdsf_system::{Batch, Platform, ProcTypeId};
use cdsf_workloads::paper;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// An engine built by `threads` workers with the pool forced on
/// (`min_work = 0`), however small the instance.
fn pooled_build(batch: &Batch, platform: &Platform, threads: usize) -> Phi1Engine {
    let opts = EngineBuild {
        threads,
        min_work: 0,
        store: None,
    };
    Phi1Engine::build_with(batch, platform, &opts).unwrap().0
}

/// The Stage-I bench instance (`cdsf_bench::bench_instance`): `num_apps`
/// applications with 12-pulse PMFs on 3 types of 8–16 processors.
fn bench_instance(num_apps: usize) -> (Batch, Platform) {
    use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
    let platform = PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(11)
    .unwrap();
    let batch = BatchGenerator {
        num_apps,
        total_iters: (1_000, 8_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses: 12,
    }
    .generate(&platform, 12)
    .unwrap();
    (batch, platform)
}

/// Every `(app, type, procs)` triple of an engine, flattened to bits:
/// loaded pulses, dedicated pulses, cached expectation, and CDF probes.
fn engine_fingerprint(engine: &Phi1Engine, deadline: f64) -> Vec<u64> {
    let mut bits = Vec::new();
    for app in 0..engine.num_apps() {
        for ty in 0..engine.num_types() {
            let ty = ProcTypeId(ty);
            let mut procs = 1u32;
            while let Some(loaded) = engine.loaded_pmf(app, ty, procs) {
                for p in loaded.pulses() {
                    bits.push(p.value.to_bits());
                    bits.push(p.prob.to_bits());
                }
                for &c in loaded.cumulative() {
                    bits.push(c.to_bits());
                }
                let dedicated = engine.dedicated_pmf(app, ty, procs).expect("cell exists");
                for p in dedicated.pulses() {
                    bits.push(p.value.to_bits());
                    bits.push(p.prob.to_bits());
                }
                bits.push(engine.expected_time(app, ty, procs).unwrap().to_bits());
                for x in [deadline * 0.5, deadline, deadline * 2.0] {
                    bits.push(engine.prob(app, ty, procs, x).unwrap().to_bits());
                }
                procs *= 2;
            }
        }
    }
    bits
}

#[test]
fn engine_build_is_bit_identical_across_thread_counts() {
    let (batch, platform) = (paper::batch_with_pulses(24), paper::platform());
    // min_work = 0 forces the threaded pool path even though this instance
    // is below the serial-fallback threshold.
    let reference = Phi1Engine::build(&batch, &platform).unwrap();
    let want = engine_fingerprint(&reference, paper::DEADLINE);
    assert!(!want.is_empty());
    for threads in THREAD_COUNTS {
        let engine = pooled_build(&batch, &platform, threads);
        assert_eq!(
            engine_fingerprint(&engine, paper::DEADLINE),
            want,
            "engine differs at {threads} threads"
        );
    }
}

#[test]
fn phi1_tables_are_bit_identical_across_thread_counts() {
    let (batch, platform) = (paper::batch_with_pulses(24), paper::platform());
    let reference = Phi1Engine::build(&batch, &platform).unwrap();
    let table_bits = |engine: &Phi1Engine, deadline: f64| -> Vec<u64> {
        let table = engine.table(deadline).unwrap();
        let mut bits = Vec::new();
        for app in 0..engine.num_apps() {
            for asg in engine.options(app) {
                bits.push(table.prob(app, asg.proc_type, asg.procs).unwrap().to_bits());
            }
        }
        bits
    };
    for deadline in [paper::DEADLINE * 0.5, paper::DEADLINE] {
        let want = table_bits(&reference, deadline);
        for threads in THREAD_COUNTS {
            let engine = pooled_build(&batch, &platform, threads);
            assert_eq!(
                table_bits(&engine, deadline),
                want,
                "φ1 table differs at {threads} threads, Δ = {deadline}"
            );
        }
    }
}

#[test]
fn allocations_are_thread_count_invariant() {
    let (batch, platform) = (paper::batch_with_pulses(24), paper::platform());
    let flat = |assignments: &[Assignment]| -> Vec<(usize, u32)> {
        assignments
            .iter()
            .map(|a| (a.proc_type.0, a.procs))
            .collect()
    };
    let reference = Phi1Engine::build(&batch, &platform).unwrap();
    let greedy = GreedyMaxRobust;
    let equal = EqualShare;
    let want_greedy = greedy
        .allocate_with_engine(&batch, &platform, &reference, paper::DEADLINE)
        .unwrap();
    let want_equal = equal
        .allocate_with_engine(&batch, &platform, &reference, paper::DEADLINE)
        .unwrap();
    for threads in THREAD_COUNTS {
        let engine = pooled_build(&batch, &platform, threads);
        let got_greedy = greedy
            .allocate_with_engine(&batch, &platform, &engine, paper::DEADLINE)
            .unwrap();
        let got_equal = equal
            .allocate_with_engine(&batch, &platform, &engine, paper::DEADLINE)
            .unwrap();
        assert_eq!(
            flat(got_greedy.assignments()),
            flat(want_greedy.assignments()),
            "GreedyMaxRobust allocation differs at {threads} threads"
        );
        assert_eq!(
            flat(got_equal.assignments()),
            flat(want_equal.assignments()),
            "EqualShare allocation differs at {threads} threads"
        );
    }
}

/// The pooled multi-start annealer's winner is picked by a strict-`>`
/// in-order argmax over the restart chains, and each chain's RNG is
/// seeded by its chain index — so the chosen allocation, the winning
/// chain, and the stolen-chunk-free telemetry are all functions of the
/// *inputs*, never of how the pool interleaved the chains. This is the
/// contract that lets the serving layer route `"sa"` requests through
/// the pool while keeping reply bytes identical at every worker count.
#[test]
fn pooled_multi_start_annealing_is_thread_count_invariant() {
    let (batch, platform) = (paper::batch_with_pulses(24), paper::platform());
    let flat = |assignments: &[Assignment]| -> Vec<(usize, u32)> {
        assignments
            .iter()
            .map(|a| (a.proc_type.0, a.procs))
            .collect()
    };
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    // Short chains keep the battery fast; 4 restarts over 7 workers still
    // exercises chunk stealing and the non-divisible split.
    let sa_at = |threads: usize| SimulatedAnnealing {
        iterations: 2_000,
        restarts: 4,
        threads,
        ..SimulatedAnnealing::default()
    };
    let (want_alloc, want_report) = sa_at(1)
        .allocate_multi_start(&platform, &engine, paper::DEADLINE)
        .unwrap();
    assert_eq!(want_report.restarts, 4);
    assert_eq!(want_report.workers, 1, "single-thread run stays inline");
    for threads in THREAD_COUNTS {
        let (alloc, report) = sa_at(threads)
            .allocate_multi_start(&platform, &engine, paper::DEADLINE)
            .unwrap();
        assert_eq!(
            flat(alloc.assignments()),
            flat(want_alloc.assignments()),
            "pooled SA allocation differs at {threads} threads"
        );
        assert_eq!(
            report.winner, want_report.winner,
            "winning restart chain differs at {threads} threads"
        );
        assert_eq!(report.restarts, 4);
    }
    // The single-allocation entry point rides the same multi-start path:
    // its answer must match at every width too.
    for threads in THREAD_COUNTS {
        let alloc = sa_at(threads)
            .allocate_with_engine(&batch, &platform, &engine, paper::DEADLINE)
            .unwrap();
        assert_eq!(
            flat(alloc.assignments()),
            flat(want_alloc.assignments()),
            "allocate_with_engine diverged from multi-start at {threads} threads"
        );
    }
}

/// The lattice's anytime solve searches on its caller's thread under a
/// constant node budget, so the answer it returns when that budget runs
/// out — the incumbent, the node count and the certified φ1 bound — is a
/// function of the inputs and the deadline alone. Here the Stage-I bench
/// instance of 16 applications sits on the φ1 ≈ 1 plateau at Δ = 10 000:
/// its engine is built at every worker count, and that many threads
/// solve it at once, each with its own scratch.
#[test]
fn lattice_anytime_solve_is_thread_count_invariant() {
    use cdsf_ra::{Lattice, LatticeScratch};
    let (batch, platform) = bench_instance(16);
    let bits = |engine: &Phi1Engine| {
        let (alloc, report, unproven) =
            Lattice::anytime_with_engine(&platform, engine, 10_000.0, &mut LatticeScratch::new())
                .unwrap();
        let unproven = unproven.expect("the budget runs out on the plateau");
        (
            alloc,
            report.phi1.to_bits(),
            report.sum_exp.to_bits(),
            unproven.nodes,
            unproven.phi1_bound.to_bits(),
        )
    };
    let want = bits(&pooled_build(&batch, &platform, 1));
    assert_eq!(want.3, Lattice::NODE_BUDGET + 1);
    assert!(f64::from_bits(want.4) >= f64::from_bits(want.1));
    for threads in THREAD_COUNTS {
        let engine = pooled_build(&batch, &platform, threads);
        std::thread::scope(|s| {
            let solves: Vec<_> = (0..threads).map(|_| s.spawn(|| bits(&engine))).collect();
            for solve in solves {
                assert_eq!(
                    solve.join().unwrap(),
                    want,
                    "anytime answer differs at {threads} threads"
                );
            }
        });
    }
}

/// The exact lattice branch-and-bound is a function of the inputs
/// alone — allocation, φ1 bits, and the Γ-robust variant's worst-case
/// objective — at any worker count. On the paper instance every search
/// ends inside the serial-first budget, so several workers return the
/// serial winner: at the paper deadline the first phase finds the
/// optimum, at Δ = 800 it finds no positive allocation and the second
/// runs. `lattice_split_is_thread_count_invariant` covers a search that
/// splits.
#[test]
fn lattice_solvers_are_thread_count_invariant() {
    use cdsf_ra::{GammaRobust, Lattice, LatticeScratch, LatticeSolution};
    let (batch, platform) = (paper::batch_with_pulses(24), paper::platform());
    let engine = Phi1Engine::build(&batch, &platform).unwrap();

    for (deadline, feasible) in [(paper::DEADLINE, true), (800.0, false)] {
        let solve = |threads: usize| {
            let mut scratch = LatticeScratch::new();
            Lattice::new(threads)
                .unwrap()
                .solve_with_engine(&platform, &engine, deadline, &mut scratch)
                .unwrap()
        };
        let (want, want_report) = solve(1);
        assert_eq!(
            matches!(want, LatticeSolution::Optimal { .. }),
            feasible,
            "Δ = {deadline}"
        );
        for threads in THREAD_COUNTS {
            let (solution, report) = solve(threads);
            assert_eq!(
                solution, want,
                "lattice solution differs at {threads} threads, Δ = {deadline}"
            );
            assert_eq!(
                (report.phi1.to_bits(), report.sum_exp.to_bits()),
                (want_report.phi1.to_bits(), want_report.sum_exp.to_bits()),
                "lattice φ1 / Σ E[T] bits differ at {threads} threads, Δ = {deadline}"
            );
        }

        let robust_solve = |threads: usize| {
            let mut scratch = LatticeScratch::new();
            GammaRobust {
                threads,
                ..Default::default()
            }
            .solve_with_engine(&platform, &engine, deadline, &mut scratch)
            .unwrap()
        };
        let (want, want_report) = robust_solve(1);
        for threads in THREAD_COUNTS {
            let (solution, report) = robust_solve(threads);
            assert_eq!(
                solution, want,
                "γ-robust solution differs at {threads} threads, Δ = {deadline}"
            );
            assert_eq!(
                (report.phi1.to_bits(), report.nominal_phi1.to_bits()),
                (
                    want_report.phi1.to_bits(),
                    want_report.nominal_phi1.to_bits()
                ),
                "γ-robust φ1 bits differ at {threads} threads, Δ = {deadline}"
            );
        }
    }
}

/// A search longer than the lattice's serial-first budget (2¹⁶ nodes):
/// several workers split what the serial prefix left over the pool, one
/// task per unfinished subtree along the prefix's last path, and merge
/// the slots by the strict total order, so the solution still cannot
/// depend on how the pool interleaved them. Which subtrees the split
/// must search is pinned against an unpruned reference by the lattice's
/// own tests, at budgets that cut the prefix short where it matters.
#[test]
fn lattice_split_is_thread_count_invariant() {
    use cdsf_ra::{GammaRobust, Lattice, LatticeScratch};
    let (batch, platform) = bench_instance(12);
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    // Past the budget at one worker: 68 934 nodes for the plain solver at
    // Δ = 8 000, 82 173 for the Γ-robust one at Δ = 9 000.
    let mut scratch = LatticeScratch::new();
    let plain = |threads: usize, scratch: &mut LatticeScratch| {
        Lattice::new(threads)
            .unwrap()
            .optimum_with_engine(&platform, &engine, 8_000.0, scratch)
            .unwrap()
    };
    let (want, want_report) = plain(1, &mut scratch);
    assert!(
        want_report.counters.nodes > 1 << 16,
        "the search fits the budget"
    );
    for threads in THREAD_COUNTS {
        let (alloc, report) = plain(threads, &mut scratch);
        assert_eq!(
            alloc, want,
            "lattice allocation differs at {threads} threads"
        );
        assert_eq!(
            (report.phi1.to_bits(), report.sum_exp.to_bits()),
            (want_report.phi1.to_bits(), want_report.sum_exp.to_bits()),
            "lattice φ1 / Σ E[T] bits differ at {threads} threads"
        );
    }
    let robust = |threads: usize, scratch: &mut LatticeScratch| {
        GammaRobust {
            threads,
            ..Default::default()
        }
        .solve_with_engine(&platform, &engine, 9_000.0, scratch)
        .unwrap()
    };
    let (want, want_report) = robust(1, &mut scratch);
    assert!(
        want_report.counters.nodes > 1 << 16,
        "the search fits the budget"
    );
    for threads in THREAD_COUNTS {
        let (solution, report) = robust(threads, &mut scratch);
        assert_eq!(
            solution, want,
            "γ-robust solution differs at {threads} threads"
        );
        assert_eq!(
            (report.phi1.to_bits(), report.nominal_phi1.to_bits()),
            (
                want_report.phi1.to_bits(),
                want_report.nominal_phi1.to_bits()
            ),
            "γ-robust φ1 bits differ at {threads} threads"
        );
    }
}

/// `CellResult` flattened to bits — `PartialEq` on f64 would already treat
/// `-0.0 == 0.0` and `NaN != NaN`; the determinism contract is stronger.
fn cell_bits(cells: &[cdsf_core::simulation::CellResult]) -> Vec<(usize, usize, String, [u64; 4])> {
    cells
        .iter()
        .map(|c| {
            (
                c.app,
                c.case,
                c.technique.clone(),
                [
                    c.mean_makespan.to_bits(),
                    c.std_makespan.to_bits(),
                    c.mean_chunks.to_bits(),
                    c.deadline_hit_rate.to_bits(),
                ],
            )
        })
        .collect()
}

#[test]
fn stage2_grid_is_bit_identical_across_thread_counts() {
    let batch = paper::batch_with_pulses(8);
    let alloc = cdsf_ra::Allocation::new(vec![
        Assignment {
            proc_type: ProcTypeId(0),
            procs: 2,
        },
        Assignment {
            proc_type: ProcTypeId(0),
            procs: 2,
        },
        Assignment {
            proc_type: ProcTypeId(1),
            procs: 8,
        },
    ]);
    let cases: Vec<_> = (1..=2).map(paper::platform_case).collect();
    let techniques = vec![TechniqueKind::Static, TechniqueKind::Fac, TechniqueKind::Af];
    // 7 replicates: indivisible by 2 and 4, equal to the widest worker
    // count, so every split shape is exercised.
    let run = |threads: usize| {
        simulate_grid(
            &batch,
            &alloc,
            &cases,
            &techniques,
            paper::DEADLINE,
            &SimParams {
                replicates: 7,
                threads,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let want = cell_bits(&run(1));
    assert_eq!(want.len(), 3 * 2 * 3);
    for threads in THREAD_COUNTS {
        assert_eq!(
            cell_bits(&run(threads)),
            want,
            "grid differs at {threads} threads"
        );
    }
}
