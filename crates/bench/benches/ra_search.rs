//! Stage-I allocator scaling: the paper notes that exhaustive search "is
//! only feasible in the case of the small demonstrative example" — this
//! bench quantifies that wall, and the polynomial cost of the scalable
//! heuristics that the paper's future work calls for.

use cdsf_ra::allocators::{EqualShare, Exhaustive, GreedyMaxRobust, SimulatedAnnealing, Sufferage};
use cdsf_ra::robustness::ProbabilityTable;
use cdsf_ra::{Allocator, Phi1Engine};
use cdsf_system::{Batch, Platform};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
use cdsf_workloads::paper;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const DEADLINE: f64 = 2_500.0;

fn generated_instance(num_apps: usize) -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types: 2,
        procs_per_type: (8, 8),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(42)
    .unwrap();
    let batch = BatchGenerator {
        num_apps,
        total_iters: (1_000, 5_000),
        serial_fraction: Range::new(0.05, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 5_000.0).unwrap(),
        type_heterogeneity: Range::new(0.7, 1.5).unwrap(),
        pulses: 16,
    }
    .generate(&platform, 43)
    .unwrap();
    (batch, platform)
}

fn bench_paper_instance(c: &mut Criterion) {
    let batch = paper::batch_with_pulses(32);
    let platform = paper::platform();
    let mut group = c.benchmark_group("ra/paper_instance");
    group.sample_size(20);
    group.bench_function("equal_share", |b| {
        b.iter(|| black_box(EqualShare::new().allocate(&batch, &platform, paper::DEADLINE)))
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| black_box(Exhaustive.allocate(&batch, &platform, paper::DEADLINE)))
    });
    group.bench_function("sufferage", |b| {
        b.iter(|| black_box(Sufferage::new().allocate(&batch, &platform, paper::DEADLINE)))
    });
    group.finish();
}

fn bench_exhaustive_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ra/exhaustive_scaling");
    group.sample_size(10);
    // The option count per app is ~8, so the unpruned space is ~8^N.
    for &n in &[3usize, 4, 5, 6] {
        let (batch, platform) = generated_instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(Exhaustive.allocate(&batch, &platform, DEADLINE)))
        });
    }
    group.finish();
}

fn bench_heuristic_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ra/heuristic_scaling");
    group.sample_size(10);
    for &n in &[6usize, 12, 24] {
        let (batch, platform) = generated_instance(n);
        group.bench_with_input(BenchmarkId::new("greedy_max_robust", n), &n, |b, _| {
            b.iter(|| black_box(GreedyMaxRobust::new().allocate(&batch, &platform, DEADLINE)))
        });
        group.bench_with_input(BenchmarkId::new("sufferage", n), &n, |b, _| {
            b.iter(|| black_box(Sufferage::new().allocate(&batch, &platform, DEADLINE)))
        });
        group.bench_with_input(BenchmarkId::new("annealing_4k", n), &n, |b, _| {
            let sa = SimulatedAnnealing {
                iterations: 4_000,
                ..Default::default()
            };
            b.iter(|| black_box(sa.allocate(&batch, &platform, DEADLINE)))
        });
    }
    group.finish();
}

/// The engine's cache amortisation: rebuilding the probability table from
/// scratch per deadline (the pre-engine path) vs one engine build plus
/// cached CDF lookups per deadline.
fn bench_engine_vs_uncached(c: &mut Criterion) {
    let (batch, platform) = generated_instance(8);
    let deadlines = [1_500.0, 2_000.0, 2_500.0, 3_000.0];
    let mut group = c.benchmark_group("ra/engine");
    group.sample_size(20);
    group.bench_function("uncached_table_4_deadlines", |b| {
        b.iter(|| {
            for &d in &deadlines {
                black_box(ProbabilityTable::build(&batch, &platform, d).unwrap());
            }
        })
    });
    group.bench_function("engine_table_4_deadlines", |b| {
        b.iter(|| {
            let engine = Phi1Engine::build(&batch, &platform).unwrap();
            for &d in &deadlines {
                black_box(engine.table(d).unwrap());
            }
        })
    });
    group.bench_function("cached_table_4_deadlines", |b| {
        let engine = Phi1Engine::build(&batch, &platform).unwrap();
        b.iter(|| {
            for &d in &deadlines {
                black_box(engine.table(d).unwrap());
            }
        })
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("build_threads", threads),
            &threads,
            |b, &t| b.iter(|| black_box(Phi1Engine::build_parallel(&batch, &platform, t).unwrap())),
        );
    }
    group.finish();
}

fn bench_monte_carlo_vs_exact(c: &mut Criterion) {
    use cdsf_ra::robustness::{evaluate, monte_carlo_phi1, MonteCarloConfig};
    use cdsf_ra::{Allocation, Assignment};
    use cdsf_system::ProcTypeId;

    let batch = paper::batch_with_pulses(64);
    let platform = paper::platform();
    let alloc = Allocation::new(vec![
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
    let mut group = c.benchmark_group("ra/phi1_evaluation");
    group.sample_size(20);
    group.bench_function("exact_pmf", |b| {
        b.iter(|| black_box(evaluate(&batch, &platform, &alloc, paper::DEADLINE)))
    });
    group.bench_function("monte_carlo_100k_x4threads", |b| {
        let cfg = MonteCarloConfig {
            replicates: 100_000,
            threads: 4,
            seed: 1,
        };
        b.iter(|| {
            black_box(monte_carlo_phi1(
                &batch,
                &platform,
                &alloc,
                paper::DEADLINE,
                &cfg,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_paper_instance,
    bench_exhaustive_scaling,
    bench_heuristic_scaling,
    bench_engine_vs_uncached,
    bench_monte_carlo_vs_exact
);
criterion_main!(benches);
