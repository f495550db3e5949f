//! Microbenchmarks of the flat Stage-II kernels against their legacy
//! shapes: prefix-table Timeline queries (binary-search `finish_time`,
//! prefix-difference `work_between`, scaled-prefix mean availability) vs.
//! the pre-rewrite linear segment walks, scratch-arena executor replicates
//! vs. fresh per-replicate allocation, the replicate-parallel
//! simulation grid across thread counts, and the dual-stage pipeline's
//! Stage-II grid at one thread.

use cdsf_bench::{
    dualstage_shape_grid, legacy_finish_time, legacy_work_between, stage2_spec, warmed_timeline,
};
use cdsf_core::simulation::simulate_grid;
use cdsf_core::{RasPolicy, SimParams};
use cdsf_dls::executor::{execute, execute_in, ExecutorConfig, ExecutorScratch};
use cdsf_dls::TechniqueKind;
use cdsf_ra::{Allocation, Assignment};
use cdsf_system::ProcTypeId;
use cdsf_workloads::paper;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_finish_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage2/finish_time");
    for &segments in &[1_000usize, 10_000] {
        let (mut tl, queries) = warmed_timeline(segments as f64 * 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("prefix_bsearch", segments),
            &segments,
            |bench, _| {
                bench.iter(|| {
                    let mut acc = 0.0;
                    for &(start, work) in &queries {
                        acc += tl.finish_time(black_box(start), black_box(work), &mut rng);
                    }
                    black_box(acc)
                })
            },
        );
        let (starts, levels, _) = tl.segments();
        let (starts, levels) = (starts.to_vec(), levels.to_vec());
        group.bench_with_input(
            BenchmarkId::new("legacy_walk", segments),
            &segments,
            |bench, _| {
                bench.iter(|| {
                    let mut acc = 0.0;
                    for &(start, work) in &queries {
                        acc += legacy_finish_time(&starts, &levels, black_box(start), work);
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_work_between(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage2/work_between");
    let segments = 10_000usize;
    let (mut tl, queries) = warmed_timeline(segments as f64 * 5.0);
    let mut rng = StdRng::seed_from_u64(1);
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("prefix_diff", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for &(t0, span) in &queries {
                acc += tl.work_between(black_box(t0), black_box(t0 + span), &mut rng);
            }
            black_box(acc)
        })
    });
    let (starts, levels, _) = tl.segments();
    let (starts, levels) = (starts.to_vec(), levels.to_vec());
    group.bench_function("legacy_overlap_scan", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for &(t0, span) in &queries {
                acc += legacy_work_between(&starts, &levels, black_box(t0), t0 + span);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_mean_availability(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage2/mean_availability");
    let segments = 10_000usize;
    let (mut tl, queries) = warmed_timeline(segments as f64 * 5.0);
    let mut rng = StdRng::seed_from_u64(1);
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("scaled_prefix", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for &(t, _) in &queries {
                acc += tl.mean_availability_until(black_box(t.max(1.0)), &mut rng);
            }
            black_box(acc)
        })
    });
    let (starts, levels, _) = tl.segments();
    let (starts, levels) = (starts.to_vec(), levels.to_vec());
    group.bench_function("legacy_full_scan", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for &(t, _) in &queries {
                let t = t.max(1.0);
                acc += legacy_work_between(&starts, &levels, 0.0, black_box(t)) / t;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn replicate_cfg() -> ExecutorConfig {
    ExecutorConfig::builder()
        .workers(12)
        .parallel_iters(2_048)
        .iter_time_mean_sigma(1.0, 0.1)
        .unwrap()
        .availability(stage2_spec())
        .overhead(0.01)
        .build()
        .unwrap()
}

fn bench_executor_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage2/executor_replicates");
    let cfg = replicate_cfg();
    const REPLICATES: u64 = 25;
    group.throughput(Throughput::Elements(REPLICATES));
    group.bench_function("scratch_arena", |bench| {
        bench.iter(|| {
            let mut scratch = ExecutorScratch::new();
            let mut acc = 0.0;
            for r in 0..REPLICATES {
                let mut rng = StdRng::seed_from_u64(100 + r);
                acc += execute_in(&TechniqueKind::Fac, &cfg, &mut scratch, &mut rng)
                    .unwrap()
                    .makespan;
            }
            black_box(acc)
        })
    });
    group.bench_function("fresh_alloc", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for r in 0..REPLICATES {
                let mut rng = StdRng::seed_from_u64(100 + r);
                acc += execute(&TechniqueKind::Fac, &cfg, &mut rng)
                    .unwrap()
                    .makespan;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage2/grid");
    group.sample_size(10);
    let batch = paper::batch_with_pulses(8);
    let cases = vec![paper::platform_case(1)];
    let techniques = [TechniqueKind::Fac, TechniqueKind::Af];
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
    for &threads in &[1usize, 4] {
        let params = SimParams {
            replicates: 8,
            threads,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, _| {
                bench.iter(|| {
                    black_box(
                        simulate_grid(
                            &batch,
                            &alloc,
                            &cases,
                            &techniques,
                            paper::DEADLINE,
                            &params,
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    let (cdsf, alloc) = dualstage_shape_grid();
    let techniques = RasPolicy::Robust.techniques();
    let serial = SimParams {
        threads: 1,
        ..*cdsf.sim_params()
    };
    group.bench_function("dualstage_shape", |bench| {
        bench.iter(|| {
            black_box(
                simulate_grid(
                    cdsf.batch(),
                    &alloc,
                    cdsf.runtime_cases(),
                    &techniques,
                    cdsf.deadline(),
                    &serial,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_finish_time,
    bench_work_between,
    bench_mean_availability,
    bench_executor_scratch,
    bench_grid
);
criterion_main!(benches);
