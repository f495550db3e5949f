//! Microbenchmarks of the fused PMF-construction kernels against their
//! two-step reference shapes: single-pass scale→quotient loaded-PMF
//! builds with a reused [`CombineScratch`] vs. the legacy
//! `amdahl_rescale` + `quotient` chain, the sorted-merge `max`/product
//! fast paths vs. the canonicalizing `combine`, and one-app-changed
//! remaps assembled against a cell store vs. rebuilding from scratch.

use cdsf_pmf::CombineScratch;
use cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY;
use cdsf_ra::{CellStore, EngineBuild, Phi1Engine};
use cdsf_system::parallel_time::{amdahl_rescale, loaded_time_pmf_in};
use cdsf_system::{Application, Batch, Platform, ProcTypeId};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// A pulse-rich instance: many execution pulses against a handful of
/// availability pulses, the regime where the legacy chain's comparison
/// sort and intermediate PMF dominate.
fn rich_instance(pulses: usize) -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(11)
    .unwrap();
    let batch = BatchGenerator {
        num_apps: 8,
        total_iters: (1_000, 8_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses,
    }
    .generate(&platform, 12)
    .unwrap();
    (batch, platform)
}

/// Every `(app, type, power-of-two count)` cell of the engine grid.
fn engine_cells(batch: &Batch, platform: &Platform) -> Vec<(usize, ProcTypeId, u32)> {
    let mut cells = Vec::new();
    for i in 0..batch.len() {
        for j in 0..platform.num_types() {
            let count = platform.proc_type(ProcTypeId(j)).unwrap().count();
            let mut n = 1u32;
            while n <= count {
                cells.push((i, ProcTypeId(j), n));
                n *= 2;
            }
        }
    }
    cells
}

/// `batch` with application `changed` rescaled by `frac` — a single-app
/// remnant: everything else is bit-identical to the original.
fn single_app_remnant(batch: &Batch, num_types: usize, changed: usize, frac: f64) -> Batch {
    Batch::new(
        batch
            .apps()
            .iter()
            .enumerate()
            .map(|(i, app)| {
                if i != changed {
                    return app.clone();
                }
                let mut b = Application::builder(app.name())
                    .serial_iters(app.serial_iters())
                    .parallel_iters(app.parallel_iters());
                for j in 0..num_types {
                    b = b.exec_time_pmf(app.exec_time(ProcTypeId(j)).unwrap().scale(frac).unwrap());
                }
                b.build().unwrap()
            })
            .collect(),
    )
}

fn bench_loaded_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmf_build/loaded");
    for &pulses in &[48usize, 384] {
        let (batch, platform) = rich_instance(pulses);
        let cells = engine_cells(&batch, &platform);
        let apps = batch.apps();
        group.throughput(Throughput::Elements(cells.len() as u64));
        group.bench_with_input(BenchmarkId::new("fused", pulses), &pulses, |bench, _| {
            let mut scratch = CombineScratch::new();
            bench.iter(|| {
                for &(i, j, n) in &cells {
                    black_box(loaded_time_pmf_in(&apps[i], &platform, j, n, &mut scratch).unwrap());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("two_step", pulses), &pulses, |bench, _| {
            bench.iter(|| {
                for &(i, j, n) in &cells {
                    let app = &apps[i];
                    let avail = platform.proc_type(j).unwrap().availability();
                    let parallel =
                        amdahl_rescale(app.exec_time(j).unwrap(), app.serial_fraction(), n)
                            .unwrap();
                    black_box(parallel.quotient(avail).unwrap());
                }
            })
        });
    }
    group.finish();
}

fn bench_combine_monotone(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmf_build/combine");
    let (batch, platform) = rich_instance(384);
    let a = batch.apps()[0].exec_time(ProcTypeId(0)).unwrap();
    let b = batch.apps()[1].exec_time(ProcTypeId(0)).unwrap();
    group.throughput(Throughput::Elements(1));
    group.bench_function("max_with", |bench| {
        let mut scratch = CombineScratch::new();
        bench.iter(|| black_box(a.max_with(b, &mut scratch).unwrap()))
    });
    group.bench_function("max_combine", |bench| {
        bench.iter(|| black_box(a.max(b).unwrap()))
    });
    let avail = platform.proc_type(ProcTypeId(0)).unwrap().availability();
    group.bench_function("product_with", |bench| {
        let mut scratch = CombineScratch::new();
        bench.iter(|| black_box(a.product_with(avail, &mut scratch).unwrap()))
    });
    group.bench_function("product_combine", |bench| {
        bench.iter(|| black_box(a.combine(avail, |x, y| x * y).unwrap()))
    });
    group.finish();
}

fn bench_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmf_build/rebuild");
    let platform = PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(11)
    .unwrap();
    let batch = BatchGenerator {
        num_apps: 32,
        total_iters: (1_000, 8_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses: 12,
    }
    .generate(&platform, 12)
    .unwrap();
    let num_types = platform.num_types();
    // Every iteration rescales app 0 by a fraction no earlier iteration
    // used, so app 0's cells were never built: a real one-app-changed
    // miss, the other apps' cells coming from the store. Making the
    // remnant is inside the timed loop (the harness does not expose its
    // iteration count), and so is it for `full_1app32`, which builds the
    // same shape storeless.
    group.bench_function("remap_1app32", |bench| {
        let store = CellStore::new(DEFAULT_CELL_CAPACITY);
        let opts = EngineBuild {
            store: Some(&store),
            ..EngineBuild::default()
        };
        Phi1Engine::build_with(&batch, &platform, &opts).unwrap();
        let mut n = 0u32;
        bench.iter(|| {
            n += 1;
            let remnant = single_app_remnant(&batch, num_types, 0, 0.5 + n as f64 * 1e-6);
            black_box(Phi1Engine::build_with(&remnant, &platform, &opts).unwrap());
        })
    });
    group.bench_function("full_1app32", |bench| {
        let mut n = 0u32;
        bench.iter(|| {
            n += 1;
            let remnant = single_app_remnant(&batch, num_types, 0, 0.5 + n as f64 * 1e-6);
            black_box(Phi1Engine::build_parallel(&remnant, &platform, 1).unwrap());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_loaded_build,
    bench_combine_monotone,
    bench_rebuild
);
criterion_main!(benches);
