//! Content-addressed cell store: cold engine builds vs store-resolved
//! warm builds on catalog-style workloads.
//!
//! The serve layer's cross-tenant win is that two specs sharing catalog
//! applications (and a platform) produce bit-identical `(app, type, 2^k)`
//! cells, which one shared [`CellStore`] interns exactly once. This suite
//! times the engine-build path that monetizes that sharing:
//!
//! * `cold_build` — the plain kernel path, no store attached;
//! * `overhead_empty_store` — a fresh, never-warm store attached: the
//!   pure cost of hashing inputs and interning every cell (the worst
//!   case a store-attached build can pay — the store construction itself
//!   is eight empty locked shard maps, noise next to the kernel work);
//! * `warm_full_overlap` — every cell resident: the steady-state rebuild
//!   a serve shard pays when a tenant resubmits a known catalog;
//! * `pair_build_shared15` — a fresh store warmed by a batch sharing 15
//!   of 16 applications, then the overlapping build: the whole
//!   two-tenant onboarding sequence. Comparing it against 2× cold shows
//!   the store paying for itself within two builds. (The *isolated*
//!   partial-overlap warm build — second build only — is timed by
//!   `bench_snapshot`'s `cell_store` section, which can afford a fresh
//!   pre-warmed store per sample.)
//! * `thrash_build` — one pass over [`cdsf_bench::thrash_instances`],
//!   3 000 churn-shaped specs whose cells overflow a default store twice
//!   over, storeless and against a filled store where most inserts
//!   evict: the store's overhead when it can rarely help.

use cdsf_bench::{catalog_app, thrash_instances, thrash_pass};
use cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY;
use cdsf_ra::{CellStore, EngineBuild, Phi1Engine};
use cdsf_system::{Application, Batch, Platform};
use cdsf_workloads::generators::{PlatformGenerator, Range};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The snapshot's pulse-rich platform (seed 11), the regime where the
/// fused cell kernel dominates the build and hashing is comparatively
/// free.
fn catalog_platform() -> Platform {
    PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(11)
    .unwrap()
}

/// Two 16-app batches drawn from a 17-app catalog: `prev` holds apps
/// 0..16, `next` holds 1..17, so they share 15 applications.
fn catalog_instance() -> (Platform, Batch, Batch) {
    let platform = catalog_platform();
    let apps: Vec<Application> = (0..17).map(|i| catalog_app(&platform, 100 + i)).collect();
    let prev = Batch::new(apps[..16].to_vec());
    let next = Batch::new(apps[1..].to_vec());
    (platform, prev, next)
}

/// A serial engine build resolving cells against `store`.
fn build_through(store: &CellStore, batch: &Batch, platform: &Platform) -> Phi1Engine {
    let opts = EngineBuild {
        store: Some(store),
        ..EngineBuild::default()
    };
    Phi1Engine::build_with(batch, platform, &opts).unwrap().0
}

fn bench_cold_build(c: &mut Criterion) {
    let (platform, _, next) = catalog_instance();
    let mut group = c.benchmark_group("cell_store/cold_build_catalog16");
    group.sample_size(20);
    group.bench_function("t1_p384", |b| {
        b.iter(|| black_box(Phi1Engine::build_parallel(&next, &platform, 1).unwrap()))
    });
    group.finish();
}

fn bench_overhead_empty_store(c: &mut Criterion) {
    let (platform, _, next) = catalog_instance();
    let mut group = c.benchmark_group("cell_store/overhead_empty_store");
    group.sample_size(20);
    group.bench_function("t1_p384", |b| {
        b.iter(|| {
            let store = CellStore::new(DEFAULT_CELL_CAPACITY);
            black_box(build_through(&store, &next, &platform))
        })
    });
    group.finish();
}

fn bench_warm_full_overlap(c: &mut Criterion) {
    let (platform, _, next) = catalog_instance();
    let store = CellStore::new(DEFAULT_CELL_CAPACITY);
    build_through(&store, &next, &platform);
    let mut group = c.benchmark_group("cell_store/warm_full_overlap");
    group.bench_function("t1_p384", |b| {
        b.iter(|| black_box(build_through(&store, &next, &platform)))
    });
    group.finish();
}

fn bench_pair_build_shared15(c: &mut Criterion) {
    let (platform, prev, next) = catalog_instance();
    let mut group = c.benchmark_group("cell_store/pair_build_shared15");
    group.sample_size(20);
    group.bench_function("t1_p384", |b| {
        b.iter(|| {
            let store = CellStore::new(DEFAULT_CELL_CAPACITY);
            black_box(build_through(&store, &prev, &platform));
            black_box(build_through(&store, &next, &platform))
        })
    });
    group.finish();
}

fn bench_thrash_build(c: &mut Criterion) {
    let instances = thrash_instances();
    let store = CellStore::new(DEFAULT_CELL_CAPACITY);
    thrash_pass(&instances, Some(&store));
    let mut group = c.benchmark_group("cell_store/thrash_build");
    group.sample_size(10);
    group.bench_function("storeless_churn3000", |b| {
        b.iter(|| thrash_pass(&instances, None))
    });
    group.bench_function("store_churn3000", |b| {
        b.iter(|| thrash_pass(&instances, Some(&store)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_build,
    bench_overhead_empty_store,
    bench_warm_full_overlap,
    bench_pair_build_shared15,
    bench_thrash_build
);
criterion_main!(benches);
