//! Exact lattice branch-and-bound vs stochastic search on the snapshot's
//! apps16 instance: the serve hot path pays one Stage-I allocation per
//! `alloc_cache_miss`, so this suite times the warm (engine + scratch
//! reused) solves — the full solve with its proofs and the node-budgeted
//! anytime solve that path actually runs — the cold full-build path, the
//! Γ-robust worst-case variant, and the SA baseline.

use cdsf_bench::bench_instance;
use cdsf_ra::allocators::SimulatedAnnealing;
use cdsf_ra::{Allocator, GammaRobust, Lattice, LatticeScratch, Phi1Engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const DEADLINE: f64 = 2_800.0;

/// Warm solve: the engine and scratch are reused across calls, exactly
/// like the serve shard's repeated allocations against a cached engine.
fn bench_lattice_warm(c: &mut Criterion) {
    let (batch, platform) = bench_instance(16);
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let mut group = c.benchmark_group("ra_lattice/solve_warm_apps16");
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let lattice = Lattice::new(t).unwrap();
            let mut scratch = LatticeScratch::new();
            b.iter(|| {
                black_box(
                    lattice
                        .solve_with_engine(&platform, &engine, DEADLINE, &mut scratch)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// Cold path: engine build plus solve, the cost of a cache-missing
/// first allocation for a new tenant spec.
fn bench_lattice_cold(c: &mut Criterion) {
    let (batch, platform) = bench_instance(16);
    let mut group = c.benchmark_group("ra_lattice/allocate_cold_apps16");
    group.sample_size(20);
    group.bench_function("lattice_t1", |b| {
        let lattice = Lattice::new(1).unwrap();
        b.iter(|| black_box(lattice.allocate(&batch, &platform, DEADLINE).unwrap()))
    });
    group.finish();
}

/// The Γ-robust (guaranteed-QoS) variant on the same warm path: the
/// adversary enumeration multiplies leaf evaluation, not tree size.
fn bench_gamma_robust_warm(c: &mut Criterion) {
    let (batch, platform) = bench_instance(16);
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let mut group = c.benchmark_group("ra_lattice/gamma_robust_warm_apps16");
    group.bench_function("budget1_t1", |b| {
        let robust = GammaRobust {
            threads: 1,
            ..Default::default()
        };
        let mut scratch = LatticeScratch::new();
        b.iter(|| {
            black_box(
                robust
                    .solve_with_engine(&platform, &engine, DEADLINE, &mut scratch)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// The serve shard's solve: the anytime search on one thread under its
/// constant node budget, engine and scratch warm.
fn bench_lattice_anytime_warm(c: &mut Criterion) {
    let (batch, platform) = bench_instance(16);
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let mut group = c.benchmark_group("ra_lattice/anytime_warm_apps16");
    group.bench_function("t1", |b| {
        let mut scratch = LatticeScratch::new();
        b.iter(|| {
            black_box(
                Lattice::anytime_with_engine(&platform, &engine, DEADLINE, &mut scratch).unwrap(),
            )
        })
    });
    group.finish();
}

/// The SA baseline: one full SA allocation with the snapshot's
/// configuration (2k iterations, single restart, 1 thread).
fn bench_sa_baseline(c: &mut Criterion) {
    let (batch, platform) = bench_instance(16);
    let mut group = c.benchmark_group("ra_lattice/sa_baseline_apps16");
    group.sample_size(20);
    group.bench_function("sa_2k", |b| {
        let sa = SimulatedAnnealing {
            iterations: 2_000,
            seed: 3,
            threads: 1,
            restarts: 1,
            ..Default::default()
        };
        b.iter(|| black_box(sa.allocate(&batch, &platform, DEADLINE).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lattice_warm,
    bench_lattice_cold,
    bench_gamma_robust_warm,
    bench_lattice_anytime_warm,
    bench_sa_baseline
);
criterion_main!(benches);
