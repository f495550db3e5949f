//! Microbenchmarks of the flat φ₁ kernels against their legacy shapes:
//! prefix-table CDF vs. linear re-sum, batched deadline sweeps, arena
//! engine builds, SoA table derivation, and incremental SA
//! mutation-evaluation throughput vs. the full O(N)-lookup recompute.

use cdsf_bench::{bench_instance, full_fitness, legacy_cdf};
use cdsf_pmf::discretize::{Discretize, Normal};
use cdsf_ra::{Assignment, DeltaFitness, OptionProbs, Phi1Engine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const DEADLINE: f64 = 2_800.0;

fn bench_cdf_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("phi1/cdf");
    for &n in &[64usize, 1024, 16_384] {
        let pmf = Normal::new(1_000.0, 100.0).unwrap().equiprobable(n);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("prefix", n), &n, |bench, _| {
            bench.iter(|| black_box(pmf.cdf(black_box(1_050.0))))
        });
        group.bench_with_input(BenchmarkId::new("legacy_scan", n), &n, |bench, _| {
            bench.iter(|| black_box(legacy_cdf(&pmf, black_box(1_050.0))))
        });
    }
    group.finish();
}

fn bench_cdf_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("phi1/cdf_many");
    let pmf = Normal::new(1_000.0, 100.0).unwrap().equiprobable(1024);
    let sweep: Vec<f64> = (0..256).map(|i| 600.0 + 3.2 * i as f64).collect();
    group.throughput(Throughput::Elements(sweep.len() as u64));
    group.bench_function("batched_sorted", |bench| {
        bench.iter(|| black_box(pmf.cdf_many(black_box(&sweep))))
    });
    group.bench_function("pointwise_loop", |bench| {
        bench.iter(|| {
            let out: Vec<f64> = sweep.iter().map(|&x| pmf.cdf(x)).collect();
            black_box(out)
        })
    });
    group.finish();
}

fn bench_engine_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("phi1/engine_build");
    let (batch, platform) = bench_instance(32);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, &t| {
                bench.iter(|| black_box(Phi1Engine::build_parallel(&batch, &platform, t).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_table_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("phi1/table");
    let (batch, platform) = bench_instance(32);
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let deadlines: Vec<f64> = (0..32).map(|i| 1_200.0 + 100.0 * i as f64).collect();
    group.throughput(Throughput::Elements(deadlines.len() as u64));
    group.bench_function("soa_linear_pass", |bench| {
        bench.iter(|| {
            for &d in &deadlines {
                black_box(engine.table(d).unwrap());
            }
        })
    });
    // The pre-rewrite shape: walk the loaded PMFs and re-sum each CDF.
    group.bench_function("legacy_nested_scan", |bench| {
        bench.iter(|| {
            for &d in &deadlines {
                let mut probs = Vec::with_capacity(engine.num_apps());
                for app in 0..engine.num_apps() {
                    let mut per_type: Vec<Option<Vec<f64>>> = vec![None; engine.num_types()];
                    for asg in engine.options(app) {
                        let pmf = engine.loaded_pmf(app, asg.proc_type, asg.procs).unwrap();
                        per_type[asg.proc_type.0]
                            .get_or_insert_with(Vec::new)
                            .push(legacy_cdf(pmf, d));
                    }
                    probs.push(per_type);
                }
                black_box(probs);
            }
        })
    });
    group.finish();
}

fn bench_sa_mutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("phi1/sa_mutation");
    for &num_apps in &[16usize, 64] {
        let (batch, platform) = bench_instance(num_apps);
        let engine = Phi1Engine::build(&batch, &platform).unwrap();
        let table = engine.table(DEADLINE).unwrap();
        let probs = OptionProbs::from_engine(&engine, DEADLINE).unwrap();
        let options: Vec<Vec<Assignment>> =
            (0..engine.num_apps()).map(|a| engine.options(a)).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let genome: Vec<Assignment> = options.iter().map(|o| o[o.len() - 1]).collect();
        let moves: Vec<(usize, Assignment)> = (0..4_096)
            .map(|_| {
                let app = rng.gen_range(0..genome.len());
                (app, options[app][rng.gen_range(0..options[app].len())])
            })
            .collect();

        group.throughput(Throughput::Elements(moves.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("delta", num_apps),
            &num_apps,
            |bench, _| {
                bench.iter(|| {
                    let mut delta = DeltaFitness::new(&probs, &genome);
                    let mut acc = 0.0;
                    for &(app, asg) in &moves {
                        delta.set_gene(app, asg);
                        acc += delta.fitness();
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_recompute", num_apps),
            &num_apps,
            |bench, _| {
                bench.iter(|| {
                    let mut g = genome.clone();
                    let mut acc = 0.0;
                    for &(app, asg) in &moves {
                        g[app] = asg;
                        acc += full_fitness(&table, &g);
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cdf_lookup,
    bench_cdf_many,
    bench_engine_build,
    bench_table_sweep,
    bench_sa_mutation
);
criterion_main!(benches);
