//! Records the kernel performance snapshots (`BENCH_stage1.json` and
//! `BENCH_stage2.json`).
//!
//! The default (stage-1) suite runs the same kernel comparisons as the
//! `phi1_kernel` criterion suite (plus headline entries from
//! `pmf_ops`/`ra_search` territory); `--stage2` runs the Stage-II
//! hot-path suite mirroring `stage2_kernel` (prefix-table Timeline
//! queries vs. legacy linear walks, scratch-arena executor replicates,
//! replicate-parallel grid). Both use a self-contained median-of-samples
//! timer and write machine-normalized results — medians plus the derived
//! speedup ratios that the repo's perf trajectory tracks. Ratios, not
//! absolute nanoseconds, are the contract: they divide out the host's
//! clock so snapshots from different machines stay comparable.
//!
//! `--serve` switches to the service suite: it replays the canonical
//! loadgen stream (10k requests, 6 tenants, 2 shards) against an
//! in-process `cdsf-serve` instance and writes `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p cdsf-bench --bin bench_snapshot            # stage 1
//! cargo run --release -p cdsf-bench --bin bench_snapshot -- --stage2
//! cargo run --release -p cdsf-bench --bin bench_snapshot -- --serve
//! cargo run --release -p cdsf-bench --bin bench_snapshot -- --check
//! cargo run --release -p cdsf-bench --bin bench_snapshot -- --stage2 --check
//! cargo run --release -p cdsf-bench --bin bench_snapshot -- --serve --check
//! ```
//!
//! `--check` runs a reduced-iteration smoke pass (validating that every
//! kernel still executes — for `--serve`, a short error-free replay) and
//! then verifies the *committed* snapshot exists and is schema-valid,
//! without overwriting it — the CI guard.

use cdsf_bench::{
    bench_instance, catalog_app, full_fitness, legacy_cdf, legacy_finish_time, legacy_work_between,
    stage2_spec, thrash_instances, thrash_pass, thrash_working_set, warmed_timeline, THRASH_BUILDS,
};
use cdsf_core::simulation::simulate_grid;
use cdsf_core::SimParams;
use cdsf_dls::executor::{execute, execute_in, ExecutorConfig, ExecutorScratch};
use cdsf_dls::TechniqueKind;
use cdsf_pmf::discretize::{Discretize, Normal};
use cdsf_pmf::CombineScratch;
use cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY;
use cdsf_ra::{
    Allocation, Assignment, CellStore, DeltaFitness, EngineBuild, OptionProbs, Phi1Engine,
};
use cdsf_serve::loadgen::{run_local, LoadgenConfig, REPORT_SCHEMA_VERSION};
use cdsf_serve::ServeConfig;
use cdsf_system::parallel_time::{amdahl_rescale, loaded_time_pmf_in};
use cdsf_system::{Application, Batch, Platform, ProcTypeId};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
use cdsf_workloads::paper;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Current stage-1 snapshot schema. Bump when the JSON shape changes.
/// v2 added the `pmf_build` section (fused loaded-PMF kernel, incremental
/// engine rebuilds) and its derived ratios. v3 moved the engine-build
/// benches onto a pulse-rich instance that actually engages the
/// work-stealing pool (the apps32/pulses12 instance sat below the
/// serial-fallback work threshold, so "t4" silently measured the serial
/// path), redefined `engine_build_t4_vs_t1` as a *speedup* (`t1 / t4`,
/// bigger is better, matching `grid_thread4_speedup`), and added
/// `host_threads` to the instance block so the guard can be host-aware.
/// v4 added the `pool` section: per-worker `PoolStats` from one
/// instrumented 4-thread engine build, so the work-stealing pool's
/// balance (tasks per worker, chunks stolen, starvation) is visible in
/// the committed snapshot, not only in the serve `Stats` endpoint.
/// v5 added the `ra_lattice` section and the `lattice_vs_sa_speedup`
/// derived ratio: the exact lattice branch-and-bound vs the SA baseline
/// on the apps16 instance, with the solve's node/prune counters and an
/// exactness guard (`lattice_phi1 >= sa_phi1` on the recorded values;
/// `serde_json` round-trips `f64` exactly, so the comparison is
/// bit-faithful).
/// v6 added the `cell_store` section (content-addressed cell interning:
/// cold vs store-warm partial-overlap engine builds on a 24-app catalog,
/// with the store's hit/miss/verify counters and a `≥ 5×` warm-speedup
/// floor), the `gamma_robust_speedup_vs_v5` derived ratio pinning the
/// screened Γ-robust solver against the v5 snapshot's committed
/// `ra/gamma_robust_allocate/apps16` median, and
/// `tasks_seeded_per_worker` in the `pool` section — the deterministic
/// initial-seeding balance of the work-stealing pool, guarded so the
/// old everything-on-one-deque skew cannot regress back in.
/// v7 added the `ra/sa_allocate/serve_spec` row — default SA on the
/// default loadgen stream's first feasible `sa` spec, where the
/// lattice-proven ceiling stops the restart chains early — and the
/// proposal-step counts of both SA runs in the `ra_lattice` section
/// (`sa_steps`, and the `sa_serve` block guarded to stop short of its
/// full step count).
/// v8 redefined `pmf_build/rebuild_remap_1app32`: each timed call is a
/// real one-app-changed miss assembled against a cell store (the v7 loop
/// alternated two remnants on a capacity-8 engine LRU, so all but its
/// first two calls were LRU hits). The `remap` section records the
/// loop's kernel-built cells (guarded to be exactly the changed app's
/// cells per call) and store hits (guarded to be positive). Its
/// `lru_hits` field went with the engine LRU.
/// v9 added the `contended` block to `ra_lattice`: the 1-thread search
/// counters of a capacity-contended instance generated like the
/// benchmark's dual-stage pool, guarded to at most
/// [`CONTENDED_MAX_NODES`] nodes.
/// v10 added the thrash rows to `cell_store`: a fixed sequence of
/// churn-shaped specs built through a default-capacity store whose
/// working set is over twice its capacity, timed per build with and
/// without the store (`cell_store/thrash_build/*`), one pass's store
/// counters in the section's `thrash` block, and the derived
/// `cell_store_thrash_overhead`, guarded to at most
/// [`CELL_STORE_THRASH_OVERHEAD_MAX`].
/// v11 added the lattice at one and two workers over a prebuilt engine
/// on both sides of its serial-first budget:
/// `ra/lattice_allocate/apps24_d2000_t1` and `_t2`, a search of about a
/// thousand nodes, with the derived `lattice_split_overhead` (`t2 / t1`)
/// guarded to at most [`LATTICE_SPLIT_OVERHEAD_MAX`]; and
/// `ra/lattice_allocate/apps16_d7000_t1` and `_t2`, a search of
/// 322 670 nodes, with the derived `lattice_split_speedup` (`t1 / t2`)
/// guarded by [`lattice_split_speedup_floor`].
const SCHEMA_VERSION: u64 = 11;

/// Current stage-2 snapshot schema. Bump when the JSON shape changes.
/// v2 added the host-aware `grid_thread4_speedup` floor (≥ 3× on hosts
/// with ≥ 4 cores, no-regression bound elsewhere).
const STAGE2_SCHEMA_VERSION: u64 = 2;

/// Floors the ISSUE pins for the committed serve benchmark: the replay
/// must exercise real multi-tenant sharding, not a toy stream.
const SERVE_MIN_REQUESTS: u64 = 10_000;
const SERVE_MIN_TENANTS: u64 = 4;
const SERVE_MIN_SHARDS: u64 = 2;

/// Performance floors for the committed serve snapshot. The v2 stream
/// was pure cache/data-plane traffic, anchored to the lockstep v1
/// snapshot (8 484.86 req/s at p99 1 309 µs; the pipelined rewrite had
/// to clear 3× that throughput at half the p99). The v3 canonical
/// stream deliberately routes a 2% `policy_mix` of submits through the
/// explicit "sa"/"lattice" Stage-I solvers, which puts a few dozen
/// multi-start SA runs (~20 ms each, single-threaded) *inside* the
/// replay — so the floors re-anchor to the first v3 runs on a 1-core
/// host (4.6-5.7 k req/s, 65 SA runs) with margin for the solver-bound
/// run-to-run spread, and the
/// wide-host p99 ceiling moves to the solver tail: an SA cache miss
/// *is* the p99 path now. Narrow hosts (CI containers are routinely
/// 1-2 cores) keep a degraded throughput bound so a thin runner cannot
/// mask a real regression on a real host. Selected by the snapshot's
/// recorded `host_threads` — numbers are always measured, never
/// assumed.
const SERVE_THROUGHPUT_MIN_WIDE_HOST: f64 = 9_000.0;
const SERVE_P99_MAX_WIDE_US: u64 = 50_000;
const SERVE_THROUGHPUT_MIN_NARROW_HOST: f64 = 3_500.0;

/// Parallel-speedup floors for the 4-thread bench guards. A host with at
/// least 4 cores must show real scaling from the work-stealing pool; on
/// narrower hosts (CI containers are routinely 1-2 cores) a 4-thread run
/// *cannot* beat serial, so the guard degrades to a bound proving the
/// pool at least does not wreck single-core throughput. The floor is
/// selected by the `host_threads` recorded in the snapshot's instance
/// block — numbers are always measured, never assumed.
const PARALLEL_SPEEDUP_MIN_WIDE_HOST: f64 = 3.0;
const PARALLEL_SPEEDUP_MIN_NARROW_HOST: f64 = 0.7;

/// The 4-thread speedup floor for a host with `host_threads` cores.
fn parallel_speedup_floor(host_threads: u64) -> f64 {
    if host_threads >= 4 {
        PARALLEL_SPEEDUP_MIN_WIDE_HOST
    } else {
        PARALLEL_SPEEDUP_MIN_NARROW_HOST
    }
}

/// The Stage-II grid clamps its worker count to the host width (and runs
/// strictly inline at one worker), so on a narrow host the `threads4`
/// configuration executes the *identical* serial code as `threads1` —
/// the ratio must not dip below parity anymore (it measured 0.93 when
/// 4 workers oversubscribed 1 core). Wide hosts keep the scaling floor.
fn grid_speedup_floor(host_threads: u64) -> f64 {
    if host_threads >= 4 {
        PARALLEL_SPEEDUP_MIN_WIDE_HOST
    } else {
        1.0
    }
}

/// Floor for the exact-lattice vs SA headline ratio. Both sides are
/// single-threaded CPU-bound medians on the same host, so the ratio
/// divides out the clock and needs no host awareness.
const LATTICE_VS_SA_SPEEDUP_MIN: f64 = 10.0;

/// The v5 snapshot's committed `ra/gamma_robust_allocate/apps16` median
/// (full mode, the repo's canonical 1-core bench host). The suffix-DP
/// screen added with the v6 schema must keep the Γ-robust solve at
/// least [`GAMMA_ROBUST_SPEEDUP_MIN`]× faster than this anchor. The
/// comparison is absolute nanoseconds against a committed baseline, so
/// it only binds snapshots regenerated on the same host class — which
/// is exactly how the committed artifact is produced; the margin
/// (measured ~2.4-2.6×) absorbs normal clock spread.
const GAMMA_ROBUST_BASELINE_V5_NS: f64 = 525_892.3;
const GAMMA_ROBUST_SPEEDUP_MIN: f64 = 2.0;

/// Floor for the store-warm partial-overlap engine build vs the cold
/// kernel path on the 24-app catalog. Both sides are single-threaded
/// medians from the same run, so the ratio divides out the clock.
/// Measured ~7.4× on the canonical host (23 of 24 applications
/// resident); 5× leaves room for run-to-run spread while still failing
/// if store resolution stops short-circuiting the kernel.
const CELL_STORE_WARM_SPEEDUP_MIN: f64 = 5.0;

/// Ceiling for a store-attached build over a storeless one on the thrash
/// instance, where most inserts evict. Both sides are single-threaded
/// medians from the same run, so the ratio divides out the clock.
/// Eviction by a scan of the shard read 2.3–3.0×; by the lazy queue,
/// 1.1–1.4×.
const CELL_STORE_THRASH_OVERHEAD_MAX: f64 = 1.6;

/// Ceiling for the lattice at two workers over one worker on a search
/// short enough to finish inside the serial-first budget. Both sides are
/// medians of alternating samples from the same run, so the ratio
/// divides out the clock. Splitting every search read 37–38× on a
/// 2-vCPU host; the serial-first search, 1.01–1.03×.
const LATTICE_SPLIT_OVERHEAD_MAX: f64 = 1.5;

/// Deadline of the long lattice search on `bench_instance(16)`: 322 670
/// nodes at one worker, about five times the serial-first budget, so two
/// workers split it.
const SPLIT_DEADLINE: f64 = 7_000.0;

/// Floor for the lattice at one worker over two on the long search. On
/// a host with two or more cores the split must pay; a serial search at
/// both widths reads 1.0, and the split read 1.34–1.37× on a 2-vCPU
/// host. On one core the two workers share it, and the floor degrades
/// to the pool's narrow-host bound.
const LATTICE_SPLIT_SPEEDUP_MIN: f64 = 1.15;

/// The [`LATTICE_SPLIT_SPEEDUP_MIN`] floor for a host with `host_threads`
/// cores.
fn lattice_split_speedup_floor(host_threads: u64) -> f64 {
    if host_threads >= 2 {
        LATTICE_SPLIT_SPEEDUP_MIN
    } else {
        PARALLEL_SPEEDUP_MIN_NARROW_HOST
    }
}

const DEADLINE: f64 = 2_800.0;

/// Node ceiling of the 1-thread lattice search on the contended
/// instance ([`contended_instance`]). The search without per-type
/// tables and its positive-first phase visited 1 331 842 nodes, with
/// them 7 250; counts at one worker are deterministic, so the ceiling
/// binds on every host.
const CONTENDED_MAX_NODES: u64 = 20_000;

/// Seed and index of the contended instance in the dual-stage pool.
const CONTENDED_POOL: (u64, u64) = (42, 16);

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"))
}

/// Median wall-clock nanoseconds per call over `samples` samples of
/// `iters` calls each.
fn measure<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> f64 {
    let [ns] = measure_alternating(samples, iters, |_| f());
    ns
}

/// [`measure`] for `N` sides that take turns sample by sample, so host
/// drift moves them alike and their ratio divides it out. `f(side)` makes
/// one call of side `side`.
fn measure_alternating<const N: usize, F: FnMut(usize)>(
    samples: usize,
    iters: usize,
    mut f: F,
) -> [f64; N] {
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (side, t) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..iters {
                f(side);
            }
            t.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    })
}

/// `app` with every per-type execution PMF rescaled by `frac` (the shape a
/// remnant remap produces for a partially-finished application).
fn rescaled_app(app: &Application, frac: f64, num_types: usize) -> Application {
    let mut b = Application::builder(app.name())
        .serial_iters(app.serial_iters())
        .parallel_iters(app.parallel_iters());
    for j in 0..num_types {
        b = b.exec_time_pmf(app.exec_time(ProcTypeId(j)).unwrap().scale(frac).unwrap());
    }
    b.build().unwrap()
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
                if i == changed {
                    rescaled_app(app, frac, num_types)
                } else {
                    app.clone()
                }
            })
            .collect(),
    )
}

/// The remap benches on `batch`: `pmf_build/rebuild_remap_1app32` times
/// `calls_per_sample` × `samples` one-app-changed remaps assembled
/// against a cell store, each a real miss — the remnant's app 0 is
/// rescaled by a fraction no earlier call used, so app 0's cells were
/// never built, while the other apps' cells come from the store. The
/// remnants are made after the warm-up build, untimed, so their
/// unchanged PMFs carry cached digests as a serve tenant's stored batch
/// does. `rebuild_full_1app32` times a
/// storeless build of the same shape, each call right after a remap.
/// Returns the loop's counters for the `remap` section.
fn remap_benches(
    out: &mut Vec<BenchResult>,
    samples: usize,
    calls_per_sample: usize,
    batch: &Batch,
    platform: &Platform,
) -> Value {
    let num_types = platform.num_types();
    let store = CellStore::new(DEFAULT_CELL_CAPACITY);
    let opts = EngineBuild {
        store: Some(&store),
        ..EngineBuild::default()
    };
    Phi1Engine::build_with(batch, platform, &opts).unwrap();
    let calls = samples * calls_per_sample;
    // A rescale fraction per call, so no call's changed cells were ever
    // built before.
    let remnants: Vec<Batch> = (0..calls)
        .map(|n| single_app_remnant(batch, num_types, 0, 0.5 + n as f64 * 1e-6))
        .collect();
    let changed_app_cells: u64 = (0..num_types)
        .map(|j| platform.pow2_options(ProcTypeId(j)).unwrap().len() as u64)
        .sum();
    let store_before = store.stats();
    // The remap and the full rebuild alternate call by call, so a drift
    // in host speed, or the cache state one leaves the other, moves both
    // medians alike and their ratio holds.
    let (mut remap_ns, mut full_ns) = (Vec::new(), Vec::new());
    let mut next = remnants.iter();
    for _ in 0..samples {
        let (mut remap, mut full) = (0u128, 0u128);
        for k in 0..calls_per_sample {
            let remnant = next.next().expect("one remnant per call");
            let t0 = Instant::now();
            black_box(Phi1Engine::build_with(remnant, platform, &opts).unwrap());
            remap += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            black_box(Phi1Engine::build_parallel(&remnants[k % 2], platform, 1).unwrap());
            full += t0.elapsed().as_nanos();
        }
        remap_ns.push(remap as f64 / calls_per_sample as f64);
        full_ns.push(full as f64 / calls_per_sample as f64);
    }
    let store_after = store.stats();
    let section = json!({
        "calls": calls,
        "kernel_cells": store_after.misses - store_before.misses,
        "store_hits": store_after.hits - store_before.hits,
        "changed_app_cells": changed_app_cells,
    });
    for (name, mut ns) in [
        ("pmf_build/rebuild_remap_1app32", remap_ns),
        ("pmf_build/rebuild_full_1app32", full_ns),
    ] {
        ns.sort_by(f64::total_cmp);
        let median_ns = ns[ns.len() / 2];
        push(
            out,
            BenchResult {
                name,
                median_ns,
                per_unit: "rebuild",
            },
        );
    }
    section
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

/// A pulse-rich instance for the PMF-construction benches: 384 execution
/// pulses against the usual 3 availability pulses, the regime where the
/// legacy two-step chain's comparison sort and intermediate PMF dominate.
fn rich_instance() -> (Batch, Platform) {
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
        pulses: 384,
    }
    .generate(&platform, 12)
    .unwrap();
    (batch, platform)
}

/// Catalog apps shared by the two cell-store batches.
const CATALOG_APPS: usize = 24;
/// The one application `catalog_instance`'s second batch replaces.
const CATALOG_SWAP_INDEX: usize = 11;
const CATALOG_SWAP_SEED: u64 = 777;

/// The cell-store bench instance: two 24-app batches on the pulse-rich
/// platform sharing 23 applications (`next` swaps one mid-batch app for
/// a fresh seed). Building `prev` against a store and then timing the
/// `next` build measures the steady-state cross-tenant case: every
/// shared cell resolves from the store, only the swapped app pays the
/// kernel.
fn catalog_instance() -> (Platform, Batch, Batch) {
    let platform = PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(11)
    .unwrap();
    let apps: Vec<Application> = (0..CATALOG_APPS)
        .map(|i| catalog_app(&platform, 100 + i as u64))
        .collect();
    let prev = Batch::new(apps.clone());
    let mut next_apps = apps;
    next_apps[CATALOG_SWAP_INDEX] = catalog_app(&platform, CATALOG_SWAP_SEED);
    let next = Batch::new(next_apps);
    (platform, prev, next)
}

struct BenchResult {
    name: &'static str,
    median_ns: f64,
    per_unit: &'static str,
}

fn push(out: &mut Vec<BenchResult>, r: BenchResult) {
    eprintln!("  {:<42} {:>12.1} ns/{}", r.name, r.median_ns, r.per_unit);
    out.push(r);
}

/// Runs the stage-1 suite; returns its results and the remap loop's
/// counters.
fn run_suite(samples: usize, scale: usize) -> (Vec<BenchResult>, Value) {
    let mut out = Vec::new();

    // --- pmf_ops territory: single-CDF lookup, prefix vs re-sum ---------
    let pmf = Normal::new(1_000.0, 100.0).unwrap().equiprobable(1024);
    push(
        &mut out,
        BenchResult {
            name: "pmf/cdf/prefix_1024",
            median_ns: measure(samples, 2_000 * scale, || {
                black_box(pmf.cdf(black_box(1_050.0)));
            }),
            per_unit: "lookup",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "pmf/cdf/legacy_scan_1024",
            median_ns: measure(samples, 500 * scale, || {
                black_box(legacy_cdf(&pmf, black_box(1_050.0)));
            }),
            per_unit: "lookup",
        },
    );

    // --- batched deadline sweep ------------------------------------------
    let sweep: Vec<f64> = (0..256).map(|i| 600.0 + 3.2 * i as f64).collect();
    push(
        &mut out,
        BenchResult {
            name: "pmf/cdf_many/batched_256",
            median_ns: measure(samples, 50 * scale, || {
                black_box(pmf.cdf_many(black_box(&sweep)));
            }),
            per_unit: "sweep",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "pmf/cdf_many/pointwise_256",
            median_ns: measure(samples, 50 * scale, || {
                let v: Vec<f64> = sweep.iter().map(|&x| pmf.cdf(x)).collect();
                black_box(v);
            }),
            per_unit: "sweep",
        },
    );

    // --- engine build (the reactive-remap latency path) -------------------
    // The threaded builds run on the pulse-rich instance: its estimated
    // kernel work clears the engine's serial-fallback threshold, so "t4"
    // measures the work-stealing pool, not the serial fallback (which is
    // what the old apps32/pulses12 instance silently measured).
    let (batch, platform) = bench_instance(32);
    let (rich_batch, rich_platform) = rich_instance();
    push(
        &mut out,
        BenchResult {
            name: "phi1/engine_build/t1_p384",
            median_ns: measure(samples, scale.max(1), || {
                black_box(Phi1Engine::build(&rich_batch, &rich_platform).unwrap());
            }),
            per_unit: "build",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "phi1/engine_build/t4_p384",
            median_ns: measure(samples, scale.max(1), || {
                black_box(Phi1Engine::build_parallel(&rich_batch, &rich_platform, 4).unwrap());
            }),
            per_unit: "build",
        },
    );

    // --- pmf_build: fused loaded-PMF kernel vs two-step reference ---------
    // Every (app, type, power-of-two count) cell of a pulse-rich grid
    // (the regime where the avoided re-sort and intermediate PMF dominate),
    // built once per iteration: fused single-pass scale→quotient with a
    // reused scratch arena vs the legacy amdahl_rescale + quotient chain.
    let cells = engine_cells(&rich_batch, &rich_platform);
    let n_cells = cells.len() as f64;
    let rich_apps = rich_batch.apps();
    push(
        &mut out,
        BenchResult {
            name: "pmf_build/loaded_fused_p384",
            median_ns: measure(samples, 2 * scale, || {
                let mut scratch = CombineScratch::new();
                for &(i, j, n) in &cells {
                    black_box(
                        loaded_time_pmf_in(&rich_apps[i], &rich_platform, j, n, &mut scratch)
                            .unwrap(),
                    );
                }
            }) / n_cells,
            per_unit: "cell",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "pmf_build/loaded_two_step_p384",
            median_ns: measure(samples, 2 * scale, || {
                for &(i, j, n) in &cells {
                    let app = &rich_apps[i];
                    let avail = rich_platform.proc_type(j).unwrap().availability();
                    let parallel =
                        amdahl_rescale(app.exec_time(j).unwrap(), app.serial_fraction(), n)
                            .unwrap();
                    black_box(parallel.quotient(avail).unwrap());
                }
            }) / n_cells,
            per_unit: "cell",
        },
    );

    let remap = remap_benches(&mut out, samples, 2 * scale, &batch, &platform);

    // --- probability-table derivation: SoA pass vs legacy nested scan -----
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let deadlines: Vec<f64> = (0..32).map(|i| 1_200.0 + 100.0 * i as f64).collect();
    push(
        &mut out,
        BenchResult {
            name: "phi1/table_sweep/soa_32d",
            median_ns: measure(samples, 5 * scale, || {
                for &d in &deadlines {
                    black_box(engine.table(d).unwrap());
                }
            }),
            per_unit: "sweep",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "phi1/table_sweep/legacy_32d",
            median_ns: measure(samples, 5 * scale, || {
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
            }),
            per_unit: "sweep",
        },
    );

    // --- SA mutation-evaluation throughput --------------------------------
    let (big_batch, big_platform) = bench_instance(64);
    let big_engine = Phi1Engine::build(&big_batch, &big_platform).unwrap();
    let table = big_engine.table(DEADLINE).unwrap();
    let probs = OptionProbs::from_engine(&big_engine, DEADLINE).unwrap();
    let options: Vec<Vec<Assignment>> = (0..big_engine.num_apps())
        .map(|a| big_engine.options(a))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let genome: Vec<Assignment> = options.iter().map(|o| o[o.len() - 1]).collect();
    let moves: Vec<(usize, Assignment)> = (0..4_096)
        .map(|_| {
            let app = rng.gen_range(0..genome.len());
            (app, options[app][rng.gen_range(0..options[app].len())])
        })
        .collect();
    let n_moves = moves.len() as f64;
    push(
        &mut out,
        BenchResult {
            name: "phi1/sa_mutation/delta_apps64",
            median_ns: measure(samples, scale.max(1), || {
                let mut delta = DeltaFitness::new(&probs, &genome);
                let mut acc = 0.0;
                for &(app, asg) in &moves {
                    delta.set_gene(app, asg);
                    acc += delta.fitness();
                }
                black_box(acc);
            }) / n_moves,
            per_unit: "mutation_eval",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "phi1/sa_mutation/full_recompute_apps64",
            median_ns: measure(samples, scale.max(1), || {
                let mut g = genome.clone();
                let mut acc = 0.0;
                for &(app, asg) in &moves {
                    g[app] = asg;
                    acc += full_fitness(&table, &g);
                }
                black_box(acc);
            }) / n_moves,
            per_unit: "mutation_eval",
        },
    );

    // --- ra_search territory: one full SA allocation ----------------------
    // 16 apps: comfortably within the seed-11 platform's 31 processors, so
    // the instance is feasible and `Landscape::repair` terminates.
    let (sa_batch, sa_platform) = bench_instance(16);
    let sa = cdsf_ra::allocators::SimulatedAnnealing {
        iterations: 2_000 * scale,
        seed: 3,
        threads: 1,
        restarts: 1,
        ..Default::default()
    };
    use cdsf_ra::Allocator;
    push(
        &mut out,
        BenchResult {
            name: "ra/sa_allocate/apps16",
            median_ns: measure(samples, 1, || {
                black_box(sa.allocate(&sa_batch, &sa_platform, DEADLINE).unwrap());
            }),
            per_unit: "allocation",
        },
    );

    // Default SA on a serve-sized spec against a prebuilt engine, as a
    // shard runs it. The ceiling engages here: the lattice proves the
    // optimum and every chain stops once it reaches it. On apps16 above
    // SA never reaches the proven optimum and runs every step.
    let serve = serve_sa_instance();
    let serve_sa = cdsf_ra::allocators::SimulatedAnnealing {
        threads: 1,
        ..Default::default()
    };
    push(
        &mut out,
        BenchResult {
            name: "ra/sa_allocate/serve_spec",
            median_ns: measure(samples, 20 * scale, || {
                black_box(
                    serve_sa
                        .allocate_multi_start(&serve.platform, &serve.engine, serve.deadline)
                        .unwrap(),
                );
            }),
            per_unit: "allocation",
        },
    );

    // --- exact lattice branch-and-bound on the same instance --------------
    // Warm path (engine + scratch reused) is what a serve shard's repeated
    // allocations against a cached engine actually pay; it is the
    // numerator host of `lattice_vs_sa_speedup`.
    let sa_engine = Phi1Engine::build(&sa_batch, &sa_platform).unwrap();
    let lattice = cdsf_ra::Lattice::new(1).unwrap();
    let mut lattice_scratch = cdsf_ra::LatticeScratch::new();
    push(
        &mut out,
        BenchResult {
            name: "ra/lattice_allocate/apps16",
            median_ns: measure(samples, 20 * scale, || {
                black_box(
                    lattice
                        .solve_with_engine(&sa_platform, &sa_engine, DEADLINE, &mut lattice_scratch)
                        .unwrap(),
                );
            }),
            per_unit: "allocation",
        },
    );
    // The same solver at one and two workers on both sides of its
    // serial-first budget: a short search, as the serve's `lattice`
    // policy runs it at the shard's build width, and a search long
    // enough that the root split pays.
    let (short_batch, short_platform) = bench_instance(24);
    let short_engine = Phi1Engine::build(&short_batch, &short_platform).unwrap();
    let workers = [1, 2].map(|threads| cdsf_ra::Lattice::new(threads).unwrap());
    let [short_t1, short_t2] = measure_alternating(samples, 20 * scale, |side| {
        black_box(
            workers[side]
                .allocate_with_engine(&short_batch, &short_platform, &short_engine, 2_000.0)
                .unwrap(),
        );
    });
    let [long_t1, long_t2] = measure_alternating(samples, scale.max(1), |side| {
        black_box(
            workers[side]
                .allocate_with_engine(&sa_batch, &sa_platform, &sa_engine, SPLIT_DEADLINE)
                .unwrap(),
        );
    });
    for (name, median_ns) in [
        ("ra/lattice_allocate/apps24_d2000_t1", short_t1),
        ("ra/lattice_allocate/apps24_d2000_t2", short_t2),
        ("ra/lattice_allocate/apps16_d7000_t1", long_t1),
        ("ra/lattice_allocate/apps16_d7000_t2", long_t2),
    ] {
        push(
            &mut out,
            BenchResult {
                name,
                median_ns,
                per_unit: "allocation",
            },
        );
    }
    let robust = cdsf_ra::GammaRobust {
        threads: 1,
        ..Default::default()
    };
    push(
        &mut out,
        BenchResult {
            name: "ra/gamma_robust_allocate/apps16",
            median_ns: measure(samples, 20 * scale, || {
                black_box(
                    robust
                        .solve_with_engine(&sa_platform, &sa_engine, DEADLINE, &mut lattice_scratch)
                        .unwrap(),
                );
            }),
            per_unit: "allocation",
        },
    );

    // --- content-addressed cell store: cold vs store-warm builds ----------
    // Cold is the plain kernel path on the catalog's second batch. Warm
    // uses a *fresh store per sample*: the first batch is built into it
    // untimed, then a single build of the overlapping batch is timed —
    // one measurement per sample, because any further build against the
    // same store would be full-overlap warm, not the partial-overlap
    // case the ratio tracks.
    let (cat_platform, cat_prev, cat_next) = catalog_instance();
    push(
        &mut out,
        BenchResult {
            name: "cell_store/engine_build_cold/catalog24_p384",
            median_ns: measure(samples, scale.max(1), || {
                black_box(Phi1Engine::build_parallel(&cat_next, &cat_platform, 1).unwrap());
            }),
            per_unit: "build",
        },
    );
    let mut warm_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let store = CellStore::new(DEFAULT_CELL_CAPACITY);
        let opts = EngineBuild {
            store: Some(&store),
            ..EngineBuild::default()
        };
        Phi1Engine::build_with(&cat_prev, &cat_platform, &opts).unwrap();
        let t0 = Instant::now();
        black_box(Phi1Engine::build_with(&cat_next, &cat_platform, &opts).unwrap());
        warm_ns.push(t0.elapsed().as_nanos() as f64);
    }
    warm_ns.sort_by(f64::total_cmp);
    push(
        &mut out,
        BenchResult {
            name: "cell_store/engine_build_warm_partial/catalog24_p384",
            median_ns: warm_ns[warm_ns.len() / 2],
            per_unit: "build",
        },
    );
    // Thrash: the store is filled by one untimed pass, so every timed
    // store-attached pass evicts on most inserts. The two sides alternate
    // per sample and report the mean build of a pass.
    let thrash = thrash_instances();
    let store = CellStore::new(DEFAULT_CELL_CAPACITY);
    thrash_pass(&thrash, Some(&store));
    let (mut storeless_ns, mut attached_ns) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        for (times, store) in [(&mut storeless_ns, None), (&mut attached_ns, Some(&store))] {
            let t0 = Instant::now();
            thrash_pass(&thrash, store);
            times.push(t0.elapsed().as_nanos() as f64 / THRASH_BUILDS as f64);
        }
    }
    for (name, mut times) in [
        ("cell_store/thrash_build/storeless_churn3000", storeless_ns),
        ("cell_store/thrash_build/store_churn3000", attached_ns),
    ] {
        times.sort_by(f64::total_cmp);
        push(
            &mut out,
            BenchResult {
                name,
                median_ns: times[times.len() / 2],
                per_unit: "build",
            },
        );
    }

    (out, remap)
}

/// The default loadgen stream's first submit naming `sa` whose optimum
/// meets the deadline with positive probability (on the earlier ones
/// the ceiling is 0 and no chain takes a step): its spec, deadline,
/// platform and engine.
struct ServeSaInstance {
    spec: cdsf_serve::WorkloadSpec,
    deadline: f64,
    platform: Platform,
    engine: Phi1Engine,
}

fn serve_sa_instance() -> ServeSaInstance {
    let stream = LoadgenConfig::default()
        .stream()
        .expect("the default loadgen stream generates");
    let lattice = cdsf_ra::Lattice::new(1).unwrap();
    let mut scratch = cdsf_ra::LatticeScratch::new();
    stream
        .into_iter()
        .filter_map(|r| match r {
            cdsf_serve::Request::Submit(s) if s.allocator.as_deref() == Some("sa") => Some(s),
            _ => None,
        })
        .find_map(|submit| {
            let (batch, platform) = submit.spec.expand().expect("serve specs expand");
            let engine = Phi1Engine::build(&batch, &platform).expect("serve engine builds");
            let (solution, _) = lattice
                .solve_with_engine(&platform, &engine, submit.deadline, &mut scratch)
                .expect("serve specs allocate");
            matches!(solution, cdsf_ra::LatticeSolution::Optimal { .. }).then(|| ServeSaInstance {
                spec: submit.spec,
                deadline: submit.deadline,
                platform,
                engine,
            })
        })
        .expect("the default stream names `sa` on a feasible spec")
}

/// Instance 16 of the benchmark's dual-stage pool (seed 42): 8
/// applications with 16-pulse PMFs on 4 types of 8–16 processors, at
/// Δ = 4 000. App 0's only option with a positive deadline probability
/// needs 8 of type 2's 13 processors, so it fits beside no other
/// application taking 8 there — a fullness the lattice's total-budget
/// bound cannot see.
fn contended_instance() -> (Batch, Platform, f64) {
    let (seed, index) = CONTENDED_POOL;
    let mix = |a: u64| {
        let mut z = seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let platform = PlatformGenerator {
        num_types: 4,
        procs_per_type: (8, 16),
        ..PlatformGenerator::default()
    }
    .generate(mix(3 * index))
    .expect("pool platforms generate");
    let batch = BatchGenerator {
        num_apps: 8,
        pulses: 16,
        ..BatchGenerator::default()
    }
    .generate(&platform, mix(3 * index + 1))
    .expect("pool batches generate");
    (batch, platform, 4_000.0)
}

fn counters_json(c: &cdsf_ra::allocators::LatticeCounters) -> Value {
    json!({
        "nodes": c.nodes,
        "screen_pruned": c.screen_pruned,
        "confirm_pruned": c.confirm_pruned,
        "capacity_pruned": c.capacity_pruned,
        "leaves": c.leaves,
    })
}

/// One exact solve and one SA run on the apps16 instance, reported as a
/// JSON block: the optima's φ1 values (the exactness guard compares
/// them) and the search's node/prune counters at one worker, where the
/// counts are deterministic. `sa_iterations` matches the timed
/// `ra/sa_allocate/apps16` bench so the φ1 comparison describes the
/// exact runs the speedup ratio is built from. `sa_steps` and the
/// `sa_serve` block record how many proposal steps the two timed SA runs
/// take: all of them on apps16, a fraction on the serve spec. The
/// `contended` block holds the 1-thread counters of [`contended_instance`].
fn ra_lattice_section(scale: usize) -> Value {
    use cdsf_ra::robustness::evaluate;

    let (batch, platform) = bench_instance(16);
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let lattice = cdsf_ra::Lattice::new(1).unwrap();
    let mut scratch = cdsf_ra::LatticeScratch::new();
    let (solution, report) = lattice
        .solve_with_engine(&platform, &engine, DEADLINE, &mut scratch)
        .expect("lattice solve must succeed on the bench instance");
    let sa = cdsf_ra::allocators::SimulatedAnnealing {
        iterations: 2_000 * scale,
        seed: 3,
        threads: 1,
        restarts: 1,
        ..Default::default()
    };
    let (sa_alloc, sa_report) = sa
        .allocate_multi_start(&platform, &engine, DEADLINE)
        .expect("SA must allocate on the bench instance");
    let sa_phi1 = evaluate(&batch, &platform, &sa_alloc, DEADLINE)
        .expect("SA allocation must evaluate")
        .joint;
    let serve = serve_sa_instance();
    let serve_sa = cdsf_ra::allocators::SimulatedAnnealing {
        threads: 1,
        ..Default::default()
    };
    let (_, serve_report) = serve_sa
        .allocate_multi_start(&serve.platform, &serve.engine, serve.deadline)
        .expect("SA must allocate on the serve spec");
    let (c_batch, c_platform, c_deadline) = contended_instance();
    let c_engine = Phi1Engine::build(&c_batch, &c_platform).unwrap();
    let (_, c_report) = lattice
        .solve_with_engine(&c_platform, &c_engine, c_deadline, &mut scratch)
        .expect("lattice solve must succeed on the contended instance");
    json!({
        "apps": 16,
        "deadline": DEADLINE,
        "threads": 1,
        "sa_iterations": 2_000 * scale,
        "sa_steps": sa_report.steps,
        "feasible": matches!(solution, cdsf_ra::LatticeSolution::Optimal { .. }),
        "lattice_phi1": report.phi1,
        "sa_phi1": sa_phi1,
        "counters": counters_json(&report.counters),
        "contended": json!({
            "pool_seed": CONTENDED_POOL.0,
            "pool_index": CONTENDED_POOL.1,
            "apps": c_batch.len(),
            "types": c_platform.num_types(),
            "deadline": c_deadline,
            "threads": 1,
            "phi1": c_report.phi1,
            "counters": counters_json(&c_report.counters),
        }),
        "sa_serve": json!({
            "spec": serve.spec,
            "deadline": serve.deadline,
            "full_steps": serve_sa.restarts * serve_sa.iterations,
            "steps": serve_report.steps,
        }),
    })
}

// --- Stage-II suite ------------------------------------------------------

const STAGE2_SEGMENTS: usize = 10_000;
const STAGE2_REPLICATES: u64 = 25;

fn run_stage2_suite(samples: usize, scale: usize) -> Vec<BenchResult> {
    let mut out = Vec::new();

    // --- Timeline queries: prefix kernels vs legacy linear walks ----------
    let (mut tl, queries) = warmed_timeline(STAGE2_SEGMENTS as f64 * 5.0);
    let mut rng = StdRng::seed_from_u64(1);
    let n_q = queries.len() as f64;
    push(
        &mut out,
        BenchResult {
            name: "timeline/finish_time/prefix_10k",
            median_ns: measure(samples, 200 * scale, || {
                let mut acc = 0.0;
                for &(start, work) in &queries {
                    acc += tl.finish_time(black_box(start), black_box(work), &mut rng);
                }
                black_box(acc);
            }) / n_q,
            per_unit: "lookup",
        },
    );
    let (starts, levels, _) = tl.segments();
    let (starts, levels) = (starts.to_vec(), levels.to_vec());
    push(
        &mut out,
        BenchResult {
            name: "timeline/finish_time/legacy_walk_10k",
            median_ns: measure(samples, 2 * scale, || {
                let mut acc = 0.0;
                for &(start, work) in &queries {
                    acc += legacy_finish_time(&starts, &levels, black_box(start), work);
                }
                black_box(acc);
            }) / n_q,
            per_unit: "lookup",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "timeline/work_between/prefix_10k",
            median_ns: measure(samples, 200 * scale, || {
                let mut acc = 0.0;
                for &(t0, span) in &queries {
                    acc += tl.work_between(black_box(t0), black_box(t0 + span), &mut rng);
                }
                black_box(acc);
            }) / n_q,
            per_unit: "lookup",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "timeline/work_between/legacy_scan_10k",
            median_ns: measure(samples, 2 * scale, || {
                let mut acc = 0.0;
                for &(t0, span) in &queries {
                    acc += legacy_work_between(&starts, &levels, black_box(t0), t0 + span);
                }
                black_box(acc);
            }) / n_q,
            per_unit: "lookup",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "timeline/mean_avail/prefix_10k",
            median_ns: measure(samples, 200 * scale, || {
                let mut acc = 0.0;
                for &(t, _) in &queries {
                    acc += tl.mean_availability_until(black_box(t.max(1.0)), &mut rng);
                }
                black_box(acc);
            }) / n_q,
            per_unit: "lookup",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "timeline/mean_avail/legacy_scan_10k",
            median_ns: measure(samples, 2 * scale, || {
                let mut acc = 0.0;
                for &(t, _) in &queries {
                    let t = t.max(1.0);
                    acc += legacy_work_between(&starts, &levels, 0.0, black_box(t)) / t;
                }
                black_box(acc);
            }) / n_q,
            per_unit: "lookup",
        },
    );

    // --- executor replicates: scratch arena vs fresh allocation -----------
    let cfg = ExecutorConfig::builder()
        .workers(12)
        .parallel_iters(2_048)
        .iter_time_mean_sigma(1.0, 0.1)
        .unwrap()
        .availability(stage2_spec())
        .overhead(0.01)
        .build()
        .unwrap();
    push(
        &mut out,
        BenchResult {
            name: "executor/replicates25/scratch_arena",
            median_ns: measure(samples, scale.max(1), || {
                let mut scratch = ExecutorScratch::new();
                let mut acc = 0.0;
                for r in 0..STAGE2_REPLICATES {
                    let mut rng = StdRng::seed_from_u64(100 + r);
                    acc += execute_in(&TechniqueKind::Fac, &cfg, &mut scratch, &mut rng)
                        .unwrap()
                        .makespan;
                }
                black_box(acc);
            }) / STAGE2_REPLICATES as f64,
            per_unit: "replicate",
        },
    );
    push(
        &mut out,
        BenchResult {
            name: "executor/replicates25/fresh_alloc",
            median_ns: measure(samples, scale.max(1), || {
                let mut acc = 0.0;
                for r in 0..STAGE2_REPLICATES {
                    let mut rng = StdRng::seed_from_u64(100 + r);
                    acc += execute(&TechniqueKind::Fac, &cfg, &mut rng)
                        .unwrap()
                        .makespan;
                }
                black_box(acc);
            }) / STAGE2_REPLICATES as f64,
            per_unit: "replicate",
        },
    );

    // --- replicate-parallel grid wall-clock --------------------------------
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
    for (name, threads) in [
        ("grid/replicates25/threads1", 1usize),
        ("grid/replicates25/threads4", 4),
    ] {
        let params = SimParams {
            replicates: STAGE2_REPLICATES as usize,
            threads,
            ..Default::default()
        };
        push(
            &mut out,
            BenchResult {
                name,
                median_ns: measure(samples, scale.max(1), || {
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
                    );
                }),
                per_unit: "grid",
            },
        );
    }

    out
}

/// One instrumented 4-thread build of the pulse-rich instance, reported
/// as a JSON block: the work-stealing pool's per-worker task/steal
/// balance for the exact build that the `t4_p384` bench times. Numbers
/// are measured on this host, never assumed — on a narrow host the
/// engine may clamp the worker count, and the guard only requires that
/// no worker starved.
fn pool_section() -> Value {
    let (batch, platform) = rich_instance();
    let opts = EngineBuild {
        threads: 4,
        ..EngineBuild::default()
    };
    let (_, stats) = Phi1Engine::build_with(&batch, &platform, &opts)
        .expect("instrumented engine build must succeed on the bench instance");
    json!({
        "build_threads": 4,
        "workers": stats.workers,
        "tasks_total": stats.total_tasks(),
        "chunks_stolen_total": stats.total_steals(),
        "tasks_per_worker": stats.tasks_run,
        "tasks_seeded_per_worker": stats.tasks_seeded,
        "chunks_stolen_per_worker": stats.chunks_stolen,
        "no_worker_starved": stats.no_worker_starved(),
    })
}

/// One prev→next catalog build pair against a fresh store, reported as a
/// JSON block: the store's counters for the exact sequence the
/// `cell_store/*` benches time, plus a bit-identity cross-check — the
/// store-resolved engine must fingerprint identically to a storeless
/// build of the same batch (the equivalence suites prove this per-cell;
/// the committed artifact records it held for the benched instance too).
fn cell_store_section() -> Value {
    let (platform, prev, next) = catalog_instance();
    let store = CellStore::new(DEFAULT_CELL_CAPACITY);
    let opts = EngineBuild {
        store: Some(&store),
        ..EngineBuild::default()
    };
    Phi1Engine::build_with(&prev, &platform, &opts).expect("catalog prev build must succeed");
    let (warm, _) =
        Phi1Engine::build_with(&next, &platform, &opts).expect("catalog next build must succeed");
    let cold =
        Phi1Engine::build_parallel(&next, &platform, 1).expect("catalog cold build must succeed");
    let stats = store.stats();
    let thrash_store = CellStore::new(DEFAULT_CELL_CAPACITY);
    thrash_pass(&thrash_instances(), Some(&thrash_store));
    let thrash_stats = thrash_store.stats();
    json!({
        "catalog_apps": CATALOG_APPS,
        "shared_apps": CATALOG_APPS - 1,
        "exec_pulses": 384,
        "build_threads": 1,
        "hits": stats.hits,
        "misses": stats.misses,
        "verify_rejects": stats.verify_rejects,
        "insertions": stats.insertions,
        "evictions": stats.evictions,
        "resident": stats.resident,
        "capacity": stats.capacity,
        "hit_rate": stats.hit_rate(),
        "fingerprint_match": warm.table_fingerprint() == cold.table_fingerprint(),
        "thrash": json!({
            "builds": THRASH_BUILDS,
            "working_set_cells": thrash_working_set(),
            "hits": thrash_stats.hits,
            "misses": thrash_stats.misses,
            "insertions": thrash_stats.insertions,
            "evictions": thrash_stats.evictions,
            "resident": thrash_stats.resident,
            "capacity": thrash_stats.capacity,
        }),
    })
}

fn median_of(results: &[BenchResult], name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("missing bench {name}"))
        .median_ns
}

fn to_json(results: &[BenchResult], remap_loop: Value, mode: &str, scale: usize) -> Value {
    let delta = median_of(results, "phi1/sa_mutation/delta_apps64");
    let full = median_of(results, "phi1/sa_mutation/full_recompute_apps64");
    let soa = median_of(results, "phi1/table_sweep/soa_32d");
    let legacy_table = median_of(results, "phi1/table_sweep/legacy_32d");
    let prefix = median_of(results, "pmf/cdf/prefix_1024");
    let scan = median_of(results, "pmf/cdf/legacy_scan_1024");
    let fused = median_of(results, "pmf_build/loaded_fused_p384");
    let two_step = median_of(results, "pmf_build/loaded_two_step_p384");
    let t1 = median_of(results, "phi1/engine_build/t1_p384");
    let t4 = median_of(results, "phi1/engine_build/t4_p384");
    let remap = median_of(results, "pmf_build/rebuild_remap_1app32");
    let full_rebuild = median_of(results, "pmf_build/rebuild_full_1app32");
    let sa_alloc = median_of(results, "ra/sa_allocate/apps16");
    let lattice_alloc = median_of(results, "ra/lattice_allocate/apps16");
    let gamma_alloc = median_of(results, "ra/gamma_robust_allocate/apps16");
    let split_t1 = median_of(results, "ra/lattice_allocate/apps24_d2000_t1");
    let split_t2 = median_of(results, "ra/lattice_allocate/apps24_d2000_t2");
    let long_t1 = median_of(results, "ra/lattice_allocate/apps16_d7000_t1");
    let long_t2 = median_of(results, "ra/lattice_allocate/apps16_d7000_t2");
    let store_cold = median_of(results, "cell_store/engine_build_cold/catalog24_p384");
    let store_warm = median_of(
        results,
        "cell_store/engine_build_warm_partial/catalog24_p384",
    );
    let thrash_storeless = median_of(results, "cell_store/thrash_build/storeless_churn3000");
    let thrash_attached = median_of(results, "cell_store/thrash_build/store_churn3000");
    json!({
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "instance": json!({
            "sa_mutation_apps": 64,
            "sa_allocate_apps": 16,
            "table_sweep_apps": 32,
            "table_sweep_deadlines": 32,
            "pmf_build_apps": 8,
            "pmf_build_exec_pulses": 384,
            "pmf_build_avail_pulses": 3,
            "rebuild_apps": 32,
            "rebuild_changed_apps": 1,
            "engine_build_apps": 8,
            "engine_build_exec_pulses": 384,
            "deadline": DEADLINE,
            "host_threads": cdsf_core::default_threads(),
        }),
        "benches": results.iter().map(|r| json!({
            "name": r.name,
            "median_ns": r.median_ns,
            "per": r.per_unit,
        })).collect::<Vec<_>>(),
        "pool": pool_section(),
        "ra_lattice": ra_lattice_section(scale),
        "cell_store": cell_store_section(),
        "remap": remap_loop,
        "derived": json!({
            "sa_mutation_speedup": full / delta,
            "table_sweep_speedup": legacy_table / soa,
            "cdf_lookup_speedup": scan / prefix,
            "candidate_evals_per_sec": 1e9 / delta,
            "pmf_build_fused_speedup": two_step / fused,
            "engine_build_t4_vs_t1": t1 / t4,
            "remap_rebuild_speedup": full_rebuild / remap,
            "lattice_vs_sa_speedup": sa_alloc / lattice_alloc,
            "lattice_split_overhead": split_t2 / split_t1,
            "lattice_split_speedup": long_t1 / long_t2,
            "gamma_robust_speedup_vs_v5": GAMMA_ROBUST_BASELINE_V5_NS / gamma_alloc,
            "cell_store_warm_speedup": store_cold / store_warm,
            "cell_store_thrash_overhead": thrash_attached / thrash_storeless,
        }),
    })
}

fn to_stage2_json(results: &[BenchResult], mode: &str) -> Value {
    let ft_prefix = median_of(results, "timeline/finish_time/prefix_10k");
    let ft_legacy = median_of(results, "timeline/finish_time/legacy_walk_10k");
    let wb_prefix = median_of(results, "timeline/work_between/prefix_10k");
    let wb_legacy = median_of(results, "timeline/work_between/legacy_scan_10k");
    let ma_prefix = median_of(results, "timeline/mean_avail/prefix_10k");
    let ma_legacy = median_of(results, "timeline/mean_avail/legacy_scan_10k");
    let scratch = median_of(results, "executor/replicates25/scratch_arena");
    let fresh = median_of(results, "executor/replicates25/fresh_alloc");
    let grid1 = median_of(results, "grid/replicates25/threads1");
    let grid4 = median_of(results, "grid/replicates25/threads4");
    json!({
        "schema_version": STAGE2_SCHEMA_VERSION,
        "mode": mode,
        "instance": json!({
            "timeline_segments": STAGE2_SEGMENTS,
            "replicates": STAGE2_REPLICATES,
            "executor_workers": 12,
            "executor_parallel_iters": 2_048,
            "grid_cells": 6,
            "host_threads": cdsf_core::default_threads(),
        }),
        "benches": results.iter().map(|r| json!({
            "name": r.name,
            "median_ns": r.median_ns,
            "per": r.per_unit,
        })).collect::<Vec<_>>(),
        "derived": json!({
            "finish_time_speedup": ft_legacy / ft_prefix,
            "work_between_speedup": wb_legacy / wb_prefix,
            "mean_availability_speedup": ma_legacy / ma_prefix,
            "executor_scratch_speedup": fresh / scratch,
            "grid_thread4_speedup": grid1 / grid4,
            "finish_lookups_per_sec": 1e9 / ft_prefix,
        }),
    })
}

/// Validates a committed snapshot's schema; returns an error string on
/// the first violation. `derived_keys` and the expected schema version
/// distinguish the stage-1 and stage-2 shapes.
fn validate_with(
    snapshot: &Value,
    expected_schema: u64,
    derived_keys: &[&str],
) -> Result<(), String> {
    let schema = snapshot
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if schema != expected_schema {
        return Err(format!(
            "schema_version {schema} != supported {expected_schema}"
        ));
    }
    let benches = snapshot
        .get("benches")
        .and_then(Value::as_array)
        .ok_or("missing benches array")?;
    if benches.is_empty() {
        return Err("benches array is empty".into());
    }
    for b in benches {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or("bench entry missing name")?;
        let ns = b
            .get("median_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench {name} missing median_ns"))?;
        if !(ns > 0.0) || !ns.is_finite() {
            return Err(format!("bench {name} has invalid median_ns {ns}"));
        }
    }
    let derived = snapshot
        .get("derived")
        .ok_or("missing derived metrics object")?;
    for key in derived_keys {
        let v = derived
            .get(*key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("derived missing {key}"))?;
        if !(v > 0.0) || !v.is_finite() {
            return Err(format!("derived {key} is invalid: {v}"));
        }
    }
    Ok(())
}

const STAGE1_DERIVED: &[&str] = &[
    "sa_mutation_speedup",
    "table_sweep_speedup",
    "cdf_lookup_speedup",
    "candidate_evals_per_sec",
    "pmf_build_fused_speedup",
    "engine_build_t4_vs_t1",
    "remap_rebuild_speedup",
    "lattice_vs_sa_speedup",
    "lattice_split_overhead",
    "lattice_split_speedup",
    "gamma_robust_speedup_vs_v5",
    "cell_store_warm_speedup",
    "cell_store_thrash_overhead",
];

const STAGE2_DERIVED: &[&str] = &[
    "finish_time_speedup",
    "work_between_speedup",
    "mean_availability_speedup",
    "executor_scratch_speedup",
    "grid_thread4_speedup",
    "finish_lookups_per_sec",
];

/// Enforces a host-aware parallel-speedup floor on one derived metric:
/// the 4-thread run must beat the serial one by `floor_for(host_threads)`
/// for the `host_threads` recorded in the snapshot's instance block.
fn check_speedup_floor(
    snapshot: &Value,
    key: &str,
    floor_for: fn(u64) -> f64,
) -> Result<(), String> {
    let ratio = snapshot["derived"][key]
        .as_f64()
        .ok_or_else(|| format!("derived missing {key}"))?;
    let host = snapshot["instance"]["host_threads"]
        .as_u64()
        .ok_or("instance missing host_threads")?;
    let floor = floor_for(host);
    if ratio < floor {
        return Err(format!(
            "{key} {ratio:.3} is below the {floor} floor for a {host}-thread \
             host — the work-stealing pool has regressed"
        ));
    }
    Ok(())
}

/// Validates the stage-1 `ra_lattice` block: the exact solver must
/// record a deterministic search (nodes and leaves observed) and its
/// optimum must dominate the SA baseline — `lattice_phi1 >= sa_phi1`
/// compared on the recorded values, which `serde_json` round-trips
/// bit-exactly for finite `f64`s. The speedup floor and the split
/// ceiling are checked against the derived ratios the same snapshot
/// records.
fn check_ra_lattice_section(snapshot: &Value) -> Result<(), String> {
    let section = snapshot
        .get("ra_lattice")
        .ok_or("missing ra_lattice section")?;
    let lattice_phi1 = section
        .get("lattice_phi1")
        .and_then(Value::as_f64)
        .ok_or("ra_lattice missing lattice_phi1")?;
    let sa_phi1 = section
        .get("sa_phi1")
        .and_then(Value::as_f64)
        .ok_or("ra_lattice missing sa_phi1")?;
    if !lattice_phi1.is_finite() || !sa_phi1.is_finite() {
        return Err(format!(
            "ra_lattice φ1 values are not finite: lattice {lattice_phi1}, sa {sa_phi1}"
        ));
    }
    if lattice_phi1 < sa_phi1 {
        return Err(format!(
            "exactness violated: lattice_phi1 {lattice_phi1} < sa_phi1 {sa_phi1} — \
             the branch-and-bound is no longer optimal"
        ));
    }
    let counters = section
        .get("counters")
        .ok_or("ra_lattice missing counters")?;
    for key in [
        "nodes",
        "screen_pruned",
        "confirm_pruned",
        "capacity_pruned",
        "leaves",
    ] {
        let v = counters
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("ra_lattice counters missing {key}"))?;
        if (key == "nodes" || key == "leaves") && v == 0 {
            return Err(format!("ra_lattice counter {key} is 0 — no search ran"));
        }
    }
    check_contended_nodes(section)?;
    let serve = section
        .get("sa_serve")
        .ok_or("ra_lattice missing sa_serve")?;
    let steps = serve
        .get("steps")
        .and_then(Value::as_u64)
        .ok_or("ra_lattice sa_serve missing steps")?;
    let full_steps = serve
        .get("full_steps")
        .and_then(Value::as_u64)
        .ok_or("ra_lattice sa_serve missing full_steps")?;
    if steps >= full_steps {
        return Err(format!(
            "SA ran {steps} of {full_steps} steps on the serve spec — the \
             certified early exit no longer engages"
        ));
    }
    let speedup = snapshot["derived"]["lattice_vs_sa_speedup"]
        .as_f64()
        .ok_or("derived missing lattice_vs_sa_speedup")?;
    if speedup < LATTICE_VS_SA_SPEEDUP_MIN {
        return Err(format!(
            "lattice_vs_sa_speedup {speedup:.2} is below the \
             {LATTICE_VS_SA_SPEEDUP_MIN} floor"
        ));
    }
    let split = snapshot["derived"]["lattice_split_overhead"]
        .as_f64()
        .ok_or("derived missing lattice_split_overhead")?;
    if split > LATTICE_SPLIT_OVERHEAD_MAX {
        return Err(format!(
            "lattice_split_overhead {split:.2} is above the \
             {LATTICE_SPLIT_OVERHEAD_MAX} ceiling — two workers split a search \
             one finishes alone"
        ));
    }
    Ok(())
}

/// The contended instance's 1-thread search must stay within
/// [`CONTENDED_MAX_NODES`] nodes and reach a positive optimum.
fn check_contended_nodes(ra_lattice: &Value) -> Result<(), String> {
    let contended = ra_lattice
        .get("contended")
        .ok_or("ra_lattice missing contended")?;
    let nodes = contended["counters"]["nodes"]
        .as_u64()
        .ok_or("ra_lattice contended missing counters.nodes")?;
    if nodes > CONTENDED_MAX_NODES {
        return Err(format!(
            "the lattice visits {nodes} nodes on the contended instance, above the \
             {CONTENDED_MAX_NODES} ceiling — the per-type tables or the positive-first \
             phase stopped cutting"
        ));
    }
    match contended["phi1"].as_f64() {
        Some(phi1) if phi1 > 0.0 => Ok(()),
        other => Err(format!(
            "ra_lattice contended phi1 is {other:?}, not a positive optimum"
        )),
    }
}

/// Validates the stage-1 `pool` block: the instrumented build's stats
/// must be internally consistent and starvation-free.
fn check_pool_section(snapshot: &Value) -> Result<(), String> {
    let pool = snapshot.get("pool").ok_or("missing pool section")?;
    let workers = pool
        .get("workers")
        .and_then(Value::as_u64)
        .ok_or("pool missing workers")?;
    if workers == 0 {
        return Err("pool workers is 0".into());
    }
    let tasks = pool
        .get("tasks_total")
        .and_then(Value::as_u64)
        .ok_or("pool missing tasks_total")?;
    if tasks == 0 {
        return Err("pool tasks_total is 0".into());
    }
    let per_worker = pool
        .get("tasks_per_worker")
        .and_then(Value::as_array)
        .ok_or("pool missing tasks_per_worker")?;
    if per_worker.len() != workers as usize {
        return Err(format!(
            "pool tasks_per_worker has {} entries for {workers} workers",
            per_worker.len()
        ));
    }
    // The initial seeding is deterministic (a pure function of the task
    // weights and worker count), so unlike the scheduling-noise columns
    // it can carry a hard balance bound: every worker starts with work,
    // and no deque holds more than twice the even share. The bench
    // instance's near-uniform cell weights make the task-count bound
    // valid; the pre-v6 seeding (everything after the reserved first
    // chunks on one deque — [1, 21, 1, 1] here) fails it outright.
    let seeded: Vec<u64> = pool
        .get("tasks_seeded_per_worker")
        .and_then(Value::as_array)
        .ok_or("pool missing tasks_seeded_per_worker")?
        .iter()
        .map(|v| v.as_u64().ok_or("tasks_seeded_per_worker entry not a u64"))
        .collect::<Result<_, _>>()?;
    if seeded.len() != workers as usize {
        return Err(format!(
            "pool tasks_seeded_per_worker has {} entries for {workers} workers",
            seeded.len()
        ));
    }
    if seeded.iter().sum::<u64>() != tasks {
        return Err(format!(
            "pool seeded {} tasks but ran {tasks} — the seeding no longer covers the grid",
            seeded.iter().sum::<u64>()
        ));
    }
    let even_share = tasks.div_ceil(workers);
    for (w, &s) in seeded.iter().enumerate() {
        if s == 0 {
            return Err(format!("pool worker {w} was seeded no tasks"));
        }
        if s > 2 * even_share {
            return Err(format!(
                "pool worker {w} was seeded {s} tasks, above 2× the even share \
                 {even_share} — the weight-balanced seeding has regressed"
            ));
        }
    }
    pool.get("chunks_stolen_total")
        .and_then(Value::as_u64)
        .ok_or("pool missing chunks_stolen_total")?;
    match pool.get("no_worker_starved").and_then(Value::as_bool) {
        Some(true) => Ok(()),
        Some(false) => Err("pool reports a starved worker".into()),
        None => Err("pool missing no_worker_starved".into()),
    }
}

/// Validates the stage-1 `cell_store` block and its derived bounds: the
/// counters must describe a real prev→next catalog pair (hits from the
/// shared applications, zero verify rejects, a fingerprint-identical
/// engine), the store-warm build must clear the
/// [`CELL_STORE_WARM_SPEEDUP_MIN`] ratio, the thrash pass must really
/// thrash (a working set over twice the capacity, evictions recorded)
/// at no more than [`CELL_STORE_THRASH_OVERHEAD_MAX`] times a storeless
/// build, and the screened Γ-robust solver must hold its
/// [`GAMMA_ROBUST_SPEEDUP_MIN`]× margin over the committed v5 anchor.
fn check_cell_store_section(snapshot: &Value) -> Result<(), String> {
    let section = snapshot
        .get("cell_store")
        .ok_or("missing cell_store section")?;
    let hits = u64_field(section, "hits")?;
    let misses = u64_field(section, "misses")?;
    if hits == 0 {
        return Err("cell_store recorded no hits — the overlapping build resolved nothing".into());
    }
    if misses == 0 {
        return Err("cell_store recorded no misses — the cold build never consulted it".into());
    }
    let rejects = u64_field(section, "verify_rejects")?;
    if rejects != 0 {
        return Err(format!(
            "cell_store recorded {rejects} verify rejects — structural hashes \
             collided on the bench instance"
        ));
    }
    let resident = u64_field(section, "resident")?;
    let capacity = u64_field(section, "capacity")?;
    if resident > capacity {
        return Err(format!(
            "cell_store resident {resident} exceeds capacity {capacity}"
        ));
    }
    let hit_rate = f64_field(section, "hit_rate")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("cell_store hit_rate {hit_rate} outside [0, 1]"));
    }
    match section.get("fingerprint_match").and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => {
            return Err("cell_store fingerprint_match is false — a store-resolved \
                 engine diverged from the storeless build"
                .into())
        }
        None => return Err("cell_store missing fingerprint_match".into()),
    }
    let warm_speedup = snapshot["derived"]["cell_store_warm_speedup"]
        .as_f64()
        .ok_or("derived missing cell_store_warm_speedup")?;
    if warm_speedup < CELL_STORE_WARM_SPEEDUP_MIN {
        return Err(format!(
            "cell_store_warm_speedup {warm_speedup:.2} is below the \
             {CELL_STORE_WARM_SPEEDUP_MIN} floor — store resolution no longer \
             short-circuits the kernel"
        ));
    }
    let thrash = section.get("thrash").ok_or("cell_store missing thrash")?;
    let working_set = u64_field(thrash, "working_set_cells")?;
    let thrash_capacity = u64_field(thrash, "capacity")?;
    if working_set < 2 * thrash_capacity {
        return Err(format!(
            "cell_store thrash working set {working_set} is under twice the \
             {thrash_capacity}-cell capacity"
        ));
    }
    if u64_field(thrash, "evictions")? == 0 {
        return Err("cell_store thrash pass evicted nothing".into());
    }
    let overhead = snapshot["derived"]["cell_store_thrash_overhead"]
        .as_f64()
        .ok_or("derived missing cell_store_thrash_overhead")?;
    if overhead > CELL_STORE_THRASH_OVERHEAD_MAX {
        return Err(format!(
            "cell_store_thrash_overhead {overhead:.2} is above the \
             {CELL_STORE_THRASH_OVERHEAD_MAX} ceiling — store-attached builds \
             that evict cost too much over storeless ones"
        ));
    }
    let gamma_speedup = snapshot["derived"]["gamma_robust_speedup_vs_v5"]
        .as_f64()
        .ok_or("derived missing gamma_robust_speedup_vs_v5")?;
    if gamma_speedup < GAMMA_ROBUST_SPEEDUP_MIN {
        return Err(format!(
            "gamma_robust_speedup_vs_v5 {gamma_speedup:.2} is below the \
             {GAMMA_ROBUST_SPEEDUP_MIN} floor against the committed \
             {GAMMA_ROBUST_BASELINE_V5_NS} ns anchor"
        ));
    }
    Ok(())
}

/// Validates the stage-1 `remap` block: every timed remap was a real
/// miss whose kernel built exactly the changed app's cells, the rest
/// coming from the store.
fn check_remap_section(snapshot: &Value) -> Result<(), String> {
    let section = snapshot.get("remap").ok_or("missing remap section")?;
    let calls = u64_field(section, "calls")?;
    let kernel_cells = u64_field(section, "kernel_cells")?;
    let per_call = u64_field(section, "changed_app_cells")?;
    if kernel_cells != calls * per_call {
        return Err(format!(
            "remap loop built {kernel_cells} cells in {calls} calls, not the changed \
             app's {per_call} per call"
        ));
    }
    if u64_field(section, "store_hits")? == 0 {
        return Err("remap loop took no cells from the store".into());
    }
    Ok(())
}

fn validate(snapshot: &Value) -> Result<(), String> {
    validate_with(snapshot, SCHEMA_VERSION, STAGE1_DERIVED)?;
    check_remap_section(snapshot)?;
    check_pool_section(snapshot)?;
    check_ra_lattice_section(snapshot)?;
    check_cell_store_section(snapshot)?;
    check_speedup_floor(
        snapshot,
        "lattice_split_speedup",
        lattice_split_speedup_floor,
    )?;
    check_speedup_floor(snapshot, "engine_build_t4_vs_t1", parallel_speedup_floor)
}

fn validate_stage2(snapshot: &Value) -> Result<(), String> {
    validate_with(snapshot, STAGE2_SCHEMA_VERSION, STAGE2_DERIVED)?;
    check_speedup_floor(snapshot, "grid_thread4_speedup", grid_speedup_floor)
}

// --- Serve suite ---------------------------------------------------------

/// The canonical loadgen replay behind the committed `BENCH_serve.json`:
/// 10k requests from 6 tenants over 4 connections against a 2-shard
/// in-process server, with 2% of submits routed through the explicit
/// "sa"/"lattice" policies — enough to exercise the multi-start SA and
/// exact-lattice counters without the solver work drowning the
/// data-plane signal the floors track — and `catalog_overlap` 0.0, so
/// the throughput floors measure the uncontended data plane (the CI
/// smoke drives an overlapping stream separately).
///
/// `--check` shrinks the stream but keeps the tenant/shard multiplicity
/// and the loadgen's default (heavier) policy mix, so the smoke pass
/// crosses shards *and* both explicit solver paths.
fn serve_configs(check: bool) -> (LoadgenConfig, ServeConfig) {
    let load = if check {
        LoadgenConfig {
            requests: 400,
            tenants: 4,
            connections: 4,
            ..LoadgenConfig::default()
        }
    } else {
        LoadgenConfig {
            policy_mix: 0.02,
            ..LoadgenConfig::default()
        }
    };
    let serve = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    (load, serve)
}

fn u64_field(snapshot: &Value, key: &str) -> Result<u64, String> {
    snapshot
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing {key}"))
}

fn f64_field(snapshot: &Value, key: &str) -> Result<f64, String> {
    let v = snapshot
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing {key}"))?;
    if !v.is_finite() {
        return Err(format!("{key} is not finite: {v}"));
    }
    Ok(v)
}

/// Validates a serve snapshot ([`cdsf_serve::LoadgenReport`] JSON): the
/// replay must meet the multi-tenant floors, finish without a single
/// error, and carry a coherent per-shard stats block.
fn validate_serve(snapshot: &Value) -> Result<(), String> {
    let schema = u64_field(snapshot, "schema_version")?;
    if schema != u64::from(REPORT_SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {schema} != supported {REPORT_SCHEMA_VERSION}"
        ));
    }
    let requests = u64_field(snapshot, "requests")?;
    let tenants = u64_field(snapshot, "tenants")?;
    let shards = u64_field(snapshot, "shards")?;
    if requests < SERVE_MIN_REQUESTS || tenants < SERVE_MIN_TENANTS || shards < SERVE_MIN_SHARDS {
        return Err(format!(
            "replay {requests} requests / {tenants} tenants / {shards} shards is below \
             the {SERVE_MIN_REQUESTS}/{SERVE_MIN_TENANTS}/{SERVE_MIN_SHARDS} floors"
        ));
    }
    if u64_field(snapshot, "ok")? == 0 {
        return Err("no request succeeded".into());
    }
    let errors = u64_field(snapshot, "errors")?;
    if errors != 0 {
        return Err(format!("committed replay has {errors} request errors"));
    }
    let throughput = f64_field(snapshot, "throughput_rps")?;
    if !(throughput > 0.0) {
        return Err("throughput_rps is not positive".into());
    }
    if u64_field(snapshot, "pipeline")? == 0 {
        return Err("pipeline window is zero".into());
    }
    // Warm-up discard must be recorded (it may legitimately be 0 only if
    // the run was configured that way; the canonical replay discards 200).
    let warmup = u64_field(snapshot, "warmup_discarded")?;
    if warmup == 0 {
        return Err("warmup_discarded is zero — percentiles include cold builds".into());
    }
    let p50 = u64_field(snapshot, "latency_p50_us")?;
    let p99 = u64_field(snapshot, "latency_p99_us")?;
    let p999 = u64_field(snapshot, "latency_p999_us")?;
    if p99 < p50 {
        return Err(format!("latency p99 {p99}us below p50 {p50}us"));
    }
    if p999 < p99 {
        return Err(format!("latency p999 {p999}us below p99 {p99}us"));
    }
    let host_threads = u64_field(snapshot, "host_threads")?;
    if host_threads == 0 {
        return Err("host_threads is zero".into());
    }
    if host_threads >= 4 {
        if throughput < SERVE_THROUGHPUT_MIN_WIDE_HOST {
            return Err(format!(
                "throughput {throughput:.0} req/s below the wide-host floor \
                 {SERVE_THROUGHPUT_MIN_WIDE_HOST:.0} for the policy-mixed v3 stream"
            ));
        }
        if p99 > SERVE_P99_MAX_WIDE_US {
            return Err(format!(
                "p99 {p99}us above the wide-host ceiling {SERVE_P99_MAX_WIDE_US}us \
                 (the solver-tail bound of the policy-mixed v3 stream)"
            ));
        }
    } else if throughput < SERVE_THROUGHPUT_MIN_NARROW_HOST {
        return Err(format!(
            "throughput {throughput:.0} req/s below the narrow-host floor \
             {SERVE_THROUGHPUT_MIN_NARROW_HOST:.0} for the policy-mixed v3 stream"
        ));
    }
    let hit_rate = f64_field(snapshot, "cache_hit_rate")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("cache_hit_rate {hit_rate} outside [0, 1]"));
    }
    if f64_field(snapshot, "coalescing_factor")? < 1.0 {
        return Err("coalescing_factor below 1".into());
    }
    let stats = snapshot.get("stats").ok_or("missing stats block")?;
    let per_shard = stats
        .get("per_shard")
        .and_then(Value::as_array)
        .ok_or("stats missing per_shard")?;
    if per_shard.len() != shards as usize {
        return Err(format!(
            "stats has {} per-shard entries for {shards} shards",
            per_shard.len()
        ));
    }
    let total = stats.get("total").ok_or("stats missing total")?;
    if u64_field(total, "submits")? == 0 {
        return Err("stats total has no submits".into());
    }
    u64_field(total, "pool_runs")?;
    // v3 invariants: the replay declares its policy mix and, when it is
    // positive, must actually have driven the SA path (the exact-lattice
    // path shares the cache counters, so SA runs are the visible signal
    // that the mix routed around the default policy).
    let mix = f64_field(snapshot, "policy_mix")?;
    if !(0.0..=1.0).contains(&mix) {
        return Err(format!("policy_mix {mix} outside [0, 1]"));
    }
    if mix > 0.0 && u64_field(total, "sa_multistart_runs")? == 0 {
        return Err(format!(
            "policy_mix {mix} routed no submits through the SA policy"
        ));
    }
    // v4 invariants: the replay declares its catalog overlap and carries
    // coherent service-wide cell-store counters. Every engine build goes
    // through the shared store, so a replay with submits must at least
    // have recorded misses; hits are only required of overlapping
    // streams (the canonical replay keeps `catalog_overlap` at 0.0, and
    // per-tenant seeds make cross-tenant hits coincidental there).
    let overlap = f64_field(snapshot, "catalog_overlap")?;
    if !(0.0..=1.0).contains(&overlap) {
        return Err(format!("catalog_overlap {overlap} outside [0, 1]"));
    }
    let cs_hits = u64_field(snapshot, "cell_store_hits")?;
    let cs_misses = u64_field(snapshot, "cell_store_misses")?;
    if cs_hits + cs_misses == 0 {
        return Err("cell store was never consulted — engine builds bypassed it".into());
    }
    let cs_rejects = u64_field(snapshot, "cell_store_verify_rejects")?;
    if cs_rejects != 0 {
        return Err(format!(
            "replay recorded {cs_rejects} cell-store verify rejects"
        ));
    }
    let cs_rate = f64_field(snapshot, "cell_store_hit_rate")?;
    if !(0.0..=1.0).contains(&cs_rate) {
        return Err(format!("cell_store_hit_rate {cs_rate} outside [0, 1]"));
    }
    // v2 invariants: the totals row carries no shard id (the old
    // `u64::MAX` sentinel must never reappear on the wire), batched
    // drains were observed, and the reply codec flushed in bursts.
    if total.get("shard").is_some_and(|s| !s.is_null()) {
        return Err("stats total row carries a shard id".into());
    }
    let drains: u64 = total
        .get("drain_depths")
        .and_then(Value::as_array)
        .ok_or("stats total missing drain_depths")?
        .iter()
        .filter_map(Value::as_u64)
        .sum();
    if drains == 0 {
        return Err("drain-depth histogram is empty".into());
    }
    let codec = stats.get("codec").ok_or("stats missing codec block")?;
    let frames = u64_field(codec, "reply_frames")?;
    let flushes = u64_field(codec, "flushes")?;
    if frames == 0 {
        return Err("codec recorded no reply frames".into());
    }
    if flushes > frames {
        return Err(format!(
            "codec flushes {flushes} exceed reply frames {frames}"
        ));
    }
    Ok(())
}

/// The `--serve` entry point: replay the loadgen stream, then either
/// write the fresh report (full mode) or guard the committed one
/// (`--check`). Returns the process exit path directly like `main`.
fn run_serve(check: bool, path: &std::path::Path) {
    let (load_cfg, serve_cfg) = serve_configs(check);
    eprintln!(
        "running serve replay ({} mode): {} requests, {} tenants, {} shards...",
        if check { "check" } else { "full" },
        load_cfg.requests,
        load_cfg.tenants,
        serve_cfg.shards,
    );
    let report = run_local(&load_cfg, serve_cfg).unwrap_or_else(|e| {
        eprintln!("error: serve replay failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "  {:.0} req/s | p50 {} us | p99 {} us | hit rate {:.3} | \
         coalescing {:.3} | {} errors",
        report.throughput_rps,
        report.latency_p50_us,
        report.latency_p99_us,
        report.cache_hit_rate,
        report.coalescing_factor,
        report.errors,
    );
    if report.errors != 0 {
        eprintln!("error: smoke replay produced {} errors", report.errors);
        std::process::exit(1);
    }

    if check {
        let raw = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!(
                "error: committed snapshot {} unreadable: {e}",
                path.display()
            );
            std::process::exit(1);
        });
        let committed: Value = serde_json::from_str(&raw).unwrap_or_else(|e| {
            eprintln!("error: committed snapshot is not valid JSON: {e}");
            std::process::exit(1);
        });
        if let Err(msg) = validate_serve(&committed) {
            eprintln!("error: committed snapshot is schema-invalid: {msg}");
            std::process::exit(1);
        }
        eprintln!("ok: committed {} is schema-valid", path.display());
    } else {
        let snapshot = serde_json::to_value(&report);
        validate_serve(&snapshot).expect("freshly-produced serve snapshot must be schema-valid");
        std::fs::write(path, serde_json::to_string_pretty(&snapshot).unwrap())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let stage2 = args.iter().any(|a| a == "--stage2");
    let serve = args.iter().any(|a| a == "--serve");
    if serve {
        run_serve(check, &snapshot_path("BENCH_serve.json"));
        return;
    }
    let path = snapshot_path(if stage2 {
        "BENCH_stage2.json"
    } else {
        "BENCH_stage1.json"
    });

    let (samples, scale, mode) = if check {
        (3, 1, "check")
    } else {
        (9, 4, "full")
    };
    let (results, snapshot) = if stage2 {
        eprintln!("running Stage-II kernel suite ({mode} mode)...");
        let results = run_stage2_suite(samples, scale);
        let snapshot = to_stage2_json(&results, mode);
        (results, snapshot)
    } else {
        eprintln!("running φ₁ kernel suite ({mode} mode)...");
        let (results, remap) = run_suite(samples, scale);
        let snapshot = to_json(&results, remap, mode, scale);
        (results, snapshot)
    };
    drop(results);
    let derived = snapshot["derived"].as_object().unwrap();
    for (key, v) in derived.iter() {
        if key.ends_with("_speedup") || key.ends_with("_overhead") {
            eprintln!("  {:<28} {:.2}x", key, v.as_f64().unwrap());
        } else {
            eprintln!("  {:<28} {:.3e}", key, v.as_f64().unwrap());
        }
    }
    let validator = if stage2 { validate_stage2 } else { validate };

    if check {
        // Node counts at one worker are deterministic, so the smoke
        // pass's own contended search is held to the ceiling too.
        if !stage2 {
            if let Err(msg) = check_contended_nodes(&snapshot["ra_lattice"]) {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
        // Smoke pass done; now guard the committed snapshot.
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!(
                "error: committed snapshot {} unreadable: {e}",
                path.display()
            );
            std::process::exit(1);
        });
        let committed: Value = serde_json::from_str(&raw).unwrap_or_else(|e| {
            eprintln!("error: committed snapshot is not valid JSON: {e}");
            std::process::exit(1);
        });
        if let Err(msg) = validator(&committed) {
            eprintln!("error: committed snapshot is schema-invalid: {msg}");
            std::process::exit(1);
        }
        eprintln!("ok: committed {} is schema-valid", path.display());
    } else {
        validator(&snapshot).expect("freshly-produced snapshot must be schema-valid");
        std::fs::write(&path, serde_json::to_string_pretty(&snapshot).unwrap())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}
