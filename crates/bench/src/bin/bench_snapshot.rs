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
//! `--check` runs a reduced-iteration smoke pass (for `--serve`, a short
//! replay) and holds its results to every guard row that bounds no
//! timing and no replay size, then holds the *committed* snapshot to
//! every row of its [`Suite`] and recomputes its derived ratios, without
//! overwriting it — the CI guard.

use cdsf_bench::{
    bench_instance, catalog_app, dualstage_shape_grid, full_fitness, legacy_cdf,
    legacy_finish_time, legacy_work_between, stage2_spec, thrash_instances, thrash_pass,
    thrash_working_set, warmed_timeline, THRASH_BUILDS,
};
use cdsf_core::simulation::simulate_grid;
use cdsf_core::{RasPolicy, SimParams};
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
/// benchmark's dual-stage pool, guarded to at most 20 000 nodes.
/// v10 added the thrash rows to `cell_store`: a fixed sequence of
/// churn-shaped specs built through a default-capacity store whose
/// working set is over twice its capacity, timed per build with and
/// without the store (`cell_store/thrash_build/*`), one pass's store
/// counters in the section's `thrash` block, and the derived
/// `cell_store_thrash_overhead`, guarded to at most 1.6×.
/// v11 added the lattice at one and two workers over a prebuilt engine
/// on both sides of its serial-first budget:
/// `ra/lattice_allocate/apps24_d2000_t1` and `_t2`, a search of about a
/// thousand nodes, with the derived `lattice_split_overhead` (`t2 / t1`)
/// guarded to at most 1.5×; and
/// `ra/lattice_allocate/apps16_d7000_t1` and `_t2`, a search of
/// 322 670 nodes, with the derived `lattice_split_speedup` (`t1 / t2`)
/// guarded to at least 1.15× on two or more host threads, 0.7× on one.
/// v12 added the `largest_pool` block to `ra_lattice`: the 1-thread
/// search counters of the dual-stage pool's largest solve, guarded to at
/// most 65 536 nodes, the lattice's serial-first budget.
/// v13 added `exhaustive_phi1` to the `contended` block of `ra_lattice`:
/// the φ₁ of exhaustive search on the contended instance, which the
/// lattice's optimum must equal bit for bit. The apps16 exactness row
/// compares the lattice with SA, which finds no positive φ₁ there.
const SCHEMA_VERSION: u64 = 13;

/// Current stage-2 snapshot schema. Bump when the JSON shape changes.
/// v2 added the host-aware `grid_thread4_speedup` floor (≥ 3× on hosts
/// with ≥ 4 cores, no-regression bound elsewhere).
/// v3 added the `grid/dualstage_shape` row: `simulate_grid` at one
/// thread on the 128-cell grid of the dual-stage-shaped golden instance,
/// the Stage II that the offline pipeline runs per instance.
const STAGE2_SCHEMA_VERSION: u64 = 3;

/// Deadline of the long lattice search on `bench_instance(16)`: 322 670
/// nodes at one worker, about five times the serial-first budget, so two
/// workers split it.
const SPLIT_DEADLINE: f64 = 7_000.0;

const DEADLINE: f64 = 2_800.0;

/// Seed and index of the contended instance in the dual-stage pool.
const CONTENDED_POOL: (u64, u64) = (42, 16);

/// Seed and index of the dual-stage pool's largest 1-thread lattice
/// solve among its 200 instances (the mean takes about 2 200 nodes).
const LARGEST_POOL: (u64, u64) = (42, 177);

/// One snapshot file: its schema, the ratios derived from its medians
/// and the guard rows that hold it. `--check` holds the smoke pass's own
/// snapshot to the schema, the invariants and the ratios'
/// recomputation, and the committed file to all of them and the floors;
/// a full recording must pass everything before it is written.
///
/// A ratio reads `key = numerator / denominator`: the denominator is a
/// bench's median, the numerator a bench's median or a number.
///
/// A guard row reads `lhs op rhs[ if lhs op rhs]: reason`, where `op` is
/// one of `<`, `<=`, `==`, `>=` and `>`. Each side is built from
/// numbers, `true`, `false`, JSON paths (`a.b.c`; a numeric key indexes
/// an array), `+`, `*` and `/` (`*` and `/` bind tighter), and the
/// functions `len` (of an array or a string), `sum` (of an array's
/// non-negative integers), `has` (present and not null) and `ceil`. A
/// `.*` key checks the row at every element of the array before it. A
/// row whose condition (after `if`) is false is skipped. A side that
/// reads a missing path or a value of the wrong kind refuses its row, in
/// a condition too.
struct Suite {
    /// The committed snapshot's file name at the repository root.
    file: &'static str,
    /// The `schema_version` the snapshot must carry.
    schema: u64,
    /// The `derived` block, in the order it is written. Each ratio must be
    /// positive and equal, bit for bit, its recomputation from the
    /// snapshot's own medians.
    ratios: &'static [&'static str],
    /// Rows every run must pass, the `--check` smoke pass's included.
    invariants: &'static [&'static str],
    /// Rows on timings, timing ratios and the replay's size, which the
    /// reduced `--check` pass does not measure.
    floors: &'static [&'static str],
}

const STAGE1: Suite = Suite {
    file: "BENCH_stage1.json",
    schema: SCHEMA_VERSION,
    ratios: &[
        "sa_mutation_speedup = phi1/sa_mutation/full_recompute_apps64 / phi1/sa_mutation/delta_apps64",
        "table_sweep_speedup = phi1/table_sweep/legacy_32d / phi1/table_sweep/soa_32d",
        "cdf_lookup_speedup = pmf/cdf/legacy_scan_1024 / pmf/cdf/prefix_1024",
        "candidate_evals_per_sec = 1e9 / phi1/sa_mutation/delta_apps64",
        "pmf_build_fused_speedup = pmf_build/loaded_two_step_p384 / pmf_build/loaded_fused_p384",
        "engine_build_t4_vs_t1 = phi1/engine_build/t1_p384 / phi1/engine_build/t4_p384",
        "remap_rebuild_speedup = pmf_build/rebuild_full_1app32 / pmf_build/rebuild_remap_1app32",
        "lattice_vs_sa_speedup = ra/sa_allocate/apps16 / ra/lattice_allocate/apps16",
        "lattice_split_overhead = ra/lattice_allocate/apps24_d2000_t2 / ra/lattice_allocate/apps24_d2000_t1",
        "lattice_split_speedup = ra/lattice_allocate/apps16_d7000_t1 / ra/lattice_allocate/apps16_d7000_t2",
        // 525 892.3 ns is the v5 snapshot's committed
        // `ra/gamma_robust_allocate/apps16` median (full mode, on the
        // repo's canonical 1-core bench host). A ratio against an absolute
        // baseline only binds snapshots recorded on the same host class,
        // which is how the committed one is produced.
        "gamma_robust_speedup_vs_v5 = 525892.3 / ra/gamma_robust_allocate/apps16",
        "cell_store_warm_speedup = cell_store/engine_build_cold/catalog24_p384 / cell_store/engine_build_warm_partial/catalog24_p384",
        "cell_store_thrash_overhead = cell_store/thrash_build/store_churn3000 / cell_store/thrash_build/storeless_churn3000",
    ],
    invariants: &[
        "len(benches) > 0: the snapshot records no bench",
        "len(benches.*.name) >= 0: a bench has no name",
        // Every timed remap is a real miss whose kernel builds exactly the
        // changed app's cells; the rest come from the store.
        "remap.kernel_cells == remap.calls * remap.changed_app_cells: the remap loop built other cells than the changed app's",
        "remap.store_hits > 0: the remap loop took no cells from the store",
        // The instrumented 4-thread build's pool stats are consistent and
        // no worker starved. The initial seeding is a pure function of the
        // task weights and the worker count, so unlike the scheduling-noise
        // columns it carries a hard balance bound: every worker starts with
        // work, and none with more than twice the even share. The bench
        // instance's near-uniform cell weights make the task-count bound
        // valid; the pre-v6 seeding (everything after the reserved first
        // chunks on one deque, [1, 21, 1, 1] here) fails it outright.
        "pool.workers > 0: the pool ran no workers",
        "pool.tasks_total > 0: the pool ran no tasks",
        "len(pool.tasks_per_worker) == pool.workers: tasks_per_worker has not one entry per worker",
        "len(pool.tasks_seeded_per_worker) == pool.workers: tasks_seeded_per_worker has not one entry per worker",
        "sum(pool.tasks_seeded_per_worker) == pool.tasks_total: the seeding no longer covers the grid",
        "pool.tasks_seeded_per_worker.* > 0: a pool worker was seeded no tasks",
        "pool.tasks_seeded_per_worker.* <= 2 * ceil(pool.tasks_total / pool.workers): a pool worker was seeded above twice the even share — the weight-balanced seeding has regressed",
        "pool.chunks_stolen_total >= 0: the pool lacks chunks_stolen_total",
        "pool.no_worker_starved == true: the pool starved a worker",
        // The exact solver's optimum dominates SA's, and equals exhaustive
        // search's on the contended instance, the largest it finishes on
        // in milliseconds. serde_json round-trips a finite f64 exactly, so
        // the recorded values compare bit for bit.
        "ra_lattice.lattice_phi1 >= ra_lattice.sa_phi1: exactness violated — the branch-and-bound is no longer optimal",
        "ra_lattice.contended.phi1 == ra_lattice.contended.exhaustive_phi1: exactness violated — the branch-and-bound's optimum differs from exhaustive search's",
        "ra_lattice.counters.nodes > 0: no lattice search ran",
        "ra_lattice.counters.screen_pruned >= 0: the lattice counters lack screen_pruned",
        "ra_lattice.counters.confirm_pruned >= 0: the lattice counters lack confirm_pruned",
        "ra_lattice.counters.capacity_pruned >= 0: the lattice counters lack capacity_pruned",
        "ra_lattice.counters.leaves > 0: the lattice search reached no leaf",
        // Node counts at one worker are deterministic, so these ceilings
        // bind on every host. On the contended instance the search without
        // per-type tables and its positive-first phase visited 1 331 842
        // nodes, with them 7 250. The pool's largest solve took 58 081
        // nodes when recorded; 65 536 is the lattice's serial-first budget
        // (`SERIAL_BUDGET` in `cdsf_ra`'s lattice module), below which a
        // two-worker `dualstage` solve never leaves the serial prefix.
        "ra_lattice.contended.counters.nodes <= 20000: the per-type tables or the positive-first phase stopped cutting on the contended instance",
        "ra_lattice.contended.phi1 > 0: the contended instance has no positive optimum",
        "ra_lattice.largest_pool.counters.nodes <= 65536: the dual-stage pool's largest solve left the serial-first budget, so two-worker dualstage solves now split",
        "ra_lattice.sa_serve.steps < ra_lattice.sa_serve.full_steps: SA ran every step on the serve spec — the certified early exit no longer engages",
        // The store counters describe a real prev→next catalog pair (hits
        // from the shared applications, no verify rejects, an engine that
        // fingerprints like a storeless build), and the thrash pass really
        // thrashes: it evicts, and the admission gate declines cells.
        "cell_store.hits > 0: the overlapping build resolved nothing from the store",
        "cell_store.misses > 0: the cold build never consulted the store",
        "cell_store.verify_rejects == 0: structural hashes collided on the bench instance",
        "cell_store.resident <= cell_store.capacity: the store holds more cells than its capacity",
        "cell_store.hit_rate >= 0: the store's hit rate is below 0",
        "cell_store.hit_rate <= 1: the store's hit rate is above 1",
        "cell_store.fingerprint_match == true: a store-resolved engine diverged from the storeless build",
        "cell_store.thrash.working_set_cells >= 2 * cell_store.thrash.capacity: the thrash working set is under twice the store's capacity",
        "cell_store.thrash.evictions > 0: the thrash pass evicted nothing",
        "cell_store.thrash.insertions < cell_store.thrash.misses: the store interned every cell the thrash pass missed — its admission gate declined nothing",
    ],
    floors: &[
        "benches.*.median_ns > 0: a bench has no positive median",
        // Both sides of these ratios are single-threaded medians from the
        // same run, so they divide out the clock and need no host
        // awareness. The store-warm build read about 7.4× when its floor
        // was set (23 of 24 applications resident). The thrash overhead
        // read 2.3–3.0× with eviction by a scan of the shard, 1.1–1.4× by
        // the lazy queue, and 0.74–0.80× behind the admission gate, which
        // keeps the store from paying for cells it would evict unread.
        // Splitting every lattice search read 37–38× on a 2-vCPU host,
        // the serial-first search 1.01–1.03×. The screened Γ-robust solve
        // read 2.4–2.6× its v5 anchor.
        "derived.lattice_vs_sa_speedup >= 10: the exact lattice lost its 10× lead over SA",
        "derived.lattice_split_overhead <= 1.5: two workers split a search one finishes alone",
        "derived.cell_store_warm_speedup >= 5: store resolution no longer short-circuits the kernel",
        "derived.cell_store_thrash_overhead <= 1.0: store-attached builds on a working set the store cannot hold cost more than storeless ones",
        "derived.gamma_robust_speedup_vs_v5 >= 2: the screened Γ-robust solve lost its 2× margin over the v5 anchor",
        // Parallel floors read the `host_threads` the snapshot records:
        // numbers are measured, never assumed. With two or more cores the
        // lattice's root split must pay (a serial search reads 1.0 at both
        // widths; the split read 1.34–1.37× on a 2-vCPU host), and with
        // four the work-stealing pool must scale. On narrower hosts (CI
        // containers are routinely 1–2 cores) more workers cannot beat
        // serial, so the floor only proves they do not wreck single-core
        // throughput.
        "derived.lattice_split_speedup >= 1.15 if instance.host_threads >= 2: the lattice's root split stopped paying",
        "derived.lattice_split_speedup >= 0.7 if instance.host_threads < 2: the lattice's root split wrecks single-core throughput",
        "derived.engine_build_t4_vs_t1 >= 3 if instance.host_threads >= 4: the work-stealing pool has regressed",
        "derived.engine_build_t4_vs_t1 >= 0.7 if instance.host_threads < 4: the work-stealing pool has regressed",
    ],
};

const STAGE2: Suite = Suite {
    file: "BENCH_stage2.json",
    schema: STAGE2_SCHEMA_VERSION,
    ratios: &[
        "finish_time_speedup = timeline/finish_time/legacy_walk_10k / timeline/finish_time/prefix_10k",
        "work_between_speedup = timeline/work_between/legacy_scan_10k / timeline/work_between/prefix_10k",
        "mean_availability_speedup = timeline/mean_avail/legacy_scan_10k / timeline/mean_avail/prefix_10k",
        "executor_scratch_speedup = executor/replicates25/fresh_alloc / executor/replicates25/scratch_arena",
        "grid_thread4_speedup = grid/replicates25/threads1 / grid/replicates25/threads4",
        "finish_lookups_per_sec = 1e9 / timeline/finish_time/prefix_10k",
    ],
    invariants: &[
        "len(benches) > 0: the snapshot records no bench",
        "len(benches.*.name) >= 0: a bench has no name",
    ],
    floors: &[
        "benches.*.median_ns > 0: a bench has no positive median",
        // The grid clamps its worker count to the host width and runs
        // strictly inline at one worker, so on a narrow host `threads4`
        // runs the same serial code as `threads1` and the ratio must not
        // dip below parity (it read 0.93 when 4 workers oversubscribed 1
        // core). Wide hosts keep the pool's scaling floor.
        "derived.grid_thread4_speedup >= 3 if instance.host_threads >= 4: the replicate-parallel grid stopped scaling",
        "derived.grid_thread4_speedup >= 1 if instance.host_threads < 4: the grid at 4 workers is slower than at 1",
    ],
};

const SERVE: Suite = Suite {
    file: "BENCH_serve.json",
    schema: REPORT_SCHEMA_VERSION as u64,
    ratios: &[],
    invariants: &[
        "ok > 0: no request succeeded",
        "errors == 0: the replay had request errors",
        "pipeline > 0: the pipeline window is zero",
        // The canonical replay discards 200 warm-up requests.
        "warmup_discarded > 0: the percentiles include cold builds",
        "latency_p99_us >= latency_p50_us: latency p99 is below p50",
        "latency_p999_us >= latency_p99_us: latency p999 is below p99",
        "host_threads > 0: the report records no host threads",
        "cache_hit_rate >= 0: the cache hit rate is below 0",
        "cache_hit_rate <= 1: the cache hit rate is above 1",
        "coalescing_factor >= 1: the coalescing factor is below 1",
        "len(stats.per_shard) == shards: stats has not one row per shard",
        "stats.total.submits > 0: the stats total has no submits",
        "stats.total.pool_runs >= 0: the stats total lacks pool_runs",
        // A positive policy mix must drive the SA path: the exact-lattice
        // path shares the cache counters, so SA runs are the visible
        // signal that the mix routed around the default policy.
        "policy_mix >= 0: the policy mix is below 0",
        "policy_mix <= 1: the policy mix is above 1",
        "stats.total.sa_multistart_runs > 0 if policy_mix > 0: the policy mix routed no submits through the SA policy",
        // Every engine build goes through the shared cell store, so a
        // replay with submits records misses at least. Hits are required
        // only of overlapping streams: the canonical replay keeps
        // `catalog_overlap` at 0, where cross-tenant hits are coincidental.
        "catalog_overlap >= 0: the catalog overlap is below 0",
        "catalog_overlap <= 1: the catalog overlap is above 1",
        "cell_store_hits + cell_store_misses > 0: engine builds bypassed the cell store",
        "cell_store_verify_rejects == 0: the replay recorded cell-store verify rejects",
        "cell_store_hit_rate >= 0: the cell-store hit rate is below 0",
        "cell_store_hit_rate <= 1: the cell-store hit rate is above 1",
        // The totals row carries no shard id (the old `u64::MAX` sentinel
        // must never reappear on the wire), batched drains were observed,
        // and the reply codec flushed in bursts.
        "has(stats.total.shard) == false: the stats total row carries a shard id",
        "sum(stats.total.drain_depths) > 0: the drain-depth histogram is empty",
        "stats.codec.reply_frames > 0: the codec recorded no reply frames",
        "stats.codec.flushes <= stats.codec.reply_frames: the codec flushed more often than it wrote reply frames",
    ],
    floors: &[
        // The replay must exercise real multi-tenant sharding, not a toy
        // stream.
        "requests >= 10000: the replay is below the 10 000-request floor",
        "tenants >= 4: the replay is below the 4-tenant floor",
        "shards >= 2: the replay is below the 2-shard floor",
        "throughput_rps > 0: the throughput is not positive",
        // The v2 stream was pure cache and data-plane traffic, anchored to
        // the lockstep v1 snapshot (8 484.86 req/s at p99 1 309 µs; the
        // pipelined rewrite had to clear 3× that throughput at half the
        // p99). The v3 canonical stream routes a 2% `policy_mix` of submits
        // through the explicit "sa"/"lattice" solvers, which puts a few
        // dozen multi-start SA runs (~20 ms each, single-threaded) inside
        // the replay. So the floors re-anchor to the first v3 runs on a
        // 1-core host (4.6–5.7 k req/s, 65 SA runs) with margin for the
        // solver-bound spread, and the wide-host p99 ceiling moves to the
        // solver tail: an SA cache miss is the p99 path now. Narrow hosts
        // (CI containers are routinely 1–2 cores) keep a degraded
        // throughput floor so a thin runner cannot mask a real regression.
        // The floors read the `host_threads` the report records.
        "throughput_rps >= 9000 if host_threads >= 4: the throughput is below the wide-host floor of the policy-mixed v3 stream",
        "latency_p99_us <= 50000 if host_threads >= 4: p99 is above the wide-host ceiling, the solver-tail bound of the policy-mixed v3 stream",
        "throughput_rps >= 3500 if host_threads < 4: the throughput is below the narrow-host floor of the policy-mixed v3 stream",
    ],
};

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"))
}

/// Median wall-clock nanoseconds per call over `samples` samples of
/// `iters` calls each.
fn measure<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> f64 {
    let [ns] = measure_alternating(samples, [iters], |_| f());
    ns
}

/// [`measure`] for `N` sides that take turns sample by sample, so host
/// drift moves them alike and their ratio divides it out. `f(side)` makes
/// one call of side `side`; a sample of side `side` makes `iters[side]`
/// calls.
fn measure_alternating<const N: usize, F: FnMut(usize)>(
    samples: usize,
    iters: [usize; N],
    mut f: F,
) -> [f64; N] {
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (side, t) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..iters[side] {
                f(side);
            }
            t.push(t0.elapsed().as_nanos() as f64 / iters[side] as f64);
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

/// Pushes one row per side of a [`measure_alternating`] result.
fn push_sides<const N: usize>(
    out: &mut Vec<BenchResult>,
    names: [&'static str; N],
    per_unit: &'static str,
    medians: [f64; N],
) {
    for (name, median_ns) in names.into_iter().zip(medians) {
        push(
            out,
            BenchResult {
                name,
                median_ns,
                per_unit,
            },
        );
    }
}

/// Runs the stage-1 suite; returns its results and the remap loop's
/// counters.
fn run_suite(samples: usize, scale: usize) -> (Vec<BenchResult>, Value) {
    let mut out = Vec::new();

    // --- pmf_ops territory: single-CDF lookup, prefix vs re-sum ---------
    let pmf = Normal::new(1_000.0, 100.0).unwrap().equiprobable(1024);
    let cdf = measure_alternating(samples, [2_000 * scale, 500 * scale], |side| {
        if side == 0 {
            black_box(pmf.cdf(black_box(1_050.0)));
        } else {
            black_box(legacy_cdf(&pmf, black_box(1_050.0)));
        }
    });
    push_sides(
        &mut out,
        ["pmf/cdf/prefix_1024", "pmf/cdf/legacy_scan_1024"],
        "lookup",
        cdf,
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
    let builds = measure_alternating(samples, [scale.max(1); 2], |side| {
        let threads = [1, 4][side];
        black_box(Phi1Engine::build_parallel(&rich_batch, &rich_platform, threads).unwrap());
    });
    push_sides(
        &mut out,
        ["phi1/engine_build/t1_p384", "phi1/engine_build/t4_p384"],
        "build",
        builds,
    );

    // --- pmf_build: fused loaded-PMF kernel vs two-step reference ---------
    // Every (app, type, power-of-two count) cell of a pulse-rich grid
    // (the regime where the avoided re-sort and intermediate PMF dominate),
    // built once per iteration: fused single-pass scale→quotient with a
    // reused scratch arena vs the legacy amdahl_rescale + quotient chain.
    let cells = engine_cells(&rich_batch, &rich_platform);
    let n_cells = cells.len() as f64;
    let rich_apps = rich_batch.apps();
    let pmf_build = measure_alternating(samples, [2 * scale; 2], |side| {
        if side == 0 {
            let mut scratch = CombineScratch::new();
            for &(i, j, n) in &cells {
                black_box(
                    loaded_time_pmf_in(&rich_apps[i], &rich_platform, j, n, &mut scratch).unwrap(),
                );
            }
        } else {
            for &(i, j, n) in &cells {
                let app = &rich_apps[i];
                let avail = rich_platform.proc_type(j).unwrap().availability();
                let parallel =
                    amdahl_rescale(app.exec_time(j).unwrap(), app.serial_fraction(), n).unwrap();
                black_box(parallel.quotient(avail).unwrap());
            }
        }
    });
    push_sides(
        &mut out,
        [
            "pmf_build/loaded_fused_p384",
            "pmf_build/loaded_two_step_p384",
        ],
        "cell",
        pmf_build.map(|ns| ns / n_cells),
    );

    let remap = remap_benches(&mut out, samples, 2 * scale, &batch, &platform);

    // --- probability-table derivation: SoA pass vs legacy nested scan -----
    let engine = Phi1Engine::build(&batch, &platform).unwrap();
    let deadlines: Vec<f64> = (0..32).map(|i| 1_200.0 + 100.0 * i as f64).collect();
    let sweeps = measure_alternating(samples, [5 * scale; 2], |side| {
        for &d in &deadlines {
            if side == 0 {
                black_box(engine.table(d).unwrap());
                continue;
            }
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
    });
    push_sides(
        &mut out,
        ["phi1/table_sweep/soa_32d", "phi1/table_sweep/legacy_32d"],
        "sweep",
        sweeps,
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
    let mutations = measure_alternating(samples, [scale.max(1); 2], |side| {
        let mut acc = 0.0;
        if side == 0 {
            let mut delta = DeltaFitness::new(&probs, &genome);
            for &(app, asg) in &moves {
                delta.set_gene(app, asg);
                acc += delta.fitness();
            }
        } else {
            let mut g = genome.clone();
            for &(app, asg) in &moves {
                g[app] = asg;
                acc += full_fitness(&table, &g);
            }
        }
        black_box(acc);
    });
    push_sides(
        &mut out,
        [
            "phi1/sa_mutation/delta_apps64",
            "phi1/sa_mutation/full_recompute_apps64",
        ],
        "mutation_eval",
        mutations.map(|ns| ns / n_moves),
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
    // The lattice's warm path (engine + scratch reused) is what a serve
    // shard's repeated allocations against a cached engine pay; it
    // alternates with SA as the two sides of `lattice_vs_sa_speedup`.
    let sa_engine = Phi1Engine::build(&sa_batch, &sa_platform).unwrap();
    let lattice = cdsf_ra::Lattice::new(1).unwrap();
    let mut lattice_scratch = cdsf_ra::LatticeScratch::new();
    let [sa_ns, lattice_ns] = measure_alternating(samples, [1, 20 * scale], |side| {
        if side == 0 {
            black_box(sa.allocate(&sa_batch, &sa_platform, DEADLINE).unwrap());
        } else {
            black_box(
                lattice
                    .solve_with_engine(&sa_platform, &sa_engine, DEADLINE, &mut lattice_scratch)
                    .unwrap(),
            );
        }
    });
    push_sides(&mut out, ["ra/sa_allocate/apps16"], "allocation", [sa_ns]);

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
    push_sides(
        &mut out,
        ["ra/lattice_allocate/apps16"],
        "allocation",
        [lattice_ns],
    );
    // The same solver at one and two workers on both sides of its
    // serial-first budget: a short search, as the serve's `lattice`
    // policy runs it at the shard's build width, and a search long
    // enough that the root split pays.
    let (short_batch, short_platform) = bench_instance(24);
    let short_engine = Phi1Engine::build(&short_batch, &short_platform).unwrap();
    let workers = [1, 2].map(|threads| cdsf_ra::Lattice::new(threads).unwrap());
    let [short_t1, short_t2] = measure_alternating(samples, [20 * scale; 2], |side| {
        black_box(
            workers[side]
                .allocate_with_engine(&short_batch, &short_platform, &short_engine, 2_000.0)
                .unwrap(),
        );
    });
    let [long_t1, long_t2] = measure_alternating(samples, [scale.max(1); 2], |side| {
        black_box(
            workers[side]
                .allocate_with_engine(&sa_batch, &sa_platform, &sa_engine, SPLIT_DEADLINE)
                .unwrap(),
        );
    });
    push_sides(
        &mut out,
        [
            "ra/lattice_allocate/apps24_d2000_t1",
            "ra/lattice_allocate/apps24_d2000_t2",
            "ra/lattice_allocate/apps16_d7000_t1",
            "ra/lattice_allocate/apps16_d7000_t2",
        ],
        "allocation",
        [short_t1, short_t2, long_t1, long_t2],
    );
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
    let passes = measure_alternating(samples, [1; 2], |side| {
        thrash_pass(&thrash, [None, Some(&store)][side]);
    });
    push_sides(
        &mut out,
        [
            "cell_store/thrash_build/storeless_churn3000",
            "cell_store/thrash_build/store_churn3000",
        ],
        "build",
        passes.map(|ns| ns / THRASH_BUILDS as f64),
    );

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

/// Instance `index` of the benchmark's dual-stage pool seeded `seed`: 8
/// applications with 16-pulse PMFs on 4 types of 8–16 processors, at
/// Δ = 4 000. In instance 16 ([`CONTENDED_POOL`]), app 0's only option
/// with a positive deadline probability needs 8 of type 2's 13
/// processors, so it fits beside no other application taking 8 there — a
/// fullness the lattice's total-budget bound cannot see.
fn pool_instance((seed, index): (u64, u64)) -> (Batch, Platform, f64) {
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
/// `contended` and `largest_pool` blocks hold the 1-thread counters of
/// the pool instances [`CONTENDED_POOL`] and [`LARGEST_POOL`]; the
/// `contended` block also the φ1 of exhaustive search there, which the
/// second exactness guard compares with the lattice's.
fn ra_lattice_section(scale: usize) -> Value {
    use cdsf_ra::robustness::evaluate;
    use cdsf_ra::Allocator;

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
    let mut pool_block = |pool: (u64, u64), exact: bool| {
        let (batch, platform, deadline) = pool_instance(pool);
        let engine = Phi1Engine::build(&batch, &platform).unwrap();
        let (_, report) = lattice
            .solve_with_engine(&platform, &engine, deadline, &mut scratch)
            .expect("lattice solve must succeed on the pool instance");
        let mut block = json!({
            "pool_seed": pool.0,
            "pool_index": pool.1,
            "apps": batch.len(),
            "types": platform.num_types(),
            "deadline": deadline,
            "threads": 1,
            "phi1": report.phi1,
            "counters": counters_json(&report.counters),
        });
        if exact {
            let alloc = cdsf_ra::allocators::Exhaustive
                .allocate_with_engine(&batch, &platform, &engine, deadline)
                .expect("exhaustive search must allocate on the pool instance");
            let phi1 = evaluate(&batch, &platform, &alloc, deadline)
                .expect("the exhaustive allocation must evaluate")
                .joint;
            if let Value::Object(map) = &mut block {
                map.insert("exhaustive_phi1".into(), phi1.into());
            }
        }
        block
    };
    let contended = pool_block(CONTENDED_POOL, true);
    let largest_pool = pool_block(LARGEST_POOL, false);
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
        "contended": contended,
        "largest_pool": largest_pool,
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
    // The queries stay inside the warmed range, so the timeline never
    // grows and the legacy walks see the same segment table.
    let (mut tl, queries) = warmed_timeline(STAGE2_SEGMENTS as f64 * 5.0);
    let mut rng = StdRng::seed_from_u64(1);
    let n_q = queries.len() as f64;
    let (starts, levels, _) = tl.segments();
    let (starts, levels) = (starts.to_vec(), levels.to_vec());
    let iters = [200 * scale, 2 * scale];
    let finish = measure_alternating(samples, iters, |side| {
        let mut acc = 0.0;
        if side == 0 {
            for &(start, work) in &queries {
                acc += tl.finish_time(black_box(start), black_box(work), &mut rng);
            }
        } else {
            for &(start, work) in &queries {
                acc += legacy_finish_time(&starts, &levels, black_box(start), work);
            }
        }
        black_box(acc);
    });
    push_sides(
        &mut out,
        [
            "timeline/finish_time/prefix_10k",
            "timeline/finish_time/legacy_walk_10k",
        ],
        "lookup",
        finish.map(|ns| ns / n_q),
    );
    let work = measure_alternating(samples, iters, |side| {
        let mut acc = 0.0;
        if side == 0 {
            for &(t0, span) in &queries {
                acc += tl.work_between(black_box(t0), black_box(t0 + span), &mut rng);
            }
        } else {
            for &(t0, span) in &queries {
                acc += legacy_work_between(&starts, &levels, black_box(t0), t0 + span);
            }
        }
        black_box(acc);
    });
    push_sides(
        &mut out,
        [
            "timeline/work_between/prefix_10k",
            "timeline/work_between/legacy_scan_10k",
        ],
        "lookup",
        work.map(|ns| ns / n_q),
    );
    let mean = measure_alternating(samples, iters, |side| {
        let mut acc = 0.0;
        if side == 0 {
            for &(t, _) in &queries {
                acc += tl.mean_availability_until(black_box(t.max(1.0)), &mut rng);
            }
        } else {
            for &(t, _) in &queries {
                let t = t.max(1.0);
                acc += legacy_work_between(&starts, &levels, 0.0, black_box(t)) / t;
            }
        }
        black_box(acc);
    });
    push_sides(
        &mut out,
        [
            "timeline/mean_avail/prefix_10k",
            "timeline/mean_avail/legacy_scan_10k",
        ],
        "lookup",
        mean.map(|ns| ns / n_q),
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
    let replicates = measure_alternating(samples, [scale.max(1); 2], |side| {
        let mut scratch = (side == 0).then(ExecutorScratch::new);
        let mut acc = 0.0;
        for r in 0..STAGE2_REPLICATES {
            let mut rng = StdRng::seed_from_u64(100 + r);
            let run = match &mut scratch {
                Some(scratch) => execute_in(&TechniqueKind::Fac, &cfg, scratch, &mut rng),
                None => execute(&TechniqueKind::Fac, &cfg, &mut rng),
            };
            acc += run.unwrap().makespan;
        }
        black_box(acc);
    });
    push_sides(
        &mut out,
        [
            "executor/replicates25/scratch_arena",
            "executor/replicates25/fresh_alloc",
        ],
        "replicate",
        replicates.map(|ns| ns / STAGE2_REPLICATES as f64),
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
    let params = [1, 4].map(|threads| SimParams {
        replicates: STAGE2_REPLICATES as usize,
        threads,
        ..Default::default()
    });
    let grids = measure_alternating(samples, [scale.max(1); 2], |side| {
        black_box(
            simulate_grid(
                &batch,
                &alloc,
                &cases,
                &techniques,
                paper::DEADLINE,
                &params[side],
            )
            .unwrap(),
        );
    });
    push_sides(
        &mut out,
        ["grid/replicates25/threads1", "grid/replicates25/threads4"],
        "grid",
        grids,
    );

    // --- the dual-stage pipeline's Stage II at one thread -----------------
    let (cdsf, alloc) = dualstage_shape_grid();
    let techniques = RasPolicy::Robust.techniques();
    let serial = SimParams {
        threads: 1,
        ..*cdsf.sim_params()
    };
    let shape = measure(samples, scale.max(1), || {
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
        );
    });
    push_sides(&mut out, ["grid/dualstage_shape"], "grid", [shape]);

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

/// The `benches` array of a snapshot: each result's name, median and unit.
fn benches_json(results: &[BenchResult]) -> Value {
    results
        .iter()
        .map(|r| json!({"name": r.name, "median_ns": r.median_ns, "per": r.per_unit}))
        .collect::<Vec<_>>()
        .into()
}

fn to_json(results: &[BenchResult], remap_loop: Value, mode: &str, scale: usize) -> Value {
    let benches = benches_json(results);
    let derived = Value::Object(derive(STAGE1.ratios, &benches));
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
        "benches": benches,
        "pool": pool_section(),
        "ra_lattice": ra_lattice_section(scale),
        "cell_store": cell_store_section(),
        "remap": remap_loop,
        "derived": derived,
    })
}

fn to_stage2_json(results: &[BenchResult], mode: &str) -> Value {
    let benches = benches_json(results);
    let derived = Value::Object(derive(STAGE2.ratios, &benches));
    json!({
        "schema_version": STAGE2_SCHEMA_VERSION,
        "mode": mode,
        "instance": json!({
            "timeline_segments": STAGE2_SEGMENTS,
            "replicates": STAGE2_REPLICATES,
            "executor_workers": 12,
            "executor_parallel_iters": 2_048,
            "grid_cells": 6,
            "dualstage_shape_cells": 128,
            "host_threads": cdsf_core::default_threads(),
        }),
        "benches": benches,
        "derived": derived,
    })
}

/// The `derived` block of a snapshot whose `benches` array is `benches`:
/// each of `ratios` (see [`Suite`]) in declaration order, `null` where a
/// bench it names is missing.
fn derive(ratios: &[&str], benches: &Value) -> serde_json::Map {
    let median =
        |name: &str| benches.as_array()?.iter().find(|b| b["name"] == name)?["median_ns"].as_f64();
    let mut derived = serde_json::Map::new();
    for ratio in ratios {
        let syntax = "a ratio reads `key = numerator / denominator`";
        let (key, quotient) = ratio.split_once(" = ").expect(syntax);
        let (numerator, denominator) = quotient.split_once(" / ").expect(syntax);
        let numerator = numerator.parse().ok().or_else(|| median(numerator));
        let value = numerator
            .zip(median(denominator))
            .map(|(n, d): (f64, f64)| n / d);
        derived.insert(key.to_string(), value.map_or(Value::Null, Value::from));
    }
    derived
}

impl Suite {
    /// The suite's rows: the schema row and the invariants, then with
    /// `floors` a row per ratio that it is positive, and the floors.
    fn rows(&self, floors: bool) -> Vec<String> {
        let schema = self.schema;
        let mut rows = vec![format!(
            "schema_version == {schema}: the snapshot is not schema version {schema}"
        )];
        rows.extend(self.invariants.iter().map(|row| row.to_string()));
        if floors {
            for ratio in self.ratios {
                let (key, _) = ratio.split_once(" = ").expect("a ratio reads `key = ...`");
                rows.push(format!(
                    "derived.{key} > 0: the ratio is missing or not positive"
                ));
            }
            rows.extend(self.floors.iter().map(|row| row.to_string()));
        }
        rows
    }

    /// Why `snapshot` fails the suite: each row that refuses it (the
    /// floors only with `floors`), then each recorded ratio that is not,
    /// bit for bit, its recomputation from the snapshot's medians.
    fn refusals(&self, snapshot: &Value, floors: bool) -> Vec<String> {
        let mut refusals: Vec<String> = self
            .rows(floors)
            .iter()
            .filter_map(|row| refusal(snapshot, row))
            .collect();
        for (key, value) in derive(self.ratios, &snapshot["benches"]).iter() {
            let recorded = &snapshot["derived"][key.as_str()];
            let bits = |v: &Value| v.as_f64().map(f64::to_bits);
            if bits(value).is_none() || bits(value) != bits(recorded) {
                refusals.push(format!(
                    "derived.{key} records {recorded}, but its medians give {value}"
                ));
            }
        }
        refusals
    }
}

/// A guard row's test, its condition and its reason (see [`Suite`]).
fn row_parts(row: &str) -> (&str, Option<&str>, &str) {
    let (test, why) = row
        .split_once(": ")
        .expect("a guard row ends in `: reason`");
    match test.split_once(" if ") {
        Some((test, condition)) => (test, Some(condition), why),
        None => (test, None, why),
    }
}

/// A test's left side, comparison and right side.
fn test_parts(test: &str) -> (&str, &str, &str) {
    ["<=", ">=", "==", "<", ">"]
        .into_iter()
        .find_map(|op| {
            let (lhs, rhs) = test.split_once(&format!(" {op} "))?;
            Some((lhs, op, rhs))
        })
        .unwrap_or_else(|| panic!("guard `{test}` has no comparison"))
}

/// Why `row` refuses `snapshot`, or `None` if it holds.
fn refusal(snapshot: &Value, row: &str) -> Option<String> {
    let (test, condition, why) = row_parts(row);
    if let Some(condition) = condition {
        match compare(snapshot, condition) {
            (Some(true), _) => {}
            (Some(false), _) => return None,
            (None, read) => return Some(format!("{condition} reads {read}: {why}")),
        }
    }
    let tests = match test.split_once(".*") {
        None => vec![test.to_string()],
        Some((head, _)) => {
            let array = head.rsplit([' ', '(']).next().unwrap_or(head);
            let Some(items) = resolve(snapshot, array).as_array() else {
                return Some(format!("{array} is not an array: {why}"));
            };
            (0..items.len())
                .map(|i| test.replace(".*", &format!(".{i}")))
                .collect()
        }
    };
    tests.iter().find_map(|test| match compare(snapshot, test) {
        (Some(true), _) => None,
        (_, read) => Some(format!("{test} reads {read}: {why}")),
    })
}

/// Whether `test` (`lhs op rhs`) holds on `snapshot`, `None` when its
/// sides cannot be read or compared, and the values it read.
fn compare(snapshot: &Value, test: &str) -> (Option<bool>, String) {
    let (lhs, op, rhs) = test_parts(test);
    let (a, b) = (eval(snapshot, lhs), eval(snapshot, rhs));
    let order = match (&a, &b) {
        (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
        _ => a
            .as_f64()
            .zip(b.as_f64())
            .and_then(|(a, b)| a.partial_cmp(&b)),
    };
    let holds = order.map(|order| match op {
        "<=" => order.is_le(),
        ">=" => order.is_ge(),
        "==" => order.is_eq(),
        "<" => order.is_lt(),
        _ => order.is_gt(),
    });
    (holds, format!("{a} {op} {b}"))
}

type Tokens<'a> = std::iter::Peekable<std::str::SplitWhitespace<'a>>;

/// The value of one side of a guard row in `snapshot`: `null` when it
/// reads a missing path or applies an operation to a value of the wrong
/// kind.
fn eval(snapshot: &Value, side: &str) -> Value {
    let spaced = side.replace('(', " ( ").replace(')', " ) ");
    let mut tokens = spaced.split_whitespace().peekable();
    let value = eval_sum(snapshot, &mut tokens);
    assert!(
        tokens.next().is_none(),
        "guard side `{side}` has trailing tokens"
    );
    value
}

/// `product (+ product)*`.
fn eval_sum(snapshot: &Value, tokens: &mut Tokens) -> Value {
    let mut sum = eval_product(snapshot, tokens);
    while let Some(op) = tokens.next_if_eq(&"+") {
        sum = arithmetic(&sum, op, &eval_product(snapshot, tokens));
    }
    sum
}

/// `atom ((* | /) atom)*`.
fn eval_product(snapshot: &Value, tokens: &mut Tokens) -> Value {
    let mut product = eval_atom(snapshot, tokens);
    while let Some(op) = tokens.next_if(|token| ["*", "/"].contains(token)) {
        product = arithmetic(&product, op, &eval_atom(snapshot, tokens));
    }
    product
}

/// A number, `true`, `false`, a path, or a function of a sum.
fn eval_atom(snapshot: &Value, tokens: &mut Tokens) -> Value {
    let word = tokens.next().expect("a guard side ends early");
    if tokens.next_if_eq(&"(").is_some() {
        let arg = eval_sum(snapshot, tokens);
        assert_eq!(tokens.next(), Some(")"), "`{word}(` is not closed");
        let value = match word {
            "len" => arg
                .as_array()
                .map(Vec::len)
                .or(arg.as_str().map(str::len))
                .map(Value::from),
            "sum" => arg
                .as_array()
                .map(|items| items.iter().filter_map(Value::as_u64).sum::<u64>().into()),
            "has" => Some(Value::Bool(!arg.is_null())),
            "ceil" => arg.as_f64().map(|x| x.ceil().into()),
            _ => panic!("unknown guard function `{word}`"),
        };
        return value.unwrap_or(Value::Null);
    }
    match word {
        "true" | "false" => Value::Bool(word == "true"),
        _ if word.starts_with(|c: char| c.is_ascii_digit()) => word
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad guard number `{word}`"))
            .into(),
        _ => resolve(snapshot, word).clone(),
    }
}

/// The value at `path` in `snapshot` (`.`-separated keys; a numeric key
/// indexes an array), or `null`.
fn resolve<'a>(snapshot: &'a Value, path: &str) -> &'a Value {
    path.split('.')
        .fold(snapshot, |value, key| match key.parse::<usize>() {
            Ok(index) => &value[index],
            Err(_) => &value[key],
        })
}

/// `a op b` for `op` one of `+`, `*` and `/`, or `null` if either side is
/// not a number or the result is not finite.
fn arithmetic(a: &Value, op: &str, b: &Value) -> Value {
    let Some((a, b)) = a.as_f64().zip(b.as_f64()) else {
        return Value::Null;
    };
    match op {
        "+" => a + b,
        "*" => a * b,
        _ => a / b,
    }
    .into()
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

/// Replays the loadgen stream of [`serve_configs`] against an in-process
/// server and returns its report.
fn serve_report(check: bool) -> Value {
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
    serde_json::to_value(&report)
}

/// Prints each of `refusals` of `what` and exits 1, if there are any.
fn exit_on(refusals: Vec<String>, what: &str) {
    for refusal in &refusals {
        eprintln!("error: {what}: {refusal}");
    }
    if !refusals.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let check = flag("--check");
    let (samples, scale, mode) = if check {
        (3, 1, "check")
    } else {
        (9, 4, "full")
    };
    let (suite, fresh) = if flag("--serve") {
        (&SERVE, serve_report(check))
    } else if flag("--stage2") {
        eprintln!("running Stage-II kernel suite ({mode} mode)...");
        (
            &STAGE2,
            to_stage2_json(&run_stage2_suite(samples, scale), mode),
        )
    } else {
        eprintln!("running φ₁ kernel suite ({mode} mode)...");
        let (results, remap) = run_suite(samples, scale);
        (&STAGE1, to_json(&results, remap, mode, scale))
    };
    for (key, v) in fresh["derived"].as_object().iter().flat_map(|d| d.iter()) {
        if key.ends_with("_speedup") || key.ends_with("_overhead") {
            eprintln!("  {:<28} {:.2}x", key, v.as_f64().unwrap());
        } else {
            eprintln!("  {:<28} {:.3e}", key, v.as_f64().unwrap());
        }
    }
    let path = snapshot_path(suite.file);
    // A smoke pass is too short to time anything, so its own results are
    // held to the rows that bound no timing and no replay size.
    exit_on(suite.refusals(&fresh, !check), "fresh snapshot");
    if check {
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|raw| serde_json::from_str(&raw).map_err(|e| format!("not valid JSON: {e}")))
            .unwrap_or_else(|e| {
                eprintln!("error: committed snapshot {} is {e}", path.display());
                std::process::exit(1);
            });
        exit_on(suite.refusals(&committed, true), "committed snapshot");
        eprintln!("ok: committed {} passes every guard", path.display());
    } else {
        std::fs::write(&path, serde_json::to_string_pretty(&fresh).unwrap())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITES: [&Suite; 3] = [&STAGE1, &STAGE2, &SERVE];

    fn committed(suite: &Suite) -> Value {
        let raw = std::fs::read_to_string(snapshot_path(suite.file))
            .expect("the committed snapshot is readable");
        serde_json::from_str(&raw).expect("the committed snapshot is JSON")
    }

    /// `snapshot` with the value at `path` set to `value`, or removed
    /// when `value` is `None`.
    fn edit(snapshot: &Value, path: &str, value: Option<Value>) -> Value {
        let (key, rest) = match path.split_once('.') {
            Some((key, rest)) => (key, Some(rest)),
            None => (path, None),
        };
        let child = |old: &Value| match rest {
            Some(rest) => Some(edit(old, rest, value.clone())),
            None => value.clone(),
        };
        match snapshot {
            Value::Array(items) => {
                let index: usize = key.parse().expect("an array index");
                let mut items = items.clone();
                match child(&items[index]) {
                    Some(item) => items[index] = item,
                    None => drop(items.remove(index)),
                }
                Value::Array(items)
            }
            Value::Object(map) => {
                let mut out = serde_json::Map::new();
                for (k, v) in map.iter() {
                    match (k == key).then(|| child(v)) {
                        None => out.insert(k.clone(), v.clone()),
                        Some(Some(v)) => out.insert(k.clone(), v),
                        Some(None) => None,
                    };
                }
                if !map.contains_key(key) {
                    out.insert(key.to_string(), value.expect("a new leaf has a value"));
                }
                Value::Object(out)
            }
            _ => panic!("`{key}` indexes a scalar"),
        }
    }

    /// The rows of `suite`, floors included, that refuse `snapshot`.
    fn failing(suite: &Suite, snapshot: &Value) -> Vec<String> {
        let rows = suite.rows(true).into_iter();
        rows.filter(|row| refusal(snapshot, row).is_some())
            .collect()
    }

    /// The verdict of `suite`'s rows on `snapshot`.
    fn accepts(suite: &Suite, snapshot: &Value) -> bool {
        failing(suite, snapshot).is_empty()
    }

    /// `snapshot` with the one path on the left of `test` set just on its
    /// holding (`hold`) or failing side of the right: one away for an
    /// integer, a billionth away for a fraction.
    fn nudge(snapshot: &Value, test: &str, hold: bool) -> Value {
        let (lhs, op, rhs) = test_parts(test);
        let path = lhs.replace(".*", ".0");
        let value = match eval(snapshot, rhs) {
            Value::Bool(bound) => Value::Bool(bound == hold),
            bound => {
                let bound = bound.as_f64().expect("a numeric bound");
                let integer = resolve(snapshot, &path).as_u64().is_some();
                let step = if integer {
                    1.0
                } else {
                    1e-9 * bound.abs().max(1.0)
                };
                let value = match (op, hold) {
                    (">=" | "<=" | "==", true) | (">" | "<", false) => bound,
                    (">", true) | ("<=" | "==", false) => bound + step,
                    ("<", true) | (">=", false) => bound - step,
                    _ => panic!("no nudge for `{test}`"),
                };
                if integer {
                    Value::from(value as i64)
                } else {
                    Value::from(value)
                }
            }
        };
        edit(snapshot, &path, Some(value))
    }

    /// `snapshot` with `pool.tasks_seeded_per_worker` rewritten by `f`.
    fn reseed(snapshot: &Value, f: fn(&mut Vec<u64>)) -> Value {
        let seeded = snapshot["pool"]["tasks_seeded_per_worker"]
            .as_array()
            .unwrap();
        let mut tasks: Vec<u64> = seeded.iter().map(|t| t.as_u64().unwrap()).collect();
        f(&mut tasks);
        edit(snapshot, "pool.tasks_seeded_per_worker", Some(tasks.into()))
    }

    fn set(snapshot: &Value, path: &str, value: Value) -> Value {
        edit(snapshot, path, Some(value))
    }

    type Edit = fn(&Value) -> Value;

    /// Violations of the rows a [`nudge`] of their left side cannot break
    /// without breaking another row too.
    const EDITS: &[(&str, Edit)] = &[
        ("len(benches) > 0", |s| set(s, "benches", json!([]))),
        ("len(benches.*.name) >= 0", |s| {
            set(s, "benches.0.name", json!(1))
        }),
        ("len(pool.tasks_per_worker) == pool.workers", |s| {
            let mut tasks = s["pool"]["tasks_per_worker"].as_array().unwrap().clone();
            tasks.push(json!(0));
            set(s, "pool.tasks_per_worker", tasks.into())
        }),
        ("len(pool.tasks_seeded_per_worker) == pool.workers", |s| {
            reseed(s, |t| {
                let last = t.pop().unwrap();
                t.extend([last - 1, 1]);
            })
        }),
        (
            "sum(pool.tasks_seeded_per_worker) == pool.tasks_total",
            |s| reseed(s, |t| *t.iter_mut().min().unwrap() += 1),
        ),
        ("pool.tasks_seeded_per_worker.* > 0", |s| {
            reseed(s, |t| {
                t.sort();
                t[1] += t[0];
                t[0] = 0;
            })
        }),
        // The pre-v6 seeding: everything on one deque.
        (
            "pool.tasks_seeded_per_worker.* <= 2 * ceil(pool.tasks_total / pool.workers)",
            |s| {
                reseed(s, |t| {
                    let total: u64 = t.iter().sum();
                    let others = t.len() as u64 - 1;
                    t.fill(1);
                    t[0] = total - others;
                })
            },
        ),
        ("len(stats.per_shard) == shards", |s| {
            set(s, "shards", json!(s["shards"].as_u64().unwrap() + 1))
        }),
        ("shards >= 2", |s| {
            let one_row = json!([s["stats"]["per_shard"][0].clone()]);
            set(&set(s, "shards", json!(1)), "stats.per_shard", one_row)
        }),
        ("cell_store_hits + cell_store_misses > 0", |s| {
            set(
                &set(s, "cell_store_hits", json!(0)),
                "cell_store_misses",
                json!(0),
            )
        }),
        // A suboptimal lattice answer: its φ₁ lowered.
        (
            "ra_lattice.contended.phi1 == ra_lattice.contended.exhaustive_phi1",
            |s| {
                let phi1 = s["ra_lattice"]["contended"]["phi1"].as_f64().unwrap();
                set(s, "ra_lattice.contended.phi1", json!(phi1 * 0.5))
            },
        ),
        ("ra_lattice.contended.phi1 > 0", |s| {
            let s = set(s, "ra_lattice.contended.phi1", json!(0.0));
            set(&s, "ra_lattice.contended.exhaustive_phi1", json!(0.0))
        }),
        ("has(stats.total.shard) == false", |s| {
            set(s, "stats.total.shard", json!(0))
        }),
        ("sum(stats.total.drain_depths) > 0", |s| {
            set(s, "stats.total.drain_depths", json!([0]))
        }),
        ("stats.codec.reply_frames > 0", |s| {
            let s = set(s, "stats.codec.reply_frames", json!(0));
            set(&s, "stats.codec.flushes", json!(0))
        }),
    ];

    /// Rows that other rows imply, so that breaking one breaks those too.
    const IMPLIED: &[&str] = &[
        "pool.workers > 0",
        "pool.tasks_total > 0",
        "throughput_rps > 0",
        "derived.lattice_vs_sa_speedup > 0",
        "derived.lattice_split_speedup > 0",
        "derived.engine_build_t4_vs_t1 > 0",
        "derived.gamma_robust_speedup_vs_v5 > 0",
        "derived.cell_store_warm_speedup > 0",
        "derived.grid_thread4_speedup > 0",
    ];

    fn violate(snapshot: &Value, test: &str) -> Value {
        match EDITS.iter().find(|(row, _)| *row == test) {
            Some((_, edit)) => edit(snapshot),
            None => nudge(snapshot, test, false),
        }
    }

    /// `snapshot` with the left side of every refusing row nudged until
    /// the rows accept it.
    fn repair(suite: &Suite, mut snapshot: Value) -> Value {
        for _ in 0..4 {
            let rows = failing(suite, &snapshot);
            if rows.is_empty() {
                return snapshot;
            }
            for row in rows {
                snapshot = nudge(&snapshot, row_parts(&row).0, true);
            }
        }
        panic!("{} cannot be repaired", suite.file)
    }

    /// The paths `text` reads, `.*` read at element 0.
    fn paths(text: &str) -> Vec<String> {
        let words = text.replace(['(', ')'], " ");
        let words = words.split_whitespace();
        let keywords = ["len", "sum", "has", "ceil", "true", "false", "if"];
        words
            .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic()) && !keywords.contains(w))
            .map(|w| w.replace(".*", ".0"))
            .collect()
    }

    /// Each committed snapshot passes every row and ratio. Each row, on
    /// the side of its condition where it binds (its condition made true
    /// and the rows that then refuse repaired, where it is false on the
    /// committed file), refuses a copy that breaks only it and a copy
    /// without any path it reads, and stays silent when its condition is
    /// false.
    #[test]
    fn every_row_refuses_what_it_guards() {
        for suite in SUITES {
            let base = committed(suite);
            let refusals = suite.refusals(&base, true);
            assert!(refusals.is_empty(), "{}: {refusals:?}", suite.file);
            for row in suite.rows(true) {
                let (test, condition, _) = row_parts(&row);
                let binding = match condition {
                    Some(c) if !compare(&base, c).0.unwrap() => {
                        repair(suite, nudge(&base, c, true))
                    }
                    _ => base.clone(),
                };
                assert!(
                    accepts(suite, &binding),
                    "{row}: the repaired copy is refused"
                );
                let broken = failing(suite, &violate(&binding, test));
                assert!(broken.contains(&row), "{row}: breaking it leaves it silent");
                assert_eq!(
                    broken.len() > 1,
                    IMPLIED.contains(&test),
                    "{row}: breaking it breaks {broken:?}"
                );
                let read = paths(row.split_once(": ").unwrap().0);
                for path in read.iter().filter(|p| !resolve(&binding, p).is_null()) {
                    let without = edit(&binding, path, None);
                    assert!(
                        !accepts(suite, &without),
                        "{row}: accepts a copy without {path}"
                    );
                }
                if let Some(c) = condition {
                    let off = nudge(&binding, c, false);
                    let broken = failing(suite, &violate(&off, test));
                    assert!(!broken.contains(&row), "{row}: fires with `{c}` false");
                }
            }
        }
    }

    /// The floors and ceilings the snapshots are held to, written apart
    /// from the table: with `host` host threads recorded (and the rows
    /// that then refuse repaired), `path` at `pass` passes every row and
    /// at `fail` is refused.
    #[test]
    fn the_floors_and_ceilings_stay_where_they_were() {
        let cases: &[(&Suite, Option<u64>, &str, f64, f64)] = &[
            (&STAGE1, None, "derived.lattice_vs_sa_speedup", 10.0, 9.99),
            (&STAGE1, None, "derived.lattice_split_overhead", 1.5, 1.51),
            (
                &STAGE1,
                Some(2),
                "derived.lattice_split_speedup",
                1.15,
                1.14,
            ),
            (&STAGE1, Some(1), "derived.lattice_split_speedup", 0.7, 0.69),
            (&STAGE1, Some(4), "derived.engine_build_t4_vs_t1", 3.0, 2.99),
            (&STAGE1, Some(3), "derived.engine_build_t4_vs_t1", 0.7, 0.69),
            (&STAGE1, None, "derived.cell_store_warm_speedup", 5.0, 4.99),
            (
                &STAGE1,
                None,
                "derived.cell_store_thrash_overhead",
                1.0,
                1.01,
            ),
            (
                &STAGE1,
                None,
                "derived.gamma_robust_speedup_vs_v5",
                2.0,
                1.99,
            ),
            (
                &STAGE1,
                None,
                "ra_lattice.contended.counters.nodes",
                20_000.0,
                20_001.0,
            ),
            (
                &STAGE1,
                None,
                "ra_lattice.largest_pool.counters.nodes",
                65_536.0,
                65_537.0,
            ),
            (&STAGE2, Some(4), "derived.grid_thread4_speedup", 3.0, 2.99),
            (&STAGE2, Some(3), "derived.grid_thread4_speedup", 1.0, 0.99),
            (&SERVE, None, "requests", 10_000.0, 9_999.0),
            (&SERVE, None, "tenants", 4.0, 3.0),
            (&SERVE, None, "shards", 2.0, 1.0),
            (&SERVE, Some(4), "throughput_rps", 9_000.0, 8_999.0),
            (&SERVE, Some(4), "latency_p99_us", 50_000.0, 50_001.0),
            (&SERVE, Some(3), "throughput_rps", 3_500.0, 3_499.0),
        ];
        for &(suite, host, path, pass, fail) in cases {
            let mut base = committed(suite);
            if let Some(host) = host {
                let at = if suite.ratios.is_empty() {
                    "host_threads"
                } else {
                    "instance.host_threads"
                };
                base = repair(suite, set(&base, at, host.into()));
            }
            let at = |value: f64| failing(suite, &set(&base, path, value.into()));
            assert_eq!(
                at(pass),
                Vec::<String>::new(),
                "{path} = {pass} at {host:?} host threads"
            );
            assert_ne!(
                at(fail),
                Vec::<String>::new(),
                "{path} = {fail} at {host:?} host threads"
            );
        }
    }

    /// A recorded ratio one ulp off its medians' is refused, and nothing
    /// else about the copy is.
    #[test]
    fn a_derived_ratio_must_equal_its_medians_ratio() {
        for suite in [&STAGE1, &STAGE2] {
            let base = committed(suite);
            for ratio in suite.ratios {
                let path = format!("derived.{}", ratio.split_once(" = ").unwrap().0);
                let off = f64::from_bits(resolve(&base, &path).as_f64().unwrap().to_bits() + 1);
                let refusals = suite.refusals(&set(&base, &path, off.into()), true);
                assert_eq!(refusals.len(), 1, "{path}: {refusals:?}");
                assert!(refusals[0].starts_with(&path), "{path}: {refusals:?}");
            }
        }
    }
}
