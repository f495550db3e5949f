//! Stress suite for store-only engine assembly under cell-store
//! starvation.
//!
//! Every engine a serve shard or the event engine builds is assembled by
//! [`Phi1Engine::build_with`] against a [`CellStore`]. A fixed 60-step
//! script over a working set of five inputs runs twice: against a store
//! large enough for the whole working set, and against one holding fewer
//! cells than a single engine needs, so that eviction constantly races
//! the builds. Two properties must hold:
//!
//! 1. **Each distinct cell is computed once** (default store): every
//!    cell a build shares with an earlier build comes from the store.
//! 2. **Eviction never costs correctness.** Whatever got evicted, every
//!    engine is bit-identical (via `table_fingerprint`) to a fresh serial
//!    build for the same inputs, and the whole sequence is
//!    deterministic: replaying it on a second store produces the same
//!    counters at every step.

use cdsf_events::remap::degraded_platform;
use cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY;
use cdsf_ra::{CellStore, EngineBuild, Phi1Engine};
use cdsf_system::{Batch, Platform, ProcTypeId};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};

fn base_instance() -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types: 2,
        procs_per_type: (4, 8),
        availability_pulses: 3,
        availability_range: Range::new(0.4, 1.0).unwrap(),
    }
    .generate(11)
    .unwrap();
    let batch = BatchGenerator {
        num_apps: 4,
        total_iters: (1_000, 4_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 4_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses: 6,
    }
    .generate(&platform, 12)
    .unwrap();
    (batch, platform)
}

/// A working set of 5 distinct inputs: the base platform plus four
/// single-type degradations. Only type 0's availability changes, so every
/// variant shares its type-1 cells with the others through the store —
/// reuse and eviction are both in play.
fn working_set() -> (Batch, Vec<Platform>) {
    let (batch, base) = base_instance();
    let mut platforms = vec![base.clone()];
    for factor in [0.95, 0.9, 0.85, 0.8] {
        platforms.push(degraded_platform(&base, 0, factor).unwrap());
    }
    (batch, platforms)
}

/// Cells of one engine of the working set, per processor type.
fn cells(batch: &Batch, platform: &Platform, ty: usize) -> u64 {
    let options = platform.pow2_options(ProcTypeId(ty)).unwrap();
    (batch.len() * options.len()) as u64
}

/// One step's observable result, for cross-run determinism comparison.
#[derive(Debug, PartialEq, Eq)]
struct StepTrace {
    variant: usize,
    tasks: usize,
    store_hits: u64,
    store_misses: u64,
    evictions: u64,
    resident: u64,
}

/// Drives a fixed 60-step script of builds against a store of `capacity`
/// cells, checking each engine against a fresh serial build.
fn run_script(batch: &Batch, platforms: &[Platform], capacity: usize) -> Vec<StepTrace> {
    let fresh: Vec<u64> = platforms
        .iter()
        .map(|p| Phi1Engine::build(batch, p).unwrap().table_fingerprint())
        .collect();
    let store = CellStore::new(capacity);
    let opts = EngineBuild {
        threads: 2,
        store: Some(&store),
        ..EngineBuild::default()
    };
    let mut trace = Vec::new();
    // xorshift64* with a fixed seed: deterministic, no external RNG.
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    for step in 0..60 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let v = (rng % platforms.len() as u64) as usize;
        let (engine, pool) = Phi1Engine::build_with(batch, &platforms[v], &opts).unwrap();
        assert_eq!(
            engine.table_fingerprint(),
            fresh[v],
            "step {step}: engine diverged from a fresh build"
        );
        let stats = store.stats();
        assert!(
            stats.resident <= stats.capacity,
            "step {step}: capacity bound violated"
        );
        trace.push(StepTrace {
            variant: v,
            tasks: pool.total_tasks(),
            store_hits: stats.hits,
            store_misses: stats.misses,
            evictions: stats.evictions,
            resident: stats.resident,
        });
    }
    trace
}

#[test]
fn each_distinct_cell_is_computed_once() {
    let (batch, platforms) = working_set();
    let per_type = |ty| cells(&batch, &platforms[0], ty);
    let per_engine = per_type(0) + per_type(1);
    let trace = run_script(&batch, &platforms, DEFAULT_CELL_CAPACITY);
    let last = trace.last().unwrap();
    // Type 1's cells for the first build, type 0's for each variant's
    // first build; every other cell a build needed came from the store.
    let mut variants: Vec<usize> = trace.iter().map(|t| t.variant).collect();
    variants.sort_unstable();
    variants.dedup();
    assert_eq!(
        last.store_misses,
        per_type(1) + variants.len() as u64 * per_type(0)
    );
    assert_eq!(
        last.store_hits,
        trace.len() as u64 * per_engine - last.store_misses
    );
    assert_eq!(last.evictions, 0);
    // Only a variant's first build ran the kernel.
    let kernel_runs = trace.iter().filter(|t| t.tasks > 0).count();
    assert_eq!(kernel_runs, variants.len());
}

#[test]
fn eviction_racing_store_rebuilds_keeps_counters_and_bits_exact() {
    let (batch, platforms) = working_set();
    let per_engine = cells(&batch, &platforms[0], 0) + cells(&batch, &platforms[0], 1);
    let capacity = per_engine as usize / 2;
    let trace = run_script(&batch, &platforms, capacity);
    let last = trace.last().unwrap();
    // The starved store actually thrashed, yet every engine above matched
    // its fresh build.
    assert!(last.evictions > 0, "no evictions — script broken");
    assert_eq!(
        last.store_hits + last.store_misses,
        trace.len() as u64 * per_engine
    );
}

/// Replays the script twice on fresh stores of `capacity` cells and
/// requires the same trace at every step.
fn assert_replay_is_deterministic(batch: &Batch, platforms: &[Platform], capacity: usize) {
    assert_eq!(
        run_script(batch, platforms, capacity),
        run_script(batch, platforms, capacity),
        "same script, same store capacity — eviction must be deterministic"
    );
}

#[test]
fn build_sequence_is_deterministic() {
    let (batch, platforms) = working_set();
    assert_replay_is_deterministic(&batch, &platforms, DEFAULT_CELL_CAPACITY);
}

#[test]
fn starved_cache_operation_sequence_is_deterministic() {
    let (batch, platforms) = working_set();
    let per_engine = cells(&batch, &platforms[0], 0) + cells(&batch, &platforms[0], 1);
    assert_replay_is_deterministic(&batch, &platforms, per_engine as usize / 2);
}
