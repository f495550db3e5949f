//! Stress suite for [`EngineCache`] under capacity starvation.
//!
//! The serve data plane leans on two cache properties that only show up
//! when eviction constantly races store-routed rebuilds:
//!
//! 1. **Counter arithmetic is exact.** Every operation is counted exactly
//!    once, as a hit (the target was resident) or a miss (built through
//!    the cell store), and the store computes each distinct cell once:
//!    a miss whose engine was evicted still takes every cell it shares
//!    with the working set from the store.
//! 2. **Eviction never costs correctness.** Whatever got evicted, every
//!    outcome's engine is bit-identical (via `table_fingerprint`) to a
//!    fresh serial build for the same inputs, and the whole operation
//!    sequence is deterministic: replaying it on a second cache produces
//!    the same counters at every step.

use cdsf_events::remap::degraded_platform;
use cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY;
use cdsf_ra::{inputs_key, CellStore, EngineCache, Phi1Engine};
use cdsf_system::{Batch, Platform, ProcTypeId};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
use std::sync::Arc;

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

/// One step's observable result, for cross-run determinism comparison.
#[derive(Debug, PartialEq, Eq)]
struct StepTrace {
    variant: usize,
    hit: bool,
    hits: u64,
    misses: u64,
    store_hits: u64,
    store_misses: u64,
    len: usize,
}

/// Drives a fixed 60-operation script over a cache of `capacity` engines
/// whose working set is 5 engines, checking each outcome against a fresh
/// serial build.
fn run_script(batch: &Batch, platforms: &[Platform], capacity: usize) -> Vec<StepTrace> {
    let keys: Vec<u64> = platforms.iter().map(|p| inputs_key(batch, p)).collect();
    let fresh: Vec<u64> = platforms
        .iter()
        .map(|p| Phi1Engine::build(batch, p).unwrap().table_fingerprint())
        .collect();
    let store = Arc::new(CellStore::new(DEFAULT_CELL_CAPACITY));
    let mut cache = EngineCache::new(capacity, Arc::clone(&store));
    let mut trace = Vec::new();
    // xorshift64* with a fixed seed: deterministic, no external RNG.
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    for step in 0..60 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let v = (rng % platforms.len() as u64) as usize;
        let resident_before = cache.contains(keys[v]);
        let outcome = cache.get_or_build(batch, &platforms[v], 2).unwrap();
        assert_eq!(outcome.key, keys[v], "outcome key tracks the target");
        assert_eq!(
            outcome.hit, resident_before,
            "step {step}: a hit is exactly a resident target"
        );
        assert_eq!(
            outcome.engine.table_fingerprint(),
            fresh[v],
            "step {step}: engine diverged from a fresh build"
        );
        let hit = outcome.hit;
        assert!(
            cache.len() <= cache.capacity(),
            "step {step}: capacity bound violated"
        );
        let stats = store.stats();
        trace.push(StepTrace {
            variant: v,
            hit,
            hits: cache.hits(),
            misses: cache.misses(),
            store_hits: stats.hits,
            store_misses: stats.misses,
            len: cache.len(),
        });
    }
    trace
}

#[test]
fn eviction_racing_store_rebuilds_keeps_counters_and_bits_exact() {
    let (batch, platforms) = working_set();
    let cells = |j: usize| {
        let options = platforms[0].pow2_options(ProcTypeId(j)).unwrap();
        (batch.len() * options.len()) as u64
    };
    let per_engine = cells(0) + cells(1);
    for capacity in [1, 2] {
        let trace = run_script(&batch, &platforms, capacity);
        let last = trace.last().unwrap();
        // Every operation is exactly one of hit/miss.
        assert_eq!(last.hits + last.misses, trace.len() as u64);
        // The starved cache actually thrashed: both paths fired.
        assert!(last.hits > 0, "no hits — script broken");
        assert!(last.misses > 0, "no misses — script broken");
        // The store computed each distinct cell once: type 1's cells
        // for the first build, type 0's for each variant's first build;
        // every other cell a miss needed came from the store.
        let mut variants: Vec<usize> = trace.iter().map(|t| t.variant).collect();
        variants.sort_unstable();
        variants.dedup();
        assert_eq!(
            last.store_misses,
            cells(1) + variants.len() as u64 * cells(0)
        );
        assert_eq!(
            last.store_hits,
            last.misses * per_engine - last.store_misses
        );
    }
}

#[test]
fn starved_cache_operation_sequence_is_deterministic() {
    let (batch, platforms) = working_set();
    for capacity in [1, 2] {
        assert_eq!(
            run_script(&batch, &platforms, capacity),
            run_script(&batch, &platforms, capacity),
            "same script, same cache capacity — eviction must be deterministic"
        );
    }
}
