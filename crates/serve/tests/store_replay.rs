//! Counter golden for a store-thrashing replay.
//!
//! Two shard cores share one small content-addressed cell store and serve
//! a fixed 48-tenant stream in stream order, each request on the core its
//! tenant routes to. Every engine assembly goes through the store, whose
//! 512 cells hold a small fraction of the stream's working set, so the
//! store evicts on nearly every build. The specs draw 80 % of their
//! applications from a shared catalog, so most lookups still hit — and
//! which lookups hit depends on which cells the store kept. The final
//! counters are pinned to constants: a change of eviction victim moves
//! the hit and miss totals, not only the number of evictions, and a
//! change at any of the shards' increment sites moves their `stats()`.

use cdsf_ra::{CellStore, CellStoreStats};
use cdsf_serve::{shard_of, LoadgenConfig, Response, ServeConfig, ShardCore};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 2;
const CAPACITY: usize = 512;

/// The final counters of one replay: the shared store's, and each
/// core's `stats()` as JSON, in shard order.
struct Replay {
    store: CellStoreStats,
    shards: Vec<String>,
}

/// Replays `requests` requests of the fixed stream.
fn replay(requests: usize) -> Replay {
    let stream = LoadgenConfig {
        tenants: 48,
        specs_per_tenant: 8,
        shared_rate: 0.05,
        skew: 0.5,
        policy_mix: 0.0,
        catalog_overlap: 0.8,
        requests,
        seed: 17,
        ..LoadgenConfig::default()
    }
    .stream()
    .expect("the stream config is valid");
    let cfg = ServeConfig {
        shards: SHARDS,
        build_threads: 1,
        cell_store_capacity: CAPACITY,
        ..ServeConfig::default()
    };
    let store = Arc::new(CellStore::new(CAPACITY));
    let mut cores: Vec<ShardCore> = (0..SHARDS)
        .map(|id| ShardCore::with_store(id, cfg.clone(), Arc::clone(&store)))
        .collect();
    for req in &stream {
        let tenant = req.tenant().expect("the stream names a tenant per request");
        let resp = cores[shard_of(tenant, SHARDS)].handle(req);
        assert!(
            !matches!(resp, Response::Error { .. }),
            "request failed: {resp:?}"
        );
    }
    Replay {
        store: store.stats(),
        shards: cores
            .iter()
            .map(|core| serde_json::to_string(&core.stats()).expect("stats serialize"))
            .collect(),
    }
}

/// The 2 000-request replay, run once for every test of this file.
fn replay_2000() -> &'static Replay {
    static REPLAY: OnceLock<Replay> = OnceLock::new();
    REPLAY.get_or_init(|| replay(2_000))
}

#[test]
fn thrashing_replay_pins_the_store_counters() {
    // Recorded with the scan-based eviction the lazy queue replaced.
    assert_eq!(
        replay_2000().store,
        CellStoreStats {
            hits: 51_851,
            misses: 18_429,
            verify_rejects: 0,
            insertions: 18_189,
            evictions: 17_677,
            resident: 512,
            capacity: CAPACITY as u64,
        }
    );
}

#[test]
fn thrashing_replay_pins_the_shard_counters() {
    // Recorded with the per-field counters the single `ShardStats`
    // declaration replaced.
    let expected: [&str; SHARDS] = [
        concat!(
            r#"{"shard":0,"tenants":24,"submits":974,"injects":60,"snapshots":14,"#,
            r#""restores":0,"errors":0,"alloc_fallbacks":0,"alloc_fallbacks_infeasible":0,"#,
            r#""alloc_fallbacks_infeasible_proven":0,"alloc_fallbacks_infeasible_heuristic":0,"#,
            r#""alloc_fallbacks_other":0,"spec_cache_hits":223,"spec_cache_misses":751,"#,
            r#""alloc_cache_hits":211,"alloc_cache_misses":823,"#,
            r#""drain_depths":[0,0,0,0,0,0,0,0],"sa_multistart_runs":0,"sa_restart_wins":[],"#,
            r#""cache_hits":226,"cache_misses":597,"cache_rebuilds":60,"coalesced":0,"#,
            r#""builds":597,"pool_runs":823,"pool_tasks_run":2724,"pool_chunks_stolen":0}"#,
        ),
        concat!(
            r#"{"shard":1,"tenants":24,"submits":907,"injects":36,"snapshots":9,"#,
            r#""restores":0,"errors":0,"alloc_fallbacks":0,"alloc_fallbacks_infeasible":0,"#,
            r#""alloc_fallbacks_infeasible_proven":0,"alloc_fallbacks_infeasible_heuristic":0,"#,
            r#""alloc_fallbacks_other":0,"spec_cache_hits":202,"spec_cache_misses":705,"#,
            r#""alloc_cache_hits":198,"alloc_cache_misses":745,"#,
            r#""drain_depths":[0,0,0,0,0,0,0,0],"sa_multistart_runs":0,"sa_restart_wins":[],"#,
            r#""cache_hits":161,"cache_misses":584,"cache_rebuilds":36,"coalesced":0,"#,
            r#""builds":584,"pool_runs":745,"pool_tasks_run":2850,"pool_chunks_stolen":0}"#,
        ),
    ];
    for (shard, (got, want)) in replay_2000().shards.iter().zip(expected).enumerate() {
        assert_eq!(got, want, "shard {shard}");
    }
}
