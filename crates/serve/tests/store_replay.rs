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
//! the hit and miss totals, not only the number of evictions.

use cdsf_ra::{CellStore, CellStoreStats};
use cdsf_serve::{shard_of, LoadgenConfig, Response, ServeConfig, ShardCore};
use std::sync::Arc;

const SHARDS: usize = 2;
const CAPACITY: usize = 512;

/// Replays `requests` requests of the fixed stream and returns the
/// shared store's counters.
fn replay(requests: usize) -> CellStoreStats {
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
    store.stats()
}

#[test]
fn thrashing_replay_pins_the_store_counters() {
    // Recorded with the scan-based eviction the lazy queue replaced.
    assert_eq!(
        replay(2_000),
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
