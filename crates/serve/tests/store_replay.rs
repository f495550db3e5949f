//! Counter golden for a store-thrashing replay.
//!
//! Two shard cores share one small content-addressed cell store and serve
//! a fixed 48-tenant stream in stream order, each request on the core its
//! tenant routes to. Every engine assembly goes through the store, whose
//! 512 cells hold a small fraction of the stream's working set, so the
//! store must choose what to keep on nearly every build. The specs draw
//! 80 % of their applications from a shared catalog, so many lookups
//! still hit — and which lookups hit depends on which cells the store
//! admitted and kept. The final counters are pinned to constants: a
//! change of eviction victim or of admission verdict moves the hit and
//! miss totals, not only the number of evictions, and a change at any of
//! the shards' increment sites moves their `stats()`. The replies are
//! pinned apart from the counters: whatever the store kept, they must
//! not move.

use cdsf_pmf::hash::{fnv1a_seed, FNV_PRIME};
use cdsf_ra::{CellStore, CellStoreStats};
use cdsf_serve::protocol::encode_line;
use cdsf_serve::{shard_of, LoadgenConfig, Response, ServeConfig, ShardCore};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 2;
const CAPACITY: usize = 512;

/// The final counters of one replay: the shared store's, and each
/// core's `stats()` as JSON, in shard order; and an FNV-1a digest of
/// every reply's encoded line, in stream order.
struct Replay {
    store: CellStoreStats,
    shards: Vec<String>,
    replies: u64,
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
    let mut replies = fnv1a_seed();
    let mut line = Vec::new();
    for req in &stream {
        let tenant = req.tenant().expect("the stream names a tenant per request");
        let resp = cores[shard_of(tenant, SHARDS)].handle(req);
        assert!(
            !matches!(resp, Response::Error { .. }),
            "request failed: {resp:?}"
        );
        line.clear();
        encode_line(&mut line, &resp).expect("replies encode");
        for &byte in &line {
            replies = (replies ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    Replay {
        store: store.stats(),
        shards: cores
            .iter()
            .map(|core| serde_json::to_string(&core.stats()).expect("stats serialize"))
            .collect(),
        replies,
    }
}

/// The 2 000-request replay, run once for every test of this file.
fn replay_2000() -> &'static Replay {
    static REPLAY: OnceLock<Replay> = OnceLock::new();
    REPLAY.get_or_init(|| replay(2_000))
}

#[test]
fn thrashing_replay_pins_the_store_counters() {
    // Recorded with the admission gate in front of the exact LRU. The
    // LRU alone (its victims recorded from the scan-based eviction) read
    // hits 51 851, misses 18 429, insertions 18 189 and evictions 17 677.
    assert_eq!(
        replay_2000().store,
        CellStoreStats {
            hits: 55_264,
            misses: 15_016,
            verify_rejects: 0,
            insertions: 1_335,
            evictions: 823,
            resident: 512,
            capacity: CAPACITY as u64,
        }
    );
}

#[test]
fn thrashing_replay_pins_the_shard_counters() {
    // The fields other than the store-dependent `cache_hits`,
    // `cache_misses`, `builds` and `pool_tasks_run` were recorded with the
    // per-field counters the single `ShardStats` declaration replaced;
    // those four with the admission gate (the LRU alone read 226, 597, 597
    // and 2 724 on shard 0, and 161, 584, 584 and 2 850 on shard 1).
    let expected: [&str; SHARDS] = [
        concat!(
            r#"{"shard":0,"tenants":24,"submits":974,"injects":60,"snapshots":14,"#,
            r#""restores":0,"errors":0,"alloc_fallbacks":0,"alloc_fallbacks_infeasible":0,"#,
            r#""alloc_fallbacks_infeasible_proven":0,"alloc_fallbacks_infeasible_heuristic":0,"#,
            r#""alloc_fallbacks_other":0,"spec_cache_hits":223,"spec_cache_misses":751,"#,
            r#""alloc_cache_hits":211,"alloc_cache_misses":823,"#,
            r#""drain_depths":[0,0,0,0,0,0,0,0],"sa_multistart_runs":0,"sa_restart_wins":[],"#,
            r#""cache_hits":359,"cache_misses":464,"cache_rebuilds":60,"coalesced":0,"#,
            r#""builds":464,"pool_runs":823,"pool_tasks_run":2143,"pool_chunks_stolen":0}"#,
        ),
        concat!(
            r#"{"shard":1,"tenants":24,"submits":907,"injects":36,"snapshots":9,"#,
            r#""restores":0,"errors":0,"alloc_fallbacks":0,"alloc_fallbacks_infeasible":0,"#,
            r#""alloc_fallbacks_infeasible_proven":0,"alloc_fallbacks_infeasible_heuristic":0,"#,
            r#""alloc_fallbacks_other":0,"spec_cache_hits":202,"spec_cache_misses":705,"#,
            r#""alloc_cache_hits":198,"alloc_cache_misses":745,"#,
            r#""drain_depths":[0,0,0,0,0,0,0,0],"sa_multistart_runs":0,"sa_restart_wins":[],"#,
            r#""cache_hits":250,"cache_misses":495,"cache_rebuilds":36,"coalesced":0,"#,
            r#""builds":495,"pool_runs":745,"pool_tasks_run":2374,"pool_chunks_stolen":0}"#,
        ),
    ];
    for (shard, (got, want)) in replay_2000().shards.iter().zip(expected).enumerate() {
        assert_eq!(got, want, "shard {shard}");
    }
}

#[test]
fn thrashing_replay_replies_do_not_depend_on_the_store() {
    // Recorded with the LRU-only store, before admission: a stored cell is
    // bit-identical to the one the kernel would build, so no reply byte
    // may move with what the store keeps.
    assert_eq!(replay_2000().replies, 0x6fba_7926_983f_b6bb);
}
