//! A size-bounded, LRU, bitwise-verified [`Phi1Engine`] cache.
//!
//! The event-driven scheduler rebuilds its Stage-I engine on every
//! reactive remap, and the serving layer builds one engine per distinct
//! tenant workload. Most of those inputs repeat: a crash removes one
//! processor type, a remnant remap rescales the *running* apps' PMFs, a
//! tenant resubmits the same seeded workload spec. [`EngineCache`] keeps
//! recently built engines alongside the `(batch, platform)` they were
//! built from, keyed by a fingerprint of the exact cell-kernel input bits,
//! so
//!
//! * an exact resubmission is a **hit** — the cached engine is returned
//!   without touching a kernel (and, because builds are deterministic, it
//!   is bit-identical to the engine a fresh build would produce);
//! * a miss builds through the cache's [`CellStore`], so a near miss (one
//!   app or type changed) takes every cell whose inputs are unchanged
//!   from the store by content and runs the kernel only for the rest;
//! * everything is **bounded**: the cache holds at most `capacity`
//!   entries, evicting the least-recently-used engine deterministically
//!   (pure function of the operation sequence — no clocks, no hashing
//!   order).
//!
//! Hit/miss counters and the pool scheduling totals of every build the
//! cache performed are retained for the serving layer's `Stats` endpoint
//! and the bench snapshots.

use crate::cell_store::CellStore;
use crate::engine::{EngineBuild, Phi1Engine};
use crate::Result;
use cdsf_pmf::hash::{fnv1a_pmf, fnv1a_seed, fnv1a_u64};
use cdsf_system::pool::PoolTotals;
use cdsf_system::{Batch, Platform, ProcTypeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default entry bound: enough for a handful of tenants' working sets to
/// stay resident per shard without letting engines (the heavyweight
/// objects) accumulate without limit across remaps.
pub const DEFAULT_CAPACITY: usize = 8;

// ---------------------------------------------------------------------------
// Input fingerprinting (FNV-1a over the exact cell-kernel input bits).
// ---------------------------------------------------------------------------

/// Fingerprint of everything the engine build kernel reads: per
/// application the iteration split and the execution-time PMF bits per
/// type, per processor type the count (which fixes the power-of-two
/// option lattice) and the availability PMF bits. Application and type
/// *names* are deliberately excluded — they do not influence a single
/// cell bit, so renaming a workload must not cause a rebuild.
pub fn inputs_key(batch: &Batch, platform: &Platform) -> u64 {
    let mut h = fnv1a_seed();
    h = fnv1a_u64(h, batch.len() as u64);
    for (_, app) in batch.iter() {
        h = fnv1a_u64(h, app.serial_iters());
        h = fnv1a_u64(h, app.parallel_iters());
        h = fnv1a_u64(h, app.num_proc_types() as u64);
        for j in 0..app.num_proc_types() {
            if let Ok(pmf) = app.exec_time(ProcTypeId(j)) {
                h = fnv1a_pmf(h, pmf);
            }
        }
    }
    h = fnv1a_u64(h, platform.num_types() as u64);
    for ty in platform.types() {
        h = fnv1a_u64(h, ty.count() as u64);
        h = fnv1a_pmf(h, ty.availability());
    }
    h
}

/// Structural bit-equality of the cell-kernel inputs — the collision
/// guard behind [`inputs_key`]: a key match alone never serves an engine.
fn inputs_eq(ba: &Batch, pa: &Platform, bb: &Batch, pb: &Platform) -> bool {
    if ba.len() != bb.len() || pa.num_types() != pb.num_types() {
        return false;
    }
    for ((_, x), (_, y)) in ba.iter().zip(bb.iter()) {
        if x.serial_iters() != y.serial_iters()
            || x.parallel_iters() != y.parallel_iters()
            || x.num_proc_types() != y.num_proc_types()
        {
            return false;
        }
        for j in 0..x.num_proc_types() {
            match (x.exec_time(ProcTypeId(j)), y.exec_time(ProcTypeId(j))) {
                (Ok(px), Ok(py)) if px.bits_eq(py) => {}
                (Err(_), Err(_)) => {}
                _ => return false,
            }
        }
    }
    pa.types()
        .iter()
        .zip(pb.types())
        .all(|(x, y)| x.count() == y.count() && x.availability().bits_eq(y.availability()))
}

// ---------------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------------

/// One resident engine with the inputs it was built from, kept for the
/// bitwise collision check behind a key match.
#[derive(Debug, Clone)]
struct CacheEntry {
    key: u64,
    batch: Batch,
    platform: Platform,
    engine: Phi1Engine,
}

/// What a cache operation produced: the engine plus how it was obtained.
#[derive(Debug)]
pub struct CacheOutcome<'a> {
    /// The (front-of-cache) engine serving the request.
    pub engine: &'a Phi1Engine,
    /// The engine's input fingerprint ([`inputs_key`]).
    pub key: u64,
    /// `true` when the engine was already resident (no kernel ran).
    pub hit: bool,
}

/// A bounded LRU of [`Phi1Engine`]s with bitwise-verified reuse.
///
/// Entries are ordered most- to least-recently used; every operation that
/// touches an entry promotes it to the front, and inserts evict from the
/// back once `capacity` is reached. Eviction is a deterministic function
/// of the operation sequence.
#[derive(Debug, Clone)]
pub struct EngineCache {
    capacity: usize,
    entries: VecDeque<CacheEntry>,
    hits: u64,
    misses: u64,
    pool: PoolTotals,
    /// Content-addressed cell store every build of this cache resolves
    /// cells against (and interns new cells into). Typically shared by
    /// many caches — one per serve shard — so a miss *here* can still be
    /// a near-pure lookup *there*.
    store: Arc<CellStore>,
}

impl EngineCache {
    /// An empty cache holding at most `capacity` engines (clamped to at
    /// least 1) whose builds resolve cells against `store` before running
    /// any kernel, and intern what they compute.
    pub fn new(capacity: usize, store: Arc<CellStore>) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
            hits: 0,
            misses: 0,
            pool: PoolTotals::default(),
            store,
        }
    }

    /// The most recently used engine.
    ///
    /// # Panics
    /// On an empty cache (no build performed yet).
    pub fn engine(&self) -> &Phi1Engine {
        &self
            .entries
            .front()
            .expect("EngineCache::engine on an empty cache")
            .engine
    }

    /// Resident engines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no engine is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exact-input lookups served without running a kernel.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that built an engine (through the cell store).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Scheduling totals of every pool-backed build this cache performed.
    pub fn pool_totals(&self) -> &PoolTotals {
        &self.pool
    }

    /// Whether an engine with this input fingerprint is resident.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// The resident engine for `key`, promoted to the front; does not
    /// touch the hit/miss counters (observability reads should not skew
    /// the workload-facing rates).
    pub fn peek(&mut self, key: u64) -> Option<&Phi1Engine> {
        let pos = self.entries.iter().position(|e| e.key == key)?;
        self.promote(pos);
        Some(&self.entries[0].engine)
    }

    /// Returns the engine for `(batch, platform)`, building it (with
    /// `threads` workers over the shared pool, through the cell store)
    /// only if no bit-identical entry is resident. Hits are verified
    /// structurally, not just by fingerprint, so a hit's engine is always
    /// bit-identical to the engine a fresh build would produce.
    pub fn get_or_build(
        &mut self,
        batch: &Batch,
        platform: &Platform,
        threads: usize,
    ) -> Result<CacheOutcome<'_>> {
        let key = inputs_key(batch, platform);
        self.get_or_build_keyed(key, batch, platform, threads)
    }

    /// [`EngineCache::get_or_build`] for a caller that has already hashed
    /// the inputs — `key` **must** equal `inputs_key(batch, platform)`.
    /// The serve shard's spec-expansion cache stores the key alongside
    /// the expanded inputs, so repeat submissions skip the full-input
    /// FNV walk entirely.
    pub fn get_or_build_keyed(
        &mut self,
        key: u64,
        batch: &Batch,
        platform: &Platform,
        threads: usize,
    ) -> Result<CacheOutcome<'_>> {
        debug_assert_eq!(key, inputs_key(batch, platform), "stale precomputed key");
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.key == key && inputs_eq(&e.batch, &e.platform, batch, platform))
        {
            self.hits += 1;
            self.promote(pos);
            return Ok(CacheOutcome {
                engine: &self.entries[0].engine,
                key,
                hit: true,
            });
        }
        self.misses += 1;
        let opts = EngineBuild {
            threads,
            store: Some(&self.store),
            ..EngineBuild::default()
        };
        let (engine, stats) = Phi1Engine::build_with(batch, platform, &opts)?;
        self.pool.absorb(&stats);
        self.entries.push_front(CacheEntry {
            key,
            batch: batch.clone(),
            platform: platform.clone(),
            engine,
        });
        self.entries.truncate(self.capacity);
        Ok(CacheOutcome {
            engine: &self.entries[0].engine,
            key,
            hit: false,
        })
    }

    /// Moves `entries[pos]` to the front (most recently used).
    fn promote(&mut self, pos: usize) {
        if pos > 0 {
            let entry = self.entries.remove(pos).expect("position checked");
            self.entries.push_front(entry);
        }
    }
}
