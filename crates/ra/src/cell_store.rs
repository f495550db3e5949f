//! A content-addressed, cross-engine store of loaded-PMF cells.
//!
//! Every cell the φ₁ engine builds — the dedicated (Amdahl-rescaled) and
//! loaded (availability-quotient) PMF pair of one `(app, type, 2^k)`
//! triple — is a *pure deterministic function* of three inputs: the
//! execution-time PMF bits, the availability PMF bits, and the Amdahl
//! rescale factor `s + (1−s)/2^k` (which subsumes both `k` and the serial
//! fraction; the build kernels read nothing else). [`CellStore`] interns
//! cells by exactly those inputs, so any engine build — a different
//! tenant on a different serve shard, a Γ-robust degraded table, a remap
//! after an online event — that needs a cell with the same input bits
//! resolves it by lookup instead of re-running the fused
//! quotient-grid+merge kernel. This is the only way engine builds reuse
//! cells.
//!
//! Cells are filed by *family*: all cells of one `(execution PMF,
//! availability PMF)` pair sit under one structural FNV-1a hash of the
//! pair — the two PMFs' cached [`Pmf::digest`]s — and are told apart by
//! their factor bits. An engine build resolves a whole pair's power-of-two
//! run with one lock, one map probe and one input comparison.
//!
//! # Verify-on-hit
//!
//! A hash match alone never serves a cell. Each family retains its exact
//! inputs, and a lookup only returns its cells after a bitwise
//! (`f64::to_bits`) comparison of the probe's execution and availability
//! PMFs against the stored ones, and of each factor. A colliding family
//! is counted in [`CellStoreStats::verify_rejects`] and serves nothing,
//! and a colliding newcomer is not interned, so it cannot displace the
//! family holding its key: a collision can cost a recomputation but can
//! never change a result or evict another tenant's cells.
//!
//! # Sharding and eviction
//!
//! Families are spread over a fixed number of `RwLock` shards by hash, so
//! concurrent engine builds on different serve shards take read locks on
//! the hot path and only contend on inserts to the same shard. Each
//! shard is bounded in cells: inserts beyond the per-shard capacity evict
//! the cell with the smallest last-use stamp (a global monotone counter,
//! unique per cell), a deterministic least-recently-used rule under any
//! serial operation sequence. Values are `Arc`-shared with every engine
//! that resolved them, so eviction only drops the store's reference —
//! engines keep their cells alive.

use crate::engine::Cell;
use cdsf_pmf::hash::{fnv1a_seed, fnv1a_u64};
use cdsf_pmf::Pmf;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed shard count: hash-spread is what matters, not tunability, and a
/// power of two keeps the shard pick a mask.
const SHARDS: usize = 8;

/// Default total cell bound. Cells are small relative to engines (two
/// PMFs), so the default is sized for many tenants' working sets: a
/// 16-app × 4-type × 6-option spec is ~384 cells.
pub const DEFAULT_CELL_CAPACITY: usize = 4096;

/// Structural hash of a `(execution PMF, availability PMF)` pair — the
/// key of the pair's whole power-of-two cell family. It folds the two
/// PMFs' cached digests, so a PMF's pulses are hashed at most once
/// however many builds look it up.
pub(crate) fn pair_hash(exec: &Pmf, avail: &Pmf) -> u64 {
    fnv1a_u64(fnv1a_u64(fnv1a_seed(), exec.digest()), avail.digest())
}

/// The interned cells of one `(execution PMF, availability PMF)` pair,
/// with the inputs that prove them.
struct Family {
    exec: Pmf,
    avail: Pmf,
    cells: Vec<Slot>,
}

impl Family {
    fn proves(&self, exec: &Pmf, avail: &Pmf) -> bool {
        self.exec.bits_eq(exec) && self.avail.bits_eq(avail)
    }

    /// The cell interned for the factor with these bits.
    fn slot(&self, factor_bits: u64) -> Option<&Slot> {
        self.cells.iter().find(|s| s.factor_bits == factor_bits)
    }
}

/// One interned cell of a family.
struct Slot {
    factor_bits: u64,
    cell: Arc<Cell>,
    /// Last-use stamp from the store's global clock; the smallest stamp
    /// in a full shard is the eviction victim.
    stamp: AtomicU64,
}

/// One lock's worth of families. The keys digest PMFs that tenants
/// supply, so the map keeps the standard library's keyed hasher; its
/// iteration order varies between runs, which eviction does not see
/// because every cell's stamp is unique.
#[derive(Default)]
struct Shard {
    families: HashMap<u64, Family>,
    /// Cells resident in this shard.
    cells: usize,
}

impl Shard {
    /// Drops the least-recently-used cell, and its family once empty.
    fn evict_lru(&mut self) {
        let (_, pair, at) = self
            .families
            .iter()
            .flat_map(|(&pair, f)| {
                f.cells
                    .iter()
                    .enumerate()
                    .map(move |(at, s)| (s.stamp.load(Ordering::Relaxed), pair, at))
            })
            .min()
            .expect("a full shard is non-empty");
        let family = self.families.get_mut(&pair).expect("victim exists");
        family.cells.swap_remove(at);
        if family.cells.is_empty() {
            self.families.remove(&pair);
        }
        self.cells -= 1;
    }
}

/// Counters and occupancy of a [`CellStore`], as surfaced through the
/// serve `Stats` endpoint and the bench snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellStoreStats {
    /// Lookups served by a verified resident cell (no kernel ran).
    pub hits: u64,
    /// Lookups that found no usable entry (the kernel ran).
    pub misses: u64,
    /// Hash matches rejected by the bitwise input comparison.
    pub verify_rejects: u64,
    /// Cells interned.
    pub insertions: u64,
    /// Cells evicted by the per-shard LRU bound.
    pub evictions: u64,
    /// Cells currently resident.
    pub resident: u64,
    /// Total cell bound (per-shard bound × shard count).
    pub capacity: u64,
}

impl CellStoreStats {
    /// Hit rate over all lookups (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The content-addressed cell store. One instance is shared (via
/// [`Arc`]) by every consumer that wants cross-build cell reuse — the
/// serve layer hands one to all of its shards.
pub struct CellStore {
    shards: Vec<RwLock<Shard>>,
    per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    verify_rejects: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for CellStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellStore")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CellStore {
    /// A store bounded to roughly `capacity` cells (rounded up to a
    /// multiple of the shard count, minimum one cell per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            per_shard,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            verify_rejects: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A store with the default capacity.
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_CELL_CAPACITY)
    }

    #[inline]
    fn shard_of(&self, pair: u64) -> &RwLock<Shard> {
        &self.shards[(pair as usize) & (SHARDS - 1)]
    }

    /// `n` fresh stamps from the global clock; returns the first.
    #[inline]
    fn ticks(&self, n: usize) -> u64 {
        self.clock.fetch_add(n as u64, Ordering::Relaxed) + 1
    }

    /// Resolves one pair family: `out[k]` becomes the interned cell for
    /// `factors[k]` where one is resident. `pair` **must** be
    /// [`pair_hash`]`(exec, avail)`. The family's cells are served only
    /// after a bitwise comparison of its inputs with the probe's; every
    /// factor counts as a hit or a miss, and a colliding family is
    /// counted once as a verify reject.
    pub(crate) fn get_family(
        &self,
        pair: u64,
        exec: &Pmf,
        avail: &Pmf,
        factors: &[f64],
        out: &mut [Option<Arc<Cell>>],
    ) {
        let shard = self.shard_of(pair).read();
        let mut hits = 0;
        match shard.families.get(&pair) {
            Some(family) if family.proves(exec, avail) => {
                let stamp = self.ticks(factors.len());
                for (k, (factor, out)) in factors.iter().zip(out.iter_mut()).enumerate() {
                    if let Some(s) = family.slot(factor.to_bits()) {
                        s.stamp.store(stamp + k as u64, Ordering::Relaxed);
                        *out = Some(Arc::clone(&s.cell));
                        hits += 1;
                    }
                }
            }
            Some(_) => {
                self.verify_rejects.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(factors.len() as u64 - hits, Ordering::Relaxed);
    }

    /// Interns freshly computed cells of one pair family, keyed as in
    /// [`CellStore::get_family`], evicting the shard's least-recently-used
    /// cell for each one beyond its bound. When a family with other inputs
    /// holds the key (a hash collision), the newcomer's cells are not
    /// interned: the resident family keeps its cells until the LRU drops
    /// them, and the newcomer's builds compute theirs, so a collision
    /// costs time, never a result. A cell whose factor is already
    /// resident — a concurrent build interned it first — only has its
    /// stamp refreshed, so residency never double-counts one cell
    /// identity.
    pub(crate) fn insert_family(
        &self,
        pair: u64,
        exec: &Pmf,
        avail: &Pmf,
        cells: impl IntoIterator<Item = (f64, Arc<Cell>)>,
    ) {
        let mut guard = self.shard_of(pair).write();
        let shard = &mut *guard;
        if let Some(resident) = shard.families.get(&pair) {
            if !resident.proves(exec, avail) {
                return;
            }
        }
        for (factor, cell) in cells {
            let stamp = self.ticks(1);
            let bits = factor.to_bits();
            let resident = shard.families.get(&pair).and_then(|f| f.slot(bits));
            if let Some(s) = resident {
                s.stamp.store(stamp, Ordering::Relaxed);
                continue;
            }
            if shard.cells >= self.per_shard {
                shard.evict_lru();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            let family = shard.families.entry(pair).or_insert_with(|| Family {
                exec: exec.clone(),
                avail: avail.clone(),
                cells: Vec::new(),
            });
            family.cells.push(Slot {
                factor_bits: bits,
                cell,
                stamp: AtomicU64::new(stamp),
            });
            shard.cells += 1;
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cells currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().cells).sum()
    }

    /// Whether no cell is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cell bound.
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// A snapshot of the store's counters and occupancy.
    pub fn stats(&self) -> CellStoreStats {
        CellStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            verify_rejects: self.verify_rejects.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self.len() as u64,
            capacity: self.capacity() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_pmf::CombineScratch;

    fn mk_pmf(vals: &[(f64, f64)]) -> Pmf {
        Pmf::from_pairs(vals.iter().copied()).unwrap()
    }

    /// Builds a cell the way the engine kernel would.
    fn mk_cell(exec: &Pmf, factor: f64, avail: &Pmf) -> Arc<Cell> {
        let mut scratch = CombineScratch::new();
        let dedicated = exec.scale(factor).unwrap();
        let loaded = exec
            .scale_quotient_with(factor, avail, &mut scratch)
            .unwrap();
        Arc::new(Cell::new(dedicated, loaded))
    }

    /// One-cell lookup under family key `pair`.
    fn get(
        store: &CellStore,
        pair: u64,
        exec: &Pmf,
        factor: f64,
        avail: &Pmf,
    ) -> Option<Arc<Cell>> {
        let mut out = [None];
        store.get_family(pair, exec, avail, &[factor], &mut out);
        out[0].take()
    }

    /// One-cell insert under family key `pair`.
    fn insert(store: &CellStore, pair: u64, exec: &Pmf, factor: f64, avail: &Pmf) -> Arc<Cell> {
        let cell = mk_cell(exec, factor, avail);
        store.insert_family(pair, exec, avail, [(factor, Arc::clone(&cell))]);
        cell
    }

    #[test]
    fn get_after_insert_round_trips_the_cell() {
        let store = CellStore::new(16);
        let exec = mk_pmf(&[(100.0, 0.5), (200.0, 0.5)]);
        let avail = mk_pmf(&[(0.5, 0.5), (1.0, 0.5)]);
        let factor = 0.625;
        let pair = pair_hash(&exec, &avail);
        assert!(get(&store, pair, &exec, factor, &avail).is_none());
        let cell = insert(&store, pair, &exec, factor, &avail);
        let back = get(&store, pair, &exec, factor, &avail).unwrap();
        assert!(Arc::ptr_eq(&back, &cell));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.resident, 1);
        assert_eq!(s.verify_rejects, 0);
    }

    #[test]
    fn a_family_resolves_its_whole_run_in_one_lookup() {
        let store = CellStore::new(16);
        let exec = mk_pmf(&[(100.0, 0.5), (200.0, 0.5)]);
        let avail = mk_pmf(&[(0.5, 0.5), (1.0, 0.5)]);
        let pair = pair_hash(&exec, &avail);
        let factors = [1.0, 0.625, 0.4375];
        let cells: Vec<_> = factors.iter().map(|&f| mk_cell(&exec, f, &avail)).collect();
        store.insert_family(
            pair,
            &exec,
            &avail,
            [
                (1.0, Arc::clone(&cells[0])),
                (0.4375, Arc::clone(&cells[2])),
            ],
        );
        let mut out = [None, None, None];
        store.get_family(pair, &exec, &avail, &factors, &mut out);
        assert!(Arc::ptr_eq(out[0].as_ref().unwrap(), &cells[0]));
        assert!(out[1].is_none(), "0.625 was never interned");
        assert!(Arc::ptr_eq(out[2].as_ref().unwrap(), &cells[2]));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.resident), (2, 1, 2));
    }

    #[test]
    fn forced_hash_collision_is_rejected_not_served() {
        // Two different input pairs, deliberately filed under the same
        // key: the verify pass must refuse to serve either family for the
        // other's inputs, and count the rejection.
        let store = CellStore::new(16);
        let exec_a = mk_pmf(&[(100.0, 1.0)]);
        let exec_b = mk_pmf(&[(999.0, 1.0)]);
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let factor = 1.0;
        let pair = pair_hash(&exec_a, &avail);
        // Poison: B's cell filed under A's key.
        insert(&store, pair, &exec_b, factor, &avail);
        assert!(get(&store, pair, &exec_a, factor, &avail).is_none());
        let s = store.stats();
        assert_eq!(s.verify_rejects, 1);
        assert_eq!(s.hits, 0);
        // A colliding newcomer does not displace the resident family: A's
        // cell is not interned, and B's keeps being served for B's inputs.
        insert(&store, pair, &exec_a, factor, &avail);
        assert!(get(&store, pair, &exec_a, factor, &avail).is_none());
        let got = get(&store, pair, &exec_b, factor, &avail).unwrap();
        assert_eq!(got.dedicated.expectation(), 999.0);
        let s = store.stats();
        assert_eq!((s.resident, s.insertions, s.evictions), (1, 1, 0));
        assert_eq!(s.verify_rejects, 2);
    }

    #[test]
    fn factor_bits_are_part_of_the_identity() {
        let store = CellStore::new(16);
        let exec = mk_pmf(&[(100.0, 1.0)]);
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let pair = pair_hash(&exec, &avail);
        insert(&store, pair, &exec, 1.0, &avail);
        assert!(get(&store, pair, &exec, 0.5, &avail).is_none());
    }

    #[test]
    fn eviction_is_lru_and_bounded() {
        // Capacity 8 over 8 shards = 1 cell per shard; explicit keys with
        // equal low bits put every family in one shard, so the LRU rule
        // is observable.
        let store = CellStore::new(8);
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let execs: Vec<Pmf> = (0..3).map(|i| mk_pmf(&[(100.0 + i as f64, 1.0)])).collect();
        let key = |i: usize| (i as u64) << 3; // same low 3 bits → same shard
        insert(&store, key(0), &execs[0], 1.0, &avail);
        insert(&store, key(1), &execs[1], 1.0, &avail);
        // Shard bound is 1: inserting family 1 evicted family 0.
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_none());
        assert!(get(&store, key(1), &execs[1], 1.0, &avail).is_some());
        // Touch 1, insert 2 → 1 was most recent but the shard holds one
        // cell, so 1 is evicted anyway; with per-shard capacity 1 the
        // newest always wins.
        insert(&store, key(2), &execs[2], 1.0, &avail);
        assert!(get(&store, key(1), &execs[1], 1.0, &avail).is_none());
        let s = store.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.resident, 1);
    }

    #[test]
    fn lru_victim_is_the_stalest_cell() {
        // Per-shard capacity 2 (capacity 16 / 8 shards): A and B
        // resident, touch A, insert C → B (stalest) is evicted.
        let store = CellStore::new(16);
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let execs: Vec<Pmf> = (0..3).map(|i| mk_pmf(&[(100.0 + i as f64, 1.0)])).collect();
        let key = |i: usize| (i as u64) << 3;
        for (i, exec) in execs.iter().enumerate().take(2) {
            insert(&store, key(i), exec, 1.0, &avail);
        }
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_some());
        insert(&store, key(2), &execs[2], 1.0, &avail);
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_some());
        assert!(get(&store, key(1), &execs[1], 1.0, &avail).is_none());
        assert!(get(&store, key(2), &execs[2], 1.0, &avail).is_some());
        // Cells, not families, are the unit: touch A, then a second
        // factor of A's family evicts the stalest cell, C.
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_some());
        insert(&store, key(0), &execs[0], 0.5, &avail);
        assert!(get(&store, key(2), &execs[2], 1.0, &avail).is_none());
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_some());
        assert!(get(&store, key(0), &execs[0], 0.5, &avail).is_some());
    }

    #[test]
    fn duplicate_insert_is_dropped() {
        let store = CellStore::new(16);
        let exec = mk_pmf(&[(100.0, 1.0)]);
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let pair = pair_hash(&exec, &avail);
        insert(&store, pair, &exec, 1.0, &avail);
        insert(&store, pair, &exec, 1.0, &avail);
        let s = store.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!(s.resident, 1);
    }

    #[test]
    fn stats_serde_round_trips_and_defaults() {
        let s = CellStoreStats {
            hits: 3,
            misses: 2,
            verify_rejects: 1,
            insertions: 2,
            evictions: 0,
            resident: 2,
            capacity: 16,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: CellStoreStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
