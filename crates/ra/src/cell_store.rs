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
//! serial operation sequence. A shard finds that cell through a lazy
//! min-queue of stamps rather than a scan of its map, so eviction costs
//! amortized O(log n) under the write lock and never depends on the map's
//! iteration order. Values are `Arc`-shared with every engine that
//! resolved them, so eviction only drops the store's reference — engines
//! keep their cells alive.
//!
//! # Admission
//!
//! Under traffic whose working set dwarfs the bound, most families are
//! built once and never looked up again, and plain LRU interns each of
//! them only to evict it unread. A TinyLFU gate (Einziger, Friedman and
//! Manes, ACM TOS 2017) sits in front of the eviction: each shard counts
//! every lookup of a pair, hit or miss, in a count-min sketch, and a
//! family with no resident cell that arrives at a full shard is interned
//! only if its estimated lookup count is strictly greater than that of
//! the family owning the LRU victim. A declined family's cells stay with
//! the build that computed them: nothing is inserted and nothing
//! evicted, and the store's `misses − insertions` counts them. A
//! resident family's new factors skip the gate. The sketch has 4 rows of
//! saturating 4-bit counters, each row the next power of two at least
//! twice the per-shard cell bound wide, and halves every counter after
//! ten lookups per counter of a row, so counts age and a newly popular
//! family displaces a formerly popular one. Its row hashes are fixed, so
//! a serial operation sequence always leaves the same cells resident.

use crate::engine::Cell;
use cdsf_pmf::hash::{fnv1a_seed, fnv1a_u64};
use cdsf_pmf::Pmf;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Fixed shard count: hash-spread is what matters, not tunability, and a
/// power of two keeps the shard pick a mask.
const SHARDS: usize = 8;

/// Rows of each shard's frequency sketch; a pair's estimate is the
/// smallest of its counters across them.
const SKETCH_ROWS: usize = 4;

/// A sketch counter saturates here, as a 4-bit counter would.
const SKETCH_MAX: u8 = 15;

/// Narrowest sketch row, so that a store of a few cells per shard still
/// tells a handful of families apart.
const SKETCH_MIN_WIDTH: usize = 64;

/// Lookups per counter of a row between two halvings of every counter.
const SKETCH_SAMPLE: u64 = 10;

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

/// A count-min sketch of one shard's family lookups. Its counters are
/// relaxed atomics, so lookups count under the shard's read lock; two
/// racing lookups may lose a count, which only blurs an estimate.
struct Sketch {
    /// [`SKETCH_ROWS`] rows of `2^bits` counters, row after row.
    counters: Box<[AtomicU8]>,
    bits: u32,
    /// Lookups counted so far; every `period`-th halves every counter.
    lookups: AtomicU64,
    period: u64,
}

impl Sketch {
    fn new(per_shard: usize) -> Self {
        let width = (2 * per_shard).next_power_of_two().max(SKETCH_MIN_WIDTH);
        Self {
            counters: (0..SKETCH_ROWS * width).map(|_| AtomicU8::new(0)).collect(),
            bits: width.trailing_zeros(),
            lookups: AtomicU64::new(0),
            period: SKETCH_SAMPLE * width as u64,
        }
    }

    /// `pair`'s counter in each row: a fixed splitmix64 mix of the pair
    /// and the row, so the counters a pair lands on never vary from run
    /// to run.
    fn slots(&self, pair: u64) -> impl Iterator<Item = &AtomicU8> {
        (0..SKETCH_ROWS).map(move |row| {
            let mut z = pair.wrapping_add((row as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            &self.counters[(row << self.bits) + (z >> (64 - self.bits)) as usize]
        })
    }

    /// Counts one lookup of `pair`, and ages every count by half at the
    /// end of each sample period.
    fn record(&self, pair: u64) {
        for c in self.slots(pair) {
            let n = c.load(Ordering::Relaxed);
            if n < SKETCH_MAX {
                c.store(n + 1, Ordering::Relaxed);
            }
        }
        if (self.lookups.fetch_add(1, Ordering::Relaxed) + 1) % self.period == 0 {
            for c in self.counters.iter() {
                c.store(c.load(Ordering::Relaxed) >> 1, Ordering::Relaxed);
            }
        }
    }

    /// The estimated lookups of `pair` in the current sample: never below
    /// the true count unless it saturated or was halved.
    fn estimate(&self, pair: u64) -> u8 {
        let counts = self.slots(pair).map(|c| c.load(Ordering::Relaxed));
        counts.min().expect("the sketch has rows")
    }
}

/// One lock's worth of families, the queue that picks their eviction
/// victims and the sketch that gates their admission. The keys digest
/// PMFs that tenants supply, so the map keeps the standard library's
/// keyed hasher; eviction never iterates the map, so its run-to-run
/// iteration order is invisible.
struct Shard {
    families: HashMap<u64, Family>,
    /// A lazy min-queue of `(stamp, pair, factor bits)`, one entry per
    /// resident cell. An entry holds its cell's stamp as of when it was
    /// queued; hits move the cell's stamp but leave the entry stale until
    /// eviction reaches it.
    queue: BinaryHeap<Reverse<(u64, u64, u64)>>,
    sketch: Sketch,
}

impl Shard {
    fn new(per_shard: usize) -> Self {
        Self {
            families: HashMap::new(),
            queue: BinaryHeap::new(),
            sketch: Sketch::new(per_shard),
        }
    }

    /// Cells resident in this shard.
    fn cells(&self) -> usize {
        self.queue.len()
    }

    /// The `(pair, factor bits)` of the least-recently-used cell, which
    /// the queue's head holds on return.
    ///
    /// A stale head is re-queued with its cell's current stamp; the first
    /// head whose stamp is still current is the victim. Entries are only
    /// written under the write lock, and any later restamp of their cell
    /// happens in a later critical section of this shard's lock with a
    /// tick the clock handed out after that, so no entry's stamp exceeds
    /// its cell's. A current head is then at most every resident cell's
    /// stamp, and since stamps are unique it is the cell a scan for the
    /// smallest stamp would pick.
    fn lru(&mut self) -> (u64, u64) {
        loop {
            let mut head = self.queue.peek_mut().expect("a full shard is non-empty");
            let Reverse((queued, pair, bits)) = *head;
            let slot = self.families.get(&pair).and_then(|f| f.slot(bits));
            let stamp = slot
                .expect("queued cells are resident")
                .stamp
                .load(Ordering::Relaxed);
            if stamp == queued {
                return (pair, bits);
            }
            *head = Reverse((stamp, pair, bits));
        }
    }

    /// Drops the least-recently-used cell, and its family once empty.
    fn evict_lru(&mut self) {
        let (pair, bits) = self.lru();
        self.queue.pop();
        let family = self
            .families
            .get_mut(&pair)
            .expect("queued cells are resident");
        family.cells.retain(|s| s.factor_bits != bits);
        if family.cells.is_empty() {
            self.families.remove(&pair);
        }
    }

    /// Whether a family with no resident cell may displace the LRU
    /// victim's: only one looked up strictly more often.
    fn admits(&mut self, pair: u64) -> bool {
        let (victim, _) = self.lru();
        self.sketch.estimate(pair) > self.sketch.estimate(victim)
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
    /// Cells evicted by the per-shard LRU bound. Cells the admission gate
    /// declined are `misses − insertions`: never interned, never evicted.
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
            shards: (0..SHARDS)
                .map(|_| RwLock::new(Shard::new(per_shard)))
                .collect(),
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
    /// counted once as a verify reject. Every call counts once in the
    /// shard's admission sketch.
    pub(crate) fn get_family(
        &self,
        pair: u64,
        exec: &Pmf,
        avail: &Pmf,
        factors: &[f64],
        out: &mut [Option<Arc<Cell>>],
    ) {
        let shard = self.shard_of(pair).read();
        shard.sketch.record(pair);
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
    /// cell for each one beyond its bound. A family with no resident cell
    /// that arrives at a full shard passes the admission gate first: it is
    /// interned only if it was looked up more often than the LRU victim's
    /// family, and otherwise nothing is interned or evicted. When a family
    /// with other inputs holds the key (a hash collision), the newcomer's
    /// cells are not interned: the resident family keeps its cells until
    /// the LRU drops them, and the newcomer's builds compute theirs, so a
    /// collision costs time, never a result. A cell whose factor is
    /// already resident — a concurrent build interned it first — only has
    /// its stamp refreshed, so residency never double-counts one cell
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
        let admitted = match shard.families.get(&pair) {
            Some(resident) => resident.proves(exec, avail),
            None => shard.cells() < self.per_shard || shard.admits(pair),
        };
        if !admitted {
            return;
        }
        for (factor, cell) in cells {
            let stamp = self.ticks(1);
            let bits = factor.to_bits();
            let resident = shard.families.get(&pair).and_then(|f| f.slot(bits));
            if let Some(s) = resident {
                s.stamp.store(stamp, Ordering::Relaxed);
                continue;
            }
            if shard.cells() >= self.per_shard {
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
            shard.queue.push(Reverse((stamp, pair, bits)));
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cells currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().cells()).sum()
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
impl Shard {
    /// The `(pair, factor bits)` a full scan picks as the LRU victim: the
    /// resident cell with the smallest stamp. The eviction queue must
    /// agree with it on every eviction.
    fn scan_victim(&self) -> Option<(u64, u64)> {
        self.families
            .iter()
            .flat_map(|(&pair, f)| {
                f.cells
                    .iter()
                    .map(move |s| (s.stamp.load(Ordering::Relaxed), pair, s.factor_bits))
            })
            .min()
            .map(|(_, pair, bits)| (pair, bits))
    }

    /// The `(pair, factor bits)` of every resident cell, sorted.
    fn resident(&self) -> Vec<(u64, u64)> {
        let mut cells: Vec<_> = self
            .families
            .iter()
            .flat_map(|(&pair, f)| f.cells.iter().map(move |s| (pair, s.factor_bits)))
            .collect();
        cells.sort_unstable();
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_pmf::CombineScratch;
    use proptest::prelude::*;

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

    /// What an engine build does with one family: look its factors up,
    /// then offer the cells that missed. Returns the hits.
    fn build(store: &CellStore, pair: u64, exec: &Pmf, factors: &[f64], avail: &Pmf) -> usize {
        let mut out = vec![None; factors.len()];
        store.get_family(pair, exec, avail, factors, &mut out);
        let missed = factors.iter().zip(&out).filter(|(_, c)| c.is_none());
        let cells: Vec<_> = missed.map(|(&f, _)| (f, mk_cell(exec, f, avail))).collect();
        store.insert_family(pair, exec, avail, cells);
        out.iter().flatten().count()
    }

    /// The admission sketch's estimate for `pair` in its shard.
    fn estimate(store: &CellStore, pair: u64) -> u8 {
        store.shard_of(pair).read().sketch.estimate(pair)
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
        // is observable. Each newcomer is looked up more often than the
        // resident family first, so the admission gate lets it in.
        let store = CellStore::new(8);
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let execs: Vec<Pmf> = (0..3).map(|i| mk_pmf(&[(100.0 + i as f64, 1.0)])).collect();
        let key = |i: usize| (i as u64) << 3; // same low 3 bits → same shard
        insert(&store, key(0), &execs[0], 1.0, &avail);
        assert!(get(&store, key(1), &execs[1], 1.0, &avail).is_none());
        insert(&store, key(1), &execs[1], 1.0, &avail);
        // Shard bound is 1: inserting family 1 evicted family 0.
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_none());
        assert!(get(&store, key(1), &execs[1], 1.0, &avail).is_some());
        // Touch 1, insert 2 → 1 was most recent but the shard holds one
        // cell, so 1 is evicted anyway; with per-shard capacity 1 the
        // newest admitted family always wins.
        for _ in 0..3 {
            assert!(get(&store, key(2), &execs[2], 1.0, &avail).is_none());
        }
        insert(&store, key(2), &execs[2], 1.0, &avail);
        assert!(get(&store, key(1), &execs[1], 1.0, &avail).is_none());
        let s = store.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.resident, 1);
    }

    #[test]
    fn lru_victim_is_the_stalest_cell() {
        // Per-shard capacity 2 (capacity 16 / 8 shards): A and B
        // resident, touch A, look C up once (B never was, so C passes the
        // admission gate), insert C → B (stalest) is evicted.
        let store = CellStore::new(16);
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let execs: Vec<Pmf> = (0..3).map(|i| mk_pmf(&[(100.0 + i as f64, 1.0)])).collect();
        let key = |i: usize| (i as u64) << 3;
        for (i, exec) in execs.iter().enumerate().take(2) {
            insert(&store, key(i), exec, 1.0, &avail);
        }
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_some());
        assert!(get(&store, key(2), &execs[2], 1.0, &avail).is_none());
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
    fn a_full_shard_admits_only_families_looked_up_more_than_the_victims() {
        // Per-shard capacity 2, filled by family A's two cells, which two
        // builds looked up. C, built once, is declined; D is declined
        // until its third build, which outnumbers A's lookups and evicts
        // both of A's cells.
        let store = CellStore::new(16);
        let avail = mk_pmf(&[(0.5, 0.5), (1.0, 0.5)]);
        let execs: Vec<Pmf> = (0..3).map(|i| mk_pmf(&[(100.0 + i as f64, 1.0)])).collect();
        let key = |i: usize| (i as u64 + 1) << 3;
        let factors = [1.0, 0.5];
        let [a, c, d] = [0, 1, 2];
        assert_eq!(build(&store, key(a), &execs[a], &factors, &avail), 0);
        assert_eq!(build(&store, key(a), &execs[a], &factors, &avail), 2);
        assert_eq!(estimate(&store, key(a)), 2);
        let full = store.shards[0].read().resident();
        assert_eq!(full.len(), 2);

        assert_eq!(build(&store, key(c), &execs[c], &factors, &avail), 0);
        assert_eq!(
            store.shards[0].read().resident(),
            full,
            "C was looked up less than A"
        );
        let s = store.stats();
        assert_eq!((s.insertions, s.evictions), (2, 0));
        assert_eq!(s.misses - s.insertions, 2, "C's two cells were declined");

        for declined in 1..=2 {
            assert_eq!(build(&store, key(d), &execs[d], &factors, &avail), 0);
            assert_eq!(estimate(&store, key(d)), declined);
            assert_eq!(
                store.shards[0].read().resident(),
                full,
                "D ties or trails A"
            );
        }
        assert_eq!(build(&store, key(d), &execs[d], &factors, &avail), 0);
        let want: Vec<_> = factors.iter().map(|f| (key(d), f.to_bits())).collect();
        let mut got = store.shards[0].read().resident();
        got.sort_by_key(|&(_, bits)| factors.iter().position(|f| f.to_bits() == bits));
        assert_eq!(got, want, "D outnumbers A and replaces both of its cells");
        let s = store.stats();
        assert_eq!((s.insertions, s.evictions), (4, 2));
        assert_eq!(s.misses - s.insertions, 6, "C's build and D's first two");
        assert_eq!(build(&store, key(a), &execs[a], &factors, &avail), 0);
    }

    #[test]
    fn a_newly_popular_family_is_admitted_within_one_halving_period() {
        // One cell per shard. A is built until its counters saturate;
        // then only B is built. B ties A at the ceiling and stays out
        // until the sketch halves both, and its next lookup outnumbers A.
        let store = CellStore::new(8);
        let period = store.shards[0].read().sketch.period;
        let avail = mk_pmf(&[(1.0, 1.0)]);
        let execs: Vec<Pmf> = (0..2).map(|i| mk_pmf(&[(100.0 + i as f64, 1.0)])).collect();
        let key = |i: usize| (i as u64 + 1) << 3;
        for _ in 0..2 * SKETCH_MAX {
            build(&store, key(0), &execs[0], &[1.0], &avail);
        }
        assert_eq!(estimate(&store, key(0)), SKETCH_MAX);
        let mut builds = 0;
        while build(&store, key(1), &execs[1], &[1.0], &avail) == 0 {
            builds += 1;
            assert!(builds <= period, "B still declined after {builds} builds");
        }
        assert!(
            builds > u64::from(SKETCH_MAX),
            "B was admitted before it outnumbered A"
        );
        assert!(get(&store, key(0), &execs[0], 1.0, &avail).is_none());
        assert_eq!(store.stats().evictions, 1);
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

    /// Families the oracle test steers into one shard, and the factors
    /// each may hold.
    const FAMILIES: usize = 4;
    const FACTORS: [f64; 3] = [1.0, 0.5, 0.25];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Two stores fed the same serial sequence of builds end with the
        /// same cells resident and the same counters: nothing the gate or
        /// the LRU reads varies between stores, not even the maps' keyed
        /// hasher. The 256 families share one shard, so they crowd the
        /// sketch's 64-counter rows and the verdicts hang on which
        /// families share counters.
        fn the_same_operation_sequence_leaves_the_same_cells_resident(
            per_shard in 1usize..=4,
            ops in prop::collection::vec((0u64..256, 1usize..8), 1..400),
        ) {
            let avail = mk_pmf(&[(0.5, 0.5), (1.0, 0.5)]);
            let exec = mk_pmf(&[(100.0, 0.5), (150.0, 0.5)]);
            let stores = [0, 1].map(|_| CellStore::new(per_shard * SHARDS));
            for (fam, pick) in ops {
                let factors: Vec<f64> = (0..FACTORS.len())
                    .filter(|k| (pick >> k) & 1 == 1)
                    .map(|k| FACTORS[k])
                    .collect();
                for store in &stores {
                    build(store, (fam + 1) << 3, &exec, &factors, &avail);
                }
            }
            let [a, b] = stores.map(|s| {
                let resident = s.shards[0].read().resident();
                (resident, s.stats())
            });
            prop_assert_eq!(a, b);
        }

        /// The lazy queue evicts exactly the cell the full scan picks.
        /// Random sequences of multi-factor hits, new and already
        /// resident inserts and colliding newcomers run against one
        /// shard holding 1–4 cells. Before every insert that must evict,
        /// the scan names its victim; a family with no resident cell is
        /// admitted only if the sketch counts it above the victim's
        /// family. An admitted insert removes exactly the scan's victim,
        /// a declined one changes nothing, and the queue holds one entry
        /// per resident cell.
        fn eviction_matches_the_scan_oracle(
            per_shard in 1usize..=4,
            ops in prop::collection::vec((0usize..4, 0usize..FAMILIES, 1usize..8), 1..80),
        ) {
            let store = CellStore::new(per_shard * SHARDS);
            let avail = mk_pmf(&[(0.5, 0.5), (1.0, 0.5)]);
            // Each family key has its own inputs and a rival's that
            // collide with them.
            let inputs: Vec<[Pmf; 2]> = (0..FAMILIES)
                .map(|i| {
                    let at = 100.0 + i as f64;
                    [mk_pmf(&[(at, 0.5), (150.0, 0.5)]), mk_pmf(&[(at, 0.5), (999.0, 0.5)])]
                })
                .collect();
            // Equal low key bits: every family lands in shard 0.
            let key = |i: usize| (i as u64 + 1) << 3;
            // Which inputs hold each key while it has resident cells.
            let mut owner: [Option<usize>; FAMILIES] = [None; FAMILIES];
            let (mut evictions, mut insertions) = (0, 0);
            for (kind, fam, pick) in ops {
                let before = store.shards[0].read().resident();
                let mut want = before.clone();
                // Kinds 0 and 2 use a key's own inputs, 1 and 3 its rival's.
                let who = kind % 2;
                if kind < 2 {
                    // A multi-factor lookup: the factors in `pick`'s bits.
                    let factors: Vec<f64> = (0..FACTORS.len())
                        .filter(|k| (pick >> k) & 1 == 1)
                        .map(|k| FACTORS[k])
                        .collect();
                    let mut out = vec![None; factors.len()];
                    store.get_family(key(fam), &inputs[fam][who], &avail, &factors, &mut out);
                } else {
                    // One cell: new, already resident (a stamp refresh),
                    // or a colliding newcomer, which is not interned.
                    let factor = FACTORS[pick % FACTORS.len()];
                    let id = (key(fam), factor.to_bits());
                    let free = owner[fam].unwrap_or(who) == who;
                    if free && before.binary_search(&id).is_err() {
                        let resident = before.iter().any(|&(pair, _)| pair == key(fam));
                        let victim = store.shards[0].read().scan_victim();
                        let admitted = match victim {
                            Some(victim) if before.len() == per_shard && !resident => {
                                estimate(&store, key(fam)) > estimate(&store, victim.0)
                            }
                            _ => true,
                        };
                        if admitted {
                            if before.len() == per_shard {
                                want.retain(|&c| Some(c) != victim);
                                evictions += 1;
                            }
                            want.push(id);
                            want.sort_unstable();
                            owner[fam] = Some(who);
                            insertions += 1;
                        }
                    }
                    let exec = &inputs[fam][who];
                    let cell = mk_cell(exec, factor, &avail);
                    store.insert_family(key(fam), exec, &avail, [(factor, cell)]);
                }
                for (f, o) in owner.iter_mut().enumerate() {
                    if !want.iter().any(|&(pair, _)| pair == key(f)) {
                        *o = None;
                    }
                }
                let shard = store.shards[0].read();
                prop_assert_eq!(shard.resident(), want, "op ({}, {}, {}) from {:?}", kind, fam, pick, before);
                prop_assert_eq!(shard.queue.len(), want.len(), "one queue entry per resident cell");
                prop_assert_eq!(store.stats().evictions, evictions);
                prop_assert_eq!(store.stats().insertions, insertions);
            }
        }
    }
}
