//! The shared Stage-I φ₁ evaluation engine.
//!
//! Every Stage-I policy ultimately asks the same questions about the same
//! small set of PMFs: for an `(application, processor type, power-of-two
//! share)` triple, what is the loaded completion-time distribution, its
//! deadline probability, and its expectation? Before this engine existed,
//! each allocator recomputed the Amdahl rescale and the availability
//! quotient per call site — the probability table once, the expected times
//! again for tie-breaking, and `evaluate` a third time for reporting.
//!
//! [`Phi1Engine`] memoizes both PMFs per key exactly once:
//!
//! * the **dedicated** parallel-time PMF (paper Eq. (2) — Amdahl rescale of
//!   the single-processor execution PMF), which also seeds the Monte-Carlo
//!   samplers;
//! * the **loaded** completion-time PMF (dedicated ÷ availability), from
//!   which deadline probabilities, expectations, and tail statistics are
//!   pure lookups.
//!
//! Because the loaded PMFs are *deadline-independent*, one engine serves
//! any number of deadlines: [`Phi1Engine::table`] derives a
//! [`ProbabilityTable`] for a given Δ with CDF evaluations only.
//!
//! # Storage layout
//!
//! Cells live in one contiguous arena (`cells: Vec<Arc<Cell>>`) addressed
//! by a flat `(app, type) → (start, len)` offset table, so a triple lookup
//! is two array reads and an add — no nested `Vec<Vec<Option<Vec<_>>>>`
//! pointer chasing. The hot query paths never walk the `Pmf` pulse
//! structs: each `Cell` caches its loaded PMF's pulse values as a
//! contiguous structure-of-arrays slice plus its expectation at
//! construction, so [`Phi1Engine::prob`] is a binary search over a
//! contiguous `f64` run (the prefix-CDF read comes from the `Pmf`'s own
//! cached cumulative table) and [`Phi1Engine::table`] is one linear pass
//! over the arena. Because these projections live *in the cell*, a build
//! that resolves cells from the content-addressed
//! [`crate::cell_store::CellStore`] inherits them for free instead of
//! re-mirroring every pulse.
//!
//! # Determinism contract
//!
//! The cell set is a deterministic function of `(batch, platform)`, and
//! each cell is computed by the same code path as the serial helpers in
//! [`cdsf_system::parallel_time`]. The parallel build schedules
//! `(app, type)` pair families over the [`cdsf_system::pool`]
//! work-stealing pool, each family writing into its own pre-assigned
//! slot, and stitches the slots back *by pair index*, so the engine built
//! with any `threads ≥ 1` is bit-identical to the serial build regardless
//! of steal interleaving — equality, not approximate agreement, is
//! asserted in the `engine_equivalence` integration tests and the
//! cross-crate `determinism` suite. The SoA mirrors copy the
//! loaded PMFs' own prefix tables verbatim, so SoA answers are the same
//! bits as `Pmf::cdf` on the cached PMFs.

use crate::allocation::{Allocation, Assignment};
use crate::cell_store::{self, CellStore};
use crate::robustness::ProbabilityTable;
use crate::{RaError, Result};
use cdsf_pmf::hash::{fnv1a_pmf, fnv1a_seed, fnv1a_u64};
use cdsf_pmf::{CombineScratch, Pmf};
use cdsf_system::parallel_time::{amdahl_factor, parallel_time_pmf};
use cdsf_system::pool::{self, PoolStats};
use cdsf_system::{Batch, Platform, ProcTypeId, SystemError};
use std::sync::{Arc, OnceLock};

/// One memoized `(app, type, 2^k share)` cell.
///
/// Cells are held behind [`Arc`] so the content-addressed [`CellStore`]
/// can intern one copy across engines, tenants, and serve shards, and a
/// build that resolves a cell from it shares the cell by reference-count
/// bump instead of deep-cloning its PMFs.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// Dedicated parallel-time PMF (Amdahl-rescaled execution time).
    pub(crate) dedicated: Pmf,
    /// Loaded completion-time PMF (dedicated ÷ availability).
    pub(crate) loaded: Pmf,
    /// `loaded`'s pulse values as one contiguous slice — the SoA
    /// projection the engine's binary searches run over, computed once
    /// here so store-resolved builds skip the per-pulse mirror pass.
    pub(crate) loaded_values: Vec<f64>,
    /// Cached `loaded.expectation()`.
    pub(crate) expected: f64,
}

impl Cell {
    /// Seals a computed PMF pair into a cell, deriving the cached query
    /// projections. Every cell goes through here, so two cells built
    /// from bit-identical PMFs carry bit-identical projections.
    pub(crate) fn new(dedicated: Pmf, loaded: Pmf) -> Self {
        let loaded_values = loaded.pulses().iter().map(|p| p.value).collect();
        let expected = loaded.expectation();
        Self {
            dedicated,
            loaded,
            loaded_values,
            expected,
        }
    }
}

/// A build job: compute the cells for one `(application, processor type)`
/// pair — all power-of-two share options at once, so the fused kernel can
/// share the availability-expanded probability products across the family.
#[derive(Debug, Clone, Copy)]
struct Pair {
    app: usize,
    ty: usize,
    /// Arena offset of this pair's first cell.
    start: u32,
    /// Number of power-of-two options (cells) for this pair.
    count: u32,
}

/// Estimated construction work — pulse-pair kernel operations, summed over
/// the cells that actually need computing — below which
/// [`Phi1Engine::build_parallel`] runs serially regardless of the
/// requested thread count. For small instances the scoped-thread
/// spawn/join overhead (hundreds of microseconds) dwarfs the kernel time,
/// which is how the pre-threshold build managed to get *slower* with more
/// threads; above the threshold the kernel time dominates and the fan-out
/// pays for itself.
pub const PARALLEL_BUILD_MIN_WORK: u64 = 1 << 16;

/// Options of [`Phi1Engine::build_with`], the one engine build that
/// [`Phi1Engine::build`] and [`Phi1Engine::build_parallel`] abbreviate.
/// No option changes a bit of the engine; they only decide how its cells
/// are obtained.
#[derive(Debug, Clone, Copy)]
pub struct EngineBuild<'a> {
    /// Pool workers (at least 1).
    pub threads: usize,
    /// Estimated kernel work (pulse-pair operations over the cells that
    /// need computing) below which the build runs serially whatever
    /// `threads` says. [`PARALLEL_BUILD_MIN_WORK`] by default; `0` forces
    /// the pool, for tuning and for exercising the parallel path in
    /// tests.
    pub min_work: u64,
    /// Content-addressed store to resolve cells from before any kernel
    /// runs, and to intern the computed ones into. Every cell whose exact
    /// inputs (execution PMF bits, Amdahl factor bits, availability PMF
    /// bits) are resident is taken from it, verified bitwise; a build
    /// whose cells all resolve runs no kernel at all.
    pub store: Option<&'a CellStore>,
}

impl Default for EngineBuild<'_> {
    fn default() -> Self {
        Self {
            threads: 1,
            min_work: PARALLEL_BUILD_MIN_WORK,
            store: None,
        }
    }
}

/// Fingerprint of everything the engine build kernel reads: per
/// application the iteration split and the execution-time PMF bits per
/// type, per processor type the count (which fixes the power-of-two
/// option lattice) and the availability PMF bits. Application and type
/// *names* are deliberately excluded — they do not influence a single
/// cell bit. The serve shards key their allocation-result cache on it, so
/// two inputs with one key share one Stage-I answer.
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

/// Per-option Stage-I statistics of one application at one deadline, as
/// produced by [`Phi1Engine::option_stats_into`]: the assignment itself,
/// its deadline probability and expected loaded time (the quantities every
/// allocator scores on), and the *minimum* loaded completion time — the
/// smallest deadline for which the option has any chance at all, which is
/// what the lattice solver's infeasibility proofs are built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionStats {
    /// The `(type, power-of-two count)` option.
    pub asg: Assignment,
    /// `Pr(T ≤ Δ)` of the loaded completion time.
    pub prob: f64,
    /// Expected loaded completion time.
    pub exp_time: f64,
    /// Smallest loaded completion-time pulse value: `Pr(T ≤ Δ) = 0` for
    /// every `Δ` below it, and `> 0` at it.
    pub min_loaded: f64,
}

/// Memoized per-`(application, processor type, power-of-two share)` PMF
/// cache backing every Stage-I φ₁ evaluation.
///
/// Build once per `(batch, platform)` — serially with [`Phi1Engine::build`]
/// or in parallel with [`Phi1Engine::build_parallel`] (bit-identical) —
/// then query deadline probabilities, expected times, loaded PMFs, and
/// Monte-Carlo sampler inputs without recomputing any PMF arithmetic.
#[derive(Debug, Clone)]
pub struct Phi1Engine {
    num_apps: usize,
    num_types: usize,
    /// `(app * num_types + type)` → arena range of that pair's cells
    /// (`k = log2(procs)` is the offset within the range); `None` where
    /// the application has no execution-time PMF for the type.
    index: Vec<Option<(u32, u32)>>,
    /// Contiguous cell arena, grouped by `(app, type)` with `k` ascending.
    /// Each cell carries its own cached SoA projections (see [`Cell`]).
    cells: Vec<Arc<Cell>>,
    /// Availability PMF per processor type (for Monte-Carlo sampling).
    availability: Vec<Pmf>,
}

impl Phi1Engine {
    /// Builds the cache serially.
    pub fn build(batch: &Batch, platform: &Platform) -> Result<Self> {
        Self::build_parallel(batch, platform, 1)
    }

    /// Builds the cache with `threads` workers. Cells are independent and
    /// stitched back by index, so the result is bit-identical for every
    /// thread count. Builds whose estimated kernel work is below
    /// [`PARALLEL_BUILD_MIN_WORK`] run serially — spawning threads for
    /// them is a net loss.
    pub fn build_parallel(batch: &Batch, platform: &Platform, threads: usize) -> Result<Self> {
        let opts = EngineBuild {
            threads,
            ..EngineBuild::default()
        };
        Self::build_with(batch, platform, &opts).map(|(e, _)| e)
    }

    /// The engine build behind every entry point, returning the
    /// work-stealing pool's scheduling metadata ([`PoolStats`]) with the
    /// engine: which worker built how many `(app, type)` pair families
    /// and how many chunks it stole. The engine is bit-identical for
    /// every `opts`; only the stats depend on the interleaving.
    pub fn build_with(
        batch: &Batch,
        platform: &Platform,
        opts: &EngineBuild<'_>,
    ) -> Result<(Self, PoolStats)> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        if opts.threads == 0 {
            return Err(RaError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }

        let num_apps = batch.len();
        let num_types = platform.num_types();

        // Enumerate the cell set. Pairs are emitted app-major then
        // type-major, each spanning its `k`-ascending cell run — exactly
        // the arena order — so the computed cells land in the arena by
        // plain extension.
        let mut pairs: Vec<Pair> = Vec::new();
        let mut total_cells = 0u32;
        let mut index: Vec<Option<(u32, u32)>> = Vec::with_capacity(num_apps * num_types);
        for (i, (id, app)) in batch.iter().enumerate() {
            debug_assert_eq!(i, id.0);
            for j in 0..num_types {
                let ty = ProcTypeId(j);
                if app.exec_time(ty).is_err() {
                    index.push(None);
                    continue;
                }
                let count = platform.pow2_options(ty)?.len() as u32;
                pairs.push(Pair {
                    app: i,
                    ty: j,
                    start: total_cells,
                    count,
                });
                index.push(Some((total_cells, count)));
                total_cells += count;
            }
        }

        let (cells, stats) = compute_cells(batch, platform, &pairs, opts)?;

        let availability = platform
            .types()
            .iter()
            .map(|t| t.availability().clone())
            .collect();
        Ok((
            Self {
                num_apps,
                num_types,
                index,
                cells,
                availability,
            },
            stats,
        ))
    }

    /// Number of applications covered.
    pub fn num_apps(&self) -> usize {
        self.num_apps
    }

    /// Number of processor types covered.
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Arena index of a triple's cell; `None` out of range.
    #[inline]
    fn cell_index(&self, app: usize, proc_type: ProcTypeId, procs: u32) -> Option<usize> {
        if !procs.is_power_of_two() || app >= self.num_apps || proc_type.0 >= self.num_types {
            return None;
        }
        let k = procs.trailing_zeros() as usize;
        let (start, len) = self.index[app * self.num_types + proc_type.0]?;
        if k >= len as usize {
            return None;
        }
        Some(start as usize + k)
    }

    fn cell(&self, app: usize, proc_type: ProcTypeId, procs: u32) -> Option<&Cell> {
        self.cell_index(app, proc_type, procs)
            .map(|c| self.cells[c].as_ref())
    }

    /// CDF of cell `c`'s loaded PMF straight from the cell's SoA
    /// projection — the same partition-point + prefix-table read as
    /// [`Pmf::cdf`] over the same bits, so the result is identical.
    #[inline]
    fn cell_cdf(&self, c: usize, deadline: f64) -> f64 {
        let cell = self.cells[c].as_ref();
        let idx = cell.loaded_values.partition_point(|&v| v <= deadline);
        if idx == 0 {
            0.0
        } else {
            cell.loaded.cumulative()[idx - 1]
        }
    }

    /// The loaded completion-time PMF of application `app` on `procs` (a
    /// power of two) processors of `proc_type`; `None` out of range.
    pub fn loaded_pmf(&self, app: usize, proc_type: ProcTypeId, procs: u32) -> Option<&Pmf> {
        self.cell(app, proc_type, procs).map(|c| &c.loaded)
    }

    /// The dedicated parallel-time PMF (Amdahl-rescaled, availability not
    /// applied) — the distribution the Monte-Carlo estimator samples.
    pub fn dedicated_pmf(&self, app: usize, proc_type: ProcTypeId, procs: u32) -> Option<&Pmf> {
        self.cell(app, proc_type, procs).map(|c| &c.dedicated)
    }

    /// The availability PMF of a processor type.
    pub fn availability_pmf(&self, proc_type: ProcTypeId) -> Option<&Pmf> {
        self.availability.get(proc_type.0)
    }

    /// Cached expected loaded completion time.
    pub fn expected_time(&self, app: usize, proc_type: ProcTypeId, procs: u32) -> Option<f64> {
        self.cell(app, proc_type, procs).map(|c| c.expected)
    }

    /// `Pr(T ≤ Δ)` for a triple at an arbitrary deadline — a prefix-table
    /// read on the SoA mirror of the cached loaded PMF, bit-identical to
    /// [`cdsf_system::parallel_time::completion_probability`].
    pub fn prob(
        &self,
        app: usize,
        proc_type: ProcTypeId,
        procs: u32,
        deadline: f64,
    ) -> Option<f64> {
        self.cell_index(app, proc_type, procs)
            .map(|c| self.cell_cdf(c, deadline))
    }

    /// `φ₁` of a full allocation at `deadline` by lookup; `None` if any
    /// triple is unknown. (Capacity feasibility is *not* checked here.)
    ///
    /// Once the running product hits exactly 0.0 the remaining CDF reads
    /// cannot change it, so they are skipped — only the (cheap) existence
    /// checks continue, preserving the `None`-on-unknown contract.
    pub fn joint(&self, alloc: &Allocation, deadline: f64) -> Option<f64> {
        let mut p = 1.0;
        for (i, asg) in alloc.assignments().iter().enumerate() {
            let c = self.cell_index(i, asg.proc_type, asg.procs)?;
            if p == 0.0 {
                continue;
            }
            p *= self.cell_cdf(c, deadline);
        }
        Some(p)
    }

    /// All cached `(type, pow2 count)` options of one application, in
    /// deterministic (type-major, count-ascending) order.
    pub fn options(&self, app: usize) -> Vec<Assignment> {
        let mut out = Vec::new();
        if app >= self.num_apps {
            return out;
        }
        for j in 0..self.num_types {
            if let Some((_, len)) = self.index[app * self.num_types + j] {
                for k in 0..len as usize {
                    out.push(Assignment {
                        proc_type: ProcTypeId(j),
                        procs: 1 << k,
                    });
                }
            }
        }
        out
    }

    /// Appends every option of `app` with its statistics at `deadline` to
    /// `out` — one linear pass over the application's arena cells, in the
    /// same deterministic (type-major, count-ascending) order as
    /// [`Phi1Engine::options`]. Each entry is three SoA reads (prefix-CDF
    /// lookup, cached expectation, first pulse value); nothing is
    /// recomputed and nothing beyond `out`'s growth is allocated, so the
    /// lattice solver can rebuild its bound tables from a warm scratch
    /// without touching the allocator. Out-of-range `app` appends nothing.
    pub fn option_stats_into(&self, app: usize, deadline: f64, out: &mut Vec<OptionStats>) {
        if app >= self.num_apps {
            return;
        }
        for j in 0..self.num_types {
            let Some((start, len)) = self.index[app * self.num_types + j] else {
                continue;
            };
            for k in 0..len {
                let c = (start + k) as usize;
                let cell = self.cells[c].as_ref();
                out.push(OptionStats {
                    asg: Assignment {
                        proc_type: ProcTypeId(j),
                        procs: 1 << k,
                    },
                    prob: self.cell_cdf(c, deadline),
                    exp_time: cell.expected,
                    min_loaded: cell.loaded_values[0],
                });
            }
        }
    }

    /// Derives the memoized [`ProbabilityTable`] for one deadline in one
    /// linear pass over the arena. Exactly equal — not merely close — to
    /// [`ProbabilityTable::build`] on the same inputs, because both
    /// evaluate the same loaded PMFs' CDFs.
    pub fn table(&self, deadline: f64) -> Result<ProbabilityTable> {
        if !(deadline > 0.0) || !deadline.is_finite() {
            return Err(RaError::BadParameter {
                name: "deadline",
                value: deadline,
            });
        }
        let mut probs = Vec::with_capacity(self.num_apps);
        for app in 0..self.num_apps {
            let mut per_type = Vec::with_capacity(self.num_types);
            for ty in 0..self.num_types {
                per_type.push(self.index[app * self.num_types + ty].map(|(start, len)| {
                    (start..start + len)
                        .map(|c| self.cell_cdf(c as usize, deadline))
                        .collect()
                }));
            }
            probs.push(per_type);
        }
        Ok(ProbabilityTable::from_raw(probs, deadline))
    }

    /// FNV-1a digest of every table the engine serves answers from: the
    /// cell layout plus the exact bits of each cell's dedicated and loaded
    /// PMFs (values, probabilities, prefix CDFs), cached expectations, and
    /// the availability PMFs. Two engines with equal fingerprints answer
    /// every `prob`/`expected_time`/`table` query with the same bits, so
    /// the serving layer's snapshot/restore and crash-replay suites assert
    /// state equality through this one `u64` instead of walking the
    /// arenas.
    pub fn table_fingerprint(&self) -> u64 {
        let mut h = fnv1a_seed();
        h = fnv1a_u64(h, self.num_apps as u64);
        h = fnv1a_u64(h, self.num_types as u64);
        for slot in &self.index {
            match slot {
                None => h = fnv1a_u64(h, u64::MAX),
                Some((start, len)) => {
                    h = fnv1a_u64(h, *start as u64);
                    h = fnv1a_u64(h, *len as u64);
                }
            }
        }
        for cell in &self.cells {
            for pmf in [&cell.dedicated, &cell.loaded] {
                h = fnv1a_pmf(h, pmf);
            }
        }
        for cell in &self.cells {
            h = fnv1a_u64(h, cell.expected.to_bits());
        }
        for pmf in &self.availability {
            h = fnv1a_pmf(h, pmf);
        }
        h
    }
}

/// Computes all cells pair by pair through the fused scale→quotient
/// kernel — after resolving what it can from the store, if one is given —
/// fanning out over the [`cdsf_system::pool`] work-stealing pool only
/// when the estimated kernel work of the cells that actually need
/// computing is at least `min_work`. Results are returned in arena order;
/// the first failing pair (in pair order) decides the error — that is the
/// pool's min-task-index error contract.
///
/// The unit of work is an `(app, type)` *pair family*, never a single
/// cell: the fused `scale_quotient_family` kernel shares the
/// availability-expanded probability products across the pair's whole
/// power-of-two run, and splitting below pair granularity would forfeit
/// that sharing. Only pairs with unresolved cells become pool tasks; each
/// task's cells go into a per-task [`OnceLock`] slot, and the arena is
/// stitched in order afterwards, so it — and with it the whole engine —
/// is bit-identical for every thread count and every steal interleaving.
/// Per-worker [`CombineScratch`] arenas are created once and reused
/// across all (owned and stolen) pairs a worker executes.
fn compute_cells(
    batch: &Batch,
    platform: &Platform,
    pairs: &[Pair],
    opts: &EngineBuild<'_>,
) -> Result<(Vec<Arc<Cell>>, PoolStats)> {
    let apps: Vec<_> = batch.iter().map(|(_, app)| app).collect();
    let total_cells = pairs.last().map_or(0, |p| (p.start + p.count) as usize);
    let store = opts.store;

    // Resolve every cell the store already holds, up front. A resolved
    // cell's inputs are verified bit-identical to what the kernel would
    // consume, so it *is* the cell a fresh build would compute. The pass
    // is serial and cheap — per pair, one key from the two PMFs' cached
    // digests and one bitwise comparison of the inputs for the whole
    // power-of-two run — which turns a high-overlap build into a
    // near-pure lookup: only the leftover cells are weighed and
    // dispatched to the pool.
    let mut ready: Vec<Option<Arc<Cell>>> = vec![None; total_cells];
    if let Some(store) = store {
        let mut factors = Vec::new();
        for pair in pairs {
            let app = apps[pair.app];
            let ty = ProcTypeId(pair.ty);
            let (Ok(exec), Ok(proc)) = (app.exec_time(ty), platform.proc_type(ty)) else {
                continue;
            };
            let avail = proc.availability();
            let s = app.serial_fraction();
            factors.clear();
            factors.extend((0..pair.count).map(|k| amdahl_factor(s, 1u32 << k)));
            let run = pair.start as usize..(pair.start + pair.count) as usize;
            let key = cell_store::pair_hash(exec, avail);
            store.get_family(key, exec, avail, &factors, &mut ready[run]);
        }
    }

    // Only the pairs with cells left to compute become pool tasks, each
    // weighted by its estimated work: pulse-pair kernel operations over
    // its unresolved cells.
    let (todo, todo_work): (Vec<usize>, Vec<u64>) = pairs
        .iter()
        .enumerate()
        .filter_map(|(p, pair)| {
            let ty = ProcTypeId(pair.ty);
            let exec_len = apps[pair.app].exec_time(ty).map_or(0, |e| e.len()) as u64;
            let avail_len = platform.proc_type(ty).map_or(0, |t| t.availability().len()) as u64;
            let computed = (0..pair.count)
                .filter(|&k| ready[(pair.start + k) as usize].is_none())
                .count() as u64;
            (computed > 0).then_some((p, computed * exec_len * avail_len))
        })
        .unzip();
    let total_work: u64 = todo_work.iter().sum();

    // Computes the pair's unresolved cells, in `k` order, and interns
    // them in the store.
    let compute_pair = |pair: &Pair, scratch: &mut CombineScratch| -> Result<Vec<Arc<Cell>>> {
        let app = apps[pair.app];
        let ty = ProcTypeId(pair.ty);
        let s = app.serial_fraction();
        let missing: Vec<u32> = (0..pair.count)
            .filter(|&k| ready[(pair.start + k) as usize].is_none())
            .collect();
        // The Amdahl factors of the cells that need computing; the fused
        // family call shares the availability-expanded probability
        // products across all of them.
        let factors: Vec<f64> = missing
            .iter()
            .map(|&k| amdahl_factor(s, 1u32 << k))
            .collect();
        let exec = app.exec_time(ty)?;
        let avail = platform.proc_type(ty)?.availability();
        let loadeds = exec
            .scale_quotient_family(&factors, avail, scratch)
            .map_err(SystemError::from)?;
        let cells = missing
            .iter()
            .zip(loadeds)
            .map(|(&k, loaded)| {
                let dedicated = parallel_time_pmf(app, ty, 1u32 << k)?;
                Ok(Arc::new(Cell::new(dedicated, loaded)))
            })
            .collect::<Result<Vec<_>>>()?;
        if let Some(store) = store {
            let key = cell_store::pair_hash(exec, avail);
            store.insert_family(
                key,
                exec,
                avail,
                factors.into_iter().zip(cells.iter().cloned()),
            );
        }
        Ok(cells)
    };

    let threads = if total_work < opts.min_work {
        1
    } else {
        opts.threads.min(todo.len()).max(1)
    };

    // One result slot per task; the pool schedules, the slots keep each
    // pair's cells apart, and the stitch below is the in-order
    // deterministic reduction.
    let slots: Vec<OnceLock<Vec<Arc<Cell>>>> = (0..todo.len()).map(|_| OnceLock::new()).collect();
    let stats = pool::run(
        threads,
        todo.len(),
        Some(&todo_work),
        CombineScratch::new,
        |idx, scratch: &mut CombineScratch| -> Result<()> {
            let cells = compute_pair(&pairs[todo[idx]], scratch)?;
            slots[idx].set(cells).expect("each pair is computed once");
            Ok(())
        },
    )?;

    // Each computed cell goes into its pair's next unresolved slot, which
    // completes the arena in order.
    for (&p, slot) in todo.iter().zip(slots) {
        let pair = &pairs[p];
        let mut cells = slot
            .into_inner()
            .expect("error-free run fills every slot")
            .into_iter();
        for cell in &mut ready[pair.start as usize..(pair.start + pair.count) as usize] {
            if cell.is_none() {
                *cell = cells.next();
            }
        }
    }
    let out = ready
        .into_iter()
        .map(|cell| cell.expect("every cell resolved or computed"))
        .collect();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::testutil::*;
    use cdsf_system::parallel_time::{completion_probability, loaded_time_pmf};

    #[test]
    fn cells_match_direct_pmf_arithmetic() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        for (i, (_, app)) in b.iter().enumerate() {
            for j in 0..p.num_types() {
                let ty = ProcTypeId(j);
                for n in p.pow2_options(ty).unwrap() {
                    let direct = loaded_time_pmf(app, &p, ty, n).unwrap();
                    assert_eq!(engine.loaded_pmf(i, ty, n).unwrap(), &direct);
                    let direct_ded = parallel_time_pmf(app, ty, n).unwrap();
                    assert_eq!(engine.dedicated_pmf(i, ty, n).unwrap(), &direct_ded);
                    assert_eq!(
                        engine.expected_time(i, ty, n).unwrap(),
                        direct.expectation()
                    );
                    let p_direct = completion_probability(app, &p, ty, n, DEADLINE).unwrap();
                    assert_eq!(engine.prob(i, ty, n, DEADLINE).unwrap(), p_direct);
                }
            }
        }
    }

    #[test]
    fn soa_mirror_matches_pmf_cdf_everywhere() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        for i in 0..b.len() {
            for j in 0..p.num_types() {
                let ty = ProcTypeId(j);
                for n in p.pow2_options(ty).unwrap() {
                    let pmf = engine.loaded_pmf(i, ty, n).unwrap();
                    // Probe below, between, at, and above support points.
                    let mut probes = vec![0.0, pmf.min_value() - 1.0, pmf.max_value() + 1.0];
                    for pulse in pmf.pulses() {
                        probes.push(pulse.value);
                        probes.push(pulse.value + 0.5);
                    }
                    let pmf = pmf.clone();
                    for x in probes {
                        assert_eq!(engine.prob(i, ty, n, x).unwrap(), pmf.cdf(x));
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let (b, p) = (paper_batch(64), paper_platform());
        let serial = Phi1Engine::build(&b, &p).unwrap();
        for threads in [2usize, 3, 8, 64] {
            let par = Phi1Engine::build_parallel(&b, &p, threads).unwrap();
            for i in 0..b.len() {
                for j in 0..p.num_types() {
                    let ty = ProcTypeId(j);
                    for n in p.pow2_options(ty).unwrap() {
                        assert_eq!(serial.loaded_pmf(i, ty, n), par.loaded_pmf(i, ty, n));
                        assert_eq!(serial.dedicated_pmf(i, ty, n), par.dedicated_pmf(i, ty, n));
                    }
                }
            }
        }
    }

    #[test]
    fn table_equals_uncached_probability_table() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build_parallel(&b, &p, 4).unwrap();
        for deadline in [500.0, DEADLINE, 10_000.0] {
            let cached = engine.table(deadline).unwrap();
            let uncached = ProbabilityTable::build(&b, &p, deadline).unwrap();
            for i in 0..b.len() {
                for j in 0..p.num_types() {
                    let ty = ProcTypeId(j);
                    for n in p.pow2_options(ty).unwrap() {
                        assert_eq!(cached.prob(i, ty, n), uncached.prob(i, ty, n));
                    }
                }
            }
        }
    }

    #[test]
    fn options_match_allocator_helper() {
        let (b, p) = (paper_batch(8), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        for (i, (_, app)) in b.iter().enumerate() {
            let direct = crate::allocators::app_options(app, &p).unwrap();
            assert_eq!(engine.options(i), direct);
        }
    }

    #[test]
    fn option_stats_match_scalar_queries() {
        let (b, p) = (paper_batch(16), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        for app in 0..b.len() {
            let mut stats = Vec::new();
            engine.option_stats_into(app, DEADLINE, &mut stats);
            let opts = engine.options(app);
            assert_eq!(stats.len(), opts.len());
            for (s, &asg) in stats.iter().zip(&opts) {
                assert_eq!(s.asg, asg);
                assert_eq!(
                    s.prob,
                    engine
                        .prob(app, asg.proc_type, asg.procs, DEADLINE)
                        .unwrap()
                );
                assert_eq!(
                    s.exp_time,
                    engine.expected_time(app, asg.proc_type, asg.procs).unwrap()
                );
                let pmf = engine.loaded_pmf(app, asg.proc_type, asg.procs).unwrap();
                assert_eq!(s.min_loaded, pmf.min_value());
                // Below the minimum pulse the option is hopeless; at it,
                // it is not — the property the infeasibility proof uses.
                assert_eq!(
                    engine.prob(app, asg.proc_type, asg.procs, s.min_loaded),
                    Some(pmf.cdf(s.min_loaded))
                );
                assert!(pmf.cdf(s.min_loaded) > 0.0);
                assert_eq!(pmf.cdf(s.min_loaded * 0.999), 0.0);
            }
        }
        let mut stats = Vec::new();
        engine.option_stats_into(99, DEADLINE, &mut stats);
        assert!(stats.is_empty());
    }

    #[test]
    fn out_of_range_lookups_are_none() {
        let (b, p) = (paper_batch(8), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        assert!(engine.prob(0, ProcTypeId(0), 3, DEADLINE).is_none());
        assert!(engine.prob(0, ProcTypeId(9), 2, DEADLINE).is_none());
        assert!(engine.prob(9, ProcTypeId(0), 2, DEADLINE).is_none());
        assert!(engine.prob(0, ProcTypeId(0), 64, DEADLINE).is_none());
        assert!(engine.expected_time(0, ProcTypeId(0), 64).is_none());
    }

    #[test]
    fn joint_zero_short_circuit_keeps_none_contract() {
        let (b, p) = (paper_batch(8), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        // An impossible deadline drives every factor to 0.0; the early
        // exit must still return Some(0.0) for known triples...
        let alloc = Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 1,
            };
            b.len()
        ]);
        assert_eq!(engine.joint(&alloc, 1e-6), Some(0.0));
        // ...and None when a later triple is unknown, even after the
        // product has already hit zero.
        let mut bad = alloc.assignments().to_vec();
        bad[b.len() - 1].procs = 3;
        assert_eq!(engine.joint(&Allocation::new(bad), 1e-6), None);
    }

    fn assert_engines_identical(a: &Phi1Engine, b: &Phi1Engine) {
        assert_eq!(a.num_apps, b.num_apps);
        assert_eq!(a.num_types, b.num_types);
        assert_eq!(a.index, b.index);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert!(x.dedicated.bits_eq(&y.dedicated));
            assert!(x.loaded.bits_eq(&y.loaded));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.loaded_values), bits(&y.loaded_values));
            assert_eq!(bits(x.loaded.cumulative()), bits(y.loaded.cumulative()));
            assert_eq!(x.expected.to_bits(), y.expected.to_bits());
        }
        for (x, y) in a.availability.iter().zip(&b.availability) {
            assert!(x.bits_eq(y));
        }
    }

    fn build_through(store: &CellStore, b: &Batch, p: &Platform, threads: usize) -> Phi1Engine {
        let opts = EngineBuild {
            threads,
            min_work: 0,
            store: Some(store),
        };
        Phi1Engine::build_with(b, p, &opts).unwrap().0
    }

    /// A copy of `app` on the types `keep`, with every execution PMF
    /// scaled by `frac` (`None` carries the PMFs over by clone) — the
    /// shape of a remnant app in the online scheduler.
    fn remnant_app(
        app: &cdsf_system::Application,
        keep: std::ops::Range<usize>,
        frac: Option<f64>,
    ) -> cdsf_system::Application {
        let mut b = cdsf_system::Application::builder(app.name())
            .serial_iters(app.serial_iters())
            .parallel_iters(app.parallel_iters());
        for j in keep {
            let exec = app.exec_time(ProcTypeId(j)).unwrap();
            b = b.exec_time_pmf(match frac {
                Some(f) => exec.scale(f).unwrap(),
                None => exec.clone(),
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn forced_parallel_build_is_bit_identical_to_serial() {
        // `min_work = 0` forces the threaded path even though this
        // instance sits below the serial-fallback threshold.
        let (b, p) = (paper_batch(32), paper_platform());
        let serial = Phi1Engine::build(&b, &p).unwrap();
        for threads in [2usize, 3, 4, 16] {
            let opts = EngineBuild {
                threads,
                min_work: 0,
                store: None,
            };
            let (par, _) = Phi1Engine::build_with(&b, &p, &opts).unwrap();
            assert_engines_identical(&serial, &par);
        }
    }

    #[test]
    fn repeated_build_resolves_every_cell_from_the_store() {
        let (b, p) = (paper_batch(16), paper_platform());
        let store = CellStore::new(cell_store::DEFAULT_CELL_CAPACITY);
        let first = build_through(&store, &b, &p, 2);
        let before = store.stats();
        assert_eq!(before.hits, 0);
        let again = build_through(&store, &b, &p, 2);
        let after = store.stats();
        assert_eq!(after.hits, first.cells.len() as u64);
        assert_eq!(after.misses, before.misses, "no kernel ran");
        assert!(Arc::ptr_eq(&first.cells[0], &again.cells[0]));
        assert_engines_identical(&again, &Phi1Engine::build(&b, &p).unwrap());
    }

    #[test]
    fn store_recomputes_only_the_changed_app() {
        let (b, p) = (paper_batch(16), paper_platform());
        let store = CellStore::new(cell_store::DEFAULT_CELL_CAPACITY);
        let engine = build_through(&store, &b, &p, 1);
        // App 1 keeps running and its remnant shrinks; everyone else is
        // untouched.
        let mut apps: Vec<_> = b.apps().to_vec();
        apps[1] = remnant_app(&apps[1], 0..p.num_types(), Some(0.5));
        let changed = Batch::new(apps);
        let before = store.stats();
        let rebuilt = build_through(&store, &changed, &p, 1);
        let after = store.stats();
        let per_app = (engine.cells.len() / b.len()) as u64;
        assert_eq!(
            after.hits - before.hits,
            engine.cells.len() as u64 - per_app
        );
        assert_eq!(after.misses - before.misses, per_app);
        assert_engines_identical(&rebuilt, &Phi1Engine::build(&changed, &p).unwrap());
    }

    #[test]
    fn store_reuse_follows_content_through_a_remnant() {
        // One of each online event on a 4-type instance: type 0 crashes
        // (every survivor's index shifts down by one), the last type is
        // degraded, app 0 is rescaled to its leftover work, and the apps
        // are reversed. Only content decides reuse, so exactly the
        // untouched apps' cells on the two untouched types resolve.
        use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator};
        let platform = PlatformGenerator::default().generate(3).unwrap();
        let batch = BatchGenerator {
            num_apps: 5,
            pulses: 8,
            ..BatchGenerator::default()
        }
        .generate(&platform, 4)
        .unwrap();
        let nt = platform.num_types();
        let survivors = platform.types()[1..].to_vec();
        let mut avail: Vec<Pmf> = survivors.iter().map(|t| t.availability().clone()).collect();
        avail[nt - 2] = avail[nt - 2].map(|v| v * 0.5).unwrap();
        let reduced = Platform::new(survivors)
            .unwrap()
            .with_availabilities(&avail)
            .unwrap();
        let apps = batch.apps().iter().enumerate().rev();
        let remnant = Batch::new(
            apps.map(|(i, app)| remnant_app(app, 1..nt, (i == 0).then_some(0.5)))
                .collect(),
        );
        let options = |j: usize| reduced.pow2_options(ProcTypeId(j)).unwrap().len() as u64;
        let unchanged = (batch.len() as u64 - 1) * (0..nt - 2).map(options).sum::<u64>();

        let fresh = Phi1Engine::build(&remnant, &reduced).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let store = CellStore::new(cell_store::DEFAULT_CELL_CAPACITY);
            build_through(&store, &batch, &platform, threads);
            let resolved = build_through(&store, &remnant, &reduced, threads);
            assert_eq!(store.stats().hits, unchanged, "{threads} workers");
            assert_engines_identical(&resolved, &fresh);
        }
    }

    #[test]
    fn inputs_key_tracks_kernel_inputs_not_names() {
        let (b, p) = (paper_batch(8), paper_platform());
        let key = inputs_key(&b, &p);
        assert_eq!(key, inputs_key(&paper_batch(8), &paper_platform()));
        // Renamed apps and types feed the kernel the same bits.
        let renamed_batch = Batch::new(
            b.iter()
                .map(|(i, app)| {
                    let mut builder = cdsf_system::Application::builder(format!("renamed {}", i.0))
                        .serial_iters(app.serial_iters())
                        .parallel_iters(app.parallel_iters());
                    for j in 0..app.num_proc_types() {
                        builder =
                            builder.exec_time_pmf(app.exec_time(ProcTypeId(j)).unwrap().clone());
                    }
                    builder.build().unwrap()
                })
                .collect(),
        );
        let renamed_types: Vec<_> = p
            .types()
            .iter()
            .enumerate()
            .map(|(j, t)| {
                cdsf_system::ProcessorType::new(
                    format!("kind {j}"),
                    t.count(),
                    t.availability().clone(),
                )
                .unwrap()
            })
            .collect();
        let renamed_platform = Platform::new(renamed_types).unwrap();
        assert_eq!(key, inputs_key(&renamed_batch, &renamed_platform));
        // Execution PMFs, an availability PMF and a processor count each
        // move the key.
        assert_ne!(key, inputs_key(&paper_batch(9), &p));
        let degraded = p
            .with_availabilities(&[
                Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap(),
                p.types()[1].availability().clone(),
            ])
            .unwrap();
        assert_ne!(key, inputs_key(&b, &degraded));
        let mut fewer: Vec<_> = p.types().to_vec();
        fewer[1] =
            cdsf_system::ProcessorType::new("Type 2", 4, fewer[1].availability().clone()).unwrap();
        assert_ne!(key, inputs_key(&b, &Platform::new(fewer).unwrap()));
    }

    #[test]
    fn rejects_bad_inputs() {
        let (b, p) = (paper_batch(8), paper_platform());
        assert!(Phi1Engine::build_parallel(&b, &p, 0).is_err());
        assert!(Phi1Engine::build(&cdsf_system::Batch::new(vec![]), &p).is_err());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        assert!(engine.table(0.0).is_err());
        assert!(engine.table(f64::NAN).is_err());
    }

    #[test]
    fn availability_lookups_return_the_platform_pmfs() {
        let (b, p) = (paper_batch(8), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        assert_eq!(
            (engine.num_apps(), engine.num_types()),
            (b.len(), p.num_types())
        );
        for (j, ty) in p.types().iter().enumerate() {
            let got = engine.availability_pmf(ProcTypeId(j)).unwrap();
            assert!(got.bits_eq(ty.availability()), "type {j}");
        }
        assert!(engine.availability_pmf(ProcTypeId(p.num_types())).is_none());
    }
}
