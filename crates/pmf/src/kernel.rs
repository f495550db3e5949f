//! Fused PMF-construction kernels.
//!
//! The paper's Eq. (2) pipeline builds every loaded completion-time PMF as
//! `scale(factor)` (Amdahl rescale) followed by `quotient(availability)`:
//! two full passes, an intermediate `Pmf` allocation, and an `O(nm log nm)`
//! re-sort inside [`Pmf::combine`]'s canonicalization — all to order values
//! that are *already* nearly ordered. Both stages are monotone: multiplying
//! by a positive factor keeps the support sorted, and dividing a sorted
//! support by one fixed positive availability value yields a sorted run.
//! The grid of `n·m` quotient values is therefore `m` pre-sorted runs (one
//! per availability pulse), and a k-way merge with the right tie-break
//! reproduces the stable sort's order exactly — no comparison sort, no
//! intermediate PMF, no per-call `Vec` churn (buffers live in a reusable
//! [`CombineScratch`], mirroring the Stage-II `ExecutorScratch` pattern).
//!
//! The kernel runs in three flat stages, each a tight streaming loop:
//!
//! 1. **Grid fill** — materialize the `n·m` combined values run-contiguous
//!    (run `j` = one divisor/operand pulse), so the divisions vectorize
//!    and their latency stays off the merge's selection chain;
//! 2. **Validate** — one branchless sweep over the grid proving every
//!    value finite and every run non-decreasing under `total_cmp`, so the
//!    merge's hot loop carries no per-pop validity branches;
//! 3. **Merge + finalize** — k-way merge the runs on packed integer keys,
//!    fusing `canonicalize`'s zero-skip and equal-value merge with the
//!    prefix-CDF fold, yielding the finished [`Pmf`] in one pass.
//!
//! ## Bit-identity contract
//!
//! Every kernel here is **bit-identical** to the two-step reference it
//! replaces. The argument, in full, because golden files pin it:
//!
//! 1. `canonicalize` stable-sorts pulses by `total_cmp`, so pulses appear
//!    in `(value, push-order)` order, where `combine`'s push order is
//!    i-major (self pulse) then j-minor (other pulse). The merge here pops
//!    run heads by the key order `(value by total_cmp, i, j)` — the
//!    identical sequence: [`head_key`] packs `(total-order bits, i)` so
//!    unsigned key order is exactly lexicographic `(value, i)`, and the
//!    selection scan (resp. heap) breaks remaining full ties by smallest
//!    `j`.
//! 2. `canonicalize` then skips `prob == 0.0` pulses and merges equal
//!    adjacent values (`==`, which also unifies `-0.0`/`0.0` — consistent,
//!    because `total_cmp` orders `-0.0` strictly before `0.0`, so the
//!    accumulation order is still well defined) via `last.prob += p.prob`.
//!    The merge loop performs the same skip and the same left-to-right
//!    accumulation, so every output probability is the same sum evaluated
//!    in the same order — bit-identical under IEEE-754. The fused prefix
//!    CDF is the same left-to-right `acc += prob` fold as
//!    `with_prefix_table`, evaluated over the same merged pulses: a
//!    pulse's cumulative value is emitted only when the pulse is complete.
//! 3. The all-zero-mass fallback pulse `(0.0, 1.0)` is reproduced (with
//!    prefix CDF `[1.0]`).
//!
//! Monotonicity is *checked*, not assumed: the validation sweep compares
//! every in-run value against its predecessor, and any descent abandons
//! the fast path wholesale in favor of the canonicalizing reference
//! (which is bit-identical by definition). The fast path is an
//! optimization, never a semantic change.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::error::PmfError;
use crate::pmf::{Pmf, Pulse};
use crate::Result;

/// Run count at or below which the merge selects the next head by linear
/// scan; above it a binary heap is used. Availability PMFs have a handful
/// of pulses, so the linear path covers the Eq. (2) pipeline; the heap
/// path serves wide merges such as makespan `max` chains.
const LINEAR_RUNS: usize = 8;

/// Reusable buffers for the fused combine kernels.
///
/// Construction-heavy callers (the Stage-I engine, makespan chains) create
/// one scratch and pass it to every kernel call; all intermediate storage
/// — the deduplicated scaled base run, the availability-expanded
/// probability products, the combined-value grid, and the merge heap — is
/// reused across calls, so steady-state kernel invocations allocate only
/// the returned `Pmf`'s own vectors.
#[derive(Debug, Default)]
pub struct CombineScratch {
    /// Deduplicated Amdahl-scaled support (the "dedicated" run).
    base_values: Vec<f64>,
    /// Probability of each deduplicated base value.
    base_probs: Vec<f64>,
    /// `self.prob[i] * divisor.prob[j]`, i-major. Valid for every factor
    /// of a family whose scaled support had no value collisions (the
    /// common case), because then `base_probs` equals the input
    /// probabilities bitwise and the products are factor-independent.
    products: Vec<f64>,
    /// The combined-value grid, j-major (run-contiguous). Materialized so
    /// grid arithmetic vectorizes and its latency stays off the merge's
    /// selection-dependency chain.
    grid: Vec<f64>,
    /// Pending run heads (heap path only).
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl CombineScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sentinel key for an exhausted run: strictly above every real key,
/// which top out below `u128::MAX` because non-finite values are rejected
/// by the validation sweep and in-run indices fit `u32`.
const KEY_EXHAUSTED: u128 = u128::MAX;

/// The IEEE-754 total-order bijection: maps `f64` bits to a `u64` whose
/// unsigned order equals [`f64::total_cmp`]'s order. Branchless (the sign
/// bit is smeared into a mask) so the validation sweep stays branch-free.
#[inline]
fn mono_bits(v: f64) -> u64 {
    let b = v.to_bits();
    let mask = ((b as i64) >> 63) as u64;
    b ^ (mask | (1 << 63))
}

/// Packs `(value, i)` into one integer whose unsigned order is the
/// lexicographic `(value by total_cmp, i)` order — the merge's selection
/// key, compared branch-light in the hot scan.
#[inline]
fn head_key(v: f64, i: u32) -> u128 {
    ((mono_bits(v) as u128) << 32) | i as u128
}

/// Heap entry for wide merges: pops must come out ordered by `(key, j)`
/// ascending, i.e. `(value by total_cmp, i, j)`; the run index and in-run
/// position recover the value from the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    key: u128,
    j: u32,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.j.cmp(&other.j))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Outcome of the grid validation sweep.
enum Runs {
    /// Every value finite, every run non-decreasing: safe to merge.
    Sorted,
    /// A descent was detected inside a run — the operator is not monotone
    /// here; the caller must fall back to the canonicalizing path.
    NotMonotone,
}

/// One branchless sweep over the j-major `values` grid (`m` runs of `n`)
/// proving every value finite and every run non-decreasing under
/// `total_cmp`. Folding plain boolean ANDs instead of branching per
/// element keeps the sweep vectorizable; the rare failure re-scans on the
/// cold path to recover the offending value.
fn validate_runs(n: usize, m: usize, values: &[f64]) -> Result<Runs> {
    let mut finite = true;
    let mut sorted = true;
    for j in 0..m {
        let run = &values[j * n..(j + 1) * n];
        // mono_bits is monotone, so in-run descent ⇔ mono descent; the
        // first comparison (against 0) never fails because mono_bits of a
        // finite value is nonzero... except it can be zero only for an
        // all-ones negative NaN, which the finite fold rejects anyway.
        let mut prev = 0u64;
        for &v in run {
            let mb = mono_bits(v);
            finite &= v.is_finite();
            sorted &= mb >= prev;
            prev = mb;
        }
    }
    if !finite {
        let bad = *values
            .iter()
            .find(|v| !v.is_finite())
            .expect("finite fold failed");
        return Err(PmfError::NonFiniteValue(bad));
    }
    if !sorted {
        return Ok(Runs::NotMonotone);
    }
    Ok(Runs::Sorted)
}

/// K-way merges `m` pre-validated runs of `n` values each (run `j`'s
/// `i`-th entry is `values[j * n + i]` with probability `prob(i, j)`),
/// producing the finished canonical `Pmf` in one pass: the selection loop
/// carries no validity branches (the grid is already proven sorted and
/// finite), the pending pulse lives in locals so the equal-value merge
/// never round-trips through the output tail, and the prefix-CDF fold is
/// fused into the pulse flush.
fn merge_validated(
    n: usize,
    m: usize,
    values: &[f64],
    prob: impl Fn(usize, usize) -> f64,
    heap: &mut BinaryHeap<Reverse<HeapEntry>>,
) -> Pmf {
    let mut pulses: Vec<Pulse> = Vec::with_capacity(n * m);
    let mut cum: Vec<f64> = Vec::with_capacity(n * m);
    let mut acc = 0.0f64;
    let mut cur: Option<Pulse> = None;

    // Accumulate one popped (v, i, j), replicating `canonicalize`'s
    // zero-skip and equal-value merge (`==`, left-to-right `+=`) and
    // flushing the completed pulse together with its cumulative mass.
    macro_rules! accumulate {
        ($v:expr, $i:expr, $j:expr) => {{
            let p = prob($i, $j);
            if p != 0.0 {
                match &mut cur {
                    Some(last) if last.value == $v => last.prob += p,
                    Some(last) => {
                        acc += last.prob;
                        pulses.push(*last);
                        cum.push(acc);
                        *last = Pulse { value: $v, prob: p };
                    }
                    None => cur = Some(Pulse { value: $v, prob: p }),
                }
            }
        }};
    }

    // Streams the untouched remainder of the last live run: once every
    // other run is exhausted no selection is needed, so the (often long,
    // because availability spreads the runs apart) tail is a straight
    // sequential sweep. Order is preserved — the run is sorted and no
    // rival elements remain.
    macro_rules! stream_tail {
        ($j:expr, $start:expr) => {{
            let lj = $j;
            for i in $start..n {
                accumulate!(values[lj * n + i], i, lj);
            }
        }};
    }

    if m <= LINEAR_RUNS {
        // Fixed-size head state: m ≤ LINEAR_RUNS, so the heads live on the
        // stack and every access is bounds-check-free after the slice cut.
        let mut vals = [0.0f64; LINEAR_RUNS];
        let mut keys = [KEY_EXHAUSTED; LINEAR_RUNS];
        for j in 0..m {
            let v = values[j * n];
            vals[j] = v;
            keys[j] = head_key(v, 0);
        }
        let vals = &mut vals[..m];
        let keys = &mut keys[..m];
        let mut active = m;
        while active > 1 {
            // Select the run whose head key is smallest; scanning j
            // ascending with strict `<` keeps the smallest j among full
            // ties — key equality implies identical value bits and i.
            let mut bj = 0;
            let mut bk = keys[0];
            for (j, &k) in keys.iter().enumerate().skip(1) {
                let lt = k < bk;
                bk = if lt { k } else { bk };
                bj = if lt { j } else { bj };
            }
            let v = vals[bj];
            let i = (bk & u32::MAX as u128) as usize;
            let next = i + 1;
            if next < n {
                let nv = values[bj * n + next];
                vals[bj] = nv;
                keys[bj] = head_key(nv, next as u32);
            } else {
                keys[bj] = KEY_EXHAUSTED;
                active -= 1;
            }
            accumulate!(v, i, bj);
        }
        if let Some(lj) = keys.iter().position(|&k| k != KEY_EXHAUSTED) {
            stream_tail!(lj, (keys[lj] & u32::MAX as u128) as usize);
        }
    } else {
        heap.clear();
        for j in 0..m {
            heap.push(Reverse(HeapEntry {
                key: head_key(values[j * n], 0),
                j: j as u32,
            }));
        }
        while let Some(Reverse(e)) = heap.pop() {
            let j = e.j as usize;
            let i = (e.key & u32::MAX as u128) as usize;
            let v = values[j * n + i];
            let next = i + 1;
            if next < n {
                heap.push(Reverse(HeapEntry {
                    key: head_key(values[j * n + next], next as u32),
                    j: e.j,
                }));
            }
            accumulate!(v, i, j);
            if heap.len() == 1 {
                let Reverse(last) = heap.pop().expect("exactly one live run");
                stream_tail!(last.j as usize, (last.key & u32::MAX as u128) as usize);
            }
        }
    }

    if let Some(last) = cur {
        acc += last.prob;
        pulses.push(last);
        cum.push(acc);
    }
    if pulses.is_empty() {
        // All masses were zero: keep a single zero-value pulse rather
        // than violating the non-emptiness invariant.
        pulses.push(Pulse {
            value: 0.0,
            prob: 1.0,
        });
        cum.push(1.0);
    }
    Pmf::from_parts(pulses, cum)
}

impl Pmf {
    /// Fused `self.scale(factor)?.quotient(divisor)`: the loaded
    /// completion-time PMF of Eq. (2), computed in flat streaming passes
    /// with no intermediate Amdahl PMF and no re-sort. Bit-identical to
    /// the two-step reference (see the module docs for the argument).
    pub fn scale_quotient_with(
        &self,
        factor: f64,
        divisor: &Pmf,
        scratch: &mut CombineScratch,
    ) -> Result<Pmf> {
        let mut family =
            self.scale_quotient_family(std::slice::from_ref(&factor), divisor, scratch)?;
        Ok(family.pop().expect("family of one factor"))
    }

    /// [`scale_quotient_with`](Self::scale_quotient_with) for a whole
    /// family of factors against one divisor — the Stage-I engine's
    /// per-(app, type) loop over processor counts. The
    /// availability-expanded probability products `p_i · q_j` are
    /// factor-independent, so they are computed once and shared by every
    /// family member whose scaled support dedups without collisions.
    pub fn scale_quotient_family(
        &self,
        factors: &[f64],
        divisor: &Pmf,
        scratch: &mut CombineScratch,
    ) -> Result<Vec<Pmf>> {
        let exec = self.pulses();
        let avail = divisor.pulses();
        let n = exec.len();
        let m = avail.len();

        // `quotient`'s divisor validation, hoisted out of the factor loop;
        // surfaced per-factor *after* the scale stage so error precedence
        // matches the two-step path.
        let div_err = divisor
            .pulses()
            .iter()
            .find(|p| p.value <= 0.0)
            .map(|p| PmfError::DivisorNotPositive(p.value));

        let CombineScratch {
            base_values,
            base_probs,
            products,
            grid,
            heap,
        } = scratch;

        products.clear();
        products.reserve(n * m);
        for a in exec {
            for b in avail {
                products.push(a.prob * b.prob);
            }
        }

        let mut family = Vec::with_capacity(factors.len());
        for &factor in factors {
            // Stage 1 (Amdahl rescale): map the support through `v * factor`
            // exactly as `scale` does — finite check per value, then the
            // sorted-path merge of equal adjacent values. A descent (only
            // possible for factor ≤ 0 or exotic inputs) falls back to the
            // canonicalizing two-step path wholesale.
            base_values.clear();
            base_probs.clear();
            let mut monotone = true;
            let mut collided = false;
            for p in exec {
                let v = p.value * factor;
                if !v.is_finite() {
                    return Err(PmfError::NonFiniteValue(v));
                }
                match base_values.last() {
                    Some(&last) if last == v => {
                        *base_probs.last_mut().expect("probs parallel values") += p.prob;
                        collided = true;
                    }
                    Some(&last) if v.total_cmp(&last) == Ordering::Less => {
                        monotone = false;
                        break;
                    }
                    _ => {
                        base_values.push(v);
                        base_probs.push(p.prob);
                    }
                }
            }
            if !monotone {
                family.push(self.scale(factor)?.quotient(divisor)?);
                continue;
            }
            if let Some(e) = &div_err {
                return Err(e.clone());
            }

            // Stage 2 (availability division): materialize the quotient
            // grid run-contiguous — the loop-invariant divisor lets the
            // divisions vectorize — then validate, merge, and finalize in
            // one fused pass. When dedup collapsed nothing, the cached
            // i-major products are exactly `base_probs[i] * q_j`.
            let nb = base_values.len();
            grid.clear();
            grid.reserve(nb * m);
            for a in avail {
                grid.extend(base_values.iter().map(|&v| v / a.value));
            }
            // Divisor support is strictly positive and the base run
            // non-decreasing, so quotient runs cannot descend; keep the
            // fallback anyway for defense in depth.
            if let Runs::NotMonotone = validate_runs(nb, m, grid)? {
                family.push(self.scale(factor)?.quotient(divisor)?);
                continue;
            }
            let pmf = if collided {
                let probs: &[f64] = base_probs;
                merge_validated(nb, m, grid, |i, j| probs[i] * avail[j].prob, heap)
            } else {
                let prods: &[f64] = products;
                merge_validated(nb, m, grid, |i, j| prods[i * m + j], heap)
            };
            family.push(pmf);
        }
        Ok(family)
    }

    /// [`Pmf::combine`] for operators that are monotone non-decreasing in
    /// their first argument at every fixed second value (e.g. `max`, `+`,
    /// `×` with a non-negative right operand, `/` by a positive right
    /// operand): the `n·m` pair grid then decomposes into `m` pre-sorted
    /// runs which are k-way merged with no comparison sort. Bit-identical
    /// to `combine` — monotonicity is verified on the materialized grid
    /// and any descent falls back to `combine` itself.
    ///
    /// `op` must be pure: it is invoked once per pair in run-major order
    /// to materialize the grid, and may be re-invoked on the same operands
    /// by the fallback path.
    pub fn combine_monotone(
        &self,
        other: &Self,
        mut op: impl FnMut(f64, f64) -> f64,
        scratch: &mut CombineScratch,
    ) -> Result<Pmf> {
        let a = self.pulses();
        let b = other.pulses();
        let n = a.len();
        let m = b.len();
        let CombineScratch { grid, heap, .. } = scratch;
        grid.clear();
        grid.reserve(n * m);
        for bp in b {
            for ap in a {
                grid.push(op(ap.value, bp.value));
            }
        }
        if let Runs::NotMonotone = validate_runs(n, m, grid)? {
            return self.combine(other, op);
        }
        Ok(merge_validated(
            n,
            m,
            grid,
            |i, j| a[i].prob * b[j].prob,
            heap,
        ))
    }

    /// Sorted-merge fast path for [`Pmf::max`]. `max` is monotone in both
    /// arguments, so this never falls back. Bit-identical to `max`.
    pub fn max_with(&self, other: &Self, scratch: &mut CombineScratch) -> Result<Pmf> {
        self.combine_monotone(other, f64::max, scratch)
    }

    /// Sorted-merge fast path for the product of two independent
    /// variables, `combine(other, |a, b| a * b)`. Monotone whenever
    /// `other`'s support is non-negative (the availability/fraction case);
    /// mixed-sign supports fall back to the canonicalizing path.
    /// Bit-identical either way.
    pub fn product_with(&self, other: &Self, scratch: &mut CombineScratch) -> Result<Pmf> {
        self.combine_monotone(other, |a, b| a * b, scratch)
    }
}
