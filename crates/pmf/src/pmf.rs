//! The [`Pmf`] type: a finite discrete probability mass function over `f64`.

use crate::{PmfError, Result};
use serde::{Content, DeError, Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tolerance used when checking that probabilities sum to one.
///
/// Long chains of pulse-wise products accumulate rounding error; the
/// framework's deepest chains (Amdahl rescale → availability quotient →
/// batch max over three applications) stay far below this bound.
pub const PROB_TOLERANCE: f64 = 1e-9;

/// One pulse of a discrete PMF: a value and its probability mass.
///
/// The paper calls the atoms of its execution-time and availability
/// distributions "pulses"; we keep the name.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pulse {
    /// The value the random variable takes.
    pub value: f64,
    /// The probability mass at `value`; in `(0, 1]` after normalization.
    pub prob: f64,
}

/// A finite discrete probability mass function over `f64` values.
///
/// Invariants (enforced by every constructor and preserved by every
/// operation):
///
/// 1. at least one pulse;
/// 2. all values finite, all probabilities finite and non-negative;
/// 3. pulses sorted by strictly increasing value (equal values merged);
/// 4. probabilities sum to 1 within [`PROB_TOLERANCE`].
///
/// All binary operations assume *independence* of the two operands, which is
/// the modelling assumption the paper makes throughout (execution times are
/// independent across applications, and independent of availability).
///
/// Alongside the pulses the PMF stores a precomputed prefix-CDF table
/// (`cum[i] = Σ_{j ≤ i} prob[j]`, summed left to right), so [`Pmf::cdf`]
/// is a binary search plus one array read rather than a re-summation.
/// Because the prefix sums accumulate in exactly the pulse order the old
/// linear scan used, every CDF value is bit-identical to the scan result.
pub struct Pmf {
    pulses: Vec<Pulse>,
    /// Prefix sums of the pulse probabilities: `cum[i] = prob[0] + … +
    /// prob[i]` folded left to right from `0.0`. Derived from `pulses` by
    /// every constructor; excluded from equality and serialization.
    cum: Vec<f64>,
    /// [`Pmf::digest`], filled in on first use (never at construction;
    /// [`UNHASHED`] until then) and carried over by `clone`. Excluded
    /// from equality, `Debug` and serialization. `Relaxed` suffices: the
    /// value is a pure function of the immutable pulses and publishes no
    /// other data, so a racing thread at worst computes it again.
    digest: AtomicU64,
}

/// The digest slot's "not computed yet" value. A PMF whose digest really
/// is this value is simply rehashed on every call.
const UNHASHED: u64 = 0;

impl Clone for Pmf {
    fn clone(&self) -> Self {
        Self {
            pulses: self.pulses.clone(),
            cum: self.cum.clone(),
            digest: AtomicU64::new(self.digest.load(Ordering::Relaxed)),
        }
    }

    /// Copies `source` into the buffers `self` already holds.
    fn clone_from(&mut self, source: &Self) {
        self.pulses.clone_from(&source.pulses);
        self.cum.clone_from(&source.cum);
        self.digest
            .store(source.digest.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl PartialEq for Pmf {
    fn eq(&self, other: &Self) -> bool {
        // `cum` is a pure function of `pulses`; comparing it too would be
        // redundant (and would make equality depend on an internal cache).
        self.pulses == other.pulses
    }
}

impl std::fmt::Debug for Pmf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pmf")
            .field("pulses", &self.pulses)
            .field("cum", &self.cum)
            .finish()
    }
}

impl Serialize for Pmf {
    fn to_content(&self) -> Content {
        // Wire format identical to the former `#[derive(Serialize)]` on
        // `struct Pmf { pulses: Vec<Pulse> }` — the prefix table is
        // rebuilt on deserialization, never persisted.
        Content::Map(vec![(
            "pulses".to_string(),
            Serialize::to_content(&self.pulses),
        )])
    }
}

impl Deserialize for Pmf {
    fn from_content(content: &Content) -> std::result::Result<Self, DeError> {
        let map = match content {
            Content::Map(m) => m,
            _ => return Err(DeError::custom("expected map for Pmf")),
        };
        let pulses: Vec<Pulse> = match serde::__field(map, "pulses") {
            Some(v) => Deserialize::from_content(v)?,
            None => serde::__missing("pulses")?,
        };
        Ok(Self::with_prefix_table(pulses))
    }
}

impl Pmf {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a PMF from `(value, probability)` pairs.
    ///
    /// Pairs may arrive in any order; equal values are merged. Probabilities
    /// must already sum to 1 (use [`Pmf::from_weighted`] for unnormalized
    /// weights).
    pub fn from_pairs<I>(pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        let pulses: Vec<Pulse> = pairs
            .into_iter()
            .map(|(value, prob)| Pulse { value, prob })
            .collect();
        Self::from_pulses(pulses)
    }

    /// Builds a PMF from raw [`Pulse`]s, validating all invariants.
    pub fn from_pulses(pulses: Vec<Pulse>) -> Result<Self> {
        if pulses.is_empty() {
            return Err(PmfError::Empty);
        }
        for p in &pulses {
            if !p.value.is_finite() {
                return Err(PmfError::NonFiniteValue(p.value));
            }
            if !p.prob.is_finite() || p.prob < 0.0 {
                return Err(PmfError::InvalidProbability(p.prob));
            }
        }
        let sum: f64 = pulses.iter().map(|p| p.prob).sum();
        if (sum - 1.0).abs() > PROB_TOLERANCE {
            return Err(PmfError::NotNormalized { sum });
        }
        Ok(Self::canonicalize(pulses))
    }

    /// Builds a PMF from `(value, weight)` pairs with arbitrary non-negative
    /// weights, normalizing them to probabilities.
    pub fn from_weighted<I>(pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        let mut pulses: Vec<Pulse> = pairs
            .into_iter()
            .map(|(value, prob)| Pulse { value, prob })
            .collect();
        if pulses.is_empty() {
            return Err(PmfError::Empty);
        }
        for p in &pulses {
            if !p.value.is_finite() {
                return Err(PmfError::NonFiniteValue(p.value));
            }
            if !p.prob.is_finite() || p.prob < 0.0 {
                return Err(PmfError::InvalidProbability(p.prob));
            }
        }
        let total: f64 = pulses.iter().map(|p| p.prob).sum();
        if total <= 0.0 {
            return Err(PmfError::ZeroWeightMixture);
        }
        for p in &mut pulses {
            p.prob /= total;
        }
        Ok(Self::canonicalize(pulses))
    }

    /// A PMF concentrated at a single value (a deterministic quantity).
    pub fn degenerate(value: f64) -> Result<Self> {
        Self::from_pairs([(value, 1.0)])
    }

    /// Empirical PMF of a sample: each distinct observation gets mass
    /// `count / n`.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(PmfError::Empty);
        }
        let w = 1.0 / samples.len() as f64;
        Self::from_weighted(samples.iter().map(|&v| (v, w)))
    }

    /// Empirical PMF of a sample binned into `bins` equal-width bins, with
    /// each bin represented by its midpoint. This mirrors how the paper
    /// turns normal samples into execution-time PMFs.
    pub fn from_samples_binned(samples: &[f64], bins: usize) -> Result<Self> {
        if samples.is_empty() {
            return Err(PmfError::Empty);
        }
        if bins == 0 {
            return Err(PmfError::BadParameter {
                name: "bins",
                value: 0.0,
            });
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &s in samples {
            if !s.is_finite() {
                return Err(PmfError::NonFiniteValue(s));
            }
            lo = lo.min(s);
            hi = hi.max(s);
        }
        if lo == hi {
            return Self::degenerate(lo);
        }
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0u64; bins];
        for &s in samples {
            let mut idx = ((s - lo) / width) as usize;
            if idx >= bins {
                idx = bins - 1; // the maximum lands in the last bin
            }
            counts[idx] += 1;
        }
        let n = samples.len() as f64;
        Self::from_weighted(
            counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    let mid = lo + (i as f64 + 0.5) * width;
                    (mid, c as f64 / n)
                }),
        )
    }

    /// Sorts, merges equal values, and drops zero-probability pulses.
    fn canonicalize(mut pulses: Vec<Pulse>) -> Self {
        pulses.sort_by(|a, b| a.value.total_cmp(&b.value));
        // If all masses were zero, merge_sorted keeps a single zero-value
        // pulse rather than violating invariant 1.
        Self::merge_sorted(pulses)
    }

    /// Wraps already-canonical pulses, computing the prefix-CDF table via
    /// the [`crate::lanes::prefix_cdf`] fold (unrolled four terms at a
    /// time without re-association, so the table is the bit-exact
    /// left-to-right sum).
    pub(crate) fn with_prefix_table(pulses: Vec<Pulse>) -> Self {
        let cum = crate::lanes::prefix_cdf(&pulses);
        Self::from_parts(pulses, cum)
    }

    /// Wraps already-canonical pulses together with their precomputed
    /// prefix-CDF table. The fused kernels build both in a single pass;
    /// `cum` must be the left-to-right `acc += prob` fold over `pulses`.
    pub(crate) fn from_parts(pulses: Vec<Pulse>, cum: Vec<f64>) -> Self {
        debug_assert_eq!(pulses.len(), cum.len());
        Self {
            pulses,
            cum,
            digest: AtomicU64::new(UNHASHED),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The pulses, sorted by strictly increasing value.
    #[inline]
    pub fn pulses(&self) -> &[Pulse] {
        &self.pulses
    }

    /// Number of pulses.
    #[inline]
    pub fn len(&self) -> usize {
        self.pulses.len()
    }

    /// Whether the PMF is degenerate (a single pulse). Never truly "empty".
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Smallest support value.
    #[inline]
    pub fn min_value(&self) -> f64 {
        self.pulses[0].value
    }

    /// Largest support value.
    #[inline]
    pub fn max_value(&self) -> f64 {
        self.pulses[self.pulses.len() - 1].value
    }

    /// Structural digest of the exact pulse bits:
    /// [`crate::hash::fnv1a_pmf`] folded from the FNV-1a offset basis.
    /// Computed on the first call and cached, so a PMF is hashed at most
    /// once however many content-addressed lookups key on it, and a clone
    /// inherits its source's digest. PMFs that are [`Pmf::bits_eq`] have
    /// equal digests.
    #[inline]
    pub fn digest(&self) -> u64 {
        match self.digest.load(Ordering::Relaxed) {
            UNHASHED => {
                let digest = crate::hash::fnv1a_pmf(crate::hash::fnv1a_seed(), self);
                self.digest.store(digest, Ordering::Relaxed);
                digest
            }
            digest => digest,
        }
    }

    /// Bitwise equality: the same pulse count and, pulse by pulse, the
    /// same value and probability bits. Stricter than `==`, which holds
    /// for `-0.0` against `0.0`; cell reuse must guarantee bit-identical
    /// results, so every cache verifies its hits with this.
    pub fn bits_eq(&self, other: &Pmf) -> bool {
        self.pulses.len() == other.pulses.len()
            && self.pulses.iter().zip(&other.pulses).all(|(x, y)| {
                x.value.to_bits() == y.value.to_bits() && x.prob.to_bits() == y.prob.to_bits()
            })
    }

    // ------------------------------------------------------------------
    // Moments and probability queries
    // ------------------------------------------------------------------

    /// Expected value `E[X] = Σ v·p`.
    pub fn expectation(&self) -> f64 {
        self.pulses.iter().map(|p| p.value * p.prob).sum()
    }

    /// Raw moment `E[X^k]`.
    pub fn raw_moment(&self, k: u32) -> f64 {
        self.pulses
            .iter()
            .map(|p| p.value.powi(k as i32) * p.prob)
            .sum()
    }

    /// Variance `E[(X − E[X])²]`, computed in shifted form for stability.
    pub fn variance(&self) -> f64 {
        let mu = self.expectation();
        self.pulses
            .iter()
            .map(|p| {
                let d = p.value - mu;
                d * d * p.prob
            })
            .sum::<f64>()
            .max(0.0)
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation `σ/μ`; `None` when the mean is zero.
    pub fn cov(&self) -> Option<f64> {
        let mu = self.expectation();
        if mu == 0.0 {
            None
        } else {
            Some(self.std_dev() / mu.abs())
        }
    }

    /// `Pr(X ≤ x)` — the paper's deadline-satisfaction probability when `x`
    /// is the deadline Δ and `self` is a completion-time PMF.
    ///
    /// A binary search over the sorted support plus one prefix-table read;
    /// bit-identical to the legacy linear re-sum because the table folds
    /// the probabilities in the same left-to-right order.
    pub fn cdf(&self, x: f64) -> f64 {
        // Pulses are sorted: partition_point finds the first value > x.
        let idx = self.pulses.partition_point(|p| p.value <= x);
        if idx == 0 {
            0.0
        } else {
            self.cum[idx - 1]
        }
    }

    /// Batched CDF: `Pr(X ≤ x)` for every query in `xs`, in input order.
    ///
    /// Ascending query sequences (the common deadline-sweep shape) are
    /// answered in one merged pass over the support — `O(len + xs.len())`
    /// instead of `O(xs.len()·log len)`; unsorted queries fall back to one
    /// binary search each. Every element equals `self.cdf(x)` exactly.
    pub fn cdf_many(&self, xs: &[f64]) -> Vec<f64> {
        if !xs.windows(2).all(|w| w[0] <= w[1]) {
            return xs.iter().map(|&x| self.cdf(x)).collect();
        }
        let mut out = Vec::with_capacity(xs.len());
        let mut idx = 0usize; // first pulse with value > current x
        for &x in xs {
            while idx < self.pulses.len() && self.pulses[idx].value <= x {
                idx += 1;
            }
            out.push(if idx == 0 { 0.0 } else { self.cum[idx - 1] });
        }
        out
    }

    /// The prefix-CDF table: `cumulative()[i] = Pr(X ≤ pulses()[i].value)`,
    /// accumulated left to right. One entry per pulse; the last entry is 1
    /// within [`PROB_TOLERANCE`]. This is the raw material the Stage-I
    /// engine copies into its SoA arena.
    #[inline]
    pub fn cumulative(&self) -> &[f64] {
        &self.cum
    }

    /// `Pr(X > x)`.
    pub fn survival(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).max(0.0)
    }

    /// Expected excess over `x`: `E[(X − x)⁺]` — for a completion-time PMF
    /// and `x = Δ`, the expected overtime contributed by deadline misses.
    pub fn expected_excess(&self, x: f64) -> f64 {
        self.pulses
            .iter()
            .filter(|p| p.value > x)
            .map(|p| (p.value - x) * p.prob)
            .sum()
    }

    /// Conditional tail expectation `E[X | X > x]` — the mean completion
    /// time *given* the deadline was missed. `None` when `Pr(X > x) = 0`.
    ///
    /// Together with `Pr(Ψ ≤ Δ)` this answers the operator's follow-up
    /// question: *if* we miss, by how much?
    pub fn conditional_tail_expectation(&self, x: f64) -> Option<f64> {
        let tail_prob = self.survival(x);
        if tail_prob <= 0.0 {
            return None;
        }
        let tail_mean: f64 = self
            .pulses
            .iter()
            .filter(|p| p.value > x)
            .map(|p| p.value * p.prob)
            .sum();
        Some(tail_mean / tail_prob)
    }

    /// Smallest support value `v` with `Pr(X ≤ v) ≥ q`, for `q ∈ [0, 1]`.
    ///
    /// `quantile(1.0)` is the maximum of the support; values of `q` above 1
    /// are clamped.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        // First pulse whose prefix mass reaches q — the same answer the
        // legacy walk produced, found by binary search on the prefix table
        // (`cum` is non-decreasing, so the predicate is monotone).
        let idx = self.cum.partition_point(|&c| c + PROB_TOLERANCE < q);
        match self.pulses.get(idx) {
            Some(p) => p.value,
            None => self.max_value(),
        }
    }

    // ------------------------------------------------------------------
    // Value transforms
    // ------------------------------------------------------------------

    /// Applies `f` to every support value. The result is re-canonicalized
    /// (values that collide are merged). `f` must return finite values.
    ///
    /// **Monotone fast path.** Support values are visited in ascending
    /// order, so when `f` is monotone non-decreasing the mapped values come
    /// out already sorted and the canonicalizing re-sort is a no-op. This
    /// method detects that case in the same pass that applies `f` (one
    /// `total_cmp` per pulse) and skips the sort, merging equal adjacent
    /// values directly — exactly the pass `canonicalize` would run after
    /// its (stable, hence order-preserving) no-op sort, so the result is
    /// bit-identical either way. Non-monotone maps silently take the
    /// canonicalizing path; `f` is still applied exactly once per pulse.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Result<Self> {
        let mut pulses = Vec::with_capacity(self.pulses.len());
        let mut sorted = true;
        for p in &self.pulses {
            let value = f(p.value);
            if !value.is_finite() {
                return Err(PmfError::NonFiniteValue(value));
            }
            if let Some(last) = pulses.last() {
                let last: &Pulse = last;
                if value.total_cmp(&last.value) == std::cmp::Ordering::Less {
                    sorted = false;
                }
            }
            pulses.push(Pulse {
                value,
                prob: p.prob,
            });
        }
        if !sorted {
            return Ok(Self::canonicalize(pulses));
        }
        Ok(Self::merge_sorted(pulses))
    }

    /// The merge/skip/fallback tail of [`canonicalize`](Self::canonicalize)
    /// for pulses already sorted by `total_cmp` (stable-sort order).
    pub(crate) fn merge_sorted(pulses: Vec<Pulse>) -> Self {
        let mut out: Vec<Pulse> = Vec::with_capacity(pulses.len());
        for p in pulses {
            if p.prob == 0.0 {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.value == p.value => last.prob += p.prob,
                _ => out.push(p),
            }
        }
        if out.is_empty() {
            out.push(Pulse {
                value: 0.0,
                prob: 1.0,
            });
        }
        Self::with_prefix_table(out)
    }

    /// Multiplies every support value by `c`. Monotone for `c > 0`, so this
    /// takes [`map`](Self::map)'s sorted fast path.
    pub fn scale(&self, c: f64) -> Result<Self> {
        self.map(|v| v * c)
    }

    /// Adds `c` to every support value. Always monotone, so this takes
    /// [`map`](Self::map)'s sorted fast path.
    pub fn shift(&self, c: f64) -> Result<Self> {
        self.map(|v| v + c)
    }

    // ------------------------------------------------------------------
    // Independent combination
    // ------------------------------------------------------------------

    /// Joint combination of two independent PMFs under an arbitrary binary
    /// operator: the result has a pulse `op(a, b)` with probability
    /// `Pr(a)·Pr(b)` for every pair of pulses. `O(n·m)` pulses before
    /// merging; use [`Pmf::coalesce`] to bound growth across long chains.
    pub fn combine(&self, other: &Self, mut op: impl FnMut(f64, f64) -> f64) -> Result<Self> {
        let mut pulses = Vec::with_capacity(self.pulses.len() * other.pulses.len());
        for a in &self.pulses {
            for b in &other.pulses {
                let value = op(a.value, b.value);
                if !value.is_finite() {
                    return Err(PmfError::NonFiniteValue(value));
                }
                pulses.push(Pulse {
                    value,
                    prob: a.prob * b.prob,
                });
            }
        }
        Ok(Self::canonicalize(pulses))
    }

    /// Sum of two independent random variables (classical convolution).
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.combine(other, |a, b| a + b)
    }

    /// Maximum of two independent random variables.
    ///
    /// The system makespan Ψ is the max of per-application completion times;
    /// this is the exact distribution of that max under independence.
    ///
    /// ```
    /// use cdsf_pmf::Pmf;
    /// let coin = Pmf::from_pairs([(0.0, 0.5), (1.0, 0.5)]).unwrap();
    /// let m = coin.max(&coin).unwrap();
    /// assert_eq!(m.cdf(0.0), 0.25); // both coins must land low
    /// ```
    pub fn max(&self, other: &Self) -> Result<Self> {
        self.combine(other, f64::max)
    }

    /// Quotient `X / A` of two independent random variables, requiring the
    /// divisor's support to be strictly positive.
    ///
    /// This is the paper's "convolution of the parallel-time PMF with the
    /// availability PMF": executing work `t` at availability `a` takes
    /// `t / a` time.
    ///
    /// ```
    /// use cdsf_pmf::Pmf;
    /// let t = Pmf::degenerate(1900.0).unwrap();
    /// let alpha = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
    /// let loaded = t.quotient(&alpha).unwrap();
    /// // E[T/α] = E[T]·E[1/α] = 1900 · 2.0 — the paper's Table V value.
    /// assert!((loaded.expectation() - 3800.0).abs() < 1e-9);
    /// ```
    pub fn quotient(&self, divisor: &Self) -> Result<Self> {
        if let Some(p) = divisor.pulses.iter().find(|p| p.value <= 0.0) {
            return Err(PmfError::DivisorNotPositive(p.value));
        }
        self.combine(divisor, |t, a| t / a)
    }

    /// Distribution of the sum of `n` independent copies of `self`
    /// (`n`-fold convolution), computed by binary exponentiation with the
    /// intermediate PMFs coalesced to `max_pulses` to keep the cost
    /// `O(log n · max_pulses²)`.
    ///
    /// The exact mean (`n·E[X]`) is preserved by coalescing; the variance
    /// is slightly reduced (quantization), bounded by the coalesce width.
    /// Used to model the total time of `n` iid loop iterations when an
    /// explicit distribution (rather than a normal approximation) is
    /// needed.
    pub fn n_fold_sum(&self, n: u64, max_pulses: usize) -> Result<Self> {
        if n == 0 {
            return Pmf::degenerate(0.0);
        }
        let cap = max_pulses.max(1);
        let mut result: Option<Pmf> = None;
        let mut base = self.coalesce(cap);
        let mut k = n;
        loop {
            if k & 1 == 1 {
                result = Some(match result {
                    None => base.clone(),
                    Some(acc) => acc.add(&base)?.coalesce(cap),
                });
            }
            k >>= 1;
            if k == 0 {
                break;
            }
            base = base.add(&base)?.coalesce(cap);
        }
        Ok(result.expect("n ≥ 1 sets the accumulator"))
    }

    /// Probability-weighted mixture of several PMFs.
    ///
    /// Used for availability processes that switch regimes: the stationary
    /// completion-time law is a mixture over regimes.
    pub fn mixture(components: &[(f64, Pmf)]) -> Result<Self> {
        if components.is_empty() {
            return Err(PmfError::Empty);
        }
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        if !(total > 0.0) {
            return Err(PmfError::ZeroWeightMixture);
        }
        for (w, _) in components {
            if !w.is_finite() || *w < 0.0 {
                return Err(PmfError::InvalidProbability(*w));
            }
        }
        let mut pulses = Vec::new();
        for (w, pmf) in components {
            let w = w / total;
            pulses.extend(pmf.pulses.iter().map(|p| Pulse {
                value: p.value,
                prob: p.prob * w,
            }));
        }
        Ok(Self::canonicalize(pulses))
    }

    // ------------------------------------------------------------------
    // Size control
    // ------------------------------------------------------------------

    /// Drops pulses with probability below `eps` and renormalizes.
    ///
    /// Returns `self` unchanged when every pulse would be dropped.
    pub fn prune(&self, eps: f64) -> Self {
        let kept: Vec<Pulse> = self
            .pulses
            .iter()
            .copied()
            .filter(|p| p.prob >= eps)
            .collect();
        if kept.is_empty() {
            return self.clone();
        }
        let total: f64 = kept.iter().map(|p| p.prob).sum();
        Self::canonicalize(
            kept.into_iter()
                .map(|p| Pulse {
                    value: p.value,
                    prob: p.prob / total,
                })
                .collect(),
        )
    }

    /// Reduces the PMF to at most `max_pulses` pulses by merging adjacent
    /// pulses into their probability-weighted mean.
    ///
    /// Merging is mean-preserving (expectation is exactly conserved up to
    /// rounding) and never widens the support. CDF error is bounded by the
    /// width of the widest merged group.
    pub fn coalesce(&self, max_pulses: usize) -> Self {
        let max_pulses = max_pulses.max(1);
        let n = self.pulses.len();
        if n <= max_pulses {
            return self.clone();
        }
        // Group contiguous runs of pulses; ceil division keeps group count
        // ≤ max_pulses.
        let group = n.div_ceil(max_pulses);
        let mut out = Vec::with_capacity(max_pulses);
        let mut i = 0;
        while i < n {
            let end = (i + group).min(n);
            let mass: f64 = self.pulses[i..end].iter().map(|p| p.prob).sum();
            if mass > 0.0 {
                let mean: f64 = self.pulses[i..end]
                    .iter()
                    .map(|p| p.value * p.prob)
                    .sum::<f64>()
                    / mass;
                out.push(Pulse {
                    value: mean,
                    prob: mass,
                });
            }
            i = end;
        }
        Self::canonicalize(out)
    }

    /// Conditional distribution `X | X ≤ x`. Returns `None` when
    /// `Pr(X ≤ x) = 0`.
    pub fn truncate_above(&self, x: f64) -> Option<Self> {
        let kept: Vec<Pulse> = self
            .pulses
            .iter()
            .copied()
            .take_while(|p| p.value <= x)
            .collect();
        if kept.is_empty() {
            return None;
        }
        let total: f64 = kept.iter().map(|p| p.prob).sum();
        Some(Self::canonicalize(
            kept.into_iter()
                .map(|p| Pulse {
                    value: p.value,
                    prob: p.prob / total,
                })
                .collect(),
        ))
    }

    // ------------------------------------------------------------------
    // Comparison
    // ------------------------------------------------------------------

    /// Kolmogorov–Smirnov distance `sup_x |F(x) − G(x)|` between two PMFs.
    pub fn ks_distance(&self, other: &Self) -> f64 {
        // Evaluate both CDFs at the union of supports.
        let mut sup: f64 = 0.0;
        let (a, b) = (&self.pulses, &other.pulses);
        let (mut ia, mut ib) = (0usize, 0usize);
        let (mut fa, mut fb) = (0.0f64, 0.0f64);
        while ia < a.len() || ib < b.len() {
            let va = a.get(ia).map_or(f64::INFINITY, |p| p.value);
            let vb = b.get(ib).map_or(f64::INFINITY, |p| p.value);
            if va <= vb {
                fa += a[ia].prob;
                ia += 1;
            }
            if vb <= va {
                fb += b[ib].prob;
                ib += 1;
            }
            sup = sup.max((fa - fb).abs());
        }
        sup
    }

    /// Whether two PMFs are equal within `tol` on both values and masses,
    /// pulse by pulse.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.pulses.len() == other.pulses.len()
            && self
                .pulses
                .iter()
                .zip(&other.pulses)
                .all(|(a, b)| (a.value - b.value).abs() <= tol && (a.prob - b.prob).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin() -> Pmf {
        Pmf::from_pairs([(0.0, 0.5), (1.0, 0.5)]).unwrap()
    }

    #[test]
    fn from_pairs_rejects_empty() {
        assert_eq!(Pmf::from_pairs([]), Err(PmfError::Empty));
    }

    #[test]
    fn from_pairs_rejects_unnormalized() {
        let err = Pmf::from_pairs([(1.0, 0.4), (2.0, 0.4)]).unwrap_err();
        assert!(matches!(err, PmfError::NotNormalized { .. }));
    }

    #[test]
    fn from_pairs_rejects_nan_value() {
        let err = Pmf::from_pairs([(f64::NAN, 1.0)]).unwrap_err();
        assert!(matches!(err, PmfError::NonFiniteValue(_)));
    }

    #[test]
    fn from_pairs_rejects_negative_prob() {
        let err = Pmf::from_pairs([(1.0, 1.5), (2.0, -0.5)]).unwrap_err();
        assert!(matches!(err, PmfError::InvalidProbability(_)));
    }

    #[test]
    fn merges_duplicate_values() {
        let p = Pmf::from_pairs([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.pulses()[1].value, 2.0);
        assert!((p.pulses()[1].prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_weighted_normalizes() {
        let p = Pmf::from_weighted([(1.0, 2.0), (3.0, 6.0)]).unwrap();
        assert!((p.pulses()[0].prob - 0.25).abs() < 1e-12);
        assert!((p.pulses()[1].prob - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_has_zero_variance() {
        let p = Pmf::degenerate(42.0).unwrap();
        assert_eq!(p.expectation(), 42.0);
        assert_eq!(p.variance(), 0.0);
        assert_eq!(p.cdf(41.9), 0.0);
        assert_eq!(p.cdf(42.0), 1.0);
    }

    #[test]
    fn expectation_and_variance_of_coin() {
        let c = coin();
        assert!((c.expectation() - 0.5).abs() < 1e-12);
        assert!((c.variance() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_right_continuous_step() {
        let p = Pmf::from_pairs([(1.0, 0.2), (2.0, 0.3), (4.0, 0.5)]).unwrap();
        assert_eq!(p.cdf(0.0), 0.0);
        assert!((p.cdf(1.0) - 0.2).abs() < 1e-12);
        assert!((p.cdf(1.5) - 0.2).abs() < 1e-12);
        assert!((p.cdf(2.0) - 0.5).abs() < 1e-12);
        assert!((p.cdf(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn survival_complements_cdf() {
        let p = Pmf::from_pairs([(1.0, 0.2), (2.0, 0.8)]).unwrap();
        assert!((p.survival(1.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn expected_excess_and_tail_expectation() {
        let p = Pmf::from_pairs([(1.0, 0.5), (3.0, 0.25), (5.0, 0.25)]).unwrap();
        // E[(X−2)+] = 0.25·1 + 0.25·3 = 1.0.
        assert!((p.expected_excess(2.0) - 1.0).abs() < 1e-12);
        // E[X | X > 2] = (0.25·3 + 0.25·5)/0.5 = 4.
        assert!((p.conditional_tail_expectation(2.0).unwrap() - 4.0).abs() < 1e-12);
        // No tail above the max.
        assert_eq!(p.expected_excess(10.0), 0.0);
        assert!(p.conditional_tail_expectation(10.0).is_none());
        // Identity: E[(X−x)+] = Pr(X>x)·(CTE − x).
        let x = 2.0;
        let lhs = p.expected_excess(x);
        let rhs = p.survival(x) * (p.conditional_tail_expectation(x).unwrap() - x);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn quantile_walks_support() {
        let p = Pmf::from_pairs([(1.0, 0.2), (2.0, 0.3), (4.0, 0.5)]).unwrap();
        assert_eq!(p.quantile(0.0), 1.0);
        assert_eq!(p.quantile(0.2), 1.0);
        assert_eq!(p.quantile(0.21), 2.0);
        assert_eq!(p.quantile(0.5), 2.0);
        assert_eq!(p.quantile(0.51), 4.0);
        assert_eq!(p.quantile(1.0), 4.0);
    }

    #[test]
    fn scale_and_shift() {
        let p = coin().scale(4.0).unwrap().shift(1.0).unwrap();
        assert_eq!(p.min_value(), 1.0);
        assert_eq!(p.max_value(), 5.0);
        assert!((p.expectation() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn map_merging_collisions() {
        let p = Pmf::from_pairs([(-1.0, 0.5), (1.0, 0.5)]).unwrap();
        let sq = p.map(|v| v * v).unwrap();
        assert_eq!(sq.len(), 1);
        assert_eq!(sq.min_value(), 1.0);
    }

    #[test]
    fn add_is_convolution() {
        let s = coin().add(&coin()).unwrap();
        // Binomial(2, 1/2): 0,1,2 with probs 1/4, 1/2, 1/4.
        assert_eq!(s.len(), 3);
        assert!((s.pulses()[1].prob - 0.5).abs() < 1e-12);
        assert!((s.expectation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_of_independent_coins() {
        let m = coin().max(&coin()).unwrap();
        assert!((m.cdf(0.0) - 0.25).abs() < 1e-12);
        assert!((m.expectation() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn quotient_matches_paper_naive_app1() {
        // Paper sanity: E[T/α] = E[T]·E[1/α]. Type-2 availability PMF.
        let avail = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        let t = Pmf::degenerate(1900.0).unwrap();
        let loaded = t.quotient(&avail).unwrap();
        assert!((loaded.expectation() - 3800.0).abs() < 1e-9);
    }

    #[test]
    fn quotient_rejects_zero_availability() {
        let avail = Pmf::from_pairs([(0.0, 0.5), (1.0, 0.5)]).unwrap();
        let t = Pmf::degenerate(1.0).unwrap();
        assert!(matches!(
            t.quotient(&avail),
            Err(PmfError::DivisorNotPositive(_))
        ));
    }

    #[test]
    fn n_fold_sum_matches_moments() {
        let c = coin();
        // Binomial(100, 1/2): mean 50, variance 25.
        let s = c.n_fold_sum(100, 512).unwrap();
        assert!((s.expectation() - 50.0).abs() < 1e-9, "{}", s.expectation());
        assert!((s.variance() - 25.0).abs() < 1.0, "{}", s.variance());
        // CLT: Pr(S ≤ 50) ≈ 0.5 + half the mass at 50.
        assert!((s.cdf(50.0) - 0.54).abs() < 0.03, "{}", s.cdf(50.0));
    }

    #[test]
    fn n_fold_sum_edges() {
        let c = coin();
        let zero = c.n_fold_sum(0, 16).unwrap();
        assert_eq!(zero, Pmf::degenerate(0.0).unwrap());
        let one = c.n_fold_sum(1, 16).unwrap();
        assert_eq!(one, c);
        // Exact small case: n = 2 is the hand-checked convolution.
        let two = c.n_fold_sum(2, 64).unwrap();
        assert_eq!(two, c.add(&c).unwrap());
    }

    #[test]
    fn n_fold_sum_respects_pulse_cap() {
        let p = Pmf::from_weighted((0..50).map(|i| (i as f64, 1.0))).unwrap();
        let s = p.n_fold_sum(1000, 128).unwrap();
        assert!(s.len() <= 128);
        assert!((s.expectation() - 1000.0 * p.expectation()).abs() < 1e-6 * 1000.0);
    }

    #[test]
    fn mixture_weights_normalize() {
        let m = Pmf::mixture(&[(1.0, Pmf::degenerate(0.0).unwrap()), (3.0, coin())]).unwrap();
        // 0 gets 0.25 (from first) + 0.75·0.5; 1 gets 0.75·0.5.
        assert!((m.cdf(0.0) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn prune_renormalizes() {
        let p = Pmf::from_pairs([(1.0, 0.001), (2.0, 0.999)]).unwrap();
        let q = p.prune(0.01);
        assert_eq!(q.len(), 1);
        assert_eq!(q.min_value(), 2.0);
        assert!((q.pulses()[0].prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prune_keeps_original_when_all_below_eps() {
        let p = coin();
        let q = p.prune(0.9);
        assert_eq!(q, p);
    }

    #[test]
    fn coalesce_preserves_expectation() {
        let p = Pmf::from_weighted((0..1000).map(|i| (i as f64, 1.0))).unwrap();
        let c = p.coalesce(32);
        assert!(c.len() <= 32);
        assert!((c.expectation() - p.expectation()).abs() < 1e-6);
        assert!(c.min_value() >= p.min_value());
        assert!(c.max_value() <= p.max_value());
    }

    #[test]
    fn coalesce_noop_when_small() {
        let p = coin();
        assert_eq!(p.coalesce(10), p);
    }

    #[test]
    fn truncate_above_conditions() {
        let p = Pmf::from_pairs([(1.0, 0.25), (2.0, 0.25), (3.0, 0.5)]).unwrap();
        let t = p.truncate_above(2.0).unwrap();
        assert_eq!(t.len(), 2);
        assert!((t.cdf(1.0) - 0.5).abs() < 1e-12);
        assert!(p.truncate_above(0.5).is_none());
    }

    #[test]
    fn ks_distance_zero_for_identical() {
        assert_eq!(coin().ks_distance(&coin()), 0.0);
    }

    #[test]
    fn ks_distance_for_shifted() {
        let a = Pmf::degenerate(0.0).unwrap();
        let b = Pmf::degenerate(1.0).unwrap();
        assert!((a.ks_distance(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_samples_binned_covers_range() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p = Pmf::from_samples_binned(&samples, 10).unwrap();
        assert_eq!(p.len(), 10);
        assert!((p.expectation() - 49.5).abs() < 1.0);
    }

    #[test]
    fn from_samples_binned_degenerate_sample() {
        let p = Pmf::from_samples_binned(&[5.0, 5.0, 5.0], 4).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.min_value(), 5.0);
    }

    #[test]
    fn digest_is_lazy_and_a_clone_keeps_it() {
        let p = coin();
        assert_eq!(
            p.digest.load(Ordering::Relaxed),
            UNHASHED,
            "computed at construction"
        );
        let d = p.digest();
        assert_eq!(d, crate::hash::fnv1a_pmf(crate::hash::fnv1a_seed(), &p));
        assert_eq!(p.clone().digest.load(Ordering::Relaxed), d);
        // Equality, `Debug` and serde do not see whether it is cached.
        let fresh = coin();
        assert_eq!(fresh, p);
        assert_eq!(format!("{fresh:?}"), format!("{p:?}"));
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&p).unwrap()
        );
    }

    #[test]
    fn equal_bits_give_equal_digests() {
        let a = Pmf::from_pairs([(1.0, 0.25), (2.5, 0.75)]).unwrap();
        let b = Pmf::from_pairs([(2.5, 0.75), (1.0, 0.25)]).unwrap();
        assert!(a.bits_eq(&b));
        assert_eq!(a.digest(), b.digest());
        let c = Pmf::from_pairs([(1.0, 0.25), (2.0, 0.75)]).unwrap();
        assert!(!a.bits_eq(&c));
        assert_ne!(a.digest(), c.digest());
        // Signed zeros are equal under `==` but not bitwise.
        let (zero, neg_zero) = (
            Pmf::degenerate(0.0).unwrap(),
            Pmf::degenerate(-0.0).unwrap(),
        );
        assert_eq!(zero, neg_zero);
        assert!(!zero.bits_eq(&neg_zero));
        assert_ne!(zero.digest(), neg_zero.digest());
    }
}
