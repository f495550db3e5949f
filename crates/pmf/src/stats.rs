//! Numerical statistics toolbox: error function, standard-normal CDF and
//! quantile, streaming moment accumulators, and sample summaries.
//!
//! Implemented in-house (rather than pulling in `statrs`) because the
//! framework only needs a handful of well-understood scalar routines.

/// Error function `erf(x)`, accurate to about `1.2e-7` absolute error.
///
/// Uses the Abramowitz & Stegun 7.1.26 rational approximation with the
/// standard symmetry reduction `erf(−x) = −erf(x)`.
pub fn erf(x: f64) -> f64 {
    // Coefficients of A&S 7.1.26.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Complementary error function `erfc(x) = 1 − erf(x)`.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal CDF `Φ(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal density `φ(z)`.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Peter Acklam's rational approximation (relative error below `1.15e-9`),
/// refined with one Halley step against [`normal_cdf`]. Returns `±∞` at the
/// endpoints and NaN outside `[0, 1]`.
pub fn normal_inv_cdf(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the adaptive DLS techniques (AWF variants, AF) to maintain
/// per-processor estimates of iteration execution time mean and variance
/// without storing the raw observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`); 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (divides by `n − 1`); 0 with fewer than 2
    /// samples.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford, Chan's
    /// update), so per-worker accumulators can be reduced.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (lower median for even `n`).
    pub median: f64,
}

impl Summary {
    /// Summarizes a non-empty sample. Returns `None` for empty input.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut acc = Welford::new();
        for &s in samples {
            acc.push(s);
        }
        Some(Self {
            n: samples.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            median: sorted[(sorted.len() - 1) / 2],
        })
    }
}

/// Coefficient of variation of processor finishing times — the classic
/// load-imbalance metric used in the DLS literature. Returns 0 for an
/// empty sample or zero mean.
pub fn imbalance_cov(finish_times: &[f64]) -> f64 {
    let mut acc = Welford::new();
    for &t in finish_times {
        acc.push(t);
    }
    if acc.mean() == 0.0 {
        0.0
    } else {
        acc.std_dev() / acc.mean()
    }
}

/// Wilson score interval for a binomial proportion at confidence `z`
/// standard deviations (e.g. `z = 1.96` for 95 %).
///
/// Returns `(lo, hi)`; degenerates gracefully at `hits = 0` or
/// `hits = n` (never produces bounds outside `[0, 1]`). Used to attach
/// honest uncertainty to Monte-Carlo deadline-probability estimates.
pub fn wilson_interval(hits: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let n_f = n as f64;
    let p = hits as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let spread = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    (
        ((centre - spread) / denom).clamp(0.0, 1.0),
        ((centre + spread) / denom).clamp(0.0, 1.0),
    )
}

/// Two-sample Kolmogorov–Smirnov statistic between raw samples.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            0.0
        } else {
            1.0
        };
    }
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xs.len() && j < ys.len() {
        let x = xs[i].min(ys[j]);
        while i < xs.len() && xs[i] <= x {
            i += 1;
        }
        while j < ys.len() && ys[j] <= x {
            j += 1;
        }
        let fa = i as f64 / xs.len() as f64;
        let fb = j as f64 / ys.len() as f64;
        d = d.max((fa - fb).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 approximation carries ~1e-7 absolute error.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn erfc_complements() {
        for &x in &[-2.0, -0.5, 0.0, 0.7, 2.3] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_symmetry_and_known() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        for &z in &[-2.5, -1.0, 0.3, 1.7] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn normal_inv_cdf_round_trips() {
        for &p in &[0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            let z = normal_inv_cdf(p);
            assert!(
                (normal_cdf(z) - p).abs() < 1e-6,
                "p={p} z={z} cdf={}",
                normal_cdf(z)
            );
        }
    }

    #[test]
    fn normal_inv_cdf_edges() {
        assert_eq!(normal_inv_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_inv_cdf(1.0), f64::INFINITY);
        assert!(normal_inv_cdf(-0.1).is_nan());
        assert!(normal_inv_cdf(1.1).is_nan());
    }

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let b = Welford::new();
        let mut a2 = a;
        a2.merge(&b);
        assert_eq!(a2, a);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn imbalance_cov_zero_for_balanced() {
        assert_eq!(imbalance_cov(&[5.0, 5.0, 5.0]), 0.0);
        assert!(imbalance_cov(&[1.0, 9.0]) > 0.5);
    }

    #[test]
    fn wilson_interval_contains_proportion() {
        let (lo, hi) = wilson_interval(745, 1000, 1.96);
        assert!(lo < 0.745 && 0.745 < hi);
        assert!(hi - lo < 0.06, "width {}", hi - lo);
        // Edge cases stay in [0, 1] and are non-degenerate.
        let (lo0, hi0) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.1);
        let (lo1, hi1) = wilson_interval(100, 100, 1.96);
        assert!(hi1 > 1.0 - 1e-12); // mathematically 1.0, modulo fp rounding
        assert!(lo1 > 0.9 && lo1 < 1.0);
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn wilson_interval_narrows_with_n() {
        let w = |n: u64| {
            let (lo, hi) = wilson_interval(n / 2, n, 1.96);
            hi - lo
        };
        assert!(w(100) > w(10_000));
        assert!(w(10_000) > w(1_000_000));
    }

    #[test]
    fn ks_two_sample_identical_is_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(ks_two_sample(&a, &a), 0.0);
    }

    #[test]
    fn ks_two_sample_disjoint_is_one() {
        assert!((ks_two_sample(&[1.0, 2.0], &[10.0, 20.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_two_sample_with_one_empty_side_is_one() {
        assert_eq!(ks_two_sample(&[], &[1.0]), 1.0);
        assert_eq!(ks_two_sample(&[1.0], &[]), 1.0);
        assert_eq!(ks_two_sample(&[], &[]), 0.0);
        // Half of one sample lies below the other's support.
        assert_eq!(ks_two_sample(&[1.0, 5.0], &[5.0, 5.0]), 0.5);
    }

    #[test]
    fn normal_pdf_peaks_at_zero_and_is_symmetric() {
        let peak = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert_eq!(normal_pdf(0.0), peak);
        for &z in &[0.3, 1.0, 2.5] {
            assert_eq!(normal_pdf(z), normal_pdf(-z));
            assert!(normal_pdf(z) < peak);
        }
        assert!((normal_pdf(1.0) - 0.241_970_724_519_143_37).abs() < 1e-15);
    }

    #[test]
    fn sample_variance_applies_bessels_correction() {
        let mut w = Welford::new();
        assert_eq!(w.sample_variance(), 0.0);
        w.push(4.0);
        assert_eq!((w.variance(), w.sample_variance()), (0.0, 0.0));
        for &x in &[2.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn summary_takes_the_lower_median_of_an_even_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.0);
        assert_eq!((s.min, s.max), (1.0, 4.0));
        assert!((s.std_dev - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn imbalance_cov_of_an_empty_or_zero_mean_sample_is_zero() {
        assert_eq!(imbalance_cov(&[]), 0.0);
        assert_eq!(imbalance_cov(&[-1.0, 1.0]), 0.0);
        assert!((imbalance_cov(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
