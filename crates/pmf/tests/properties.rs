//! Property-based tests for the PMF algebra invariants.

use cdsf_pmf::{discretize::Discretize, Pmf, PROB_TOLERANCE};
use proptest::prelude::*;

/// Strategy: an arbitrary valid PMF with 1..=12 pulses, values in a tame
/// range, weights normalized by construction.
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec(((-1e4f64..1e4f64), 1e-3f64..1.0f64), 1..=12)
        .prop_map(|pairs| Pmf::from_weighted(pairs).expect("positive weights"))
}

/// Strategy: a PMF with strictly positive support (execution-time-like).
fn arb_positive_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec(((1e-2f64..1e4f64), 1e-3f64..1.0f64), 1..=12)
        .prop_map(|pairs| Pmf::from_weighted(pairs).expect("positive weights"))
}

/// Strategy: a valid availability-like PMF (strictly positive support ≤ 1).
fn arb_availability() -> impl Strategy<Value = Pmf> {
    prop::collection::vec(((0.05f64..=1.0f64), 1e-3f64..1.0f64), 1..=6)
        .prop_map(|pairs| Pmf::from_weighted(pairs).expect("positive weights"))
}

fn total_mass(p: &Pmf) -> f64 {
    p.pulses().iter().map(|x| x.prob).sum()
}

fn is_sorted_strict(p: &Pmf) -> bool {
    p.pulses().windows(2).all(|w| w[0].value < w[1].value)
}

proptest! {
    #[test]
    fn construction_invariants(pmf in arb_pmf()) {
        prop_assert!((total_mass(&pmf) - 1.0).abs() <= 1e-6);
        prop_assert!(is_sorted_strict(&pmf));
        prop_assert!(pmf.pulses().iter().all(|p| p.prob > 0.0));
    }

    #[test]
    fn cdf_is_monotone_and_bounded(pmf in arb_pmf(), xs in prop::collection::vec(-2e4f64..2e4f64, 2..8)) {
        let mut xs = xs;
        xs.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &x in &xs {
            let c = pmf.cdf(x);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
        prop_assert!(pmf.cdf(pmf.max_value()) >= 1.0 - 1e-6);
        prop_assert!(pmf.cdf(pmf.min_value() - 1.0) == 0.0);
    }

    #[test]
    fn expectation_within_support(pmf in arb_pmf()) {
        let mu = pmf.expectation();
        prop_assert!(mu >= pmf.min_value() - 1e-9);
        prop_assert!(mu <= pmf.max_value() + 1e-9);
        prop_assert!(pmf.variance() >= 0.0);
    }

    #[test]
    fn quantile_inverts_cdf(pmf in arb_pmf(), q in 0.0f64..=1.0f64) {
        let v = pmf.quantile(q);
        // Definition: v is a support value whose CDF reaches q.
        prop_assert!(pmf.cdf(v) + PROB_TOLERANCE >= q);
        // And no earlier support value does.
        if let Some(prev) = pmf.pulses().iter().rev().find(|p| p.value < v) {
            prop_assert!(pmf.cdf(prev.value) < q);
        }
    }

    #[test]
    fn add_linearity_of_expectation(a in arb_pmf(), b in arb_pmf()) {
        let s = a.add(&b).unwrap();
        prop_assert!((s.expectation() - (a.expectation() + b.expectation())).abs() < 1e-6);
        // Variances add under independence.
        prop_assert!((s.variance() - (a.variance() + b.variance())).abs() < 1e-4);
    }

    #[test]
    fn max_dominates_both(a in arb_pmf(), b in arb_pmf()) {
        let m = a.max(&b).unwrap();
        prop_assert!(m.expectation() + 1e-9 >= a.expectation().max(b.expectation()));
        prop_assert!(m.max_value() <= a.max_value().max(b.max_value()) + 1e-12);
        prop_assert!(m.min_value() >= a.min_value().max(b.min_value()) - 1e-12);
        // Pr(max ≤ x) = Pr(A ≤ x)·Pr(B ≤ x) under independence.
        let x = (a.max_value() + b.max_value()) / 2.0;
        prop_assert!((m.cdf(x) - a.cdf(x) * b.cdf(x)).abs() < 1e-6);
    }

    #[test]
    fn quotient_expectation_factorizes(t in arb_pmf(), a in arb_availability()) {
        // E[T/α] = E[T]·E[1/α] under independence — the identity that pins
        // down the paper's Table V numbers.
        let loaded = t.quotient(&a).unwrap();
        let e_inv: f64 = a.pulses().iter().map(|p| p.prob / p.value).sum();
        prop_assert!((loaded.expectation() - t.expectation() * e_inv).abs()
            < 1e-6 * (1.0 + loaded.expectation().abs()));
    }

    #[test]
    fn quotient_slows_execution(t in arb_positive_pmf(), a in arb_availability()) {
        // Availability ≤ 1 can only inflate execution times.
        let loaded = t.quotient(&a).unwrap();
        prop_assert!(loaded.expectation() + 1e-9 >= t.expectation());
    }

    #[test]
    fn scale_preserves_mass(pmf in arb_pmf(), c in 0.01f64..5.0) {
        // The Amdahl rescale is a `scale` call; total probability mass must
        // survive it exactly (up to float summation noise).
        let t = pmf.scale(c).unwrap();
        prop_assert!((total_mass(&t) - 1.0).abs() <= 1e-6);
    }

    #[test]
    fn quotient_preserves_mass(t in arb_positive_pmf(), a in arb_availability()) {
        // The availability convolution T/α redistributes mass over the
        // product support but never creates or destroys it.
        let loaded = t.quotient(&a).unwrap();
        prop_assert!((total_mass(&loaded) - 1.0).abs() <= 1e-6);
    }

    #[test]
    fn convolutions_preserve_mass(a in arb_pmf(), b in arb_pmf()) {
        prop_assert!((total_mass(&a.add(&b).unwrap()) - 1.0).abs() <= 1e-6);
        prop_assert!((total_mass(&a.max(&b).unwrap()) - 1.0).abs() <= 1e-6);
    }

    #[test]
    fn coalesce_preserves_mean_and_support(pmf in arb_pmf(), k in 1usize..=8) {
        let c = pmf.coalesce(k);
        prop_assert!(c.len() <= k.max(1));
        prop_assert!((c.expectation() - pmf.expectation()).abs() < 1e-6 * (1.0 + pmf.expectation().abs()));
        prop_assert!(c.min_value() >= pmf.min_value() - 1e-9);
        prop_assert!(c.max_value() <= pmf.max_value() + 1e-9);
        // Coalescing is variance-reducing (Jensen).
        prop_assert!(c.variance() <= pmf.variance() + 1e-6);
    }

    #[test]
    fn scale_shift_moments(pmf in arb_pmf(), c in -3.0f64..3.0f64, d in -100.0f64..100.0f64) {
        let t = pmf.scale(c).unwrap().shift(d).unwrap();
        prop_assert!((t.expectation() - (c * pmf.expectation() + d)).abs() < 1e-6);
        prop_assert!((t.variance() - c * c * pmf.variance()).abs() < 1e-4 * (1.0 + pmf.variance()));
    }

    #[test]
    fn mixture_expectation_is_weighted(a in arb_pmf(), b in arb_pmf(), w in 0.01f64..0.99f64) {
        let m = Pmf::mixture(&[(w, a.clone()), (1.0 - w, b.clone())]).unwrap();
        let want = w * a.expectation() + (1.0 - w) * b.expectation();
        prop_assert!((m.expectation() - want).abs() < 1e-6 * (1.0 + want.abs()));
    }

    #[test]
    fn ks_distance_is_a_metric(a in arb_pmf(), b in arb_pmf(), c in arb_pmf()) {
        let dab = a.ks_distance(&b);
        let dba = b.ks_distance(&a);
        prop_assert!((dab - dba).abs() < 1e-12); // symmetry
        prop_assert!((0.0..=1.0 + 1e-12).contains(&dab)); // bounded
        prop_assert!(a.ks_distance(&a) == 0.0); // identity
        // triangle inequality
        prop_assert!(dab <= a.ks_distance(&c) + c.ks_distance(&b) + 1e-12);
    }

    #[test]
    fn normal_equiprobable_mean_preserved(mu in 1.0f64..1e5f64, n in 2usize..=64) {
        let d = cdsf_pmf::discretize::Normal::with_paper_sigma(mu).unwrap();
        let pmf = d.equiprobable(n);
        prop_assert_eq!(pmf.len(), n);
        prop_assert!((pmf.expectation() - mu).abs() < 1e-6 * mu);
        prop_assert!(pmf.variance() <= d.std_dev() * d.std_dev() + 1e-9);
    }

    #[test]
    fn n_fold_sum_linearity(pmf in arb_pmf(), n in 1u64..64) {
        let s = pmf.n_fold_sum(n, 256).unwrap();
        let want_mean = n as f64 * pmf.expectation();
        prop_assert!((s.expectation() - want_mean).abs() < 1e-6 * (1.0 + want_mean.abs()),
            "mean {} vs {}", s.expectation(), want_mean);
        // Variance ≤ n·Var (coalescing only removes spread); relative
        // tolerance because variances reach ~1e7 at these value scales.
        let var_bound = n as f64 * pmf.variance();
        prop_assert!(s.variance() <= var_bound * (1.0 + 1e-9) + 1e-6,
            "var {} vs bound {}", s.variance(), var_bound);
        prop_assert!(s.len() <= 256);
        // Support bounds scale with n.
        prop_assert!(s.min_value() >= n as f64 * pmf.min_value() - 1e-6 * (1.0 + pmf.min_value().abs() * n as f64));
        prop_assert!(s.max_value() <= n as f64 * pmf.max_value() + 1e-6 * (1.0 + pmf.max_value().abs() * n as f64));
    }

    #[test]
    fn serde_round_trip(pmf in arb_pmf(), x in -2e4f64..2e4f64) {
        let json = serde_json::to_string(&pmf).unwrap();
        let back: Pmf = serde_json::from_str(&json).unwrap();
        prop_assert!(pmf.approx_eq(&back, 0.0), "serde round-trip changed the PMF");
        // The prefix-CDF table is not serialized; deserialization must
        // rebuild it bit-identically.
        prop_assert_eq!(back.cumulative(), pmf.cumulative());
        prop_assert_eq!(back.cdf(x), pmf.cdf(x));
    }

    #[test]
    fn prefix_cdf_equals_legacy_linear_scan(pmf in arb_pmf(), x in -2e4f64..2e4f64) {
        // The pre-rewrite `cdf` re-summed its prefix on every call; the
        // prefix table folds the same probabilities in the same order, so
        // the results must be bit-identical — not merely close.
        let legacy: f64 = pmf
            .pulses()
            .iter()
            .take_while(|p| p.value <= x)
            .map(|p| p.prob)
            .sum();
        prop_assert_eq!(pmf.cdf(x), legacy);
        // Also at every support value (the boundary cases).
        for p in pmf.pulses() {
            let legacy_at: f64 = pmf
                .pulses()
                .iter()
                .take_while(|q| q.value <= p.value)
                .map(|q| q.prob)
                .sum();
            prop_assert_eq!(pmf.cdf(p.value), legacy_at);
        }
    }

    #[test]
    fn cdf_many_equals_pointwise_cdf(
        pmf in arb_pmf(),
        xs in prop::collection::vec(-2e4f64..2e4f64, 0..16),
        sort_sel in 0u32..2,
    ) {
        // Both the merged single-pass path (sorted queries) and the
        // binary-search fallback (unsorted) must agree with `cdf` exactly.
        let mut xs = xs;
        if sort_sel == 1 {
            xs.sort_by(f64::total_cmp);
        }
        let batch = pmf.cdf_many(&xs);
        prop_assert_eq!(batch.len(), xs.len());
        for (&x, &c) in xs.iter().zip(&batch) {
            prop_assert_eq!(c, pmf.cdf(x));
        }
    }

    #[test]
    fn cumulative_table_invariants(pmf in arb_pmf()) {
        let cum = pmf.cumulative();
        prop_assert_eq!(cum.len(), pmf.len());
        prop_assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!((cum[cum.len() - 1] - 1.0).abs() <= 1e-6);
        for (p, &c) in pmf.pulses().iter().zip(cum) {
            prop_assert_eq!(pmf.cdf(p.value), c);
        }
    }

    #[test]
    fn alias_sampler_stays_in_support(pmf in arb_pmf(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let s = cdsf_pmf::sample::AliasSampler::new(&pmf);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let v = s.sample(&mut rng);
            prop_assert!(pmf.pulses().iter().any(|p| p.value == v));
        }
    }
}

proptest! {
    // ------------------------------------------------------------------
    // Fused-kernel pins: every fast path must be bit-identical to the
    // canonicalizing reference it replaces.
    // ------------------------------------------------------------------

    /// `map`'s sorted fast path (monotone transform) against the always-
    /// canonicalizing reference, reconstructed via `from_pairs` (collect
    /// then canonicalize — the pre-fast-path behavior).
    #[test]
    fn map_monotone_fast_path_matches_canonicalizing_reference(
        pmf in arb_pmf(),
        c in 1e-3f64..1e3f64,
    ) {
        let scaled = pmf.scale(c).unwrap();
        let reference =
            Pmf::from_pairs(pmf.pulses().iter().map(|p| (p.value * c, p.prob))).unwrap();
        prop_assert!(scaled.bits_eq(&reference));

        let shifted = pmf.shift(c).unwrap();
        let reference =
            Pmf::from_pairs(pmf.pulses().iter().map(|p| (p.value + c, p.prob))).unwrap();
        prop_assert!(shifted.bits_eq(&reference));
    }

    /// Non-monotone maps must take the canonicalizing path and still agree
    /// with the reference (negative scale reverses the support order).
    #[test]
    fn map_non_monotone_falls_back_identically(pmf in arb_pmf(), c in 1e-3f64..1e3f64) {
        let scaled = pmf.scale(-c).unwrap();
        let reference =
            Pmf::from_pairs(pmf.pulses().iter().map(|p| (p.value * -c, p.prob))).unwrap();
        prop_assert!(scaled.bits_eq(&reference));

        let folded = pmf.map(|v| v * v).unwrap();
        let reference =
            Pmf::from_pairs(pmf.pulses().iter().map(|p| (p.value * p.value, p.prob))).unwrap();
        prop_assert!(folded.bits_eq(&reference));
    }

    /// The fused scale→quotient kernel against the explicit two-step
    /// reference, including scratch reuse across calls.
    #[test]
    fn fused_scale_quotient_matches_two_step(
        exec in arb_positive_pmf(),
        factors in prop::collection::vec(1e-3f64..4.0f64, 1..=6),
        avail in arb_availability(),
    ) {
        let mut scratch = cdsf_pmf::CombineScratch::new();
        // Single-factor entry point, scratch reused across the loop.
        for &f in &factors {
            let fused = exec.scale_quotient_with(f, &avail, &mut scratch).unwrap();
            let two_step = exec.scale(f).unwrap().quotient(&avail).unwrap();
            prop_assert!(fused.bits_eq(&two_step));
        }
        // Family entry point (shared probability products).
        let family = exec.scale_quotient_family(&factors, &avail, &mut scratch).unwrap();
        prop_assert_eq!(family.len(), factors.len());
        for (&f, fused) in factors.iter().zip(&family) {
            let two_step = exec.scale(f).unwrap().quotient(&avail).unwrap();
            prop_assert!(fused.bits_eq(&two_step));
        }
    }

    /// The sorted-merge `max` fast path against `combine`-based `max`.
    /// Both the linear-scan (few pulses) and heap (many pulses) merge
    /// paths are exercised by the 1..=12 pulse range.
    #[test]
    fn max_with_matches_combine_max(a in arb_pmf(), b in arb_pmf()) {
        let mut scratch = cdsf_pmf::CombineScratch::new();
        let fast = a.max_with(&b, &mut scratch).unwrap();
        let reference = a.max(&b).unwrap();
        prop_assert!(fast.bits_eq(&reference));
    }

    /// The sorted-merge product fast path (monotone case: non-negative
    /// right support) against the canonicalizing `combine`.
    #[test]
    fn product_with_matches_combine_product(a in arb_pmf(), b in arb_positive_pmf()) {
        let mut scratch = cdsf_pmf::CombineScratch::new();
        let fast = a.product_with(&b, &mut scratch).unwrap();
        let reference = a.combine(&b, |x, y| x * y).unwrap();
        prop_assert!(fast.bits_eq(&reference));
    }

    /// Mixed-sign right operand makes the product non-monotone; the kernel
    /// must detect the descent and fall back, still bit-identically.
    #[test]
    fn product_with_mixed_sign_falls_back_identically(a in arb_pmf(), b in arb_pmf()) {
        let mut scratch = cdsf_pmf::CombineScratch::new();
        let fast = a.product_with(&b, &mut scratch).unwrap();
        let reference = a.combine(&b, |x, y| x * y).unwrap();
        prop_assert!(fast.bits_eq(&reference));
    }

    /// Generic monotone combine with addition (always monotone) against
    /// the classical convolution.
    #[test]
    fn combine_monotone_add_matches_add(a in arb_pmf(), b in arb_pmf()) {
        let mut scratch = cdsf_pmf::CombineScratch::new();
        let fast = a.combine_monotone(&b, |x, y| x + y, &mut scratch).unwrap();
        let reference = a.add(&b).unwrap();
        prop_assert!(fast.bits_eq(&reference));
    }
}
