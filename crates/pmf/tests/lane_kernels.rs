//! Property tests pinning the unrolled prefix-CDF fold to the plain
//! left-to-right loop at the `f64::to_bits` level, and the batched CDF
//! lookup to one `cdf` call per query.
//!
//! `cdsf_pmf::lanes::prefix_cdf` promises bit-identity, not approximate
//! agreement — goldens and the determinism battery depend on it — so
//! these tests feed it adversarial inputs (subnormals, signed zeros,
//! exact ties, huge magnitudes, empty and sub-lane tails) and compare raw
//! bits against [`prefix_cdf_scalar`], the oracle kept here.

use cdsf_pmf::lanes::prefix_cdf;
use cdsf_pmf::Pulse;
use proptest::prelude::*;

/// The reference fold: `acc += prob`, one term at a time.
fn prefix_cdf_scalar(pulses: &[Pulse]) -> Vec<f64> {
    let mut cum = Vec::with_capacity(pulses.len());
    let mut acc = 0.0f64;
    for p in pulses {
        acc += p.prob;
        cum.push(acc);
    }
    cum
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Adversarial finite f64s: signed zeros, subnormals, exact tie grids,
/// huge and tiny magnitudes.
fn adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::MIN_POSITIVE),
        Just(f64::MIN_POSITIVE / 8.0),  // subnormal
        Just(-f64::MIN_POSITIVE / 8.0), // negative subnormal
        Just(f64::MAX / 4.0),
        (-64i32..64).prop_map(|i| f64::from(i) * 0.25), // exact ties
        -1e12f64..1e12f64,
        -2.0f64..2.0f64,
    ]
}

/// Pulse runs of length 0..=19 — every lane/tail residue plus several full
/// lanes — with adversarial values *and* probabilities.
fn adversarial_pulses() -> impl Strategy<Value = Vec<Pulse>> {
    prop::collection::vec((adversarial_f64(), adversarial_f64()), 0..20).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(value, prob)| Pulse { value, prob })
            .collect()
    })
}

#[test]
fn prefix_cdf_lane_matches_scalar_all_tail_lengths() {
    for n in 0..13usize {
        let pulses: Vec<Pulse> = (0..n)
            .map(|i| Pulse {
                value: i as f64,
                prob: 1.0 / (i as f64 + 3.0),
            })
            .collect();
        assert_eq!(
            bits(&prefix_cdf_scalar(&pulses)),
            bits(&prefix_cdf(&pulses)),
            "n={n}"
        );
    }
}

#[test]
fn cdf_many_matches_cdf_on_ties_and_tails() {
    // Queries on pulse values, between them, outside the support, repeated
    // and empty: the merged cursor must stop where `cdf`'s binary search
    // does.
    let pmf = cdsf_pmf::Pmf::from_weighted(vec![(1.0, 1.0), (2.0, 1.0), (2.5, 1.0), (4.0, 1.0)])
        .expect("positive weights");
    let sorted = [0.0, 1.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 9.0];
    let unsorted = [4.0, 1.0, 9.0, 0.0, 2.5, 2.49, 1.0];
    for xs in [&sorted[..], &unsorted[..], &[], &sorted[..3]] {
        let per_query: Vec<f64> = xs.iter().map(|&x| pmf.cdf(x)).collect();
        assert_eq!(bits(&pmf.cdf_many(xs)), bits(&per_query), "{xs:?}");
    }
}

proptest! {
    #[test]
    fn prefix_cdf_lane_equals_scalar(pulses in adversarial_pulses()) {
        prop_assert_eq!(
            bits(&prefix_cdf_scalar(&pulses)),
            bits(&prefix_cdf(&pulses))
        );
    }

    #[test]
    fn cdf_many_matches_pmf_cdf(
        support in prop::collection::vec(((-1e4f64..1e4f64), 1e-3f64..1.0f64), 1..=12),
        queries in prop::collection::vec(-2e4f64..2e4f64, 0..16),
        sort_queries in prop_oneof![Just(true), Just(false)],
    ) {
        // End to end through the public API: cdf_many must agree bitwise
        // with one cdf() call per query, on both the sorted (merged
        // cursor) and the unsorted path.
        let pmf = cdsf_pmf::Pmf::from_weighted(support).expect("positive weights");
        let mut queries = queries;
        if sort_queries {
            queries.sort_by(f64::total_cmp);
        }
        let per_query: Vec<f64> = queries.iter().map(|&x| pmf.cdf(x)).collect();
        prop_assert_eq!(bits(&pmf.cdf_many(&queries)), bits(&per_query));
    }
}
