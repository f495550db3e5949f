//! Stable structural hashing of PMFs.
//!
//! A PMF is identified by the *exact bits* of its pulses — value and
//! probability `f64`s folded through FNV-1a in pulse order, prefixed by
//! the pulse count. Two PMFs hash equal iff a bitwise walk of their
//! pulses is equal (modulo collisions, which every consumer in this
//! workspace guards against with a structural verify-on-hit), so the
//! digest is a valid key for any cache whose values are deterministic
//! functions of PMF bits: the engine-input fingerprint
//! `cdsf_ra::inputs_key` folds PMFs in with [`fnv1a_pmf`], and the
//! content-addressed loaded-PMF cell store keys on [`Pmf::digest`], the
//! same fold from the offset basis, cached in the PMF.
//!
//! FNV-1a is used for the same reasons as everywhere else in the
//! workspace: no dependencies, no per-process seeding (digests are
//! stable across runs and hosts, which the snapshot/restore suites rely
//! on), and byte-serial folding that makes the digest a pure function of
//! the input bytes.

use crate::pmf::Pmf;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a initial state.
#[inline]
pub fn fnv1a_seed() -> u64 {
    FNV_OFFSET
}

/// Folds one `u64` into an FNV-1a state byte by byte (little-endian).
#[inline]
pub fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds a PMF's exact pulse bits (length, then per pulse value and
/// probability) into an FNV-1a state.
pub fn fnv1a_pmf(mut h: u64, pmf: &Pmf) -> u64 {
    h = fnv1a_u64(h, pmf.pulses().len() as u64);
    for p in pmf.pulses() {
        h = fnv1a_u64(h, p.value.to_bits());
        h = fnv1a_u64(h, p.prob.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_a_function_of_the_bits() {
        let a = Pmf::from_pairs([(1.0, 0.5), (2.0, 0.5)]).unwrap();
        let b = Pmf::from_pairs([(1.0, 0.5), (2.0, 0.5)]).unwrap();
        assert_eq!(fnv1a_pmf(fnv1a_seed(), &a), fnv1a_pmf(fnv1a_seed(), &b));
    }

    #[test]
    fn digest_separates_values_probs_and_lengths() {
        let base = Pmf::from_pairs([(1.0, 0.5), (2.0, 0.5)]).unwrap();
        let h = fnv1a_pmf(fnv1a_seed(), &base);
        let other_value = Pmf::from_pairs([(1.0, 0.5), (3.0, 0.5)]).unwrap();
        let other_prob = Pmf::from_pairs([(1.0, 0.25), (2.0, 0.75)]).unwrap();
        let longer = Pmf::from_pairs([(1.0, 0.5), (2.0, 0.25), (3.0, 0.25)]).unwrap();
        for p in [&other_value, &other_prob, &longer] {
            assert_ne!(h, fnv1a_pmf(fnv1a_seed(), p));
        }
    }

    #[test]
    fn signed_zero_probabilities_are_distinguished() {
        // The workspace's bitwise-equality discipline treats -0.0 and
        // 0.0 as different inputs; the digest must agree with it.
        assert_ne!(
            fnv1a_u64(fnv1a_seed(), 0.0f64.to_bits()),
            fnv1a_u64(fnv1a_seed(), (-0.0f64).to_bits())
        );
    }
}
