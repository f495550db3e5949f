//! The prefix-CDF fold, unrolled four terms at a time.
//!
//! Every canonical [`crate::Pmf`] carries a prefix-CDF table, so this
//! fold runs once per PMF construction. Unrolling it — four terms and
//! one 4-wide store per iteration, the remainder folded one term at a
//! time — cuts its cost by about a third at 16 pulses and by half from
//! 48 pulses up, and is no slower at 8.
//!
//! # Bit-identity
//!
//! The fold is a serial dependency chain and the unroll keeps its exact
//! left-to-right association: `a₀ = acc + p₀; a₁ = a₀ + p₁; a₂ = a₁ + p₂;
//! a₃ = a₂ + p₃`. A genuinely parallel prefix sum would re-associate and
//! change bits; that is deliberately *not* what this kernel does. The
//! `lane_kernels` property suite pins it to the plain `acc += prob` loop
//! at the `f64::to_bits` level on adversarial inputs (subnormals, signed
//! zeros, ties, empty and sub-lane tails).

use crate::pmf::Pulse;

/// The prefix-CDF table of a canonical pulse run: `cum[i] = Σ_{k≤i} p_k`,
/// folded left to right (the order every bit-identity argument in
/// `kernel.rs` is built on).
pub fn prefix_cdf(pulses: &[Pulse]) -> Vec<f64> {
    let mut cum = Vec::with_capacity(pulses.len());
    let mut acc = 0.0f64;
    let mut chunks = pulses.chunks_exact(4);
    for c in &mut chunks {
        let a0 = acc + c[0].prob;
        let a1 = a0 + c[1].prob;
        let a2 = a1 + c[2].prob;
        let a3 = a2 + c[3].prob;
        cum.extend_from_slice(&[a0, a1, a2, a3]);
        acc = a3;
    }
    for p in chunks.remainder() {
        acc += p.prob;
        cum.push(acc);
    }
    cum
}
