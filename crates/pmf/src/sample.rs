//! Fast, reproducible sampling from [`Pmf`]s.
//!
//! Two samplers are provided:
//!
//! * [`CdfSampler`] — binary search over the cumulative distribution,
//!   `O(log n)` per draw, zero preprocessing beyond a prefix sum;
//! * [`AliasSampler`] — Walker–Vose alias method, `O(n)` preprocessing and
//!   `O(1)` per draw. This is the one the Monte-Carlo robustness estimator
//!   uses in its hot loop.
//!
//! Both samplers draw identically-distributed values but consume the RNG
//! stream differently, so cross-sampler runs are not bit-identical; within
//! a sampler, a fixed seed reproduces the exact sequence.

use crate::Pmf;
use rand::Rng;

/// Binary-search sampler over the cumulative distribution.
#[derive(Debug, Clone)]
pub struct CdfSampler {
    values: Vec<f64>,
    cum: Vec<f64>,
}

impl CdfSampler {
    /// Precomputes the prefix-sum table for `pmf`.
    pub fn new(pmf: &Pmf) -> Self {
        let mut cum = Vec::with_capacity(pmf.len());
        let mut acc = 0.0;
        let mut values = Vec::with_capacity(pmf.len());
        for p in pmf.pulses() {
            acc += p.prob;
            cum.push(acc);
            values.push(p.value);
        }
        // Guard against rounding: the last cumulative entry must cover 1.0.
        if let Some(last) = cum.last_mut() {
            *last = f64::INFINITY;
        }
        Self { values, cum }
    }

    /// Draws one value.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let idx = self.cum.partition_point(|&c| c < u);
        self.values[idx.min(self.values.len() - 1)]
    }
}

/// Walker–Vose alias-method sampler: `O(1)` per draw.
#[derive(Debug, Clone)]
pub struct AliasSampler {
    values: Vec<f64>,
    /// Acceptance threshold for each column, scaled to [0, 1).
    prob: Vec<f64>,
    /// Alias column used when the threshold test fails.
    alias: Vec<u32>,
    /// Vose's worklists of under- and over-full columns, kept so that
    /// [`AliasSampler::rebuild`] allocates nothing.
    worklist: Vec<u32>,
}

impl AliasSampler {
    /// Builds the alias tables for `pmf`.
    ///
    /// # Panics
    /// Panics if the PMF has more than `u32::MAX` pulses (far beyond any
    /// realistic use).
    pub fn new(pmf: &Pmf) -> Self {
        let mut sampler = Self {
            values: Vec::new(),
            prob: Vec::new(),
            alias: Vec::new(),
            worklist: Vec::new(),
        };
        sampler.rebuild(pmf);
        sampler
    }

    /// Rebuilds the tables for `pmf` in place: the result equals
    /// `AliasSampler::new(pmf)`, and no allocation is made when `pmf` has
    /// no more pulses than any PMF the sampler was built for before.
    ///
    /// # Panics
    /// As [`AliasSampler::new`].
    pub fn rebuild(&mut self, pmf: &Pmf) {
        let n = pmf.len();
        assert!(n <= u32::MAX as usize, "PMF too large for alias sampler");
        self.values.clear();
        self.values.extend(pmf.pulses().iter().map(|p| p.value));
        // Scale probabilities so the average column height is exactly 1.
        // `prob` holds each column's running height: a column's entry is
        // final once it leaves the small list, and the full columns left
        // over at the end are set to 1.
        let prob = &mut self.prob;
        prob.clear();
        prob.extend(pmf.pulses().iter().map(|p| p.prob * n as f64));
        let alias = &mut self.alias;
        alias.clear();
        alias.resize(n, 0);
        // The small list grows up from the front of `worklist`, the large
        // one down from the back; no column is on both, so they never
        // meet, and each pops the column it pushed last.
        let worklist = &mut self.worklist;
        worklist.clear();
        worklist.resize(n, 0);
        let (mut small, mut large) = (0, n);
        for (i, &height) in prob.iter().enumerate() {
            if height < 1.0 {
                worklist[small] = i as u32;
                small += 1;
            } else {
                large -= 1;
                worklist[large] = i as u32;
            }
        }
        while small > 0 && large < n {
            small -= 1;
            let (s, l) = (worklist[small] as usize, worklist[large]);
            alias[s] = l;
            let l = l as usize;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large += 1;
                worklist[small] = l as u32;
                small += 1;
            }
        }
        // Remaining columns are full (height 1) up to rounding.
        for &i in worklist[..small].iter().chain(&worklist[large..]) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
    }

    /// Draws one value.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let col = rng.gen_range(0..n);
        let u: f64 = rng.gen();
        if u < self.prob[col] {
            self.values[col]
        } else {
            self.values[self.alias[col] as usize]
        }
    }

    /// Number of columns (pulses).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false — a sampler exists only for non-empty PMFs.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pmf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn frequency_check(mut draw: impl FnMut(&mut StdRng) -> f64, pmf: &Pmf) {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000usize;
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for _ in 0..n {
            *counts.entry(draw(&mut rng).to_bits()).or_default() += 1;
        }
        for p in pmf.pulses() {
            let observed = *counts.get(&p.value.to_bits()).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (observed - p.prob).abs() < 0.01,
                "value {} expected {} observed {observed}",
                p.value,
                p.prob
            );
        }
    }

    fn skewed() -> Pmf {
        Pmf::from_pairs([(1.0, 0.05), (2.0, 0.15), (3.0, 0.30), (4.0, 0.50)]).unwrap()
    }

    #[test]
    fn cdf_sampler_frequencies() {
        let pmf = skewed();
        let s = CdfSampler::new(&pmf);
        frequency_check(|rng| s.sample(rng), &pmf);
    }

    #[test]
    fn alias_sampler_frequencies() {
        let pmf = skewed();
        let s = AliasSampler::new(&pmf);
        frequency_check(|rng| s.sample(rng), &pmf);
    }

    #[test]
    fn alias_sampler_degenerate() {
        let pmf = Pmf::degenerate(9.0).unwrap();
        let s = AliasSampler::new(&pmf);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 9.0);
        }
    }

    #[test]
    fn alias_sampler_uniform_many_pulses() {
        let pmf = Pmf::from_weighted((0..97).map(|i| (i as f64, 1.0))).unwrap();
        let s = AliasSampler::new(&pmf);
        assert_eq!(s.len(), 97);
        let mut rng = StdRng::seed_from_u64(5);
        let mean: f64 = (0..100_000).map(|_| s.sample(&mut rng)).sum::<f64>() / 100_000.0;
        assert!((mean - 48.0).abs() < 0.5, "mean={mean}");
    }

    /// The tables of the sampler as first written: separate `scaled`,
    /// `small` and `large` vectors.
    fn vose_reference(pmf: &Pmf) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
        let n = pmf.len();
        let values: Vec<f64> = pmf.pulses().iter().map(|p| p.value).collect();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut scaled: Vec<f64> = pmf.pulses().iter().map(|p| p.prob * n as f64).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        (values, prob, alias)
    }

    fn tables(s: &AliasSampler) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        (bits(&s.values), bits(&s.prob), s.alias.clone())
    }

    proptest::proptest! {
        /// `new` and an in-place `rebuild` over a sampler last built for
        /// another PMF (shorter, longer or as long) write the reference
        /// tables bit for bit.
        #[test]
        fn rebuild_writes_the_reference_tables(
            weights in proptest::collection::vec(0.01f64..10.0, 1..40),
            previous in proptest::collection::vec(0.01f64..10.0, 1..40),
        ) {
            let pmf_of = |w: &[f64]| {
                Pmf::from_weighted(w.iter().enumerate().map(|(i, &w)| (i as f64, w))).unwrap()
            };
            let (pmf, previous) = (pmf_of(&weights), pmf_of(&previous));
            let (values, prob, alias) = vose_reference(&pmf);
            let want = tables(&AliasSampler { values, prob, alias, worklist: Vec::new() });
            proptest::prop_assert_eq!(tables(&AliasSampler::new(&pmf)), want.clone());
            let mut reused = AliasSampler::new(&previous);
            reused.rebuild(&pmf);
            proptest::prop_assert_eq!(tables(&reused), want);
        }
    }

    #[test]
    fn samplers_deterministic_per_seed() {
        let pmf = skewed();
        let s = AliasSampler::new(&pmf);
        let draw = |seed: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| s.sample(&mut rng)).collect()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }
}
