//! Adaptive techniques: the AWF family and AF.
//!
//! Adaptive techniques refine their chunk decisions from *measured* worker
//! performance, which is how they absorb availability fluctuations that
//! fixed-parameter techniques cannot see.
//!
//! **AWF** (adaptive weighted factoring, Cariño & Banicescu) keeps WF's
//! batch structure but recomputes the per-worker weights from the
//! cumulative average iteration time `π_i` each worker has exhibited:
//! `w_i = P·(1/π_i)/Σ_j(1/π_j)`. The variants differ in *when* weights are
//! refreshed and *what* time they measure:
//!
//! | variant | refresh     | measured time            |
//! |---------|-------------|--------------------------|
//! | AWF-B   | every batch | compute only             |
//! | AWF-C   | every chunk | compute only             |
//! | AWF-D   | every batch | compute + sched overhead |
//! | AWF-E   | every chunk | compute + sched overhead |
//!
//! **AF** (adaptive factoring, Banicescu & Liu) keeps factoring's *batch*
//! skeleton — each batch budgets half the remaining iterations — but drops
//! the a-priori variance assumption: per-worker mean `μ_i` and variance
//! `σ_i²` of iteration time are estimated online (per completed chunk),
//! and the chunk for worker `i` within a batch of budget `B = R/2` is
//!
//! ```text
//! k_i = (D + 2T − √(D² + 4DT)) / (2 μ_i)
//! with D = Σ_j σ_j²/μ_j   and   T = B / Σ_j (1/μ_j)
//! ```
//!
//! Both `D` and `T` have time units, so `k_i` is an iteration count. The
//! rule recovers the intuitive limits: with `σ → 0` the batch is split
//! rate-proportionally (`Σk_i = B`), and growing measured variance shrinks
//! the committed fraction (`Σk_i ≈ B(1 − √(D/T))`). Because `μ_i, σ_i` are
//! refreshed after *every* chunk, AF reacts to availability shifts at chunk
//! granularity while never committing more than half the remaining work —
//! bolder than FAC on stable processors, more cautious on erratic ones,
//! which is exactly the behaviour the paper's degraded cases reward.

use crate::technique::{clamp_chunk, SchedContext, Technique, WorkerSnapshot};
use crate::{DlsError, Result};
use serde::{Deserialize, Serialize};

/// Which AWF refinement to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AwfVariant {
    /// The original AWF: weights refreshed once per *time step* (from the
    /// cumulative history of all previous steps), WF-style batches with
    /// frozen weights within the step. In a single-loop (non-timestepping)
    /// run it degenerates to WF with uniform weights.
    Timestep,
    /// AWF-B: weights refreshed at batch boundaries, compute time only.
    Batch,
    /// AWF-C: weights refreshed at every chunk, compute time only.
    Chunk,
    /// AWF-D: batch refresh, times include scheduling overhead.
    BatchWithOverhead,
    /// AWF-E: chunk refresh, times include scheduling overhead.
    ChunkWithOverhead,
}

impl AwfVariant {
    /// Display name (paper style).
    pub fn name(&self) -> &'static str {
        match self {
            AwfVariant::Timestep => "AWF",
            AwfVariant::Batch => "AWF-B",
            AwfVariant::Chunk => "AWF-C",
            AwfVariant::BatchWithOverhead => "AWF-D",
            AwfVariant::ChunkWithOverhead => "AWF-E",
        }
    }

    fn per_chunk_refresh(&self) -> bool {
        matches!(self, AwfVariant::Chunk | AwfVariant::ChunkWithOverhead)
    }

    fn includes_overhead(&self) -> bool {
        matches!(
            self,
            AwfVariant::BatchWithOverhead | AwfVariant::ChunkWithOverhead
        )
    }

    /// The measured iteration time this variant weighs worker `w` by, or
    /// `None` while it has no (positive) history.
    fn measured_time(&self, w: &WorkerSnapshot) -> Option<f64> {
        if !w.has_history() {
            return None;
        }
        let t = if self.includes_overhead() {
            w.mean_iter_time_total
        } else {
            w.mean_iter_time
        };
        (t > 0.0).then_some(t)
    }
}

/// AWF — adaptive weighted factoring (variants B/C/D/E).
#[derive(Debug, Clone)]
pub struct AdaptiveWeightedFactoring {
    p: usize,
    variant: AwfVariant,
    /// Normalized weights (`Σ = P`), refreshed per batch or per chunk.
    weights: Vec<f64>,
    /// Chunks left in the current batch (batch-refresh variants).
    left_in_batch: usize,
    /// Remaining frozen at the batch boundary.
    batch_remaining: u64,
    /// Timestep variant only: a weight refresh is due (set at step
    /// boundaries, consumed at the next request).
    refresh_pending: bool,
}

impl AdaptiveWeightedFactoring {
    /// Creates an AWF instance with uniform initial weights.
    pub fn new(num_workers: usize, variant: AwfVariant) -> Result<Self> {
        if num_workers == 0 {
            return Err(DlsError::NoWorkers);
        }
        Ok(Self {
            p: num_workers,
            variant,
            weights: vec![1.0; num_workers],
            left_in_batch: 0,
            batch_remaining: 0,
            refresh_pending: false,
        })
    }

    /// Recomputes weights from cumulative average iteration times:
    /// `w_i = P·(1/π_i)/Σ(1/π_j)`. Workers without history keep the mean
    /// measured rate (weight 1 before normalization over observed rates).
    ///
    /// Runs in place in `weights`: both sums fold left to right from
    /// `-0.0`, exactly as the `Iterator::sum`s of the collecting version
    /// (kept as a test reference) do, so the weights are bit-identical.
    fn refresh_weights(&mut self, workers: &[WorkerSnapshot]) {
        let variant = self.variant;
        let (mut rate_sum, mut rated) = (-0.0, 0usize);
        for t in workers.iter().filter_map(|w| variant.measured_time(w)) {
            rate_sum += 1.0 / t;
            rated += 1;
        }
        if rated == 0 {
            self.weights.iter_mut().for_each(|w| *w = 1.0);
            return;
        }
        let mean_rate = rate_sum / rated as f64;
        self.weights.clear();
        self.weights.extend(
            workers
                .iter()
                .map(|w| variant.measured_time(w).map_or(mean_rate, |t| 1.0 / t)),
        );
        let sum = self.weights.iter().fold(-0.0, |acc, r| acc + r);
        let scale = self.p as f64 / sum;
        self.weights.iter_mut().for_each(|r| *r *= scale);
    }

    /// The current normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Technique for AdaptiveWeightedFactoring {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn next_chunk(&mut self, ctx: &SchedContext<'_>) -> u64 {
        if self.variant.per_chunk_refresh() {
            self.refresh_weights(ctx.workers);
            // Chunk variants drop the batch structure: every request sees
            // the FAC2 ratio of the *current* remaining.
            let base = ctx.remaining as f64 / (2.0 * self.p as f64);
            return clamp_chunk((self.weights[ctx.worker] * base).ceil(), ctx.remaining);
        }
        if self.variant == AwfVariant::Timestep {
            // Original AWF: weights frozen within a time step, refreshed
            // from cumulative history at each step boundary.
            if self.refresh_pending {
                self.refresh_weights(ctx.workers);
                self.refresh_pending = false;
            }
            if self.left_in_batch == 0 {
                self.left_in_batch = self.p;
                self.batch_remaining = ctx.remaining;
            }
            self.left_in_batch -= 1;
            let base = self.batch_remaining as f64 / (2.0 * self.p as f64);
            return clamp_chunk((self.weights[ctx.worker] * base).ceil(), ctx.remaining);
        }
        // Batch variants: refresh at batch boundaries only.
        if self.left_in_batch == 0 {
            self.refresh_weights(ctx.workers);
            self.left_in_batch = self.p;
            self.batch_remaining = ctx.remaining;
        }
        self.left_in_batch -= 1;
        let base = self.batch_remaining as f64 / (2.0 * self.p as f64);
        clamp_chunk((self.weights[ctx.worker] * base).ceil(), ctx.remaining)
    }

    fn on_timestep(&mut self) {
        self.left_in_batch = 0;
        self.batch_remaining = 0;
        self.refresh_pending = true;
    }
}

/// AF — adaptive factoring.
#[derive(Debug, Clone)]
pub struct AdaptiveFactoring {
    p: usize,
    /// Chunks left in the current batch.
    left_in_batch: usize,
    /// Batch budget frozen at the batch boundary (`R/2`).
    batch_budget: u64,
}

impl AdaptiveFactoring {
    /// Creates an AF instance.
    pub fn new(num_workers: usize) -> Result<Self> {
        if num_workers == 0 {
            return Err(DlsError::NoWorkers);
        }
        Ok(Self {
            p: num_workers,
            left_in_batch: 0,
            batch_budget: 0,
        })
    }

    /// The AF chunk rule for the requesting worker given current estimates
    /// and the batch budget. Returns `None` when estimates are insufficient
    /// (bootstrap phase).
    ///
    /// Allocation-free: the observed means fold left to right from `-0.0`,
    /// exactly as the `Iterator::sum`s of the collecting version (kept as a
    /// test reference) do, and an observed worker's `σ²/μ` and `1/μ` are
    /// the quotients its snapshot recorded, so every chunk is
    /// bit-identical while a dispatch divides twice instead of `2P` times.
    fn af_chunk(&self, ctx: &SchedContext<'_>, budget: u64) -> Option<f64> {
        let me = &ctx.workers[ctx.worker];
        if !me.has_history() {
            return None;
        }
        // Only workers with history contribute estimates; workers still in
        // bootstrap are represented by the mean of observed workers so that
        // D and T keep honest magnitudes.
        let (mut mu_sum, mut var_sum, mut observed) = (-0.0, -0.0, 0usize);
        for w in ctx.workers.iter().filter(|w| w.has_history()) {
            mu_sum += w.mean_iter_time;
            var_sum += w.var_iter_time;
            observed += 1;
        }
        debug_assert!(observed > 0);
        let mean_mu = mu_sum / observed as f64;
        let mean_var = var_sum / observed as f64;
        // As in the reference: no estimate when a worker without history
        // would stand in with a mean that is not positive.
        if mean_mu <= 0.0 && ctx.workers.iter().any(|w| !w.has_history()) {
            return None;
        }
        let (bootstrap_d, bootstrap_rate) = (mean_var / mean_mu, 1.0 / mean_mu);
        let mut d = 0.0;
        let mut rate_sum = 0.0;
        for w in ctx.workers {
            let (dw, rate) = if w.has_history() {
                (w.var_per_mean, w.rate)
            } else {
                (bootstrap_d, bootstrap_rate)
            };
            d += dw;
            rate_sum += rate;
        }
        let t = budget as f64 / rate_sum;
        let disc = (d * d + 4.0 * d * t).sqrt();
        let k = (d + 2.0 * t - disc) / (2.0 * me.mean_iter_time);
        Some(k)
    }
}

impl Technique for AdaptiveFactoring {
    fn name(&self) -> &'static str {
        "AF"
    }

    fn next_chunk(&mut self, ctx: &SchedContext<'_>) -> u64 {
        // Factoring skeleton: a batch budgets half the remaining
        // iterations; `P` chunk requests are served per batch.
        if self.left_in_batch == 0 {
            self.left_in_batch = self.p;
            self.batch_budget = (ctx.remaining / 2).max(1);
        }
        self.left_in_batch -= 1;
        match self.af_chunk(ctx, self.batch_budget) {
            // Bootstrap: behave like FAC2 until this worker has at least
            // one measured chunk.
            None => clamp_chunk(
                (ctx.remaining as f64 / (2.0 * self.p as f64)).ceil(),
                ctx.remaining,
            ),
            Some(k) => clamp_chunk(k.ceil(), ctx.remaining),
        }
    }

    fn on_timestep(&mut self) {
        // Batch bookkeeping is per-loop; the μ/σ estimates live in the
        // executor's worker statistics and persist across steps.
        self.left_in_batch = 0;
        self.batch_budget = 0;
    }
}

#[cfg(test)]
impl AdaptiveWeightedFactoring {
    /// Reference `refresh_weights`: the collecting version the in-place
    /// kernel replaced, with its `Iterator::sum`s. Property tests pin the
    /// production kernel to it bit for bit.
    fn refresh_weights_collecting(&mut self, workers: &[WorkerSnapshot]) {
        let times: Vec<Option<f64>> = workers
            .iter()
            .map(|w| {
                if !w.has_history() {
                    return None;
                }
                let t = if self.variant.includes_overhead() {
                    w.mean_iter_time_total
                } else {
                    w.mean_iter_time
                };
                (t > 0.0).then_some(t)
            })
            .collect();
        let rates: Vec<f64> = times.iter().flatten().map(|t| 1.0 / t).collect();
        if rates.is_empty() {
            self.weights.iter_mut().for_each(|w| *w = 1.0);
            return;
        }
        let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
        let raw: Vec<f64> = times
            .iter()
            .map(|t| t.map_or(mean_rate, |t| 1.0 / t))
            .collect();
        let sum: f64 = raw.iter().sum();
        let scale = self.p as f64 / sum;
        self.weights = raw.into_iter().map(|r| r * scale).collect();
    }
}

#[cfg(test)]
impl AdaptiveFactoring {
    /// Reference `af_chunk`: the version that collected the observed
    /// workers into a `Vec` and summed them with `Iterator::sum`. Property
    /// tests pin the allocation-free kernel to it bit for bit.
    fn af_chunk_collecting(&self, ctx: &SchedContext<'_>, budget: u64) -> Option<f64> {
        let me = &ctx.workers[ctx.worker];
        if !me.has_history() {
            return None;
        }
        let observed: Vec<&WorkerSnapshot> =
            ctx.workers.iter().filter(|w| w.has_history()).collect();
        let mean_mu =
            observed.iter().map(|w| w.mean_iter_time).sum::<f64>() / observed.len() as f64;
        let mean_var =
            observed.iter().map(|w| w.var_iter_time).sum::<f64>() / observed.len() as f64;
        let mut d = 0.0;
        let mut rate_sum = 0.0;
        for w in ctx.workers {
            let (mu, var) = if w.has_history() {
                (w.mean_iter_time, w.var_iter_time)
            } else {
                (mean_mu, mean_var)
            };
            if mu <= 0.0 {
                return None;
            }
            d += var / mu;
            rate_sum += 1.0 / mu;
        }
        let t = budget as f64 / rate_sum;
        let disc = (d * d + 4.0 * d * t).sqrt();
        let k = (d + 2.0 * t - disc) / (2.0 * me.mean_iter_time);
        Some(k)
    }
}

#[cfg(test)]
mod in_place_props {
    use super::*;
    use proptest::prelude::*;

    /// One worker's measurements, covering every branch the kernels take:
    /// no chunks yet, chunks with a zero mean (no history), zero and `-0.0`
    /// variances, and an overhead-inclusive mean that may be zero on its
    /// own.
    fn arb_snapshot() -> impl Strategy<Value = WorkerSnapshot> {
        (
            0u64..3,
            prop_oneof![Just(0.0), 0.01f64..10.0],
            prop_oneof![Just(0.0), Just(-0.0), 0.0f64..4.0],
            prop_oneof![Just(0.0), 0.01f64..12.0],
        )
            .prop_map(|(chunks_done, mean, var, total)| {
                let mut snapshot = WorkerSnapshot {
                    iters_done: 16 * chunks_done,
                    chunks_done,
                    ..WorkerSnapshot::default()
                };
                snapshot.set_estimates(mean, var, total);
                snapshot
            })
    }

    fn arb_variant() -> impl Strategy<Value = AwfVariant> {
        prop_oneof![
            Just(AwfVariant::Timestep),
            Just(AwfVariant::Batch),
            Just(AwfVariant::Chunk),
            Just(AwfVariant::BatchWithOverhead),
            Just(AwfVariant::ChunkWithOverhead),
        ]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Every AWF variant's in-place refresh equals the collecting
        /// reference bit for bit, also when it overwrites weights a
        /// previous refresh left behind.
        #[test]
        fn refresh_weights_matches_collecting_reference(
            mut workers in prop::collection::vec(arb_snapshot(), 1..12),
            variant in arb_variant(),
            rounds in 1usize..4,
        ) {
            let mut fast = AdaptiveWeightedFactoring::new(workers.len(), variant).unwrap();
            let mut reference = fast.clone();
            for _ in 0..rounds {
                fast.refresh_weights(&workers);
                reference.refresh_weights_collecting(&workers);
                prop_assert_eq!(bits(fast.weights()), bits(reference.weights()));
                workers.rotate_left(1);
            }
        }

        /// The allocation-free AF rule equals the collecting reference bit
        /// for bit for every requesting worker.
        #[test]
        fn af_chunk_matches_collecting_reference(
            workers in prop::collection::vec(arb_snapshot(), 1..12),
            budget in 1u64..100_000,
        ) {
            let af = AdaptiveFactoring::new(workers.len()).unwrap();
            for worker in 0..workers.len() {
                let ctx = SchedContext {
                    worker,
                    num_workers: workers.len(),
                    total_iters: 2 * budget,
                    remaining: 2 * budget,
                    now: 0.0,
                    workers: &workers,
                };
                prop_assert_eq!(
                    af.af_chunk(&ctx, budget).map(f64::to_bits),
                    af.af_chunk_collecting(&ctx, budget).map(f64::to_bits)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::SchedContext;
    use crate::techniques::testutil::{blank_stats, drain, stats_with};

    #[test]
    fn awf_uniform_without_history_matches_fac2() {
        use crate::techniques::factoring::Factoring;
        let mut awf = AdaptiveWeightedFactoring::new(4, AwfVariant::Batch).unwrap();
        let mut fac = Factoring::fac2(4).unwrap();
        let s = blank_stats(4);
        assert_eq!(drain(&mut awf, 4, 2048, &s), drain(&mut fac, 4, 2048, &s));
    }

    #[test]
    fn awf_b_weights_track_measured_speed() {
        let mut awf = AdaptiveWeightedFactoring::new(2, AwfVariant::Batch).unwrap();
        // Worker 0 is twice as fast (iteration time 1 vs 2).
        let stats = stats_with(&[1.0, 2.0], &[0.01, 0.01]);
        let chunks = drain(&mut awf, 2, 900, &stats);
        // First batch base = 900/4 = 225; weights = [4/3, 2/3].
        assert_eq!(chunks[0].1, 300);
        assert_eq!(chunks[1].1, 150);
        let w = awf.weights();
        assert!((w[0] - 4.0 / 3.0).abs() < 1e-9);
        assert!((w[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn awf_d_uses_overhead_inclusive_times() {
        // mean_iter_time_total = 1.05 × mean in the fixture, uniformly, so
        // weights must be identical to AWF-B's on the same stats.
        let stats = stats_with(&[1.0, 2.0], &[0.0, 0.0]);
        let mut b = AdaptiveWeightedFactoring::new(2, AwfVariant::Batch).unwrap();
        let mut d = AdaptiveWeightedFactoring::new(2, AwfVariant::BatchWithOverhead).unwrap();
        b.refresh_weights(&stats);
        d.refresh_weights(&stats);
        for (wb, wd) in b.weights().iter().zip(d.weights()) {
            assert!((wb - wd).abs() < 1e-9);
        }
    }

    #[test]
    fn awf_c_refreshes_every_chunk() {
        let mut awf = AdaptiveWeightedFactoring::new(2, AwfVariant::Chunk).unwrap();
        let stats = stats_with(&[1.0, 1.0], &[0.0, 0.0]);
        let chunks = drain(&mut awf, 2, 1000, &stats);
        // Every request uses the *current* remaining (no frozen batch):
        // 250, then ⌈750/4⌉=188, ... strictly decreasing, GSS-like halving.
        assert_eq!(chunks[0].1, 250);
        assert_eq!(chunks[1].1, 188);
        assert_eq!(chunks.iter().map(|c| c.1).sum::<u64>(), 1000);
    }

    #[test]
    fn awf_handles_partial_history() {
        // Worker 1 has no measurements yet: it should get the mean observed
        // rate, not weight 0 or a panic.
        let mut awf = AdaptiveWeightedFactoring::new(2, AwfVariant::Batch).unwrap();
        let mut stats = stats_with(&[2.0, 2.0], &[0.0, 0.0]);
        stats[1] = Default::default();
        awf.refresh_weights(&stats);
        assert!((awf.weights()[0] - 1.0).abs() < 1e-9);
        assert!((awf.weights()[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn awf_rejects_zero_workers() {
        assert!(AdaptiveWeightedFactoring::new(0, AwfVariant::Batch).is_err());
        assert!(AdaptiveFactoring::new(0).is_err());
    }

    #[test]
    fn af_bootstrap_is_fac2_like() {
        let mut af = AdaptiveFactoring::new(4).unwrap();
        let ctx = SchedContext {
            worker: 0,
            num_workers: 4,
            total_iters: 1024,
            remaining: 1024,
            now: 0.0,
            workers: &blank_stats(4),
        };
        assert_eq!(af.next_chunk(&ctx), 128); // 1024/(2·4)
    }

    #[test]
    fn af_zero_variance_splits_batch_rate_proportionally() {
        // σ² = 0 ⇒ D = 0 ⇒ k_i = T/μ_i with T = (R/2)/Σ(1/μ_j), so the
        // half-remaining batch budget is split proportionally to rates.
        let mut af = AdaptiveFactoring::new(2).unwrap();
        let stats = stats_with(&[1.0, 3.0], &[0.0, 0.0]);
        let r = 800u64;
        let mk = |worker: usize| SchedContext {
            worker,
            num_workers: 2,
            total_iters: r,
            remaining: r,
            now: 0.0,
            workers: &stats,
        };
        // Budget = 400; T = 400 / (1 + 1/3) = 300; k_0 = 300, k_1 = 100.
        assert_eq!(af.next_chunk(&mk(0)), 300);
        assert_eq!(af.next_chunk(&mk(1)), 100);
    }

    #[test]
    fn af_never_commits_more_than_half_remaining_per_batch() {
        let mut af = AdaptiveFactoring::new(4).unwrap();
        let stats = stats_with(&[1.0, 1.0, 1.0, 1.0], &[0.0; 4]);
        let r = 1000u64;
        let mut total = 0u64;
        for w in 0..4 {
            let ctx = SchedContext {
                worker: w,
                num_workers: 4,
                total_iters: r,
                remaining: r - total,
                now: 0.0,
                workers: &stats,
            };
            total += af.next_chunk(&ctx);
        }
        // One full batch commits at most half the remaining (+ rounding).
        assert!(total <= 504, "batch committed {total} of {r}");
        assert!(total >= 496, "batch committed {total} of {r}");
    }

    #[test]
    fn af_variance_shrinks_chunks() {
        let mut af = AdaptiveFactoring::new(2).unwrap();
        let low = stats_with(&[1.0, 1.0], &[0.01, 0.01]);
        let high = stats_with(&[1.0, 1.0], &[25.0, 25.0]);
        let ctx_low = SchedContext {
            worker: 0,
            num_workers: 2,
            total_iters: 1000,
            remaining: 1000,
            now: 0.0,
            workers: &low,
        };
        let ctx_high = SchedContext {
            worker: 0,
            num_workers: 2,
            total_iters: 1000,
            remaining: 1000,
            now: 0.0,
            workers: &high,
        };
        let k_low = af.next_chunk(&ctx_low);
        let k_high = af.next_chunk(&ctx_high);
        assert!(k_high < k_low, "high-variance chunk {k_high} < low {k_low}");
    }

    #[test]
    fn af_slow_worker_gets_smaller_chunk() {
        let mut af = AdaptiveFactoring::new(2).unwrap();
        let stats = stats_with(&[1.0, 4.0], &[0.5, 0.5]);
        let mk = |worker: usize| SchedContext {
            worker,
            num_workers: 2,
            total_iters: 1000,
            remaining: 1000,
            now: 0.0,
            workers: &stats,
        };
        let fast = af.next_chunk(&mk(0));
        let slow = af.next_chunk(&mk(1));
        assert!(slow < fast, "slow {slow} < fast {fast}");
        // Proportional to rates: roughly 4×.
        assert!((fast as f64 / slow as f64 - 4.0).abs() < 1.0);
    }

    #[test]
    fn af_drains_to_completion() {
        let mut af = AdaptiveFactoring::new(3).unwrap();
        let stats = stats_with(&[1.0, 2.0, 3.0], &[0.2, 0.2, 0.2]);
        let chunks = drain(&mut af, 3, 5000, &stats);
        assert_eq!(chunks.iter().map(|c| c.1).sum::<u64>(), 5000);
    }
}
