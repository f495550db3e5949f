//! The [`Technique`] trait, the scheduling context techniques observe, and
//! the value-level [`TechniqueKind`] selector.

use crate::techniques::adaptive::{AdaptiveFactoring, AdaptiveWeightedFactoring, AwfVariant};
use crate::techniques::factoring::{Factoring, WeightedFactoring};
use crate::techniques::nonadaptive::{
    FixedSizeChunking, GuidedSelfScheduling, SelfScheduling, StaticChunking,
    TrapezoidSelfScheduling,
};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Per-worker runtime measurements exposed to adaptive techniques.
///
/// The executor maintains these from *observed* chunk completion times —
/// exactly the information a real DLS runtime has: it cannot see the true
/// availability process, only how long its own chunks took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerSnapshot {
    /// Iterations completed by this worker so far.
    pub iters_done: u64,
    /// Chunks completed by this worker so far.
    pub chunks_done: u64,
    /// Cumulative average time per iteration, *excluding* scheduling
    /// overhead (AWF/AWF-B/AWF-C and AF use this).
    pub mean_iter_time: f64,
    /// Running variance of per-iteration time (population), excluding
    /// overhead. AF needs the second moment.
    pub var_iter_time: f64,
    /// Cumulative average time per iteration *including* scheduling
    /// overhead (the AWF-D/AWF-E refinement).
    pub mean_iter_time_total: f64,
    /// `1 / mean_iter_time`: the measured rate, AF's term of `Σ 1/μ_j`.
    /// Written with the mean by [`WorkerSnapshot::set_estimates`], so a
    /// dispatch reads it instead of dividing.
    pub rate: f64,
    /// `var_iter_time / mean_iter_time`: AF's term of `D = Σ σ_j²/μ_j`,
    /// written with the two by [`WorkerSnapshot::set_estimates`].
    pub var_per_mean: f64,
}

impl WorkerSnapshot {
    /// Whether this worker has any measurements yet.
    pub fn has_history(&self) -> bool {
        self.chunks_done > 0 && self.mean_iter_time > 0.0
    }

    /// Writes the worker's iteration-time estimates — mean and variance
    /// excluding overhead, mean including it — and the terms derived from
    /// them, once per observation.
    pub fn set_estimates(&mut self, mean: f64, var: f64, mean_total: f64) {
        self.mean_iter_time = mean;
        self.var_iter_time = var;
        self.mean_iter_time_total = mean_total;
        self.rate = 1.0 / mean;
        self.var_per_mean = var / mean;
    }
}

/// Everything a technique may consult when a worker requests its next chunk.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Index of the requesting worker, `0..num_workers`.
    pub worker: usize,
    /// Number of workers executing the loop (the paper's group size).
    pub num_workers: usize,
    /// Total parallel iterations in the loop.
    pub total_iters: u64,
    /// Iterations not yet scheduled (assigned chunks are subtracted
    /// immediately, whether or not they have finished executing).
    pub remaining: u64,
    /// Current simulation time (time of the request).
    pub now: f64,
    /// Per-worker runtime measurements.
    pub workers: &'a [WorkerSnapshot],
}

/// A dynamic loop scheduling technique: a chunk-size policy.
///
/// The executor calls [`Technique::next_chunk`] every time a worker becomes
/// idle while iterations remain. Implementations must return a chunk in
/// `1..=ctx.remaining`; the executor clamps defensively but relies on
/// techniques making progress.
///
/// Techniques are stateful (batch bookkeeping, adaptive weights); a fresh
/// instance must be used for every loop execution.
pub trait Technique {
    /// Technique name as used in the paper and reports (e.g. `"FAC"`).
    fn name(&self) -> &'static str;

    /// Chunk size for the requesting worker; must be in `1..=ctx.remaining`
    /// whenever `ctx.remaining ≥ 1`.
    fn next_chunk(&mut self, ctx: &SchedContext<'_>) -> u64;

    /// Called by the time-stepping executor between time steps (the loop
    /// restarts with the full iteration count; measured worker statistics
    /// persist). Techniques with per-loop bookkeeping (batch counters,
    /// decreasing-chunk profiles) reset it here; adaptive state that is
    /// *supposed* to carry across steps — AWF's weights, AF's estimates —
    /// is kept. The default is a no-op.
    fn on_timestep(&mut self) {}
}

/// Value-level selector for building technique instances.
///
/// The framework layer and benches iterate over `TechniqueKind`s; each
/// [`TechniqueKind::build`] call produces a fresh stateful instance sized
/// for the given worker count and iteration total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TechniqueKind {
    /// Straightforward parallelization: one equal chunk per worker
    /// (the paper's naïve STATIC).
    Static,
    /// Pure self-scheduling: chunk size 1.
    SelfSched,
    /// Fixed-size chunking with an explicit chunk size.
    Fsc {
        /// The fixed chunk size (≥ 1).
        chunk: u64,
    },
    /// Guided self-scheduling: `⌈remaining/P⌉`.
    Gss,
    /// Trapezoid self-scheduling with the standard `(N/2P, 1)` profile.
    Tss,
    /// Factoring (Hummel/Schonberg/Flynn). Uses the FAC2 rule
    /// (`⌈remaining/2P⌉` per batch) unless an a-priori iteration-time
    /// coefficient of variation is supplied, in which case the original
    /// variance-aware batch ratio is applied.
    Fac,
    /// Factoring with a known a-priori iteration-time c.o.v.
    FacWithCov {
        /// Iteration-time coefficient of variation `σ/μ`.
        cov: f64,
    },
    /// Weighted factoring with explicit per-worker weights (will be
    /// normalized to mean 1).
    Wf {
        /// One positive weight per worker; `None` means equal weights.
        weights: Option<Vec<f64>>,
    },
    /// Adaptive weighted factoring, batch-adaptive (AWF-B when `variant`
    /// is [`AwfVariant::Batch`], etc.).
    Awf {
        /// Which AWF refinement.
        variant: AwfVariant,
    },
    /// Adaptive factoring (AF).
    Af,
}

impl TechniqueKind {
    /// Short display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            TechniqueKind::Static => "STATIC",
            TechniqueKind::SelfSched => "SS",
            TechniqueKind::Fsc { .. } => "FSC",
            TechniqueKind::Gss => "GSS",
            TechniqueKind::Tss => "TSS",
            TechniqueKind::Fac | TechniqueKind::FacWithCov { .. } => "FAC",
            TechniqueKind::Wf { .. } => "WF",
            TechniqueKind::Awf { variant } => variant.name(),
            TechniqueKind::Af => "AF",
        }
    }

    /// Builds a fresh technique instance for a loop of `total_iters`
    /// iterations on `num_workers` workers.
    pub fn build(&self, num_workers: usize, total_iters: u64) -> Result<Box<dyn Technique + Send>> {
        Ok(match self {
            TechniqueKind::Static => Box::new(StaticChunking::new(num_workers, total_iters)?),
            TechniqueKind::SelfSched => Box::new(SelfScheduling::new()),
            TechniqueKind::Fsc { chunk } => Box::new(FixedSizeChunking::new(*chunk)?),
            TechniqueKind::Gss => Box::new(GuidedSelfScheduling::new(num_workers)?),
            TechniqueKind::Tss => {
                Box::new(TrapezoidSelfScheduling::standard(num_workers, total_iters)?)
            }
            TechniqueKind::Fac => Box::new(Factoring::fac2(num_workers)?),
            TechniqueKind::FacWithCov { cov } => Box::new(Factoring::with_cov(num_workers, *cov)?),
            TechniqueKind::Wf { weights } => match weights {
                Some(w) => Box::new(WeightedFactoring::new(num_workers, w.clone())?),
                None => Box::new(WeightedFactoring::equal(num_workers)?),
            },
            TechniqueKind::Awf { variant } => {
                Box::new(AdaptiveWeightedFactoring::new(num_workers, *variant)?)
            }
            TechniqueKind::Af => Box::new(AdaptiveFactoring::new(num_workers)?),
        })
    }

    /// Whether the technique reads the measured worker statistics
    /// ([`SchedContext::workers`]): AF and the AWF variants. The executor
    /// maintains them for these only; every other technique sees the
    /// zeroed snapshots and never looks.
    pub fn reads_worker_stats(&self) -> bool {
        matches!(self, TechniqueKind::Awf { .. } | TechniqueKind::Af)
    }

    /// The paper's Stage-II robust set: `{FAC, WF, AWF-B, AF}`.
    pub fn paper_robust_set() -> Vec<TechniqueKind> {
        vec![
            TechniqueKind::Fac,
            TechniqueKind::Wf { weights: None },
            TechniqueKind::Awf {
                variant: AwfVariant::Batch,
            },
            TechniqueKind::Af,
        ]
    }

    /// The full technique family, for surveys and ablations. `fsc_chunk`
    /// sizes the fixed-size-chunking entry.
    pub fn all(fsc_chunk: u64) -> Vec<TechniqueKind> {
        vec![
            TechniqueKind::Static,
            TechniqueKind::SelfSched,
            TechniqueKind::Fsc { chunk: fsc_chunk },
            TechniqueKind::Gss,
            TechniqueKind::Tss,
            TechniqueKind::Fac,
            TechniqueKind::Wf { weights: None },
            TechniqueKind::Awf {
                variant: AwfVariant::Timestep,
            },
            TechniqueKind::Awf {
                variant: AwfVariant::Batch,
            },
            TechniqueKind::Awf {
                variant: AwfVariant::Chunk,
            },
            TechniqueKind::Awf {
                variant: AwfVariant::BatchWithOverhead,
            },
            TechniqueKind::Awf {
                variant: AwfVariant::ChunkWithOverhead,
            },
            TechniqueKind::Af,
        ]
    }
}

impl std::str::FromStr for TechniqueKind {
    type Err = crate::DlsError;

    /// Parses a paper-style technique name (case-insensitive):
    /// `STATIC`, `SS`, `FSC` / `FSC:<chunk>`, `GSS`, `TSS`, `FAC` /
    /// `FAC:<cov>`, `WF`, `AWF`, `AWF-B`, `AWF-C`, `AWF-D`, `AWF-E`, `AF`.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let upper = s.trim().to_ascii_uppercase();
        let (name, arg) = match upper.split_once(':') {
            Some((n, a)) => (n.trim().to_string(), Some(a.trim().to_string())),
            None => (upper, None),
        };
        let bad = || crate::DlsError::BadParameter {
            name: "technique",
            value: f64::NAN,
        };
        Ok(match (name.as_str(), arg) {
            ("STATIC", None) => TechniqueKind::Static,
            ("SS", None) => TechniqueKind::SelfSched,
            ("FSC", None) => TechniqueKind::Fsc { chunk: 64 },
            ("FSC", Some(a)) => TechniqueKind::Fsc {
                chunk: a.parse().map_err(|_| bad())?,
            },
            ("GSS", None) => TechniqueKind::Gss,
            ("TSS", None) => TechniqueKind::Tss,
            ("FAC", None) => TechniqueKind::Fac,
            ("FAC", Some(a)) => TechniqueKind::FacWithCov {
                cov: a.parse().map_err(|_| bad())?,
            },
            ("WF", None) => TechniqueKind::Wf { weights: None },
            ("AWF", None) => TechniqueKind::Awf {
                variant: AwfVariant::Timestep,
            },
            ("AWF-B", None) => TechniqueKind::Awf {
                variant: AwfVariant::Batch,
            },
            ("AWF-C", None) => TechniqueKind::Awf {
                variant: AwfVariant::Chunk,
            },
            ("AWF-D", None) => TechniqueKind::Awf {
                variant: AwfVariant::BatchWithOverhead,
            },
            ("AWF-E", None) => TechniqueKind::Awf {
                variant: AwfVariant::ChunkWithOverhead,
            },
            ("AF", None) => TechniqueKind::Af,
            _ => return Err(bad()),
        })
    }
}

/// Clamps a computed chunk size into the valid range `1..=remaining`
/// (0 when nothing remains). Shared by all technique implementations.
pub(crate) fn clamp_chunk(chunk: f64, remaining: u64) -> u64 {
    if remaining == 0 {
        return 0;
    }
    if chunk.is_nan() || chunk < 1.0 {
        return 1;
    }
    // `as u64` saturates, so +∞ becomes u64::MAX and clamps to `remaining`.
    (chunk as u64).clamp(1, remaining)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_chunk_bounds() {
        assert_eq!(clamp_chunk(0.0, 100), 1);
        assert_eq!(clamp_chunk(-5.0, 100), 1);
        assert_eq!(clamp_chunk(f64::NAN, 100), 1);
        assert_eq!(clamp_chunk(f64::INFINITY, 100), 100);
        assert_eq!(clamp_chunk(42.7, 100), 42);
        assert_eq!(clamp_chunk(1000.0, 100), 100);
        assert_eq!(clamp_chunk(10.0, 0), 0);
    }

    #[test]
    fn kind_names() {
        assert_eq!(TechniqueKind::Static.name(), "STATIC");
        assert_eq!(TechniqueKind::Fac.name(), "FAC");
        assert_eq!(TechniqueKind::Wf { weights: None }.name(), "WF");
        assert_eq!(
            TechniqueKind::Awf {
                variant: AwfVariant::Batch
            }
            .name(),
            "AWF-B"
        );
        assert_eq!(TechniqueKind::Af.name(), "AF");
    }

    #[test]
    fn paper_set_is_the_four_robust_techniques() {
        let names: Vec<&str> = TechniqueKind::paper_robust_set()
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, vec!["FAC", "WF", "AWF-B", "AF"]);
    }

    #[test]
    fn from_str_round_trips_names() {
        for kind in TechniqueKind::all(64) {
            let parsed: TechniqueKind = kind.name().parse().unwrap();
            assert_eq!(parsed.name(), kind.name(), "{}", kind.name());
        }
    }

    #[test]
    fn from_str_parses_arguments_and_case() {
        assert_eq!(
            "fsc:128".parse::<TechniqueKind>().unwrap(),
            TechniqueKind::Fsc { chunk: 128 }
        );
        assert_eq!(
            " fac:0.5 ".parse::<TechniqueKind>().unwrap(),
            TechniqueKind::FacWithCov { cov: 0.5 }
        );
        assert_eq!(
            "awf-b".parse::<TechniqueKind>().unwrap(),
            TechniqueKind::Awf {
                variant: AwfVariant::Batch
            }
        );
        assert!("nope".parse::<TechniqueKind>().is_err());
        assert!("fsc:abc".parse::<TechniqueKind>().is_err());
        assert!("af:1".parse::<TechniqueKind>().is_err());
    }

    #[test]
    fn build_produces_named_instances() {
        for kind in TechniqueKind::all(16) {
            let t = kind.build(4, 1000).unwrap();
            assert_eq!(t.name(), kind.name());
        }
    }

    #[test]
    fn only_the_adaptive_techniques_read_worker_statistics() {
        let readers: Vec<&str> = TechniqueKind::all(8)
            .iter()
            .filter(|k| k.reads_worker_stats())
            .map(|k| k.name())
            .collect();
        assert!(readers.contains(&"AF"));
        assert!(readers.iter().all(|n| *n == "AF" || n.starts_with("AWF")));
        for kind in [
            TechniqueKind::Static,
            TechniqueKind::Fac,
            TechniqueKind::Wf { weights: None },
        ] {
            assert!(!kind.reads_worker_stats(), "{}", kind.name());
        }
    }

    #[test]
    fn set_estimates_writes_the_derived_terms() {
        let mut w = WorkerSnapshot::default();
        assert!(!w.has_history());
        w.set_estimates(2.0, 0.5, 2.5);
        assert_eq!(
            (w.mean_iter_time, w.var_iter_time, w.mean_iter_time_total),
            (2.0, 0.5, 2.5)
        );
        assert_eq!((w.rate, w.var_per_mean), (0.5, 0.25));
        assert!(!w.has_history(), "estimates alone are not history");
        w.chunks_done = 1;
        assert!(w.has_history());
    }
}
