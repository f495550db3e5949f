//! The stochastic robustness metric `φ₁ = Pr(Ψ ≤ Δ)` and its estimators.
//!
//! Two evaluation routes are provided and cross-checked in tests:
//!
//! * **Exact** — PMF arithmetic per assignment (Amdahl rescale → quotient
//!   by availability → CDF at Δ), multiplied across applications
//!   (independence). A [`ProbabilityTable`] memoizes per-`(app, type,
//!   count)` probabilities so search algorithms evaluate candidate
//!   allocations with pure lookups.
//! * **Monte Carlo** — sample execution times and per-type availabilities,
//!   form the realized makespan, count deadline hits. Replicates are
//!   fanned out over scoped worker threads with per-thread RNG streams
//!   derived from a single seed, so the estimate is reproducible and
//!   parallel-deterministic.

use crate::allocation::Allocation;
use crate::engine::Phi1Engine;
use crate::{RaError, Result};
use cdsf_pmf::sample::AliasSampler;
use cdsf_system::parallel_time::{completion_probability, loaded_time_pmf};
use cdsf_system::{Batch, Platform, ProcTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-application and joint deadline-satisfaction probabilities of one
/// allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// `Pr(T_i ≤ Δ)` per application.
    pub per_app: Vec<f64>,
    /// `φ₁ = Π_i Pr(T_i ≤ Δ)`.
    pub joint: f64,
    /// Expected completion time per application (Table V's quantity).
    pub expected_times: Vec<f64>,
    /// Tail risk per application: the mean completion time *given* the
    /// deadline is missed, `E[T_i | T_i > Δ]` (`None` when the application
    /// cannot miss under the model).
    pub conditional_overtime: Vec<Option<f64>>,
}

/// Evaluates an allocation exactly via PMF arithmetic.
pub fn evaluate(
    batch: &Batch,
    platform: &Platform,
    alloc: &Allocation,
    deadline: f64,
) -> Result<RobustnessReport> {
    alloc.validate(batch, platform)?;
    let mut per_app = Vec::with_capacity(batch.len());
    let mut expected_times = Vec::with_capacity(batch.len());
    let mut conditional_overtime = Vec::with_capacity(batch.len());
    let mut joint = 1.0;
    for ((_, app), asg) in batch.iter().zip(alloc.assignments()) {
        let pmf = loaded_time_pmf(app, platform, asg.proc_type, asg.procs)?;
        let p = pmf.cdf(deadline);
        per_app.push(p);
        expected_times.push(pmf.expectation());
        conditional_overtime.push(pmf.conditional_tail_expectation(deadline));
        joint *= p;
    }
    Ok(RobustnessReport {
        per_app,
        joint,
        expected_times,
        conditional_overtime,
    })
}

/// As [`evaluate`], but served from a prebuilt [`Phi1Engine`] — no PMF
/// arithmetic, only CDF/expectation lookups on the cached loaded PMFs.
/// Bit-identical to [`evaluate`] on the same inputs.
pub fn evaluate_with_engine(
    engine: &Phi1Engine,
    batch: &Batch,
    platform: &Platform,
    alloc: &Allocation,
    deadline: f64,
) -> Result<RobustnessReport> {
    alloc.validate(batch, platform)?;
    let mut per_app = Vec::with_capacity(batch.len());
    let mut expected_times = Vec::with_capacity(batch.len());
    let mut conditional_overtime = Vec::with_capacity(batch.len());
    let mut joint = 1.0;
    for (i, asg) in alloc.assignments().iter().enumerate() {
        let pmf = engine
            .loaded_pmf(i, asg.proc_type, asg.procs)
            .ok_or(RaError::NoFeasibleAllocation)?;
        let p = pmf.cdf(deadline);
        per_app.push(p);
        expected_times.push(pmf.expectation());
        conditional_overtime.push(pmf.conditional_tail_expectation(deadline));
        joint *= p;
    }
    Ok(RobustnessReport {
        per_app,
        joint,
        expected_times,
        conditional_overtime,
    })
}

/// Memoized `Pr(T ≤ Δ)` for every feasible `(app, type, pow2-count)`
/// triple, so allocation searches are table lookups.
#[derive(Debug, Clone)]
pub struct ProbabilityTable {
    /// `probs[app][type]` maps `log2(count)` → probability (`None` where
    /// the app has no PMF for the type).
    probs: Vec<Vec<Option<Vec<f64>>>>,
    deadline: f64,
}

impl ProbabilityTable {
    /// Precomputes the table for a batch/platform/deadline.
    pub fn build(batch: &Batch, platform: &Platform, deadline: f64) -> Result<Self> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        if !(deadline > 0.0) || !deadline.is_finite() {
            return Err(RaError::BadParameter {
                name: "deadline",
                value: deadline,
            });
        }
        let mut probs = Vec::with_capacity(batch.len());
        for (_, app) in batch.iter() {
            let mut per_type = Vec::with_capacity(platform.num_types());
            for j in 0..platform.num_types() {
                let id = ProcTypeId(j);
                if app.exec_time(id).is_err() {
                    per_type.push(None);
                    continue;
                }
                let mut per_count = Vec::new();
                for n in platform.pow2_options(id)? {
                    per_count.push(completion_probability(app, platform, id, n, deadline)?);
                }
                per_type.push(Some(per_count));
            }
            probs.push(per_type);
        }
        Ok(Self { probs, deadline })
    }

    /// Assembles a table from precomputed probabilities (the
    /// [`Phi1Engine`] derivation path). Callers guarantee the layout:
    /// `probs[app][type]` maps `log2(count)` → probability.
    pub(crate) fn from_raw(probs: Vec<Vec<Option<Vec<f64>>>>, deadline: f64) -> Self {
        Self { probs, deadline }
    }

    /// The deadline this table was built for.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// `Pr(T ≤ Δ)` for application `i` on `procs` (a power of two)
    /// processors of `proc_type`. `None` if the triple is out of range.
    pub fn prob(&self, app: usize, proc_type: ProcTypeId, procs: u32) -> Option<f64> {
        if !procs.is_power_of_two() {
            return None;
        }
        let k = procs.trailing_zeros() as usize;
        self.probs
            .get(app)?
            .get(proc_type.0)?
            .as_ref()?
            .get(k)
            .copied()
    }

    /// `φ₁` of a full allocation by lookup; `None` if any triple is
    /// unknown. (Feasibility/capacity is *not* checked here.)
    pub fn joint(&self, alloc: &Allocation) -> Option<f64> {
        let mut p = 1.0;
        for (i, asg) in alloc.assignments().iter().enumerate() {
            p *= self.prob(i, asg.proc_type, asg.procs)?;
        }
        Some(p)
    }
}

/// Configuration of the Monte-Carlo estimator.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloConfig {
    /// Total replicates across all threads.
    pub replicates: usize,
    /// Worker threads (each gets `replicates / threads` draws).
    pub threads: usize,
    /// Base seed; thread `k` uses `seed + k`.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self {
            replicates: 100_000,
            threads: 4,
            seed: 0xC0FFEE,
        }
    }
}

/// Monte-Carlo estimate of `φ₁ = Pr(Ψ ≤ Δ)` for an allocation.
///
/// Each replicate draws one execution time per application (from its
/// single-processor PMF, Amdahl-rescaled) and one availability draw *per
/// application* from its assigned type's availability PMF, then checks
/// `max_i T_i/α_i ≤ Δ`. Per-application draws (rather than one shared draw
/// per type) match the paper's independence assumption — "each
/// application's finishing times are independent", even for applications
/// whose disjoint groups come from the same processor type.
pub fn monte_carlo_phi1(
    batch: &Batch,
    platform: &Platform,
    alloc: &Allocation,
    deadline: f64,
    cfg: &MonteCarloConfig,
) -> Result<f64> {
    monte_carlo_phi1_ci(batch, platform, alloc, deadline, cfg).map(|e| e.estimate)
}

/// A Monte-Carlo estimate with its Wilson 95 % confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Point estimate of `φ₁`.
    pub estimate: f64,
    /// Lower bound of the 95 % Wilson interval.
    pub lo: f64,
    /// Upper bound of the 95 % Wilson interval.
    pub hi: f64,
    /// Replicates actually drawn.
    pub replicates: u64,
}

/// As [`monte_carlo_phi1`], with an honest uncertainty interval attached.
pub fn monte_carlo_phi1_ci(
    batch: &Batch,
    platform: &Platform,
    alloc: &Allocation,
    deadline: f64,
    cfg: &MonteCarloConfig,
) -> Result<McEstimate> {
    alloc.validate(batch, platform)?;
    // Pre-build samplers: per app the Amdahl-rescaled execution PMF, per
    // type the availability PMF.
    let mut exec_samplers = Vec::with_capacity(batch.len());
    for ((_, app), asg) in batch.iter().zip(alloc.assignments()) {
        let pmf = cdsf_system::parallel_time::parallel_time_pmf(app, asg.proc_type, asg.procs)?;
        exec_samplers.push(AliasSampler::new(&pmf));
    }
    let avail_samplers: Vec<AliasSampler> = platform
        .types()
        .iter()
        .map(|t| AliasSampler::new(t.availability()))
        .collect();
    let type_of: Vec<usize> = alloc.assignments().iter().map(|a| a.proc_type.0).collect();
    mc_core(&exec_samplers, &avail_samplers, &type_of, deadline, cfg)
}

/// As [`monte_carlo_phi1_ci`], but the samplers are built from a prebuilt
/// [`Phi1Engine`]'s cached dedicated PMFs — no Amdahl rescale per call.
/// The sampled distributions are bit-identical to the direct path, so the
/// estimate matches [`monte_carlo_phi1_ci`] exactly for the same seed.
pub fn monte_carlo_phi1_ci_with_engine(
    engine: &Phi1Engine,
    batch: &Batch,
    platform: &Platform,
    alloc: &Allocation,
    deadline: f64,
    cfg: &MonteCarloConfig,
) -> Result<McEstimate> {
    alloc.validate(batch, platform)?;
    let mut exec_samplers = Vec::with_capacity(batch.len());
    for (i, asg) in alloc.assignments().iter().enumerate() {
        let pmf = engine
            .dedicated_pmf(i, asg.proc_type, asg.procs)
            .ok_or(RaError::NoFeasibleAllocation)?;
        exec_samplers.push(AliasSampler::new(pmf));
    }
    let avail_samplers: Vec<AliasSampler> = (0..engine.num_types())
        .map(|j| {
            AliasSampler::new(
                engine
                    .availability_pmf(ProcTypeId(j))
                    .expect("type index in range"),
            )
        })
        .collect();
    let type_of: Vec<usize> = alloc.assignments().iter().map(|a| a.proc_type.0).collect();
    mc_core(&exec_samplers, &avail_samplers, &type_of, deadline, cfg)
}

/// The shared Monte-Carlo fan-out: replicates are split over scoped worker
/// threads, thread `k` draws from `StdRng::seed_from_u64(seed + k)`, and
/// hit counts are summed — so the estimate depends only on `(samplers,
/// deadline, cfg)`, never on scheduling.
fn mc_core(
    exec_samplers: &[AliasSampler],
    avail_samplers: &[AliasSampler],
    type_of: &[usize],
    deadline: f64,
    cfg: &MonteCarloConfig,
) -> Result<McEstimate> {
    if cfg.replicates == 0 || cfg.threads == 0 {
        return Err(RaError::BadParameter {
            name: "replicates/threads",
            value: cfg.replicates.min(cfg.threads) as f64,
        });
    }
    let per_thread = cfg.replicates.div_ceil(cfg.threads);
    let hits: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for k in 0..cfg.threads {
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(k as u64));
                let mut hits = 0u64;
                for _ in 0..per_thread {
                    let mut ok = true;
                    for (s, &ty) in exec_samplers.iter().zip(type_of) {
                        let alpha = avail_samplers[ty].sample(&mut rng);
                        let t = s.sample(&mut rng) / alpha;
                        if t > deadline {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        hits += 1;
                    }
                }
                hits
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    });

    let total = (per_thread * cfg.threads) as u64;
    let (lo, hi) = cdsf_pmf::stats::wilson_interval(hits, total, 1.96);
    Ok(McEstimate {
        estimate: hits as f64 / total as f64,
        lo,
        hi,
        replicates: total,
    })
}

/// Convenience: the makespan sample distribution under an allocation —
/// `n` Monte-Carlo draws of `Ψ` (single-threaded; used by tests and the
/// ablation benches).
pub fn sample_makespans(
    batch: &Batch,
    platform: &Platform,
    alloc: &Allocation,
    n: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    alloc.validate(batch, platform)?;
    let mut exec_samplers = Vec::with_capacity(batch.len());
    for ((_, app), asg) in batch.iter().zip(alloc.assignments()) {
        let pmf = cdsf_system::parallel_time::parallel_time_pmf(app, asg.proc_type, asg.procs)?;
        exec_samplers.push(AliasSampler::new(&pmf));
    }
    let avail_samplers: Vec<AliasSampler> = platform
        .types()
        .iter()
        .map(|t| AliasSampler::new(t.availability()))
        .collect();
    let type_of: Vec<usize> = alloc.assignments().iter().map(|a| a.proc_type.0).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut psi = 0.0f64;
        for (s, &ty) in exec_samplers.iter().zip(&type_of) {
            let alpha = avail_samplers[ty].sample(&mut rng);
            psi = psi.max(s.sample(&mut rng) / alpha);
        }
        out.push(psi);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Assignment;
    use cdsf_pmf::Pmf;
    use cdsf_system::{Application, Batch, Platform, ProcessorType};

    fn paper_platform() -> Platform {
        Platform::new(vec![
            ProcessorType::new(
                "Type 1",
                4,
                Pmf::from_pairs([(0.75, 0.5), (1.0, 0.5)]).unwrap(),
            )
            .unwrap(),
            ProcessorType::new(
                "Type 2",
                8,
                Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap(),
            )
            .unwrap(),
        ])
        .unwrap()
    }

    fn paper_batch(pulses: usize) -> Batch {
        let mk = |name: &str, s: u64, p: u64, t1: f64, t2: f64| {
            Application::builder(name)
                .serial_iters(s)
                .parallel_iters(p)
                .exec_time_normal(t1, pulses)
                .unwrap()
                .exec_time_normal(t2, pulses)
                .unwrap()
                .build()
                .unwrap()
        };
        Batch::new(vec![
            mk("app 1", 439, 1024, 1800.0, 4000.0),
            mk("app 2", 512, 2048, 2800.0, 6000.0),
            mk("app 3", 216, 4096, 12000.0, 8000.0),
        ])
    }

    fn naive_alloc() -> Allocation {
        Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 4,
            },
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 4,
            },
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 4,
            },
        ])
    }

    fn robust_alloc() -> Allocation {
        Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 8,
            },
        ])
    }

    #[test]
    fn naive_allocation_phi1_matches_paper_26pct() {
        let report = evaluate(&paper_batch(64), &paper_platform(), &naive_alloc(), 3250.0).unwrap();
        assert!(
            (report.joint - 0.26).abs() < 0.02,
            "φ1 = {} (paper: 26%)",
            report.joint
        );
    }

    #[test]
    fn robust_allocation_phi1_matches_paper_74_5pct() {
        let report =
            evaluate(&paper_batch(64), &paper_platform(), &robust_alloc(), 3250.0).unwrap();
        assert!(
            (report.joint - 0.745).abs() < 0.02,
            "φ1 = {} (paper: 74.5%)",
            report.joint
        );
    }

    #[test]
    fn expected_times_match_table5() {
        let report =
            evaluate(&paper_batch(64), &paper_platform(), &robust_alloc(), 3250.0).unwrap();
        // Paper Table V robust row: 1365.46 / 1959.59 / 2699.86.
        assert!((report.expected_times[0] - 1365.0).abs() < 10.0);
        assert!((report.expected_times[1] - 1960.0).abs() < 10.0);
        assert!((report.expected_times[2] - 2700.0).abs() < 10.0);
    }

    #[test]
    fn conditional_overtime_flags_risky_applications() {
        let report =
            evaluate(&paper_batch(64), &paper_platform(), &robust_alloc(), 3250.0).unwrap();
        // Applications 1 and 2 are (near-)safe; application 3 misses with
        // probability ~25.5 % and, when it does, lands around its
        // quarter-availability time 1350/0.25 = 5400.
        let ct3 = report.conditional_overtime[2].expect("app 3 can miss");
        assert!(ct3 > 3250.0);
        assert!((ct3 - 5400.0).abs() < 300.0, "app 3 CTE {ct3}");
    }

    #[test]
    fn probability_table_matches_direct_evaluation() {
        let (b, p) = (paper_batch(32), paper_platform());
        let table = ProbabilityTable::build(&b, &p, 3250.0).unwrap();
        for alloc in [naive_alloc(), robust_alloc()] {
            let direct = evaluate(&b, &p, &alloc, 3250.0).unwrap().joint;
            let via_table = table.joint(&alloc).unwrap();
            assert!((direct - via_table).abs() < 1e-12);
        }
        // Out-of-range lookups are None, not panics.
        assert!(table.prob(0, ProcTypeId(0), 3).is_none());
        assert!(table.prob(0, ProcTypeId(9), 2).is_none());
        assert!(table.prob(9, ProcTypeId(0), 2).is_none());
        assert!(table.prob(0, ProcTypeId(0), 64).is_none());
    }

    #[test]
    fn probability_table_rejects_bad_deadline() {
        let (b, p) = (paper_batch(8), paper_platform());
        assert!(ProbabilityTable::build(&b, &p, 0.0).is_err());
        assert!(ProbabilityTable::build(&b, &p, f64::NAN).is_err());
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        let (b, p) = (paper_batch(64), paper_platform());
        for alloc in [naive_alloc(), robust_alloc()] {
            let exact = evaluate(&b, &p, &alloc, 3250.0).unwrap().joint;
            let mc = monte_carlo_phi1(
                &b,
                &p,
                &alloc,
                3250.0,
                &MonteCarloConfig {
                    replicates: 200_000,
                    threads: 4,
                    seed: 7,
                },
            )
            .unwrap();
            assert!(
                (exact - mc).abs() < 0.01,
                "exact {exact} vs Monte-Carlo {mc}"
            );
        }
    }

    #[test]
    fn monte_carlo_ci_brackets_exact_value() {
        let (b, p) = (paper_batch(64), paper_platform());
        let exact = evaluate(&b, &p, &robust_alloc(), 3250.0).unwrap().joint;
        let est = monte_carlo_phi1_ci(
            &b,
            &p,
            &robust_alloc(),
            3250.0,
            &MonteCarloConfig {
                replicates: 100_000,
                threads: 4,
                seed: 21,
            },
        )
        .unwrap();
        assert!(
            est.lo <= exact && exact <= est.hi,
            "{est:?} vs exact {exact}"
        );
        assert!(est.hi - est.lo < 0.01, "interval too wide: {est:?}");
        assert_eq!(est.replicates, 100_000);
    }

    #[test]
    fn monte_carlo_is_seed_deterministic() {
        let (b, p) = (paper_batch(16), paper_platform());
        let cfg = MonteCarloConfig {
            replicates: 20_000,
            threads: 3,
            seed: 11,
        };
        let a = monte_carlo_phi1(&b, &p, &naive_alloc(), 3250.0, &cfg).unwrap();
        let b2 = monte_carlo_phi1(&b, &p, &naive_alloc(), 3250.0, &cfg).unwrap();
        assert_eq!(a, b2);
    }

    #[test]
    fn monte_carlo_rejects_zero_replicates() {
        let (b, p) = (paper_batch(8), paper_platform());
        let cfg = MonteCarloConfig {
            replicates: 0,
            threads: 1,
            seed: 0,
        };
        assert!(monte_carlo_phi1(&b, &p, &naive_alloc(), 3250.0, &cfg).is_err());
    }

    #[test]
    fn sampled_makespans_bracket_expectations() {
        let (b, p) = (paper_batch(32), paper_platform());
        let samples = sample_makespans(&b, &p, &robust_alloc(), 20_000, 3).unwrap();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // Ψ ≥ max of expected times (Jensen on max); well below the naïve
        // allocation's worst case.
        assert!(mean > 2700.0, "mean {mean}");
        assert!(mean < 6000.0, "mean {mean}");
    }
}
