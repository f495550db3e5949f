//! Stage-II simulation grid: (application × availability case × technique)
//! cells, each averaged over seeded replicates, fanned out over worker
//! threads.

use crate::{CoreError, Result};
use cdsf_dls::executor::{execute_in, ExecutorConfig, ExecutorScratch};
use cdsf_dls::TechniqueKind;
use cdsf_pmf::stats::Welford;
use cdsf_ra::Allocation;
use cdsf_system::availability::AvailabilitySpec;
use cdsf_system::{Batch, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parameters of the Stage-II simulation.
///
/// Defaults are calibrated on the paper's example (see `EXPERIMENTS.md`):
/// the availability renewal dwell is of the same order as the applications'
/// runtimes, so a slow draw hurts STATIC for most of a run while the DLS
/// techniques get enough fluctuation to rebalance against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Independent replicates per cell.
    pub replicates: usize,
    /// Mean dwell time of the availability renewal process (time units).
    pub mean_dwell: f64,
    /// Per-chunk scheduling overhead (time units).
    pub overhead: f64,
    /// Base seed; every cell derives its own deterministic stream.
    pub seed: u64,
    /// Worker threads for the simulation grid.
    pub threads: usize,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            replicates: 25,
            mean_dwell: 300.0,
            overhead: 1.0,
            seed: 0xCD5F,
            threads: default_threads(),
        }
    }
}

/// Default worker-thread count: the machine's available parallelism with a
/// floor of 1, probed once per process. Thread counts never affect
/// results — every grid cell and every φ₁ table entry derives its own
/// seed — so the default can follow the host it starts on; a later CPU
/// quota or affinity change is not seen. (Canonical definition lives in
/// `cdsf-system` so the lower crates share it.)
pub use cdsf_system::default_threads;

impl SimParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if self.replicates == 0 {
            return Err(CoreError::BadParameter {
                name: "replicates",
                value: 0.0,
            });
        }
        if !(self.mean_dwell > 0.0) {
            return Err(CoreError::BadParameter {
                name: "mean_dwell",
                value: self.mean_dwell,
            });
        }
        if !(self.overhead >= 0.0) {
            return Err(CoreError::BadParameter {
                name: "overhead",
                value: self.overhead,
            });
        }
        if self.threads == 0 {
            return Err(CoreError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// One simulated grid cell: an application under one availability case
/// executed with one technique, averaged over replicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Application index (0-based).
    pub app: usize,
    /// Availability case (1-based, paper numbering).
    pub case: usize,
    /// Technique name (paper style, e.g. `"AWF-B"`).
    pub technique: String,
    /// Mean makespan over replicates (serial + parallel phases).
    pub mean_makespan: f64,
    /// Standard deviation of the makespan over replicates.
    pub std_makespan: f64,
    /// Mean chunk count per run.
    pub mean_chunks: f64,
    /// Number of replicates behind the statistics.
    pub replicates: usize,
    /// Whether the *mean* makespan meets the deadline (the paper's
    /// Table-VI criterion; `best_technique` and the headline tables key
    /// off this).
    pub meets_deadline: bool,
    /// Fraction of replicates whose makespan meets the deadline — the
    /// empirical `φ₂ = P(makespan ≤ Δ)`. A mean-based pass with a low hit
    /// rate flags a verdict carried by a lucky tail.
    pub deadline_hit_rate: f64,
}

impl CellResult {
    /// Half-width of the normal-approximation 95 % confidence interval of
    /// the mean makespan: `1.96·σ/√n`.
    pub fn ci95_halfwidth(&self) -> f64 {
        if self.replicates == 0 {
            return 0.0;
        }
        1.96 * self.std_makespan / (self.replicates as f64).sqrt()
    }

    /// Whether the deadline verdict is statistically resolved: the 95 %
    /// confidence interval of the mean lies entirely on one side of Δ.
    /// With zero replicates there is no evidence at all, so the verdict is
    /// explicitly unresolved (the half-width degenerates to 0 there, which
    /// would otherwise claim perfect resolution).
    pub fn verdict_is_resolved(&self, deadline: f64) -> bool {
        if self.replicates == 0 {
            return false;
        }
        (self.mean_makespan - deadline).abs() > self.ci95_halfwidth()
    }

    /// The advisor's combined deadline verdict: the mean makespan meets Δ
    /// *and* at least half the replicates meet it individually, so a pass
    /// cannot be carried by a lucky minority of fast runs while the
    /// majority of realizations blow the deadline.
    pub fn robust_verdict(&self) -> bool {
        self.meets_deadline && self.deadline_hit_rate >= 0.5
    }
}

/// Derives a deterministic per-cell seed from the base seed and the cell
/// coordinates (SplitMix64-style mixing).
fn cell_seed(base: u64, app: usize, case: usize, tech: usize, replicate_block: u64) -> u64 {
    let mut z = base
        ^ (app as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (case as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (tech as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ replicate_block.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One prepared grid cell: the executor configuration plus the identity
/// needed for seeding and labelling.
struct CellSpec {
    app_idx: usize,
    /// 1-based, paper numbering.
    case: usize,
    tech_idx: usize,
    technique: TechniqueKind,
    cfg: ExecutorConfig,
}

/// Builds the executor configuration for one `(app, case, technique)`
/// cell: the application's iteration profile on its allocated group under
/// the case's availability renewal process.
#[allow(clippy::too_many_arguments)]
fn build_cell_spec(
    batch: &Batch,
    alloc: &Allocation,
    case_platform: &Platform,
    technique: &TechniqueKind,
    app_idx: usize,
    case: usize,
    tech_idx: usize,
    params: &SimParams,
) -> Result<CellSpec> {
    let app = batch.app(cdsf_system::AppId(app_idx))?;
    let asg = alloc.assignment(app_idx).ok_or(CoreError::BadConfig {
        what: "allocation does not cover application",
    })?;
    let avail_pmf = case_platform
        .proc_type(asg.proc_type)?
        .availability()
        .clone();
    let cfg = ExecutorConfig::builder()
        .from_application(app, asg.proc_type)?
        .workers(asg.procs as usize)
        .overhead(params.overhead)
        .availability(AvailabilitySpec::Renewal {
            pmf: avail_pmf,
            mean_dwell: params.mean_dwell,
        })
        .build()?;
    Ok(CellSpec {
        app_idx,
        case,
        tech_idx,
        technique: technique.clone(),
        cfg,
    })
}

/// Runs every replicate of every prepared cell across the worker threads
/// and reduces each cell's replicates in order.
///
/// Work is scheduled at `(cell, replicate)` granularity over the
/// [`cdsf_system::pool`] work-stealing pool (chunked deques, one
/// [`ExecutorScratch`] per worker reused across owned and stolen chunks),
/// so a few large cells — or a single cell, as in the advisor's targeted
/// path — still saturate all threads without the old per-replicate
/// contended claim counter. Each replicate derives its own seed and
/// writes its `(makespan, chunk count)` into its own pre-assigned slot
/// (disjoint `AtomicU64` stores of the `f64` bits; the pool's join
/// publishes them), and the reduction then pushes replicates into the
/// Welford accumulators in replicate order — bit-identical to a
/// sequential loop, for any thread count and any steal interleaving.
fn run_cells(specs: &[CellSpec], deadline: f64, params: &SimParams) -> Result<Vec<CellResult>> {
    let reps = params.replicates;
    let total = specs.len() * reps;
    let makespan_slots: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    let chunk_slots: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();

    // Threads beyond the host's hardware width add worker spawns and
    // deque traffic without adding throughput (a 4-thread grid on a
    // single-core host measured 0.93× serial), and a grid too small to
    // form two chunks per worker has nothing to steal — clamp both cases
    // down and let the pool's `workers == 1` path run strictly inline.
    // Results are unchanged either way: every `(cell, replicate)`
    // derives its own seed.
    let workers = params
        .threads
        .min(default_threads())
        .min(total.div_ceil(2).max(1));

    cdsf_system::pool::run(
        workers,
        total,
        None,
        ExecutorScratch::new,
        |idx, scratch: &mut ExecutorScratch| -> Result<()> {
            let spec = &specs[idx / reps];
            let r = idx % reps;
            let seed = cell_seed(
                params.seed,
                spec.app_idx,
                spec.case,
                spec.tech_idx,
                r as u64,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let run = execute_in(&spec.technique, &spec.cfg, scratch, &mut rng)?;
            makespan_slots[idx].store(run.makespan.to_bits(), Ordering::Relaxed);
            chunk_slots[idx].store((run.chunks as f64).to_bits(), Ordering::Relaxed);
            Ok(())
        },
    )?;

    Ok(specs
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let mut makespans = Welford::new();
            let mut chunks = Welford::new();
            let mut hits = 0usize;
            for r in 0..reps {
                let m = f64::from_bits(makespan_slots[s * reps + r].load(Ordering::Relaxed));
                makespans.push(m);
                chunks.push(f64::from_bits(
                    chunk_slots[s * reps + r].load(Ordering::Relaxed),
                ));
                if m <= deadline {
                    hits += 1;
                }
            }
            CellResult {
                app: spec.app_idx,
                case: spec.case,
                technique: spec.technique.name().to_string(),
                mean_makespan: makespans.mean(),
                std_makespan: makespans.std_dev(),
                mean_chunks: chunks.mean(),
                replicates: reps,
                meets_deadline: makespans.mean() <= deadline,
                deadline_hit_rate: hits as f64 / reps as f64,
            }
        })
        .collect())
}

/// Simulates the whole grid: every application of `batch` (placed per
/// `alloc`), under every runtime availability case, with every technique.
///
/// Every `(cell, replicate)` is independently seeded, so the result is
/// identical for any thread count.
pub fn simulate_grid(
    batch: &Batch,
    alloc: &Allocation,
    runtime_cases: &[Platform],
    techniques: &[TechniqueKind],
    deadline: f64,
    params: &SimParams,
) -> Result<Vec<CellResult>> {
    params.validate()?;
    if runtime_cases.is_empty() {
        return Err(CoreError::BadConfig {
            what: "no runtime availability cases",
        });
    }
    if techniques.is_empty() {
        return Err(CoreError::BadConfig {
            what: "no techniques to evaluate",
        });
    }

    let mut specs = Vec::with_capacity(batch.len() * runtime_cases.len() * techniques.len());
    for app in 0..batch.len() {
        for case in 1..=runtime_cases.len() {
            for (tech, technique) in techniques.iter().enumerate() {
                specs.push(build_cell_spec(
                    batch,
                    alloc,
                    &runtime_cases[case - 1],
                    technique,
                    app,
                    case,
                    tech,
                    params,
                )?);
            }
        }
    }
    run_cells(&specs, deadline, params)
}

/// Simulates a single `(application, case, technique)` cell on demand —
/// the entry point used by [`crate::advisor`] to simulate only the cells
/// that mean-field screening could not resolve. `case` is the 1-based
/// label recorded in the result; seeding matches [`simulate_grid`] when
/// `tech_idx` equals the technique's position there, so targeted and
/// full-grid results are bit-identical. Replicates fan out over
/// `params.threads` just like the full grid.
#[allow(clippy::too_many_arguments)]
pub fn simulate_single_cell(
    batch: &Batch,
    alloc: &Allocation,
    case_platform: &Platform,
    technique: &TechniqueKind,
    app_idx: usize,
    case: usize,
    tech_idx: usize,
    deadline: f64,
    params: &SimParams,
) -> Result<CellResult> {
    params.validate()?;
    let spec = build_cell_spec(
        batch,
        alloc,
        case_platform,
        technique,
        app_idx,
        case,
        tech_idx,
        params,
    )?;
    let mut cells = run_cells(std::slice::from_ref(&spec), deadline, params)?;
    Ok(cells.pop().expect("one spec yields one cell"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_ra::{Allocation, Assignment};
    use cdsf_system::ProcTypeId;
    use cdsf_workloads::paper;

    fn quick_params() -> SimParams {
        SimParams {
            replicates: 3,
            threads: 2,
            ..Default::default()
        }
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
    fn params_validation() {
        assert!(SimParams {
            replicates: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimParams {
            mean_dwell: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimParams {
            overhead: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimParams {
            threads: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimParams::default().validate().is_ok());
    }

    #[test]
    fn grid_covers_all_cells() {
        let batch = paper::batch_with_pulses(8);
        let cases: Vec<_> = (1..=2).map(paper::platform_case).collect();
        let techniques = vec![TechniqueKind::Static, TechniqueKind::Fac];
        let cells = simulate_grid(
            &batch,
            &robust_alloc(),
            &cases,
            &techniques,
            paper::DEADLINE,
            &quick_params(),
        )
        .unwrap();
        assert_eq!(cells.len(), 3 * 2 * 2);
        // Every combination appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert((c.app, c.case, c.technique.clone())));
            assert!(c.mean_makespan > 0.0);
        }
    }

    #[test]
    fn grid_is_deterministic_across_thread_counts() {
        // Replicate-granularity splits: 7 replicates (not divisible by 4
        // or 16) must land bit-identically for 1, 4 and 16 threads.
        let batch = paper::batch_with_pulses(8);
        let cases = vec![paper::platform_case(1)];
        let techniques = vec![TechniqueKind::Fac, TechniqueKind::Af];
        let mk = |threads: usize| {
            simulate_grid(
                &batch,
                &robust_alloc(),
                &cases,
                &techniques,
                paper::DEADLINE,
                &SimParams {
                    replicates: 7,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let one = mk(1);
        assert_eq!(one, mk(4));
        assert_eq!(one, mk(16));
    }

    #[test]
    fn single_cell_equals_full_grid_cell() {
        // The advisor's targeted path must reproduce the full grid's cell
        // exactly (same seeds, same replicate fan-out).
        let batch = paper::batch_with_pulses(8);
        let cases: Vec<_> = (1..=2).map(paper::platform_case).collect();
        let techniques = vec![TechniqueKind::Static, TechniqueKind::Fac];
        let params = SimParams {
            replicates: 5,
            threads: 4,
            ..Default::default()
        };
        let grid = simulate_grid(
            &batch,
            &robust_alloc(),
            &cases,
            &techniques,
            paper::DEADLINE,
            &params,
        )
        .unwrap();
        for (case, platform) in cases.iter().enumerate().map(|(i, p)| (i + 1, p)) {
            for (tech_idx, technique) in techniques.iter().enumerate() {
                for app in 0..batch.len() {
                    let single = simulate_single_cell(
                        &batch,
                        &robust_alloc(),
                        platform,
                        technique,
                        app,
                        case,
                        tech_idx,
                        paper::DEADLINE,
                        &params,
                    )
                    .unwrap();
                    let from_grid = grid
                        .iter()
                        .find(|c| c.app == app && c.case == case && c.technique == technique.name())
                        .unwrap();
                    assert_eq!(&single, from_grid, "app {app} case {case} tech {tech_idx}");
                }
            }
        }
    }

    #[test]
    fn grid_rejects_empty_inputs() {
        let batch = paper::batch_with_pulses(8);
        assert!(simulate_grid(
            &batch,
            &robust_alloc(),
            &[],
            &[TechniqueKind::Fac],
            paper::DEADLINE,
            &quick_params()
        )
        .is_err());
        assert!(simulate_grid(
            &batch,
            &robust_alloc(),
            &[paper::platform_case(1)],
            &[],
            paper::DEADLINE,
            &quick_params()
        )
        .is_err());
    }

    #[test]
    fn ci95_and_verdict_resolution() {
        let cell = CellResult {
            app: 0,
            case: 1,
            technique: "FAC".into(),
            mean_makespan: 3000.0,
            std_makespan: 300.0,
            mean_chunks: 50.0,
            replicates: 25,
            meets_deadline: true,
            deadline_hit_rate: 0.8,
        };
        // 1.96 · 300 / 5 = 117.6.
        assert!((cell.ci95_halfwidth() - 117.6).abs() < 1e-9);
        assert!(cell.verdict_is_resolved(3250.0)); // 250 > 117.6
        assert!(!cell.verdict_is_resolved(3050.0)); // 50 < 117.6
                                                    // Zero replicates: no evidence, so never resolved — even though the
                                                    // degenerate half-width is 0 (the implicit-divide trap).
        let zero = CellResult {
            replicates: 0,
            ..cell
        };
        assert_eq!(zero.ci95_halfwidth(), 0.0);
        assert!(!zero.verdict_is_resolved(3250.0));
        assert!(!zero.verdict_is_resolved(2000.0));
    }

    #[test]
    fn a_robust_verdict_needs_the_mean_and_half_the_replicates() {
        let pass = CellResult {
            app: 0,
            case: 1,
            technique: "FAC".into(),
            mean_makespan: 3000.0,
            std_makespan: 300.0,
            mean_chunks: 50.0,
            replicates: 10,
            meets_deadline: true,
            deadline_hit_rate: 0.5,
        };
        assert!(pass.robust_verdict());
        let lucky_tail = CellResult {
            deadline_hit_rate: 0.4,
            ..pass.clone()
        };
        assert!(!lucky_tail.robust_verdict());
        let slow_mean = CellResult {
            meets_deadline: false,
            deadline_hit_rate: 0.9,
            ..pass
        };
        assert!(!slow_mean.robust_verdict());
    }

    #[test]
    fn hit_rate_is_consistent_with_makespan_spread() {
        let batch = paper::batch_with_pulses(8);
        let cells = simulate_grid(
            &batch,
            &robust_alloc(),
            &[paper::platform_case(1)],
            &[TechniqueKind::Fac],
            paper::DEADLINE,
            &SimParams {
                replicates: 8,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.deadline_hit_rate), "{c:?}");
            // All replicates on one side of Δ pins the hit rate.
            if c.mean_makespan + 3.0 * c.std_makespan <= paper::DEADLINE {
                assert_eq!(c.deadline_hit_rate, 1.0, "{c:?}");
            }
            if c.mean_makespan - 3.0 * c.std_makespan > paper::DEADLINE {
                assert_eq!(c.deadline_hit_rate, 0.0, "{c:?}");
            }
        }
    }

    #[test]
    fn worse_cases_give_longer_makespans() {
        // Weighted availability decreases case 1 → 4, so mean makespans
        // (same app, same technique) should increase overall.
        let batch = paper::batch_with_pulses(8);
        let cases: Vec<_> = (1..=4).map(paper::platform_case).collect();
        let cells = simulate_grid(
            &batch,
            &robust_alloc(),
            &cases,
            &[TechniqueKind::Af],
            paper::DEADLINE,
            &SimParams {
                replicates: 10,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // Compare case 1 vs case 4 per app.
        for app in 0..3 {
            let m1 = cells
                .iter()
                .find(|c| c.app == app && c.case == 1)
                .unwrap()
                .mean_makespan;
            let m4 = cells
                .iter()
                .find(|c| c.app == app && c.case == 4)
                .unwrap()
                .mean_makespan;
            assert!(m4 > m1, "app {app}: case4 {m4} ≤ case1 {m1}");
        }
    }
}
