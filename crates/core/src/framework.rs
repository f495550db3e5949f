//! The [`Cdsf`] orchestrator: Stage I + Stage II + robustness
//! quantification.

use crate::policy::{ImPolicy, RasPolicy, Scenario};
use crate::simulation::{simulate_grid, CellResult, SimParams};
use crate::{CoreError, Result};
use cdsf_ra::robustness::{evaluate_with_engine, RobustnessReport};
use cdsf_ra::{Allocation, Phi1Engine};
use cdsf_system::{Batch, Platform};
use serde::{Deserialize, Serialize};

/// The combined dual-stage framework instance: a batch, a reference
/// (historical) platform `Â`, runtime availability cases, a deadline, and
/// simulation parameters.
#[derive(Debug, Clone)]
pub struct Cdsf {
    batch: Batch,
    reference: Platform,
    runtime_cases: Vec<Platform>,
    deadline: f64,
    sim: SimParams,
}

/// Builder for [`Cdsf`].
#[derive(Debug, Clone, Default)]
pub struct CdsfBuilder {
    batch: Option<Batch>,
    reference: Option<Platform>,
    runtime_cases: Vec<Platform>,
    deadline: Option<f64>,
    sim: Option<SimParams>,
}

impl CdsfBuilder {
    /// Sets the application batch.
    pub fn batch(mut self, batch: Batch) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Sets the historical platform `Â` used by Stage I.
    pub fn reference_platform(mut self, platform: Platform) -> Self {
        self.reference = Some(platform);
        self
    }

    /// Sets the runtime availability cases evaluated by Stage II (the
    /// first is conventionally the reference case itself).
    pub fn runtime_cases(mut self, cases: Vec<Platform>) -> Self {
        self.runtime_cases = cases;
        self
    }

    /// Sets the common deadline Δ.
    pub fn deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets simulation parameters (defaults apply otherwise).
    pub fn sim_params(mut self, sim: SimParams) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Validates and builds.
    pub fn build(self) -> Result<Cdsf> {
        let batch = self.batch.ok_or(CoreError::BadConfig {
            what: "missing batch",
        })?;
        if batch.is_empty() {
            return Err(CoreError::BadConfig {
                what: "empty batch",
            });
        }
        let reference = self.reference.ok_or(CoreError::BadConfig {
            what: "missing reference platform",
        })?;
        let deadline = self.deadline.ok_or(CoreError::BadConfig {
            what: "missing deadline",
        })?;
        if !(deadline > 0.0) || !deadline.is_finite() {
            return Err(CoreError::BadParameter {
                name: "deadline",
                value: deadline,
            });
        }
        let runtime_cases = if self.runtime_cases.is_empty() {
            vec![reference.clone()]
        } else {
            self.runtime_cases
        };
        for case in &runtime_cases {
            if case.num_types() != reference.num_types() {
                return Err(CoreError::BadConfig {
                    what: "runtime case has a different processor-type count than the reference",
                });
            }
        }
        let sim = self.sim.unwrap_or_default();
        sim.validate()?;
        Ok(Cdsf {
            batch,
            reference,
            runtime_cases,
            deadline,
            sim,
        })
    }
}

/// Result of running one scenario end-to-end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario number (1–4) when the policies match a paper scenario.
    pub scenario: Option<u8>,
    /// Stage-I policy name.
    pub im_name: String,
    /// Stage-II policy name.
    pub ras_name: String,
    /// The Stage-I allocation.
    pub allocation: Allocation,
    /// Stage-I robustness `φ₁ = Pr(Ψ ≤ Δ)` under `Â`.
    pub phi1: f64,
    /// Per-application `Pr(T_i ≤ Δ)` under `Â`.
    pub per_app_prob: Vec<f64>,
    /// Per-application expected completion times under `Â` (Table V).
    pub expected_times: Vec<f64>,
    /// The simulated Stage-II grid (Figures 3–6 bar data).
    pub cells: Vec<CellResult>,
    /// The deadline Δ.
    pub deadline: f64,
}

impl ScenarioResult {
    /// All cells of one application under one case.
    pub fn cells_for(&self, app: usize, case: usize) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.app == app && c.case == case)
            .collect()
    }

    /// The best technique for `(app, case)`: smallest mean makespan among
    /// techniques meeting the deadline; `None` if every technique violates
    /// it (the paper prints "—").
    pub fn best_technique(&self, app: usize, case: usize) -> Option<&CellResult> {
        self.cells_for(app, case)
            .into_iter()
            .filter(|c| c.meets_deadline)
            .min_by(|a, b| a.mean_makespan.total_cmp(&b.mean_makespan))
    }

    /// Whether every application meets the deadline under `case` with its
    /// best technique.
    pub fn case_is_robust(&self, case: usize, num_apps: usize) -> bool {
        (0..num_apps).all(|app| self.best_technique(app, case).is_some())
    }

    /// Table VI: best deadline-meeting technique name per (app × case).
    pub fn table6(&self, num_apps: usize, num_cases: usize) -> Vec<Vec<Option<String>>> {
        (0..num_apps)
            .map(|app| {
                (1..=num_cases)
                    .map(|case| self.best_technique(app, case).map(|c| c.technique.clone()))
                    .collect()
            })
            .collect()
    }
}

/// The paper's system-robustness pair `(ρ₁, ρ₂)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemRobustness {
    /// Stage-I robustness: `φ₁` of the mapping.
    pub rho1: f64,
    /// Stage-II robustness: the largest tolerated weighted-availability
    /// decrease, `1 − E[A_case]/E[Â]`, over cases where all apps meet Δ.
    pub rho2: f64,
    /// Index (1-based) of the most degraded case that is still robust;
    /// `None` when even the reference case fails.
    pub critical_case: Option<usize>,
}

impl Cdsf {
    /// Starts a builder.
    pub fn builder() -> CdsfBuilder {
        CdsfBuilder::default()
    }

    /// The application batch.
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// The Stage-I reference platform `Â`.
    pub fn reference(&self) -> &Platform {
        &self.reference
    }

    /// The runtime availability cases.
    pub fn runtime_cases(&self) -> &[Platform] {
        &self.runtime_cases
    }

    /// The deadline Δ.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// The simulation parameters.
    pub fn sim_params(&self) -> &SimParams {
        &self.sim
    }

    /// Stage I only: run the mapping policy and evaluate its robustness.
    ///
    /// The φ₁ evaluation engine is built once (in parallel, using the
    /// simulation thread count) and shared between the mapping policy and
    /// the robustness report, so the PMF arithmetic per `(app, type,
    /// share)` runs exactly once per stage-one invocation.
    pub fn stage_one(&self, im: &ImPolicy) -> Result<(Allocation, RobustnessReport)> {
        let engine = Phi1Engine::build_parallel(&self.batch, &self.reference, self.sim.threads)?;
        let alloc =
            im.allocate_with_engine(&self.batch, &self.reference, &engine, self.deadline)?;
        let report =
            evaluate_with_engine(&engine, &self.batch, &self.reference, &alloc, self.deadline)?;
        Ok((alloc, report))
    }

    /// Runs one scenario end-to-end: Stage-I mapping + Stage-II simulation
    /// over all runtime cases and the policy's technique set.
    pub fn run_scenario(&self, im: &ImPolicy, ras: &RasPolicy) -> Result<ScenarioResult> {
        let (alloc, report) = self.stage_one(im)?;
        let techniques = ras.techniques();
        let cells = simulate_grid(
            &self.batch,
            &alloc,
            &self.runtime_cases,
            &techniques,
            self.deadline,
            &self.sim,
        )?;
        Ok(ScenarioResult {
            scenario: Scenario::classify(im, ras).map(|s| s.number()),
            im_name: im.name().to_string(),
            ras_name: ras.name().to_string(),
            allocation: alloc,
            phi1: report.joint,
            per_app_prob: report.per_app,
            expected_times: report.expected_times,
            cells,
            deadline: self.deadline,
        })
    }

    /// Runs all four paper scenarios.
    pub fn run_all_scenarios(&self) -> Result<Vec<ScenarioResult>> {
        Scenario::all()
            .iter()
            .map(|s| {
                let (im, ras) = s.policies();
                self.run_scenario(&im, &ras)
            })
            .collect()
    }

    /// Quantifies `(ρ₁, ρ₂)` from a scenario result (normally scenario 4).
    ///
    /// `ρ₂` is the availability decrease of the most degraded runtime case
    /// under which *every* application still meets the deadline with its
    /// best technique; 0 when only the reference case is robust, and the
    /// pair is reported with `critical_case = None` when even the
    /// reference case fails.
    pub fn system_robustness(&self, result: &ScenarioResult) -> SystemRobustness {
        let num_apps = self.batch.len();
        let mut critical: Option<usize> = None;
        for case in 1..=self.runtime_cases.len() {
            if result.case_is_robust(case, num_apps) {
                let decrease =
                    self.runtime_cases[case - 1].availability_decrease_vs(&self.reference);
                match critical {
                    Some(c) => {
                        let best =
                            self.runtime_cases[c - 1].availability_decrease_vs(&self.reference);
                        if decrease > best {
                            critical = Some(case);
                        }
                    }
                    None => critical = Some(case),
                }
            }
        }
        let rho2 = critical.map_or(0.0, |c| {
            self.runtime_cases[c - 1]
                .availability_decrease_vs(&self.reference)
                .max(0.0)
        });
        SystemRobustness {
            rho1: result.phi1,
            rho2,
            critical_case: critical,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_workloads::paper;

    fn quick_cdsf(pulses: usize, replicates: usize) -> Cdsf {
        Cdsf::builder()
            .batch(paper::batch_with_pulses(pulses))
            .reference_platform(paper::platform())
            .runtime_cases((1..=4).map(paper::platform_case).collect())
            .deadline(paper::DEADLINE)
            .sim_params(SimParams {
                replicates,
                threads: 4,
                ..Default::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validation() {
        assert!(Cdsf::builder().build().is_err());
        assert!(Cdsf::builder()
            .batch(paper::batch_with_pulses(4))
            .build()
            .is_err());
        assert!(Cdsf::builder()
            .batch(paper::batch_with_pulses(4))
            .reference_platform(paper::platform())
            .deadline(-1.0)
            .build()
            .is_err());
        assert!(Cdsf::builder()
            .batch(cdsf_system::Batch::new(vec![]))
            .reference_platform(paper::platform())
            .deadline(100.0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_defaults_runtime_cases_to_reference() {
        let cdsf = Cdsf::builder()
            .batch(paper::batch_with_pulses(4))
            .reference_platform(paper::platform())
            .deadline(paper::DEADLINE)
            .build()
            .unwrap();
        assert_eq!(cdsf.runtime_cases().len(), 1);
    }

    #[test]
    fn stage_one_naive_vs_robust_matches_paper_phi1() {
        let cdsf = quick_cdsf(64, 2);
        let (_, naive) = cdsf.stage_one(&ImPolicy::Naive).unwrap();
        let (_, robust) = cdsf.stage_one(&ImPolicy::Robust).unwrap();
        assert!(
            (naive.joint - 0.26).abs() < 0.02,
            "naive φ1 {}",
            naive.joint
        );
        assert!(
            (robust.joint - 0.745).abs() < 0.02,
            "robust φ1 {}",
            robust.joint
        );
    }

    #[test]
    fn scenario4_dominates_scenario1() {
        let cdsf = quick_cdsf(16, 6);
        let s1 = cdsf
            .run_scenario(&ImPolicy::Naive, &RasPolicy::Naive)
            .unwrap();
        let s4 = cdsf
            .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
            .unwrap();
        assert_eq!(s1.scenario, Some(1));
        assert_eq!(s4.scenario, Some(4));
        // The paper's hypothesis: intelligent both stages beats neither.
        let r1 = cdsf.system_robustness(&s1);
        let r4 = cdsf.system_robustness(&s4);
        assert!(r4.rho1 > r1.rho1);
        assert!(r4.rho2 >= r1.rho2);
    }

    #[test]
    fn best_technique_and_table6_shapes() {
        let cdsf = quick_cdsf(16, 4);
        let s4 = cdsf
            .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
            .unwrap();
        let t6 = s4.table6(3, 4);
        assert_eq!(t6.len(), 3);
        assert!(t6.iter().all(|row| row.len() == 4));
        // Case 1 must be met by all apps under the robust-robust scenario.
        assert!(s4.case_is_robust(1, 3), "case 1 not robust: {t6:?}");
    }

    fn cell(app: usize, case: usize, technique: &str, mean: f64, meets: bool) -> CellResult {
        CellResult {
            app,
            case,
            technique: technique.into(),
            mean_makespan: mean,
            std_makespan: 0.0,
            mean_chunks: 1.0,
            replicates: 1,
            meets_deadline: meets,
            deadline_hit_rate: if meets { 1.0 } else { 0.0 },
        }
    }

    #[test]
    fn the_best_technique_is_the_fastest_that_meets_the_deadline() {
        let result = ScenarioResult {
            scenario: None,
            im_name: "hand".into(),
            ras_name: "hand".into(),
            allocation: Allocation::new(Vec::new()),
            phi1: 0.5,
            per_app_prob: vec![0.5, 1.0],
            expected_times: vec![1.0, 1.0],
            cells: vec![
                cell(0, 1, "STATIC", 3000.0, true),
                cell(0, 1, "FAC", 2500.0, true),
                // Faster, but its verdict says it misses Δ.
                cell(0, 1, "AF", 2000.0, false),
                cell(0, 2, "FAC", 3600.0, false),
                cell(1, 1, "AWF-B", 900.0, true),
                cell(1, 2, "AWF-B", 950.0, true),
            ],
            deadline: 3250.0,
        };
        assert_eq!(result.cells_for(0, 1).len(), 3);
        assert!(result.cells_for(2, 1).is_empty());
        let best = result.best_technique(0, 1).unwrap();
        assert_eq!(best.technique, "FAC");
        assert!(result.best_technique(0, 2).is_none());
        assert!(result.case_is_robust(1, 2));
        assert!(!result.case_is_robust(2, 2), "app 0 has no passing cell");
        assert_eq!(
            result.table6(2, 2),
            [
                [Some("FAC".to_string()), None],
                [Some("AWF-B".to_string()), Some("AWF-B".to_string())]
            ]
        );
    }
}
