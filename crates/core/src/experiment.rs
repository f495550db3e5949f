//! Declarative experiment specifications: describe a whole CDSF study in
//! JSON, load it, run it.
//!
//! An [`ExperimentSpec`] bundles everything [`crate::Cdsf`] needs — batch,
//! reference platform, runtime cases, deadline, simulation parameters —
//! plus the stage policies by *name*, so experiments can be versioned,
//! shared and re-run without writing Rust:
//!
//! ```json
//! {
//!   "name": "paper-example",
//!   "batch": { ... },            // cdsf_system::Batch
//!   "reference": { ... },        // cdsf_system::Platform
//!   "runtime_cases": [ ... ],    // [Platform]
//!   "deadline": 3250.0,
//!   "sim": { "replicates": 50, "mean_dwell": 300.0,
//!            "overhead": 1.0, "seed": 52575, "threads": 4 },
//!   "im": "exhaustive",
//!   "ras": ["FAC", "WF", "AWF-B", "AF"]
//! }
//! ```
//!
//! `im` is any name [`ImPolicy::by_name`] accepts (README's policy
//! table), matched case-insensitively. `ras` entries parse per
//! [`TechniqueKind::from_str`](cdsf_dls::TechniqueKind) (`"STATIC"`,
//! `"FAC"`, `"FSC:128"`, …); the special value `["naive"]` selects STATIC
//! and `["robust"]` the paper's robust set.

use crate::policy::{ImPolicy, RasPolicy};
use crate::simulation::SimParams;
use crate::{Cdsf, CoreError, Result, ScenarioResult, SystemRobustness};
use cdsf_dls::TechniqueKind;
use cdsf_system::{Batch, Platform};
use serde::{Deserialize, Serialize};

/// A complete, serializable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Experiment name, echoed into the result.
    pub name: String,
    /// The application batch.
    pub batch: Batch,
    /// The Stage-I historical platform `Â`.
    pub reference: Platform,
    /// Runtime availability cases (defaults to `[reference]` when empty).
    #[serde(default)]
    pub runtime_cases: Vec<Platform>,
    /// The common deadline Δ.
    pub deadline: f64,
    /// Simulation parameters.
    #[serde(default)]
    pub sim: Option<SimParams>,
    /// Stage-I policy name.
    pub im: String,
    /// Stage-II technique names.
    pub ras: Vec<String>,
}

/// The result of running a spec: the scenario outcome plus robustness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The spec's name.
    pub name: String,
    /// The full scenario outcome.
    pub scenario: ScenarioResult,
    /// `(ρ₁, ρ₂)` over the spec's runtime cases.
    pub robustness: SystemRobustness,
}

/// Resolves a Stage-II policy from technique names.
pub fn ras_policy_from_names(names: &[String]) -> Result<RasPolicy> {
    if names.is_empty() {
        return Err(CoreError::BadConfig {
            what: "empty ras technique list",
        });
    }
    if names.len() == 1 {
        match names[0].to_ascii_lowercase().as_str() {
            "naive" | "static" => return Ok(RasPolicy::Naive),
            "robust" => return Ok(RasPolicy::Robust),
            _ => {}
        }
    }
    let kinds: std::result::Result<Vec<TechniqueKind>, _> =
        names.iter().map(|n| n.parse()).collect();
    match kinds {
        Ok(kinds) => Ok(RasPolicy::Custom(kinds)),
        Err(_) => Err(CoreError::BadConfig {
            what: "unknown technique name in ras list",
        }),
    }
}

impl ExperimentSpec {
    /// Parses a spec from JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|_| CoreError::BadConfig {
            what: "invalid experiment JSON",
        })
    }

    /// Serializes the spec to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|_| CoreError::BadConfig {
            what: "spec not serializable",
        })
    }

    /// Builds the [`Cdsf`] instance this spec describes.
    pub fn build(&self) -> Result<Cdsf> {
        let mut builder = Cdsf::builder()
            .batch(self.batch.clone())
            .reference_platform(self.reference.clone())
            .runtime_cases(self.runtime_cases.clone())
            .deadline(self.deadline);
        if let Some(sim) = self.sim {
            builder = builder.sim_params(sim);
        }
        builder.build()
    }

    /// Runs the experiment end to end.
    pub fn run(&self) -> Result<ExperimentResult> {
        let cdsf = self.build()?;
        let im = ImPolicy::by_name(&self.im.to_ascii_lowercase()).ok_or(CoreError::BadConfig {
            what: "unknown im policy name",
        })?;
        let ras = ras_policy_from_names(&self.ras)?;
        let scenario = cdsf.run_scenario(&im, &ras)?;
        let robustness = cdsf.system_robustness(&scenario);
        Ok(ExperimentResult {
            name: self.name.clone(),
            scenario,
            robustness,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_workloads::paper;

    fn paper_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "paper-example".to_string(),
            batch: paper::batch_with_pulses(16),
            reference: paper::platform(),
            runtime_cases: (1..=4).map(paper::platform_case).collect(),
            deadline: paper::DEADLINE,
            sim: Some(SimParams {
                replicates: 4,
                threads: 2,
                ..Default::default()
            }),
            im: "robust".to_string(),
            ras: vec!["robust".to_string()],
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = paper_spec();
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn spec_runs_the_paper_scenario() {
        let result = paper_spec().run().unwrap();
        assert_eq!(result.name, "paper-example");
        assert!((result.robustness.rho1 - 0.745).abs() < 0.03);
        assert_eq!(result.scenario.cells.len(), 3 * 4 * 4);
    }

    #[test]
    fn custom_technique_lists_parse() {
        let mut spec = paper_spec();
        spec.ras = vec!["GSS".into(), "FSC:32".into(), "awf-c".into()];
        let result = spec.run().unwrap();
        let names: std::collections::HashSet<&str> = result
            .scenario
            .cells
            .iter()
            .map(|c| c.technique.as_str())
            .collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains("GSS") && names.contains("FSC") && names.contains("AWF-C"));
    }

    #[test]
    fn ras_name_resolution() {
        assert!(ras_policy_from_names(&[]).is_err());
        assert!(ras_policy_from_names(&["bogus".into()]).is_err());
        assert_eq!(
            ras_policy_from_names(&["naive".into()]).unwrap(),
            RasPolicy::Naive
        );
        assert_eq!(
            ras_policy_from_names(&["robust".into()]).unwrap(),
            RasPolicy::Robust
        );
    }

    #[test]
    fn bad_json_is_rejected() {
        assert!(ExperimentSpec::from_json("{").is_err());
        assert!(ExperimentSpec::from_json("{\"name\": \"x\"}").is_err());
    }
}
