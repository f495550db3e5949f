//! Stage policies and the four evaluation scenarios.

use crate::Result;
use cdsf_dls::TechniqueKind;
use cdsf_ra::allocators::{EqualShare, Lattice};
use cdsf_ra::{Allocation, Allocator, Phi1Engine};
use cdsf_system::{Batch, Platform};

/// Stage-I (initial mapping) policy.
pub enum ImPolicy {
    /// The paper's naïve IM: equal-share load balancing.
    Naive,
    /// The paper's robust IM: the φ₁-optimal allocation, found by the
    /// exact lattice search (bit-identical to exhaustive enumeration).
    Robust,
    /// Any custom allocator (greedy, metaheuristic, …).
    Custom(Box<dyn Allocator + Send + Sync>),
}

impl ImPolicy {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            ImPolicy::Naive => "naive IM",
            ImPolicy::Robust => "robust IM",
            ImPolicy::Custom(a) => a.name(),
        }
    }

    /// Whether this is the robust policy (affects scenario labeling only).
    pub fn is_robust(&self) -> bool {
        !matches!(self, ImPolicy::Naive)
    }

    /// Resolves an allocator name to a policy: the two paper policies plus
    /// every allocator shipped by `cdsf-ra`. This is the one name table;
    /// the CLI, experiment specs and the service all resolve through it.
    /// Names are case-sensitive.
    pub fn by_name(name: &str) -> Option<ImPolicy> {
        use cdsf_ra::allocators as ra;
        Some(match name {
            "naive" | "equal-share" => ImPolicy::Naive,
            "robust" | "exhaustive" => ImPolicy::Robust,
            "greedy-min-time" => ImPolicy::Custom(Box::new(ra::GreedyMinTime)),
            "greedy-max-robust" => ImPolicy::Custom(Box::new(ra::GreedyMaxRobust)),
            "sufferage" => ImPolicy::Custom(Box::new(ra::Sufferage)),
            "sa" | "annealing" => ImPolicy::Custom(Box::new(ra::SimulatedAnnealing::default())),
            "ga" | "genetic" => ImPolicy::Custom(Box::new(ra::GeneticAlgorithm::default())),
            "lattice" => ImPolicy::Custom(Box::new(ra::Lattice::default())),
            "gamma-robust" => ImPolicy::Custom(Box::new(ra::GammaRobust::default())),
            _ => return None,
        })
    }

    /// Runs the policy, building the φ₁ engine at the host width
    /// ([`cdsf_system::default_threads`]); the engine's bits, and so the
    /// allocation, do not depend on the width.
    pub fn allocate(
        &self,
        batch: &Batch,
        platform: &Platform,
        deadline: f64,
    ) -> Result<Allocation> {
        let engine = Phi1Engine::build_parallel(batch, platform, cdsf_system::default_threads())?;
        self.allocate_with_engine(batch, platform, &engine, deadline)
    }

    /// Runs the policy against a prebuilt [`Phi1Engine`] for
    /// `(batch, platform)`.
    pub fn allocate_with_engine(
        &self,
        batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation> {
        Ok(match self {
            ImPolicy::Naive => EqualShare.allocate_with_engine(batch, platform, engine, deadline),
            ImPolicy::Robust => {
                Lattice::default().allocate_with_engine(batch, platform, engine, deadline)
            }
            ImPolicy::Custom(a) => a.allocate_with_engine(batch, platform, engine, deadline),
        }?)
    }
}

impl std::fmt::Debug for ImPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ImPolicy({})", self.name())
    }
}

/// Stage-II (runtime application scheduling) policy.
#[derive(Debug, Clone, PartialEq)]
pub enum RasPolicy {
    /// The paper's naïve RAS: straightforward parallelization (STATIC).
    Naive,
    /// The paper's robust RAS: the DLS set `{FAC, WF, AWF-B, AF}`.
    Robust,
    /// A custom technique set.
    Custom(Vec<TechniqueKind>),
}

impl RasPolicy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RasPolicy::Naive => "naive RAS",
            RasPolicy::Robust => "robust RAS",
            RasPolicy::Custom(_) => "custom RAS",
        }
    }

    /// Whether this is a robust (dynamic) policy.
    pub fn is_robust(&self) -> bool {
        !matches!(self, RasPolicy::Naive)
    }

    /// The technique set evaluated in Stage II.
    pub fn techniques(&self) -> Vec<TechniqueKind> {
        match self {
            RasPolicy::Naive => vec![TechniqueKind::Static],
            RasPolicy::Robust => TechniqueKind::paper_robust_set(),
            RasPolicy::Custom(set) => set.clone(),
        }
    }
}

/// The paper's four evaluation scenarios (Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Scenario 1: naïve IM — naïve RAS (Figure 3).
    NaiveNaive,
    /// Scenario 2: robust IM — naïve RAS (Figure 4).
    RobustNaive,
    /// Scenario 3: naïve IM — robust RAS (Figure 5).
    NaiveRobust,
    /// Scenario 4: robust IM — robust RAS (Figure 6).
    RobustRobust,
}

impl Scenario {
    /// All four scenarios in paper order.
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::NaiveNaive,
            Scenario::RobustNaive,
            Scenario::NaiveRobust,
            Scenario::RobustRobust,
        ]
    }

    /// Scenario number as used in the paper (1–4).
    pub fn number(&self) -> u8 {
        match self {
            Scenario::NaiveNaive => 1,
            Scenario::RobustNaive => 2,
            Scenario::NaiveRobust => 3,
            Scenario::RobustRobust => 4,
        }
    }

    /// The figure this scenario corresponds to (3–6).
    pub fn figure(&self) -> u8 {
        self.number() + 2
    }

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::NaiveNaive => "naive IM - naive RAS",
            Scenario::RobustNaive => "robust IM - naive RAS",
            Scenario::NaiveRobust => "naive IM - robust RAS",
            Scenario::RobustRobust => "robust IM - robust RAS",
        }
    }

    /// The stage policies for this scenario.
    pub fn policies(&self) -> (ImPolicy, RasPolicy) {
        match self {
            Scenario::NaiveNaive => (ImPolicy::Naive, RasPolicy::Naive),
            Scenario::RobustNaive => (ImPolicy::Robust, RasPolicy::Naive),
            Scenario::NaiveRobust => (ImPolicy::Naive, RasPolicy::Robust),
            Scenario::RobustRobust => (ImPolicy::Robust, RasPolicy::Robust),
        }
    }

    /// Classifies a policy pair into a scenario (None for custom policies).
    pub fn classify(im: &ImPolicy, ras: &RasPolicy) -> Option<Scenario> {
        match (im, ras) {
            (ImPolicy::Naive, RasPolicy::Naive) => Some(Scenario::NaiveNaive),
            (ImPolicy::Robust, RasPolicy::Naive) => Some(Scenario::RobustNaive),
            (ImPolicy::Naive, RasPolicy::Robust) => Some(Scenario::NaiveRobust),
            (ImPolicy::Robust, RasPolicy::Robust) => Some(Scenario::RobustRobust),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_numbering_matches_paper() {
        assert_eq!(Scenario::NaiveNaive.number(), 1);
        assert_eq!(Scenario::RobustRobust.number(), 4);
        assert_eq!(Scenario::NaiveNaive.figure(), 3);
        assert_eq!(Scenario::RobustRobust.figure(), 6);
        assert_eq!(Scenario::all().len(), 4);
    }

    #[test]
    fn policy_technique_sets() {
        let naive: Vec<&str> = RasPolicy::Naive
            .techniques()
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(naive, vec!["STATIC"]);
        let robust: Vec<&str> = RasPolicy::Robust
            .techniques()
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(robust, vec!["FAC", "WF", "AWF-B", "AF"]);
        assert!(!RasPolicy::Naive.is_robust());
        assert!(RasPolicy::Robust.is_robust());
    }

    #[test]
    fn classify_round_trips() {
        for s in Scenario::all() {
            let (im, ras) = s.policies();
            assert_eq!(Scenario::classify(&im, &ras), Some(s));
        }
        let custom = ImPolicy::Custom(Box::new(cdsf_ra::allocators::Sufferage));
        assert_eq!(Scenario::classify(&custom, &RasPolicy::Naive), None);
    }

    #[test]
    fn by_name_resolves_every_shipped_allocator() {
        for name in [
            "naive",
            "robust",
            "greedy-min-time",
            "greedy-max-robust",
            "sufferage",
            "sa",
            "ga",
            "lattice",
            "gamma-robust",
        ] {
            assert!(ImPolicy::by_name(name).is_some(), "{name} must resolve");
        }
        assert_eq!(ImPolicy::by_name("lattice").unwrap().name(), "Lattice");
        assert_eq!(
            ImPolicy::by_name("gamma-robust").unwrap().name(),
            "GammaRobust"
        );
        assert!(ImPolicy::by_name("nope").is_none());
    }

    /// The robust IM is the exact lattice at every width, on the service's
    /// generated instance shape where most CDF reads round to 1 ± an ulp
    /// and the expected-time sum breaks the ties on φ1's bits.
    #[test]
    fn robust_returns_the_lattice_allocation() {
        use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator};
        let serve_shaped = |seed: u64| {
            let platform = PlatformGenerator {
                num_types: 2 + (seed % 2) as usize,
                ..Default::default()
            }
            .generate(seed)
            .unwrap();
            let batch = BatchGenerator {
                num_apps: 3 + (seed % 4) as usize,
                pulses: 5 + (seed % 4) as usize,
                ..Default::default()
            }
            .generate(&platform, seed)
            .unwrap();
            (batch, platform)
        };
        let mut cases = Vec::new();
        for (seed, deadline) in [
            (31, 10_000.0),
            (39, 10_000.0),
            (146, 10_000.0),
            (123, 5_000.0),
        ] {
            let (batch, platform) = serve_shaped(seed);
            cases.push((batch, platform, deadline));
        }
        // Seed 48 with every application twice.
        let (batch, platform) = serve_shaped(48);
        let twice = batch.apps().iter().chain(batch.apps()).cloned().collect();
        cases.push((Batch::new(twice), platform, 10_000.0));
        for (batch, platform, deadline) in &cases {
            for policy in [ImPolicy::Robust, ImPolicy::by_name("exhaustive").unwrap()] {
                let got = policy.allocate(batch, platform, *deadline).unwrap();
                for threads in [1, 2, 4] {
                    let want = Lattice::new(threads)
                        .unwrap()
                        .allocate(batch, platform, *deadline)
                        .unwrap();
                    assert_eq!(
                        got,
                        want,
                        "{} apps, Δ {deadline}, {threads} threads",
                        batch.len()
                    );
                }
            }
        }
    }

    #[test]
    fn im_policy_names() {
        assert_eq!(ImPolicy::Naive.name(), "naive IM");
        assert_eq!(ImPolicy::Robust.name(), "robust IM");
        assert!(ImPolicy::Robust.is_robust());
        assert!(!ImPolicy::Naive.is_robust());
    }
}
