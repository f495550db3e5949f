//! Large-scale study: the paper's future-work experiment.
//!
//! ```text
//! cargo run --release --example large_scale
//! ```
//!
//! Generates a 10-application batch on a 4-type, ~80-processor platform
//! (where exhaustive search is no longer tractable), compares the scalable
//! Stage-I heuristics on robustness quality and wall-clock cost, and runs
//! the best heuristic through Stage II under a degraded availability case.

use cdsf_core::report::pct;
use cdsf_core::{AsciiTable, Cdsf, ImPolicy, RasPolicy, SimParams};
use cdsf_ra::allocators::{
    EqualShare, GeneticAlgorithm, GreedyMaxRobust, GreedyMinTime, SimulatedAnnealing, Sufferage,
};
use cdsf_ra::robustness::evaluate;
use cdsf_ra::Allocator;
use cdsf_workloads::generators::{degraded_case, BatchGenerator, PlatformGenerator, Range};
use std::time::Instant;

fn main() {
    // A platform exhaustive search cannot handle: 4 types, 16–32 procs each.
    let platform = PlatformGenerator {
        num_types: 4,
        procs_per_type: (16, 32),
        availability_pulses: 3,
        availability_range: Range::new(0.25, 1.0).expect("valid range"),
    }
    .generate(2024)
    .expect("platform generates");

    let batch = BatchGenerator {
        num_apps: 10,
        total_iters: (2_000, 20_000),
        serial_fraction: Range::new(0.02, 0.25).expect("valid range"),
        mean_exec_time: Range::new(2_000.0, 9_000.0).expect("valid range"),
        type_heterogeneity: Range::new(0.5, 2.0).expect("valid range"),
        pulses: 32,
    }
    .generate(&platform, 7)
    .expect("batch generates");

    let deadline = 2_500.0;
    println!(
        "{} applications on {} processors of {} types, Δ = {deadline}\n",
        batch.len(),
        platform.total_processors(),
        platform.num_types()
    );

    // ---- Stage-I heuristic shoot-out -------------------------------------
    let policies: Vec<Box<dyn Allocator>> = vec![
        Box::new(EqualShare::new()),
        Box::new(GreedyMinTime::new()),
        Box::new(GreedyMaxRobust::new()),
        Box::new(Sufferage::new()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(GeneticAlgorithm::default()),
    ];

    let mut table = AsciiTable::new(["Allocator", "φ1 = Pr(Ψ ≤ Δ)", "wall-clock"])
        .title("Stage-I heuristics on the large instance");
    let mut best: Option<(f64, String, cdsf_ra::Allocation)> = None;
    for policy in &policies {
        let t0 = Instant::now();
        match policy.allocate(&batch, &platform, deadline) {
            Ok(alloc) => {
                let elapsed = t0.elapsed();
                let report = evaluate(&batch, &platform, &alloc, deadline).expect("evaluate");
                table.row([
                    policy.name().to_string(),
                    pct(report.joint),
                    format!("{:.1?}", elapsed),
                ]);
                if best.as_ref().map_or(true, |(b, _, _)| report.joint > *b) {
                    best = Some((report.joint, policy.name().to_string(), alloc));
                }
            }
            Err(e) => {
                table.row([
                    policy.name().to_string(),
                    format!("failed: {e}"),
                    "-".into(),
                ]);
            }
        }
    }
    println!("{table}");

    let (best_phi1, best_name, best_alloc) = best.expect("at least one heuristic succeeded");
    println!(
        "Best Stage-I heuristic: {best_name} with φ1 = {}\n",
        pct(best_phi1)
    );

    // ---- Stage II under a degraded runtime case ---------------------------
    let (degraded, achieved) = degraded_case(&platform, 0.25, 42).expect("degrades");
    println!(
        "Runtime case: weighted availability decreased by {} vs the reference.\n",
        pct(achieved)
    );

    let cdsf = Cdsf::builder()
        .batch(batch.clone())
        .reference_platform(platform.clone())
        .runtime_cases(vec![platform.clone(), degraded])
        .deadline(deadline)
        .sim_params(SimParams {
            replicates: 10,
            ..Default::default()
        })
        .build()
        .expect("valid configuration");

    // Wrap the winning allocation as a custom policy so Stage II reuses it.
    struct Fixed(cdsf_ra::Allocation);
    impl Allocator for Fixed {
        fn name(&self) -> &'static str {
            "best-heuristic"
        }
        fn allocate_with_engine(
            &self,
            _: &cdsf_system::Batch,
            _: &cdsf_system::Platform,
            _: &cdsf_ra::Phi1Engine,
            _: f64,
        ) -> cdsf_ra::Result<cdsf_ra::Allocation> {
            Ok(self.0.clone())
        }
    }

    let result = cdsf
        .run_scenario(
            &ImPolicy::Custom(Box::new(Fixed(best_alloc))),
            &RasPolicy::Robust,
        )
        .expect("scenario runs");

    let mut verdicts = AsciiTable::new(["Case", "All apps meet Δ?", "Best technique counts"])
        .title("Stage-II verdicts (robust DLS on the heuristic mapping)");
    for case in 1..=2 {
        let ok = result.case_is_robust(case, cdsf.batch().len());
        // Which technique wins most often across applications in this case?
        let mut counts = std::collections::BTreeMap::new();
        for app in 0..cdsf.batch().len() {
            if let Some(cell) = result.best_technique(app, case) {
                *counts.entry(cell.technique.clone()).or_insert(0u32) += 1;
            }
        }
        let summary = counts
            .iter()
            .map(|(k, v)| format!("{k}×{v}"))
            .collect::<Vec<_>>()
            .join(", ");
        verdicts.row([
            format!("{case}"),
            if ok { "yes".into() } else { "no".to_string() },
            summary,
        ]);
    }
    println!("{verdicts}");
}
