//! Quickstart: run the CDSF end-to-end on the paper's example.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's 12-processor heterogeneous system and 3-application
//! batch, maps it robustly (Stage I), simulates robust dynamic loop
//! scheduling under the four availability cases (Stage II), and prints the
//! system robustness pair `(ρ1, ρ2)`.

use cdsf_core::{Cdsf, ImPolicy, RasPolicy, SimParams};
use cdsf_workloads::paper;

fn main() {
    // 1. Describe the world: batch, historical platform Â, runtime
    //    availability cases, and the common deadline Δ.
    let cdsf = Cdsf::builder()
        .batch(paper::batch())
        .reference_platform(paper::platform())
        .runtime_cases((1..=paper::NUM_CASES).map(paper::platform_case).collect())
        .deadline(paper::DEADLINE)
        .sim_params(SimParams {
            replicates: 30,
            ..Default::default()
        })
        .build()
        .expect("valid configuration");

    // 2. Stage I: robust initial mapping (the paper's "robust IM": the
    //    φ1-optimal allocation, found by exact search).
    let (allocation, stage1) = cdsf.stage_one(&ImPolicy::Robust).expect("stage I");
    println!("Stage I allocation: {allocation}");
    println!(
        "Stage I robustness φ1 = Pr(Ψ ≤ Δ) = {:.1}%  (paper: 74.5%)",
        stage1.joint * 100.0
    );

    // 3. Stage II: run the full scenario (robust IM + robust DLS) across
    //    all four availability cases.
    let result = cdsf
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
        .expect("scenario 4");

    for case in 1..=paper::NUM_CASES {
        let ok = result.case_is_robust(case, cdsf.batch().len());
        println!(
            "case {case}: weighted availability decrease {:>5.1}% → {}",
            paper::availability_decrease(case) * 100.0,
            if ok {
                "deadline met"
            } else {
                "deadline violated"
            }
        );
    }

    // 4. System robustness (ρ1, ρ2).
    let r = cdsf.system_robustness(&result);
    println!(
        "System robustness (ρ1, ρ2) = ({:.1}%, {:.1}%)  (paper: (74.5%, 30.77%))",
        r.rho1 * 100.0,
        r.rho2 * 100.0
    );
}
