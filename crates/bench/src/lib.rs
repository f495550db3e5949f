//! Shared helpers for the `repro_*` binaries and criterion benches.
//!
//! Everything here is a thin layer over `cdsf-core`/`cdsf-workloads`: the
//! binaries regenerate the paper's tables and figures, and this module
//! holds the common setup so each binary stays a short script.

use cdsf_core::{Cdsf, CellResult, ImPolicy, RasPolicy, SimParams};
use cdsf_workloads::generators::{degraded_case, BatchGenerator, PlatformGenerator};
use cdsf_workloads::paper;

/// The simulation parameters of the golden snapshots: library defaults
/// (seed included) with a fixed replicate count, so the grid is
/// deterministic and independent of the host's core count.
pub fn golden_sim_params() -> SimParams {
    SimParams {
        replicates: 25,
        threads: 4,
        ..Default::default()
    }
}

/// A generated instance of the offline dual-stage benchmark's shape: 8
/// applications with 16-pulse PMFs on 4 processor types of 8–16
/// processors, the reference case plus cases degraded by 10 %, 25 % and
/// 40 %, Δ = 4 000, 5 replicates on 2 simulation threads.
fn dualstage_golden_cdsf() -> Cdsf {
    let platform = PlatformGenerator {
        num_types: 4,
        procs_per_type: (8, 16),
        ..PlatformGenerator::default()
    }
    .generate(42)
    .expect("platform generator accepts its inputs");
    let batch = BatchGenerator {
        num_apps: 8,
        pulses: 16,
        ..BatchGenerator::default()
    }
    .generate(&platform, 43)
    .expect("batch generator accepts its inputs");
    let mut cases = vec![platform.clone()];
    for (k, d) in [0.10, 0.25, 0.40].into_iter().enumerate() {
        let (case, _) = degraded_case(&platform, d, 44 + k as u64).expect("decrease is in [0, 1)");
        cases.push(case);
    }
    Cdsf::builder()
        .batch(batch)
        .reference_platform(platform)
        .runtime_cases(cases)
        .deadline(4_000.0)
        .sim_params(SimParams {
            replicates: 5,
            threads: 2,
            ..Default::default()
        })
        .build()
        .expect("generated instance is valid")
}

/// Every Stage-II cell that `tests/golden/stage2_cells.json` pins bit for
/// bit, by grid: the paper's scenario 4 (robust allocation, 4 cases, the
/// robust technique set, [`golden_sim_params`]) and the robust set on the
/// exact-lattice allocation of one generated instance of the offline
/// dual-stage benchmark's shape.
pub fn stage2_golden_grids() -> Vec<(&'static str, Vec<CellResult>)> {
    let paper = paper_cdsf(golden_sim_params())
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
        .expect("scenario 4 runs");
    let lattice = ImPolicy::by_name("lattice").expect("the lattice allocator is shipped");
    let dualstage = dualstage_golden_cdsf()
        .run_scenario(&lattice, &RasPolicy::Robust)
        .expect("the dual-stage instance runs");
    vec![("scenario4", paper.cells), ("dualstage", dualstage.cells)]
}

/// Builds the paper's CDSF instance at the fixture defaults.
pub fn paper_cdsf(sim: SimParams) -> Cdsf {
    Cdsf::builder()
        .batch(paper::batch())
        .reference_platform(paper::platform())
        .runtime_cases((1..=paper::NUM_CASES).map(paper::platform_case).collect())
        .deadline(paper::DEADLINE)
        .sim_params(sim)
        .build()
        .expect("paper fixture is valid")
}

/// Simulation parameters used by the repro binaries (more replicates than
/// the library default for smoother figure bars).
pub fn repro_sim_params() -> SimParams {
    SimParams {
        replicates: 100,
        threads: num_threads(),
        ..Default::default()
    }
}

/// Worker threads: all available cores, capped at 8.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
}

/// Formats a mean ± std pair.
pub fn mean_std(mean: f64, std: f64) -> String {
    format!("{mean:.0} ± {std:.0}")
}

/// Marks a value against the deadline: `*` when it violates Δ.
pub fn deadline_mark(mean: f64, deadline: f64) -> &'static str {
    if mean <= deadline {
        ""
    } else {
        "*"
    }
}
