//! End-to-end reproduction of the paper's published numbers.
//!
//! Each test pins one table/figure claim; tolerances reflect the paper's
//! own Monte-Carlo noise (its PMFs were sampled) and our replicate counts.

use cdsf_core::{Cdsf, ImPolicy, RasPolicy, SimParams};
use cdsf_ra::{Allocation, Assignment};
use cdsf_system::ProcTypeId;
use cdsf_workloads::paper;

fn paper_cdsf(replicates: usize) -> Cdsf {
    Cdsf::builder()
        .batch(paper::batch())
        .reference_platform(paper::platform())
        .runtime_cases((1..=paper::NUM_CASES).map(paper::platform_case).collect())
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
fn table1_weighted_availabilities() {
    let expected = [0.7500, 0.5387, 0.5192, 0.5042];
    for (case, &w) in (1..=4).zip(&expected) {
        assert!(
            (paper::weighted_availability(case) - w).abs() < 2e-3,
            "case {case}"
        );
    }
}

#[test]
fn table4_naive_allocation() {
    let cdsf = paper_cdsf(2);
    let (alloc, report) = cdsf.stage_one(&ImPolicy::Naive).unwrap();
    let want = Allocation::new(vec![
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
    ]);
    assert_eq!(alloc, want, "Table IV naive row");
    assert!(
        (report.joint - 0.26).abs() < 0.02,
        "φ1 = {} (paper 26%)",
        report.joint
    );
}

#[test]
fn table4_robust_allocation() {
    let cdsf = paper_cdsf(2);
    let (alloc, report) = cdsf.stage_one(&ImPolicy::Robust).unwrap();
    let want = Allocation::new(vec![
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
    ]);
    assert_eq!(alloc, want, "Table IV robust row");
    assert!(
        (report.joint - 0.745).abs() < 0.02,
        "φ1 = {} (paper 74.5%)",
        report.joint
    );
}

#[test]
fn table5_expected_completion_times() {
    let cdsf = paper_cdsf(2);
    let (_, naive) = cdsf.stage_one(&ImPolicy::Naive).unwrap();
    let (_, robust) = cdsf.stage_one(&ImPolicy::Robust).unwrap();
    let naive_expect = [3800.02, 1306.39, 4599.76];
    let robust_expect = [1365.46, 1959.59, 2699.86];
    for (got, want) in naive.expected_times.iter().zip(&naive_expect) {
        assert!((got - want).abs() < 10.0, "naive: {got} vs paper {want}");
    }
    for (got, want) in robust.expected_times.iter().zip(&robust_expect) {
        assert!((got - want).abs() < 10.0, "robust: {got} vs paper {want}");
    }
}

#[test]
fn figure3_scenario1_violates_every_case() {
    let cdsf = paper_cdsf(15);
    let s1 = cdsf
        .run_scenario(&ImPolicy::Naive, &RasPolicy::Naive)
        .unwrap();
    for case in 1..=4 {
        assert!(
            !s1.case_is_robust(case, 3),
            "scenario 1 case {case} should violate the deadline"
        );
    }
}

#[test]
fn figure4_scenario2_not_robust() {
    // Paper: robust IM alone cannot make the system robust — STATIC
    // violates the deadline under the degraded cases. (Our simulator
    // meets case 1, a divergence documented in EXPERIMENTS.md; the
    // scenario's conclusion — not robust — holds through cases 2–4.)
    let cdsf = paper_cdsf(15);
    let s2 = cdsf
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Naive)
        .unwrap();
    for case in 2..=4 {
        assert!(
            !s2.case_is_robust(case, 3),
            "scenario 2 case {case} should violate the deadline"
        );
    }
}

#[test]
fn figure5_scenario3_not_robust_and_app3_violates_case1() {
    let cdsf = paper_cdsf(15);
    let s3 = cdsf
        .run_scenario(&ImPolicy::Naive, &RasPolicy::Robust)
        .unwrap();
    for case in 1..=4 {
        assert!(!s3.case_is_robust(case, 3), "scenario 3 case {case}");
    }
    // Paper: in case 1 the violation is application 3's.
    assert!(
        s3.best_technique(2, 1).is_none(),
        "application 3 should violate the deadline in case 1"
    );
    // Application 2 is never the problem in scenario 3.
    for case in 1..=4 {
        assert!(
            s3.best_technique(1, case).is_some(),
            "application 2 should meet the deadline in case {case}"
        );
    }
}

#[test]
fn figure6_scenario4_robust_through_case3() {
    let cdsf = paper_cdsf(25);
    let s4 = cdsf
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
        .unwrap();
    for case in 1..=3 {
        assert!(
            s4.case_is_robust(case, 3),
            "scenario 4 case {case} should meet the deadline"
        );
    }
    assert!(!s4.case_is_robust(4, 3), "scenario 4 case 4 should violate");
    // Paper Table VI: in case 4 application 2 violates with every
    // technique, application 1 meets the deadline.
    assert!(s4.best_technique(0, 4).is_some(), "app 1 meets Δ in case 4");
    assert!(
        s4.best_technique(1, 4).is_none(),
        "app 2 violates Δ in case 4"
    );
}

#[test]
fn headline_system_robustness() {
    // Paper: (ρ1, ρ2) = (74.5 %, 30.77 %).
    let cdsf = paper_cdsf(25);
    let s4 = cdsf
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
        .unwrap();
    let r = cdsf.system_robustness(&s4);
    assert!((r.rho1 - 0.745).abs() < 0.02, "ρ1 = {}", r.rho1);
    assert!((r.rho2 - 0.3077).abs() < 0.02, "ρ2 = {}", r.rho2);
    assert_eq!(r.critical_case, Some(3));
}

// ---------------------------------------------------------------------------
// Golden-file regression tests.
//
// The JSON snapshots under `tests/golden/` freeze the exact reproduction
// outputs (allocations, probabilities, expected times, Table VI technique
// grid) at the library-default seed. They are regenerated only on
// intentional behavioural change via
// `cargo run --release -p cdsf-bench --bin golden_snapshot`; any unplanned
// drift in the Stage-I engine or Stage-II simulator fails here first. CI
// also reruns the generator and fails on any byte of difference, so the
// tolerance below is not the last word, and `stage2_cells.json` pins every
// Stage-II cell bit for bit (`crates/bench/tests/stage2_golden.rs`).
// ---------------------------------------------------------------------------

/// Float tolerance for golden comparisons: covers JSON round-trip noise
/// only, far below any behavioural change worth noticing.
const GOLDEN_TOL: f64 = 1e-9;

fn golden(name: &str) -> serde_json::Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad JSON in {name}: {e:?}"))
}

fn golden_alloc(v: &serde_json::Value) -> Allocation {
    Allocation::new(
        v.as_array()
            .expect("allocation array")
            .iter()
            .map(|pair| Assignment {
                proc_type: ProcTypeId(pair[0].as_u64().expect("type index") as usize),
                procs: pair[1].as_u64().expect("processor count") as u32,
            })
            .collect(),
    )
}

fn golden_f64s(v: &serde_json::Value) -> Vec<f64> {
    v.as_array()
        .expect("float array")
        .iter()
        .map(|x| x.as_f64().expect("float"))
        .collect()
}

#[test]
fn golden_table4_allocations_and_probabilities() {
    let snap = golden("table4.json");
    let cdsf = paper_cdsf(2); // stage one never touches the replicate count
    for (key, policy) in [("naive", ImPolicy::Naive), ("robust", ImPolicy::Robust)] {
        let (alloc, report) = cdsf.stage_one(&policy).unwrap();
        assert_eq!(
            alloc,
            golden_alloc(&snap[key]["allocation"]),
            "{key} allocation drifted"
        );
        let phi1 = snap[key]["phi1"].as_f64().unwrap();
        assert!(
            (report.joint - phi1).abs() <= GOLDEN_TOL,
            "{key} φ1 drifted: {} vs golden {phi1}",
            report.joint
        );
        let per_app = golden_f64s(&snap[key]["per_app"]);
        assert_eq!(report.per_app.len(), per_app.len());
        for (i, (got, want)) in report.per_app.iter().zip(&per_app).enumerate() {
            assert!(
                (got - want).abs() <= GOLDEN_TOL,
                "{key} app {i} probability drifted: {got} vs golden {want}"
            );
        }
    }
}

#[test]
fn golden_table5_expected_times() {
    let snap = golden("table5.json");
    let cdsf = paper_cdsf(2);
    for (key, policy) in [("naive", ImPolicy::Naive), ("robust", ImPolicy::Robust)] {
        let (_, report) = cdsf.stage_one(&policy).unwrap();
        let want = golden_f64s(&snap[key]);
        assert_eq!(report.expected_times.len(), want.len());
        for (i, (got, want)) in report.expected_times.iter().zip(&want).enumerate() {
            assert!(
                (got - want).abs() <= GOLDEN_TOL * (1.0 + want.abs()),
                "{key} app {i} expected time drifted: {got} vs golden {want}"
            );
        }
    }
}

#[test]
fn golden_table6_technique_grid() {
    // Must match the snapshot generator: replicates 25, default seed.
    // Per-cell seeding makes the grid independent of the thread count.
    let snap = golden("table6.json");
    let cdsf = paper_cdsf(25);
    let s4 = cdsf
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
        .unwrap();
    let grid = s4.table6(cdsf.batch().len(), paper::NUM_CASES);
    let rows = snap["techniques"].as_array().expect("technique rows");
    assert_eq!(grid.len(), rows.len(), "row count drifted");
    for (i, (got_row, want_row)) in grid.iter().zip(rows).enumerate() {
        let want_row = want_row.as_array().expect("technique row");
        assert_eq!(
            got_row.len(),
            want_row.len(),
            "column count drifted at row {i}"
        );
        for (j, (got, want)) in got_row.iter().zip(want_row).enumerate() {
            let want = want.as_str().map(str::to_owned);
            assert_eq!(
                *got,
                want,
                "Table VI cell (app {}, case {}) drifted",
                i + 1,
                j + 1
            );
        }
    }
}

#[test]
fn dual_stage_hypothesis_ordering() {
    // The paper's usefulness hypothesis: robust-robust tolerates at least
    // as much perturbation as any other scenario, and strictly more than
    // naive-naive.
    let cdsf = paper_cdsf(15);
    let results = cdsf.run_all_scenarios().unwrap();
    let rho2: Vec<f64> = results
        .iter()
        .map(|r| cdsf.system_robustness(r).rho2)
        .collect();
    let s4 = rho2[3];
    for (i, &r) in rho2.iter().enumerate().take(3) {
        assert!(s4 >= r, "scenario 4 ρ2 {s4} < scenario {} ρ2 {r}", i + 1);
    }
    assert!(s4 > rho2[0], "robust-robust must strictly beat naive-naive");
}
