//! Regenerates the golden regression snapshots under `tests/golden/`.
//!
//! The snapshots freeze the paper-reproduction outputs (Tables IV, V and
//! VI) at the library-default simulation seed so `tests/paper_reproduction.rs`
//! can detect any behavioural drift in the Stage-I engine or the Stage-II
//! simulation, every `CellResult` of two Stage-II grids (pinned bit for bit
//! by `crates/bench/tests/stage2_golden.rs`), plus the report of every
//! named online fault scenario (`events_<name>.json`) pinned by the
//! `cdsf-events` regression suite.
//! Run this binary only when an intentional change shifts the reproduced
//! numbers:
//!
//! ```sh
//! cargo run --release -p cdsf-bench --bin golden_snapshot
//! ```
//!
//! CI runs it after the tests and fails on any diff under `tests/golden`,
//! so every snapshot it writes is an exact check.

use cdsf_bench::{golden_sim_params, paper_cdsf, stage2_golden_grids};
use cdsf_core::{ImPolicy, RasPolicy};
use cdsf_events::{EngineConfig, EventEngine};
use cdsf_workloads::{faults, paper};
use serde_json::{json, Value};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn main() {
    let cdsf = paper_cdsf(golden_sim_params());

    let (naive_alloc, naive_report) = cdsf.stage_one(&ImPolicy::Naive).expect("naive stage one");
    let (robust_alloc, robust_report) =
        cdsf.stage_one(&ImPolicy::Robust).expect("robust stage one");

    let alloc_json = |alloc: &cdsf_ra::Allocation| -> Value {
        Value::Array(
            alloc
                .assignments()
                .iter()
                .map(|a| json!([a.proc_type.0, a.procs]))
                .collect(),
        )
    };

    let table4 = json!({
        "naive": json!({
            "allocation": alloc_json(&naive_alloc),
            "per_app": naive_report.per_app,
            "phi1": naive_report.joint,
        }),
        "robust": json!({
            "allocation": alloc_json(&robust_alloc),
            "per_app": robust_report.per_app,
            "phi1": robust_report.joint,
        }),
    });

    let table5 = json!({
        "naive": naive_report.expected_times,
        "robust": robust_report.expected_times,
    });

    let result = cdsf
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
        .expect("scenario 4 runs");
    let table6 = json!({
        "techniques": result.table6(cdsf.batch().len(), paper::NUM_CASES),
    });

    // Every named online fault scenario at the canonical settings
    // (reactive remapping on), the canonical crash among them. The full
    // report (event log + metrics) is pinned byte-for-byte.
    let events: Vec<(String, Value)> = faults::scenario_names()
        .iter()
        .map(|&name| {
            let (batch, platform, plan) =
                cdsf_events::paper_scenario(name, faults::SCENARIO_PULSES).expect("named scenario");
            let mut events_cfg = EngineConfig::new(faults::SCENARIO_DEADLINE);
            events_cfg.threads = 4;
            let report = EventEngine::new(&batch, &platform, &plan, &events_cfg)
                .expect("scenario validates")
                .run()
                .expect("scenario runs");
            (format!("events_{name}.json"), serde_json::to_value(&report))
        })
        .collect();

    let mut stage2_cells = serde_json::Map::new();
    for (name, cells) in stage2_golden_grids() {
        stage2_cells.insert(name.to_string(), serde_json::to_value(&cells));
    }
    let stage2_cells = Value::Object(stage2_cells);

    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    let tables = [
        ("table4.json", &table4),
        ("table5.json", &table5),
        ("table6.json", &table6),
        ("stage2_cells.json", &stage2_cells),
    ];
    let events = events.iter().map(|(name, value)| (name.as_str(), value));
    for (name, value) in tables.into_iter().chain(events) {
        let path = dir.join(name);
        let pretty = serde_json::to_string_pretty(value).expect("serialize golden value");
        std::fs::write(&path, format!("{pretty}\n")).expect("write golden file");
        println!("wrote {}", path.display());
    }
}
