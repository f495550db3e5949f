//! Regression suite for the online event engine: deterministic replay,
//! remapping payoff on the canonical crash scenario, and the golden pin.

use cdsf_events::{EngineConfig, EventEngine, LogEntry, RunReport};
use cdsf_workloads::faults::{self, SCENARIO_DEADLINE, SCENARIO_PULSES};

/// Runs a named scenario at the canonical settings.
fn run_scenario(name: &str, remap: bool, seed: u64, threads: usize) -> RunReport {
    let (batch, platform, plan) =
        cdsf_events::paper_scenario(name, SCENARIO_PULSES).expect("named scenario resolves");
    let mut cfg = EngineConfig::new(SCENARIO_DEADLINE);
    cfg.remap = remap;
    cfg.seed = seed;
    cfg.threads = threads;
    EventEngine::new(&batch, &platform, &plan, &cfg)
        .expect("scenario validates")
        .run()
        .expect("scenario runs")
}

/// Identical seed and configuration must reproduce the event log
/// byte-for-byte — the replay contract.
#[test]
fn identical_seeds_replay_byte_identically() {
    for name in faults::scenario_names() {
        let a = run_scenario(name, true, 0xCD5F, 2);
        let b = run_scenario(name, true, 0xCD5F, 2);
        assert_eq!(
            a.log.to_json().unwrap(),
            b.log.to_json().unwrap(),
            "scenario `{name}` log not reproducible"
        );
        assert_eq!(a.metrics, b.metrics, "scenario `{name}` metrics drifted");
    }
}

/// The φ₁-engine thread count is an implementation detail and must never
/// leak into results.
#[test]
fn thread_count_never_affects_the_log() {
    let a = run_scenario("mixed", true, 7, 1);
    let b = run_scenario("mixed", true, 7, 4);
    assert_eq!(a.log.to_json().unwrap(), b.log.to_json().unwrap());
}

/// A different seed gives a genuinely different run (sessions resample).
#[test]
fn different_seeds_diverge() {
    let a = run_scenario("crash", true, 1, 2);
    let b = run_scenario("crash", true, 2, 2);
    assert_ne!(a.log.to_json().unwrap(), b.log.to_json().unwrap());
}

/// The headline claim of the online layer: on the canonical crash scenario
/// (three of four Type-1 processors lost at t = 600), reactive Stage-I
/// remapping achieves a strictly higher deadline-hit rate than the static
/// clamp-to-capacity baseline.
#[test]
fn remapping_beats_static_handling_on_canonical_crash() {
    let reactive = run_scenario("crash", true, 0xCD5F, 2);
    let static_ = run_scenario("crash", false, 0xCD5F, 2);
    assert!(
        reactive.metrics.deadline_hit_rate > static_.metrics.deadline_hit_rate,
        "reactive {} <= static {}",
        reactive.metrics.deadline_hit_rate,
        static_.metrics.deadline_hit_rate
    );
    assert_eq!(reactive.metrics.finished, 3, "reactive run saves every app");
    assert!(reactive.metrics.remap_count >= 1);
    assert_eq!(static_.metrics.remap_count, 0);
    assert!(
        static_.metrics.dropped >= 1,
        "the static baseline must lose at least one app to the crash"
    );
}

/// Asserts that the canonical report of scenario `name` equals
/// `tests/golden/events_<name>.json` byte for byte (regenerate with the
/// `golden_snapshot` binary of `cdsf-bench` on intentional changes).
fn assert_report_matches_golden(name: &str) {
    let report = run_scenario(name, true, 0xCD5F, 4);
    let mut actual = serde_json::to_string_pretty(&report).unwrap();
    actual.push('\n');
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../tests/golden/events_{name}.json"));
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(
        actual, golden,
        "`{name}` report drifted from tests/golden/events_{name}.json"
    );
}

/// The canonical crash report is pinned byte-for-byte.
#[test]
fn canonical_crash_report_matches_golden() {
    assert_report_matches_golden("crash");
}

/// Every other named scenario is pinned the same way: their sessions
/// interrupt chunks mid-flight (`work_between` on a live timeline), stall
/// and drift, which the crash alone does not cover.
#[test]
fn every_other_scenario_report_matches_golden() {
    for &name in faults::scenario_names() {
        if name != "crash" {
            assert_report_matches_golden(name);
        }
    }
}

/// Stall scenarios are transient: the watchdog division of labor means the
/// run still terminates every application and logs the stall window.
#[test]
fn stall_scenario_logs_a_bounded_window() {
    let report = run_scenario("stall", true, 0xCD5F, 2);
    let mut start = None;
    let mut end = None;
    for r in &report.log.records {
        match r.entry {
            LogEntry::StallStart { .. } => start = Some(r.time),
            LogEntry::StallEnd { .. } => end = Some(r.time),
            _ => {}
        }
    }
    let (s, e) = (start.expect("stall starts"), end.expect("stall ends"));
    assert!(e > s);
    assert_eq!(
        report.metrics.finished + report.metrics.missed + report.metrics.dropped,
        report.metrics.apps
    );
}

/// Disabling the φ₁ trigger leaves the crash (fault) trigger intact.
#[test]
fn crash_trigger_survives_disabled_phi1_threshold() {
    let (batch, platform, plan) = cdsf_events::paper_scenario("crash", SCENARIO_PULSES).unwrap();
    let mut cfg = EngineConfig::new(SCENARIO_DEADLINE);
    cfg.phi1_threshold = 0.0;
    cfg.threads = 2;
    let report = EventEngine::new(&batch, &platform, &plan, &cfg)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.metrics.remap_count >= 1);
}
