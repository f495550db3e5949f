//! `cdsf events` — run a named online fault scenario through the
//! event-driven scheduler and report robustness metrics.

use crate::args::{Args, CliError};
use cdsf_core::report::pct;
use cdsf_core::AsciiTable;
use cdsf_events::{EngineConfig, EventEngine, LogEntry, RunReport};
use cdsf_workloads::faults;
use serde::Serialize;

#[derive(Serialize)]
struct EventsJson {
    scenario: String,
    deadline: f64,
    seed: u64,
    remap: bool,
    report: RunReport,
}

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let scenario = args.get("scenario").unwrap_or("crash").to_string();
    let Some(plan) = faults::scenario(&scenario) else {
        return Err(CliError::BadValue {
            flag: "--scenario".to_string(),
            value: format!(
                "{scenario} (known: {})",
                faults::scenario_names().join(", ")
            ),
        });
    };
    let pulses: usize = args.get_parsed("pulses", faults::SCENARIO_PULSES)?;
    let deadline: f64 = args.get_parsed("deadline", faults::SCENARIO_DEADLINE)?;

    let mut cfg = EngineConfig::new(deadline);
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    cfg.mean_dwell = args.get_parsed("dwell", cfg.mean_dwell)?;
    cfg.overhead = args.get_parsed("overhead", cfg.overhead)?;
    cfg.watchdog_checks = args.get_parsed("watchdogs", cfg.watchdog_checks)?;
    cfg.phi1_threshold = args.get_parsed("threshold", cfg.phi1_threshold)?;
    cfg.threads = args.get_parsed("threads", cfg.threads)?;
    cfg.remap = args.get_parsed("remap", 1u8)? != 0;
    if let Some(name) = args.get("allocator") {
        cfg.allocator = super::allocator_policy(name)?;
    }

    let batch = cdsf_workloads::paper::batch_with_pulses(pulses);
    let platform = cdsf_workloads::paper::platform();
    let report = EventEngine::new(&batch, &platform, &plan, &cfg)
        .map_err(|e| CliError::Framework(e.to_string()))?
        .run()
        .map_err(|e| CliError::Framework(e.to_string()))?;

    if args.json() {
        let out = EventsJson {
            scenario,
            deadline,
            seed: cfg.seed,
            remap: cfg.remap,
            report,
        };
        return serde_json::to_string_pretty(&out).map_err(|e| CliError::Framework(e.to_string()));
    }

    let m = &report.metrics;
    let mut table = AsciiTable::new(["App", "Arrival", "End", "Outcome"]).title(format!(
        "Online scenario `{scenario}` (Δ = {deadline}, remap {}): hit rate {}, \
         {} remap(s), {} clamp(s), wasted work {:.1}",
        if cfg.remap { "on" } else { "off" },
        pct(m.deadline_hit_rate),
        m.remap_count,
        m.clamp_count,
        m.wasted_work,
    ));
    for o in &m.per_app {
        table.row([
            (o.app + 1).to_string(),
            format!("{:.0}", o.arrival),
            format!("{:.1}", o.end),
            o.outcome.clone(),
        ]);
    }
    let mut out = table.to_string();
    out.push_str(&format!(
        "\n{} log events; faults seen: {}\n",
        report.log.len(),
        report
            .log
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.entry,
                    LogEntry::Crash { .. }
                        | LogEntry::Collapse { .. }
                        | LogEntry::StallStart { .. }
                        | LogEntry::Drift { .. }
                )
            })
            .count()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    #[test]
    fn crash_scenario_renders_a_table() {
        let out = run(&args("events --threads 2")).unwrap();
        assert!(out.contains("Online scenario `crash`"), "{out}");
        assert!(out.contains("finished"), "{out}");
    }

    #[test]
    fn json_output_round_trips() {
        let out = run(&args("events --scenario stall --threads 2 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["scenario"], "stall");
        assert_eq!(v["report"]["metrics"]["apps"].as_u64(), Some(3));
    }

    #[test]
    fn remap_flag_disables_reaction() {
        let out = run(&args("events --remap 0 --threads 2 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["remap"], false);
        assert_eq!(v["report"]["metrics"]["remap_count"].as_u64(), Some(0));
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(matches!(
            run(&args("events --scenario nope")),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_allocator_is_an_error() {
        assert!(matches!(
            run(&args("events --allocator nope")),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn every_named_scenario_runs() {
        for name in faults::scenario_names() {
            let out = run(&args(&format!("events --scenario {name} --threads 2")));
            assert!(out.is_ok(), "{name}: {out:?}");
        }
    }
}
