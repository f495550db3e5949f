//! `cdsf stage1` — run one Stage-I mapping on the paper instance.

use crate::args::{Args, CliError};
use crate::commands::{allocator_policy, paper_cdsf};
use cdsf_core::report::pct;
use cdsf_core::AsciiTable;
use serde::Serialize;

#[derive(Serialize)]
struct Stage1Json {
    allocator: String,
    phi1: f64,
    per_app_prob: Vec<f64>,
    expected_times: Vec<f64>,
    assignments: Vec<(usize, u32)>, // (type index, procs)
    /// FePIA robustness radii (availability units) per application.
    radius: Vec<f64>,
    system_radius: f64,
}

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let name = args.get("allocator").unwrap_or("exhaustive").to_string();
    let policy = allocator_policy(&name)?;
    let cdsf = paper_cdsf(args)?;
    let (alloc, report) = cdsf
        .stage_one(&policy)
        .map_err(|e| CliError::Framework(e.to_string()))?;
    let radius =
        cdsf_ra::radius::robustness_radius(cdsf.batch(), cdsf.reference(), &alloc, cdsf.deadline())
            .map_err(|e| CliError::Framework(e.to_string()))?;

    if args.json() {
        let out = Stage1Json {
            allocator: name,
            phi1: report.joint,
            per_app_prob: report.per_app.clone(),
            expected_times: report.expected_times.clone(),
            assignments: alloc
                .assignments()
                .iter()
                .map(|a| (a.proc_type.0, a.procs))
                .collect(),
            radius: radius.radius.clone(),
            system_radius: radius.system_radius,
        };
        return serde_json::to_string_pretty(&out).map_err(|e| CliError::Framework(e.to_string()));
    }

    let mut table =
        AsciiTable::new(["App", "Type", "Procs", "Pr(T ≤ Δ)", "E[T]", "radius"]).title(format!(
            "Stage-I mapping ({name}), φ1 = {}, FePIA system radius = {:.3}",
            pct(report.joint),
            radius.system_radius
        ));
    for (i, asg) in alloc.assignments().iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            (asg.proc_type.0 + 1).to_string(),
            asg.procs.to_string(),
            pct(report.per_app[i]),
            format!("{:.1}", report.expected_times[i]),
            format!("{:.3}", radius.radius[i]),
        ]);
    }
    Ok(table.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    #[test]
    fn default_is_exhaustive_and_matches_paper() {
        let out = run(&args("stage1 --pulses 32 --replicates 2")).unwrap();
        assert!(out.contains("exhaustive"));
        assert!(out.contains("74."), "{out}");
    }

    #[test]
    fn json_output_parses() {
        let out = run(&args("stage1 --pulses 16 --allocator sufferage --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["allocator"], "sufferage");
        assert!(v["phi1"].as_f64().unwrap() > 0.0);
        assert_eq!(v["assignments"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn unknown_allocator_is_an_error() {
        assert!(matches!(
            run(&args("stage1 --allocator nope")),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn lattice_matches_exhaustive_on_the_paper_instance() {
        let ex = run(&args("stage1 --pulses 32 --allocator exhaustive --json")).unwrap();
        let la = run(&args("stage1 --pulses 32 --allocator lattice --json")).unwrap();
        let ex: serde_json::Value = serde_json::from_str(&ex).unwrap();
        let la: serde_json::Value = serde_json::from_str(&la).unwrap();
        assert_eq!(ex["assignments"], la["assignments"]);
        assert_eq!(ex["phi1"], la["phi1"]);
    }
}
