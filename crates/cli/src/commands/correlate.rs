//! `cdsf correlate` — availability-correlation sweep (paper future work).

use crate::args::{Args, CliError};
use cdsf_core::report::pct;
use cdsf_core::AsciiTable;
use cdsf_ra::correlation::correlation_sweep;
use cdsf_ra::robustness::MonteCarloConfig;
use serde::Serialize;

#[derive(Serialize)]
struct CorrelatePoint {
    rho: f64,
    phi1_independent_within_type: f64,
    phi1_shared_within_type: f64,
}

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let steps: usize = args.get_parsed("steps", 4usize)?;
    if steps == 0 {
        return Err(CliError::BadValue {
            flag: "--steps".into(),
            value: "0".into(),
        });
    }
    let replicates: usize = args.get_parsed("replicates", 100_000usize)?;
    let allocator = args.get("allocator").unwrap_or("exhaustive").to_string();
    let err = |e: String| CliError::Framework(e);

    let cdsf = super::paper_cdsf(args)?;
    let policy = super::allocator_policy(&allocator)?;
    let (alloc, report) = cdsf.stage_one(&policy).map_err(|e| err(e.to_string()))?;

    let rhos: Vec<f64> = (0..=steps).map(|k| k as f64 / steps as f64).collect();
    let cfg = MonteCarloConfig {
        replicates,
        threads: 1,
        seed: args.get_parsed("seed", 2718u64)?,
    };
    let batch = cdsf.batch();
    let platform = cdsf.reference();
    let indep = correlation_sweep(batch, platform, &alloc, cdsf.deadline(), &rhos, false, &cfg)
        .map_err(|e| err(e.to_string()))?;
    let shared = correlation_sweep(batch, platform, &alloc, cdsf.deadline(), &rhos, true, &cfg)
        .map_err(|e| err(e.to_string()))?;

    let points: Vec<CorrelatePoint> = indep
        .iter()
        .zip(&shared)
        .map(|(&(rho, pi), &(_, ps))| CorrelatePoint {
            rho,
            phi1_independent_within_type: pi,
            phi1_shared_within_type: ps,
        })
        .collect();

    if args.json() {
        return serde_json::to_string_pretty(&points)
            .map_err(|e| CliError::Framework(e.to_string()));
    }

    let mut table = AsciiTable::new(["ρ", "φ1 (indep. within type)", "φ1 (shared within type)"])
        .title(format!(
            "Correlated availability on the {allocator} mapping (independence φ1 = {})",
            pct(report.joint)
        ));
    for p in &points {
        table.row([
            format!("{:.2}", p.rho),
            pct(p.phi1_independent_within_type),
            pct(p.phi1_shared_within_type),
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
    fn correlate_produces_sweep() {
        let out = run(&args("correlate --steps 2 --replicates 5000 --pulses 8")).unwrap();
        assert!(out.contains("0.50"), "{out}");
    }

    #[test]
    fn correlate_json() {
        let out = run(&args(
            "correlate --steps 2 --replicates 5000 --pulses 8 --allocator equal-share --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 3);
    }

    #[test]
    fn correlate_rejects_zero_steps() {
        assert!(run(&args("correlate --steps 0")).is_err());
    }
}
