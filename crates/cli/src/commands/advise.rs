//! `cdsf advise` — mean-field screening + targeted simulation.

use crate::args::{Args, CliError};
use crate::commands::paper_cdsf;
use cdsf_core::advisor::{Advisor, VerdictSource};
use cdsf_core::report::pct;
use cdsf_core::{AsciiTable, RasPolicy};

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let cdsf = paper_cdsf(args)?;
    let im = super::allocator_policy(args.get("allocator").unwrap_or("robust"))?;
    let advice = Advisor::default()
        .advise(&cdsf, &im, &RasPolicy::Robust)
        .map_err(|e| CliError::Framework(e.to_string()))?;

    if args.json() {
        return serde_json::to_string_pretty(&advice)
            .map_err(|e| CliError::Framework(e.to_string()));
    }

    let mut table =
        AsciiTable::new(["App", "Case", "Verdict", "Source", "Recommendation"]).title(format!(
            "Advice on [{}] (φ1 = {}): {} cells screened, {} simulated",
            advice.allocation,
            pct(advice.phi1),
            advice.screened,
            advice.simulated
        ));
    for cell in &advice.cells {
        table.row([
            (cell.app + 1).to_string(),
            cell.case.to_string(),
            if cell.meets_deadline {
                "meets Δ"
            } else {
                "VIOLATES"
            }
            .to_string(),
            match cell.source {
                VerdictSource::MeanField => "mean-field".to_string(),
                VerdictSource::Simulation => "simulation".to_string(),
            },
            cell.recommended_technique
                .clone()
                .unwrap_or_else(|| "-".to_string()),
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
    fn advise_produces_grid() {
        let out = run(&args("advise --pulses 8 --replicates 3")).unwrap();
        assert!(out.contains("screened"), "{out}");
        assert!(out.contains("mean-field"), "{out}");
    }

    #[test]
    fn advise_json() {
        let out = run(&args("advise --pulses 8 --replicates 3 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["cells"].as_array().unwrap().len(), 12);
    }
}
