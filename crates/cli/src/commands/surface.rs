//! `cdsf surface` — the φ1 robustness surface over per-type availability
//! scales.

use crate::args::{Args, CliError};
use crate::commands::paper_cdsf;
use cdsf_core::report::pct;
use cdsf_core::AsciiTable;
use cdsf_ra::surface::{diagonal_tolerance, robustness_surface, surface_to_csv};

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let steps: usize = args.get_parsed("steps", 5usize)?;
    if steps < 2 {
        return Err(CliError::BadValue {
            flag: "--steps".into(),
            value: steps.to_string(),
        });
    }
    let min_scale: f64 = args.get_parsed("min-scale", 0.4f64)?;
    if !(min_scale > 0.0 && min_scale < 1.0) {
        return Err(CliError::BadValue {
            flag: "--min-scale".into(),
            value: min_scale.to_string(),
        });
    }
    let err = |e: String| CliError::Framework(e);

    let cdsf = paper_cdsf(args)?;
    let allocator = args.get("allocator").unwrap_or("exhaustive");
    let policy = super::allocator_policy(allocator)?;
    let (alloc, _) = cdsf.stage_one(&policy).map_err(|e| err(e.to_string()))?;

    let scales: Vec<f64> = (0..steps)
        .map(|k| min_scale + (1.0 - min_scale) * k as f64 / (steps - 1) as f64)
        .collect();
    let surface = robustness_surface(
        cdsf.batch(),
        cdsf.reference(),
        &alloc,
        cdsf.deadline(),
        &scales,
    )
    .map_err(|e| err(e.to_string()))?;

    if args.json() {
        // CSV is the natural machine format for a surface; --json emits it
        // wrapped in a JSON object for uniformity.
        let payload = serde_json::json!({
            "allocator": allocator,
            "csv": surface_to_csv(&surface),
        });
        return serde_json::to_string_pretty(&payload)
            .map_err(|e| CliError::Framework(e.to_string()));
    }

    // Render the 2-type case as a grid table; higher dimensions fall back
    // to CSV.
    if cdsf.reference().num_types() != 2 {
        return Ok(surface_to_csv(&surface));
    }
    let mut headers = vec!["type1 \\ type2".to_string()];
    headers.extend(scales.iter().map(|s| format!("{s:.2}")));
    let mut table = AsciiTable::new(headers).title(format!(
        "φ1 surface for the {allocator} mapping (rows: type-1 scale, cols: type-2 scale)"
    ));
    for &s1 in &scales {
        let mut row = vec![format!("{s1:.2}")];
        for &s2 in &scales {
            let p = surface
                .iter()
                .find(|pt| pt.scales == vec![s1, s2])
                .expect("full grid");
            row.push(pct(p.phi1));
        }
        table.row(row);
    }
    let tol = diagonal_tolerance(
        cdsf.batch(),
        cdsf.reference(),
        &alloc,
        cdsf.deadline(),
        0.5,
        40,
    )
    .map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "{table}\nlargest uniform availability decrease keeping φ1 ≥ 50%: {}\n",
        pct(tol)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    #[test]
    fn surface_renders_grid() {
        let out = run(&args("surface --pulses 8 --steps 3")).unwrap();
        assert!(out.contains("φ1 surface"), "{out}");
        assert!(out.contains("uniform availability decrease"), "{out}");
    }

    #[test]
    fn surface_json_carries_csv() {
        let out = run(&args("surface --pulses 8 --steps 3 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["csv"].as_str().unwrap().starts_with("scale_type1"));
    }

    #[test]
    fn surface_validates_flags() {
        assert!(run(&args("surface --steps 1")).is_err());
        assert!(run(&args("surface --min-scale 0")).is_err());
        assert!(run(&args("surface --min-scale 1.2")).is_err());
    }
}
