//! Subcommand implementations. Every command returns its full output as a
//! `String` so the logic is unit-testable without capturing stdout.

pub mod advise;
pub mod config;
pub mod correlate;
pub mod events;
pub mod generate;
pub mod paper;
pub mod queue;
pub mod scenarios;
pub mod serve;
pub mod stage1;
pub mod surface;
pub mod sweep;

use crate::args::{Args, CliError};
use cdsf_core::{Cdsf, ImPolicy, SimParams};
use cdsf_workloads::paper as paper_fixture;

/// The `cdsf help` text.
pub fn help_text() -> &'static str {
    "cdsf — Combined Dual-Stage Framework for robust scheduling

USAGE: cdsf <command> [--flag value]... [--json]

COMMANDS:
  paper       reproduce the paper's small-scale example end to end
  stage1      run a Stage-I mapping on the paper instance
              [--allocator NAME (default exhaustive)] [--pulses N] [--deadline D]
  scenarios   run the four scenarios (Figures 3-6)
              [--replicates N] [--dwell T] [--overhead H] [--seed S]
  sweep       availability-decrease sweep of the robustness envelope
              [--steps K] [--max-decrease X] [--replicates N]
  generate    generate a synthetic instance and compare allocators
              [--apps N] [--types K] [--seed S] [--deadline D]
  correlate   φ1 under correlated availability (Gaussian copula)
              [--steps K] [--replicates N] [--allocator NAME]
  surface     φ1 robustness surface over per-type availability scales
              [--steps K] [--min-scale X] [--allocator NAME]
  advise      mean-field screening + targeted simulation
              [--allocator NAME] [--replicates N]
  init-config write a JSON experiment template [--file PATH]
  run-config  run a JSON experiment spec --file PATH
  queue       run a multi-batch queue (paper batch repeated)
              [--batches N] [--replicates R] [--seed S]
  events      run a named online fault scenario (event-driven scheduler)
              [--scenario crash|collapse|stall|drift|mixed] [--seed S]
              [--deadline D] [--remap 0|1] [--threshold P] [--watchdogs N]
              [--allocator NAME] [--pulses N] [--dwell T] [--overhead H]
  serve       run the multi-tenant scheduling service (NDJSON over TCP)
              [--host H] [--port N (0 = ephemeral)] [--shards N]
              [--threads N] [--allocator NAME] [--threshold P]
  help        this text

--allocator NAME, wherever taken: naive | equal-share, robust | exhaustive,
  lattice, gamma-robust, greedy-min-time, greedy-max-robust, sufferage,
  sa | annealing, ga | genetic.

All commands accept --json for machine-readable output."
}

/// Shared: the Stage-I policy named by `--allocator`, resolved through
/// [`ImPolicy::by_name`]; an unknown name is a bad flag value.
pub fn allocator_policy(name: &str) -> Result<ImPolicy, CliError> {
    ImPolicy::by_name(name).ok_or_else(|| CliError::BadValue {
        flag: "--allocator".to_string(),
        value: name.to_string(),
    })
}

/// Shared: builds the paper-fixture CDSF with CLI-tunable simulation
/// parameters.
pub(crate) fn paper_cdsf(args: &Args) -> Result<Cdsf, CliError> {
    let sim = sim_params(args)?;
    let pulses: usize = args.get_parsed("pulses", paper_fixture::DEFAULT_PULSES)?;
    Cdsf::builder()
        .batch(paper_fixture::batch_with_pulses(pulses))
        .reference_platform(paper_fixture::platform())
        .runtime_cases(
            (1..=paper_fixture::NUM_CASES)
                .map(paper_fixture::platform_case)
                .collect(),
        )
        .deadline(args.get_parsed("deadline", paper_fixture::DEADLINE)?)
        .sim_params(sim)
        .build()
        .map_err(|e| CliError::Framework(e.to_string()))
}

/// Shared: simulation parameters from flags.
pub(crate) fn sim_params(args: &Args) -> Result<SimParams, CliError> {
    let defaults = SimParams::default();
    Ok(SimParams {
        replicates: args.get_parsed("replicates", 30usize)?,
        mean_dwell: args.get_parsed("dwell", defaults.mean_dwell)?,
        overhead: args.get_parsed("overhead", defaults.overhead)?,
        seed: args.get_parsed("seed", defaults.seed)?,
        threads: args.get_parsed("threads", defaults.threads)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    #[test]
    fn help_mentions_every_command() {
        for cmd in [
            "paper",
            "stage1",
            "scenarios",
            "sweep",
            "generate",
            "queue",
            "events",
            "correlate",
            "init-config",
            "run-config",
            "advise",
            "surface",
            "serve",
        ] {
            assert!(help_text().contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn sim_params_from_flags() {
        let p = sim_params(&args("scenarios --replicates 7 --dwell 99 --seed 5")).unwrap();
        assert_eq!(p.replicates, 7);
        assert_eq!(p.mean_dwell, 99.0);
        assert_eq!(p.seed, 5);
    }

    #[test]
    fn paper_cdsf_builds() {
        let cdsf = paper_cdsf(&args("paper --pulses 8")).unwrap();
        assert_eq!(cdsf.batch().len(), 3);
        assert_eq!(cdsf.runtime_cases().len(), 4);
    }
}
