//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --seed <n> [--trace] [--out <file>]      # every workload
//! ```
//!
//! One workload runs in this process and prints one JSON object as its
//! last line of output: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics. Without `--workload`, every workload runs in a child
//! process of its own, so peak memory and caches are per workload, and
//! each metric is printed as `workload metric value unit`. Any failed
//! correctness check makes the exit code non-zero. See README.md.

mod dualstage;
mod heap;
mod serve;
mod stats;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Every workload, in run order.
const WORKLOADS: [&str; 5] = ["steady", "churn", "catalog", "remap", "dualstage"];

/// The end-to-end metrics every untraced run reports, with their units.
#[cfg(test)]
const END_TO_END: [(&str, &str); 4] = [
    ("cpu_ms_per_op", "ms"),
    ("phi1_mean", "prob"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// One workload run's result.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// `name value` lines printed before the result: digests and numbers
    /// that are reported but not compared.
    notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The per-layer metrics of layers this workload does not run. A traced
    /// run reports every per-layer metric, so these read 0, and the
    /// `not_run` note names them.
    pub fn not_run(&mut self, layers: &[(&str, &'static str)]) {
        for (name, unit) in layers {
            self.metric(name, 0.0, unit);
        }
        let names: Vec<&str> = layers.iter().map(|l| l.0).collect();
        self.note(format!("not_run {}", names.join(" ")));
    }

    /// A metric built on program counters read by name: when the program
    /// no longer reports one, the metric is dropped with a warning.
    pub fn counter_metric(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => eprintln!("warning: {name} dropped: a counter it reads is not reported"),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn fail_on(&mut self, problems: Vec<String>) {
        for p in problems.iter().take(10) {
            eprintln!("check failed: {p}");
        }
        if !problems.is_empty() {
            self.correct = false;
        }
    }

    /// Whether the run passed, and its result line. A value that is not
    /// finite cannot be written as JSON; it fails the run instead.
    fn result(&self) -> (bool, String) {
        let mut correct = self.correct && self.failed == 0;
        let mut m = String::new();
        for (k, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value + 0.0
            } else {
                eprintln!("check failed: {} is {}", metric.name, metric.value);
                correct = false;
                -1.0
            };
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted.max(1),
            self.failed
        );
        (correct, line)
    }
}

/// How much a run does.
pub struct Sizes {
    /// Length of the timed phase.
    pub seconds: f64,
    /// Serve: stream requests replayed, untimed, before timing starts.
    pub warmup: usize,
    /// Serve: leading requests of the canonical stream whose in-process
    /// replies give `phi1_mean` and the reply digest.
    pub quality: usize,
    /// Dual-stage: instances in the pool, whose φ₁ is reported over every
    /// instance.
    pub pool: usize,
    /// Dual-stage: instances the traced run splits into Stage I and
    /// Stage II.
    pub probe: usize,
}

impl Sizes {
    fn new(seconds: f64, smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                seconds: seconds.min(0.3),
                warmup: 60,
                quality: 60,
                pool: 20,
                probe: 2,
            }
        } else {
            Sizes {
                seconds,
                warmup: 1_000,
                quality: 4_000,
                pool: 200,
                probe: 24,
            }
        }
    }
}

fn run_workload(name: &str, seed: u64, sizes: &Sizes, trace: bool) -> Result<Outcome, String> {
    dualstage::paper_anchor()?;
    if name == "dualstage" {
        return dualstage::run(seed, sizes, trace);
    }
    let w = serve::workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            format!(
                "unknown workload `{name}` (one of {})",
                WORKLOADS.join(", ")
            )
        })?;
    serve::run(&w, seed, sizes, trace)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // A bare `--trace` means `--trace 1`.
            "--trace" => {
                let explicit = matches!(it.peek().map(String::as_str), Some("0" | "1"));
                args.trace = !explicit || it.next().as_deref() == Some("1");
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn single(name: &str, args: &Args) -> ExitCode {
    let sizes = Sizes::new(args.seconds, args.smoke);
    match run_workload(name, args.seed, &sizes, args.trace) {
        Ok(outcome) => {
            let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
            println!("host_threads {threads}");
            for n in &outcome.notes {
                println!("{n}");
            }
            let (passed, line) = outcome.result();
            println!("{line}");
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process and prints its metrics.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut ok = true;
    let mut report = format!(
        "{{\"host_threads\": {threads}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{",
        args.seed, args.seconds, args.trace
    );
    for (k, name) in WORKLOADS.iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {name} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().unwrap_or("");
        let parsed: Option<serde_json::Value> = serde_json::from_str(result).ok();
        ok &= output.status.success();
        let Some(parsed) = parsed else {
            eprintln!("error: {name} printed no result");
            ok = false;
            continue;
        };
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{name} {line}");
        }
        if let Some(metrics) = parsed.get("metrics").and_then(|m| m.as_object()) {
            for (metric, v) in metrics.iter() {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                println!("{name} {metric} {value} {unit}");
            }
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(report, "{sep}\"{name}\": {result}");
    }
    report.push_str("}}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a workload failed its checks");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => single(name, &args),
        None => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_of_every_workload() {
        let sizes = Sizes::new(0.2, true);
        let layers: Vec<(&str, &str)> = serve::LAYERS
            .iter()
            .chain(&dualstage::LAYERS)
            .copied()
            .collect();
        for name in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(name, 7, &sizes, trace).unwrap();
                assert!(out.correct, "{name} trace={trace}");
                assert_eq!(out.failed, 0, "{name}");
                assert!(out.result().0, "{name}");
                // A traced run reports every per-layer metric once, with
                // its unit, whichever layers the workload runs; an
                // untraced run every end-to-end metric.
                let mut got: Vec<(&str, &str)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit))
                    .collect();
                let mut want = if trace {
                    layers.clone()
                } else {
                    END_TO_END.to_vec()
                };
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{name} trace={trace}");
            }
        }
    }
}
