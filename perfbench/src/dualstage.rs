//! The offline dual-stage workload: a pool of seeded instances, each through
//! `Cdsf::run_scenario` with the exact lattice Stage I and the robust
//! Stage-II DLS set, with no protocol, shard or cache layer in between.

use crate::serve;
use crate::stats::{self, mix};
use crate::{heap, Outcome, Sizes, SETUP_REPS};
use cdsf_core::simulation::simulate_grid;
use cdsf_core::{Cdsf, ImPolicy, RasPolicy, ScenarioResult, SimParams};
use cdsf_system::{Batch, Platform};
use cdsf_workloads::generators::{degraded_case, BatchGenerator, PlatformGenerator};
use cdsf_workloads::paper;
use std::time::Instant;

/// Common deadline Δ of the dual-stage instances.
const DEADLINE: f64 = 4_000.0;
const APPS: usize = 8;
const TYPES: usize = 4;
const PULSES: usize = 16;
/// Weighted-availability losses of the runtime cases after the reference.
const DECREASES: [f64; 3] = [0.10, 0.25, 0.40];
const REPLICATES: usize = 5;
/// Stage-II simulation threads, written out like the server's.
const SIM_THREADS: usize = 2;
/// Seed of the instance pool every run cycles through; the run seed
/// picks where in the pool a run starts. Seeding the pool itself would
/// give each run its own instances, and they, not the code under test,
/// would then set every number.
const CATALOG_SEED: u64 = 42;
/// Instances at the start of the pool that set-up runs once, untimed, the
/// same for every seed, as the service workloads warm up on the start of
/// their stream. Generating the pool alone takes about 20 ms of CPU, which
/// reads one of two levels a third apart from run to run; the warm-up is
/// the same steady work as the timed loop and makes set-up ten times as
/// long.
const WARMUP: usize = 8;

/// The per-layer metrics of the offline pipeline, with their units. A
/// traced service run, which never runs Stage II, reports them as 0.
pub const LAYERS: [(&str, &str); 8] = [
    ("stage1.us", "us"),
    ("stage1.engine_us", "us"),
    ("stage1.alloc_us", "us"),
    ("stage2.us", "us"),
    ("stage1.share", "share"),
    ("stage2.share", "share"),
    ("stage2.rho2_mean", "ratio"),
    ("trace.closure_ratio", "ratio"),
];

fn lattice() -> ImPolicy {
    ImPolicy::by_name("lattice").expect("the lattice allocator is shipped")
}

/// A framework instance over `(batch, platform)`: the reference case plus
/// three degraded runtime cases.
fn instance(batch: Batch, platform: Platform, deadline: f64, seed: u64) -> Result<Cdsf, String> {
    let mut cases = vec![platform.clone()];
    for (k, d) in DECREASES.iter().enumerate() {
        let (case, _) =
            degraded_case(&platform, *d, mix(seed, k as u64)).map_err(|e| e.to_string())?;
        cases.push(case);
    }
    Cdsf::builder()
        .batch(batch)
        .reference_platform(platform)
        .runtime_cases(cases)
        .deadline(deadline)
        .sim_params(SimParams {
            replicates: REPLICATES,
            threads: SIM_THREADS,
            ..SimParams::default()
        })
        .build()
        .map_err(|e| e.to_string())
}

/// Instance `i` of the run seeded `seed`: 8 applications on 4 processor
/// types of 8–16 processors each, 16-pulse PMFs.
fn generated(seed: u64, i: u64) -> Result<Cdsf, String> {
    let platform = PlatformGenerator {
        num_types: TYPES,
        procs_per_type: (8, 16),
        ..PlatformGenerator::default()
    }
    .generate(mix(seed, 3 * i))
    .map_err(|e| e.to_string())?;
    let batch = BatchGenerator {
        num_apps: APPS,
        pulses: PULSES,
        ..BatchGenerator::default()
    }
    .generate(&platform, mix(seed, 3 * i + 1))
    .map_err(|e| e.to_string())?;
    instance(batch, platform, DEADLINE, mix(seed, 3 * i + 2))
}

/// φ₁ and ρ₂ of one scenario, after checking that φ₁ is a probability and
/// that the allocation gives every application a power-of-two processor
/// count.
fn score(c: &Cdsf, r: &ScenarioResult) -> Result<(f64, f64), String> {
    if !stats::is_probability(r.phi1) {
        return Err(format!("φ₁ = {} is not a probability", r.phi1));
    }
    let asg = r.allocation.assignments();
    if asg.len() != APPS {
        return Err(format!("{} assignments for {APPS} applications", asg.len()));
    }
    if let Some(a) = asg.iter().find(|a| !a.procs.is_power_of_two()) {
        return Err(format!("{} processors is not a power of two", a.procs));
    }
    Ok((r.phi1, c.system_robustness(r).rho2))
}

/// The paper's Section IV example must keep its anchor: φ₁ = 74.6% with
/// the allocation 2×T1 / 2×T1 / 8×T2.
pub fn paper_anchor() -> Result<(), String> {
    let cdsf = Cdsf::builder()
        .batch(paper::batch())
        .reference_platform(paper::platform())
        .deadline(paper::DEADLINE)
        .sim_params(SimParams {
            threads: SIM_THREADS,
            ..SimParams::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    let (alloc, report) = cdsf.stage_one(&lattice()).map_err(|e| e.to_string())?;
    let got: Vec<(usize, u32)> = alloc
        .assignments()
        .iter()
        .map(|a| (a.proc_type.0, a.procs))
        .collect();
    if (report.joint * 1_000.0).round() != 746.0 || got != [(0, 2), (0, 2), (1, 8)] {
        return Err(format!(
            "paper anchor moved: φ₁ = {:.4}, allocation {got:?} (want 0.746, [(0, 2), (0, 2), (1, 8)])",
            report.joint
        ));
    }
    Ok(())
}

/// Stage I and Stage II timed apart on the first `limit` instances of the
/// pool: `stage_one` with the lattice, `stage_one` with equal shares (an
/// engine build plus one evaluation, so the engine layer's cost; instances
/// where equal shares find no allocation are skipped), `simulate_grid` on
/// the lattice allocation, and the whole `run_scenario` for the closure
/// check.
fn pipeline_split(pool: &[Cdsf], limit: usize, out: &mut Outcome) -> Result<(), String> {
    let (mut s1, mut engine, mut s2, mut whole, mut rho2) =
        (vec![], vec![], vec![], vec![], vec![]);
    let lattice = lattice();
    let techniques = RasPolicy::Robust.techniques();
    let err = |e: cdsf_core::CoreError| e.to_string();
    for c in pool {
        if s1.len() == limit {
            break;
        }
        let t = Instant::now();
        let (alloc, _) = c.stage_one(&lattice).map_err(err)?;
        let t1 = Instant::now();
        if c.stage_one(&ImPolicy::Naive).is_err() {
            continue;
        }
        engine.push(t1.elapsed().as_secs_f64() * 1e6);
        s1.push((t1 - t).as_secs_f64() * 1e6);
        let t = Instant::now();
        simulate_grid(
            c.batch(),
            &alloc,
            c.runtime_cases(),
            &techniques,
            c.deadline(),
            c.sim_params(),
        )
        .map_err(err)?;
        s2.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let r = c.run_scenario(&lattice, &RasPolicy::Robust).map_err(err)?;
        whole.push(t.elapsed().as_secs_f64() * 1e6);
        rho2.push(c.system_robustness(&r).rho2);
    }
    if s1.is_empty() {
        return Err("no instance of the pool has an equal-share allocation".into());
    }
    let (s1m, s2m) = (stats::mean(&s1), stats::mean(&s2));
    let closure = (s1.iter().sum::<f64>() + s2.iter().sum::<f64>()) / whole.iter().sum::<f64>();
    if !(0.9..=1.1).contains(&closure) {
        eprintln!("warning: stage1 + stage2 is {closure:.3}× run_scenario, outside 0.9–1.1");
    }
    out.metric("stage1.us", s1m, "us");
    out.metric("stage1.engine_us", stats::mean(&engine), "us");
    out.metric("stage1.alloc_us", s1m - stats::mean(&engine), "us");
    out.metric("stage2.us", s2m, "us");
    out.metric("stage1.share", s1m / (s1m + s2m), "share");
    out.metric("stage2.share", s2m / (s1m + s2m), "share");
    out.metric("stage2.rho2_mean", stats::mean(&rho2), "ratio");
    out.metric("trace.closure_ratio", closure, "ratio");
    Ok(())
}

pub fn run(seed: u64, sizes: &Sizes, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pool_len = sizes.pool.max(1);
    // The host reference, before set-up, before the timed loop and after.
    let mut host_ms = vec![stats::reference_ms()];
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let lattice = lattice();
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPS {
        // The previous pool goes first, so no two are ever held.
        pool.clear();
        let (t, cpu) = (Instant::now(), stats::process_cpu_s());
        pool = (0..pool_len as u64)
            .map(|i| generated(CATALOG_SEED, i))
            .collect::<Result<Vec<_>, _>>()?;
        for (idx, c) in pool.iter().enumerate().take(WARMUP) {
            c.run_scenario(&lattice, &RasPolicy::Robust)
                .map_err(|e| format!("warm-up instance {idx} failed: {e}"))?;
        }
        setup_s.push(stats::process_cpu_s() - cpu);
        setup_wall_s.push(t.elapsed().as_secs_f64());
    }
    host_ms.push(stats::reference_ms());

    let mut problems = Vec::new();
    let mut latencies = Vec::new();
    let (mut phi1, mut rho2) = (vec![None; pool_len], vec![None; pool_len]);
    let mut failed = 0u64;
    // CPU time of each run, by pool instance.
    let mut cpu_s = vec![Vec::new(); pool_len];
    let start = (mix(seed, 0) % pool_len as u64) as usize;
    let t0 = Instant::now();
    let stop = t0 + std::time::Duration::from_secs_f64(sizes.seconds);
    let mut last_end = t0;
    let mut k = 0;
    while Instant::now() < stop {
        let idx = (start + k) % pool_len;
        let (t, cpu) = (Instant::now(), stats::process_cpu_s());
        let result = pool[idx].run_scenario(&lattice, &RasPolicy::Robust);
        cpu_s[idx].push(stats::process_cpu_s() - cpu);
        let end = Instant::now();
        latencies.push((end - t).as_secs_f64() * 1e3);
        last_end = end;
        match result {
            Ok(r) => match score(&pool[idx], &r) {
                Ok((p, q)) => (phi1[idx], rho2[idx]) = (Some(p), Some(q)),
                Err(e) => problems.push(format!("instance {idx}: {e}")),
            },
            Err(e) => {
                failed += 1;
                problems.push(format!("instance {idx} failed: {e}"));
            }
        }
        k += 1;
    }
    host_ms.push(stats::reference_ms());
    let host_ms = stats::median(&host_ms);
    // Instances the timed loop did not reach run untimed, so φ₁ always
    // covers the whole pool.
    for idx in 0..pool_len {
        if phi1[idx].is_none() {
            let r = pool[idx]
                .run_scenario(&lattice, &RasPolicy::Robust)
                .map_err(|e| e.to_string());
            match r.and_then(|r| score(&pool[idx], &r)) {
                Ok((p, q)) => (phi1[idx], rho2[idx]) = (Some(p), Some(q)),
                Err(e) => problems.push(format!("instance {idx}: {e}")),
            }
        }
    }
    let phi1: Vec<f64> = phi1.into_iter().flatten().collect();
    let rho2: Vec<f64> = rho2.into_iter().flatten().collect();
    let peak_rss = stats::peak_rss_mb().ok_or("VmHWM is not readable from /proc/self/status")?;
    out.attempted = latencies.len() as u64;
    out.failed = failed;
    out.note(format!("pool_start {start}"));
    out.note(format!("rho2_mean {}", stats::mean(&rho2)));
    out.note(format!(
        "highest_supported_percentile {:?}",
        stats::highest_supported(latencies.len())
    ));
    if !stats::supports(latencies.len(), 99.0) {
        eprintln!(
            "warning: {} instances do not support a p99 (fewer than 10 beyond it)",
            latencies.len()
        );
    }
    latencies.sort_by(f64::total_cmp);
    out.note(format!(
        "throughput_per_s {}",
        (latencies.len() as u64 - failed) as f64 / (last_end - t0).as_secs_f64()
    ));
    out.note(format!(
        "latency_p50_ms {}",
        stats::percentile(&latencies, 50.0)
    ));
    out.note(format!(
        "latency_p99_ms {}",
        stats::percentile(&latencies, 99.0)
    ));
    out.note(format!("setup_wall_s {}", stats::median(&setup_wall_s)));
    out.note(format!("peak_rss_mb {peak_rss}"));
    // Each instance weighs the same however often the run reached it, so
    // where in the pool a run starts does not move the mean.
    let per_instance: Vec<f64> = cpu_s
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| stats::mean(c))
        .collect();
    // CPU times as measured, before they are scaled to the reference host.
    let (cpu_ms_per_op, setup_cpu_s) = (stats::mean(&per_instance) * 1e3, stats::median(&setup_s));
    out.note(format!("host_reference_ms {host_ms}"));
    out.note(format!("cpu_ms_per_op_measured {cpu_ms_per_op}"));
    out.note(format!("setup_s_measured {setup_cpu_s}"));

    if trace {
        pipeline_split(&pool, sizes.probe, &mut out)?;
        out.not_run(&serve::LAYERS);
    } else {
        let scale = stats::host_scale(host_ms);
        out.metric("cpu_ms_per_op", cpu_ms_per_op * scale, "ms");
        out.metric("phi1_mean", stats::mean(&phi1), "prob");
        out.metric("setup_s", setup_cpu_s * scale, "s");
        out.metric("peak_heap_mb", heap::peak_mb(), "MB");
    }
    out.fail_on(problems);
    Ok(out)
}
