//! Shared helpers for the `repro_*` binaries and criterion benches.
//!
//! Everything here is a thin layer over `cdsf-core`/`cdsf-workloads`: the
//! binaries regenerate the paper's tables and figures, and this module
//! holds the common setup so each binary stays a short script. The bench
//! instances and legacy baselines that both `bench_snapshot` and a
//! criterion bench time are defined here once.

use cdsf_core::{Cdsf, CellResult, ImPolicy, RasPolicy, SimParams};
use cdsf_pmf::Pmf;
use cdsf_ra::robustness::ProbabilityTable;
use cdsf_ra::{Allocation, Assignment, CellStore, EngineBuild, Phi1Engine};
use cdsf_serve::{LoadgenConfig, Request, WorkloadSpec};
use cdsf_system::availability::{AvailabilitySpec, Timeline};
use cdsf_system::{Application, Batch, Platform, ProcTypeId};
use cdsf_workloads::generators::{degraded_case, BatchGenerator, PlatformGenerator, Range};
use cdsf_workloads::paper;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;

/// The simulation parameters of the golden snapshots: library defaults
/// (seed included) with a fixed replicate count, so the grid is
/// deterministic and independent of the host's core count.
pub fn golden_sim_params() -> SimParams {
    SimParams {
        replicates: 25,
        threads: 4,
        ..Default::default()
    }
}

/// A generated instance of the offline dual-stage benchmark's shape: 8
/// applications with 16-pulse PMFs on 4 processor types of 8–16
/// processors, the reference case plus cases degraded by 10 %, 25 % and
/// 40 %, Δ = 4 000, 5 replicates on 2 simulation threads.
fn dualstage_golden_cdsf() -> Cdsf {
    let platform = PlatformGenerator {
        num_types: 4,
        procs_per_type: (8, 16),
        ..PlatformGenerator::default()
    }
    .generate(42)
    .expect("platform generator accepts its inputs");
    let batch = BatchGenerator {
        num_apps: 8,
        pulses: 16,
        ..BatchGenerator::default()
    }
    .generate(&platform, 43)
    .expect("batch generator accepts its inputs");
    let mut cases = vec![platform.clone()];
    for (k, d) in [0.10, 0.25, 0.40].into_iter().enumerate() {
        let (case, _) = degraded_case(&platform, d, 44 + k as u64).expect("decrease is in [0, 1)");
        cases.push(case);
    }
    Cdsf::builder()
        .batch(batch)
        .reference_platform(platform)
        .runtime_cases(cases)
        .deadline(4_000.0)
        .sim_params(SimParams {
            replicates: 5,
            threads: 2,
            ..Default::default()
        })
        .build()
        .expect("generated instance is valid")
}

fn lattice() -> ImPolicy {
    ImPolicy::by_name("lattice").expect("the lattice allocator is shipped")
}

/// Every Stage-II cell that `tests/golden/stage2_cells.json` pins bit for
/// bit, by grid: the paper's scenario 4 (robust allocation, 4 cases, the
/// robust technique set, [`golden_sim_params`]) and the robust set on the
/// exact-lattice allocation of one generated instance of the offline
/// dual-stage benchmark's shape.
pub fn stage2_golden_grids() -> Vec<(&'static str, Vec<CellResult>)> {
    let paper = paper_cdsf(golden_sim_params())
        .run_scenario(&ImPolicy::Robust, &RasPolicy::Robust)
        .expect("scenario 4 runs");
    let dualstage = dualstage_golden_cdsf()
        .run_scenario(&lattice(), &RasPolicy::Robust)
        .expect("the dual-stage instance runs");
    vec![("scenario4", paper.cells), ("dualstage", dualstage.cells)]
}

/// The dual-stage-shaped instance of [`stage2_golden_grids`] and its
/// exact-lattice allocation: the inputs of that grid's `simulate_grid`,
/// 128 cells of 5 replicates, for benches to time Stage II of the offline
/// pipeline on its own.
pub fn dualstage_shape_grid() -> (Cdsf, Allocation) {
    let cdsf = dualstage_golden_cdsf();
    let (alloc, _) = cdsf
        .stage_one(&lattice())
        .expect("the dual-stage instance has a lattice allocation");
    (cdsf, alloc)
}

/// The Stage-I bench instance: `num_apps` applications with 12-pulse
/// execution PMFs on 3 processor types of 8–16 processors (platform
/// seed 11, batch seed 12).
pub fn bench_instance(num_apps: usize) -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(11)
    .unwrap();
    let batch = BatchGenerator {
        num_apps,
        total_iters: (1_000, 8_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses: 12,
    }
    .generate(&platform, 12)
    .unwrap();
    (batch, platform)
}

/// One catalog application on the pulse-rich platform: generated alone
/// from its own seed, exactly like a serve `WorkloadSpec` with
/// `app_seeds` does it, so two batches naming the same seed carry
/// bit-identical applications.
pub fn catalog_app(platform: &Platform, seed: u64) -> Application {
    BatchGenerator {
        num_apps: 1,
        total_iters: (1_000, 8_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses: 384,
    }
    .generate(platform, seed)
    .unwrap()
    .apps()[0]
        .clone()
}

/// The pre-rewrite `Pmf::cdf`: partition point plus a prefix re-sum.
#[inline]
pub fn legacy_cdf(pmf: &Pmf, x: f64) -> f64 {
    let idx = pmf.pulses().partition_point(|p| p.value <= x);
    pmf.pulses()[..idx].iter().map(|p| p.prob).sum()
}

/// The pre-rewrite `Landscape::fitness`: a full probability-table walk.
#[inline]
pub fn full_fitness(table: &ProbabilityTable, genome: &[Assignment]) -> f64 {
    let mut p = 1.0;
    for (i, asg) in genome.iter().enumerate() {
        match table.prob(i, asg.proc_type, asg.procs) {
            Some(q) => p *= q,
            None => return 0.0,
        }
    }
    p
}

/// The pre-rewrite `Timeline::finish_time`: locate the dispatch segment by
/// a forward walk, then subtract each segment's capacity until the work is
/// exhausted. O(S) per query against the kernel's O(log S).
#[inline]
pub fn legacy_finish_time(starts: &[f64], levels: &[f64], start: f64, work: f64) -> f64 {
    let mut k = 0;
    while k + 1 < starts.len() && starts[k + 1] <= start {
        k += 1;
    }
    let mut t = start;
    let mut remaining = work;
    loop {
        let end = starts.get(k + 1).copied().unwrap_or(f64::INFINITY);
        let cap = (end - t) * levels[k];
        if cap >= remaining {
            return t + remaining / levels[k];
        }
        remaining -= cap;
        t = end;
        k += 1;
    }
}

/// The pre-rewrite `Timeline::work_between`: accumulate the overlap of
/// every materialized segment with `[t0, t1]`.
#[inline]
pub fn legacy_work_between(starts: &[f64], levels: &[f64], t0: f64, t1: f64) -> f64 {
    let mut acc = 0.0;
    for (k, &level) in levels.iter().enumerate() {
        let seg_start = starts[k];
        if seg_start >= t1 {
            break;
        }
        let seg_end = starts.get(k + 1).copied().unwrap_or(f64::INFINITY);
        let lo = seg_start.max(t0);
        let hi = seg_end.min(t1);
        if hi > lo {
            acc += (hi - lo) * level;
        }
    }
    acc
}

/// The availability process of the Stage-II benches: a renewal process
/// over three availability levels with mean dwell 5.
pub fn stage2_spec() -> AvailabilitySpec {
    AvailabilitySpec::Renewal {
        pmf: Pmf::from_pairs([(0.3, 0.25), (0.6, 0.35), (1.0, 0.4)]).unwrap(),
        mean_dwell: 5.0,
    }
}

/// A [`stage2_spec`] timeline materialized out to `horizon`
/// (≈ `horizon / 5` segments), plus query points that stay inside the
/// materialized range, so the timed lookups never extend the realization
/// (and never touch the RNG — both kernels see the identical segment
/// table).
pub fn warmed_timeline(horizon: f64) -> (Timeline, Vec<(f64, f64)>) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut tl = Timeline::new(&stage2_spec()).unwrap();
    tl.work_between(0.0, horizon, &mut rng);
    let mut qrng = StdRng::seed_from_u64(7);
    let queries: Vec<(f64, f64)> = (0..64)
        .map(|_| {
            (
                qrng.gen_range(0.0..horizon * 0.8),
                qrng.gen_range(1.0..horizon * 0.05),
            )
        })
        .collect();
    (tl, queries)
}

/// Engine builds in one pass over the cell-store thrash instance.
pub const THRASH_BUILDS: usize = 3_000;

/// The specs of [`thrash_instances`], in order.
fn thrash_specs() -> Vec<WorkloadSpec> {
    LoadgenConfig {
        tenants: 48,
        specs_per_tenant: 8,
        shared_rate: 0.05,
        skew: 0.5,
        requests: 2 * THRASH_BUILDS,
        seed: 42,
        ..LoadgenConfig::default()
    }
    .stream()
    .expect("the thrash stream config is valid")
    .into_iter()
    .filter_map(|req| match req {
        Request::Submit(submit) => Some(submit.spec),
        _ => None,
    })
    .take(THRASH_BUILDS)
    .collect()
}

/// The cell-store thrash instance, expanded in order: the specs of the
/// first [`THRASH_BUILDS`] submits of perfbench's canonical `churn`
/// stream (seed 42) — 48 tenants cycling 8 specs each with a 0.5 Zipf
/// skew, 5 % of submits drawing one of 2 shared specs. Each spec has
/// 3–6 applications, 2–3 processor types and 5–8 pulses, as the loadgen
/// draws [`WorkloadSpec::simple`] specs. Specs repeat, so some builds
/// find their cells resident; but the distinct specs hold more than
/// twice [`cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY`] cells, so a
/// default store evicts on most inserts.
pub fn thrash_instances() -> Vec<(Batch, Platform)> {
    thrash_specs()
        .iter()
        .map(|spec| spec.expand().expect("loadgen specs expand"))
        .collect()
}

/// Distinct cells the thrash instance's engines hold: the cells of each
/// distinct spec, summed (specs seeded apart share no cell).
pub fn thrash_working_set() -> usize {
    let specs = thrash_specs();
    let distinct: HashSet<&WorkloadSpec> = specs.iter().collect();
    distinct
        .into_iter()
        .map(|spec| {
            let (batch, platform) = spec.expand().expect("loadgen specs expand");
            (0..platform.num_types())
                .map(|t| {
                    let options = platform.pow2_options(ProcTypeId(t));
                    batch.len() * options.expect("generated types exist").len()
                })
                .sum::<usize>()
        })
        .sum()
}

/// Builds the engine of every instance in order on one thread, resolving
/// cells against `store` when one is given.
pub fn thrash_pass(instances: &[(Batch, Platform)], store: Option<&CellStore>) {
    let opts = EngineBuild {
        store,
        ..EngineBuild::default()
    };
    for (batch, platform) in instances {
        black_box(Phi1Engine::build_with(batch, platform, &opts).expect("thrash specs build"));
    }
}

/// Builds the paper's CDSF instance at the fixture defaults.
pub fn paper_cdsf(sim: SimParams) -> Cdsf {
    Cdsf::builder()
        .batch(paper::batch())
        .reference_platform(paper::platform())
        .runtime_cases((1..=paper::NUM_CASES).map(paper::platform_case).collect())
        .deadline(paper::DEADLINE)
        .sim_params(sim)
        .build()
        .expect("paper fixture is valid")
}

/// Simulation parameters used by the repro binaries (more replicates than
/// the library default for smoother figure bars).
pub fn repro_sim_params() -> SimParams {
    SimParams {
        replicates: 100,
        threads: num_threads(),
        ..Default::default()
    }
}

/// Worker threads: all available cores, capped at 8.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
}

/// Formats a mean ± std pair.
pub fn mean_std(mean: f64, std: f64) -> String {
    format!("{mean:.0} ± {std:.0}")
}

/// Marks a value against the deadline: `*` when it violates Δ.
pub fn deadline_mark(mean: f64, deadline: f64) -> &'static str {
    if mean <= deadline {
        ""
    } else {
        "*"
    }
}
