//! Event-driven simulation of a self-scheduled parallel loop.
//!
//! The executor models the paper's Stage-II environment: an application
//! (serial prologue + parallel loop) runs on a group of `P` processors
//! whose instantaneous availability follows a stochastic process
//! ([`cdsf_system::availability`]). A master hands out chunks; each chunk
//! dispatch costs a scheduling overhead `h` of wall-clock time; the chunk's
//! compute *work* (in dedicated-processor time units) is the sum of its
//! iteration times, and the wall-clock duration of that work is obtained by
//! integrating the processor's availability timeline.
//!
//! The adaptive techniques only ever see *observed* chunk durations — the
//! same information a real DLS runtime has.
//!
//! ## Model choices (documented for reproducibility)
//!
//! * Iteration times on a dedicated processor are iid `N(μ, σ²)` (truncated
//!   at a small positive floor); a chunk of `k` iterations therefore has
//!   work `N(kμ, kσ²)`, which is sampled directly instead of `k` times.
//! * Scheduling overhead `h` is wall-clock (master-side), not scaled by the
//!   worker's availability.
//! * The serial prologue executes on worker 0 before the loop starts; all
//!   workers then start requesting at the prologue's finish time.

use crate::technique::{SchedContext, Technique, TechniqueKind, WorkerSnapshot};
use crate::{DlsError, Result};
use cdsf_pmf::stats::{imbalance_cov, Welford};
use cdsf_system::availability::{AvailabilitySpec, Timeline};
use rand::{Rng, RngCore};

/// Smallest admissible sampled work per iteration, as a fraction of the
/// mean — keeps the normal approximation from producing non-positive work.
const WORK_FLOOR_FRACTION: f64 = 1e-3;

/// Configuration of one loop execution.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of workers `P` (the allocated group size).
    pub num_workers: usize,
    /// Parallel loop iterations.
    pub parallel_iters: u64,
    /// Serial prologue iterations (executed on worker 0).
    pub serial_iters: u64,
    /// Mean dedicated-processor time per iteration.
    pub iter_mean: f64,
    /// Standard deviation of the per-iteration time.
    pub iter_sigma: f64,
    /// Per-chunk scheduling overhead (wall-clock time units).
    pub overhead: f64,
    /// Availability process specs, one per worker. A single-element vector
    /// is broadcast to all workers.
    pub availability: Vec<AvailabilitySpec>,
    /// Record the full chunk log (costs memory; used by ablations).
    pub record_chunks: bool,
}

impl ExecutorConfig {
    /// Starts a builder with the framework's defaults (no overhead, one
    /// fully-available worker).
    pub fn builder() -> ExecutorConfigBuilder {
        ExecutorConfigBuilder::default()
    }

    fn validate(&self) -> Result<()> {
        if self.num_workers == 0 {
            return Err(DlsError::NoWorkers);
        }
        if self.parallel_iters == 0 {
            return Err(DlsError::NoIterations);
        }
        if !(self.iter_mean > 0.0) || !self.iter_mean.is_finite() {
            return Err(DlsError::BadParameter {
                name: "iter_mean",
                value: self.iter_mean,
            });
        }
        if !(self.iter_sigma >= 0.0) || !self.iter_sigma.is_finite() {
            return Err(DlsError::BadParameter {
                name: "iter_sigma",
                value: self.iter_sigma,
            });
        }
        if !(self.overhead >= 0.0) || !self.overhead.is_finite() {
            return Err(DlsError::BadParameter {
                name: "overhead",
                value: self.overhead,
            });
        }
        if self.availability.is_empty() {
            return Err(DlsError::BadParameter {
                name: "availability.len",
                value: 0.0,
            });
        }
        if self.availability.len() != 1 && self.availability.len() != self.num_workers {
            return Err(DlsError::BadParameter {
                name: "availability.len",
                value: self.availability.len() as f64,
            });
        }
        Ok(())
    }

    /// The availability spec for a given worker (single-spec broadcast).
    fn spec_for(&self, worker: usize) -> &AvailabilitySpec {
        if self.availability.len() == 1 {
            &self.availability[0]
        } else {
            &self.availability[worker]
        }
    }
}

/// Builder for [`ExecutorConfig`].
#[derive(Debug, Clone)]
pub struct ExecutorConfigBuilder {
    cfg: ExecutorConfig,
}

impl Default for ExecutorConfigBuilder {
    fn default() -> Self {
        Self {
            cfg: ExecutorConfig {
                num_workers: 1,
                parallel_iters: 1,
                serial_iters: 0,
                iter_mean: 1.0,
                iter_sigma: 0.0,
                overhead: 0.0,
                availability: vec![AvailabilitySpec::Constant { a: 1.0 }],
                record_chunks: false,
            },
        }
    }
}

impl ExecutorConfigBuilder {
    /// Sets the worker count.
    pub fn workers(mut self, p: usize) -> Self {
        self.cfg.num_workers = p;
        self
    }

    /// Sets the parallel iteration count.
    pub fn parallel_iters(mut self, n: u64) -> Self {
        self.cfg.parallel_iters = n;
        self
    }

    /// Sets the serial prologue iteration count.
    pub fn serial_iters(mut self, n: u64) -> Self {
        self.cfg.serial_iters = n;
        self
    }

    /// Sets per-iteration mean and standard deviation directly.
    pub fn iter_time_mean_sigma(mut self, mean: f64, sigma: f64) -> Result<Self> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(DlsError::BadParameter {
                name: "iter_mean",
                value: mean,
            });
        }
        if !(sigma >= 0.0) || !sigma.is_finite() {
            return Err(DlsError::BadParameter {
                name: "iter_sigma",
                value: sigma,
            });
        }
        self.cfg.iter_mean = mean;
        self.cfg.iter_sigma = sigma;
        Ok(self)
    }

    /// Derives iteration timing and iteration counts from an application on
    /// `n` processors of type `j`.
    pub fn from_application(
        mut self,
        app: &cdsf_system::Application,
        j: cdsf_system::ProcTypeId,
    ) -> Result<Self> {
        let it = app.iteration_time(j)?;
        self.cfg.iter_mean = it.mean();
        self.cfg.iter_sigma = it.std_dev();
        self.cfg.serial_iters = app.serial_iters();
        self.cfg.parallel_iters = app.parallel_iters();
        Ok(self)
    }

    /// Sets the per-chunk scheduling overhead.
    pub fn overhead(mut self, h: f64) -> Self {
        self.cfg.overhead = h;
        self
    }

    /// Sets a single availability spec broadcast to every worker.
    pub fn availability(mut self, spec: AvailabilitySpec) -> Self {
        self.cfg.availability = vec![spec];
        self
    }

    /// Sets per-worker availability specs.
    pub fn availability_per_worker(mut self, specs: Vec<AvailabilitySpec>) -> Self {
        self.cfg.availability = specs;
        self
    }

    /// Enables chunk-log recording.
    pub fn record_chunks(mut self, yes: bool) -> Self {
        self.cfg.record_chunks = yes;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ExecutorConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One dispatched chunk, as recorded when `record_chunks` is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkRecord {
    /// Worker that executed the chunk.
    pub worker: usize,
    /// Chunk size in iterations.
    pub size: u64,
    /// Dispatch time (start of overhead).
    pub start: f64,
    /// Completion time.
    pub finish: f64,
}

/// Summary statistics of a chunk log — the quantities DLS analyses plot:
/// chunk-size profile, per-worker utilization, dispatch rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkLogStats {
    /// Total chunks.
    pub chunks: usize,
    /// Total iterations covered.
    pub iterations: u64,
    /// Largest and smallest chunk sizes.
    pub max_size: u64,
    /// Smallest chunk size.
    pub min_size: u64,
    /// Mean chunk size.
    pub mean_size: f64,
    /// Per-worker busy fraction over `[0, makespan]` (compute + overhead
    /// windows).
    pub worker_utilization: Vec<f64>,
    /// Whether the dispatch-ordered size sequence is non-increasing (the
    /// signature of the decreasing-chunk families; SS/FSC are constant,
    /// which also counts).
    pub sizes_non_increasing: bool,
}

impl ChunkLogStats {
    /// Computes statistics from a chunk log (as produced with
    /// `record_chunks`). Returns `None` for an empty log.
    pub fn from_log(log: &[ChunkRecord], num_workers: usize) -> Option<Self> {
        if log.is_empty() || num_workers == 0 {
            return None;
        }
        let mut by_dispatch: Vec<&ChunkRecord> = log.iter().collect();
        by_dispatch.sort_by(|a, b| a.start.total_cmp(&b.start));
        let sizes: Vec<u64> = by_dispatch.iter().map(|c| c.size).collect();
        let makespan = log.iter().map(|c| c.finish).fold(0.0f64, f64::max);
        let mut busy = vec![0.0f64; num_workers];
        for c in log {
            if c.worker < num_workers {
                busy[c.worker] += c.finish - c.start;
            }
        }
        let denom = makespan.max(f64::MIN_POSITIVE);
        Some(Self {
            chunks: log.len(),
            iterations: sizes.iter().sum(),
            max_size: *sizes.iter().max().expect("non-empty"),
            min_size: *sizes.iter().min().expect("non-empty"),
            mean_size: sizes.iter().sum::<u64>() as f64 / sizes.len() as f64,
            worker_utilization: busy.into_iter().map(|b| b / denom).collect(),
            sizes_non_increasing: sizes.windows(2).all(|w| w[1] <= w[0]),
        })
    }
}

/// Result of one simulated loop execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total application time: serial prologue + parallel loop.
    pub makespan: f64,
    /// Duration of the serial prologue.
    pub serial_time: f64,
    /// Duration of the parallel loop (makespan − serial prologue).
    pub parallel_time: f64,
    /// Number of chunks dispatched.
    pub chunks: u64,
    /// Per-worker finish times of the parallel phase.
    pub worker_finish: Vec<f64>,
    /// Coefficient of variation of worker finish times — the classic
    /// load-imbalance metric.
    pub imbalance: f64,
    /// Full chunk log when recording was requested.
    pub chunk_log: Option<Vec<ChunkRecord>>,
}

/// Per-worker measurement state maintained by the executor. The
/// worker's [`WorkerSnapshot`] lives beside it, in the buffer handed to
/// techniques, and [`WorkerState::observe`] updates it there — for the
/// techniques that read it ([`TechniqueKind::reads_worker_stats`]) only.
struct WorkerState {
    timeline: Timeline,
    iter_times: Welford,
    iter_times_total: Welford,
}

impl WorkerState {
    fn new(spec: &AvailabilitySpec) -> Result<Self> {
        Ok(Self {
            timeline: Timeline::new(spec)?,
            iter_times: Welford::new(),
            iter_times_total: Welford::new(),
        })
    }

    /// Starts the worker over with zeroed statistics and a fresh
    /// availability realization — rebuilt in place from `spec` when one is
    /// given, else restarted — keeping the timeline's buffers. Either way
    /// the worker is indistinguishable from a newly built one.
    fn reset(&mut self, spec: Option<&AvailabilitySpec>) -> Result<()> {
        match spec {
            Some(spec) => self.timeline.reset(spec)?,
            None => self.timeline.restart(),
        }
        self.iter_times = Welford::new();
        self.iter_times_total = Welford::new();
        Ok(())
    }

    fn observe(
        &mut self,
        snapshot: &mut WorkerSnapshot,
        size: u64,
        compute_time: f64,
        total_time: f64,
    ) {
        let per_iter = compute_time / size as f64;
        let per_iter_total = total_time / size as f64;
        // One Welford observation per chunk, of the chunk's per-iteration
        // average — this is the cumulative-average bookkeeping the AWF
        // papers describe, and it keeps the cost O(chunks) not O(iters).
        self.iter_times.push(per_iter);
        self.iter_times_total.push(per_iter_total);
        snapshot.iters_done += size;
        snapshot.chunks_done += 1;
        snapshot.set_estimates(
            self.iter_times.mean(),
            self.iter_times.variance(),
            self.iter_times_total.mean(),
        );
    }
}

/// The worker the event loop serves next and the time it is free: the
/// earliest free worker, ties to the lowest index — the order in which a
/// min-heap of `(free time, worker)` pairs under `total_cmp` pops.
fn earliest_free(mut free_at: impl Iterator<Item = f64>) -> (usize, f64) {
    let mut next = (0, free_at.next().expect("at least one worker"));
    for (i, t) in free_at.enumerate() {
        if t.total_cmp(&next.1).is_lt() {
            next = (i + 1, t);
        }
    }
    next
}

/// Samples the dedicated-processor work of a chunk of `k` iterations:
/// `N(kμ, kσ²)` truncated below at a positive floor.
fn sample_chunk_work<R: RngCore + ?Sized>(k: u64, mean: f64, sigma: f64, rng: &mut R) -> f64 {
    let mu = k as f64 * mean;
    if sigma == 0.0 {
        return mu;
    }
    let sd = (k as f64).sqrt() * sigma;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let w = mu + sd * cdsf_pmf::stats::normal_inv_cdf(u);
    w.max(mu * WORK_FLOOR_FRACTION)
}

/// Reusable executor working memory: the per-worker state (availability
/// timelines + statistics) and the per-worker snapshots handed to
/// techniques at each dispatch.
///
/// One run builds these; [`execute_in`] then reuses them across
/// replicates. `ExecutorScratch::prepare` starts every worker on a fresh
/// realization, restarting its availability process in place
/// ([`Timeline::restart`]) when `cfg.availability` equals the specs it was
/// built from, rebuilding it in place ([`Timeline::reset`]) for a changed
/// spec, and building one only for a new worker. Every buffer keeps its
/// capacity, so a replicate allocates only the technique instance and the
/// returned `worker_finish`, whatever the worker and chunk counts, and
/// whether or not the specs changed (a renewal process over a PMF no
/// longer than before rebuilds without allocating). A reused scratch is
/// bit-identical to a fresh one whatever its history of restarts and
/// rebuilds — the determinism contract the replicate-parallel simulation
/// grid relies on, since each pool worker's scratch has its own history.
#[derive(Default)]
pub struct ExecutorScratch {
    workers: Vec<WorkerState>,
    /// The `availability` every worker in `workers` was built from (worker
    /// `i` from its `spec_for(i)`).
    built_from: Vec<AvailabilitySpec>,
    snapshots: Vec<WorkerSnapshot>,
}

impl ExecutorScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the arena for one execution of `cfg`: existing workers
    /// restart (unchanged specs) or are rebuilt (changed specs), missing
    /// workers are built, extra ones dropped, snapshots zeroed.
    fn prepare(&mut self, cfg: &ExecutorConfig) -> Result<()> {
        self.workers.truncate(cfg.num_workers);
        let rebuild = self.built_from != cfg.availability;
        if rebuild {
            // Every spec is checked before any worker changes, so a bad
            // one fails here and leaves the workers and their record as
            // they were; the rebuilds below cannot fail.
            for spec in &cfg.availability {
                spec.validate()?;
            }
        }
        for (i, w) in self.workers.iter_mut().enumerate() {
            w.reset(rebuild.then(|| cfg.spec_for(i)))?;
        }
        for i in self.workers.len()..cfg.num_workers {
            self.workers.push(WorkerState::new(cfg.spec_for(i))?);
        }
        if rebuild {
            self.built_from.clone_from(&cfg.availability);
        }
        self.snapshots.clear();
        self.snapshots
            .resize(cfg.num_workers, WorkerSnapshot::default());
        Ok(())
    }
}

/// Runs one loop execution with a technique selected by kind.
pub fn execute(
    kind: &TechniqueKind,
    cfg: &ExecutorConfig,
    rng: &mut dyn RngCore,
) -> Result<RunResult> {
    let mut scratch = ExecutorScratch::new();
    execute_in(kind, cfg, &mut scratch, rng)
}

/// Runs one loop execution inside a reusable scratch arena. Results are
/// bit-identical to [`execute`] with the same RNG stream; only the
/// allocation behaviour differs. Generic over the generator, so a caller
/// holding a concrete one (the simulation grid's `StdRng`) runs the event
/// loop without dynamic dispatch.
pub fn execute_in<R: RngCore + ?Sized>(
    kind: &TechniqueKind,
    cfg: &ExecutorConfig,
    scratch: &mut ExecutorScratch,
    rng: &mut R,
) -> Result<RunResult> {
    let mut technique = kind.build(cfg.num_workers, cfg.parallel_iters)?;
    cfg.validate()?;
    scratch.prepare(cfg)?;
    let observe = kind.reads_worker_stats();
    run_one_step(technique.as_mut(), cfg, scratch, 0.0, observe, rng)
}

/// Executes one serial prologue + parallel loop starting at `start`,
/// against the persistent worker state in `scratch` (worker statistics,
/// snapshots and timelines carry over, which is what time-stepping
/// needs). Chunk observations update the statistics only when `observe`
/// is set, for a technique that reads them.
fn run_one_step<R: RngCore + ?Sized>(
    technique: &mut dyn Technique,
    cfg: &ExecutorConfig,
    scratch: &mut ExecutorScratch,
    start: f64,
    observe: bool,
    rng: &mut R,
) -> Result<RunResult> {
    let p = cfg.num_workers;
    let ExecutorScratch {
        workers, snapshots, ..
    } = scratch;

    // Serial prologue on worker 0.
    let serial_end = if cfg.serial_iters > 0 {
        let work = sample_chunk_work(cfg.serial_iters, cfg.iter_mean, cfg.iter_sigma, rng);
        workers[0].timeline.finish_time(start, work, rng)
    } else {
        start
    };
    let serial_time = serial_end - start;

    // Parallel loop: each worker is free at its latest finish.
    let mut remaining = cfg.parallel_iters;
    let mut chunks = 0u64;
    let mut worker_finish = vec![serial_end; p];
    let mut chunk_log = cfg.record_chunks.then(Vec::new);

    while remaining > 0 {
        let (w, now) = earliest_free(worker_finish.iter().copied());
        let ctx = SchedContext {
            worker: w,
            num_workers: p,
            total_iters: cfg.parallel_iters,
            remaining,
            now,
            workers: snapshots,
        };
        let size = technique.next_chunk(&ctx).clamp(1, remaining);
        remaining -= size;
        chunks += 1;

        let work = sample_chunk_work(size, cfg.iter_mean, cfg.iter_sigma, rng);
        let compute_start = now + cfg.overhead;
        let finish = workers[w].timeline.finish_time(compute_start, work, rng);
        if observe {
            workers[w].observe(
                &mut snapshots[w],
                size,
                finish - compute_start,
                finish - now,
            );
        }
        worker_finish[w] = finish;
        if let Some(log) = chunk_log.as_mut() {
            log.push(ChunkRecord {
                worker: w,
                size,
                start: now,
                finish,
            });
        }
    }

    let end = worker_finish.iter().copied().fold(serial_end, f64::max);
    Ok(RunResult {
        makespan: end - start,
        serial_time,
        parallel_time: end - start - serial_time,
        chunks,
        imbalance: imbalance_cov(&worker_finish),
        worker_finish,
        chunk_log,
    })
}

/// Result of a time-stepping execution: the same loop executed `steps`
/// times back to back (a barrier between steps, as in time-stepping
/// scientific codes), with worker statistics, availability timelines and
/// the technique's adaptive state persisting across steps.
#[derive(Debug, Clone)]
pub struct TimesteppingResult {
    /// Duration of each step (serial prologue + parallel loop).
    pub step_durations: Vec<f64>,
    /// Total wall-clock time of all steps.
    pub total_time: f64,
    /// Total chunks dispatched across steps.
    pub chunks: u64,
}

impl TimesteppingResult {
    /// Mean step duration.
    pub fn mean_step(&self) -> f64 {
        self.total_time / self.step_durations.len() as f64
    }
}

/// Executes `steps` repetitions of the configured loop (time-stepping
/// application model). Between steps [`Technique::on_timestep`] resets
/// per-loop bookkeeping while adaptive state carries over — this is the
/// setting the original AWF was designed for.
pub fn execute_timestepping(
    kind: &TechniqueKind,
    cfg: &ExecutorConfig,
    steps: usize,
    rng: &mut dyn RngCore,
) -> Result<TimesteppingResult> {
    if steps == 0 {
        return Err(DlsError::BadParameter {
            name: "steps",
            value: 0.0,
        });
    }
    cfg.validate()?;
    let mut technique = kind.build(cfg.num_workers, cfg.parallel_iters)?;
    let mut scratch = ExecutorScratch::new();
    scratch.prepare(cfg)?;
    let observe = kind.reads_worker_stats();
    let mut step_durations = Vec::with_capacity(steps);
    let mut chunks = 0u64;
    let mut now = 0.0f64;
    for step in 0..steps {
        if step > 0 {
            technique.on_timestep();
        }
        let run = run_one_step(technique.as_mut(), cfg, &mut scratch, now, observe, rng)?;
        now += run.makespan;
        chunks += run.chunks;
        step_durations.push(run.makespan);
    }
    Ok(TimesteppingResult {
        step_durations,
        total_time: now,
        chunks,
    })
}

/// Runs `replicates` independent executions and returns their makespans.
/// Each replicate consumes fresh randomness from `rng`; seed the RNG to
/// reproduce the whole experiment.
pub fn replicate_makespans(
    kind: &TechniqueKind,
    cfg: &ExecutorConfig,
    replicates: usize,
    rng: &mut dyn RngCore,
) -> Result<Vec<f64>> {
    let mut scratch = ExecutorScratch::new();
    (0..replicates)
        .map(|_| execute_in(kind, cfg, &mut scratch, rng).map(|r| r.makespan))
        .collect()
}

/// Outcome of [`ExecutorSession::advance_until`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionStatus {
    /// The loop finished at the given absolute time (`≤` the horizon).
    Completed {
        /// Absolute completion time of the whole application.
        finish: f64,
    },
    /// Work remains past the horizon; call `advance_until` again later.
    Paused,
}

/// Carried-over progress extracted from an interrupted session — the
/// contract between a fault/remap event and the executor that resumes the
/// application on its new processor group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResumeState {
    /// Serial prologue iterations still to execute.
    pub serial_iters_left: u64,
    /// Parallel loop iterations still to execute (undispatched plus those
    /// returned by aborted in-flight chunks).
    pub parallel_iters_left: u64,
    /// Dedicated-speed work sunk into chunks that were aborted mid-flight
    /// (their iterations are re-executed from scratch after the remap).
    pub wasted_work: f64,
}

/// A chunk currently assigned to a worker (most recent dispatch).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    size: u64,
    compute_start: f64,
    finish: f64,
}

/// A resumable, time-bounded loop execution: the same event loop as
/// [`execute`], but driven externally in `[t, t')` slices so an online
/// engine can interleave many applications with fault and drift events.
///
/// Determinism contract: with the same configuration and RNG stream,
/// `advance_until(f64::INFINITY)` reproduces [`execute`] exactly — both
/// consume randomness in the identical order (serial prologue sample, then
/// one work sample + one availability walk per dispatched chunk), and the
/// pause points never touch the RNG.
pub struct ExecutorSession {
    cfg: ExecutorConfig,
    technique: Box<dyn Technique>,
    /// Whether the technique reads the worker statistics.
    observe: bool,
    workers: Vec<WorkerState>,
    /// Each worker's latest chunk; a worker is free at its finish, or at
    /// the end of the serial prologue before its first.
    in_flight: Vec<Option<InFlight>>,
    /// One snapshot per worker, updated in place by
    /// [`WorkerState::observe`] (same role as [`ExecutorScratch::snapshots`]).
    snapshots: Vec<WorkerSnapshot>,
    remaining: u64,
    chunks: u64,
    start: f64,
    serial_end: f64,
}

impl ExecutorSession {
    /// Opens a session starting at absolute time `start`. The serial
    /// prologue is committed immediately (its work is sampled here), so the
    /// RNG stream matches [`execute`] from the first draw.
    pub fn new(
        kind: &TechniqueKind,
        cfg: ExecutorConfig,
        start: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        cfg.validate()?;
        if !(start >= 0.0) || !start.is_finite() {
            return Err(DlsError::BadParameter {
                name: "start",
                value: start,
            });
        }
        let technique = kind.build(cfg.num_workers, cfg.parallel_iters)?;
        let mut workers = (0..cfg.num_workers)
            .map(|i| WorkerState::new(cfg.spec_for(i)))
            .collect::<Result<Vec<_>>>()?;
        let serial_end = if cfg.serial_iters > 0 {
            let work = sample_chunk_work(cfg.serial_iters, cfg.iter_mean, cfg.iter_sigma, rng);
            workers[0].timeline.finish_time(start, work, rng)
        } else {
            start
        };
        Ok(Self {
            observe: kind.reads_worker_stats(),
            in_flight: vec![None; cfg.num_workers],
            snapshots: vec![WorkerSnapshot::default(); cfg.num_workers],
            remaining: cfg.parallel_iters,
            chunks: 0,
            start,
            serial_end,
            technique,
            workers,
            cfg,
        })
    }

    /// Absolute session start time.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// End of the serial prologue (equals `start` when there is none).
    pub fn serial_end(&self) -> f64 {
        self.serial_end
    }

    /// Parallel iterations not yet dispatched to any worker.
    pub fn remaining_parallel(&self) -> u64 {
        self.remaining
    }

    /// Chunks dispatched so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// The session's configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// A lower bound on the completion time: the latest committed event
    /// (serial prologue end or an in-flight chunk finish). Exact once all
    /// iterations are dispatched.
    pub fn lower_bound_finish(&self) -> f64 {
        self.in_flight
            .iter()
            .flatten()
            .map(|c| c.finish)
            .fold(self.serial_end, f64::max)
    }

    /// Parallel iterations not completed by time `t`: undispatched ones
    /// plus in-flight chunks finishing after `t`. Pure bookkeeping (no RNG,
    /// no state change) — used for live progress projections.
    pub fn outstanding_parallel(&self, t: f64) -> u64 {
        self.remaining
            + self
                .in_flight
                .iter()
                .flatten()
                .filter(|c| c.finish > t)
                .map(|c| c.size)
                .sum::<u64>()
    }

    /// Whether the serial prologue is still executing at time `t`.
    pub fn in_serial_phase(&self, t: f64) -> bool {
        self.cfg.serial_iters > 0 && t < self.serial_end
    }

    /// Runs the event loop up to absolute time `t`: dispatches every chunk
    /// whose worker frees at or before `t`, exactly as [`execute`] would.
    pub fn advance_until(&mut self, t: f64, rng: &mut dyn RngCore) -> SessionStatus {
        while self.remaining > 0 {
            let serial_end = self.serial_end;
            let (w, now) = earliest_free(
                self.in_flight
                    .iter()
                    .map(|c| c.map_or(serial_end, |c| c.finish)),
            );
            if now > t {
                return SessionStatus::Paused;
            }
            let ctx = SchedContext {
                worker: w,
                num_workers: self.cfg.num_workers,
                total_iters: self.cfg.parallel_iters,
                remaining: self.remaining,
                now,
                workers: &self.snapshots,
            };
            let size = self.technique.next_chunk(&ctx).clamp(1, self.remaining);
            self.remaining -= size;
            self.chunks += 1;
            let work = sample_chunk_work(size, self.cfg.iter_mean, self.cfg.iter_sigma, rng);
            let compute_start = now + self.cfg.overhead;
            let finish = self.workers[w]
                .timeline
                .finish_time(compute_start, work, rng);
            if self.observe {
                self.workers[w].observe(
                    &mut self.snapshots[w],
                    size,
                    finish - compute_start,
                    finish - now,
                );
            }
            // The worker's previous chunk (if any) completed at `now`.
            self.in_flight[w] = Some(InFlight {
                size,
                compute_start,
                finish,
            });
        }
        let finish = self.lower_bound_finish();
        if finish <= t {
            SessionStatus::Completed { finish }
        } else {
            SessionStatus::Paused
        }
    }

    /// Tears the session down at absolute time `t` (a fault or a remap
    /// decision) and returns the progress a successor session must carry:
    ///
    /// * during the serial prologue, completed prologue iterations are
    ///   credited from the work integral `∫ A` on worker 0 (at least one
    ///   iteration always remains — the one interrupted mid-execution);
    /// * afterwards, chunks finishing after `t` are aborted: their
    ///   iterations return to the remaining pool and the availability
    ///   already consumed on them is reported as wasted work.
    pub fn interrupt(mut self, t: f64, rng: &mut dyn RngCore) -> ResumeState {
        if self.cfg.serial_iters > 0 && t < self.serial_end {
            let done_work = self.workers[0].timeline.work_between(self.start, t, rng);
            let done = ((done_work / self.cfg.iter_mean) as u64)
                .min(self.cfg.serial_iters.saturating_sub(1));
            return ResumeState {
                serial_iters_left: self.cfg.serial_iters - done,
                parallel_iters_left: self.cfg.parallel_iters,
                wasted_work: (done_work - done as f64 * self.cfg.iter_mean).max(0.0),
            };
        }
        let mut wasted = 0.0;
        let mut aborted = 0u64;
        for w in 0..self.in_flight.len() {
            if let Some(c) = self.in_flight[w] {
                if c.finish > t {
                    aborted += c.size;
                    wasted += self.workers[w]
                        .timeline
                        .work_between(c.compute_start, t, rng);
                }
            }
        }
        ResumeState {
            serial_iters_left: 0,
            parallel_iters_left: self.remaining + aborted,
            wasted_work: wasted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn base_cfg() -> ExecutorConfig {
        ExecutorConfig::builder()
            .workers(4)
            .parallel_iters(4096)
            .iter_time_mean_sigma(1.0, 0.0)
            .unwrap()
            .availability(AvailabilitySpec::Constant { a: 1.0 })
            .build()
            .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ExecutorConfig::builder().workers(0).build().is_err());
        assert!(ExecutorConfig::builder().parallel_iters(0).build().is_err());
        assert!(ExecutorConfig::builder()
            .iter_time_mean_sigma(0.0, 0.0)
            .is_err());
        assert!(ExecutorConfig::builder()
            .iter_time_mean_sigma(1.0, -1.0)
            .is_err());
        assert!(ExecutorConfig::builder()
            .workers(3)
            .availability_per_worker(vec![
                AvailabilitySpec::Constant { a: 1.0 },
                AvailabilitySpec::Constant { a: 0.5 },
            ])
            .build()
            .is_err());
        let neg_overhead = ExecutorConfig::builder().overhead(-1.0).build();
        assert!(neg_overhead.is_err());
    }

    #[test]
    fn deterministic_dedicated_run_has_exact_makespan() {
        // 4096 unit iterations, 4 dedicated workers, no variance, no
        // overhead: every technique must land exactly on 1024.
        let cfg = base_cfg();
        for kind in TechniqueKind::all(64) {
            let run = execute(&kind, &cfg, &mut rng(7)).unwrap();
            // Decreasing-chunk profiles (TSS) can strand a couple of unit
            // chunks at the tail, so allow a few time units of slack.
            assert!(
                (run.makespan - 1024.0).abs() < 8.0,
                "{}: makespan {}",
                kind.name(),
                run.makespan
            );
            assert!(
                run.imbalance < 0.01,
                "{}: imbalance {}",
                kind.name(),
                run.imbalance
            );
        }
    }

    #[test]
    fn serial_prologue_adds_time() {
        let cfg = ExecutorConfig::builder()
            .workers(4)
            .serial_iters(100)
            .parallel_iters(400)
            .iter_time_mean_sigma(1.0, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let run = execute(&TechniqueKind::Static, &cfg, &mut rng(1)).unwrap();
        assert!((run.serial_time - 100.0).abs() < 1e-9);
        assert!((run.makespan - 200.0).abs() < 1e-9);
        assert!((run.parallel_time - 100.0).abs() < 1e-9);
    }

    #[test]
    fn reduced_availability_slows_everything() {
        let mut cfg = base_cfg();
        cfg.availability = vec![AvailabilitySpec::Constant { a: 0.5 }];
        let run = execute(&TechniqueKind::Fac, &cfg, &mut rng(3)).unwrap();
        assert!(
            (run.makespan - 2048.0).abs() < 2.0,
            "makespan {}",
            run.makespan
        );
    }

    #[test]
    fn static_suffers_under_heterogeneous_availability() {
        // One of four workers at 25% availability: STATIC's makespan is
        // pinned to the slow worker's share (1024/0.25 = 4096). FAC and AF
        // still give the slow worker a first-batch chunk of 4096/8 = 512
        // (2048 wall-clock on it), but they rebalance everything after, so
        // they roughly halve STATIC's makespan.
        let specs = vec![
            AvailabilitySpec::Constant { a: 0.25 },
            AvailabilitySpec::Constant { a: 1.0 },
            AvailabilitySpec::Constant { a: 1.0 },
            AvailabilitySpec::Constant { a: 1.0 },
        ];
        let cfg = ExecutorConfig::builder()
            .workers(4)
            .parallel_iters(4096)
            .iter_time_mean_sigma(1.0, 0.0)
            .unwrap()
            .availability_per_worker(specs)
            .build()
            .unwrap();
        let st = execute(&TechniqueKind::Static, &cfg, &mut rng(5)).unwrap();
        let fac = execute(&TechniqueKind::Fac, &cfg, &mut rng(5)).unwrap();
        let af = execute(&TechniqueKind::Af, &cfg, &mut rng(5)).unwrap();
        assert!((st.makespan - 4096.0).abs() < 2.0, "STATIC {}", st.makespan);
        assert!(fac.makespan < 0.55 * st.makespan, "FAC {}", fac.makespan);
        assert!(af.makespan < 0.55 * st.makespan, "AF {}", af.makespan);
    }

    #[test]
    fn overhead_penalizes_small_chunks() {
        let mut cfg = base_cfg();
        cfg.overhead = 1.0;
        let ss = execute(&TechniqueKind::SelfSched, &cfg, &mut rng(9)).unwrap();
        let fac = execute(&TechniqueKind::Fac, &cfg, &mut rng(9)).unwrap();
        // SS dispatches 4096 chunks; FAC a few dozen.
        assert!(ss.chunks == 4096);
        assert!(fac.chunks < 100);
        assert!(
            ss.makespan > 1.5 * fac.makespan,
            "ss {} fac {}",
            ss.makespan,
            fac.makespan
        );
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let mut cfg = base_cfg();
        cfg.iter_sigma = 0.3;
        cfg.availability = vec![AvailabilitySpec::Renewal {
            pmf: cdsf_pmf::Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap(),
            mean_dwell: 50.0,
        }];
        let a = execute(&TechniqueKind::Af, &cfg, &mut rng(42)).unwrap();
        let b = execute(&TechniqueKind::Af, &cfg, &mut rng(42)).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.chunks, b.chunks);
        let c = execute(&TechniqueKind::Af, &cfg, &mut rng(43)).unwrap();
        assert_ne!(a.makespan, c.makespan);
    }

    #[test]
    fn chunk_log_accounts_for_all_iterations() {
        let mut cfg = base_cfg();
        cfg.record_chunks = true;
        cfg.iter_sigma = 0.2;
        let run = execute(&TechniqueKind::Gss, &cfg, &mut rng(2)).unwrap();
        let log = run.chunk_log.unwrap();
        assert_eq!(log.len() as u64, run.chunks);
        assert_eq!(log.iter().map(|c| c.size).sum::<u64>(), 4096);
        // Chunks never overlap per worker.
        for w in 0..4 {
            let mut times: Vec<(f64, f64)> = log
                .iter()
                .filter(|c| c.worker == w)
                .map(|c| (c.start, c.finish))
                .collect();
            times.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in times.windows(2) {
                assert!(pair[0].1 <= pair[1].0 + 1e-9);
            }
        }
    }

    #[test]
    fn adaptive_beats_static_under_fluctuating_availability() {
        // The Stage-II premise: under runtime availability fluctuation the
        // robust set's makespans beat STATIC's substantially.
        let pmf = cdsf_pmf::Pmf::from_pairs([(0.2, 0.3), (0.6, 0.4), (1.0, 0.3)]).unwrap();
        let cfg = ExecutorConfig::builder()
            .workers(8)
            .parallel_iters(8192)
            .iter_time_mean_sigma(1.0, 0.15)
            .unwrap()
            .availability(AvailabilitySpec::Renewal {
                pmf,
                mean_dwell: 200.0,
            })
            .build()
            .unwrap();
        let mut r = rng(99);
        let avg = |kind: &TechniqueKind, r: &mut StdRng| -> f64 {
            let ms = replicate_makespans(kind, &cfg, 12, r).unwrap();
            ms.iter().sum::<f64>() / ms.len() as f64
        };
        let st = avg(&TechniqueKind::Static, &mut r);
        for kind in TechniqueKind::paper_robust_set() {
            let m = avg(&kind, &mut r);
            assert!(
                m < st,
                "{} mean makespan {m} should beat STATIC {st}",
                kind.name()
            );
        }
    }

    #[test]
    fn chunk_log_stats_capture_profiles() {
        let mut cfg = base_cfg();
        cfg.record_chunks = true;
        let mut r = rng(6);
        // GSS: strictly decreasing profile on a dedicated machine.
        let gss = execute(&TechniqueKind::Gss, &cfg, &mut r).unwrap();
        let stats = ChunkLogStats::from_log(gss.chunk_log.as_ref().unwrap(), 4).unwrap();
        assert_eq!(stats.iterations, 4096);
        assert!(stats.sizes_non_increasing, "GSS profile should decrease");
        assert_eq!(stats.max_size, 1024); // first chunk = N/P
        assert_eq!(stats.min_size, 1);
        assert!(
            stats.worker_utilization.iter().all(|&u| u > 0.9),
            "{:?}",
            stats.worker_utilization
        );
        // SS: constant profile.
        let ss = execute(&TechniqueKind::SelfSched, &cfg, &mut r).unwrap();
        let ss_stats = ChunkLogStats::from_log(ss.chunk_log.as_ref().unwrap(), 4).unwrap();
        assert_eq!(ss_stats.max_size, 1);
        assert!(ss_stats.sizes_non_increasing);
        assert_eq!(ss_stats.chunks, 4096);
        // Empty / degenerate inputs.
        assert!(ChunkLogStats::from_log(&[], 4).is_none());
        assert!(ChunkLogStats::from_log(gss.chunk_log.as_ref().unwrap(), 0).is_none());
    }

    #[test]
    fn timestepping_accumulates_steps() {
        let cfg = base_cfg();
        let r = super::execute_timestepping(&TechniqueKind::Fac, &cfg, 5, &mut rng(4)).unwrap();
        assert_eq!(r.step_durations.len(), 5);
        assert!((r.step_durations.iter().sum::<f64>() - r.total_time).abs() < 1e-9);
        // Deterministic dedicated system: each step ≈ 1024.
        for d in &r.step_durations {
            assert!((d - 1024.0).abs() < 8.0, "step {d}");
        }
        assert!((r.mean_step() - 1024.0).abs() < 8.0);
        assert!(super::execute_timestepping(&TechniqueKind::Fac, &cfg, 0, &mut rng(4)).is_err());
    }

    #[test]
    fn awf_timestep_adapts_across_steps() {
        // Heterogeneous constant availability: step 1 runs with uniform
        // weights (WF-like, makespan pinned by the slow workers' first
        // batch); from step 2 on, the original AWF re-weights from the
        // measured history and the step duration drops substantially.
        let specs: Vec<AvailabilitySpec> = (0..4)
            .map(|i| AvailabilitySpec::Constant {
                a: if i == 0 { 0.25 } else { 1.0 },
            })
            .collect();
        let cfg = ExecutorConfig::builder()
            .workers(4)
            .parallel_iters(4096)
            .iter_time_mean_sigma(1.0, 0.0)
            .unwrap()
            .availability_per_worker(specs)
            .build()
            .unwrap();
        let awf = TechniqueKind::Awf {
            variant: crate::AwfVariant::Timestep,
        };
        let r = super::execute_timestepping(&awf, &cfg, 4, &mut rng(12)).unwrap();
        let first = r.step_durations[0];
        let last = *r.step_durations.last().unwrap();
        assert!(
            last < 0.8 * first,
            "AWF should adapt: first step {first}, last step {last}"
        );
        // Adapted steps approach the fluid bound 4096/3.25 ≈ 1260.
        assert!(last < 1_700.0, "adapted step {last}");
    }

    #[test]
    fn timestepping_resets_per_loop_state() {
        // Deterministic techniques repeat the same schedule every step on
        // a dedicated machine — if per-loop state leaked across steps the
        // durations would drift.
        let cfg = base_cfg();
        for kind in [TechniqueKind::Tss, TechniqueKind::Fac, TechniqueKind::Gss] {
            let r = super::execute_timestepping(&kind, &cfg, 3, &mut rng(9)).unwrap();
            let d0 = r.step_durations[0];
            for d in &r.step_durations[1..] {
                assert!(
                    (d - d0).abs() < 1e-6,
                    "{}: step durations drift: {:?}",
                    kind.name(),
                    r.step_durations
                );
            }
        }
    }

    #[test]
    fn session_reproduces_execute_exactly() {
        // Same seed, same config: a session driven to infinity must land on
        // the same makespan, chunk count and RNG stream as `execute`.
        let mut cfg = base_cfg();
        cfg.serial_iters = 100;
        cfg.iter_sigma = 0.3;
        cfg.overhead = 1.0;
        cfg.availability = vec![AvailabilitySpec::Renewal {
            pmf: cdsf_pmf::Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap(),
            mean_dwell: 50.0,
        }];
        for kind in [TechniqueKind::Fac, TechniqueKind::Af, TechniqueKind::Static] {
            let run = execute(&kind, &cfg, &mut rng(21)).unwrap();
            let mut r = rng(21);
            let mut session = ExecutorSession::new(&kind, cfg.clone(), 0.0, &mut r).unwrap();
            let status = session.advance_until(f64::INFINITY, &mut r);
            let SessionStatus::Completed { finish } = status else {
                panic!("{}: session did not complete", kind.name());
            };
            assert_eq!(finish, run.makespan, "{} makespan", kind.name());
            assert_eq!(session.chunks(), run.chunks, "{} chunks", kind.name());
        }
    }

    #[test]
    fn session_is_pause_point_invariant() {
        // Chopping the timeline into arbitrary horizons must not change the
        // outcome: pausing never consumes randomness.
        let mut cfg = base_cfg();
        cfg.iter_sigma = 0.2;
        cfg.availability = vec![AvailabilitySpec::Renewal {
            pmf: cdsf_pmf::Pmf::from_pairs([(0.25, 0.25), (1.0, 0.75)]).unwrap(),
            mean_dwell: 80.0,
        }];
        let mut r1 = rng(5);
        let mut one = ExecutorSession::new(&TechniqueKind::Fac, cfg.clone(), 0.0, &mut r1).unwrap();
        let SessionStatus::Completed { finish: f_one } = one.advance_until(f64::INFINITY, &mut r1)
        else {
            panic!("must complete")
        };
        let mut r2 = rng(5);
        let mut many = ExecutorSession::new(&TechniqueKind::Fac, cfg, 0.0, &mut r2).unwrap();
        let mut t = 100.0;
        let f_many = loop {
            match many.advance_until(t, &mut r2) {
                SessionStatus::Completed { finish } => break finish,
                SessionStatus::Paused => t += 173.0,
            }
        };
        assert_eq!(f_one, f_many);
    }

    #[test]
    fn session_interrupt_during_serial_prologue() {
        let cfg = ExecutorConfig::builder()
            .workers(4)
            .serial_iters(100)
            .parallel_iters(400)
            .iter_time_mean_sigma(1.0, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let mut r = rng(3);
        let mut s = ExecutorSession::new(&TechniqueKind::Fac, cfg, 0.0, &mut r).unwrap();
        assert_eq!(s.serial_end(), 100.0); // dedicated worker, σ = 0
        assert_eq!(s.advance_until(30.0, &mut r), SessionStatus::Paused);
        let resume = s.interrupt(30.0, &mut r);
        assert_eq!(resume.serial_iters_left, 70);
        assert_eq!(resume.parallel_iters_left, 400);
        assert!(resume.wasted_work < 1.0, "wasted {}", resume.wasted_work);
    }

    #[test]
    fn session_interrupt_conserves_parallel_iterations() {
        let cfg = base_cfg(); // 4096 iters, 4 dedicated workers, σ = 0
        let mut r = rng(11);
        let mut s = ExecutorSession::new(&TechniqueKind::Fac, cfg.clone(), 0.0, &mut r).unwrap();
        assert_eq!(s.advance_until(1000.0, &mut r), SessionStatus::Paused);
        let undispatched = s.remaining_parallel();
        let resume = s.interrupt(1000.0, &mut r);
        assert_eq!(resume.serial_iters_left, 0);
        // Aborted in-flight chunks return their iterations on top of the
        // undispatched pool; completed iterations stay completed.
        assert!(resume.parallel_iters_left >= undispatched);
        assert!(resume.parallel_iters_left < cfg.parallel_iters);
        // Dedicated workers, 500 time units: at most 4·500 iterations of
        // progress can be wiped out, and wasted work is bounded by what the
        // aborted chunks could have computed by t.
        let done = cfg.parallel_iters - resume.parallel_iters_left;
        assert!(done > 0, "some iterations must survive the interrupt");
        assert!(resume.wasted_work <= 4.0 * 1000.0);
    }

    #[test]
    fn session_resume_completes_leftover_work() {
        // Interrupt a run, rebuild a fresh session with the leftover
        // counts (as a remap would), and finish it: total iterations done
        // across both sessions must equal the original workload.
        let cfg = base_cfg();
        let mut r = rng(17);
        let mut first =
            ExecutorSession::new(&TechniqueKind::Fac, cfg.clone(), 0.0, &mut r).unwrap();
        assert_eq!(first.advance_until(400.0, &mut r), SessionStatus::Paused);
        let resume = first.interrupt(400.0, &mut r);
        let cfg2 = ExecutorConfig::builder()
            .workers(2)
            .parallel_iters(resume.parallel_iters_left)
            .iter_time_mean_sigma(1.0, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let mut second = ExecutorSession::new(&TechniqueKind::Fac, cfg2, 400.0, &mut r).unwrap();
        let SessionStatus::Completed { finish } = second.advance_until(f64::INFINITY, &mut r)
        else {
            panic!("resumed session must complete")
        };
        // 2 dedicated workers at unit speed from t = 400.
        let expect = 400.0 + resume.parallel_iters_left as f64 / 2.0;
        assert!(
            (finish - expect).abs() < 16.0,
            "finish {finish} vs fluid bound {expect}"
        );
    }

    #[test]
    fn session_validates_start() {
        let cfg = base_cfg();
        let mut r = rng(1);
        assert!(ExecutorSession::new(&TechniqueKind::Fac, cfg.clone(), -1.0, &mut r).is_err());
        assert!(ExecutorSession::new(&TechniqueKind::Fac, cfg, f64::INFINITY, &mut r).is_err());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let mut cfg = base_cfg();
        cfg.serial_iters = 50;
        cfg.iter_sigma = 0.3;
        cfg.overhead = 1.0;
        cfg.availability = vec![AvailabilitySpec::Renewal {
            pmf: cdsf_pmf::Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap(),
            mean_dwell: 50.0,
        }];
        let mut fresh_rng = rng(33);
        let fresh: Vec<RunResult> = (0..5)
            .map(|_| execute(&TechniqueKind::Af, &cfg, &mut fresh_rng).unwrap())
            .collect();
        let mut reused_rng = rng(33);
        let mut scratch = ExecutorScratch::new();
        for (i, f) in fresh.iter().enumerate() {
            let g = execute_in(&TechniqueKind::Af, &cfg, &mut scratch, &mut reused_rng).unwrap();
            assert_eq!(
                g.makespan.to_bits(),
                f.makespan.to_bits(),
                "replicate {i} makespan"
            );
            assert_eq!(g.chunks, f.chunks, "replicate {i} chunks");
            assert_eq!(g.worker_finish, f.worker_finish, "replicate {i} finishes");
        }
    }

    #[test]
    fn scratch_adapts_to_changing_worker_counts() {
        // prepare() must grow and shrink the worker pool without leaking
        // state from a previous configuration.
        let mut scratch = ExecutorScratch::new();
        for p in [4usize, 2, 6] {
            let cfg = ExecutorConfig::builder()
                .workers(p)
                .parallel_iters(1024)
                .iter_time_mean_sigma(1.0, 0.2)
                .unwrap()
                .availability(AvailabilitySpec::Constant { a: 0.5 })
                .build()
                .unwrap();
            let reused =
                execute_in(&TechniqueKind::Fac, &cfg, &mut scratch, &mut rng(p as u64)).unwrap();
            let fresh = execute(&TechniqueKind::Fac, &cfg, &mut rng(p as u64)).unwrap();
            assert_eq!(reused.makespan.to_bits(), fresh.makespan.to_bits());
            assert_eq!(reused.worker_finish.len(), p);
        }
    }

    #[test]
    fn scratch_restarts_equal_specs_and_rebuilds_changed_ones() {
        // Stateful processes (Markov phase, trace position) and changing
        // specs, broadcast and per worker, with repeats that restart and
        // changes that rebuild: every run must equal a fresh one.
        let markov = AvailabilitySpec::TwoStateMarkov {
            up: 1.0,
            down: 0.3,
            mean_up: 40.0,
            mean_down: 20.0,
        };
        let trace = AvailabilitySpec::Trace {
            segments: vec![(0.9, 30.0), (0.4, 15.0), (0.7, 50.0)],
        };
        let renewal = AvailabilitySpec::Renewal {
            pmf: cdsf_pmf::Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap(),
            mean_dwell: 25.0,
        };
        let per_worker = vec![markov.clone(), trace.clone(), renewal.clone()];
        let mut scratch = ExecutorScratch::new();
        for (i, specs) in [
            vec![markov.clone()],
            vec![markov],
            vec![trace.clone()],
            vec![trace],
            per_worker.clone(),
            per_worker,
            vec![renewal],
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = base_cfg();
            cfg.num_workers = 3;
            cfg.iter_sigma = 0.2;
            cfg.availability = specs;
            let seed = 50 + i as u64;
            let reused =
                execute_in(&TechniqueKind::Af, &cfg, &mut scratch, &mut rng(seed)).unwrap();
            let fresh = execute(&TechniqueKind::Af, &cfg, &mut rng(seed)).unwrap();
            assert_eq!(
                reused.makespan.to_bits(),
                fresh.makespan.to_bits(),
                "run {i}"
            );
            assert_eq!(reused.worker_finish, fresh.worker_finish, "run {i}");
        }
    }

    #[test]
    fn failed_build_leaves_no_spec_recorded() {
        // Worker 1's spec fails to build after worker 0's was rebuilt: the
        // same config must fail again, not restart worker 1's stale
        // process, and a valid config afterwards must equal a fresh run.
        let valid = base_cfg();
        let mut broken = base_cfg();
        broken.availability = vec![
            AvailabilitySpec::Constant { a: 0.5 },
            AvailabilitySpec::Constant { a: 0.0 },
            AvailabilitySpec::Constant { a: 0.5 },
            AvailabilitySpec::Constant { a: 0.5 },
        ];
        let mut scratch = ExecutorScratch::new();
        execute_in(&TechniqueKind::Fac, &valid, &mut scratch, &mut rng(1)).unwrap();
        for _ in 0..2 {
            assert!(execute_in(&TechniqueKind::Fac, &broken, &mut scratch, &mut rng(1)).is_err());
        }
        let reused = execute_in(&TechniqueKind::Fac, &valid, &mut scratch, &mut rng(2)).unwrap();
        let fresh = execute(&TechniqueKind::Fac, &valid, &mut rng(2)).unwrap();
        assert_eq!(reused.makespan.to_bits(), fresh.makespan.to_bits());
    }

    #[test]
    fn unobserved_techniques_run_as_if_observed() {
        // FAC, WF and the non-adaptive techniques never read the worker
        // statistics, so skipping their upkeep must not move a bit: the
        // same run with observation forced on gives the same chunk log.
        let mut cfg = base_cfg();
        cfg.serial_iters = 40;
        cfg.iter_sigma = 0.3;
        cfg.overhead = 0.5;
        cfg.record_chunks = true;
        cfg.availability = vec![AvailabilitySpec::Renewal {
            pmf: cdsf_pmf::Pmf::from_pairs([(0.3, 0.4), (1.0, 0.6)]).unwrap(),
            mean_dwell: 30.0,
        }];
        let unobserved: Vec<TechniqueKind> = TechniqueKind::all(32)
            .into_iter()
            .chain([
                TechniqueKind::FacWithCov { cov: 0.3 },
                TechniqueKind::Wf {
                    weights: Some(vec![1.0, 2.0, 1.0, 0.5]),
                },
            ])
            .filter(|kind| !kind.reads_worker_stats())
            .collect();
        assert!(unobserved.len() >= 8, "{unobserved:?}");
        for kind in unobserved {
            for seed in 0..4 {
                let run = |observe: bool| {
                    let mut technique = kind.build(cfg.num_workers, cfg.parallel_iters).unwrap();
                    let mut scratch = ExecutorScratch::new();
                    scratch.prepare(&cfg).unwrap();
                    let mut r = rng(seed);
                    run_one_step(technique.as_mut(), &cfg, &mut scratch, 0.0, observe, &mut r)
                        .unwrap()
                };
                let (skipped, observed) = (run(false), run(true));
                assert_eq!(skipped.chunk_log, observed.chunk_log, "{}", kind.name());
                assert_eq!(
                    skipped.makespan.to_bits(),
                    observed.makespan.to_bits(),
                    "{}",
                    kind.name()
                );
                let public = execute(&kind, &cfg, &mut rng(seed)).unwrap();
                assert_eq!(public.chunk_log, skipped.chunk_log, "{}", kind.name());
            }
        }
    }

    #[test]
    fn replicate_makespans_length_and_variation() {
        let mut cfg = base_cfg();
        cfg.iter_sigma = 0.25;
        let ms = replicate_makespans(&TechniqueKind::Fac, &cfg, 8, &mut rng(1)).unwrap();
        assert_eq!(ms.len(), 8);
        // With σ > 0 the replicates must not all coincide.
        assert!(ms.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn session_progress_queries_follow_the_serial_prologue() {
        let cfg = ExecutorConfig::builder()
            .workers(4)
            .serial_iters(100)
            .parallel_iters(400)
            .iter_time_mean_sigma(1.0, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let mut r = rng(9);
        let s = ExecutorSession::new(&TechniqueKind::Fac, cfg, 10.0, &mut r).unwrap();
        assert_eq!((s.start(), s.serial_end()), (10.0, 110.0));
        assert!(s.in_serial_phase(10.0));
        assert!(s.in_serial_phase(109.9));
        assert!(!s.in_serial_phase(110.0));
        // Nothing is in flight yet: the prologue end is the only commitment.
        assert_eq!(s.lower_bound_finish(), 110.0);
        assert_eq!(s.outstanding_parallel(0.0), 400);
        assert_eq!(s.chunks(), 0);
    }

    #[test]
    fn a_session_without_a_prologue_is_never_in_its_serial_phase() {
        let mut r = rng(2);
        let s = ExecutorSession::new(&TechniqueKind::Fac, base_cfg(), 5.0, &mut r).unwrap();
        assert_eq!(s.serial_end(), 5.0);
        assert!(!s.in_serial_phase(0.0));
        assert!(!s.in_serial_phase(5.0));
        assert_eq!(s.lower_bound_finish(), 5.0);
    }

    #[test]
    fn outstanding_work_counts_undispatched_and_unfinished_chunks() {
        let cfg = base_cfg(); // 4096 unit iterations, 4 dedicated workers
        let mut r = rng(13);
        let mut s = ExecutorSession::new(&TechniqueKind::Fac, cfg.clone(), 0.0, &mut r).unwrap();
        assert_eq!(s.advance_until(300.0, &mut r), SessionStatus::Paused);
        let undispatched = s.remaining_parallel();
        assert!(undispatched > 0 && undispatched < cfg.parallel_iters);
        // Every worker holds a chunk finishing after the pause point.
        assert!(s.lower_bound_finish() > 300.0);
        let at_pause = s.outstanding_parallel(300.0);
        assert!(at_pause > undispatched, "in-flight chunks are outstanding");
        assert_eq!(s.outstanding_parallel(f64::INFINITY), undispatched);
        assert!(s.outstanding_parallel(0.0) >= at_pause);
        let SessionStatus::Completed { finish } = s.advance_until(f64::INFINITY, &mut r) else {
            panic!("must complete");
        };
        assert_eq!(s.outstanding_parallel(finish), 0);
        assert_eq!(s.lower_bound_finish(), finish);
    }
}
