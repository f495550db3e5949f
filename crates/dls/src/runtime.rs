//! A real multithreaded DLS runtime: self-schedule an actual Rust loop
//! body with any [`TechniqueKind`].
//!
//! Everything else in this crate *simulates* loop execution; this module
//! *performs* it. [`run_parallel_loop`] spawns worker threads (std
//! scoped, no 'static bound on the body), and each worker repeatedly:
//!
//! 1. locks the shared `Scheduler`, asks the technique for a chunk
//!    (observing live per-worker statistics, exactly as in the simulator),
//! 2. executes the body for every iteration in the chunk,
//! 3. reports the measured wall-clock duration back, updating its
//!    statistics (so AWF/AF adapt to *real* load: frequency scaling,
//!    co-located processes, NUMA effects — the real-world analogues of the
//!    paper's availability fluctuations).
//!
//! The scheduler lock is held only for the chunk-size decision (a few
//! arithmetic operations), so contention is negligible for any chunk size
//! the techniques produce; SS with a trivial body is the worst case and is
//! exactly the scheduling-overhead regime the paper's `h` models.
//!
//! ```
//! use cdsf_dls::runtime::{run_parallel_loop, RuntimeConfig};
//! use cdsf_dls::TechniqueKind;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! let report = run_parallel_loop(
//!     1_000,
//!     &RuntimeConfig { threads: 4, kind: TechniqueKind::Fac },
//!     |i| { sum.fetch_add(i, Ordering::Relaxed); },
//! ).unwrap();
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1_000 / 2);
//! assert_eq!(report.iterations, 1_000);
//! ```

use crate::technique::{SchedContext, Technique, TechniqueKind, WorkerSnapshot};
use crate::{DlsError, Result};
use cdsf_pmf::stats::{imbalance_cov, Welford};
use parking_lot::Mutex;
use std::time::Instant;

/// Configuration of a real parallel-loop execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads.
    pub threads: usize,
    /// The chunk-size policy.
    pub kind: TechniqueKind,
}

/// Outcome of a real parallel-loop execution.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Total iterations executed (= the requested count).
    pub iterations: u64,
    /// Wall-clock duration of the whole loop, in seconds.
    pub wall_seconds: f64,
    /// Chunks dispatched.
    pub chunks: u64,
    /// Iterations executed per worker.
    pub per_worker_iterations: Vec<u64>,
    /// Busy time per worker (sum of its chunk durations), in seconds.
    pub per_worker_busy: Vec<f64>,
    /// Coefficient of variation of per-worker busy times — the live
    /// load-imbalance metric.
    pub imbalance: f64,
}

/// Shared scheduler state: the technique plus the live statistics it
/// observes.
struct Scheduler {
    technique: Box<dyn Technique + Send>,
    remaining: u64,
    total: u64,
    started_at: Instant,
    snapshots: Vec<WorkerSnapshot>,
    accumulators: Vec<Welford>,
    chunks: u64,
}

impl Scheduler {
    /// Claims the next chunk for `worker`; `None` when the loop is drained.
    fn claim(&mut self, worker: usize) -> Option<(u64, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let ctx = SchedContext {
            worker,
            num_workers: self.snapshots.len(),
            total_iters: self.total,
            remaining: self.remaining,
            now: self.started_at.elapsed().as_secs_f64(),
            workers: &self.snapshots,
        };
        let size = self.technique.next_chunk(&ctx).clamp(1, self.remaining);
        let start = self.total - self.remaining;
        self.remaining -= size;
        self.chunks += 1;
        Some((start, size))
    }

    /// Records a completed chunk's measured duration (seconds).
    fn report(&mut self, worker: usize, size: u64, seconds: f64) {
        let per_iter = seconds / size as f64;
        self.accumulators[worker].push(per_iter);
        let snap = &mut self.snapshots[worker];
        snap.iters_done += size;
        snap.chunks_done += 1;
        let mean = self.accumulators[worker].mean();
        // No master-side overhead measurement in-process; total ≈ compute.
        snap.set_estimates(mean, self.accumulators[worker].variance(), mean);
    }
}

/// Executes `body(i)` for every `i in 0..total` across `cfg.threads`
/// worker threads, chunked by `cfg.kind`. Every iteration is executed
/// exactly once; the call returns when all iterations have completed.
pub fn run_parallel_loop<F>(total: u64, cfg: &RuntimeConfig, body: F) -> Result<RuntimeReport>
where
    F: Fn(u64) + Sync,
{
    let mut reports = run_steps(total, 1, cfg, &body, &wall_clock)?;
    Ok(reports.pop().expect("one step, one report"))
}

/// Executes the same loop `steps` times (a time-stepping application on
/// real threads). Between steps [`Technique::on_timestep`] resets per-loop
/// bookkeeping while the measured per-worker statistics — and therefore
/// the adaptive techniques' weights and estimates — carry over, exactly as
/// in the simulator's [`crate::executor::execute_timestepping`].
pub fn run_timestepped_loop<F>(
    total: u64,
    steps: usize,
    cfg: &RuntimeConfig,
    body: F,
) -> Result<Vec<RuntimeReport>>
where
    F: Fn(u64) + Sync,
{
    run_steps(total, steps, cfg, &body, &wall_clock)
}

/// The chunk clock of the public entry points: a chunk took the seconds
/// the wall clock measured.
fn wall_clock(_worker: usize, _start: u64, _size: u64, measured: f64) -> f64 {
    measured
}

/// The loop `steps` times over one scheduler. `clock(worker, start, size,
/// measured)` gives the seconds a chunk is reported to have taken — to
/// the technique's statistics and to the busy times — from the wall-clock
/// seconds it measured; tests substitute a cost model for it.
fn run_steps<F, C>(
    total: u64,
    steps: usize,
    cfg: &RuntimeConfig,
    body: &F,
    clock: &C,
) -> Result<Vec<RuntimeReport>>
where
    F: Fn(u64) + Sync,
    C: Fn(usize, u64, u64, f64) -> f64 + Sync,
{
    if steps == 0 {
        return Err(DlsError::BadParameter {
            name: "steps",
            value: 0.0,
        });
    }
    if cfg.threads == 0 {
        return Err(DlsError::NoWorkers);
    }
    if total == 0 {
        return Err(DlsError::NoIterations);
    }
    let technique = cfg.kind.build(cfg.threads, total)?;
    let mut scheduler = Scheduler {
        technique,
        remaining: total,
        total,
        started_at: Instant::now(),
        snapshots: vec![WorkerSnapshot::default(); cfg.threads],
        accumulators: vec![Welford::new(); cfg.threads],
        chunks: 0,
    };
    let mut reports = Vec::with_capacity(steps);
    for step in 0..steps {
        if step > 0 {
            scheduler.technique.on_timestep();
            scheduler.remaining = total;
            scheduler.chunks = 0;
        }
        reports.push(run_one_pass(&mut scheduler, cfg.threads, body, clock));
    }
    Ok(reports)
}

/// One complete drain of the scheduler's current loop across worker
/// threads.
fn run_one_pass<F, C>(
    scheduler: &mut Scheduler,
    threads: usize,
    body: &F,
    clock: &C,
) -> RuntimeReport
where
    F: Fn(u64) + Sync,
    C: Fn(usize, u64, u64, f64) -> f64 + Sync,
{
    let total = scheduler.remaining;
    let shared = Mutex::new(scheduler);
    let per_worker_iterations: Vec<Mutex<u64>> = (0..threads).map(|_| Mutex::new(0)).collect();
    let per_worker_busy: Vec<Mutex<f64>> = (0..threads).map(|_| Mutex::new(0.0)).collect();

    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let shared = &shared;
            let iters_slot = &per_worker_iterations[w];
            let busy_slot = &per_worker_busy[w];
            scope.spawn(move || loop {
                let claimed = shared.lock().claim(w);
                let Some((start, size)) = claimed else { break };
                let t0 = Instant::now();
                for i in start..start + size {
                    body(i);
                }
                let seconds = clock(w, start, size, t0.elapsed().as_secs_f64().max(1e-12));
                shared.lock().report(w, size, seconds);
                *iters_slot.lock() += size;
                *busy_slot.lock() += seconds;
            });
        }
    });
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    let chunks = shared.into_inner().chunks;
    let per_worker_iterations: Vec<u64> = per_worker_iterations
        .into_iter()
        .map(|m| m.into_inner())
        .collect();
    let per_worker_busy: Vec<f64> = per_worker_busy
        .into_iter()
        .map(|m| m.into_inner())
        .collect();
    RuntimeReport {
        iterations: total,
        wall_seconds,
        chunks,
        imbalance: imbalance_cov(&per_worker_busy),
        per_worker_iterations,
        per_worker_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn cfg(threads: usize, kind: TechniqueKind) -> RuntimeConfig {
        RuntimeConfig { threads, kind }
    }

    #[test]
    fn every_iteration_runs_exactly_once() {
        let n = 10_000u64;
        for kind in TechniqueKind::all(64) {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let report = run_parallel_loop(n, &cfg(4, kind.clone()), |i| {
                hits[i as usize].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(report.iterations, n);
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{}: some iteration ran ≠ 1 times",
                kind.name()
            );
            assert_eq!(report.per_worker_iterations.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn computes_a_real_reduction() {
        let n = 100_000u64;
        let sum = AtomicU64::new(0);
        run_parallel_loop(n, &cfg(8, TechniqueKind::Af), |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn single_thread_works() {
        let n = 1_000u64;
        let count = AtomicU64::new(0);
        let report = run_parallel_loop(n, &cfg(1, TechniqueKind::Gss), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(report.per_worker_iterations, vec![n]);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(run_parallel_loop(10, &cfg(0, TechniqueKind::Fac), |_| {}).is_err());
        assert!(run_parallel_loop(0, &cfg(2, TechniqueKind::Fac), |_| {}).is_err());
    }

    #[test]
    fn report_accounts_busy_time_and_chunks() {
        let n = 50_000u64;
        let report = run_parallel_loop(n, &cfg(4, TechniqueKind::Fac), |i| {
            // A tiny but non-trivial body.
            std::hint::black_box((i as f64).sqrt());
        })
        .unwrap();
        assert!(report.chunks >= 4, "chunks {}", report.chunks);
        assert!(report.wall_seconds > 0.0);
        assert_eq!(report.per_worker_busy.len(), 4);
        assert!(report.per_worker_busy.iter().all(|&b| b >= 0.0));
        assert!(report.imbalance >= 0.0);
    }

    #[test]
    fn timestepped_loop_executes_every_step_fully() {
        let n = 5_000u64;
        let steps = 3;
        let count = AtomicU64::new(0);
        let reports = run_timestepped_loop(n, steps, &cfg(4, TechniqueKind::Fac), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(reports.len(), steps);
        assert_eq!(count.load(Ordering::Relaxed), n * steps as u64);
        for r in &reports {
            assert_eq!(r.iterations, n);
            assert_eq!(r.per_worker_iterations.iter().sum::<u64>(), n);
        }
        assert!(run_timestepped_loop(n, 0, &cfg(2, TechniqueKind::Fac), |_| {}).is_err());
    }

    /// A cost-model clock: chunk `[start, start + size)` on `worker` is
    /// reported to take `cost(worker, i)` seconds per iteration `i`, and
    /// is logged as `(cumulative iterations before it, worker, start,
    /// size)`, so a test reads which chunks the scheduler decided, not
    /// how long the host took.
    fn cost_model<'a>(
        cost: impl Fn(usize, u64) -> f64 + Sync + 'a,
        log: &'a Mutex<Vec<(u64, usize, u64, u64)>>,
    ) -> impl Fn(usize, u64, u64, f64) -> f64 + Sync + 'a {
        move |worker, start, size, _measured| {
            let mut log = log.lock();
            let done = log.iter().map(|c| c.3).sum();
            log.push((done, worker, start, size));
            (start..start + size).map(|i| cost(worker, i)).sum()
        }
    }

    #[test]
    fn timestepped_awf_keeps_history_across_steps() {
        // Worker 3 is modelled four times slower per iteration. Each
        // step's first call of each worker thread waits until all four
        // hold a chunk, so each takes exactly one chunk of the step's
        // first batch, the step's largest. Step 1 has no history: the
        // batch splits evenly. From step 2 on, AWF sizes it by the rates
        // step 1 measured: w = P·(1/π)/Σ(1/π), so the slow worker's share
        // drops to a quarter of the others'.
        let (n, p, steps) = (2_048u64, 4usize, 4usize);
        let started = std::sync::Barrier::new(p);
        thread_local!(static HOLDS_A_CHUNK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
        let body = |_: u64| {
            if !HOLDS_A_CHUNK.with(|h| h.replace(true)) {
                started.wait();
            }
        };
        let log = Mutex::new(Vec::new());
        let clock = cost_model(|w, _| if w == 3 { 4.0 } else { 1.0 }, &log);
        let kind = TechniqueKind::Awf {
            variant: crate::AwfVariant::Timestep,
        };
        let reports = run_steps(n, steps, &cfg(p, kind), &body, &clock).unwrap();
        assert_eq!(reports.len(), steps);
        let mut largest = vec![vec![0u64; p]; steps];
        for &(done, worker, _, size) in log.lock().iter() {
            let step = (done / n) as usize;
            largest[step][worker] = largest[step][worker].max(size);
        }
        let base = n as f64 / (2 * p) as f64;
        assert_eq!(largest[0], vec![base as u64; p], "step 1 splits evenly");
        let scale = p as f64 / 3.25;
        let (fast, slow) = (
            (scale * base).ceil() as u64,
            (0.25 * scale * base).ceil() as u64,
        );
        assert_eq!((fast, slow), (316, 79));
        for (step, chunks) in largest.iter().enumerate().skip(1) {
            assert_eq!(chunks, &vec![fast, fast, fast, slow], "step {}", step + 1);
        }
        for r in &reports {
            assert_eq!(r.per_worker_iterations.iter().sum::<u64>(), n);
            assert_eq!(r.per_worker_busy.len(), p);
        }
    }

    #[test]
    fn adaptive_runtime_rebalances_skewed_bodies() {
        // Iterations in the upper half are modelled 20× more expensive.
        // The runtime hands out exactly the chunks the technique decides,
        // in iteration order, whichever worker claims them. A
        // self-scheduled worker's busy time can trail another's by at most
        // one chunk: FAC's costliest chunk stays under half an even
        // share of the work, while STATIC's quarters give the workers
        // owning the expensive half nearly twice an even share each.
        let (n, p) = (4_096u64, 4usize);
        let cost = |i: u64| if i >= n / 2 { 20.0 } else { 1.0 };
        let even_share = (0..n).map(cost).sum::<f64>() / p as f64;
        let costliest = |kind: TechniqueKind| {
            let log = Mutex::new(Vec::new());
            let clock = cost_model(|_, i| cost(i), &log);
            let ran = AtomicU64::new(0);
            let body = |_: u64| {
                ran.fetch_add(1, Ordering::Relaxed);
            };
            let report = run_steps(n, 1, &cfg(p, kind.clone()), &body, &clock)
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(ran.load(Ordering::Relaxed), n);
            // The decided chunk sequence, replayed on the technique alone.
            let mut technique = kind.build(p, n).unwrap();
            let stats = vec![WorkerSnapshot::default(); p];
            let mut want = Vec::new();
            let mut remaining = n;
            while remaining > 0 {
                let ctx = SchedContext {
                    worker: 0,
                    num_workers: p,
                    total_iters: n,
                    remaining,
                    now: 0.0,
                    workers: &stats,
                };
                let size = technique.next_chunk(&ctx).clamp(1, remaining);
                want.push((n - remaining, size));
                remaining -= size;
            }
            let mut got: Vec<(u64, u64)> = log.lock().iter().map(|c| (c.2, c.3)).collect();
            got.sort_unstable();
            assert_eq!(got, want, "{} dispatched other chunks", kind.name());
            assert_eq!(report.chunks, want.len() as u64);
            got.iter()
                .map(|&(start, size)| (start..start + size).map(cost).sum::<f64>())
                .fold(0.0, f64::max)
        };
        let dynamic = costliest(TechniqueKind::Fac);
        let static_split = costliest(TechniqueKind::Static);
        assert!(
            dynamic < 0.5 * even_share,
            "FAC's costliest chunk {dynamic} vs even share {even_share}"
        );
        assert!(
            static_split > 1.5 * even_share,
            "STATIC's costliest chunk {static_split} vs even share {even_share}"
        );
    }
}
