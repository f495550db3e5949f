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
    run_one_pass(&mut scheduler, cfg.threads, &body)
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
        reports.push(run_one_pass(&mut scheduler, cfg.threads, &body)?);
    }
    Ok(reports)
}

/// One complete drain of the scheduler's current loop across worker
/// threads.
fn run_one_pass<F>(scheduler: &mut Scheduler, threads: usize, body: &F) -> Result<RuntimeReport>
where
    F: Fn(u64) + Sync,
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
                let seconds = t0.elapsed().as_secs_f64().max(1e-12);
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
    Ok(RuntimeReport {
        iterations: total,
        wall_seconds,
        chunks,
        imbalance: imbalance_cov(&per_worker_busy),
        per_worker_iterations,
        per_worker_busy,
    })
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

    #[test]
    fn timestepped_awf_keeps_history_across_steps() {
        // With a skewed body, AWF's later steps should be no worse
        // balanced than its first (weights adapt from step 1's history).
        let n = 2_048u64;
        let work = |i: u64| {
            let reps = if i >= n / 2 { 800 } else { 50 };
            let mut acc = 0.0f64;
            for k in 0..reps {
                acc += ((i + k) as f64).sqrt();
            }
            std::hint::black_box(acc);
        };
        let kind = TechniqueKind::Awf {
            variant: crate::AwfVariant::Timestep,
        };
        let reports = run_timestepped_loop(n, 4, &cfg(4, kind), work).unwrap();
        let first = reports[0].imbalance;
        let last = reports.last().unwrap().imbalance;
        // Wall-clock noise on shared CI machines is real; allow slack but
        // catch gross regressions (adaptation must not blow up imbalance).
        assert!(
            last <= first * 1.5 + 0.05,
            "imbalance grew across steps: first {first}, last {last}"
        );
    }

    #[test]
    fn adaptive_runtime_rebalances_skewed_bodies() {
        // Iterations in the upper half are ~20× more expensive. Dynamic
        // chunking must keep per-worker busy times far better balanced
        // than a static quarter-split would be (which would give the
        // workers owning the expensive half ~20× the work).
        let n = 4_096u64;
        let work = |i: u64| {
            let reps = if i >= n / 2 { 2_000 } else { 100 };
            let mut acc = 0.0f64;
            for k in 0..reps {
                acc += ((i + k) as f64).sqrt();
            }
            std::hint::black_box(acc);
        };
        let dynamic = run_parallel_loop(n, &cfg(4, TechniqueKind::Fac), work).unwrap();
        let static_run = run_parallel_loop(n, &cfg(4, TechniqueKind::Static), work).unwrap();
        assert!(
            dynamic.imbalance < static_run.imbalance,
            "dynamic imbalance {} should beat static {}",
            dynamic.imbalance,
            static_run.imbalance
        );
    }
}
