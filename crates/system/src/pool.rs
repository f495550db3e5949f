//! A shared work-stealing pool for the workspace's parallel paths.
//!
//! Every parallel computation in the framework has the same shape: a
//! statically known set of independent tasks (Stage-I `(app, type)` PMF
//! families, Stage-II `(cell, replicate)` executor runs), each writing its
//! result into a pre-assigned slot, reduced *in task order* afterwards so
//! the outcome is bit-identical for every worker count. What differed per
//! call site — and what this module unifies — is how tasks reach threads.
//!
//! The previous generation used fixed partitions (contiguous app-aligned
//! chunks in the Stage-I engine) or a single shared claim counter (the
//! Stage-II grid). Fixed partitions lose whenever the weight estimate is
//! wrong or the work is skewed: one heavy application serializes its whole
//! chunk on one thread while the others idle. A single counter avoids skew
//! but pays one contended atomic per fine-grained task. This pool takes the
//! classical middle road:
//!
//! * the task index space is split into **chunks** (contiguous index
//!   ranges, weight-balanced, several per worker), so claim traffic is per
//!   chunk, not per task;
//! * each worker owns a **deque** of chunks, seeded by assigning chunks
//!   in index order to the least-loaded worker (smallest accumulated
//!   weight, ties to the lowest index), so the initial distribution is
//!   already balanced and stealing only mops up estimation error;
//! * a worker pops its own deque from the **front**; when empty it
//!   **steals** from the **back** of the other workers' deques (scanning
//!   victims in ring order from its own index), so stolen work is the work
//!   farthest from the victim's current position;
//! * each worker's *first* chunk is **reserved**: it can only be executed
//!   by its owner. Thieves skip a victim whose deque holds a single
//!   not-yet-started chunk, retrying (with [`std::thread::yield_now`])
//!   until the owner claims it. This makes "every worker with seeded work
//!   executes at least one task" a *property of the pool*, not a race —
//!   the starvation stress tests assert it deterministically.
//!
//! # Determinism contract
//!
//! The pool schedules; it never touches results. Callers write each task's
//! output into a slot addressed by task index and reduce slots in index
//! order after [`run`] returns, so results are bit-identical for every
//! worker count and every steal interleaving. Errors are deterministic
//! too: workers run the full task set even after a failure (tasks are
//! cheap, failures are rare, and stopping early would make *which* error
//! surfaces depend on scheduling), and [`run`] reports the failure with
//! the smallest task index — exactly the error a serial loop would hit
//! first. Only the scheduling metadata in [`PoolStats`] (who ran and stole
//! how much) is interleaving-dependent.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Chunk-count target per worker: enough chunks that stealing can
/// rebalance a mis-estimated weight profile, few enough that claim
/// traffic stays negligible next to the task work.
const CHUNKS_PER_WORKER: usize = 8;

/// Scheduling metadata from one [`run`]: which worker executed and stole
/// how much. Everything here depends on thread interleaving — use it for
/// observability and the starvation tests, never for results.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Workers actually used (after clamping to the task count).
    pub workers: usize,
    /// Tasks executed per worker; sums to the task count on success.
    pub tasks_run: Vec<usize>,
    /// Chunks each worker stole from another worker's deque.
    pub chunks_stolen: Vec<usize>,
    /// Tasks initially seeded into each worker's deque. Unlike the two
    /// fields above this is *deterministic* — a pure function of the task
    /// count, weights, and worker count — so guards can assert the
    /// seeding balance without scheduling noise.
    pub tasks_seeded: Vec<usize>,
}

impl PoolStats {
    /// Whether every worker executed at least one task — the pool's
    /// no-starvation guarantee for error-free runs with at least as many
    /// tasks as workers.
    pub fn no_worker_starved(&self) -> bool {
        self.tasks_run.iter().all(|&t| t > 0)
    }

    /// Total chunks stolen across all workers.
    pub fn total_steals(&self) -> usize {
        self.chunks_stolen.iter().sum()
    }

    /// Total tasks executed across all workers.
    pub fn total_tasks(&self) -> usize {
        self.tasks_run.iter().sum()
    }
}

/// A contiguous run of task indices, claimed and executed as a unit.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    start: usize,
    end: usize,
}

/// Splits `[0, num_tasks)` into weight-balanced contiguous chunks.
///
/// Guarantees at least `workers` chunks whenever `num_tasks ≥ workers`
/// (chunk length is capped at `⌊num_tasks / workers⌋`), so the seeding
/// step can give every worker a non-empty deque.
fn build_chunks(num_tasks: usize, workers: usize, weights: Option<&[u64]>) -> Vec<Chunk> {
    let weight = |i: usize| weights.map_or(1, |w| w[i].max(1));
    let total: u64 = (0..num_tasks).map(weight).sum();
    let target = (total / (workers * CHUNKS_PER_WORKER) as u64).max(1);
    let max_len = (num_tasks / workers).max(1);

    let mut chunks = Vec::with_capacity(workers * CHUNKS_PER_WORKER + workers);
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..num_tasks {
        acc += weight(i);
        if acc >= target || i + 1 - start == max_len {
            chunks.push(Chunk { start, end: i + 1 });
            start = i + 1;
            acc = 0;
        }
    }
    if start < num_tasks {
        chunks.push(Chunk {
            start,
            end: num_tasks,
        });
    }
    chunks
}

/// Seeds each worker's deque by assigning chunks, in index order, to the
/// worker with the smallest accumulated weight so far (ties broken by the
/// lowest worker index). Deterministic, and balanced even when one early
/// chunk dwarfs the rest: the heavy worker simply stops receiving chunks
/// while the others fill up, so stealing is the rebalancing *fallback*,
/// not the primary distribution. The first `workers` chunks land on
/// workers `0..workers` in order (everyone ties at zero), so every worker
/// is seeded non-empty whenever [`build_chunks`]'s `chunks ≥ workers`
/// guarantee holds, and each deque's chunk indices are increasing — the
/// reserved front chunk is always its owner's earliest.
fn seed_deques(
    chunks: &[Chunk],
    workers: usize,
    weights: Option<&[u64]>,
) -> Vec<Mutex<VecDeque<Chunk>>> {
    let weight = |c: &Chunk| -> u64 {
        match weights {
            Some(w) => w[c.start..c.end].iter().map(|&x| x.max(1)).sum(),
            None => (c.end - c.start) as u64,
        }
    };

    let mut deques: Vec<Mutex<VecDeque<Chunk>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut acc = vec![0u64; workers];
    for chunk in chunks {
        let w = (0..workers)
            .min_by_key(|&w| (acc[w], w))
            .expect("workers ≥ 1");
        deques[w].get_mut().expect("fresh mutex").push_back(*chunk);
        acc[w] += weight(chunk).max(1);
    }
    deques
}

/// Runs `num_tasks` independent tasks over `workers` threads with chunked
/// work stealing.
///
/// * `weights` — optional per-task work estimates steering chunk
///   boundaries and deque seeding; pass `None` for uniform tasks.
/// * `make_scratch` — called once per worker; the scratch value is reused
///   across every task (including stolen chunks) that worker executes.
/// * `task` — invoked exactly once per index in `0..num_tasks` on
///   error-free runs; must write any output it produces into per-index
///   storage (slots), never shared accumulators, so the caller's in-order
///   reduction stays bit-identical for every worker count.
///
/// The calling thread participates as worker 0; `workers` is clamped to
/// `[1, num_tasks]`, and `workers ≤ 1` runs the tasks inline in index
/// order with no thread spawned. On failure the error with the smallest
/// task index is returned (the same error a serial loop would surface),
/// regardless of which worker hit it first.
pub fn run<S, E, FS, FT>(
    workers: usize,
    num_tasks: usize,
    weights: Option<&[u64]>,
    make_scratch: FS,
    task: FT,
) -> std::result::Result<PoolStats, E>
where
    E: Send,
    FS: Fn() -> S + Sync,
    FT: Fn(usize, &mut S) -> std::result::Result<(), E> + Sync,
{
    if let Some(w) = weights {
        assert_eq!(w.len(), num_tasks, "one weight per task");
    }
    let workers = workers.min(num_tasks).max(1);
    if workers == 1 {
        let mut scratch = make_scratch();
        for i in 0..num_tasks {
            task(i, &mut scratch)?;
        }
        return Ok(PoolStats {
            workers: 1,
            tasks_run: vec![num_tasks],
            chunks_stolen: vec![0],
            tasks_seeded: vec![num_tasks],
        });
    }

    let chunks = build_chunks(num_tasks, workers, weights);
    let deques = seed_deques(&chunks, workers, weights);
    let tasks_seeded: Vec<usize> = deques
        .iter()
        .map(|dq| {
            dq.lock()
                .expect("fresh mutex")
                .iter()
                .map(|c| c.end - c.start)
                .sum()
        })
        .collect();
    // `started[w]`: worker `w` has claimed its first chunk (or found its
    // deque already empty) — until then its front chunk is reserved.
    let started: Vec<AtomicBool> = (0..workers).map(|_| AtomicBool::new(false)).collect();
    let tasks_run: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    let chunks_stolen: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    // First error by task index; later-index errors never overwrite it.
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);

    let worker_loop = |me: usize| {
        let mut scratch = make_scratch();
        let mut executed = 0usize;
        let mut stolen = 0usize;
        loop {
            // Own deque first: pop the front (the reserved chunk, then the
            // rest of the seeded block in index order).
            let mut next = deques[me].lock().expect("pool deque poisoned").pop_front();
            started[me].store(true, Ordering::Release);
            if next.is_none() {
                // Steal: scan victims in ring order; take the back chunk,
                // skipping victims whose single remaining chunk is still
                // reserved for an owner that has not started.
                'steal: loop {
                    let mut reserved_pending = false;
                    for off in 1..workers {
                        let v = (me + off) % workers;
                        let mut dq = deques[v].lock().expect("pool deque poisoned");
                        if dq.len() > 1 || started[v].load(Ordering::Acquire) {
                            if let Some(c) = dq.pop_back() {
                                next = Some(c);
                                stolen += 1;
                                break 'steal;
                            }
                        } else if !dq.is_empty() {
                            reserved_pending = true;
                        }
                    }
                    if !reserved_pending {
                        break;
                    }
                    // A straggler still owns a reserved chunk; give it the
                    // core and re-scan.
                    std::thread::yield_now();
                }
            }
            let Some(chunk) = next else { break };
            for i in chunk.start..chunk.end {
                if let Err(e) = task(i, &mut scratch) {
                    let mut guard = first_error.lock().expect("pool error slot poisoned");
                    match &*guard {
                        Some((j, _)) if *j <= i => {}
                        _ => *guard = Some((i, e)),
                    }
                } else {
                    executed += 1;
                }
            }
        }
        tasks_run[me].store(executed, Ordering::Relaxed);
        chunks_stolen[me].store(stolen, Ordering::Relaxed);
    };

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        for me in 1..workers {
            let worker_loop = &worker_loop;
            handles.push(scope.spawn(move || worker_loop(me)));
        }
        worker_loop(0);
        for h in handles {
            h.join().expect("pool worker panicked");
        }
    });

    if let Some((_, e)) = first_error.into_inner().expect("pool error slot poisoned") {
        return Err(e);
    }
    Ok(PoolStats {
        workers,
        tasks_run: tasks_run
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect(),
        chunks_stolen: chunks_stolen
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect(),
        tasks_seeded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Runs `n` tasks that each record `f(i)` into slot `i`, returning the
    /// slot vector — the caller-side slot-and-reduce pattern in miniature.
    fn run_to_slots(workers: usize, n: usize, weights: Option<&[u64]>) -> (Vec<u64>, PoolStats) {
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stats = run(
            workers,
            n,
            weights,
            || (),
            |i, _s: &mut ()| -> Result<(), ()> {
                slots[i].store((i as u64) * 3 + 1, Ordering::Relaxed);
                Ok(())
            },
        )
        .expect("no task fails");
        (
            slots.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            stats,
        )
    }

    #[test]
    fn every_task_runs_exactly_once_any_worker_count() {
        for workers in [1usize, 2, 3, 4, 7, 16] {
            for n in [0usize, 1, 2, 5, 7, 64, 100] {
                let (slots, stats) = run_to_slots(workers, n, None);
                let expect: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
                assert_eq!(slots, expect, "workers={workers} n={n}");
                assert_eq!(
                    stats.tasks_run.iter().sum::<usize>(),
                    n,
                    "workers={workers} n={n}"
                );
                assert_eq!(stats.workers, workers.min(n).max(1));
            }
        }
    }

    #[test]
    fn weighted_chunking_covers_all_tasks() {
        // One task 1000× the weight of the rest — the skew shape the
        // Stage-I engine produces for a pulse-rich application.
        let mut weights = vec![1u64; 97];
        weights[0] = 1000;
        let (slots, stats) = run_to_slots(4, 97, Some(&weights));
        assert_eq!(slots.len(), 97);
        assert!(slots
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u64 * 3 + 1));
        assert_eq!(stats.tasks_run.iter().sum::<usize>(), 97);
    }

    #[test]
    fn chunks_partition_the_index_space() {
        for n in [1usize, 5, 7, 97, 1000] {
            for workers in [1usize, 2, 4, 7] {
                let weights: Vec<u64> = (0..n as u64).map(|i| i % 13 + 1).collect();
                for w in [None, Some(weights.as_slice())] {
                    let chunks = build_chunks(n, workers, w);
                    let mut next = 0usize;
                    for c in &chunks {
                        assert_eq!(c.start, next);
                        assert!(c.end > c.start);
                        next = c.end;
                    }
                    assert_eq!(next, n);
                    if n >= workers {
                        assert!(chunks.len() >= workers, "n={n} workers={workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn seeding_gives_every_worker_a_chunk() {
        for n in [4usize, 5, 7, 97] {
            let workers = 4;
            let chunks = build_chunks(n, workers, None);
            let deques = seed_deques(&chunks, workers, None);
            for (w, dq) in deques.iter().enumerate() {
                assert!(
                    !dq.lock().unwrap().is_empty(),
                    "worker {w} seeded empty for n={n}"
                );
            }
        }
    }

    #[test]
    fn seeding_balances_skewed_weights() {
        // The shape that used to seed [1, 21, 1, 1]: one task 1000× the
        // rest. Min-accumulated-weight seeding must park the heavy chunk
        // on one worker and spread the light chunks over the others, so
        // no worker starts with more than half the light tail.
        let mut weights = vec![1u64; 97];
        weights[0] = 1000;
        let workers = 4;
        let chunks = build_chunks(97, workers, Some(&weights));
        let deques = seed_deques(&chunks, workers, Some(&weights));
        let light_per_worker: Vec<usize> = deques
            .iter()
            .map(|dq| {
                dq.lock()
                    .unwrap()
                    .iter()
                    .map(|c| (c.start..c.end).filter(|&i| weights[i] == 1).count())
                    .sum()
            })
            .collect();
        let light_total: usize = light_per_worker.iter().sum();
        assert_eq!(light_total, 96);
        for (w, &l) in light_per_worker.iter().enumerate() {
            assert!(
                l <= light_total / 2,
                "worker {w} seeded {l} of {light_total} light tasks: {light_per_worker:?}"
            );
        }
        // Everyone still gets at least one chunk, with increasing indices.
        for (w, dq) in deques.iter().enumerate() {
            let dq = dq.lock().unwrap();
            assert!(!dq.is_empty(), "worker {w} seeded empty");
            let starts: Vec<usize> = dq.iter().map(|c| c.start).collect();
            assert!(
                starts.windows(2).all(|p| p[0] < p[1]),
                "worker {w}: {starts:?}"
            );
        }
    }

    #[test]
    fn min_index_error_wins() {
        // Tasks 3 and 40 fail; the pool must report 3 no matter which
        // worker hits which failure first.
        for workers in [1usize, 2, 4, 7] {
            let err = run(
                workers,
                64,
                None,
                || (),
                |i, _: &mut ()| if i == 3 || i == 40 { Err(i) } else { Ok(()) },
            )
            .expect_err("two tasks fail");
            assert_eq!(err, 3, "workers={workers}");
        }
    }

    #[test]
    fn scratch_is_allocated_once_per_worker() {
        // `make_scratch` hands out sequential ids; every task records the
        // id of the scratch it ran with. If scratches were re-made per
        // chunk or per task the distinct-id count would exceed the worker
        // count.
        let next_id = AtomicUsize::new(0);
        let seen: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let stats = run(
            4,
            256,
            None,
            || next_id.fetch_add(1, Ordering::Relaxed),
            |i, id: &mut usize| -> Result<(), ()> {
                seen[i].store(*id, Ordering::Relaxed);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(next_id.load(Ordering::Relaxed), stats.workers);
        let mut ids: Vec<usize> = seen.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() <= stats.workers);
        assert!(ids.iter().all(|&id| id < stats.workers));
    }

    #[test]
    fn stats_totals_sum_the_per_worker_counts() {
        let stats = PoolStats {
            workers: 3,
            tasks_run: vec![3, 0, 2],
            chunks_stolen: vec![1, 2, 0],
            tasks_seeded: vec![2, 2, 1],
        };
        assert_eq!(stats.total_tasks(), 5);
        assert_eq!(stats.total_steals(), 3);
        assert!(!stats.no_worker_starved(), "worker 1 ran nothing");
        let busy = PoolStats {
            tasks_run: vec![1, 1, 3],
            ..stats
        };
        assert!(busy.no_worker_starved());
    }
}
