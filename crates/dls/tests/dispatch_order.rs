//! Dispatch-order oracle: the executor serves the earliest free worker,
//! ties to the lowest index. A min-heap of `(free time, worker)` pairs
//! under `f64::total_cmp` pops in exactly that order, so replaying a run's
//! chunk log through such a heap must pop every record's own worker at
//! the record's own dispatch time — including the exact ties of workers
//! that free up at the same instant, which constant availability and
//! deterministic iteration times make common.

use cdsf_dls::executor::{execute, ExecutorConfig, ExecutorSession, RunResult, SessionStatus};
use cdsf_dls::TechniqueKind;
use cdsf_pmf::Pmf;
use cdsf_system::availability::AvailabilitySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The key `f64::total_cmp` orders by, as an integer a heap can hold.
fn total_order_key(t: f64) -> i64 {
    let bits = t.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Replays `run`'s chunk log through the heap: every worker is free at
/// the end of the serial prologue, and each dispatch frees its worker
/// again at the chunk's finish. Returns the number of ties the replay met
/// (pops with another worker free at the same instant).
fn replay_through_heap(run: &RunResult, workers: usize, label: &str) -> usize {
    let log = run.chunk_log.as_ref().expect("the run recorded its chunks");
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = (0..workers)
        .map(|w| Reverse((total_order_key(run.serial_time), w)))
        .collect();
    let mut ties = 0;
    for (i, record) in log.iter().enumerate() {
        let Reverse((key, worker)) = heap.pop().expect("every worker is in the heap");
        if heap.peek().is_some_and(|Reverse((next, _))| *next == key) {
            ties += 1;
        }
        assert_eq!(
            (worker, key),
            (record.worker, total_order_key(record.start)),
            "{label}: dispatch {i} went to worker {} at {}; the heap pops worker {worker}",
            record.worker,
            record.start
        );
        heap.push(Reverse((total_order_key(record.finish), worker)));
    }
    ties
}

fn config(
    workers: usize,
    sigma: f64,
    overhead: f64,
    specs: Vec<AvailabilitySpec>,
) -> ExecutorConfig {
    ExecutorConfig::builder()
        .workers(workers)
        .serial_iters(30)
        .parallel_iters(3_000)
        .iter_time_mean_sigma(1.0, sigma)
        .expect("valid iteration time")
        .overhead(overhead)
        .availability_per_worker(specs)
        .record_chunks(true)
        .build()
        .expect("valid config")
}

/// Constant availability with σ = 0: every worker is free at the end of
/// the prologue, and equal chunks keep them finishing together.
fn tied(workers: usize) -> ExecutorConfig {
    config(
        workers,
        0.0,
        0.0,
        vec![AvailabilitySpec::Constant { a: 1.0 }],
    )
}

/// Noisy iterations, overhead and per-worker availability processes.
fn fluctuating(workers: usize) -> ExecutorConfig {
    let pmf = Pmf::from_pairs([(0.25, 0.2), (0.6, 0.3), (1.0, 0.5)]).expect("valid PMF");
    let specs = (0..workers)
        .map(|w| match w % 3 {
            0 => AvailabilitySpec::Renewal {
                pmf: pmf.clone(),
                mean_dwell: 20.0,
            },
            1 => AvailabilitySpec::Constant { a: 0.5 },
            _ => AvailabilitySpec::TwoStateMarkov {
                up: 1.0,
                down: 0.2,
                mean_up: 40.0,
                mean_down: 15.0,
            },
        })
        .collect();
    config(workers, 0.3, 0.5, specs)
}

#[test]
fn every_dispatch_goes_to_the_worker_the_heap_pops() {
    let mut ties = 0;
    for kind in TechniqueKind::all(16) {
        for workers in [1, 3, 8] {
            for (shape, cfg) in [
                ("tied", tied(workers)),
                ("fluctuating", fluctuating(workers)),
            ] {
                for seed in 0..3 {
                    let run = execute(&kind, &cfg, &mut StdRng::seed_from_u64(seed))
                        .expect("run succeeds");
                    let label =
                        format!("{} on {workers} {shape} workers, seed {seed}", kind.name());
                    ties += replay_through_heap(&run, workers, &label);
                }
            }
        }
    }
    // The tied shapes must really exercise the tie-break.
    assert!(ties > 1_000, "only {ties} tied pops");
}

/// The resumable session dispatches from the same rule: driven to the
/// end, it lands on `execute`'s makespan and chunk count, ties included.
#[test]
fn sessions_dispatch_like_execute_under_ties() {
    for kind in TechniqueKind::all(16) {
        for cfg in [tied(4), fluctuating(5)] {
            let run = execute(&kind, &cfg, &mut StdRng::seed_from_u64(9)).expect("run succeeds");
            let mut rng = StdRng::seed_from_u64(9);
            let mut session =
                ExecutorSession::new(&kind, cfg.clone(), 0.0, &mut rng).expect("session opens");
            let SessionStatus::Completed { finish } =
                session.advance_until(f64::INFINITY, &mut rng)
            else {
                panic!("{}: the session did not complete", kind.name());
            };
            assert_eq!(finish.to_bits(), run.makespan.to_bits(), "{}", kind.name());
            assert_eq!(session.chunks(), run.chunks, "{}", kind.name());
        }
    }
}
