//! Allocation regression test for the executor's steady state.
//!
//! `ExecutorScratch` promises that a replicate loop allocates only what a
//! run must hand back or build fresh: the technique instance (its `Box`
//! and, for WF and AWF, its weight vector) and the returned
//! `worker_finish`. Availability processes, segment tables, worker
//! statistics and the snapshot buffer are all reused — a changed
//! availability spec rebuilds each process in place — and the
//! techniques' per-chunk and per-batch arithmetic runs in place. A
//! counting global allocator, per thread so that concurrently running
//! tests do not disturb each other, checks that the count is a small
//! constant that depends neither on the worker count nor on the number of
//! chunks, nor on whether the spec changed since the last replicate.

use cdsf_dls::executor::{execute_in, ExecutorConfig, ExecutorScratch};
use cdsf_dls::TechniqueKind;
use cdsf_pmf::Pmf;
use cdsf_system::availability::AvailabilitySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator may be called while the thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` without a destructor, so counting
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A Stage-II-shaped loop: serial prologue, noisy iterations, overhead,
/// and a renewal availability process over a 16-pulse PMF.
fn config(workers: usize, parallel_iters: u64) -> ExecutorConfig {
    let pmf = Pmf::from_weighted((1..=16).map(|k| (k as f64 / 16.0, 1.0 + (k % 3) as f64)))
        .expect("valid availability PMF");
    config_with(workers, parallel_iters, pmf, 40.0)
}

/// [`config`] over the renewal process `(pmf, mean_dwell)`.
fn config_with(workers: usize, parallel_iters: u64, pmf: Pmf, mean_dwell: f64) -> ExecutorConfig {
    ExecutorConfig::builder()
        .workers(workers)
        .serial_iters(50)
        .parallel_iters(parallel_iters)
        .iter_time_mean_sigma(1.0, 0.3)
        .expect("valid iteration time")
        .overhead(0.05)
        .availability(AvailabilitySpec::Renewal { pmf, mean_dwell })
        .build()
        .expect("valid config")
}

/// Allocations of one `execute_in` on a scratch that already ran the same
/// configuration with the same seed, so that every segment table has the
/// capacity the measured run needs; also returns the run's chunk count.
fn steady_state(kind: &TechniqueKind, cfg: &ExecutorConfig) -> (u64, u64) {
    let mut scratch = ExecutorScratch::new();
    let run = |scratch: &mut ExecutorScratch| {
        execute_in(kind, cfg, scratch, &mut StdRng::seed_from_u64(7)).expect("run succeeds")
    };
    run(&mut scratch);
    let mut chunks = 0;
    let allocations = allocations_during(|| chunks = run(&mut scratch).chunks);
    (allocations, chunks)
}

#[test]
fn replicates_allocate_a_constant_independent_of_workers_and_chunks() {
    for kind in TechniqueKind::paper_robust_set() {
        let shapes = [(1, 1_000), (16, 1_000), (1, 64_000), (16, 64_000)];
        let runs: Vec<(u64, u64)> = shapes
            .iter()
            .map(|&(p, n)| steady_state(&kind, &config(p, n)))
            .collect();
        let (small, large) = (runs[1].1, runs[3].1);
        assert!(
            large > small,
            "{}: {large} chunks at 64 000 iterations vs {small} at 1 000 do not exercise the chunk count",
            kind.name()
        );
        let first = runs[0].0;
        for (&(p, n), &(allocations, chunks)) in shapes.iter().zip(&runs) {
            assert_eq!(
                allocations,
                first,
                "{}: {allocations} allocations at {p} workers, {n} iterations ({chunks} chunks) vs {first} at 1 worker, 1 000 iterations",
                kind.name()
            );
        }
        // The technique's box and the returned `worker_finish`, plus the
        // weight vector of WF and AWF-B.
        let expected = match kind {
            TechniqueKind::Wf { .. } | TechniqueKind::Awf { .. } => 3,
            _ => 2,
        };
        assert_eq!(
            first,
            expected,
            "{}: allocations per steady-state run",
            kind.name()
        );
    }
}

/// A grid moves from cell to cell, and with it from one availability spec
/// to another. Once a scratch has run both specs, so that its segment
/// tables hold either realization, a replicate on a changed spec whose PMF
/// has as many pulses rebuilds every worker's process in place and
/// records the new spec in the old one's buffers: it allocates exactly
/// what a replicate on an unchanged spec does.
#[test]
fn a_spec_switch_allocates_nothing_once_warm() {
    let other = Pmf::from_weighted((1..=16).map(|k| (k as f64 / 16.0, 1.0 + (k % 5) as f64)))
        .expect("valid availability PMF");
    for kind in TechniqueKind::paper_robust_set() {
        for workers in [1, 16] {
            let cells = [
                config(workers, 8_000),
                config_with(workers, 8_000, other.clone(), 25.0),
            ];
            let (unchanged, _) = steady_state(&kind, &cells[0]);
            let mut scratch = ExecutorScratch::new();
            let run = |scratch: &mut ExecutorScratch, cfg: &ExecutorConfig| {
                execute_in(&kind, cfg, scratch, &mut StdRng::seed_from_u64(7))
                    .expect("run succeeds");
            };
            for cfg in &cells {
                run(&mut scratch, cfg);
            }
            for (i, cfg) in cells.iter().cycle().take(4).enumerate() {
                let allocations = allocations_during(|| run(&mut scratch, cfg));
                assert_eq!(
                    allocations,
                    unchanged,
                    "{}: switch {i} at {workers} workers allocated {allocations}, an unchanged replicate {unchanged}",
                    kind.name()
                );
            }
        }
    }
}
