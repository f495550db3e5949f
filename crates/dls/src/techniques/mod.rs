//! Technique implementations, grouped by family.
//!
//! * [`nonadaptive`] — chunk sizes depend only on loop size, worker count
//!   and position in the schedule: STATIC, SS, FSC, GSS, TSS.
//! * [`factoring`] — probabilistically-derived batched techniques with
//!   fixed parameters: FAC and WF.
//! * [`adaptive`] — techniques that refine their decisions from runtime
//!   measurements: the AWF family and AF.

pub mod adaptive;
pub mod factoring;
pub mod nonadaptive;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::technique::{SchedContext, Technique, WorkerSnapshot};

    /// Drives a technique through a full loop, round-robining requests over
    /// workers, with optional synthetic per-worker stats. Returns the chunk
    /// sequence (worker, size).
    pub fn drain(
        technique: &mut dyn Technique,
        num_workers: usize,
        total: u64,
        stats: &[WorkerSnapshot],
    ) -> Vec<(usize, u64)> {
        assert_eq!(stats.len(), num_workers);
        let mut remaining = total;
        let mut out = Vec::new();
        let mut w = 0usize;
        let mut guard = 0u64;
        while remaining > 0 {
            let ctx = SchedContext {
                worker: w,
                num_workers,
                total_iters: total,
                remaining,
                now: out.len() as f64,
                workers: stats,
            };
            let chunk = technique.next_chunk(&ctx).clamp(1, remaining);
            out.push((w, chunk));
            remaining -= chunk;
            w = (w + 1) % num_workers;
            guard += 1;
            assert!(guard <= 4 * total + 16, "technique failed to make progress");
        }
        out
    }

    /// Uniform (history-less) snapshots for `p` workers.
    pub fn blank_stats(p: usize) -> Vec<WorkerSnapshot> {
        vec![WorkerSnapshot::default(); p]
    }

    /// Snapshots where worker `i` has mean iteration time `means[i]` and
    /// variance `vars[i]`, with plenty of history.
    pub fn stats_with(means: &[f64], vars: &[f64]) -> Vec<WorkerSnapshot> {
        means
            .iter()
            .zip(vars)
            .map(|(&m, &v)| {
                let mut snapshot = WorkerSnapshot {
                    iters_done: 1000,
                    chunks_done: 10,
                    ..WorkerSnapshot::default()
                };
                snapshot.set_estimates(m, v, m * 1.05);
                snapshot
            })
            .collect()
    }
}
