//! The paper's naïve initial mapping: simple load balancing.

use super::{Allocator, Capacity};
use crate::allocation::{Allocation, Assignment};
use crate::engine::Phi1Engine;
use crate::robustness::ProbabilityTable;
use crate::{RaError, Result};
use cdsf_system::platform::prev_power_of_two;
use cdsf_system::{Batch, Platform, ProcTypeId};

/// EqualShare — "a simple load balancing technique … in which each
/// application is allocated an equal number of resources".
///
/// Every application receives the same group size: the largest power of two
/// not exceeding `total_processors / N`. Only the *type placement* is then
/// chosen, and per the paper, "the load balancing allocation with the
/// highest probability that all applications will complete before the
/// deadline was chosen" — so the type placement is the best of the (few)
/// feasible equal-share placements.
///
/// On the paper's example this reproduces Table IV's naïve row:
/// 4 processors for every application, app 2 on type 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualShare;

impl EqualShare {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl Allocator for EqualShare {
    fn name(&self) -> &'static str {
        "EqualShare"
    }

    fn allocate_with_engine(
        &self,
        batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        let table = engine.table(deadline)?;
        let n = batch.len() as u32;
        let share = prev_power_of_two(platform.total_processors() / n).max(1);

        // DFS over per-app type placements with capacity pruning, keeping
        // the placement with the best joint probability. The branching
        // factor is num_types per app, so this is tractable whenever the
        // type count is modest; capacity pruning cuts it down further.
        let mut best: Option<(f64, Vec<Assignment>)> = None;
        let mut current: Vec<Assignment> = Vec::with_capacity(batch.len());
        let mut cap = Capacity::of(platform);
        dfs(
            batch,
            platform,
            &table,
            share,
            &mut current,
            &mut cap,
            1.0,
            &mut best,
        );
        match best {
            Some((_, assignments)) => Ok(Allocation::new(assignments)),
            None => Err(RaError::NoFeasibleAllocation),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    batch: &Batch,
    platform: &Platform,
    table: &ProbabilityTable,
    share: u32,
    current: &mut Vec<Assignment>,
    cap: &mut Capacity,
    prob_so_far: f64,
    best: &mut Option<(f64, Vec<Assignment>)>,
) {
    let depth = current.len();
    if depth == batch.len() {
        if best.as_ref().map_or(true, |(b, _)| prob_so_far > *b) {
            *best = Some((prob_so_far, current.clone()));
        }
        return;
    }
    for j in 0..platform.num_types() {
        let asg = Assignment {
            proc_type: ProcTypeId(j),
            procs: share,
        };
        if !cap.fits(asg) {
            continue;
        }
        let Some(p) = table.prob(depth, asg.proc_type, asg.procs) else {
            continue;
        };
        cap.take(asg);
        current.push(asg);
        dfs(
            batch,
            platform,
            table,
            share,
            current,
            cap,
            prob_so_far * p,
            best,
        );
        current.pop();
        cap.release(asg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::testutil::*;

    #[test]
    fn reproduces_paper_table4_naive_row() {
        let alloc = EqualShare::new()
            .allocate(&paper_batch(64), &paper_platform(), DEADLINE)
            .unwrap();
        // Paper Table IV: app1 → 4×type2, app2 → 4×type1, app3 → 4×type2.
        let a = alloc.assignments();
        assert_eq!(
            a[0],
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 4
            }
        );
        assert_eq!(
            a[1],
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 4
            }
        );
        assert_eq!(
            a[2],
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 4
            }
        );
    }

    #[test]
    fn equal_share_is_feasible() {
        let (b, p) = (paper_batch(16), paper_platform());
        let alloc = EqualShare::new().allocate(&b, &p, DEADLINE).unwrap();
        alloc.validate(&b, &p).unwrap();
        assert!(alloc.assignments().iter().all(|a| a.procs == 4));
    }

    #[test]
    fn engine_path_matches_direct_path() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let direct = EqualShare::new().allocate(&b, &p, DEADLINE).unwrap();
        let cached = EqualShare::new()
            .allocate_with_engine(&b, &p, &engine, DEADLINE)
            .unwrap();
        assert_eq!(direct, cached);
    }

    #[test]
    fn rejects_empty_batch() {
        let p = paper_platform();
        assert!(matches!(
            EqualShare::new().allocate(&cdsf_system::Batch::new(vec![]), &p, DEADLINE),
            Err(RaError::EmptyBatch)
        ));
    }
}
