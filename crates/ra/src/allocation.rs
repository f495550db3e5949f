//! Allocation representation and feasibility checking.

use crate::{RaError, Result};
use cdsf_system::{Batch, Platform, ProcTypeId};
use serde::{Deserialize, Serialize};

/// One application's resource assignment: a power-of-two number of
/// processors of a single type (the paper's allocation constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Assignment {
    /// The processor type the application's group is drawn from.
    pub proc_type: ProcTypeId,
    /// Group size; must be a power of two.
    pub procs: u32,
}

impl Assignment {
    /// Creates an assignment, checking the power-of-two constraint.
    pub fn new(proc_type: ProcTypeId, procs: u32) -> Result<Self> {
        if procs == 0 || !procs.is_power_of_two() {
            return Err(RaError::NotPowerOfTwo { count: procs });
        }
        Ok(Self { proc_type, procs })
    }
}

impl std::fmt::Display for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} × {}", self.procs, self.proc_type)
    }
}

/// A complete Stage-I mapping: one [`Assignment`] per application, indexed
/// by position in the [`Batch`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Allocation {
    assignments: Vec<Assignment>,
}

impl Allocation {
    /// Builds an allocation from per-application assignments.
    pub fn new(assignments: Vec<Assignment>) -> Self {
        Self { assignments }
    }

    /// The per-application assignments.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The assignment of application `i`.
    pub fn assignment(&self, i: usize) -> Option<Assignment> {
        self.assignments.get(i).copied()
    }

    /// Number of applications covered.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the allocation covers no applications.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Total processors the allocation uses (`Σ_i max_i`).
    pub fn total_procs(&self) -> u32 {
        self.assignments.iter().map(|a| a.procs).sum()
    }

    /// Checks feasibility against a batch and platform:
    ///
    /// * arity matches the batch;
    /// * every count is a power of two;
    /// * every application has an execution-time PMF for its assigned type;
    /// * per-type demand does not exceed the platform's supply (groups are
    ///   disjoint — the paper partitions the machine into `N` groups).
    pub fn validate(&self, batch: &Batch, platform: &Platform) -> Result<()> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        if self.assignments.len() != batch.len() {
            return Err(RaError::WrongArity {
                provided: self.assignments.len(),
                expected: batch.len(),
            });
        }
        let mut demand = vec![0u32; platform.num_types()];
        for ((_, app), asg) in batch.iter().zip(&self.assignments) {
            if asg.procs == 0 || !asg.procs.is_power_of_two() {
                return Err(RaError::NotPowerOfTwo { count: asg.procs });
            }
            // Type must exist and the app must have a PMF for it.
            platform.proc_type(asg.proc_type)?;
            app.exec_time(asg.proc_type)?;
            demand[asg.proc_type.0] += asg.procs;
        }
        for (j, &req) in demand.iter().enumerate() {
            let avail = platform.types()[j].count();
            if req > avail {
                return Err(RaError::OverSubscribed {
                    proc_type: j,
                    requested: req,
                    available: avail,
                });
            }
        }
        Ok(())
    }

    /// Enumerates every feasible allocation for `batch` on `platform`
    /// (each application gets a power-of-two count of a single type;
    /// per-type totals respect capacity). Order is deterministic.
    ///
    /// The search space is `Π_i Σ_j log₂(p_j)` leaves — use only for small
    /// instances (this is what makes the paper's example exhaustively
    /// solvable and larger ones not).
    pub fn enumerate_feasible(batch: &Batch, platform: &Platform) -> Result<Vec<Allocation>> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        // Per-app options: every (type, pow2 count) with a PMF available.
        let mut options: Vec<Vec<Assignment>> = Vec::with_capacity(batch.len());
        for (_, app) in batch.iter() {
            let mut opts = Vec::new();
            for j in 0..platform.num_types() {
                let id = ProcTypeId(j);
                if app.exec_time(id).is_err() {
                    continue;
                }
                for n in platform.pow2_options(id)? {
                    opts.push(Assignment {
                        proc_type: id,
                        procs: n,
                    });
                }
            }
            if opts.is_empty() {
                return Err(RaError::NoFeasibleAllocation);
            }
            options.push(opts);
        }

        let capacities: Vec<u32> = platform.types().iter().map(|t| t.count()).collect();
        let mut out = Vec::new();
        let mut current: Vec<Assignment> = Vec::with_capacity(batch.len());
        let mut used = vec![0u32; platform.num_types()];
        fn recurse(
            options: &[Vec<Assignment>],
            capacities: &[u32],
            current: &mut Vec<Assignment>,
            used: &mut Vec<u32>,
            out: &mut Vec<Allocation>,
        ) {
            let depth = current.len();
            if depth == options.len() {
                out.push(Allocation::new(current.clone()));
                return;
            }
            for &asg in &options[depth] {
                let j = asg.proc_type.0;
                if used[j] + asg.procs > capacities[j] {
                    continue;
                }
                used[j] += asg.procs;
                current.push(asg);
                recurse(options, capacities, current, used, out);
                current.pop();
                used[j] -= asg.procs;
            }
        }
        recurse(&options, &capacities, &mut current, &mut used, &mut out);
        if out.is_empty() {
            return Err(RaError::NoFeasibleAllocation);
        }
        Ok(out)
    }
}

impl std::fmt::Display for Allocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "app {} → {}", i + 1, a)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_pmf::Pmf;
    use cdsf_system::{Application, Platform, ProcessorType};

    fn platform() -> Platform {
        let a1 = Pmf::from_pairs([(0.75, 0.5), (1.0, 0.5)]).unwrap();
        let a2 = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        Platform::new(vec![
            ProcessorType::new("Type 1", 4, a1).unwrap(),
            ProcessorType::new("Type 2", 8, a2).unwrap(),
        ])
        .unwrap()
    }

    fn batch() -> Batch {
        let mk = |name: &str, t1: f64, t2: f64| {
            Application::builder(name)
                .serial_iters(100)
                .parallel_iters(900)
                .exec_time_pmf(Pmf::degenerate(t1).unwrap())
                .exec_time_pmf(Pmf::degenerate(t2).unwrap())
                .build()
                .unwrap()
        };
        Batch::new(vec![
            mk("a", 1800.0, 4000.0),
            mk("b", 2800.0, 6000.0),
            mk("c", 12000.0, 8000.0),
        ])
    }

    #[test]
    fn assignment_rejects_non_pow2() {
        assert!(Assignment::new(ProcTypeId(0), 3).is_err());
        assert!(Assignment::new(ProcTypeId(0), 0).is_err());
        assert!(Assignment::new(ProcTypeId(0), 4).is_ok());
    }

    #[test]
    fn validate_accepts_paper_allocations() {
        let (b, p) = (batch(), platform());
        // Paper Table IV naïve: (2,4), (1,4), (2,4).
        let naive = Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 4,
            },
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 4,
            },
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 4,
            },
        ]);
        naive.validate(&b, &p).unwrap();
        // Paper Table IV robust: (1,2), (1,2), (2,8).
        let robust = Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 8,
            },
        ]);
        robust.validate(&b, &p).unwrap();
        assert_eq!(robust.total_procs(), 12);
    }

    #[test]
    fn validate_rejects_oversubscription() {
        let (b, p) = (batch(), platform());
        let bad = Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 4,
            },
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 4,
            },
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 4,
            },
        ]);
        let err = bad.validate(&b, &p).unwrap_err();
        assert!(matches!(
            err,
            RaError::OverSubscribed {
                proc_type: 0,
                requested: 8,
                available: 4
            }
        ));
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let (b, p) = (batch(), platform());
        let bad = Allocation::new(vec![Assignment {
            proc_type: ProcTypeId(0),
            procs: 2,
        }]);
        assert!(matches!(
            bad.validate(&b, &p),
            Err(RaError::WrongArity { .. })
        ));
    }

    #[test]
    fn validate_rejects_unknown_type() {
        let (b, p) = (batch(), platform());
        let bad = Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(7),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 8,
            },
        ]);
        assert!(bad.validate(&b, &p).is_err());
    }

    #[test]
    fn enumerate_feasible_counts() {
        let (b, p) = (batch(), platform());
        let all = Allocation::enumerate_feasible(&b, &p).unwrap();
        // Every allocation is feasible and unique.
        for a in &all {
            a.validate(&b, &p).unwrap();
        }
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        // Options per app = 3 (type1: 1,2,4) + 4 (type2: 1,2,4,8) = 7;
        // unconstrained 7³ = 343; capacity filtering leaves exactly 153
        // (verified with an independent brute-force enumeration).
        assert_eq!(all.len(), 153);
        // The paper's two Table-IV allocations are in the feasible set.
        let robust = Allocation::new(vec![
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2,
            },
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 8,
            },
        ]);
        assert!(all.contains(&robust));
    }

    #[test]
    fn enumerate_rejects_empty_batch() {
        let p = platform();
        assert!(matches!(
            Allocation::enumerate_feasible(&Batch::new(vec![]), &p),
            Err(RaError::EmptyBatch)
        ));
    }

    #[test]
    fn accessors_cover_every_assignment() {
        let a = Allocation::new(vec![
            Assignment::new(ProcTypeId(0), 2).unwrap(),
            Assignment::new(ProcTypeId(1), 8).unwrap(),
        ]);
        assert_eq!((a.len(), a.total_procs()), (2, 10));
        assert!(!a.is_empty());
        assert_eq!(a.assignment(1).unwrap().procs, 8);
        assert!(a.assignment(2).is_none());
        assert_eq!(a.assignments()[0].to_string(), "2 × type 1");
        let empty = Allocation::new(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.total_procs(), 0);
    }
}
