use std::fmt;

/// Errors produced by allocation construction or Stage-I search.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RaError {
    /// The batch has no applications to allocate.
    EmptyBatch,
    /// An allocation has the wrong number of assignments for the batch.
    WrongArity {
        /// Assignments provided.
        provided: usize,
        /// Applications in the batch.
        expected: usize,
    },
    /// A processor count is not a power of two (the paper's constraint).
    NotPowerOfTwo {
        /// The offending count.
        count: u32,
    },
    /// The allocation over-subscribes a processor type.
    OverSubscribed {
        /// The processor type index.
        proc_type: usize,
        /// Processors requested across all applications.
        requested: u32,
        /// Processors available.
        available: u32,
    },
    /// No feasible allocation exists for the given batch and platform.
    NoFeasibleAllocation,
    /// The lattice solver *proved* that no feasible allocation meets the
    /// deadline with positive (worst-case) probability, and computed the
    /// smallest deadline that would be feasible.
    ProvenInfeasible {
        /// The exact min-bottleneck deadline: solving again at any
        /// deadline at or above this value succeeds.
        tightest_deadline: f64,
    },
    /// The lattice's anytime solve ran out of its node budget before it
    /// reached any complete allocation: nothing is known either way.
    BudgetExhausted {
        /// Nodes visited, counting the one the budget ran out on.
        nodes: u64,
    },
    /// A search/heuristic parameter was out of its domain.
    BadParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An underlying system-model operation failed.
    System(cdsf_system::SystemError),
}

impl fmt::Display for RaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaError::EmptyBatch => write!(f, "cannot allocate an empty batch"),
            RaError::WrongArity { provided, expected } => write!(
                f,
                "allocation has {provided} assignments for a batch of {expected} applications"
            ),
            RaError::NotPowerOfTwo { count } => {
                write!(f, "processor count {count} is not a power of two")
            }
            RaError::OverSubscribed { proc_type, requested, available } => write!(
                f,
                "processor type {proc_type} over-subscribed: {requested} requested, {available} available"
            ),
            RaError::NoFeasibleAllocation => {
                write!(f, "no feasible allocation exists for this batch and platform")
            }
            RaError::ProvenInfeasible { tightest_deadline } => write!(
                f,
                "deadline proven infeasible: tightest feasible deadline is {tightest_deadline}"
            ),
            RaError::BudgetExhausted { nodes } => write!(
                f,
                "node budget ran out after {nodes} nodes before any allocation was reached"
            ),
            RaError::BadParameter { name, value } => {
                write!(f, "parameter `{name}` = {value} is out of domain")
            }
            RaError::System(e) => write!(f, "system model error: {e}"),
        }
    }
}

impl std::error::Error for RaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RaError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cdsf_system::SystemError> for RaError {
    fn from(e: cdsf_system::SystemError) -> Self {
        RaError::System(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_displays_its_payload() {
        let cases: Vec<(RaError, &str)> = vec![
            (RaError::EmptyBatch, "empty batch"),
            (
                RaError::WrongArity {
                    provided: 2,
                    expected: 3,
                },
                "2",
            ),
            (RaError::NotPowerOfTwo { count: 3 }, "3"),
            (
                RaError::OverSubscribed {
                    proc_type: 1,
                    requested: 9,
                    available: 4,
                },
                "9",
            ),
            (RaError::NoFeasibleAllocation, "feasible"),
            (
                RaError::ProvenInfeasible {
                    tightest_deadline: 3100.5,
                },
                "3100.5",
            ),
            (RaError::BudgetExhausted { nodes: 32_769 }, "32769"),
            (
                RaError::BadParameter {
                    name: "seed",
                    value: -1.0,
                },
                "seed",
            ),
            (
                RaError::System(cdsf_system::SystemError::NoProcessorTypes),
                "system",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    #[test]
    fn sources_chain_to_inner_errors() {
        use std::error::Error as _;
        assert!(RaError::System(cdsf_system::SystemError::NoProcessorTypes)
            .source()
            .is_some());
        assert!(RaError::EmptyBatch.source().is_none());
    }
}
