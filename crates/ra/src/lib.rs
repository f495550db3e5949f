//! # `cdsf-ra` — Stage-I robust resource allocation
//!
//! Stage I of the CDSF maps a batch of applications onto groups of
//! processors *before* execution, maximizing the **stochastic robustness**
//! of the mapping: the probability `φ₁ = Pr(Ψ ≤ Δ)` that every application
//! finishes before the common deadline Δ, given the execution-time PMFs
//! `ε̂` and the historical availability PMFs `Â`.
//!
//! Provided here:
//!
//! * [`Allocation`] — one `(processor type, power-of-two count)` assignment
//!   per application, with feasibility checking against a [`Platform`];
//! * [`engine`] — the shared φ₁ evaluation engine: a memoized PMF cache
//!   keyed by `(app, type, power-of-two share)` with a deterministic
//!   parallel build, backing every allocator and both estimators;
//! * [`phi1`] — flat per-option probability kernels ([`OptionProbs`]) and
//!   the incremental genome evaluator ([`DeltaFitness`]) that the
//!   metaheuristic inner loops score candidates with;
//! * [`robustness`] — the exact PMF-arithmetic evaluation of φ₁ (with a
//!   memoized per-assignment probability table) and a thread-parallel
//!   Monte-Carlo estimator used to cross-check it;
//! * [`allocators`] — the Stage-I policies:
//!   [`allocators::EqualShare`] (the paper's naïve load balancing),
//!   [`allocators::Lattice`] (the paper's optimal search, answered by exact
//!   branch-and-bound; [`allocators::Exhaustive`] is the serial
//!   enumeration it is held to bit for bit),
//!   and the scalable heuristics the paper names as future work:
//!   greedy ([`allocators::GreedyMinTime`], [`allocators::GreedyMaxRobust`],
//!   [`allocators::Sufferage`]) and metaheuristic
//!   ([`allocators::SimulatedAnnealing`], [`allocators::GeneticAlgorithm`]).
//!
//! [`Platform`]: cdsf_system::Platform

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocation;
pub mod allocators;
pub mod cell_store;
pub mod correlation;
pub mod engine;
mod error;
pub mod phi1;
pub mod radius;
pub mod robustness;
pub mod surface;

pub use allocation::{Allocation, Assignment};
pub use allocators::{
    Allocator, GammaRobust, Lattice, LatticeReport, LatticeScratch, LatticeSolution,
    MultiStartReport, SimulatedAnnealing,
};
pub use cell_store::{CellStore, CellStoreStats};
pub use engine::{inputs_key, EngineBuild, OptionStats, Phi1Engine};
pub use error::RaError;
pub use phi1::{DeltaFitness, OptionProbs};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RaError>;
