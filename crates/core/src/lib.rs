//! # `cdsf-core` — the Combined Dual-Stage Framework (CDSF)
//!
//! This crate assembles the substrates into the paper's contribution: a
//! two-stage framework for robust execution of a batch of scientific
//! applications on a heterogeneous system with uncertain availability.
//!
//! * **Stage I — initial mapping.** An [`ImPolicy`] (naïve equal-share or
//!   robust exact/heuristic allocation from [`cdsf_ra`]) maps each
//!   application to a power-of-two group of processors of one type,
//!   maximizing `φ₁ = Pr(Ψ ≤ Δ)` under the historical availability `Â`.
//! * **Stage II — runtime application scheduling.** A [`RasPolicy`]
//!   (naïve STATIC or the robust DLS set `{FAC, WF, AWF-B, AF}` from
//!   [`cdsf_dls`]) executes each application on its group while the
//!   *runtime* availability `A` fluctuates — simulated by the event-driven
//!   executor under each availability case.
//!
//! [`Cdsf`] runs the four scenarios of the paper's Section IV
//! (naïve/robust IM × naïve/robust RAS), produces the data behind
//! Figures 3–6 and Tables IV–VI, and quantifies the system robustness
//! `(ρ₁, ρ₂)`:
//!
//! * `ρ₁` — Stage-I robustness: the joint probability that the batch
//!   meets the deadline under the chosen mapping;
//! * `ρ₂` — Stage-II robustness: the largest weighted-availability
//!   decrease (over the runtime cases) that *every* application tolerates
//!   without violating the deadline, using its best DLS technique.
//!
//! ## Quick example
//!
//! ```
//! use cdsf_core::{Cdsf, ImPolicy, RasPolicy, SimParams};
//! use cdsf_workloads::paper;
//!
//! let cdsf = Cdsf::builder()
//!     .batch(paper::batch_with_pulses(16))
//!     .reference_platform(paper::platform())
//!     .runtime_cases((1..=4).map(paper::platform_case).collect())
//!     .deadline(paper::DEADLINE)
//!     .sim_params(SimParams { replicates: 4, ..Default::default() })
//!     .build()
//!     .unwrap();
//! let s4 = cdsf.run_scenario(&ImPolicy::Robust, &RasPolicy::Robust).unwrap();
//! assert!(s4.phi1 > 0.7); // paper: 74.5 %
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
mod error;
pub mod experiment;
pub mod export;
pub mod framework;
pub mod meanfield;
pub mod multibatch;
pub mod policy;
pub mod report;
pub mod simulation;

pub use error::CoreError;
pub use framework::{Cdsf, CdsfBuilder, ScenarioResult, SystemRobustness};
pub use policy::{ImPolicy, RasPolicy, Scenario};
pub use report::AsciiTable;
pub use simulation::{default_threads, CellResult, SimParams};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// One-stop imports for framework users:
///
/// ```
/// use cdsf_core::prelude::*;
/// use cdsf_workloads::paper;
///
/// let cdsf = Cdsf::builder()
///     .batch(paper::batch_with_pulses(8))
///     .reference_platform(paper::platform())
///     .deadline(paper::DEADLINE)
///     .sim_params(SimParams { replicates: 2, ..Default::default() })
///     .build()
///     .unwrap();
/// let (_alloc, report) = cdsf.stage_one(&ImPolicy::Robust).unwrap();
/// assert!(report.joint > 0.7);
/// ```
pub mod prelude {
    pub use crate::advisor::{Advice, Advisor};
    pub use crate::experiment::ExperimentSpec;
    pub use crate::framework::{Cdsf, ScenarioResult, SystemRobustness};
    pub use crate::meanfield::MeanField;
    pub use crate::multibatch::MultiBatch;
    pub use crate::policy::{ImPolicy, RasPolicy, Scenario};
    pub use crate::simulation::{default_threads, CellResult, SimParams};
    pub use cdsf_dls::executor::{execute, ExecutorConfig};
    pub use cdsf_dls::TechniqueKind;
    pub use cdsf_ra::allocators::{EqualShare, Lattice, Sufferage};
    pub use cdsf_ra::{Allocation, Allocator, Assignment};
    pub use cdsf_system::availability::AvailabilitySpec;
    pub use cdsf_system::{Application, Batch, Platform, ProcTypeId, ProcessorType};
}
