//! # `cdsf-system` — platform, application and availability models
//!
//! This crate models the world the CDSF paper schedules in:
//!
//! * [`Platform`] — a heterogeneous system made of [`ProcessorType`]s, each
//!   with a count and a historical availability PMF (`Â` in the paper);
//!   [`Platform::weighted_availability`] is the paper's Eq. (1);
//! * [`Application`] — a data-parallel scientific application with serial
//!   and parallel loop iterations and a per-processor-type single-processor
//!   execution-time PMF (`ε̂[i][j]`); [`Batch`] is a collection of them;
//! * [`parallel_time`] — the Stage-I arithmetic: the Amdahl rescaling of
//!   paper Eq. (2) and the availability quotient that turns a dedicated
//!   parallel-time PMF into a loaded completion-time PMF;
//! * [`availability`] — *runtime* availability processes for Stage II:
//!   piecewise-constant stochastic processes (constant, renewal, two-state
//!   Markov, trace playback) plus [`availability::Timeline`], which
//!   integrates availability over time so a simulator can ask "when does
//!   `w` units of dedicated work finish if it starts at time `t`?".
//!
//! The modelling contract (verified against the paper's published numbers,
//! see `DESIGN.md`): Stage I treats availability as drawn once per
//! application execution (`T/α`), while Stage II lets availability fluctuate
//! over time — which is precisely the gap dynamic loop scheduling exploits.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod application;
pub mod availability;
mod error;
pub mod fit;
pub mod parallel_time;
pub mod platform;
pub mod pool;

pub use application::{AppId, Application, ApplicationBuilder, Batch};
pub use error::SystemError;
pub use platform::{Platform, ProcTypeId, ProcessorType};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SystemError>;

/// The default worker-thread count for parallel computation: the host's
/// available parallelism, floored at 1. Every parallel path in the
/// workspace is thread-count-invariant in its *results* (see `DESIGN.md`),
/// so this only tunes speed — except Monte-Carlo estimators, whose
/// configs keep fixed thread defaults for cross-machine reproducibility.
///
/// The host is probed once per process and the answer kept: on Linux
/// [`std::thread::available_parallelism`] re-reads the cgroup quota and
/// the affinity mask on every call, tens of microseconds each, and
/// allocator constructors on the serve request path call this. The value
/// is therefore a start-up snapshot: a later change of the cgroup CPU
/// quota or of the affinity mask is not seen, just as a running server's
/// engine-build width does not follow it.
pub fn default_threads() -> usize {
    static HOST_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(1)
    })
}
