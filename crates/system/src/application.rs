//! Applications and batches: the workload side of the model.

use crate::platform::ProcTypeId;
use crate::{Result, SystemError};
use cdsf_pmf::discretize::Normal;
use cdsf_pmf::Pmf;
use serde::{Deserialize, Serialize};

/// Index of an application within a [`Batch`] (the paper's `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppId(pub usize);

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app {}", self.0 + 1) // paper numbers applications from 1
    }
}

/// A data-parallel scientific application.
///
/// Iterations split into a *serial* part (executable on a single processor
/// only) and a *parallel* part (a large parallel loop). The single-processor
/// execution time on each processor type is a random variable given as a
/// PMF (`ε̂[i][j]`). No inter-processor communication is modelled — the
/// paper assumes pure data parallelism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    name: String,
    serial_iters: u64,
    parallel_iters: u64,
    /// One PMF per processor type, indexed by `ProcTypeId`.
    exec_time: Vec<Pmf>,
}

impl Application {
    /// Starts building an application.
    pub fn builder(name: impl Into<String>) -> ApplicationBuilder {
        ApplicationBuilder {
            name: name.into(),
            serial_iters: 0,
            parallel_iters: 0,
            exec_time: Vec::new(),
        }
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of serial iterations.
    pub fn serial_iters(&self) -> u64 {
        self.serial_iters
    }

    /// Number of parallel loop iterations.
    pub fn parallel_iters(&self) -> u64 {
        self.parallel_iters
    }

    /// Total iterations.
    pub fn total_iters(&self) -> u64 {
        self.serial_iters + self.parallel_iters
    }

    /// Serial fraction `s_ij` — the share of work that cannot be
    /// parallelized. The paper derives it from iteration shares
    /// (e.g. 439/1463 ≈ 30 % for application 1).
    pub fn serial_fraction(&self) -> f64 {
        self.serial_iters as f64 / self.total_iters() as f64
    }

    /// Parallel fraction `p_ij = 1 − s_ij`.
    pub fn parallel_fraction(&self) -> f64 {
        1.0 - self.serial_fraction()
    }

    /// Single-processor execution-time PMF on processor type `j`.
    pub fn exec_time(&self, j: ProcTypeId) -> Result<&Pmf> {
        self.exec_time
            .get(j.0)
            .ok_or(SystemError::MissingExecutionTime {
                app: self.name.clone(),
                proc_type: j.0,
            })
    }

    /// Number of processor types this application has timings for.
    pub fn num_proc_types(&self) -> usize {
        self.exec_time.len()
    }

    /// Expected single-processor execution time on type `j`.
    pub fn expected_exec_time(&self, j: ProcTypeId) -> Result<f64> {
        Ok(self.exec_time(j)?.expectation())
    }

    /// Per-iteration execution-time distribution on a *dedicated* processor
    /// of type `j`, under the iid-iterations model.
    ///
    /// If the total time is `T ~ (μ_T, σ_T²)` and iterations are iid, each
    /// iteration has mean `μ_T/N` and standard deviation `σ_T/√N` (so that
    /// the sum of `N` of them recovers `(μ_T, σ_T²)`). Returns a [`Normal`]
    /// for use by the Stage-II simulator's iteration-time sampler.
    pub fn iteration_time(&self, j: ProcTypeId) -> Result<Normal> {
        let pmf = self.exec_time(j)?;
        let n = self.total_iters() as f64;
        let mu = pmf.expectation() / n;
        if mu <= 0.0 {
            return Err(SystemError::NonPositiveExecutionTime {
                app: self.name.clone(),
                value: mu,
            });
        }
        let sigma = (pmf.std_dev() / n.sqrt()).max(mu * 1e-9);
        Normal::new(mu, sigma).map_err(SystemError::from)
    }
}

/// Builder for [`Application`].
#[derive(Debug, Clone)]
pub struct ApplicationBuilder {
    name: String,
    serial_iters: u64,
    parallel_iters: u64,
    exec_time: Vec<Pmf>,
}

impl ApplicationBuilder {
    /// Sets the number of serial iterations.
    pub fn serial_iters(mut self, n: u64) -> Self {
        self.serial_iters = n;
        self
    }

    /// Sets the number of parallel loop iterations.
    pub fn parallel_iters(mut self, n: u64) -> Self {
        self.parallel_iters = n;
        self
    }

    /// Appends the single-processor execution-time PMF for the next
    /// processor type (types are indexed in insertion order).
    pub fn exec_time_pmf(mut self, pmf: Pmf) -> Self {
        self.exec_time.push(pmf);
        self
    }

    /// Convenience: appends an execution-time PMF discretized from
    /// `N(μ, (μ/10)²)` with `pulses` equiprobable pulses — the paper's
    /// construction for Table III.
    pub fn exec_time_normal(self, mu: f64, pulses: usize) -> Result<Self> {
        use cdsf_pmf::discretize::Discretize;
        let pmf = Normal::with_paper_sigma(mu)?.equiprobable(pulses);
        Ok(self.exec_time_pmf(pmf))
    }

    /// Finalizes the application, validating all invariants.
    pub fn build(self) -> Result<Application> {
        if self.serial_iters + self.parallel_iters == 0 {
            return Err(SystemError::NoIterations { name: self.name });
        }
        for pmf in &self.exec_time {
            if pmf.min_value() <= 0.0 {
                return Err(SystemError::NonPositiveExecutionTime {
                    app: self.name,
                    value: pmf.min_value(),
                });
            }
        }
        Ok(Application {
            name: self.name,
            serial_iters: self.serial_iters,
            parallel_iters: self.parallel_iters,
            exec_time: self.exec_time,
        })
    }
}

/// A batch of applications awaiting mapping (the paper's `N` applications).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    apps: Vec<Application>,
}

impl Batch {
    /// Builds a batch (may be empty only transiently; mapping requires apps).
    pub fn new(apps: Vec<Application>) -> Self {
        Self { apps }
    }

    /// The applications.
    pub fn apps(&self) -> &[Application] {
        &self.apps
    }

    /// Number of applications `N`.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the batch has no applications.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Looks up an application.
    pub fn app(&self, id: AppId) -> Result<&Application> {
        self.apps.get(id.0).ok_or(SystemError::UnknownApp(id.0))
    }

    /// Iterates `(AppId, &Application)`.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &Application)> {
        self.apps.iter().enumerate().map(|(i, a)| (AppId(i), a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app1() -> Application {
        // Paper Table II/III, application 1.
        Application::builder("app 1")
            .serial_iters(439)
            .parallel_iters(1024)
            .exec_time_normal(1800.0, 64)
            .unwrap()
            .exec_time_normal(4000.0, 64)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn serial_fraction_matches_paper() {
        let a = app1();
        // Paper: 30 % serial, 70 % parallel.
        assert!((a.serial_fraction() - 0.30).abs() < 0.005);
        assert!((a.parallel_fraction() - 0.70).abs() < 0.005);
        assert_eq!(a.total_iters(), 1463);
    }

    #[test]
    fn exec_time_lookup() {
        let a = app1();
        assert!((a.expected_exec_time(ProcTypeId(0)).unwrap() - 1800.0).abs() < 1e-6);
        assert!((a.expected_exec_time(ProcTypeId(1)).unwrap() - 4000.0).abs() < 1e-6);
        assert!(a.exec_time(ProcTypeId(2)).is_err());
    }

    #[test]
    fn rejects_zero_iterations() {
        let err = Application::builder("x").build().unwrap_err();
        assert!(matches!(err, SystemError::NoIterations { .. }));
    }

    #[test]
    fn rejects_non_positive_exec_time() {
        let pmf = Pmf::from_pairs([(-1.0, 0.5), (1.0, 0.5)]).unwrap();
        let err = Application::builder("x")
            .serial_iters(1)
            .exec_time_pmf(pmf)
            .build()
            .unwrap_err();
        assert!(matches!(err, SystemError::NonPositiveExecutionTime { .. }));
    }

    #[test]
    fn iteration_time_recovers_totals() {
        let a = app1();
        let it = a.iteration_time(ProcTypeId(0)).unwrap();
        let n = a.total_iters() as f64;
        assert!((it.mean() * n - 1800.0).abs() < 1e-6);
        // σ of the sum of N iid iterations ≈ σ of the total PMF.
        let total_sigma = a.exec_time(ProcTypeId(0)).unwrap().std_dev();
        assert!((it.std_dev() * n.sqrt() - total_sigma).abs() < 1e-6);
    }

    #[test]
    fn batch_lookup_and_iter() {
        let b = Batch::new(vec![app1()]);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(b.app(AppId(0)).is_ok());
        assert!(b.app(AppId(1)).is_err());
        assert_eq!(b.iter().count(), 1);
    }

    #[test]
    fn fractions_and_lookups_of_a_hand_built_application() {
        let a = Application::builder("half")
            .serial_iters(50)
            .parallel_iters(150)
            .exec_time_pmf(Pmf::degenerate(100.0).unwrap())
            .build()
            .unwrap();
        assert_eq!(a.total_iters(), 200);
        assert_eq!(a.serial_fraction(), 0.25);
        assert_eq!(a.parallel_fraction(), 0.75);
        assert_eq!(a.num_proc_types(), 1);
        assert!(matches!(
            a.exec_time(ProcTypeId(1)),
            Err(SystemError::MissingExecutionTime { proc_type: 1, .. })
        ));
        assert!(a.expected_exec_time(ProcTypeId(1)).is_err());
        // Serial iterations alone are a valid application.
        let serial = Application::builder("serial")
            .serial_iters(10)
            .exec_time_pmf(Pmf::degenerate(1.0).unwrap())
            .build()
            .unwrap();
        assert_eq!(serial.serial_fraction(), 1.0);
    }
}
