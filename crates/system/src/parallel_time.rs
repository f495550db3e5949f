//! Stage-I completion-time arithmetic: paper Eq. (2) and the availability
//! quotient.
//!
//! Given an application's single-processor execution-time PMF on a
//! processor type, these routines derive:
//!
//! 1. the *dedicated* parallel-time PMF on `n` processors — every pulse `x`
//!    is rescaled by Amdahl's law, `T_ijxn = s·T_ijx + p·T_ijx/n`
//!    (probabilities unchanged), paper Eq. (2);
//! 2. the *loaded* completion-time PMF — the parallel-time PMF divided by
//!    the independent availability PMF of the processor type (`T/α`);
//! 3. deadline-satisfaction probabilities `Pr(T ≤ Δ)` and the batch-level
//!    product `Pr(Ψ ≤ Δ) = Π_i Pr(T_i ≤ Δ)`.

use crate::application::Application;
use crate::platform::{Platform, ProcTypeId};
use crate::{Result, SystemError};
use cdsf_pmf::{CombineScratch, Pmf};

/// The Amdahl rescale factor of paper Eq. (2): `s + (1 − s)/n`.
///
/// Every pulse of the single-processor PMF is multiplied by this factor;
/// the exact expression (including evaluation order) is shared by the
/// two-step and fused construction paths so they stay bit-identical.
#[inline]
pub fn amdahl_factor(serial_fraction: f64, n: u32) -> f64 {
    let p = 1.0 - serial_fraction;
    serial_fraction + p / n as f64
}

/// Validates Eq. (2)'s parameter domain (`s ∈ [0, 1]`, `n ≥ 1`).
fn check_amdahl_params(serial_fraction: f64, n: u32) -> Result<()> {
    if !(0.0..=1.0).contains(&serial_fraction) {
        return Err(SystemError::BadParameter {
            name: "serial_fraction",
            value: serial_fraction,
        });
    }
    if n == 0 {
        return Err(SystemError::BadParameter {
            name: "n",
            value: 0.0,
        });
    }
    Ok(())
}

/// Paper Eq. (2): rescales a single-processor execution-time PMF to `n`
/// processors with serial fraction `s` (parallel fraction `1 − s`).
///
/// Probabilities are untouched; only pulse values change.
pub fn amdahl_rescale(single_proc: &Pmf, serial_fraction: f64, n: u32) -> Result<Pmf> {
    check_amdahl_params(serial_fraction, n)?;
    single_proc
        .scale(amdahl_factor(serial_fraction, n))
        .map_err(SystemError::from)
}

/// Dedicated parallel-time PMF of `app` on `n` processors of type `j`
/// (paper Eq. (2), using the application's own serial fraction).
pub fn parallel_time_pmf(app: &Application, j: ProcTypeId, n: u32) -> Result<Pmf> {
    amdahl_rescale(app.exec_time(j)?, app.serial_fraction(), n)
}

/// Loaded completion-time PMF: dedicated parallel time divided by the
/// type's availability (`T/α`, independent quotient). This is the PMF the
/// paper uses "to calculate the resource allocation robustness values".
pub fn loaded_time_pmf(
    app: &Application,
    platform: &Platform,
    j: ProcTypeId,
    n: u32,
) -> Result<Pmf> {
    loaded_time_pmf_in(app, platform, j, n, &mut CombineScratch::new())
}

/// [`loaded_time_pmf`] through the fused scale→quotient kernel with a
/// caller-provided scratch arena: one pass per `(t, a)` pulse pair, no
/// intermediate Amdahl PMF, no re-sort, no per-call `Vec` churn.
/// Bit-identical to the two-step `amdahl_rescale` + `quotient` reference
/// (pinned by proptest in `tests/properties.rs`).
pub fn loaded_time_pmf_in(
    app: &Application,
    platform: &Platform,
    j: ProcTypeId,
    n: u32,
    scratch: &mut CombineScratch,
) -> Result<Pmf> {
    let exec = app.exec_time(j)?;
    check_amdahl_params(app.serial_fraction(), n)?;
    let avail = platform.proc_type(j)?.availability();
    exec.scale_quotient_with(amdahl_factor(app.serial_fraction(), n), avail, scratch)
        .map_err(SystemError::from)
}

/// `Pr(T ≤ Δ)` for one application under a given `(type, count)` assignment.
pub fn completion_probability(
    app: &Application,
    platform: &Platform,
    j: ProcTypeId,
    n: u32,
    deadline: f64,
) -> Result<f64> {
    Ok(loaded_time_pmf(app, platform, j, n)?.cdf(deadline))
}

/// Joint probability that every `(app, type, count)` triple finishes by the
/// deadline: `Π_i Pr(T_i ≤ Δ)` (independence across applications).
pub fn joint_completion_probability(
    assignments: &[(&Application, ProcTypeId, u32)],
    platform: &Platform,
    deadline: f64,
) -> Result<f64> {
    let mut p = 1.0;
    for &(app, j, n) in assignments {
        p *= completion_probability(app, platform, j, n, deadline)?;
        if p == 0.0 {
            break; // no later factor can recover
        }
    }
    Ok(p)
}

/// Exact PMF of the system makespan `Ψ = max_i T_i` for a set of
/// assignments (independent max across applications). Pulse counts multiply,
/// so the result is coalesced to `max_pulses` after each combination.
pub fn makespan_pmf(
    assignments: &[(&Application, ProcTypeId, u32)],
    platform: &Platform,
    max_pulses: usize,
) -> Result<Pmf> {
    // One scratch serves both the fused loaded-time builds and the
    // sorted-merge max chain, so the whole makespan computation performs
    // no comparison sort and reuses its buffers across links.
    let mut scratch = CombineScratch::new();
    let mut acc: Option<Pmf> = None;
    for &(app, j, n) in assignments {
        let t = loaded_time_pmf_in(app, platform, j, n, &mut scratch)?;
        acc = Some(match acc {
            None => t,
            Some(prev) => prev.max_with(&t, &mut scratch)?.coalesce(max_pulses),
        });
    }
    acc.ok_or(SystemError::UnknownApp(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::Application;
    use crate::platform::{Platform, ProcessorType};
    use cdsf_pmf::Pmf;

    fn paper_platform() -> Platform {
        Platform::new(vec![
            ProcessorType::new(
                "Type 1",
                4,
                Pmf::from_pairs([(0.75, 0.5), (1.0, 0.5)]).unwrap(),
            )
            .unwrap(),
            ProcessorType::new(
                "Type 2",
                8,
                Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap(),
            )
            .unwrap(),
        ])
        .unwrap()
    }

    /// Degenerate-PMF version of the paper's three applications, so
    /// expectations are exact.
    fn paper_apps_degenerate() -> Vec<Application> {
        let mk = |name: &str, s: u64, p: u64, t1: f64, t2: f64| {
            Application::builder(name)
                .serial_iters(s)
                .parallel_iters(p)
                .exec_time_pmf(Pmf::degenerate(t1).unwrap())
                .exec_time_pmf(Pmf::degenerate(t2).unwrap())
                .build()
                .unwrap()
        };
        vec![
            mk("app 1", 439, 1024, 1800.0, 4000.0),
            mk("app 2", 512, 2048, 2800.0, 6000.0),
            mk("app 3", 216, 4096, 12000.0, 8000.0),
        ]
    }

    #[test]
    fn amdahl_rescale_identity_on_one_proc() {
        let pmf = Pmf::degenerate(100.0).unwrap();
        let out = amdahl_rescale(&pmf, 0.3, 1).unwrap();
        assert_eq!(out.expectation(), 100.0);
    }

    #[test]
    fn amdahl_rescale_perfectly_parallel() {
        let pmf = Pmf::degenerate(100.0).unwrap();
        let out = amdahl_rescale(&pmf, 0.0, 4).unwrap();
        assert_eq!(out.expectation(), 25.0);
    }

    #[test]
    fn amdahl_rescale_rejects_bad_inputs() {
        let pmf = Pmf::degenerate(1.0).unwrap();
        assert!(amdahl_rescale(&pmf, -0.1, 2).is_err());
        assert!(amdahl_rescale(&pmf, 1.1, 2).is_err());
        assert!(amdahl_rescale(&pmf, 0.5, 0).is_err());
    }

    #[test]
    fn naive_im_expected_times_match_table5() {
        // Paper Table V, naïve IM row: 3800.02 / 1306.39 / 4599.76
        // (exact values 3800, 1306.67, 4600 modulo the paper's sampling).
        let platform = paper_platform();
        let apps = paper_apps_degenerate();
        let t1 = loaded_time_pmf(&apps[0], &platform, ProcTypeId(1), 4)
            .unwrap()
            .expectation();
        let t2 = loaded_time_pmf(&apps[1], &platform, ProcTypeId(0), 4)
            .unwrap()
            .expectation();
        let t3 = loaded_time_pmf(&apps[2], &platform, ProcTypeId(1), 4)
            .unwrap()
            .expectation();
        assert!((t1 - 3800.0).abs() < 2.0, "t1={t1}");
        assert!((t2 - 1306.67).abs() < 2.0, "t2={t2}");
        assert!((t3 - 4600.0).abs() < 2.0, "t3={t3}");
    }

    #[test]
    fn robust_im_expected_times_match_table5() {
        // Paper Table V, robust IM row: 1365.46 / 1959.59 / 2699.86.
        let platform = paper_platform();
        let apps = paper_apps_degenerate();
        let t1 = loaded_time_pmf(&apps[0], &platform, ProcTypeId(0), 2)
            .unwrap()
            .expectation();
        let t2 = loaded_time_pmf(&apps[1], &platform, ProcTypeId(0), 2)
            .unwrap()
            .expectation();
        let t3 = loaded_time_pmf(&apps[2], &platform, ProcTypeId(1), 8)
            .unwrap()
            .expectation();
        assert!((t1 - 1365.0).abs() < 2.0, "t1={t1}");
        assert!((t2 - 1960.0).abs() < 2.0, "t2={t2}");
        assert!((t3 - 2700.0).abs() < 2.0, "t3={t3}");
    }

    #[test]
    fn joint_probability_multiplies() {
        let platform = paper_platform();
        let apps = paper_apps_degenerate();
        let asg: Vec<(&Application, ProcTypeId, u32)> =
            vec![(&apps[0], ProcTypeId(0), 2), (&apps[1], ProcTypeId(0), 2)];
        let p_joint = joint_completion_probability(&asg, &platform, 3250.0).unwrap();
        let p1 = completion_probability(&apps[0], &platform, ProcTypeId(0), 2, 3250.0).unwrap();
        let p2 = completion_probability(&apps[1], &platform, ProcTypeId(0), 2, 3250.0).unwrap();
        assert!((p_joint - p1 * p2).abs() < 1e-12);
    }

    #[test]
    fn makespan_pmf_is_max() {
        let platform = paper_platform();
        let apps = paper_apps_degenerate();
        let asg: Vec<(&Application, ProcTypeId, u32)> =
            vec![(&apps[0], ProcTypeId(0), 2), (&apps[2], ProcTypeId(1), 8)];
        let psi = makespan_pmf(&asg, &platform, 256).unwrap();
        // Makespan cannot be smaller than either application's minimum.
        let t3 = loaded_time_pmf(&apps[2], &platform, ProcTypeId(1), 8).unwrap();
        assert!(psi.min_value() >= t3.min_value() - 1e-9);
        // Pr(Ψ ≤ Δ) from the max-PMF equals the product of the marginals.
        let joint = joint_completion_probability(&asg, &platform, 3250.0).unwrap();
        assert!((psi.cdf(3250.0) - joint).abs() < 0.02);
    }

    #[test]
    fn makespan_pmf_requires_assignments() {
        let platform = paper_platform();
        assert!(makespan_pmf(&[], &platform, 64).is_err());
    }

    #[test]
    fn amdahl_factor_spans_serial_to_perfectly_parallel() {
        assert_eq!(amdahl_factor(1.0, 64), 1.0, "all serial: no speed-up");
        assert_eq!(amdahl_factor(0.0, 4), 0.25);
        assert_eq!(amdahl_factor(0.5, 2), 0.75);
        assert_eq!(amdahl_factor(0.3, 1), 1.0);
        // The rescale multiplies every pulse by exactly this factor.
        let pmf = Pmf::from_pairs([(90.0, 0.5), (130.0, 0.5)]).unwrap();
        let scaled = amdahl_rescale(&pmf, 0.3, 8).unwrap();
        let factor = amdahl_factor(0.3, 8);
        for (a, b) in pmf.pulses().iter().zip(scaled.pulses()) {
            assert_eq!(b.value.to_bits(), (a.value * factor).to_bits());
            assert_eq!(b.prob, a.prob);
        }
    }
}
