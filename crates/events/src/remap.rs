//! Remap entry points: deriving post-event `(batch, platform)` inputs.
//!
//! The online event engine and the serving layer react to the same three
//! disruptions — a processor-type crash, a per-type availability
//! degradation, and a system-wide drift — and both assemble the Stage-I
//! engine for the derived remnant inputs against a
//! [`cdsf_ra::CellStore`]. This module is the shared derivation: pure
//! functions from the current inputs to the post-event inputs.
//!
//! Everything here is deterministic and bit-stable: the untouched PMFs
//! are carried over by clone (same bits, cached digest included), so the
//! store recognises them by content and reuses their cells.

use crate::{EventsError, Result};
use cdsf_pmf::Pmf;
use cdsf_system::{Application, Batch, Platform, ProcTypeId, ProcessorType};

/// Floor availability after scaling: a crashed-but-present processor type
/// still makes *some* progress under the model, and a zero would break
/// the loaded-time quotient.
pub const MIN_AVAILABILITY: f64 = 0.01;

/// Scales every availability level by `c`, clamped into
/// `[MIN_AVAILABILITY, 1]` so the result stays a valid availability PMF.
/// Equal clamped levels are merged (probability-summed) canonically.
pub fn scale_availability(pmf: &Pmf, c: f64) -> Result<Pmf> {
    Ok(pmf.map(|v| (v * c).clamp(MIN_AVAILABILITY, 1.0))?)
}

/// A platform with `proc_type`'s availability scaled by `factor`, every
/// other type carried over bit-identically, so a rebuild reuses every
/// cell of the untouched types.
pub fn degraded_platform(platform: &Platform, proc_type: usize, factor: f64) -> Result<Platform> {
    if proc_type >= platform.num_types() {
        return Err(EventsError::BadConfig {
            what: "degrade targets an unknown processor type",
        });
    }
    if !(factor > 0.0) || !factor.is_finite() {
        return Err(EventsError::BadParameter {
            name: "factor",
            value: factor,
        });
    }
    let avs: Vec<Pmf> = platform
        .types()
        .iter()
        .enumerate()
        .map(|(j, ty)| {
            if j == proc_type {
                scale_availability(ty.availability(), factor)
            } else {
                Ok(ty.availability().clone())
            }
        })
        .collect::<Result<_>>()?;
    Ok(platform.with_availabilities(&avs)?)
}

/// A platform with *every* type's availability scaled by `factor` — the
/// system-wide drift case.
pub fn drifted_platform(platform: &Platform, factor: f64) -> Result<Platform> {
    if !(factor > 0.0) || !factor.is_finite() {
        return Err(EventsError::BadParameter {
            name: "factor",
            value: factor,
        });
    }
    let avs: Vec<Pmf> = platform
        .types()
        .iter()
        .map(|ty| scale_availability(ty.availability(), factor))
        .collect::<Result<_>>()?;
    Ok(platform.with_availabilities(&avs)?)
}

/// Removes processor type `proc_type` outright: returns the batch with
/// each application's execution PMF for that type dropped (positional
/// alignment preserved) and the reduced platform. Every surviving PMF
/// keeps its bits, so its cells are reused although its type index
/// shifts.
///
/// Errors when the platform would be left without processor types or when
/// an application lacks an execution PMF for a surviving type (positional
/// alignment would silently shift).
pub fn crashed(batch: &Batch, platform: &Platform, proc_type: usize) -> Result<(Batch, Platform)> {
    let n = platform.num_types();
    if proc_type >= n {
        return Err(EventsError::BadConfig {
            what: "crash targets an unknown processor type",
        });
    }
    if n <= 1 {
        return Err(EventsError::BadConfig {
            what: "crash would leave the platform without processor types",
        });
    }
    let survivors: Vec<usize> = (0..n).filter(|&j| j != proc_type).collect();
    let types: Vec<ProcessorType> = survivors
        .iter()
        .map(|&j| {
            let ty = &platform.types()[j];
            Ok(ProcessorType::new(
                ty.name().to_string(),
                ty.count(),
                ty.availability().clone(),
            )?)
        })
        .collect::<Result<_>>()?;
    let reduced = Platform::new(types)?;

    let mut apps = Vec::with_capacity(batch.len());
    for (_, app) in batch.iter() {
        let mut builder = Application::builder(app.name().to_string())
            .serial_iters(app.serial_iters())
            .parallel_iters(app.parallel_iters());
        for &j in &survivors {
            let pmf = app
                .exec_time(ProcTypeId(j))
                .map_err(|_| EventsError::BadConfig {
                    what: "application lacks an execution PMF for a surviving type",
                })?;
            builder = builder.exec_time_pmf(pmf.clone());
        }
        apps.push(builder.build()?);
    }
    Ok((Batch::new(apps), reduced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator};

    fn fixture() -> (Batch, Platform) {
        let platform = PlatformGenerator::default().generate(11).unwrap();
        let batch = BatchGenerator {
            num_apps: 3,
            pulses: 6,
            ..BatchGenerator::default()
        }
        .generate(&platform, 11)
        .unwrap();
        (batch, platform)
    }

    #[test]
    fn degrade_touches_exactly_one_type() {
        let (_, platform) = fixture();
        let degraded = degraded_platform(&platform, 1, 0.5).unwrap();
        for (j, (a, b)) in platform.types().iter().zip(degraded.types()).enumerate() {
            assert_eq!(
                a.availability().bits_eq(b.availability()),
                j != 1,
                "type {j}"
            );
        }
    }

    #[test]
    fn crash_preserves_survivor_bits() {
        let (batch, platform) = fixture();
        let (rbatch, rplatform) = crashed(&batch, &platform, 2).unwrap();
        assert_eq!(rplatform.num_types(), platform.num_types() - 1);
        for (nj, &pj) in [0usize, 1, 3].iter().enumerate() {
            assert_eq!(rplatform.types()[nj].count(), platform.types()[pj].count());
        }
        // Each app's surviving execution PMFs keep their exact bits.
        for ((_, a), (_, b)) in batch.iter().zip(rbatch.iter()) {
            for (nj, &pj) in [0usize, 1, 3].iter().enumerate() {
                let pa = a.exec_time(ProcTypeId(pj)).unwrap();
                let pb = b.exec_time(ProcTypeId(nj)).unwrap();
                assert!(pa.bits_eq(pb));
            }
        }
    }

    #[test]
    fn crash_rejects_last_type_and_bad_index() {
        let (batch, platform) = fixture();
        assert!(crashed(&batch, &platform, 99).is_err());
        let one = Platform::new(vec![platform.types()[0].clone()]).unwrap();
        assert!(crashed(&batch, &one, 0).is_err());
    }

    #[test]
    fn scaled_availability_is_clamped_into_the_floor_and_one() {
        let pmf = Pmf::from_pairs([(0.2, 0.25), (0.5, 0.25), (0.9, 0.5)]).unwrap();
        let boosted = scale_availability(&pmf, 10.0).unwrap();
        assert_eq!(boosted.pulses().len(), 1, "every level clamps to 1");
        assert_eq!(boosted.min_value(), 1.0);
        let starved = scale_availability(&pmf, 1e-6).unwrap();
        assert_eq!(starved.pulses().len(), 1);
        assert_eq!(starved.max_value(), MIN_AVAILABILITY);
        let halved = scale_availability(&pmf, 0.5).unwrap();
        let values: Vec<f64> = halved.pulses().iter().map(|p| p.value).collect();
        assert_eq!(values, [0.1, 0.25, 0.45]);
    }

    #[test]
    fn drift_scales_every_type_as_scale_availability_does() {
        let (_, platform) = fixture();
        let drifted = drifted_platform(&platform, 0.7).unwrap();
        assert_eq!(drifted.num_types(), platform.num_types());
        for (a, b) in platform.types().iter().zip(drifted.types()) {
            let want = scale_availability(a.availability(), 0.7).unwrap();
            assert!(b.availability().bits_eq(&want), "{}", a.name());
            assert_eq!((a.name(), a.count()), (b.name(), b.count()));
        }
    }

    #[test]
    fn degrade_and_drift_refuse_bad_factors_and_unknown_types() {
        let (_, platform) = fixture();
        for factor in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                degraded_platform(&platform, 0, factor),
                Err(EventsError::BadParameter { name: "factor", .. })
            ));
            assert!(matches!(
                drifted_platform(&platform, factor),
                Err(EventsError::BadParameter { name: "factor", .. })
            ));
        }
        assert!(matches!(
            degraded_platform(&platform, platform.num_types(), 0.5),
            Err(EventsError::BadConfig { .. })
        ));
    }

    #[test]
    fn crash_keeps_names_and_iteration_counts() {
        let (batch, platform) = fixture();
        let (rbatch, rplatform) = crashed(&batch, &platform, 0).unwrap();
        assert_eq!(rbatch.len(), batch.len());
        for ((_, a), (_, b)) in batch.iter().zip(rbatch.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.serial_iters(), b.serial_iters());
            assert_eq!(a.parallel_iters(), b.parallel_iters());
            assert_eq!(b.num_proc_types(), rplatform.num_types());
        }
        let names: Vec<&str> = rplatform.types().iter().map(|t| t.name()).collect();
        let survivors: Vec<&str> = platform.types()[1..].iter().map(|t| t.name()).collect();
        assert_eq!(names, survivors);
    }
}
