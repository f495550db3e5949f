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
}
