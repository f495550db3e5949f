//! Seeded random generators for large-scale studies.
//!
//! The paper's future work calls for "a larger scale problem … more
//! applications, i.e., in a larger batch or in multiple batches, on a
//! larger computing system, i.e., one with more processors and processor
//! types". These generators produce such instances deterministically from
//! a seed, for the scaling benches and the heuristic-quality ablations.

use cdsf_pmf::discretize::{Discretize, Normal};
use cdsf_pmf::Pmf;
use cdsf_system::{Application, Batch, Platform, ProcessorType, SystemError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inclusive `f64` range helper used throughout the generator configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Range {
    /// Creates a range; `lo ≤ hi` and both finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, SystemError> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(SystemError::BadParameter {
                name: "range",
                value: hi - lo,
            });
        }
        Ok(Self { lo, hi })
    }

    fn sample(&self, rng: &mut StdRng) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }
}

/// Generator for heterogeneous platforms.
#[derive(Debug, Clone)]
pub struct PlatformGenerator {
    /// Number of processor types.
    pub num_types: usize,
    /// Processors per type (sampled uniformly, inclusive).
    pub procs_per_type: (u32, u32),
    /// Number of pulses in each availability PMF.
    pub availability_pulses: usize,
    /// Range of availability support values (clamped to `(0, 1]`).
    pub availability_range: Range,
}

impl Default for PlatformGenerator {
    fn default() -> Self {
        Self {
            num_types: 4,
            procs_per_type: (4, 32),
            availability_pulses: 3,
            availability_range: Range { lo: 0.2, hi: 1.0 },
        }
    }
}

impl PlatformGenerator {
    /// Generates a platform from a seed.
    pub fn generate(&self, seed: u64) -> Result<Platform, SystemError> {
        if self.num_types == 0 {
            return Err(SystemError::NoProcessorTypes);
        }
        if self.procs_per_type.0 == 0 || self.procs_per_type.0 > self.procs_per_type.1 {
            return Err(SystemError::BadParameter {
                name: "procs_per_type",
                value: self.procs_per_type.0 as f64,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut types = Vec::with_capacity(self.num_types);
        for t in 0..self.num_types {
            let count = rng.gen_range(self.procs_per_type.0..=self.procs_per_type.1);
            let pulses = self.availability_pulses.max(1);
            let mut pairs = Vec::with_capacity(pulses);
            for _ in 0..pulses {
                let a = self
                    .availability_range
                    .sample(&mut rng)
                    .clamp(f64::MIN_POSITIVE, 1.0);
                let w = rng.gen_range(0.05..1.0);
                pairs.push((a, w));
            }
            let pmf = Pmf::from_weighted(pairs).map_err(SystemError::from)?;
            types.push(ProcessorType::new(format!("Type {}", t + 1), count, pmf)?);
        }
        Platform::new(types)
    }
}

/// Generator for application batches.
#[derive(Debug, Clone)]
pub struct BatchGenerator {
    /// Number of applications.
    pub num_apps: usize,
    /// Total iterations per application (sampled log-uniformly, inclusive).
    pub total_iters: (u64, u64),
    /// Serial fraction range (clamped to `[0, 0.95]`).
    pub serial_fraction: Range,
    /// Mean single-processor execution time range (per app; per-type means
    /// are the app mean scaled by a heterogeneity factor).
    pub mean_exec_time: Range,
    /// Per-type heterogeneity factor range (multiplies the app mean).
    pub type_heterogeneity: Range,
    /// Pulses per execution-time PMF.
    pub pulses: usize,
}

impl Default for BatchGenerator {
    fn default() -> Self {
        Self {
            num_apps: 8,
            total_iters: (1_000, 10_000),
            serial_fraction: Range { lo: 0.02, hi: 0.3 },
            mean_exec_time: Range {
                lo: 1_000.0,
                hi: 12_000.0,
            },
            type_heterogeneity: Range { lo: 0.5, hi: 2.0 },
            pulses: 32,
        }
    }
}

impl BatchGenerator {
    /// Generates a batch compatible with `platform` (one execution-time PMF
    /// per processor type) from a seed.
    pub fn generate(&self, platform: &Platform, seed: u64) -> Result<Batch, SystemError> {
        if self.num_apps == 0 {
            return Err(SystemError::BadParameter {
                name: "num_apps",
                value: 0.0,
            });
        }
        if self.total_iters.0 == 0 || self.total_iters.0 > self.total_iters.1 {
            return Err(SystemError::BadParameter {
                name: "total_iters",
                value: self.total_iters.0 as f64,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut apps = Vec::with_capacity(self.num_apps);
        for i in 0..self.num_apps {
            // Log-uniform iteration counts spread batches across scales.
            let (lo, hi) = (self.total_iters.0 as f64, self.total_iters.1 as f64);
            let total = (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp() as u64;
            let total = total.clamp(self.total_iters.0, self.total_iters.1).max(2);
            let s_frac = self.serial_fraction.sample(&mut rng).clamp(0.0, 0.95);
            let serial = ((total as f64) * s_frac).round() as u64;
            let parallel = (total - serial).max(1);

            let base_mean = self.mean_exec_time.sample(&mut rng).max(1.0);
            let mut builder = Application::builder(format!("synthetic {}", i + 1))
                .serial_iters(serial)
                .parallel_iters(parallel);
            for _ in 0..platform.num_types() {
                let factor = self.type_heterogeneity.sample(&mut rng).max(0.05);
                let mu = base_mean * factor;
                let pmf = Normal::with_paper_sigma(mu)
                    .map_err(SystemError::from)?
                    .equiprobable(self.pulses.max(1));
                builder = builder.exec_time_pmf(pmf);
            }
            apps.push(builder.build()?);
        }
        Ok(Batch::new(apps))
    }
}

/// Derives a degraded availability case from a reference platform: every
/// availability value is scaled so the *weighted system availability*
/// decreases by `decrease` (e.g. `0.3077` for the paper's case 3), with
/// support clamped to `(0, 1]`.
///
/// The clamping means very small decreases on already-high availabilities
/// are matched only approximately; the achieved decrease is returned
/// alongside the platform.
pub fn degraded_case(
    reference: &Platform,
    decrease: f64,
    seed: u64,
) -> Result<(Platform, f64), SystemError> {
    if !(0.0..1.0).contains(&decrease) {
        return Err(SystemError::BadParameter {
            name: "decrease",
            value: decrease,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let target = 1.0 - decrease;
    let mut pmfs = Vec::with_capacity(reference.num_types());
    for t in reference.types() {
        // Jitter the per-type scale a little so types degrade unevenly (as
        // in the paper's cases), while the platform-level mean hits target.
        let jitter = 1.0 + rng.gen_range(-0.05..=0.05);
        let scale = (target * jitter).clamp(0.01, 1.0);
        let scaled = t
            .availability()
            .map(|a| (a * scale).clamp(1e-6, 1.0))
            .map_err(SystemError::from)?;
        pmfs.push(scaled);
    }
    let degraded = reference.with_availabilities(&pmfs)?;
    let achieved = degraded.availability_decrease_vs(reference);
    Ok((degraded, achieved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_generator_is_deterministic() {
        let g = PlatformGenerator::default();
        assert_eq!(g.generate(5).unwrap(), g.generate(5).unwrap());
        assert_ne!(g.generate(5).unwrap(), g.generate(6).unwrap());
    }

    #[test]
    fn platform_generator_respects_bounds() {
        let g = PlatformGenerator {
            num_types: 3,
            procs_per_type: (2, 16),
            availability_pulses: 4,
            availability_range: Range { lo: 0.3, hi: 0.9 },
        };
        let p = g.generate(1).unwrap();
        assert_eq!(p.num_types(), 3);
        for t in p.types() {
            assert!((2..=16).contains(&t.count()));
            assert!(t.availability().min_value() >= 0.3 - 1e-12);
            assert!(t.availability().max_value() <= 0.9 + 1e-12);
        }
    }

    #[test]
    fn platform_generator_rejects_bad_config() {
        let g = PlatformGenerator {
            num_types: 0,
            ..Default::default()
        };
        assert!(g.generate(0).is_err());
        let g2 = PlatformGenerator {
            procs_per_type: (8, 4),
            ..Default::default()
        };
        assert!(g2.generate(0).is_err());
    }

    #[test]
    fn batch_generator_produces_valid_apps() {
        let p = PlatformGenerator::default().generate(2).unwrap();
        let b = BatchGenerator::default().generate(&p, 3).unwrap();
        assert_eq!(b.len(), 8);
        for (_, app) in b.iter() {
            assert_eq!(app.num_proc_types(), p.num_types());
            assert!(app.total_iters() >= 2);
            assert!(app.serial_fraction() <= 0.95);
            for j in 0..p.num_types() {
                let pmf = app.exec_time(cdsf_system::ProcTypeId(j)).unwrap();
                assert!(pmf.min_value() > 0.0);
            }
        }
    }

    #[test]
    fn batch_generator_is_deterministic() {
        let p = PlatformGenerator::default().generate(2).unwrap();
        let g = BatchGenerator::default();
        assert_eq!(g.generate(&p, 9).unwrap(), g.generate(&p, 9).unwrap());
    }

    #[test]
    fn degraded_case_hits_target_decrease() {
        let reference = crate::paper::platform();
        let (degraded, achieved) = degraded_case(&reference, 0.3, 7).unwrap();
        assert!((achieved - 0.3).abs() < 0.05, "achieved {achieved}");
        assert!(degraded.weighted_availability() < reference.weighted_availability());
    }

    #[test]
    fn degraded_case_rejects_bad_decrease() {
        let reference = crate::paper::platform();
        assert!(degraded_case(&reference, 1.0, 0).is_err());
        assert!(degraded_case(&reference, -0.1, 0).is_err());
    }

    #[test]
    fn range_rejects_inverted_and_non_finite_bounds() {
        assert!(Range::new(2.0, 1.0).is_err());
        assert!(Range::new(f64::NAN, 1.0).is_err());
        assert!(Range::new(0.0, f64::INFINITY).is_err());
        let point = Range::new(3.0, 3.0).unwrap();
        assert_eq!((point.lo, point.hi), (3.0, 3.0));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(point.sample(&mut rng), 3.0, "a point range samples itself");
        let span = Range::new(1.0, 2.0).unwrap();
        for _ in 0..100 {
            let x = span.sample(&mut rng);
            assert!((1.0..=2.0).contains(&x), "{x}");
        }
    }
}
