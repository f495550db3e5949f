//! Fitting availability models to historical data.
//!
//! The paper assumes availability PMFs are "generated using historical
//! usage data of the heterogeneous computing system". This module closes
//! that loop for users with real data:
//!
//! * [`trace_from_csv`] — parse an `availability,duration` CSV into an
//!   [`AvailabilitySpec::Trace`] for direct playback;
//! * [`fit_renewal_from_segments`] — turn recorded segments into a
//!   [`AvailabilitySpec::Renewal`] whose stationary PMF is the
//!   duration-weighted empirical distribution and whose dwell is the mean
//!   segment length;
//! * [`fit_renewal_from_series`] — same from a regularly-sampled
//!   utilization time series (values are binned, runs of equal bins become
//!   segments).
//!
//! Round-trip property: fitting a realization generated from a known
//! renewal spec recovers its stationary mean and dwell (tested below).

use crate::availability::AvailabilitySpec;
use crate::{Result, SystemError};
use cdsf_pmf::Pmf;

/// Parses an `availability,duration` CSV (one segment per line, `#`
/// comments and blank lines ignored) into a trace spec.
///
/// Availabilities are fractions in `(0, 1]`; durations positive time
/// units.
pub fn trace_from_csv(text: &str) -> Result<AvailabilitySpec> {
    let mut segments = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let (a, d) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(d), None) => (a.trim(), d.trim()),
            _ => {
                return Err(SystemError::BadParameter {
                    name: "csv line (want `availability,duration`)",
                    value: lineno as f64 + 1.0,
                })
            }
        };
        let a: f64 = a.parse().map_err(|_| SystemError::BadParameter {
            name: "availability",
            value: lineno as f64 + 1.0,
        })?;
        let d: f64 = d.parse().map_err(|_| SystemError::BadParameter {
            name: "duration",
            value: lineno as f64 + 1.0,
        })?;
        segments.push((a, d));
    }
    let spec = AvailabilitySpec::Trace { segments };
    spec.validate()?;
    Ok(spec)
}

/// Fits a renewal spec to recorded `(availability, duration)` segments:
/// stationary PMF = duration-weighted empirical distribution, dwell = mean
/// segment duration.
pub fn fit_renewal_from_segments(segments: &[(f64, f64)]) -> Result<AvailabilitySpec> {
    if segments.is_empty() {
        return Err(SystemError::BadParameter {
            name: "segments.len",
            value: 0.0,
        });
    }
    for &(a, d) in segments {
        if !(a > 0.0 && a <= 1.0) {
            return Err(SystemError::BadParameter {
                name: "availability",
                value: a,
            });
        }
        if !(d > 0.0) || !d.is_finite() {
            return Err(SystemError::BadParameter {
                name: "duration",
                value: d,
            });
        }
    }
    let pmf = Pmf::from_weighted(segments.iter().copied())?;
    let mean_dwell = segments.iter().map(|(_, d)| d).sum::<f64>() / segments.len() as f64;
    Ok(AvailabilitySpec::Renewal { pmf, mean_dwell })
}

/// Fits a renewal spec to a regularly-sampled availability series:
/// values are quantized into `bins` equal-width bins over `(0, 1]`
/// (bin midpoints become the PMF support) and maximal runs of the same
/// bin become segments of length `run·dt`.
pub fn fit_renewal_from_series(series: &[f64], dt: f64, bins: usize) -> Result<AvailabilitySpec> {
    if series.is_empty() {
        return Err(SystemError::BadParameter {
            name: "series.len",
            value: 0.0,
        });
    }
    if !(dt > 0.0) {
        return Err(SystemError::BadParameter {
            name: "dt",
            value: dt,
        });
    }
    if bins == 0 {
        return Err(SystemError::BadParameter {
            name: "bins",
            value: 0.0,
        });
    }
    let bin_of = |a: f64| -> Result<usize> {
        if !(a > 0.0 && a <= 1.0) {
            return Err(SystemError::BadParameter {
                name: "availability",
                value: a,
            });
        }
        Ok(((a * bins as f64).ceil() as usize - 1).min(bins - 1))
    };
    let midpoint = |bin: usize| (bin as f64 + 0.5) / bins as f64;

    let mut segments: Vec<(f64, f64)> = Vec::new();
    let mut current = bin_of(series[0])?;
    let mut run = 1usize;
    for &a in &series[1..] {
        let b = bin_of(a)?;
        if b == current {
            run += 1;
        } else {
            segments.push((midpoint(current), run as f64 * dt));
            current = b;
            run = 1;
        }
    }
    segments.push((midpoint(current), run as f64 * dt));
    fit_renewal_from_segments(&segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::Timeline;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn csv_parsing_accepts_comments_and_blanks() {
        let spec = trace_from_csv("# cluster trace\n1.0, 120\n\n0.5,60\n0.25, 30\n").unwrap();
        match &spec {
            AvailabilitySpec::Trace { segments } => {
                assert_eq!(segments.len(), 3);
                assert_eq!(segments[1], (0.5, 60.0));
            }
            other => panic!("unexpected spec {other:?}"),
        }
        assert!((spec.stationary_mean() - (120.0 + 30.0 + 7.5) / 210.0).abs() < 1e-12);
    }

    #[test]
    fn csv_parsing_rejects_malformed_lines() {
        assert!(trace_from_csv("1.0").is_err());
        assert!(trace_from_csv("1.0,2.0,3.0").is_err());
        assert!(trace_from_csv("abc,1.0").is_err());
        assert!(trace_from_csv("0.5,xyz").is_err());
        assert!(trace_from_csv("1.5,10").is_err()); // availability > 1
        assert!(trace_from_csv("").is_err()); // no segments
    }

    #[test]
    fn fit_from_segments_weights_by_duration() {
        let spec = fit_renewal_from_segments(&[(1.0, 300.0), (0.5, 100.0)]).unwrap();
        match &spec {
            AvailabilitySpec::Renewal { pmf, mean_dwell } => {
                assert!((pmf.expectation() - (300.0 + 50.0) / 400.0).abs() < 1e-12);
                assert_eq!(*mean_dwell, 200.0);
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn fit_validates_inputs() {
        assert!(fit_renewal_from_segments(&[]).is_err());
        assert!(fit_renewal_from_segments(&[(0.0, 1.0)]).is_err());
        assert!(fit_renewal_from_segments(&[(0.5, -1.0)]).is_err());
        assert!(fit_renewal_from_series(&[], 1.0, 4).is_err());
        assert!(fit_renewal_from_series(&[0.5], 0.0, 4).is_err());
        assert!(fit_renewal_from_series(&[0.5], 1.0, 0).is_err());
        assert!(fit_renewal_from_series(&[1.2], 1.0, 4).is_err());
    }

    #[test]
    fn fit_round_trips_a_generated_realization() {
        // Generate a realization from a known renewal spec, sample it on a
        // fine grid, fit, and compare stationary mean and dwell.
        let truth_pmf = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        let truth = AvailabilitySpec::Renewal {
            pmf: truth_pmf,
            mean_dwell: 80.0,
        };
        let mut tl = Timeline::new(&truth).unwrap();
        let mut rng = StdRng::seed_from_u64(1234);
        let dt = 1.0;
        let series: Vec<f64> = (0..200_000)
            .map(|k| tl.availability_at(k as f64 * dt, &mut rng))
            .collect();
        let fitted = fit_renewal_from_series(&series, dt, 20).unwrap();
        match fitted {
            AvailabilitySpec::Renewal { pmf, mean_dwell } => {
                assert!(
                    (pmf.expectation() - 0.6875).abs() < 0.02,
                    "stationary mean {}",
                    pmf.expectation()
                );
                // Identifiability: renewals that redraw the *same* level
                // are invisible in the series, so the observable dwell is
                // dwell/(1 − Σ p_k²) = 80/(1 − 0.375) = 128. The fitted
                // process is equivalent in law at the level-change
                // resolution.
                let observable =
                    80.0 / (1.0 - (0.25f64.powi(2) + 0.25f64.powi(2) + 0.5f64.powi(2)));
                assert!(
                    (mean_dwell - observable).abs() < 0.15 * observable,
                    "dwell {mean_dwell} vs observable {observable}"
                );
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn series_fit_merges_runs() {
        let spec = fit_renewal_from_series(&[0.9, 0.9, 0.9, 0.3, 0.3, 0.9], 10.0, 10).unwrap();
        match spec {
            AvailabilitySpec::Renewal { pmf, mean_dwell } => {
                assert_eq!(pmf.len(), 2);
                // Three segments: 30, 20, 10 → mean 20.
                assert!((mean_dwell - 20.0).abs() < 1e-12);
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }
}
