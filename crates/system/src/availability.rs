//! Runtime availability processes for Stage II.
//!
//! Stage I treats availability as a single random draw per application run
//! (`T/α`). At runtime, availability *fluctuates*: the load Λ on a machine
//! comes and goes, so the instantaneous availability `A(t) = 1 − Λ(t)` is a
//! stochastic process. Dynamic loop scheduling exists precisely to react to
//! these fluctuations.
//!
//! We model `A(t)` per processor as a piecewise-constant process described
//! by an [`AvailabilitySpec`]:
//!
//! * [`AvailabilitySpec::Constant`] — fixed availability (the degenerate
//!   case used for calibration tests);
//! * [`AvailabilitySpec::Renewal`] — at exponentially-distributed renewal
//!   epochs, a fresh availability level is drawn from a PMF. Its stationary
//!   distribution is exactly that PMF, so a Stage-II case `A_i` from the
//!   paper's Table I plugs in directly;
//! * [`AvailabilitySpec::TwoStateMarkov`] — alternates between an "unloaded"
//!   and a "loaded" level with exponential holding times (a classic machine
//!   interference model);
//! * [`AvailabilitySpec::Trace`] — replays a recorded `(availability,
//!   duration)` trace, cycling; this is the hook for real historical data.
//!
//! [`Timeline`] lazily materializes one realization of the process and
//! answers the only question the simulator asks: *starting at time `t`,
//! when does `w` units of dedicated-speed work finish?* — i.e. the smallest
//! `t'` with `∫_t^{t'} A(s) ds = w`.

use crate::{Result, SystemError};
use cdsf_pmf::sample::AliasSampler;
use cdsf_pmf::Pmf;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Minimum dwell/hold duration accepted by the stochastic processes, to
/// keep segment counts finite per unit of simulated time.
const MIN_MEAN_DURATION: f64 = 1e-9;

/// Distribution of the dwell time between availability redraws in a
/// general renewal process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DwellDistribution {
    /// Exponential with the given mean (memoryless — the default model).
    Exponential {
        /// Mean dwell time.
        mean: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Shortest dwell.
        lo: f64,
        /// Longest dwell.
        hi: f64,
    },
    /// Log-normal with the given arithmetic mean and coefficient of
    /// variation — heavy-tailed dwells, as observed in desktop-grid
    /// availability traces.
    LogNormal {
        /// Arithmetic mean dwell time.
        mean: f64,
        /// Coefficient of variation (`σ/μ` of the dwell itself).
        cov: f64,
    },
    /// Every dwell exactly `d` (periodic redraws).
    Deterministic {
        /// The fixed dwell.
        d: f64,
    },
}

impl DwellDistribution {
    /// Mean dwell time of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            DwellDistribution::Exponential { mean } => *mean,
            DwellDistribution::Uniform { lo, hi } => (lo + hi) / 2.0,
            DwellDistribution::LogNormal { mean, .. } => *mean,
            DwellDistribution::Deterministic { d } => *d,
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |name: &'static str, value: f64| Err(SystemError::BadParameter { name, value });
        match *self {
            DwellDistribution::Exponential { mean } if !(mean >= MIN_MEAN_DURATION) => {
                bad("mean", mean)
            }
            DwellDistribution::Uniform { lo, hi } if !(lo >= MIN_MEAN_DURATION) || !(hi >= lo) => {
                bad("lo..hi", hi - lo)
            }
            DwellDistribution::LogNormal { mean, cov }
                if !(mean >= MIN_MEAN_DURATION) || !(cov > 0.0) =>
            {
                bad("mean/cov", mean.min(cov))
            }
            DwellDistribution::Deterministic { d } if !(d >= MIN_MEAN_DURATION) => bad("d", d),
            _ => Ok(()),
        }
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            DwellDistribution::Exponential { mean } => sample_exp(mean, rng),
            DwellDistribution::Uniform { lo, hi } => {
                if lo == hi {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
            DwellDistribution::LogNormal { mean, cov } => {
                // Parameters of the underlying normal from (mean, cov).
                let sigma2 = (1.0 + cov * cov).ln();
                let mu = mean.ln() - sigma2 / 2.0;
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (mu + sigma2.sqrt() * cdsf_pmf::stats::normal_inv_cdf(u)).exp()
            }
            DwellDistribution::Deterministic { d } => d,
        }
    }
}

/// Declarative description of a per-processor availability process.
///
/// A spec is cheap to clone and serializable; each processor in a
/// simulation builds its own [`Timeline`] realization from the shared spec.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub enum AvailabilitySpec {
    /// Always-`a` availability, `a ∈ (0, 1]`.
    Constant {
        /// The fixed availability level.
        a: f64,
    },
    /// Redraw availability from `pmf` at exponential renewal epochs with
    /// the given mean dwell time.
    Renewal {
        /// Stationary availability distribution (support in `(0, 1]`).
        pmf: Pmf,
        /// Mean time between redraws, in simulation time units.
        mean_dwell: f64,
    },
    /// Redraw availability from `pmf` with an arbitrary dwell-time
    /// distribution (the general renewal process; `Renewal` is the
    /// exponential special case).
    RenewalGeneral {
        /// Stationary availability distribution (support in `(0, 1]`).
        pmf: Pmf,
        /// Dwell-time distribution between redraws.
        dwell: DwellDistribution,
    },
    /// Alternate between availability `up` (mean holding `mean_up`) and
    /// `down` (mean holding `mean_down`), exponential holding times.
    TwoStateMarkov {
        /// Availability in the unloaded state.
        up: f64,
        /// Availability in the loaded state.
        down: f64,
        /// Mean holding time of the unloaded state.
        mean_up: f64,
        /// Mean holding time of the loaded state.
        mean_down: f64,
    },
    /// Replay `(availability, duration)` segments, cycling at the end.
    Trace {
        /// The recorded segments; all durations must be positive.
        segments: Vec<(f64, f64)>,
    },
}

impl Clone for AvailabilitySpec {
    fn clone(&self) -> Self {
        match self {
            Self::Constant { a } => Self::Constant { a: *a },
            Self::Renewal { pmf, mean_dwell } => Self::Renewal {
                pmf: pmf.clone(),
                mean_dwell: *mean_dwell,
            },
            Self::RenewalGeneral { pmf, dwell } => Self::RenewalGeneral {
                pmf: pmf.clone(),
                dwell: dwell.clone(),
            },
            &Self::TwoStateMarkov {
                up,
                down,
                mean_up,
                mean_down,
            } => Self::TwoStateMarkov {
                up,
                down,
                mean_up,
                mean_down,
            },
            Self::Trace { segments } => Self::Trace {
                segments: segments.clone(),
            },
        }
    }

    /// Copies a renewal spec into the PMF buffers of the renewal spec
    /// `self` holds, so that a record of specs follows a grid from cell
    /// to cell without allocating.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (
                Self::Renewal { pmf, mean_dwell },
                Self::Renewal {
                    pmf: p,
                    mean_dwell: m,
                },
            ) => {
                pmf.clone_from(p);
                *mean_dwell = *m;
            }
            (this, source) => *this = source.clone(),
        }
    }
}

impl AvailabilitySpec {
    /// Checks the parameters a [`Timeline`] needs: every availability
    /// level in `(0, 1]`, mean durations of at least `1e-9`, a non-empty
    /// trace with positive durations.
    pub fn validate(&self) -> Result<()> {
        match self {
            AvailabilitySpec::Constant { a } => check_avail(*a),
            AvailabilitySpec::Renewal { pmf, mean_dwell } => {
                for p in pmf.pulses() {
                    check_avail(p.value)?;
                }
                DwellDistribution::Exponential { mean: *mean_dwell }.validate()
            }
            AvailabilitySpec::RenewalGeneral { pmf, dwell } => {
                for p in pmf.pulses() {
                    check_avail(p.value)?;
                }
                dwell.validate()
            }
            AvailabilitySpec::TwoStateMarkov {
                up,
                down,
                mean_up,
                mean_down,
            } => {
                check_avail(*up)?;
                check_avail(*down)?;
                if !(*mean_up >= MIN_MEAN_DURATION) {
                    return Err(SystemError::BadParameter {
                        name: "mean_up",
                        value: *mean_up,
                    });
                }
                if !(*mean_down >= MIN_MEAN_DURATION) {
                    return Err(SystemError::BadParameter {
                        name: "mean_down",
                        value: *mean_down,
                    });
                }
                Ok(())
            }
            AvailabilitySpec::Trace { segments } => {
                if segments.is_empty() {
                    return Err(SystemError::BadParameter {
                        name: "segments.len",
                        value: 0.0,
                    });
                }
                for &(a, d) in segments {
                    check_avail(a)?;
                    if !(d > 0.0) && !d.is_infinite() {
                        return Err(SystemError::BadParameter {
                            name: "duration",
                            value: d,
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// Long-run (stationary) mean availability of the process.
    pub fn stationary_mean(&self) -> f64 {
        match self {
            AvailabilitySpec::Constant { a } => *a,
            AvailabilitySpec::Renewal { pmf, .. }
            | AvailabilitySpec::RenewalGeneral { pmf, .. } => pmf.expectation(),
            AvailabilitySpec::TwoStateMarkov {
                up,
                down,
                mean_up,
                mean_down,
            } => (up * mean_up + down * mean_down) / (mean_up + mean_down),
            AvailabilitySpec::Trace { segments } => {
                let finite: Vec<&(f64, f64)> =
                    segments.iter().filter(|(_, d)| d.is_finite()).collect();
                if finite.is_empty() {
                    return segments.first().map_or(1.0, |&(a, _)| a);
                }
                let total: f64 = finite.iter().map(|(_, d)| d).sum();
                finite.iter().map(|(a, d)| a * d).sum::<f64>() / total
            }
        }
    }
}

fn check_avail(a: f64) -> Result<()> {
    if a > 0.0 && a <= 1.0 {
        Ok(())
    } else {
        Err(SystemError::BadParameter {
            name: "availability",
            value: a,
        })
    }
}

/// One realization of a piecewise-constant availability process: an
/// infinite stream of `(availability, duration)` segments, availability
/// in `(0, 1]` and duration positive (`f64::INFINITY` for the constant
/// process's one segment).
enum Process {
    Constant(f64),
    Renewal {
        sampler: AliasSampler,
        dwell: DwellDistribution,
    },
    Markov {
        up: f64,
        down: f64,
        mean_up: f64,
        mean_down: f64,
        in_up: bool,
    },
    Trace {
        segments: Vec<(f64, f64)>,
        idx: usize,
    },
}

impl Process {
    /// Turns the process into a fresh realization of the validated
    /// `spec`. A renewal process rebuilds its alias tables in place, so a
    /// rebuild to a renewal spec with no more pulses allocates nothing.
    fn rebuild(&mut self, spec: &AvailabilitySpec) {
        let old = std::mem::replace(self, Process::Constant(1.0));
        let sampler = |pmf: &Pmf, old: Process| match old {
            Process::Renewal { mut sampler, .. } => {
                sampler.rebuild(pmf);
                sampler
            }
            _ => AliasSampler::new(pmf),
        };
        *self = match spec {
            AvailabilitySpec::Constant { a } => Process::Constant(*a),
            AvailabilitySpec::Renewal { pmf, mean_dwell } => Process::Renewal {
                sampler: sampler(pmf, old),
                dwell: DwellDistribution::Exponential { mean: *mean_dwell },
            },
            AvailabilitySpec::RenewalGeneral { pmf, dwell } => Process::Renewal {
                sampler: sampler(pmf, old),
                dwell: dwell.clone(),
            },
            AvailabilitySpec::TwoStateMarkov {
                up,
                down,
                mean_up,
                mean_down,
            } => Process::Markov {
                up: *up,
                down: *down,
                mean_up: *mean_up,
                mean_down: *mean_down,
                in_up: true,
            },
            AvailabilitySpec::Trace { segments } => Process::Trace {
                segments: segments.clone(),
                idx: 0,
            },
        };
    }

    /// Returns the process to the state [`Process::rebuild`] left it in
    /// (Markov phase, trace position), so the next segment starts a fresh
    /// realization.
    fn restart(&mut self) {
        match self {
            Process::Markov { in_up, .. } => *in_up = true,
            Process::Trace { idx, .. } => *idx = 0,
            Process::Constant(_) | Process::Renewal { .. } => {}
        }
    }

    /// Produces the next segment.
    fn next_segment<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> (f64, f64) {
        match self {
            Process::Constant(a) => (*a, f64::INFINITY),
            Process::Renewal { sampler, dwell } => {
                let a = sampler.sample(rng);
                (a, dwell.sample(rng).max(MIN_MEAN_DURATION))
            }
            Process::Markov {
                up,
                down,
                mean_up,
                mean_down,
                in_up,
            } => {
                let (a, mean) = if *in_up {
                    (*up, *mean_up)
                } else {
                    (*down, *mean_down)
                };
                *in_up = !*in_up;
                (a, sample_exp(mean, rng))
            }
            Process::Trace { segments, idx } => {
                let seg = segments[*idx % segments.len()];
                *idx += 1;
                seg
            }
        }
    }
}

/// Exponential variate with the given mean (inverse-CDF).
fn sample_exp<R: RngCore + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean
}

/// Entries of the prefix table, from a chunk's start segment on, that
/// `finish_time` searches alone before it searches the whole table: an
/// executor's chunk rarely spans more segments.
const FINISH_WINDOW: usize = 8;

/// A lazily-materialized realization of an availability process with
/// work-integration queries.
///
/// Segment `k` covers `[starts[k], starts[k] + durations[k])` at level
/// `levels[k]`; segments are generated on demand and cached so repeated
/// queries see a *consistent* realization (crucial: two chunks executing
/// back-to-back on the same processor must observe the same availability
/// history).
pub struct Timeline {
    process: Process,
    /// Segment start times; `starts[0] == 0`.
    starts: Vec<f64>,
    levels: Vec<f64>,
    /// Cumulative dedicated-work capacity delivered before each segment:
    /// `cum_work[k] = ∫_0^{starts[k]} A(s) ds`.
    cum_work: Vec<f64>,
}

impl Timeline {
    /// Builds a timeline over a fresh realization of `spec`.
    pub fn new(spec: &AvailabilitySpec) -> Result<Self> {
        let mut timeline = Self {
            process: Process::Constant(1.0),
            starts: vec![0.0],
            levels: Vec::new(),
            cum_work: vec![0.0],
        };
        timeline.reset(spec)?;
        Ok(timeline)
    }

    /// Rebinds the timeline to a fresh realization of `spec`: validates
    /// it, rebuilds the process in place and
    /// [`restart`](Timeline::restart)s. A reset timeline is
    /// indistinguishable from `Timeline::new(spec)`; on error it is left
    /// as it was.
    pub fn reset(&mut self, spec: &AvailabilitySpec) -> Result<()> {
        spec.validate()?;
        self.process.rebuild(spec);
        self.restart();
        Ok(())
    }

    /// Starts a fresh realization of the spec the process was built from,
    /// without building it again: the process returns to its initial
    /// state and the segment tables are cleared, keeping their capacity.
    /// Building draws no randomness, so a restarted timeline is
    /// indistinguishable from `Timeline::new` on that spec.
    pub fn restart(&mut self) {
        self.process.restart();
        self.starts.clear();
        self.starts.push(0.0);
        self.levels.clear();
        self.cum_work.clear();
        self.cum_work.push(0.0);
    }

    /// Number of materialized segments.
    pub fn segment_count(&self) -> usize {
        self.levels.len()
    }

    /// Read-only view of the materialized realization as
    /// `(starts, levels, cum_work)`: segment `k` covers
    /// `[starts[k], starts[k+1])` at level `levels[k]`, and
    /// `cum_work[k] = ∫_0^{starts[k]} A(s) ds`. Used by diagnostics and the
    /// benchmark harness (which replays the legacy linear-scan kernels over
    /// the same realization).
    pub fn segments(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.starts, &self.levels, &self.cum_work)
    }

    /// Ensures segments cover at least time `t` (or enough work), extending
    /// lazily from the process.
    fn extend_to_time<R: RngCore + ?Sized>(&mut self, t: f64, rng: &mut R) {
        while *self.starts.last().expect("non-empty") <= t {
            self.push_segment(rng);
        }
    }

    fn push_segment<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        let (a, d) = self.process.next_segment(rng);
        debug_assert!(a > 0.0 && a <= 1.0, "process produced availability {a}");
        debug_assert!(d > 0.0, "process produced duration {d}");
        let start = *self.starts.last().expect("non-empty");
        let end = start + d;
        let work = if d.is_infinite() {
            f64::INFINITY
        } else {
            a * d
        };
        self.levels.push(a);
        self.starts.push(end);
        let cum = *self.cum_work.last().expect("non-empty");
        self.cum_work.push(cum + work);
    }

    /// Instantaneous availability at time `t ≥ 0`.
    pub fn availability_at<R: RngCore + ?Sized>(&mut self, t: f64, rng: &mut R) -> f64 {
        self.extend_to_time(t, rng);
        self.levels[self.segment_index(t)]
    }

    /// Index of the materialized segment containing `t`. Requires the
    /// realization to cover `t` (`extend_to_time` first).
    // `#[inline]` here and on the two helpers below: the generic queries
    // calling them are instantiated in the caller's crate, which would
    // otherwise call them out of line, and random lookups measured slower
    // for it.
    #[inline]
    fn segment_index(&self, t: f64) -> usize {
        // Last start > t, so partition_point ∈ [1, len).
        self.starts.partition_point(|&s| s <= t) - 1
    }

    /// Prefix work integral `W(t) = ∫_0^t A(s) ds` for a `t` in segment
    /// `k` — the one formula all four queries share.
    #[inline]
    fn prefix_work_in(&self, k: usize, t: f64) -> f64 {
        self.cum_work[k] + (t - self.starts[k]) * self.levels[k]
    }

    /// [`Timeline::prefix_work_in`] at `t`'s segment, for a covered `t`.
    #[inline]
    fn prefix_work_at(&self, t: f64) -> f64 {
        self.prefix_work_in(self.segment_index(t), t)
    }

    /// Smallest `t'` such that `∫_start^{t'} A(s) ds = work`.
    ///
    /// `work` is expressed in dedicated-processor time units (the time the
    /// computation would take at availability 1.0). Implemented as a search
    /// of the cumulative-work prefix table: `t'` is the point where
    /// `W(t') = W(start) + work`, in the segment `m` with `cum_work[m] ≤
    /// W(t') ≤ cum_work[m+1]`, looked for forward of `start`'s segment
    /// first — O(log S) for S materialized segments either way, instead of
    /// a linear segment walk — then one interpolation inside it, clamped
    /// below at `start` so rounding in the prefix subtraction can never
    /// move a finish before its own dispatch.
    pub fn finish_time<R: RngCore + ?Sized>(&mut self, start: f64, work: f64, rng: &mut R) -> f64 {
        assert!(start >= 0.0, "start must be non-negative, got {start}");
        assert!(work >= 0.0, "work must be non-negative, got {work}");
        if work == 0.0 {
            return start;
        }
        self.extend_to_time(start, rng);
        let k = self.segment_index(start);
        let target = self.prefix_work_in(k, start) + work;
        // Materialize until the prefix table covers the target (an
        // infinite segment caps the table with +∞ and always covers).
        while *self.cum_work.last().expect("non-empty") < target {
            self.push_segment(rng);
        }
        // `m` is the last index with `cum_work[m] ≤ target`, at most the
        // last segment, and at least `k`: `W(start) ≥ cum_work[k]`. When
        // the window from `k` on ends above the target, as it does for
        // nearly every chunk, `m` is searched for inside it alone; a
        // random query misses it on a predictable branch and searches the
        // whole table.
        debug_assert!(self.cum_work[k] <= target);
        let end = (k + FINISH_WINDOW).min(self.cum_work.len());
        let m = if self.cum_work.get(end).map_or(true, |&c| target < c) {
            k + self.cum_work[k + 1..end].partition_point(|&c| c <= target)
        } else {
            self.cum_work.partition_point(|&c| c <= target) - 1
        }
        .min(self.levels.len() - 1);
        (self.starts[m] + (target - self.cum_work[m]) / self.levels[m]).max(start)
    }

    /// Dedicated-speed work delivered over `[t0, t1]`: `∫_t0^t1 A(s) ds`.
    ///
    /// The inverse query of [`Timeline::finish_time`] — used to account
    /// for partial progress when a computation is interrupted at `t1`
    /// (fault injection, reactive remapping). Returns 0 for `t1 ≤ t0`.
    /// Two prefix lookups (`W(t1) − W(t0)`), clamped at 0 against
    /// cancellation rounding.
    pub fn work_between<R: RngCore + ?Sized>(&mut self, t0: f64, t1: f64, rng: &mut R) -> f64 {
        assert!(t0 >= 0.0, "t0 must be non-negative, got {t0}");
        if !(t1 > t0) {
            return 0.0;
        }
        self.extend_to_time(t1, rng);
        (self.prefix_work_at(t1) - self.prefix_work_at(t0)).max(0.0)
    }

    /// Average availability over `[0, t]` for a materialized horizon —
    /// one prefix lookup, `W(t) / t`.
    pub fn mean_availability_until<R: RngCore + ?Sized>(&mut self, t: f64, rng: &mut R) -> f64 {
        assert!(t > 0.0);
        self.extend_to_time(t, rng);
        self.prefix_work_at(t) / t
    }
}

#[cfg(test)]
impl Timeline {
    /// `W(t)` with `t`'s segment located by walking the starts front to
    /// back.
    fn prefix_work_walked(&self, t: f64) -> f64 {
        let mut k = 0;
        while k + 1 < self.starts.len() && self.starts[k + 1] <= t {
            k += 1;
        }
        self.cum_work[k] + (t - self.starts[k]) * self.levels[k]
    }

    /// Reference linear-scan `finish_time`: identical arithmetic to the
    /// production kernel (same prefix table, same interpolation) but both
    /// the start's and the finishing segment are located by walking the
    /// tables front to back. Property tests pin the production kernel to this
    /// bit-for-bit, which isolates the lookups as the only thing that
    /// could go wrong.
    fn finish_time_linear(&mut self, start: f64, work: f64, rng: &mut dyn RngCore) -> f64 {
        assert!(start >= 0.0 && work >= 0.0);
        if work == 0.0 {
            return start;
        }
        self.extend_to_time(start, rng);
        let target = self.prefix_work_walked(start) + work;
        while *self.cum_work.last().expect("non-empty") < target {
            self.push_segment(rng);
        }
        let mut m = 0;
        while m + 1 < self.cum_work.len() && self.cum_work[m + 1] <= target {
            m += 1;
        }
        let m = m.min(self.levels.len() - 1);
        (self.starts[m] + (target - self.cum_work[m]) / self.levels[m]).max(start)
    }

    /// Reference linear-scan `work_between`: same prefix arithmetic with
    /// the covering segments located by walking instead of binary search.
    fn work_between_linear(&mut self, t0: f64, t1: f64, rng: &mut dyn RngCore) -> f64 {
        assert!(t0 >= 0.0);
        if !(t1 > t0) {
            return 0.0;
        }
        self.extend_to_time(t1, rng);
        (self.prefix_work_walked(t1) - self.prefix_work_walked(t0)).max(0.0)
    }

    /// The pre-prefix production `finish_time`: sequential capacity
    /// subtraction along the spanned segments. Kept as the semantic anchor
    /// — the prefix kernel must agree with it to within re-association
    /// rounding on every realization.
    fn finish_time_legacy(&mut self, start: f64, work: f64, rng: &mut dyn RngCore) -> f64 {
        assert!(start >= 0.0 && work >= 0.0);
        if work == 0.0 {
            return start;
        }
        self.extend_to_time(start, rng);
        let seg = self.starts.partition_point(|&s| s <= start) - 1;
        let mut remaining = work;
        let mut idx = seg;
        let mut pos = start;
        loop {
            if idx >= self.levels.len() {
                self.push_segment(rng);
            }
            let seg_end = self.starts[idx + 1];
            let level = self.levels[idx];
            let capacity = if seg_end.is_infinite() {
                f64::INFINITY
            } else {
                (seg_end - pos) * level
            };
            if capacity >= remaining {
                return pos + remaining / level;
            }
            remaining -= capacity;
            pos = seg_end;
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn constant_spec_validates() {
        assert!(AvailabilitySpec::Constant { a: 0.5 }.validate().is_ok());
        assert!(AvailabilitySpec::Constant { a: 0.0 }.validate().is_err());
        assert!(AvailabilitySpec::Constant { a: 1.5 }.validate().is_err());
    }

    #[test]
    fn renewal_spec_validates() {
        let pmf = Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap();
        assert!(AvailabilitySpec::Renewal {
            pmf: pmf.clone(),
            mean_dwell: 10.0
        }
        .validate()
        .is_ok());
        assert!(AvailabilitySpec::Renewal {
            pmf: pmf.clone(),
            mean_dwell: 0.0
        }
        .validate()
        .is_err());
        let bad = Pmf::from_pairs([(0.0, 0.5), (1.0, 0.5)]).unwrap();
        assert!(AvailabilitySpec::Renewal {
            pmf: bad,
            mean_dwell: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn trace_spec_validates() {
        assert!(AvailabilitySpec::Trace { segments: vec![] }
            .validate()
            .is_err());
        assert!(AvailabilitySpec::Trace {
            segments: vec![(0.5, -1.0)]
        }
        .validate()
        .is_err());
        assert!(AvailabilitySpec::Trace {
            segments: vec![(0.5, 3.0), (1.0, 1.0)]
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn constant_finish_time_is_work_over_a() {
        let mut tl = Timeline::new(&AvailabilitySpec::Constant { a: 0.5 }).unwrap();
        let mut r = rng();
        assert_eq!(tl.finish_time(0.0, 10.0, &mut r), 20.0);
        assert_eq!(tl.finish_time(5.0, 10.0, &mut r), 25.0);
        assert_eq!(tl.finish_time(7.0, 0.0, &mut r), 7.0);
    }

    #[test]
    fn trace_finish_time_crosses_segments() {
        // 1.0 for 10 units, then 0.25 forever (cycling keeps yielding 0.25
        // because both segments repeat: 1.0(10), 0.25(10), 1.0(10)...).
        let spec = AvailabilitySpec::Trace {
            segments: vec![(1.0, 10.0), (0.25, 10.0)],
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        // 12 units of work from t=0: 10 done by t=10, remaining 2 at 0.25
        // takes 8 → finish 18.
        assert!((tl.finish_time(0.0, 12.0, &mut r) - 18.0).abs() < 1e-12);
        // Starting inside the slow segment.
        assert!((tl.finish_time(10.0, 1.0, &mut r) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn availability_at_reads_levels() {
        let spec = AvailabilitySpec::Trace {
            segments: vec![(1.0, 10.0), (0.25, 10.0)],
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        assert_eq!(tl.availability_at(0.0, &mut r), 1.0);
        assert_eq!(tl.availability_at(9.999, &mut r), 1.0);
        assert_eq!(tl.availability_at(10.0, &mut r), 0.25);
        assert_eq!(tl.availability_at(25.0, &mut r), 1.0); // cycled
    }

    #[test]
    fn timeline_queries_are_consistent() {
        // Asking twice about the same interval must give the same answer —
        // the realization is cached.
        let pmf = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        let spec = AvailabilitySpec::Renewal {
            pmf,
            mean_dwell: 5.0,
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        let f1 = tl.finish_time(3.0, 100.0, &mut r);
        let f2 = tl.finish_time(3.0, 100.0, &mut r);
        assert_eq!(f1, f2);
    }

    #[test]
    fn renewal_long_run_mean_matches_pmf() {
        let pmf = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        let spec = AvailabilitySpec::Renewal {
            pmf: pmf.clone(),
            mean_dwell: 2.0,
        };
        assert!((spec.stationary_mean() - 0.6875).abs() < 1e-12);
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        let mean = tl.mean_availability_until(200_000.0, &mut r);
        assert!(
            (mean - 0.6875).abs() < 0.01,
            "long-run mean {mean} vs stationary 0.6875"
        );
    }

    #[test]
    fn dwell_distribution_means_and_validation() {
        assert_eq!(DwellDistribution::Exponential { mean: 5.0 }.mean(), 5.0);
        assert_eq!(DwellDistribution::Uniform { lo: 2.0, hi: 6.0 }.mean(), 4.0);
        assert_eq!(
            DwellDistribution::LogNormal {
                mean: 7.0,
                cov: 0.5
            }
            .mean(),
            7.0
        );
        assert_eq!(DwellDistribution::Deterministic { d: 3.0 }.mean(), 3.0);
        let pmf = Pmf::from_pairs([(0.5, 1.0)]).unwrap();
        for bad in [
            DwellDistribution::Exponential { mean: 0.0 },
            DwellDistribution::Uniform { lo: 0.0, hi: 1.0 },
            DwellDistribution::Uniform { lo: 5.0, hi: 1.0 },
            DwellDistribution::LogNormal {
                mean: 1.0,
                cov: 0.0,
            },
            DwellDistribution::Deterministic { d: -1.0 },
        ] {
            assert!(
                AvailabilitySpec::RenewalGeneral {
                    pmf: pmf.clone(),
                    dwell: bad.clone()
                }
                .validate()
                .is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn general_renewal_long_run_mean_is_dwell_invariant() {
        // With dwell independent of level, the time-average availability is
        // E[α] for *any* dwell distribution (no inspection-paradox bias).
        let pmf = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        for dwell in [
            DwellDistribution::Exponential { mean: 40.0 },
            DwellDistribution::Uniform { lo: 10.0, hi: 70.0 },
            DwellDistribution::LogNormal {
                mean: 40.0,
                cov: 1.5,
            },
            DwellDistribution::Deterministic { d: 40.0 },
        ] {
            let spec = AvailabilitySpec::RenewalGeneral {
                pmf: pmf.clone(),
                dwell: dwell.clone(),
            };
            assert!((spec.stationary_mean() - 0.6875).abs() < 1e-12);
            let mut tl = Timeline::new(&spec).unwrap();
            let mut r = rng();
            let mean = tl.mean_availability_until(150_000.0, &mut r);
            assert!(
                (mean - 0.6875).abs() < 0.02,
                "{dwell:?}: long-run mean {mean}"
            );
        }
    }

    #[test]
    fn deterministic_dwell_is_periodic() {
        let pmf = Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap();
        let spec = AvailabilitySpec::RenewalGeneral {
            pmf,
            dwell: DwellDistribution::Deterministic { d: 10.0 },
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        // Levels change only at multiples of 10.
        for k in 0..20 {
            let t = k as f64 * 10.0;
            let a_start = tl.availability_at(t + 0.01, &mut r);
            let a_end = tl.availability_at(t + 9.99, &mut r);
            assert_eq!(a_start, a_end, "level changed mid-segment at t={t}");
        }
    }

    #[test]
    fn markov_stationary_mean() {
        let spec = AvailabilitySpec::TwoStateMarkov {
            up: 1.0,
            down: 0.25,
            mean_up: 30.0,
            mean_down: 10.0,
        };
        let want = (1.0 * 30.0 + 0.25 * 10.0) / 40.0;
        assert!((spec.stationary_mean() - want).abs() < 1e-12);
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        let mean = tl.mean_availability_until(300_000.0, &mut r);
        assert!((mean - want).abs() < 0.01, "long-run {mean} vs {want}");
    }

    #[test]
    fn work_between_inverts_finish_time() {
        let pmf = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        let spec = AvailabilitySpec::Renewal {
            pmf,
            mean_dwell: 5.0,
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        for (start, work) in [(0.0, 17.0), (3.0, 100.0), (42.5, 1.0)] {
            let finish = tl.finish_time(start, work, &mut r);
            let got = tl.work_between(start, finish, &mut r);
            assert!(
                (got - work).abs() < 1e-9,
                "∫A over [{start}, {finish}] = {got}, expected {work}"
            );
        }
    }

    #[test]
    fn work_between_degenerate_intervals() {
        let mut tl = Timeline::new(&AvailabilitySpec::Constant { a: 0.5 }).unwrap();
        let mut r = rng();
        assert_eq!(tl.work_between(5.0, 5.0, &mut r), 0.0);
        assert_eq!(tl.work_between(9.0, 2.0, &mut r), 0.0);
        assert!((tl.work_between(2.0, 10.0, &mut r) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn work_between_is_additive() {
        let spec = AvailabilitySpec::Trace {
            segments: vec![(1.0, 10.0), (0.25, 10.0)],
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        let whole = tl.work_between(0.0, 35.0, &mut r);
        let parts = tl.work_between(0.0, 12.0, &mut r) + tl.work_between(12.0, 35.0, &mut r);
        assert!((whole - parts).abs() < 1e-12);
        // 10·1 + 10·0.25 + 10·1 + 5·0.25 = 23.75.
        assert!((whole - 23.75).abs() < 1e-12);
    }

    #[test]
    fn finish_time_monotone_in_work() {
        let pmf = Pmf::from_pairs([(0.3, 0.5), (0.9, 0.5)]).unwrap();
        let spec = AvailabilitySpec::Renewal {
            pmf,
            mean_dwell: 7.0,
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        let mut prev = 0.0;
        for w in [1.0, 5.0, 25.0, 125.0] {
            let f = tl.finish_time(0.0, w, &mut r);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn finish_time_bounded_by_extreme_availabilities() {
        // Work w at availabilities within [lo, hi] must finish within
        // [start + w/hi, start + w/lo].
        let pmf = Pmf::from_pairs([(0.2, 0.5), (0.8, 0.5)]).unwrap();
        let spec = AvailabilitySpec::Renewal {
            pmf,
            mean_dwell: 3.0,
        };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut r = rng();
        let f = tl.finish_time(10.0, 40.0, &mut r);
        assert!(f >= 10.0 + 40.0 / 0.8 - 1e-9);
        assert!(f <= 10.0 + 40.0 / 0.2 + 1e-9);
    }

    #[test]
    fn reset_timeline_is_indistinguishable_from_fresh() {
        let pmf = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        let spec = AvailabilitySpec::Renewal {
            pmf,
            mean_dwell: 3.0,
        };
        let mut fresh = Timeline::new(&spec).unwrap();
        // Warm `reused` with a different realization, then rebind it.
        let mut reused = Timeline::new(&AvailabilitySpec::Constant { a: 0.9 }).unwrap();
        let mut junk = rng();
        reused.finish_time(0.0, 50.0, &mut junk);
        reused.reset(&spec).unwrap();
        let mut ra = StdRng::seed_from_u64(7);
        let mut rb = StdRng::seed_from_u64(7);
        for (s, w) in [(0.0, 10.0), (12.0, 3.0), (40.0, 80.0)] {
            let a = fresh.finish_time(s, w, &mut ra);
            let b = reused.finish_time(s, w, &mut rb);
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at ({s}, {w})");
        }
        assert_eq!(fresh.segment_count(), reused.segment_count());
    }

    mod prefix_props {
        use super::*;
        use proptest::prelude::*;

        /// Random spec covering every process family: exponential renewal,
        /// general renewal (uniform / log-normal dwells), two-state Markov,
        /// and cycling traces.
        fn arb_spec() -> impl Strategy<Value = AvailabilitySpec> {
            let pmf = || Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
            prop_oneof![
                (0.5f64..30.0).prop_map(move |mean_dwell| AvailabilitySpec::Renewal {
                    pmf: pmf(),
                    mean_dwell,
                }),
                (1.0f64..10.0, 1.0f64..20.0).prop_map(move |(lo, span)| {
                    AvailabilitySpec::RenewalGeneral {
                        pmf: pmf(),
                        dwell: DwellDistribution::Uniform { lo, hi: lo + span },
                    }
                }),
                (1.0f64..20.0, 0.1f64..1.5).prop_map(move |(mean, cov)| {
                    AvailabilitySpec::RenewalGeneral {
                        pmf: pmf(),
                        dwell: DwellDistribution::LogNormal { mean, cov },
                    }
                }),
                (0.5f64..1.0, 0.05f64..0.5, 1.0f64..30.0, 1.0f64..30.0).prop_map(
                    |(up, down, mean_up, mean_down)| AvailabilitySpec::TwoStateMarkov {
                        up,
                        down,
                        mean_up,
                        mean_down,
                    }
                ),
                prop::collection::vec((0.05f64..=1.0, 0.5f64..15.0), 1..6)
                    .prop_map(|segments| AvailabilitySpec::Trace { segments }),
            ]
        }

        /// Answers of `tl` to a query tape, as bits: for each `(start,
        /// work)`, the finish time, the work over `[start, start + work]`
        /// and the level at `start`; then the materialized segment count.
        fn answers(tl: &mut Timeline, tape: &[(f64, f64)], seed: u64) -> Vec<u64> {
            let mut r = StdRng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(3 * tape.len() + 1);
            for &(start, work) in tape {
                out.push(tl.finish_time(start, work, &mut r).to_bits());
                out.push(tl.work_between(start, start + work, &mut r).to_bits());
                out.push(tl.availability_at(start, &mut r).to_bits());
            }
            out.push(tl.segment_count() as u64);
            out
        }

        proptest! {
            /// A timeline restarted after arbitrary queries, then reset to
            /// another spec, then reset back and restarted once more, answers
            /// every tape exactly as `Timeline::new` does — the restart must
            /// return each family's process to its initial state (Markov
            /// phase, trace position), not only clear the tables.
            #[test]
            fn restart_and_reset_are_indistinguishable_from_fresh(
                spec in arb_spec(),
                other in arb_spec(),
                seed in 0u64..1_000,
                warm in prop::collection::vec((0.0f64..200.0, 0.01f64..50.0), 1..6),
                tape in prop::collection::vec((0.0f64..200.0, 0.01f64..50.0), 1..8),
            ) {
                let fresh = |s: &AvailabilitySpec| answers(&mut Timeline::new(s).unwrap(), &tape, seed);
                let mut tl = Timeline::new(&spec).unwrap();
                let mut junk = StdRng::seed_from_u64(seed + 1);
                for &(start, work) in &warm {
                    tl.finish_time(start, work, &mut junk);
                }
                tl.restart();
                prop_assert_eq!(answers(&mut tl, &tape, seed), fresh(&spec), "restart");
                tl.reset(&other).unwrap();
                prop_assert_eq!(answers(&mut tl, &tape, seed), fresh(&other), "reset to other");
                tl.reset(&spec).unwrap();
                prop_assert_eq!(answers(&mut tl, &tape, seed), fresh(&spec), "reset back");
                tl.restart();
                prop_assert_eq!(answers(&mut tl, &tape, seed), fresh(&spec), "restart again");
            }

            /// The binary-search kernel must agree with the linear-scan
            /// reference bit-for-bit: same prefix table, same interpolation,
            /// only the segment lookup differs.
            #[test]
            fn finish_time_matches_linear_scan_bitwise(
                spec in arb_spec(),
                seed in 0u64..1_000,
                queries in prop::collection::vec((0.0f64..200.0, 0.01f64..50.0), 1..8),
            ) {
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                for &(start, work) in &queries {
                    let fast = tl.finish_time(start, work, &mut r);
                    let linear = tl.finish_time_linear(start, work, &mut r);
                    prop_assert_eq!(
                        fast.to_bits(),
                        linear.to_bits(),
                        "finish_time({}, {}) = {} vs linear {}",
                        start, work, fast, linear
                    );
                }
            }

            /// Prefix-difference `work_between` vs walking the segments.
            #[test]
            fn work_between_matches_linear_scan_bitwise(
                spec in arb_spec(),
                seed in 0u64..1_000,
                queries in prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), 1..8),
            ) {
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                for &(a, b) in &queries {
                    let (t0, t1) = if a <= b { (a, b) } else { (b, a) };
                    let fast = tl.work_between(t0, t1, &mut r);
                    let linear = tl.work_between_linear(t0, t1, &mut r);
                    prop_assert_eq!(
                        fast.to_bits(),
                        linear.to_bits(),
                        "work_between({}, {}) = {} vs linear {}",
                        t0, t1, fast, linear
                    );
                }
            }

            /// Semantic anchor: the prefix formulation may re-associate
            /// floating-point sums relative to the old sequential capacity
            /// subtraction, but only at rounding level.
            #[test]
            fn finish_time_agrees_with_legacy_subtraction(
                spec in arb_spec(),
                seed in 0u64..1_000,
                queries in prop::collection::vec((0.0f64..200.0, 0.01f64..50.0), 1..8),
            ) {
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                for &(start, work) in &queries {
                    let fast = tl.finish_time(start, work, &mut r);
                    let legacy = tl.finish_time_legacy(start, work, &mut r);
                    let tol = 1e-7 * legacy.abs().max(1.0);
                    prop_assert!(
                        (fast - legacy).abs() <= tol,
                        "finish_time({}, {}) = {} vs legacy {}",
                        start, work, fast, legacy
                    );
                }
            }

            /// `mean_availability_until` is the same prefix integral scaled
            /// by `1/t`, so it must match `work_between(0, t) / t`.
            #[test]
            fn mean_availability_is_scaled_prefix_work(
                spec in arb_spec(),
                seed in 0u64..1_000,
                t in 0.1f64..500.0,
            ) {
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                let mean = tl.mean_availability_until(t, &mut r);
                let work = tl.work_between(0.0, t, &mut r);
                prop_assert_eq!((work / t).to_bits(), mean.to_bits());
            }
        }

        /// `finish_time(start, work)` against the walking oracle, bit for
        /// bit; the oracle extends nothing the kernel did not.
        fn check_finish(
            tl: &mut Timeline,
            r: &mut StdRng,
            start: f64,
            work: f64,
        ) -> std::result::Result<f64, TestCaseError> {
            let fast = tl.finish_time(start, work, r);
            let linear = tl.finish_time_linear(start, work, r);
            prop_assert_eq!(
                fast.to_bits(),
                linear.to_bits(),
                "finish_time({}, {})",
                start,
                work
            );
            Ok(fast)
        }

        /// `work_between(t0, t1)` against the walking oracle, bit for bit.
        fn check_between(
            tl: &mut Timeline,
            r: &mut StdRng,
            t0: f64,
            t1: f64,
        ) -> std::result::Result<(), TestCaseError> {
            let fast = tl.work_between(t0, t1, r);
            let linear = tl.work_between_linear(t0, t1, r);
            prop_assert_eq!(
                fast.to_bits(),
                linear.to_bits(),
                "work_between({}, {})",
                t0,
                t1
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The executor's pattern: each worker's next chunk starts at or
            /// after its previous one finished (after a dispatch overhead
            /// that may be zero), and chunks span anything from part of a
            /// segment to hundreds, inside the finish window and past it.
            #[test]
            fn monotone_tapes_match_the_oracles(
                spec in arb_spec(),
                seed in 0u64..1_000,
                tape in prop::collection::vec((prop_oneof![Just(0.0), 0.0f64..5.0], 0.01f64..400.0), 1..40),
            ) {
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                let mut now = 0.0;
                for &(overhead, work) in &tape {
                    let start = now + overhead;
                    now = check_finish(&mut tl, &mut r, start, work)?;
                    check_between(&mut tl, &mut r, start, now)?;
                }
            }

            /// Chunks that finish exactly on a segment boundary (a target
            /// equal to a prefix-table entry), from one segment to well past
            /// the finish window: the lookup must pick the same side of the
            /// boundary as the oracle.
            #[test]
            fn boundary_finishes_match_the_oracle(
                spec in arb_spec(),
                seed in 0u64..1_000,
                picks in prop::collection::vec((0.0f64..1.0, 1usize..24), 1..24),
            ) {
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                tl.work_between(0.0, 3_000.0, &mut r);
                let segments = tl.segment_count();
                for &(at, span) in &picks {
                    let j = ((at * segments as f64) as usize).min(segments - 1);
                    let end = (j + span).min(segments);
                    let (start, work) = (tl.starts[j], tl.cum_work[end] - tl.cum_work[j]);
                    if work > 0.0 && work.is_finite() {
                        check_finish(&mut tl, &mut r, start, work)?;
                    }
                }
            }

            /// Interrupts: a chunk is dispatched, then the session is torn
            /// down at a time before it finishes, and the work done since
            /// its dispatch is read behind the finish; the next chunk may
            /// start anywhere before the previous one's start.
            #[test]
            fn backward_tapes_match_the_oracles(
                spec in arb_spec(),
                seed in 0u64..1_000,
                tape in prop::collection::vec((0.0f64..1.0, 0.01f64..300.0, 0.0f64..1.0), 1..30),
            ) {
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                let mut start: f64 = 2_000.0;
                for &(back, work, cut) in &tape {
                    let finish = check_finish(&mut tl, &mut r, start, work)?;
                    check_between(&mut tl, &mut r, start, start + cut * (finish - start))?;
                    start *= back;
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random access over thousands of segments, as the bench's
            /// random queries make: starts and intervals anywhere in a long
            /// realization, finishes far past the finish window.
            #[test]
            fn far_jump_tapes_match_the_oracles(
                spec in arb_spec(),
                seed in 0u64..1_000,
                tape in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.01f64..2_000.0), 1..16),
            ) {
                const HORIZON: f64 = 40_000.0;
                let mut tl = Timeline::new(&spec).unwrap();
                let mut r = StdRng::seed_from_u64(seed);
                tl.work_between(0.0, HORIZON, &mut r);
                prop_assert!(tl.segment_count() >= 1_000 || matches!(spec, AvailabilitySpec::Trace { .. }));
                for &(a, b, work) in &tape {
                    check_finish(&mut tl, &mut r, a * HORIZON, work)?;
                    let (t0, t1) = if a <= b { (a, b) } else { (b, a) };
                    check_between(&mut tl, &mut r, t0 * HORIZON, t1 * HORIZON)?;
                    let t = b * HORIZON;
                    let level = tl.availability_at(t, &mut r);
                    prop_assert_eq!(level.to_bits(), tl.levels[(0..tl.levels.len()).rev().find(|&k| tl.starts[k] <= t).unwrap()].to_bits());
                }
            }
        }
    }
}
