//! Percentiles, digests, counter lookup and memory readings shared by the
//! workloads.

use serde_json::Value;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a tail.
const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `pct` among `n` samples, in
/// integer per-mille arithmetic so that p99.9 of 10 000 is rank 9 990.
fn rank(n: usize, pct: f64) -> usize {
    let permille = (pct * 10.0).round() as usize;
    (permille * n).div_ceil(1_000).clamp(1, n.max(1))
}

/// Whether `n` samples support percentile `pct`.
pub fn supports(n: usize, pct: f64) -> bool {
    n >= rank(n, pct) + MIN_BEYOND
}

/// The highest of the reportable percentiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Values counted in buckets 1 % wide, so that any number of samples takes
/// the same memory. A percentile reads the upper edge of the bucket its
/// nearest-rank sample fell in, at most 1 % above that sample. Values up to
/// [`Histogram::LOWEST`] share the first bucket; values beyond the last
/// bucket, infinity included, read as infinity.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    len: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; Self::BUCKETS + 1],
            len: 0,
        }
    }
}

impl Histogram {
    const LOWEST: f64 = 1e-3;
    const GROWTH: f64 = 1.01;
    /// Finite buckets: their upper edges run from 1e-3 to about 2e7.
    const BUCKETS: usize = 2_400;

    pub fn add(&mut self, value: f64) {
        let bucket = if value <= Self::LOWEST {
            0
        } else {
            ((value / Self::LOWEST).ln() / Self::GROWTH.ln()).ceil() as usize
        };
        self.counts[bucket.min(Self::BUCKETS)] += 1;
        self.len += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.len += other.len;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Nearest-rank percentile (`NaN` when empty).
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.len == 0 {
            return f64::NAN;
        }
        let rank = rank(self.len, pct) as u64;
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if bucket == Self::BUCKETS {
                    f64::INFINITY
                } else {
                    Self::LOWEST * Self::GROWTH.powi(bucket as i32)
                };
            }
        }
        unreachable!("the ranks stop at the sample count")
    }
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a byte stream: stable across runs, platforms and builds.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// How far above 1 a joint φ₁ may read. The program multiplies per-app
/// probabilities that summation rounding can leave a few ulps above 1, so
/// replies carry values such as 1.0000000000000007.
const PROBABILITY_ROUNDING: f64 = 1e-12;

/// Whether `p` is a probability, up to [`PROBABILITY_ROUNDING`].
pub fn is_probability(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0 + PROBABILITY_ROUNDING).contains(&p)
}

/// SplitMix64: derives independent seeds from the run seed.
pub fn mix(seed: u64, a: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A program counter read by name from serialized stats. Names may be
/// dotted (`codec.flushes`). `None` when the program no longer reports
/// it: the metrics built on it are dropped, never the build.
pub fn counter(stats: &Value, name: &str) -> Option<f64> {
    let mut v = stats;
    for part in name.split('.') {
        v = v.get(part)?;
    }
    v.as_f64()
}

/// CPU time the calling thread has used, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of the process has used, exited ones included, in
/// seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock. These clocks count the time a thread ran on a
/// CPU. A guest kernel with steal-time accounting leaves out the time the
/// host gave its vCPU to another guest, so the clocks do not move with the
/// host's load the way wall time does. `NaN` (which fails the run) when the
/// clock cannot be read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) for the duration of the call.
    if unsafe { clock_gettime(clock, &mut ts) } == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_s(_: i32) -> f64 {
    f64::NAN
}

/// [`reference_ms`] on the host the bounds were set on, in a quiet
/// stretch.
pub const REFERENCE_MS: f64 = 300.0;

/// Steps of the reference loop each thread runs.
const REFERENCE_STEPS: u64 = 180_000_000;

/// The factor that scales CPU times measured while [`reference_ms`] read
/// `reference_ms` to what they would read on the host the bounds were set
/// on, at the speed it had when the loop took [`REFERENCE_MS`].
///
/// The workloads slow down more than the loop when the host gets busier:
/// the slope of a workload's log CPU time per operation on the loop's log
/// time was 1.0 to 2.1, 1.5 in the middle, over four recordings of 20 to
/// 46 runs per workload. The ratio is therefore raised to the power 1.5.
pub fn host_scale(reference_ms: f64) -> f64 {
    (REFERENCE_MS / reference_ms).powf(1.5)
}

/// Runs a fixed integer loop on two threads at once, one per vCPU of the
/// host the bounds were set on, and returns their mean CPU time in ms.
///
/// A guest's CPU time per unit of work drifts with what other guests do on
/// the shared machine (the cores' clock and their other hyperthreads),
/// by up to half over minutes. This loop's CPU time drifts with it, so
/// scaling a workload's CPU time by it ([`host_scale`]) removes most of
/// that drift. The loop is the benchmark's own code, so no change to the
/// program moves it.
pub fn reference_ms() -> f64 {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..2u64)
            .map(|k| {
                s.spawn(move || {
                    let cpu = thread_cpu_s();
                    let mut x = std::hint::black_box(k + 1);
                    for i in 0..REFERENCE_STEPS {
                        x = x
                            .wrapping_mul(0x5851_f42d_4c95_7f2d)
                            .wrapping_add(i ^ (x >> 17));
                    }
                    std::hint::black_box(x);
                    (thread_cpu_s() - cpu) * 1e3
                })
            })
            .collect();
        let ms: Vec<f64> = threads
            .into_iter()
            .map(|t| t.join().expect("the reference loop does not panic"))
            .collect();
        mean(&ms)
    })
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(10_000, 99.9));
        assert_eq!(highest_supported(20_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn nearest_rank_percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert!(is_probability(0.0) && is_probability(1.0000000000000007));
        assert!(!is_probability(1.001) && !is_probability(-1e-9) && !is_probability(f64::NAN));
    }

    #[test]
    fn histogram_percentiles_are_within_one_percent() {
        let mut h = Histogram::default();
        assert!(h.percentile(50.0).is_nan());
        let v: Vec<f64> = (1..=1_000).map(|x| f64::from(x) * 0.01).collect();
        let mut halves = (Histogram::default(), Histogram::default());
        for (k, &x) in v.iter().enumerate() {
            h.add(x);
            if k % 2 == 0 {
                &mut halves.0
            } else {
                &mut halves.1
            }
            .add(x);
        }
        halves.0.merge(&halves.1);
        for pct in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = percentile(&v, pct);
            let got = h.percentile(pct);
            assert!(
                got >= exact && got <= exact * 1.01 + 1e-12,
                "p{pct}: {got} vs {exact}"
            );
            assert_eq!(halves.0.percentile(pct), got);
        }
        assert_eq!(h.len(), 1_000);
        h.add(f64::INFINITY);
        h.add(0.0);
        assert_eq!(h.percentile(100.0), f64::INFINITY);
        assert_eq!(h.percentile(0.0), Histogram::LOWEST);
    }

    #[test]
    fn counters_are_read_by_name_and_may_be_missing() {
        let stats: Value =
            serde_json::from_str(r#"{"cache_hits":3,"codec":{"flushes":7}}"#).unwrap();
        assert_eq!(counter(&stats, "cache_hits"), Some(3.0));
        assert_eq!(counter(&stats, "codec.flushes"), Some(7.0));
        assert_eq!(counter(&stats, "cache_rebuilds"), None);
        assert_eq!(counter(&stats, "codec.reply_bytes"), None);
    }

    #[test]
    fn digest_is_fnv1a() {
        // The FNV-1a 64 reference value for "a".
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_ne!(
            Digest::default().str("ab").str("c").finish(),
            Digest::default().str("a").str("bc").finish()
        );
    }
}
