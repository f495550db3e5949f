//! The heterogeneous platform: processor types with counts and availability.

use crate::{Result, SystemError};
use cdsf_pmf::Pmf;
use serde::{Deserialize, Serialize};

/// Index of a processor type within a [`Platform`] (the paper's `j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcTypeId(pub usize);

impl std::fmt::Display for ProcTypeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type {}", self.0 + 1) // paper numbers types from 1
    }
}

/// One processor type: `p_j` identical processors sharing an availability
/// distribution `α_j`.
///
/// Availability is the *fraction of the machine's computational resource*
/// usable by the scheduled application; support must lie in `(0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorType {
    name: String,
    count: u32,
    availability: Pmf,
}

impl ProcessorType {
    /// Creates a processor type. `count ≥ 1`; availability support in `(0, 1]`.
    pub fn new(name: impl Into<String>, count: u32, availability: Pmf) -> Result<Self> {
        let name = name.into();
        if count == 0 {
            return Err(SystemError::EmptyProcessorType { name });
        }
        for p in availability.pulses() {
            if p.value <= 0.0 || p.value > 1.0 {
                return Err(SystemError::AvailabilityOutOfRange {
                    name,
                    value: p.value,
                });
            }
        }
        Ok(Self {
            name,
            count,
            availability,
        })
    }

    /// Human-readable name (e.g. `"Type 1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors of this type (`p_j`).
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Availability PMF `α_j`.
    pub fn availability(&self) -> &Pmf {
        &self.availability
    }

    /// Expected availability `e_j = E[α_j]`.
    pub fn expected_availability(&self) -> f64 {
        self.availability.expectation()
    }
}

/// A heterogeneous computing system: a fixed set of processor types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    types: Vec<ProcessorType>,
}

impl Platform {
    /// Builds a platform from its processor types (at least one).
    pub fn new(types: Vec<ProcessorType>) -> Result<Self> {
        if types.is_empty() {
            return Err(SystemError::NoProcessorTypes);
        }
        Ok(Self { types })
    }

    /// The processor types.
    pub fn types(&self) -> &[ProcessorType] {
        &self.types
    }

    /// Number of processor types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Looks up a type by index.
    pub fn proc_type(&self, id: ProcTypeId) -> Result<&ProcessorType> {
        self.types
            .get(id.0)
            .ok_or(SystemError::UnknownProcType(id.0))
    }

    /// Total processor count `Σ p_j`.
    pub fn total_processors(&self) -> u32 {
        self.types.iter().map(|t| t.count).sum()
    }

    /// Paper Eq. (1): weighted system availability
    /// `Σ_j p_j·e_j / Σ_j p_j` — the count-weighted mean of per-type
    /// expected availabilities.
    pub fn weighted_availability(&self) -> f64 {
        let num: f64 = self
            .types
            .iter()
            .map(|t| t.count as f64 * t.expected_availability())
            .sum();
        num / self.total_processors() as f64
    }

    /// The paper's Stage-II robustness ingredient: the relative decrease in
    /// weighted availability of `self` (a runtime case `A_i`) versus the
    /// `reference` historical platform (`Â`):
    /// `1 − E[A_i]/E[Â]` over weighted availabilities.
    ///
    /// Positive values mean the runtime system is *more loaded* than assumed
    /// at mapping time. Shown in square brackets in the paper's Table I.
    pub fn availability_decrease_vs(&self, reference: &Platform) -> f64 {
        1.0 - self.weighted_availability() / reference.weighted_availability()
    }

    /// Replaces every type's availability PMF, keeping names and counts —
    /// used to evaluate the same platform under a different availability
    /// case. `availabilities` must have one PMF per type.
    pub fn with_availabilities(&self, availabilities: &[Pmf]) -> Result<Self> {
        if availabilities.len() != self.types.len() {
            return Err(SystemError::BadParameter {
                name: "availabilities.len",
                value: availabilities.len() as f64,
            });
        }
        let types = self
            .types
            .iter()
            .zip(availabilities)
            .map(|(t, a)| ProcessorType::new(t.name.clone(), t.count, a.clone()))
            .collect::<Result<Vec<_>>>()?;
        Platform::new(types)
    }

    /// The largest power of two not exceeding the type's processor count —
    /// the paper restricts allocations to power-of-2 processor counts of a
    /// single type.
    pub fn max_pow2_procs(&self, id: ProcTypeId) -> Result<u32> {
        let t = self.proc_type(id)?;
        Ok(prev_power_of_two(t.count))
    }

    /// All feasible power-of-two processor counts for a type: `1, 2, 4, …`
    /// up to the type's count.
    pub fn pow2_options(&self, id: ProcTypeId) -> Result<Vec<u32>> {
        let t = self.proc_type(id)?;
        let mut out = Vec::new();
        let mut n = 1u32;
        while n <= t.count {
            out.push(n);
            n = n.saturating_mul(2);
        }
        Ok(out)
    }
}

/// Largest power of two `≤ n`; 0 for `n = 0`.
pub fn prev_power_of_two(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        1 << (31 - n.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_pmf::Pmf;

    fn type1_avail() -> Pmf {
        // Paper Table I, Case 1, Type 1: 75% w.p. 0.5, 100% w.p. 0.5.
        Pmf::from_pairs([(0.75, 0.5), (1.0, 0.5)]).unwrap()
    }

    fn type2_avail() -> Pmf {
        // Paper Table I, Case 1, Type 2: 25/50/100 w.p. 25/25/50.
        Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap()
    }

    fn paper_platform() -> Platform {
        Platform::new(vec![
            ProcessorType::new("Type 1", 4, type1_avail()).unwrap(),
            ProcessorType::new("Type 2", 8, type2_avail()).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_platform() {
        assert_eq!(Platform::new(vec![]), Err(SystemError::NoProcessorTypes));
    }

    #[test]
    fn rejects_zero_count_type() {
        let err = ProcessorType::new("t", 0, type1_avail()).unwrap_err();
        assert!(matches!(err, SystemError::EmptyProcessorType { .. }));
    }

    #[test]
    fn rejects_out_of_range_availability() {
        let bad = Pmf::from_pairs([(1.5, 1.0)]).unwrap();
        let err = ProcessorType::new("t", 1, bad).unwrap_err();
        assert!(matches!(err, SystemError::AvailabilityOutOfRange { .. }));
        let zero = Pmf::from_pairs([(0.0, 0.5), (1.0, 0.5)]).unwrap();
        assert!(ProcessorType::new("t", 1, zero).is_err());
    }

    #[test]
    fn expected_availabilities_match_paper_case1() {
        let p = paper_platform();
        // Paper Table I: 87.50% and 68.75%.
        assert!((p.types()[0].expected_availability() - 0.875).abs() < 1e-12);
        assert!((p.types()[1].expected_availability() - 0.6875).abs() < 1e-12);
    }

    #[test]
    fn weighted_availability_matches_paper_case1() {
        // Paper Table I: weighted system availability 75.00%.
        let p = paper_platform();
        assert!((p.weighted_availability() - 0.75).abs() < 1e-12);
        assert_eq!(p.total_processors(), 12);
    }

    #[test]
    fn availability_decrease_against_reference() {
        let reference = paper_platform();
        // Case 2: type 1 {50%:0.9, 75%:0.1} → 52.5%; type 2
        // {33:0.45, 66:0.45, 100:0.10} → 54.55%.
        let case2 = reference
            .with_availabilities(&[
                Pmf::from_pairs([(0.50, 0.9), (0.75, 0.1)]).unwrap(),
                Pmf::from_pairs([(0.33, 0.45), (0.66, 0.45), (1.0, 0.10)]).unwrap(),
            ])
            .unwrap();
        // Paper: weighted availability 53.87%, decrease 28.17%.
        assert!((case2.weighted_availability() - 0.5387).abs() < 1e-3);
        assert!((case2.availability_decrease_vs(&reference) - 0.2817).abs() < 1e-3);
    }

    #[test]
    fn with_availabilities_checks_arity() {
        let p = paper_platform();
        assert!(p.with_availabilities(&[type1_avail()]).is_err());
    }

    #[test]
    fn pow2_options_enumerate() {
        let p = paper_platform();
        assert_eq!(p.pow2_options(ProcTypeId(0)).unwrap(), vec![1, 2, 4]);
        assert_eq!(p.pow2_options(ProcTypeId(1)).unwrap(), vec![1, 2, 4, 8]);
        assert!(p.pow2_options(ProcTypeId(2)).is_err());
    }

    #[test]
    fn prev_power_of_two_values() {
        assert_eq!(prev_power_of_two(0), 0);
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(5), 4);
        assert_eq!(prev_power_of_two(8), 8);
        assert_eq!(prev_power_of_two(1023), 512);
    }

    #[test]
    fn max_pow2_procs() {
        let p = Platform::new(vec![ProcessorType::new("t", 6, type1_avail()).unwrap()]).unwrap();
        assert_eq!(p.max_pow2_procs(ProcTypeId(0)).unwrap(), 4);
    }

    #[test]
    fn lookups_past_the_last_type_are_errors() {
        let p = paper_platform();
        assert_eq!(p.proc_type(ProcTypeId(1)).unwrap().name(), "Type 2");
        assert_eq!(
            p.proc_type(ProcTypeId(2)).unwrap_err(),
            SystemError::UnknownProcType(2)
        );
        assert!(p.max_pow2_procs(ProcTypeId(5)).is_err());
        assert!(p.pow2_options(ProcTypeId(5)).is_err());
    }
}
