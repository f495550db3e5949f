use std::fmt;

/// Errors produced by the online scheduling layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum EventsError {
    /// Engine configuration or fault plan inconsistent with the workload.
    BadConfig {
        /// What is wrong.
        what: &'static str,
    },
    /// A numeric parameter was out of its domain.
    BadParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Failure in the framework layer (policies, thread defaults).
    Core(cdsf_core::CoreError),
    /// Failure in Stage-I allocation or the φ₁ engine.
    Ra(cdsf_ra::RaError),
    /// Failure in a Stage-II executor session.
    Dls(cdsf_dls::DlsError),
    /// Failure in the system model (platform/application construction).
    System(cdsf_system::SystemError),
    /// Failure in PMF arithmetic (availability scaling).
    Pmf(cdsf_pmf::PmfError),
}

impl fmt::Display for EventsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventsError::BadConfig { what } => write!(f, "invalid event-engine setup: {what}"),
            EventsError::BadParameter { name, value } => {
                write!(f, "parameter `{name}` = {value} is out of domain")
            }
            EventsError::Core(e) => write!(f, "framework error: {e}"),
            EventsError::Ra(e) => write!(f, "stage I error: {e}"),
            EventsError::Dls(e) => write!(f, "stage II error: {e}"),
            EventsError::System(e) => write!(f, "system model error: {e}"),
            EventsError::Pmf(e) => write!(f, "pmf error: {e}"),
        }
    }
}

impl std::error::Error for EventsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EventsError::Core(e) => Some(e),
            EventsError::Ra(e) => Some(e),
            EventsError::Dls(e) => Some(e),
            EventsError::System(e) => Some(e),
            EventsError::Pmf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cdsf_core::CoreError> for EventsError {
    fn from(e: cdsf_core::CoreError) -> Self {
        EventsError::Core(e)
    }
}

impl From<cdsf_ra::RaError> for EventsError {
    fn from(e: cdsf_ra::RaError) -> Self {
        EventsError::Ra(e)
    }
}

impl From<cdsf_dls::DlsError> for EventsError {
    fn from(e: cdsf_dls::DlsError) -> Self {
        EventsError::Dls(e)
    }
}

impl From<cdsf_system::SystemError> for EventsError {
    fn from(e: cdsf_system::SystemError) -> Self {
        EventsError::System(e)
    }
}

impl From<cdsf_pmf::PmfError> for EventsError {
    fn from(e: cdsf_pmf::PmfError) -> Self {
        EventsError::Pmf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn every_variant_displays_its_payload() {
        let cases: Vec<(EventsError, &str)> = vec![
            (
                EventsError::BadConfig {
                    what: "fault plan names type 9",
                },
                "type 9",
            ),
            (
                EventsError::BadParameter {
                    name: "factor",
                    value: -2.0,
                },
                "factor",
            ),
            (
                EventsError::Core(cdsf_core::CoreError::BadConfig { what: "x" }),
                "framework",
            ),
            (EventsError::Ra(cdsf_ra::RaError::EmptyBatch), "stage I"),
            (EventsError::Dls(cdsf_dls::DlsError::NoWorkers), "stage II"),
            (
                EventsError::System(cdsf_system::SystemError::NoProcessorTypes),
                "system",
            ),
            (EventsError::Pmf(cdsf_pmf::PmfError::Empty), "pmf"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    #[test]
    fn sources_chain_to_inner_errors() {
        let wrapped: [EventsError; 5] = [
            cdsf_core::CoreError::BadConfig { what: "x" }.into(),
            cdsf_ra::RaError::EmptyBatch.into(),
            cdsf_dls::DlsError::NoWorkers.into(),
            cdsf_system::SystemError::NoProcessorTypes.into(),
            cdsf_pmf::PmfError::Empty.into(),
        ];
        for err in &wrapped {
            assert!(err.source().is_some(), "{err:?}");
        }
        assert!(EventsError::BadConfig { what: "x" }.source().is_none());
        assert!(EventsError::BadParameter {
            name: "x",
            value: 0.0
        }
        .source()
        .is_none());
    }
}
