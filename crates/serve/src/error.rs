//! The service's error type and the conversions that feed it.

use std::fmt;
use std::io;

/// Convenient alias used throughout the serve crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Errors produced by the scheduling service.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket or channel plumbing failed.
    Io(io::Error),
    /// A request was malformed or out of the admitted domain; the message
    /// is sent back to the client verbatim.
    Protocol(String),
    /// A framework layer rejected the work (allocation, engine build,
    /// event remap).
    Framework(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Framework(msg) => write!(f, "scheduling error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<cdsf_ra::RaError> for ServeError {
    fn from(e: cdsf_ra::RaError) -> Self {
        ServeError::Framework(e.to_string())
    }
}

impl From<cdsf_system::SystemError> for ServeError {
    fn from(e: cdsf_system::SystemError) -> Self {
        ServeError::Framework(e.to_string())
    }
}

impl From<cdsf_events::EventsError> for ServeError {
    fn from(e: cdsf_events::EventsError) -> Self {
        ServeError::Framework(e.to_string())
    }
}

impl From<cdsf_core::CoreError> for ServeError {
    fn from(e: cdsf_core::CoreError) -> Self {
        ServeError::Framework(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn every_variant_displays_its_payload() {
        let cases: Vec<(ServeError, &str)> = vec![
            (
                ServeError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "pipe gone")),
                "pipe gone",
            ),
            (ServeError::Protocol("spec.apps = 0".into()), "spec.apps"),
            (ServeError::Framework("no allocation".into()), "scheduling"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    #[test]
    fn only_io_errors_chain_to_a_source() {
        let io_err = ServeError::from(io::Error::other("x"));
        assert!(matches!(io_err, ServeError::Io(_)));
        assert!(io_err.source().is_some());
        assert!(ServeError::Protocol("x".into()).source().is_none());
        assert!(ServeError::Framework("x".into()).source().is_none());
    }

    #[test]
    fn layer_errors_become_framework_messages() {
        let ra = cdsf_ra::RaError::EmptyBatch;
        let system = cdsf_system::SystemError::NoProcessorTypes;
        let events = cdsf_events::EventsError::BadConfig { what: "no types" };
        let core = cdsf_core::CoreError::BadConfig { what: "no batch" };
        let expected = [
            ra.to_string(),
            system.to_string(),
            events.to_string(),
            core.to_string(),
        ];
        let converted = [
            ServeError::from(ra),
            ServeError::from(system),
            ServeError::from(events),
            ServeError::from(core),
        ];
        for (err, want) in converted.iter().zip(&expected) {
            match err {
                ServeError::Framework(msg) => assert_eq!(msg, want),
                other => panic!("expected a framework error, got {other:?}"),
            }
        }
    }
}
