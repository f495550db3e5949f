//! The structured, replayable event log.
//!
//! Every state change of an online run is appended as a time-stamped
//! [`EventRecord`]; serializing the log with [`EventLog::to_json`] yields a
//! byte-identical string for identical `(inputs, seed)` — the crate's
//! replay/determinism contract, pinned by tests and a golden file.

use serde::{Deserialize, Serialize};

/// Why a reactive remap fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RemapReason {
    /// A processor-group crash removed capacity.
    Fault,
    /// Live φ₁ of the remnant batch fell below the configured threshold.
    Phi1Degradation,
    /// A watchdog checkpoint projected at least one deadline miss.
    Watchdog,
}

/// One application's assignment as recorded in a mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemapAssignment {
    /// Application index.
    pub app: usize,
    /// Assigned processor type (reference-platform index).
    pub proc_type: usize,
    /// Assigned group size (power of two).
    pub procs: u32,
}

/// What happened at one point of an online run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogEntry {
    /// The Stage-I mapping computed at `t = 0` before any event fires.
    InitialMap {
        /// Joint φ₁ of the mapping at the full deadline.
        phi1: f64,
        /// Per-application assignments.
        assignments: Vec<RemapAssignment>,
    },
    /// An application arrived and its Stage-II session started.
    Arrival {
        /// Application index.
        app: usize,
        /// Processor type it starts on.
        proc_type: usize,
        /// Group size it starts with.
        procs: u32,
    },
    /// An application's loop completed (`missed` when past the deadline).
    Completion {
        /// Application index.
        app: usize,
        /// Whether the completion time exceeded the deadline.
        missed: bool,
    },
    /// Processors of a type crashed permanently.
    Crash {
        /// Processor type hit.
        proc_type: usize,
        /// Processors lost.
        lost: u32,
        /// Processors of the type still alive.
        surviving: u32,
    },
    /// A type's availability distribution collapsed by `scale`.
    Collapse {
        /// Processor type hit.
        proc_type: usize,
        /// Multiplicative availability scale applied.
        scale: f64,
    },
    /// A transient stall began (availability pinned near zero).
    StallStart {
        /// Processor type hit.
        proc_type: usize,
        /// Stall duration.
        duration: f64,
    },
    /// A transient stall ended; the type recovered its distribution.
    StallEnd {
        /// Processor type recovered.
        proc_type: usize,
    },
    /// A drift round redrew a type's availability around the reference.
    Drift {
        /// Processor type redrawn.
        proc_type: usize,
        /// Scale applied to the historical distribution.
        scale: f64,
    },
    /// A watchdog checkpoint ran; `late` lists applications whose
    /// projected completion exceeds the deadline.
    Watchdog {
        /// Applications projected to miss (may be empty).
        late: Vec<usize>,
    },
    /// A reactive Stage-I remap was applied.
    Remap {
        /// What triggered it.
        reason: RemapReason,
        /// Joint φ₁ of the new mapping over the remaining time window.
        phi1: f64,
        /// The new assignments (reference-platform type indices).
        assignments: Vec<RemapAssignment>,
    },
    /// With remapping unavailable, an application's group was clamped to
    /// the surviving capacity of its type.
    Clamp {
        /// Application index.
        app: usize,
        /// The clamped (still power-of-two) group size.
        procs: u32,
    },
    /// An application was abandoned.
    Dropped {
        /// Application index.
        app: usize,
        /// Why it could not continue.
        cause: String,
    },
    /// The run horizon was reached with applications still unfinished.
    Horizon {
        /// Applications terminated as missed at the horizon.
        unfinished: Vec<usize>,
    },
}

/// A time-stamped [`LogEntry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Absolute simulation time of the entry (non-decreasing in the log).
    pub time: f64,
    /// The entry itself.
    pub entry: LogEntry,
}

/// The full, replayable log of one online run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EventLog {
    /// All records in time order.
    pub records: Vec<EventRecord>,
}

impl EventLog {
    /// Appends a record.
    pub(crate) fn push(&mut self, time: f64, entry: LogEntry) {
        self.records.push(EventRecord { time, entry });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the log to pretty JSON. Identical runs produce
    /// byte-identical strings (the determinism contract).
    pub fn to_json(&self) -> crate::Result<String> {
        let mut s =
            serde_json::to_string_pretty(self).map_err(|_| crate::EventsError::BadConfig {
                what: "event log serialization failed",
            })?;
        s.push('\n');
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_round_trips_through_json() {
        let mut log = EventLog::default();
        log.push(
            0.0,
            LogEntry::InitialMap {
                phi1: 0.75,
                assignments: vec![RemapAssignment {
                    app: 0,
                    proc_type: 1,
                    procs: 8,
                }],
            },
        );
        log.push(
            600.0,
            LogEntry::Crash {
                proc_type: 0,
                lost: 3,
                surviving: 1,
            },
        );
        log.push(
            600.0,
            LogEntry::Remap {
                reason: RemapReason::Fault,
                phi1: 0.5,
                assignments: vec![],
            },
        );
        log.push(
            700.0,
            LogEntry::Dropped {
                app: 2,
                cause: "no capacity".into(),
            },
        );
        log.push(900.0, LogEntry::Watchdog { late: vec![1, 2] });
        let json = log.to_json().unwrap();
        assert!(json.ends_with('\n'));
        let back: EventLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
        assert_eq!(back.len(), 5);
        assert!(!back.is_empty());
    }

    #[test]
    fn every_other_entry_kind_round_trips_through_json() {
        let mut log = EventLog::default();
        log.push(
            0.0,
            LogEntry::Arrival {
                app: 0,
                proc_type: 1,
                procs: 4,
            },
        );
        log.push(
            10.0,
            LogEntry::Collapse {
                proc_type: 1,
                scale: 0.3,
            },
        );
        log.push(
            20.0,
            LogEntry::StallStart {
                proc_type: 0,
                duration: 45.5,
            },
        );
        log.push(65.5, LogEntry::StallEnd { proc_type: 0 });
        log.push(
            70.0,
            LogEntry::Drift {
                proc_type: 1,
                scale: 1.1,
            },
        );
        log.push(80.0, LogEntry::Clamp { app: 0, procs: 2 });
        log.push(
            90.0,
            LogEntry::Remap {
                reason: RemapReason::Phi1Degradation,
                phi1: 0.25,
                assignments: vec![],
            },
        );
        log.push(
            95.0,
            LogEntry::Remap {
                reason: RemapReason::Watchdog,
                phi1: 0.0,
                assignments: vec![],
            },
        );
        log.push(
            100.0,
            LogEntry::Completion {
                app: 0,
                missed: true,
            },
        );
        log.push(
            200.0,
            LogEntry::Horizon {
                unfinished: vec![1],
            },
        );
        let back: EventLog = serde_json::from_str(&log.to_json().unwrap()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn an_empty_log_serializes_and_reads_back_empty() {
        let log = EventLog::default();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        let back: EventLog = serde_json::from_str(&log.to_json().unwrap()).unwrap();
        assert!(back.is_empty());
    }
}
