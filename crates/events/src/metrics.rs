//! Per-run robustness metrics derived from the event log and final
//! application states.

use serde::{Deserialize, Serialize};

/// How one application's run ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// Application index.
    pub app: usize,
    /// Arrival time.
    pub arrival: f64,
    /// Terminal time: completion, drop, or horizon time.
    pub end: f64,
    /// `"finished"`, `"missed"`, or `"dropped: <cause>"`.
    pub outcome: String,
}

impl AppOutcome {
    /// Whether the application finished within the deadline.
    pub fn hit_deadline(&self) -> bool {
        self.outcome == "finished"
    }
}

/// Robustness metrics of one online run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Applications in the batch.
    pub apps: usize,
    /// Applications that completed within the deadline.
    pub finished: usize,
    /// Applications that completed late or ran past the horizon.
    pub missed: usize,
    /// Applications abandoned for lack of capacity.
    pub dropped: usize,
    /// `finished / apps` — the headline robustness number.
    pub deadline_hit_rate: f64,
    /// Reactive Stage-I remaps applied.
    pub remap_count: usize,
    /// Capacity clampings applied (static fault handling).
    pub clamp_count: usize,
    /// Dedicated-speed work sunk into aborted chunks and re-executed
    /// serial-prologue fractions — the price of reconfiguration.
    pub wasted_work: f64,
    /// Latest terminal time over all applications.
    pub makespan: f64,
    /// Per-application outcomes, in batch order.
    pub per_app: Vec<AppOutcome>,
}

impl RunMetrics {
    /// Builds the summary counters from per-application outcomes.
    pub(crate) fn from_outcomes(
        per_app: Vec<AppOutcome>,
        remap_count: usize,
        clamp_count: usize,
        wasted_work: f64,
    ) -> Self {
        let apps = per_app.len();
        let finished = per_app.iter().filter(|o| o.outcome == "finished").count();
        let missed = per_app.iter().filter(|o| o.outcome == "missed").count();
        let dropped = apps - finished - missed;
        let makespan = per_app.iter().map(|o| o.end).fold(0.0, f64::max);
        Self {
            apps,
            finished,
            missed,
            dropped,
            deadline_hit_rate: if apps == 0 {
                0.0
            } else {
                finished as f64 / apps as f64
            },
            remap_count,
            clamp_count,
            wasted_work,
            makespan,
            per_app,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_partition_the_batch() {
        let per_app = vec![
            AppOutcome {
                app: 0,
                arrival: 0.0,
                end: 2000.0,
                outcome: "finished".into(),
            },
            AppOutcome {
                app: 1,
                arrival: 40.0,
                end: 6000.0,
                outcome: "missed".into(),
            },
            AppOutcome {
                app: 2,
                arrival: 80.0,
                end: 600.0,
                outcome: "dropped: no capacity".into(),
            },
        ];
        let m = RunMetrics::from_outcomes(per_app, 1, 2, 123.0);
        assert_eq!(m.apps, 3);
        assert_eq!((m.finished, m.missed, m.dropped), (1, 1, 1));
        assert!((m.deadline_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.makespan, 6000.0);
        assert!(m.per_app[0].hit_deadline());
        assert!(!m.per_app[1].hit_deadline());
    }

    #[test]
    fn an_empty_run_reads_a_zero_hit_rate_and_makespan() {
        let m = RunMetrics::from_outcomes(Vec::new(), 0, 0, 0.0);
        assert_eq!((m.apps, m.finished, m.missed, m.dropped), (0, 0, 0, 0));
        assert_eq!(m.deadline_hit_rate, 0.0);
        assert_eq!(m.makespan, 0.0);
    }

    #[test]
    fn any_outcome_but_finished_and_missed_counts_as_dropped() {
        let per_app = ["finished", "dropped: crash", "dropped: no capacity"]
            .iter()
            .enumerate()
            .map(|(app, outcome)| AppOutcome {
                app,
                arrival: 0.0,
                end: 100.0 * (app + 1) as f64,
                outcome: outcome.to_string(),
            })
            .collect();
        let m = RunMetrics::from_outcomes(per_app, 0, 0, 0.0);
        assert_eq!((m.finished, m.missed, m.dropped), (1, 0, 2));
        assert_eq!(m.makespan, 300.0, "a drop's end time counts too");
        assert!(!m.per_app[1].hit_deadline());
    }
}
