//! The deterministic discrete-event engine.
//!
//! [`EventEngine::run`] executes one online scenario: the batch is mapped
//! at `t = 0` by the configured Stage-I policy, application sessions start
//! at their arrival times, and a fixed, seeded event schedule (faults,
//! drift rounds, watchdogs, horizon) drives the run forward. All Stage-II
//! progress between two schedule points is simulated by advancing every
//! running [`ExecutorSession`] to the next event time.
//!
//! ## Reconfiguration semantics
//!
//! A crash, a live-φ₁ degradation, or a late watchdog projection triggers a
//! *global reconfiguration barrier*: every running session is interrupted
//! (in-flight chunks abort and report wasted work), exact leftover
//! iteration counts are extracted, and then either
//!
//! * **reactive remap** (enabled): a remnant batch — each unfinished
//!   application with its leftover iterations and execution-time PMFs
//!   scaled by the remaining-work fraction — is re-allocated on the
//!   surviving platform by the configured policy over the remaining time
//!   window, or
//! * **capacity clamp** (disabled, or the remap found no feasible
//!   allocation): each application keeps its type but its group shrinks to
//!   the largest power of two that still fits the surviving capacity, in
//!   batch order; applications left with zero processors are dropped.
//!
//! Collapse, stall, and drift events change a type's availability in place
//! and rebuild only the sessions on that type (same assignment, carried
//! iteration counts). Collapse and drift then re-evaluate live φ₁; stalls
//! are transient, so they are left to the watchdog projections (which see
//! the stalled availability) rather than triggering an immediate remap.

use crate::config::EngineConfig;
use crate::event::{EventLog, LogEntry, RemapAssignment, RemapReason};
use crate::metrics::{AppOutcome, RunMetrics};
use crate::{EventsError, Result};
use cdsf_dls::executor::{ExecutorConfig, ExecutorSession, SessionStatus};
use cdsf_pmf::Pmf;
use cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY;
use cdsf_ra::{Allocation, Assignment, CellStore, EngineBuild, Phi1Engine};
use cdsf_system::availability::AvailabilitySpec;
use cdsf_system::platform::prev_power_of_two;
use cdsf_system::{Application, Batch, Platform, ProcTypeId, ProcessorType};
use cdsf_workloads::faults::{FaultKind, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Availability level of a stalled processor type (pinned near zero; an
/// exact zero would never finish any work).
const STALL_AVAILABILITY: f64 = 0.02;

/// Smallest remaining deadline window a remap optimizes over.
const MIN_WINDOW: f64 = 1.0;

/// The result of one online run: the replayable log plus the metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The structured event log (byte-identical across identical runs).
    pub log: EventLog,
    /// Per-run robustness metrics.
    pub metrics: RunMetrics,
}

/// The discrete-event engine for one `(batch, platform, plan, config)`.
pub struct EventEngine<'a> {
    batch: &'a Batch,
    reference: &'a Platform,
    plan: &'a FaultPlan,
    cfg: &'a EngineConfig,
}

/// One entry of the precomputed event schedule.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    Arrival(usize),
    Fault(usize),
    StallEnd(usize),
    Drift(u64),
    Watchdog,
    Horizon,
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    trigger: Trigger,
}

/// Live state of one processor type.
struct LiveType {
    name: String,
    count: u32,
    pmf: Pmf,
    stalled: bool,
    stall_until: f64,
}

/// Terminal/active phase of one application.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Pending,
    Running,
    Finished(f64),
    Missed(f64),
    Dropped(f64, &'static str),
}

/// Live state of one application.
struct AppLive {
    asg: Option<Assignment>,
    serial_left: u64,
    parallel_left: u64,
    generation: u64,
    phase: Phase,
    session: Option<ExecutorSession>,
    rng: StdRng,
}

/// Mutable run state threaded through the event handlers.
struct State {
    types: Vec<LiveType>,
    apps: Vec<AppLive>,
    log: EventLog,
    remap_count: usize,
    clamp_count: usize,
    wasted: f64,
    /// Private cell store behind every Stage-I engine of the run: each
    /// reactive rebuild takes the cells of unchanged `(app, type, k)`
    /// triples (pending apps, undrifted types) from it by content instead
    /// of recomputing them. Its engines are bit-identical to fresh
    /// builds, so the event log stays byte-replayable.
    store: CellStore,
}

/// SplitMix64 finalizer — the workspace's standard seed-mixing primitive.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent RNG stream per `(seed, application, session generation)` —
/// a remapped application gets a fresh stream, everything else is
/// untouched, so reconfigurations never perturb unrelated randomness.
fn session_seed(seed: u64, app: usize, generation: u64) -> u64 {
    mix(mix(mix(seed) ^ (app as u64 + 1)) ^ (generation + 1))
}

/// Hash-derived drift scale for `(seed, type, round)` in `[min, max]` —
/// no RNG stream ordering to disturb, by construction.
fn drift_scale(seed: u64, proc_type: usize, round: u64, min: f64, max: f64) -> f64 {
    let z = mix(mix(mix(seed ^ 0x00D4_1F7C_0FFE_E000) ^ (proc_type as u64 + 1)) ^ (round + 1));
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    min + (max - min) * u
}

/// Scales every availability level by `c` — the shared remap entry point,
/// re-exported here under the engine's historical private name so every
/// collapse/drift call site stays byte-identical to the pre-refactor
/// behaviour.
use crate::remap::scale_availability;

impl<'a> EventEngine<'a> {
    /// Validates the scenario against the workload and builds the engine.
    pub fn new(
        batch: &'a Batch,
        reference: &'a Platform,
        plan: &'a FaultPlan,
        cfg: &'a EngineConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        if batch.is_empty() {
            return Err(EventsError::BadConfig {
                what: "batch is empty",
            });
        }
        let horizon = cfg.horizon_factor * cfg.deadline;
        for (_, app) in batch.iter() {
            if app.parallel_iters() == 0 {
                return Err(EventsError::BadConfig {
                    what: "every application needs at least one parallel iteration",
                });
            }
            if app.num_proc_types() < reference.num_types() {
                return Err(EventsError::BadConfig {
                    what: "every application needs an execution-time PMF for every processor type",
                });
            }
        }
        if plan.arrivals.len() > batch.len() {
            return Err(EventsError::BadConfig {
                what: "more arrival times than applications",
            });
        }
        for &t in &plan.arrivals {
            if !(t >= 0.0) || !t.is_finite() || t >= horizon {
                return Err(EventsError::BadParameter {
                    name: "arrival",
                    value: t,
                });
            }
        }
        for f in &plan.faults {
            if !(f.time > 0.0) || !f.time.is_finite() || f.time >= horizon {
                return Err(EventsError::BadParameter {
                    name: "fault.time",
                    value: f.time,
                });
            }
            if f.kind.proc_type() >= reference.num_types() {
                return Err(EventsError::BadParameter {
                    name: "fault.proc_type",
                    value: f.kind.proc_type() as f64,
                });
            }
            match f.kind {
                FaultKind::Crash { procs, .. } => {
                    if procs == 0 {
                        return Err(EventsError::BadParameter {
                            name: "crash.procs",
                            value: 0.0,
                        });
                    }
                }
                FaultKind::Collapse { scale, .. } => {
                    if !(scale > 0.0 && scale < 1.0) {
                        return Err(EventsError::BadParameter {
                            name: "collapse.scale",
                            value: scale,
                        });
                    }
                }
                FaultKind::Stall { duration, .. } => {
                    if !(duration > 0.0) || !duration.is_finite() {
                        return Err(EventsError::BadParameter {
                            name: "stall.duration",
                            value: duration,
                        });
                    }
                }
            }
        }
        if let Some(d) = plan.drift {
            if !(d.period > 0.0) || !d.period.is_finite() {
                return Err(EventsError::BadParameter {
                    name: "drift.period",
                    value: d.period,
                });
            }
            if !(d.min_scale > 0.0) || !(d.max_scale >= d.min_scale) || !d.max_scale.is_finite() {
                return Err(EventsError::BadParameter {
                    name: "drift.scale",
                    value: d.min_scale.min(d.max_scale),
                });
            }
        }
        Ok(Self {
            batch,
            reference,
            plan,
            cfg,
        })
    }

    /// Absolute run horizon.
    fn horizon(&self) -> f64 {
        self.cfg.horizon_factor * self.cfg.deadline
    }

    /// Executes the scenario and returns the log plus metrics.
    pub fn run(&self) -> Result<RunReport> {
        let mut st = self.initial_state()?;
        for ev in self.schedule() {
            self.advance_all(&mut st, ev.time);
            match ev.trigger {
                Trigger::Arrival(i) => self.on_arrival(&mut st, i, ev.time)?,
                Trigger::Fault(fi) => self.on_fault(&mut st, fi, ev.time)?,
                Trigger::StallEnd(j) => self.on_stall_end(&mut st, j, ev.time)?,
                Trigger::Drift(round) => self.on_drift(&mut st, round, ev.time)?,
                Trigger::Watchdog => self.on_watchdog(&mut st, ev.time)?,
                Trigger::Horizon => self.on_horizon(&mut st, ev.time),
            }
        }
        let metrics = self.finish_metrics(&st);
        Ok(RunReport {
            log: st.log,
            metrics,
        })
    }

    /// The Stage-I engine for `(batch, platform)`, assembled against the
    /// run's cell store.
    fn engine(&self, store: &CellStore, batch: &Batch, platform: &Platform) -> Result<Phi1Engine> {
        let opts = EngineBuild {
            threads: self.cfg.threads,
            store: Some(store),
            ..EngineBuild::default()
        };
        Ok(Phi1Engine::build_with(batch, platform, &opts)?.0)
    }

    /// Builds the live state: Stage-I initial mapping, pristine types,
    /// pending applications.
    fn initial_state(&self) -> Result<State> {
        let store = CellStore::new(DEFAULT_CELL_CAPACITY);
        let engine = self.engine(&store, self.batch, self.reference)?;
        let alloc = self.cfg.allocator.allocate_with_engine(
            self.batch,
            self.reference,
            &engine,
            self.cfg.deadline,
        )?;
        let phi1 = engine.joint(&alloc, self.cfg.deadline).unwrap_or(0.0);

        let types = self
            .reference
            .types()
            .iter()
            .map(|t| LiveType {
                name: t.name().to_string(),
                count: t.count(),
                pmf: t.availability().clone(),
                stalled: false,
                stall_until: 0.0,
            })
            .collect();

        let apps = self
            .batch
            .iter()
            .map(|(id, app)| AppLive {
                asg: alloc.assignment(id.0),
                serial_left: app.serial_iters(),
                parallel_left: app.parallel_iters(),
                generation: 0,
                phase: Phase::Pending,
                session: None,
                rng: StdRng::seed_from_u64(session_seed(self.cfg.seed, id.0, 0)),
            })
            .collect();

        let mut log = EventLog::default();
        log.push(
            0.0,
            LogEntry::InitialMap {
                phi1,
                assignments: alloc
                    .assignments()
                    .iter()
                    .enumerate()
                    .map(|(i, a)| RemapAssignment {
                        app: i,
                        proc_type: a.proc_type.0,
                        procs: a.procs,
                    })
                    .collect(),
            },
        );

        Ok(State {
            types,
            apps,
            log,
            remap_count: 0,
            clamp_count: 0,
            wasted: 0.0,
            store,
        })
    }

    /// The fixed event schedule: arrivals, faults (plus their stall ends),
    /// drift rounds, watchdog checkpoints, and the horizon, stably sorted
    /// by time (insertion order breaks ties, horizon strictly last).
    fn schedule(&self) -> Vec<Scheduled> {
        let horizon = self.horizon();
        let mut sched: Vec<Scheduled> = Vec::new();
        for i in 0..self.batch.len() {
            sched.push(Scheduled {
                time: self.plan.arrival_of(i),
                trigger: Trigger::Arrival(i),
            });
        }
        for (fi, f) in self.plan.faults.iter().enumerate() {
            sched.push(Scheduled {
                time: f.time,
                trigger: Trigger::Fault(fi),
            });
            if let FaultKind::Stall {
                proc_type,
                duration,
            } = f.kind
            {
                let end = f.time + duration;
                if end < horizon {
                    sched.push(Scheduled {
                        time: end,
                        trigger: Trigger::StallEnd(proc_type),
                    });
                }
            }
        }
        if let Some(d) = self.plan.drift {
            let mut round = 1u64;
            while (round as f64) * d.period < horizon {
                sched.push(Scheduled {
                    time: (round as f64) * d.period,
                    trigger: Trigger::Drift(round),
                });
                round += 1;
            }
        }
        let n = self.cfg.watchdog_checks;
        for k in 1..=n {
            sched.push(Scheduled {
                time: self.cfg.deadline * k as f64 / (n as f64 + 1.0),
                trigger: Trigger::Watchdog,
            });
        }
        sched.push(Scheduled {
            time: horizon,
            trigger: Trigger::Horizon,
        });
        sched.sort_by(|a, b| a.time.total_cmp(&b.time));
        sched
    }

    /// Advances every running session to `t`, logging completions in
    /// `(finish time, application)` order.
    fn advance_all(&self, st: &mut State, t: f64) {
        let mut done: Vec<(f64, usize)> = Vec::new();
        for i in 0..st.apps.len() {
            let a = &mut st.apps[i];
            if a.phase != Phase::Running {
                continue;
            }
            let session = a.session.as_mut().expect("running app has a session");
            if let SessionStatus::Completed { finish } = session.advance_until(t, &mut a.rng) {
                done.push((finish, i));
            }
        }
        done.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        for (finish, i) in done {
            let missed = finish > self.cfg.deadline;
            st.apps[i].phase = if missed {
                Phase::Missed(finish)
            } else {
                Phase::Finished(finish)
            };
            st.apps[i].session = None;
            st.log.push(finish, LogEntry::Completion { app: i, missed });
        }
    }

    /// The availability process a session on type `j` experiences now.
    fn spec_for_type(&self, st: &State, j: usize) -> AvailabilitySpec {
        if st.types[j].stalled {
            AvailabilitySpec::Constant {
                a: STALL_AVAILABILITY,
            }
        } else {
            AvailabilitySpec::Renewal {
                pmf: st.types[j].pmf.clone(),
                mean_dwell: self.cfg.mean_dwell,
            }
        }
    }

    /// (Re)creates application `i`'s executor session at time `start` from
    /// its stored assignment and leftover iteration counts, with a fresh
    /// per-generation RNG stream.
    fn start_session(&self, st: &mut State, i: usize, start: f64) -> Result<()> {
        let asg = st.apps[i].asg.expect("running app has an assignment");
        let app = &self.batch.apps()[i];
        let it = app.iteration_time(asg.proc_type)?;
        let spec = self.spec_for_type(st, asg.proc_type.0);
        let a = &mut st.apps[i];
        let exec_cfg = ExecutorConfig::builder()
            .workers(asg.procs as usize)
            .serial_iters(a.serial_left)
            .parallel_iters(a.parallel_left.max(1))
            .iter_time_mean_sigma(it.mean(), it.std_dev())?
            .overhead(self.cfg.overhead)
            .availability(spec)
            .build()?;
        let mut rng = StdRng::seed_from_u64(session_seed(self.cfg.seed, i, a.generation));
        let session = ExecutorSession::new(&self.cfg.technique, exec_cfg, start, &mut rng)?;
        a.session = Some(session);
        a.rng = rng;
        Ok(())
    }

    /// Handles an application arrival.
    fn on_arrival(&self, st: &mut State, i: usize, t: f64) -> Result<()> {
        if st.apps[i].phase != Phase::Pending {
            return Ok(());
        }
        let Some(asg) = st.apps[i].asg else {
            st.apps[i].phase = Phase::Dropped(t, "no capacity at arrival");
            st.log.push(
                t,
                LogEntry::Dropped {
                    app: i,
                    cause: "no capacity at arrival".to_string(),
                },
            );
            return Ok(());
        };
        st.apps[i].phase = Phase::Running;
        self.start_session(st, i, t)?;
        st.log.push(
            t,
            LogEntry::Arrival {
                app: i,
                proc_type: asg.proc_type.0,
                procs: asg.procs,
            },
        );
        Ok(())
    }

    /// Handles an injected fault.
    fn on_fault(&self, st: &mut State, fi: usize, t: f64) -> Result<()> {
        match self.plan.faults[fi].kind {
            FaultKind::Crash {
                proc_type: j,
                procs,
            } => {
                let lost = procs.min(st.types[j].count);
                st.types[j].count -= lost;
                st.log.push(
                    t,
                    LogEntry::Crash {
                        proc_type: j,
                        lost,
                        surviving: st.types[j].count,
                    },
                );
                self.reconfigure(st, t, RemapReason::Fault, self.cfg.remap)?;
            }
            FaultKind::Collapse {
                proc_type: j,
                scale,
            } => {
                st.types[j].pmf = scale_availability(&st.types[j].pmf, scale)?;
                st.log.push(
                    t,
                    LogEntry::Collapse {
                        proc_type: j,
                        scale,
                    },
                );
                self.rebuild_sessions(st, t, |ty| ty == j)?;
                self.maybe_phi1_remap(st, t)?;
            }
            FaultKind::Stall {
                proc_type: j,
                duration,
            } => {
                st.types[j].stalled = true;
                st.types[j].stall_until = st.types[j].stall_until.max(t + duration);
                st.log.push(
                    t,
                    LogEntry::StallStart {
                        proc_type: j,
                        duration,
                    },
                );
                self.rebuild_sessions(st, t, |ty| ty == j)?;
                // Transient: no immediate remap — the watchdog projections
                // see STALL_AVAILABILITY and react if the stall actually
                // endangers the deadline.
            }
        }
        Ok(())
    }

    /// Handles the end of a transient stall.
    fn on_stall_end(&self, st: &mut State, j: usize, t: f64) -> Result<()> {
        if !st.types[j].stalled || t < st.types[j].stall_until - 1e-9 {
            // An overlapping, longer stall is still in force.
            return Ok(());
        }
        st.types[j].stalled = false;
        st.log.push(t, LogEntry::StallEnd { proc_type: j });
        self.rebuild_sessions(st, t, |ty| ty == j)
    }

    /// Handles a drift round: every type's availability is redrawn around
    /// the historical reference.
    fn on_drift(&self, st: &mut State, round: u64, t: f64) -> Result<()> {
        let Some(d) = self.plan.drift else {
            return Ok(());
        };
        for j in 0..st.types.len() {
            let scale = drift_scale(self.cfg.seed, j, round, d.min_scale, d.max_scale);
            st.types[j].pmf = scale_availability(self.reference.types()[j].availability(), scale)?;
            st.log.push(
                t,
                LogEntry::Drift {
                    proc_type: j,
                    scale,
                },
            );
        }
        self.rebuild_sessions(st, t, |_| true)?;
        self.maybe_phi1_remap(st, t)
    }

    /// Handles a watchdog checkpoint: project every running application's
    /// completion and remap if any projection exceeds the deadline.
    fn on_watchdog(&self, st: &mut State, t: f64) -> Result<()> {
        let mut late = Vec::new();
        for i in 0..st.apps.len() {
            if st.apps[i].phase != Phase::Running {
                continue;
            }
            if self.projected_finish(st, i, t)? > self.cfg.deadline {
                late.push(i);
            }
        }
        let any_late = !late.is_empty();
        st.log.push(t, LogEntry::Watchdog { late });
        if any_late && self.cfg.remap {
            self.reconfigure(st, t, RemapReason::Watchdog, true)?;
        }
        Ok(())
    }

    /// Handles the run horizon: stragglers are terminated as missed.
    fn on_horizon(&self, st: &mut State, t: f64) {
        let mut unfinished = Vec::new();
        for i in 0..st.apps.len() {
            match st.apps[i].phase {
                Phase::Running => {
                    st.apps[i].phase = Phase::Missed(t);
                    st.apps[i].session = None;
                    unfinished.push(i);
                }
                Phase::Pending => {
                    // Arrivals are validated `< horizon`, so this only
                    // covers defensive corner cases.
                    st.apps[i].phase = Phase::Dropped(t, "never arrived");
                    unfinished.push(i);
                }
                _ => {}
            }
        }
        if !unfinished.is_empty() {
            st.log.push(t, LogEntry::Horizon { unfinished });
        }
    }

    /// First-order completion projection for a running application:
    /// committed events (serial end, in-flight chunks) plus outstanding
    /// iterations at the current expected availability of its type.
    fn projected_finish(&self, st: &State, i: usize, t: f64) -> Result<f64> {
        let asg = st.apps[i].asg.expect("running app has an assignment");
        let session = st.apps[i].session.as_ref().expect("running app session");
        let j = asg.proc_type.0;
        let e_avail = if st.types[j].stalled {
            STALL_AVAILABILITY
        } else {
            st.types[j].pmf.expectation()
        };
        let it = self.batch.apps()[i].iteration_time(asg.proc_type)?;
        let outstanding = session.outstanding_parallel(t) as f64 * it.mean();
        let committed = session.lower_bound_finish().max(t);
        Ok(committed + outstanding / (asg.procs as f64 * e_avail))
    }

    /// Interrupts and rebuilds the sessions of running applications whose
    /// processor type satisfies `affected` (assignment unchanged, leftover
    /// iterations carried over) — used when a type's availability process
    /// changes in place.
    fn rebuild_sessions(
        &self,
        st: &mut State,
        t: f64,
        affected: impl Fn(usize) -> bool,
    ) -> Result<()> {
        for i in 0..st.apps.len() {
            if st.apps[i].phase != Phase::Running {
                continue;
            }
            let asg = st.apps[i].asg.expect("running app has an assignment");
            if !affected(asg.proc_type.0) {
                continue;
            }
            self.interrupt_app(st, i, t);
            self.start_session(st, i, t)?;
        }
        Ok(())
    }

    /// Tears down application `i`'s session at `t`, folding its progress
    /// into the stored leftover counts and the wasted-work account, and
    /// bumping the session generation.
    fn interrupt_app(&self, st: &mut State, i: usize, t: f64) {
        let a = &mut st.apps[i];
        let session = a.session.take().expect("running app has a session");
        let rs = session.interrupt(t, &mut a.rng);
        a.serial_left = rs.serial_iters_left;
        a.parallel_left = rs.parallel_iters_left;
        a.generation += 1;
        st.wasted += rs.wasted_work;
    }

    /// Indices of applications still needing resources (running or not yet
    /// arrived).
    fn active_apps(&self, st: &State) -> Vec<usize> {
        (0..st.apps.len())
            .filter(|&i| matches!(st.apps[i].phase, Phase::Running | Phase::Pending))
            .collect()
    }

    /// Surviving processor-type indices (count ≥ 1).
    fn surviving_types(&self, st: &State) -> Vec<usize> {
        (0..st.types.len())
            .filter(|&j| st.types[j].count >= 1)
            .collect()
    }

    /// The remaining optimization window at time `t`.
    fn window(&self, t: f64) -> f64 {
        (self.cfg.deadline - t).max(MIN_WINDOW)
    }

    /// Builds the remnant application for `i`: leftover iteration counts,
    /// execution-time PMFs scaled by the remaining-work fraction (so the
    /// per-iteration time distribution is preserved), restricted to the
    /// surviving types in order.
    fn remnant_app(
        &self,
        i: usize,
        serial_left: u64,
        parallel_left: u64,
        surviving: &[usize],
    ) -> Result<Application> {
        let orig = &self.batch.apps()[i];
        let frac = (serial_left + parallel_left) as f64 / orig.total_iters() as f64;
        let mut b = Application::builder(orig.name())
            .serial_iters(serial_left)
            .parallel_iters(parallel_left);
        for &j in surviving {
            b = b.exec_time_pmf(orig.exec_time(ProcTypeId(j))?.scale(frac)?);
        }
        Ok(b.build()?)
    }

    /// The surviving platform with current (drift/collapse-adjusted)
    /// availability PMFs, plus the old-index of each reduced type.
    fn reduced_platform(&self, st: &State, surviving: &[usize]) -> Result<Platform> {
        let types = surviving
            .iter()
            .map(|&j| {
                ProcessorType::new(
                    st.types[j].name.clone(),
                    st.types[j].count,
                    st.types[j].pmf.clone(),
                )
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(Platform::new(types)?)
    }

    /// Evaluates live φ₁ of the current assignments over the remaining
    /// window and triggers a remap when it falls below the threshold.
    fn maybe_phi1_remap(&self, st: &mut State, t: f64) -> Result<()> {
        if !self.cfg.remap || self.cfg.phi1_threshold <= 0.0 {
            return Ok(());
        }
        let Some(phi1) = self.live_phi1(st, t)? else {
            return Ok(());
        };
        if phi1 < self.cfg.phi1_threshold {
            self.reconfigure(st, t, RemapReason::Phi1Degradation, true)?;
        }
        Ok(())
    }

    /// Joint probability that every active application finishes its
    /// *remaining* work within the remaining window under the current
    /// assignments and live availability; `None` when nothing is active.
    /// Leftover counts are non-destructive estimates (sessions keep
    /// running): outstanding parallel iterations plus, during the serial
    /// prologue, the stored serial leftover.
    fn live_phi1(&self, st: &mut State, t: f64) -> Result<Option<f64>> {
        let actives = self.active_apps(st);
        if actives.is_empty() {
            return Ok(None);
        }
        let surviving = self.surviving_types(st);
        let mut remap_index = vec![usize::MAX; st.types.len()];
        for (nj, &j) in surviving.iter().enumerate() {
            remap_index[j] = nj;
        }
        let mut apps = Vec::with_capacity(actives.len());
        let mut assignments = Vec::with_capacity(actives.len());
        for &i in &actives {
            let Some(asg) = st.apps[i].asg else {
                return Ok(Some(0.0));
            };
            if remap_index[asg.proc_type.0] == usize::MAX {
                return Ok(Some(0.0));
            }
            let (serial, parallel) = match &st.apps[i].session {
                Some(s) => (
                    if s.in_serial_phase(t) {
                        st.apps[i].serial_left
                    } else {
                        0
                    },
                    s.outstanding_parallel(t).max(1),
                ),
                None => (st.apps[i].serial_left, st.apps[i].parallel_left),
            };
            apps.push(self.remnant_app(i, serial, parallel, &surviving)?);
            assignments.push(Assignment {
                proc_type: ProcTypeId(remap_index[asg.proc_type.0]),
                procs: asg.procs,
            });
        }
        let remnant = Batch::new(apps);
        let reduced = self.reduced_platform(st, &surviving)?;
        let engine = self.engine(&st.store, &remnant, &reduced)?;
        Ok(Some(
            engine
                .joint(&Allocation::new(assignments), self.window(t))
                .unwrap_or(0.0),
        ))
    }

    /// The global reconfiguration barrier: interrupts every running
    /// session, then either re-allocates the remnant batch on the
    /// surviving platform (`allow_remap`) or clamps each group to the
    /// surviving capacity, and finally restarts the surviving sessions.
    fn reconfigure(
        &self,
        st: &mut State,
        t: f64,
        reason: RemapReason,
        allow_remap: bool,
    ) -> Result<()> {
        let actives = self.active_apps(st);
        if actives.is_empty() {
            return Ok(());
        }
        for &i in &actives {
            if st.apps[i].phase == Phase::Running {
                self.interrupt_app(st, i, t);
            }
        }
        let surviving = self.surviving_types(st);
        if surviving.is_empty() {
            for &i in &actives {
                st.apps[i].asg = None;
                if st.apps[i].phase == Phase::Running {
                    st.apps[i].phase = Phase::Dropped(t, "no processors survive");
                    st.log.push(
                        t,
                        LogEntry::Dropped {
                            app: i,
                            cause: "no processors survive".to_string(),
                        },
                    );
                }
            }
            return Ok(());
        }

        let mut remapped = false;
        if allow_remap {
            remapped = self.try_remap(st, t, &actives, &surviving, reason)?;
        }
        if !remapped {
            self.clamp_to_capacity(st, t, &actives);
        }
        for &i in &actives {
            if st.apps[i].phase == Phase::Running {
                self.start_session(st, i, t)?;
            }
        }
        Ok(())
    }

    /// Attempts a full Stage-I re-allocation of the remnant batch on the
    /// surviving platform. Returns `false` (leaving state untouched) when
    /// the policy finds no feasible allocation.
    fn try_remap(
        &self,
        st: &mut State,
        t: f64,
        actives: &[usize],
        surviving: &[usize],
        reason: RemapReason,
    ) -> Result<bool> {
        let mut apps = Vec::with_capacity(actives.len());
        for &i in actives {
            apps.push(self.remnant_app(
                i,
                st.apps[i].serial_left,
                st.apps[i].parallel_left,
                surviving,
            )?);
        }
        let remnant = Batch::new(apps);
        let reduced = self.reduced_platform(st, surviving)?;
        let window = self.window(t);
        let engine = self.engine(&st.store, &remnant, &reduced)?;
        let Ok(alloc) = self
            .cfg
            .allocator
            .allocate_with_engine(&remnant, &reduced, &engine, window)
        else {
            return Ok(false);
        };
        if alloc.validate(&remnant, &reduced).is_err() {
            return Ok(false);
        }
        let phi1 = engine.joint(&alloc, window).unwrap_or(0.0);
        let mut entries = Vec::with_capacity(actives.len());
        for (k, &i) in actives.iter().enumerate() {
            let a = alloc.assignment(k).expect("allocation arity checked");
            let asg = Assignment {
                proc_type: ProcTypeId(surviving[a.proc_type.0]),
                procs: a.procs,
            };
            st.apps[i].asg = Some(asg);
            entries.push(RemapAssignment {
                app: i,
                proc_type: asg.proc_type.0,
                procs: asg.procs,
            });
        }
        st.log.push(
            t,
            LogEntry::Remap {
                reason,
                phi1,
                assignments: entries,
            },
        );
        st.remap_count += 1;
        Ok(true)
    }

    /// Static fault handling: in batch order, each application keeps its
    /// type but its group shrinks to the largest power of two fitting the
    /// remaining capacity; zero-capacity applications are dropped.
    fn clamp_to_capacity(&self, st: &mut State, t: f64, actives: &[usize]) {
        let mut remaining: Vec<u32> = st.types.iter().map(|ty| ty.count).collect();
        for &i in actives {
            let Some(asg) = st.apps[i].asg else {
                continue;
            };
            let j = asg.proc_type.0;
            let p = asg.procs.min(prev_power_of_two(remaining[j]));
            if p == 0 {
                st.apps[i].asg = None;
                if st.apps[i].phase == Phase::Running {
                    st.apps[i].phase = Phase::Dropped(t, "no capacity after fault");
                    st.log.push(
                        t,
                        LogEntry::Dropped {
                            app: i,
                            cause: "no capacity after fault".to_string(),
                        },
                    );
                }
                continue;
            }
            if p != asg.procs {
                st.apps[i].asg = Some(Assignment {
                    proc_type: asg.proc_type,
                    procs: p,
                });
                st.log.push(t, LogEntry::Clamp { app: i, procs: p });
                st.clamp_count += 1;
            }
            remaining[j] -= p;
        }
    }

    /// Final metrics from the terminal application states.
    fn finish_metrics(&self, st: &State) -> RunMetrics {
        let horizon = self.horizon();
        let per_app = st
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let (end, outcome) = match a.phase {
                    Phase::Finished(f) => (f, "finished".to_string()),
                    Phase::Missed(f) => (f, "missed".to_string()),
                    Phase::Dropped(f, cause) => (f, format!("dropped: {cause}")),
                    // Defensive: the horizon handler terminates everything.
                    Phase::Pending | Phase::Running => (horizon, "missed".to_string()),
                };
                AppOutcome {
                    app: i,
                    arrival: self.plan.arrival_of(i),
                    end,
                    outcome,
                }
            })
            .collect();
        RunMetrics::from_outcomes(per_app, st.remap_count, st.clamp_count, st.wasted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_workloads::faults;

    fn quick_cfg(remap: bool) -> EngineConfig {
        let mut cfg = EngineConfig::new(faults::SCENARIO_DEADLINE);
        cfg.remap = remap;
        cfg.threads = 2;
        cfg
    }

    #[test]
    fn fault_free_run_finishes_every_app() {
        let (batch, platform, _) = crate::paper_scenario("crash", 8).unwrap();
        let plan = FaultPlan::new("quiet").arrivals(&[0.0, 40.0, 80.0]);
        let cfg = quick_cfg(true);
        let report = EventEngine::new(&batch, &platform, &plan, &cfg)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.metrics.apps, 3);
        assert_eq!(report.metrics.finished, 3);
        assert_eq!(report.metrics.deadline_hit_rate, 1.0);
        assert_eq!(report.metrics.remap_count, 0);
        // 1 initial map + 3 arrivals + 3 completions + 2 watchdogs.
        let arrivals = report
            .log
            .records
            .iter()
            .filter(|r| matches!(r.entry, LogEntry::Arrival { .. }))
            .count();
        assert_eq!(arrivals, 3);
        assert!(report.metrics.makespan < faults::SCENARIO_DEADLINE);
    }

    #[test]
    fn log_times_are_non_decreasing() {
        let (batch, platform, plan) = crate::paper_scenario("mixed", 8).unwrap();
        let cfg = quick_cfg(true);
        let report = EventEngine::new(&batch, &platform, &plan, &cfg)
            .unwrap()
            .run()
            .unwrap();
        let times: Vec<f64> = report.log.records.iter().map(|r| r.time).collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "log out of order: {} > {}", w[0], w[1]);
        }
    }

    #[test]
    fn total_crash_drops_every_running_app() {
        let (batch, platform, _) = crate::paper_scenario("crash", 8).unwrap();
        // Both types wiped out mid-run: nothing can survive.
        let plan = FaultPlan::new("apocalypse")
            .arrivals(&[0.0, 40.0, 80.0])
            .crash_at(600.0, 0, 4)
            .crash_at(600.0, 1, 8);
        let cfg = quick_cfg(true);
        let report = EventEngine::new(&batch, &platform, &plan, &cfg)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            report.metrics.finished + report.metrics.missed + report.metrics.dropped,
            3
        );
        assert_eq!(report.metrics.finished, 0);
        assert!(report.metrics.dropped >= 1);
        assert_eq!(report.metrics.deadline_hit_rate, 0.0);
    }

    #[test]
    fn rejects_inconsistent_scenarios() {
        let (batch, platform, _) = crate::paper_scenario("crash", 8).unwrap();
        let cfg = quick_cfg(true);
        let late_arrival = FaultPlan::new("bad").arrivals(&[1.0e9]);
        assert!(EventEngine::new(&batch, &platform, &late_arrival, &cfg).is_err());
        let bad_type = FaultPlan::new("bad").crash_at(10.0, 7, 1);
        assert!(EventEngine::new(&batch, &platform, &bad_type, &cfg).is_err());
        let bad_scale = FaultPlan::new("bad").collapse_at(10.0, 0, 1.5);
        assert!(EventEngine::new(&batch, &platform, &bad_scale, &cfg).is_err());
    }

    #[test]
    fn drift_scales_stay_in_range() {
        for round in 0..100 {
            let s = drift_scale(0xCD5F, round as usize % 3, round, 0.55, 1.0);
            assert!((0.55..=1.0).contains(&s), "scale {s} out of range");
        }
        // Different coordinates give different draws (hash, not constant).
        assert_ne!(
            drift_scale(1, 0, 1, 0.0, 1.0),
            drift_scale(1, 0, 2, 0.0, 1.0)
        );
        assert_ne!(
            drift_scale(1, 0, 1, 0.0, 1.0),
            drift_scale(1, 1, 1, 0.0, 1.0)
        );
    }

    #[test]
    fn session_seeds_are_generation_disjoint() {
        let a = session_seed(42, 0, 0);
        let b = session_seed(42, 0, 1);
        let c = session_seed(42, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
