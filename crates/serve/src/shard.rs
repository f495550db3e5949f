//! Worker shards: single-threaded scheduling cores behind mpsc queues.
//!
//! Each shard owns its tenants and its front caches outright — no locks,
//! no shared state besides the service-wide [`CellStore`] — so every
//! reply of a shard is a deterministic function of its request sequence.
//! Tenants hash to shards by FNV-1a of the tenant name, which keeps a
//! tenant's requests totally ordered without any cross-shard
//! coordination.
//!
//! **One reuse path in front of Stage I.** A request's Stage-I answer —
//! the allocation plus its per-app scores and joint φ₁ — is a pure
//! function of the input bits (identified by the engine key,
//! [`cdsf_ra::inputs_key`]), the deadline and the allocator. Three
//! deterministic tiers reuse work, each shielding the next:
//!
//! 1. the *spec-expansion* cache (`WorkloadSpec → (inputs key, batch,
//!    platform)`) skips the generator run and the full-input hash on
//!    repeat submissions;
//! 2. the *allocation-result* cache (`(engine key, deadline bits,
//!    allocator) → answer`) is looked up before any engine work, so a hit
//!    touches no engine, allocator or evaluator;
//! 3. on its misses — and for every `Restore` and `Fingerprint` — the
//!    engine is assembled by [`Phi1Engine::build_with`] against the
//!    shared content-addressed [`CellStore`], which serves every cell
//!    whose exact inputs are resident (verified bitwise) and runs the
//!    build kernel only for the rest.
//!
//! Each tier is sound bit for bit: spec expansion is a pure function of
//! the spec, store-served cells are the cells the kernel would compute,
//! and every Stage-I allocator is deterministic — so a cached reply
//! carries exactly the bytes a cold one would. Front-cache eviction
//! (`VecDeque` promote-to-front + truncate) is itself a deterministic
//! function of the request sequence.
//!
//! **Counters.** An engine assembly is a *hit* (`cache_hits`) when every
//! cell came from the store and a *miss* (`cache_misses`) when the kernel
//! ran; `cache_rebuilds` counts the injects whose assembly ran the
//! kernel. **Admission coalescing:** a shard drains its queue into an
//! admission batch (up to [`ServeConfig::drain_limit`] requests) and
//! serves it in arrival order. A request that runs no kernel for an
//! engine key an earlier request of the same batch built — it found the
//! cached answer or the interned cells — is accounted as `coalesced`;
//! concurrency changes latency, never bytes.

use crate::error::{Result, ServeError};
use crate::protocol::{
    FallbackReason, FingerprintReply, InjectReply, InjectRequest, Request, Response, RestoreReply,
    RobustVerdict, ShardStats, SubmitReply, SubmitRequest, WireAssignment, DRAIN_DEPTH_BUCKETS,
};
use crate::tenant::{TenantSnapshot, TenantState, WorkloadSpec};
use cdsf_core::{CoreError, ImPolicy};
use cdsf_ra::robustness::evaluate_with_engine;
use cdsf_ra::{
    inputs_key, Allocation, CellStore, EngineBuild, GammaRobust, Lattice, LatticeScratch,
    Phi1Engine, RaError, Unproven,
};
use cdsf_system::{Batch, Platform};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{mpsc, Arc};

/// Entries per shard in each front cache (spec expansions and allocation
/// results). An entry is cheap — a spec expansion is a few KB, an
/// allocation answer a few hundred bytes.
const FRONT_CACHE_CAPACITY: usize = 32;

/// Service configuration, shared by every shard.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (tenants hash across them).
    pub shards: usize,
    /// Worker threads per engine build (the work-stealing pool width).
    pub build_threads: usize,
    /// Allocator when a `Submit` names none.
    pub default_allocator: String,
    /// φ₁ threshold when a `Submit` names none.
    pub phi1_threshold: f64,
    /// Most requests one admission batch may drain from the queue.
    pub drain_limit: usize,
    /// Cells resident in the service-wide content-addressed
    /// [`CellStore`] (shared by every shard's engine builds).
    pub cell_store_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            build_threads: cdsf_core::default_threads(),
            default_allocator: "sufferage".to_string(),
            phi1_threshold: 0.8,
            drain_limit: 128,
            cell_store_capacity: cdsf_ra::cell_store::DEFAULT_CELL_CAPACITY,
        }
    }
}

impl ServeConfig {
    /// Clamps the knobs into their sane domains.
    pub fn normalized(mut self) -> Self {
        self.shards = self.shards.max(1);
        self.build_threads = self.build_threads.max(1);
        self.drain_limit = self.drain_limit.max(1);
        self.cell_store_capacity = self.cell_store_capacity.max(1);
        self
    }

    /// Whether `t` is a usable φ₁ threshold: in (0, 1], so not NaN.
    pub fn threshold_ok(t: f64) -> bool {
        t > 0.0 && t <= 1.0
    }
}

/// FNV-1a of a tenant name — the shard routing hash. Stable across runs
/// and platforms so a tenant always lands on the same shard.
pub fn shard_of(tenant: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// One sequence-numbered reply frame on a connection's reply lane.
#[derive(Debug)]
pub struct ConnFrame {
    /// Position in the connection's request order.
    pub seq: u64,
    /// The reply; the connection's writer thread serializes it into its
    /// retained buffer (keeping `Snapshot` serialization — and every
    /// other reply's — off the shard loop).
    pub resp: Response,
    /// The writer exits after writing this frame (`Bye`).
    pub last: bool,
}

/// Where a served request's reply goes.
pub enum ReplyTo {
    /// An in-process caller blocking on a channel ([`crate::Router`]'s
    /// synchronous path, tests, the stats poller).
    Sync(mpsc::Sender<Response>),
    /// A connection's pipelined reply lane: frames are re-sequenced and
    /// batch-flushed by the connection's writer thread.
    Framed {
        /// Position in the connection's request order.
        seq: u64,
        /// The connection's frame channel.
        tx: mpsc::Sender<ConnFrame>,
    },
}

impl ReplyTo {
    /// Delivers `resp`; a hung-up receiver just discards it.
    pub fn send(self, resp: Response) {
        match self {
            ReplyTo::Sync(tx) => {
                let _ = tx.send(resp);
            }
            ReplyTo::Framed { seq, tx } => {
                let _ = tx.send(ConnFrame {
                    seq,
                    resp,
                    last: false,
                });
            }
        }
    }
}

/// A message on a shard's queue.
pub enum ShardMsg {
    /// Serve one request; reply to the provided destination.
    Req(Request, ReplyTo),
    /// Report the shard's counters.
    Stats(mpsc::Sender<ShardStats>),
    /// Exit the shard loop.
    Stop,
}

/// A cached spec expansion: the inputs key plus the expanded pair, so a
/// repeat submission pays neither the generator run nor the full-input
/// FNV walk. The pair is shared with the request being served, which
/// borrows it without cloning.
struct SpecEntry {
    spec: WorkloadSpec,
    key: u64,
    inputs: Arc<(Batch, Platform)>,
}

/// A Stage-I answer: the allocation in wire form, its per-app and joint
/// φ₁, the expected times, whether (and why) it fell back, and the
/// certificate of a lattice solve that ran out of budget.
#[derive(Clone)]
struct Answer {
    assignments: Vec<WireAssignment>,
    per_app: Vec<f64>,
    expected_times: Vec<f64>,
    joint: f64,
    fallback: Option<FallbackReason>,
    unproven: Option<Unproven>,
}

/// A cached [`Answer`], keyed by everything it is a function of: the
/// inputs (through their engine key), the deadline bits and the
/// allocator.
struct AllocEntry {
    engine_key: u64,
    deadline_bits: u64,
    allocator: String,
    answer: Answer,
}

/// The engine for `(batch, platform)`, assembled against `store` by
/// `threads` pool workers and bit-identical to a fresh build, plus
/// whether the build kernel ran for any of its cells. The assembly's hit
/// or miss and its pool run are counted into `counters`.
fn assemble(
    store: &CellStore,
    counters: &mut ShardStats,
    batch: &Batch,
    platform: &Platform,
    threads: usize,
) -> Result<(Phi1Engine, bool)> {
    let opts = EngineBuild {
        threads,
        store: Some(store),
        ..EngineBuild::default()
    };
    let (engine, pool) = Phi1Engine::build_with(batch, platform, &opts)?;
    counters.pool_runs += 1;
    counters.pool_tasks_run += pool.total_tasks() as u64;
    counters.pool_chunks_stolen += pool.total_steals() as u64;
    // Only pairs with cells left to compute become pool tasks.
    let kernel_ran = pool.total_tasks() > 0;
    if kernel_ran {
        counters.cache_misses += 1;
    } else {
        counters.cache_hits += 1;
    }
    Ok((engine, kernel_ran))
}

/// One shard's entire state. Public so tests (and the loadgen's in-process
/// mode) can drive a shard without sockets.
pub struct ShardCore {
    id: usize,
    cfg: ServeConfig,
    store: Arc<CellStore>,
    tenants: BTreeMap<String, TenantState>,
    spec_cache: VecDeque<SpecEntry>,
    alloc_cache: VecDeque<AllocEntry>,
    /// The lattice's buffers, warm across this shard's solves.
    scratch: LatticeScratch,
    /// Every counter the shard reports except its id and tenant count,
    /// which [`ShardCore::stats`] fills in.
    counters: ShardStats,
}

impl ShardCore {
    /// A fresh shard with empty caches, no tenants, and its own private
    /// cell store. The server passes a shared store via
    /// [`ShardCore::with_store`] instead so cells intern service-wide.
    pub fn new(id: usize, cfg: ServeConfig) -> Self {
        let store = Arc::new(CellStore::new(cfg.clone().normalized().cell_store_capacity));
        Self::with_store(id, cfg, store)
    }

    /// A fresh shard whose engine builds resolve cells against `store`
    /// — the cross-shard sharing path used by [`crate::Server`].
    pub fn with_store(id: usize, cfg: ServeConfig, store: Arc<CellStore>) -> Self {
        let cfg = cfg.normalized();
        Self {
            id,
            cfg,
            store,
            tenants: BTreeMap::new(),
            spec_cache: VecDeque::new(),
            alloc_cache: VecDeque::new(),
            scratch: LatticeScratch::new(),
            counters: ShardStats {
                drain_depths: vec![0; DRAIN_DEPTH_BUCKETS],
                ..ShardStats::default()
            },
        }
    }

    /// Serves one request (an admission batch of one).
    pub fn handle(&mut self, req: &Request) -> Response {
        self.process_batch(std::slice::from_ref(req))
            .pop()
            .expect("one reply per request")
    }

    /// Serves an admission batch in arrival order, coalescing same-spec
    /// engine work within the batch. Replies line up index-for-index
    /// with `reqs`.
    pub fn process_batch(&mut self, reqs: &[Request]) -> Vec<Response> {
        let mut keys_built: HashSet<u64> = HashSet::new();
        reqs.iter()
            .map(|req| self.serve_owned(req.clone(), &mut keys_built))
            .collect()
    }

    /// Serves one owned request within an admission batch whose
    /// coalescing state lives in `keys_built`. Owning the request lets
    /// the reply *move* the tenant id (and other strings) instead of
    /// cloning them — the shard loop's zero-clone path.
    pub fn serve_owned(&mut self, req: Request, keys_built: &mut HashSet<u64>) -> Response {
        match self.dispatch(req, keys_built) {
            Ok(resp) => resp,
            Err(e) => {
                self.counters.errors += 1;
                Response::Error {
                    message: e.to_string(),
                }
            }
        }
    }

    fn dispatch(&mut self, req: Request, keys_built: &mut HashSet<u64>) -> Result<Response> {
        match req {
            Request::Submit(r) => self.submit(r, keys_built),
            Request::Inject(r) => self.inject(r, keys_built),
            Request::Snapshot { tenant } => self.snapshot(tenant),
            Request::Restore { snapshot } => self.restore(snapshot, keys_built),
            Request::Fingerprint { tenant } => self.fingerprint(tenant),
            Request::Stats | Request::Shutdown => Err(ServeError::Protocol(
                "control requests are handled by the router, not a shard".to_string(),
            )),
        }
    }

    /// Folds one served request into the admission counters: a kernel
    /// run is a build, and a request that ran none for a key an earlier
    /// request of its batch built is coalesced.
    fn account(&mut self, key: u64, kernel_ran: bool, keys_built: &mut HashSet<u64>) {
        if kernel_ran {
            self.counters.builds += 1;
            keys_built.insert(key);
        } else if keys_built.contains(&key) {
            self.counters.coalesced += 1;
        }
    }

    /// Per-request fallback and budget accounting — cached outcomes count
    /// too, so the rates keep meaning "requests whose allocation fell
    /// back" and "replies carrying `unproven`", independent of cache
    /// warmth.
    fn record_outcome(&mut self, answer: &Answer) {
        let c = &mut self.counters;
        c.alloc_budget_exhausted += u64::from(answer.unproven.is_some());
        let Some(reason) = answer.fallback else {
            return;
        };
        c.alloc_fallbacks += 1;
        match reason {
            FallbackReason::Infeasible { proven } => {
                c.alloc_fallbacks_infeasible += 1;
                if proven {
                    c.alloc_fallbacks_infeasible_proven += 1;
                } else {
                    c.alloc_fallbacks_infeasible_heuristic += 1;
                }
            }
            FallbackReason::Other => c.alloc_fallbacks_other += 1,
        }
    }

    /// The expansion of `spec` with its inputs key, from the spec cache
    /// (promoted to the front) or, on a miss, by running the generator
    /// and the input hash.
    fn expand(&mut self, spec: &WorkloadSpec) -> Result<(u64, Arc<(Batch, Platform)>)> {
        match self.spec_cache.iter().position(|e| &e.spec == spec) {
            Some(pos) => {
                self.counters.spec_cache_hits += 1;
                if pos > 0 {
                    let e = self.spec_cache.remove(pos).expect("position exists");
                    self.spec_cache.push_front(e);
                }
            }
            None => {
                self.counters.spec_cache_misses += 1;
                let (batch, platform) = spec.expand()?;
                let key = inputs_key(&batch, &platform);
                self.spec_cache.push_front(SpecEntry {
                    spec: spec.clone(),
                    key,
                    inputs: Arc::new((batch, platform)),
                });
                self.spec_cache.truncate(FRONT_CACHE_CAPACITY);
            }
        }
        let entry = &self.spec_cache[0];
        Ok((entry.key, Arc::clone(&entry.inputs)))
    }

    /// The Stage-I answer for `inputs` (whose engine key is `key`) at
    /// `deadline` under `allocator`. The allocation-result cache is
    /// consulted first, and a hit touches no engine. On a miss the engine
    /// is assembled from the cell store, the policy and the evaluator
    /// run, and the answer is cached. Returns whether the kernel ran.
    fn answer(
        &mut self,
        key: u64,
        inputs: &(Batch, Platform),
        deadline: f64,
        allocator: &str,
        policy: &ShardPolicy,
        keys_built: &mut HashSet<u64>,
    ) -> Result<(Answer, bool)> {
        let deadline_bits = deadline.to_bits();
        let cached = self.alloc_cache.iter().position(|e| {
            e.engine_key == key && e.deadline_bits == deadline_bits && e.allocator == allocator
        });
        let (answer, kernel_ran) = match cached {
            Some(pos) => {
                self.counters.alloc_cache_hits += 1;
                let entry = self.alloc_cache.remove(pos).expect("position exists");
                let answer = entry.answer.clone();
                self.alloc_cache.push_front(entry);
                (answer, false)
            }
            None => {
                let (batch, platform) = inputs;
                let threads = self.cfg.build_threads;
                let (engine, kernel_ran) =
                    assemble(&self.store, &mut self.counters, batch, platform, threads)?;
                let run = allocate_or_fallback(
                    policy,
                    batch,
                    platform,
                    &engine,
                    deadline,
                    &mut self.scratch,
                )?;
                let report = evaluate_with_engine(&engine, batch, platform, &run.alloc, deadline)?;
                if run.fallback.is_none() && matches!(allocator, "sa" | "annealing") {
                    self.counters.sa_multistart_runs += 1;
                }
                let answer = Answer {
                    assignments: wire_assignments(&run.alloc),
                    per_app: report.per_app,
                    expected_times: report.expected_times,
                    joint: report.joint,
                    fallback: run.fallback,
                    unproven: run.unproven,
                };
                self.counters.alloc_cache_misses += 1;
                self.alloc_cache.push_front(AllocEntry {
                    engine_key: key,
                    deadline_bits,
                    allocator: allocator.to_string(),
                    answer: answer.clone(),
                });
                self.alloc_cache.truncate(FRONT_CACHE_CAPACITY);
                (answer, kernel_ran)
            }
        };
        self.record_outcome(&answer);
        self.account(key, kernel_ran, keys_built);
        Ok((answer, kernel_ran))
    }

    fn submit(&mut self, r: SubmitRequest, keys_built: &mut HashSet<u64>) -> Result<Response> {
        let SubmitRequest {
            tenant,
            spec,
            deadline,
            allocator,
            threshold,
            qos,
        } = r;
        if !(deadline > 0.0) || !deadline.is_finite() {
            return Err(ServeError::Protocol(format!(
                "deadline {deadline} must be finite and positive"
            )));
        }
        let threshold = threshold.unwrap_or(self.cfg.phi1_threshold);
        if !ServeConfig::threshold_ok(threshold) {
            return Err(ServeError::Protocol(format!(
                "threshold {threshold} out of (0, 1]"
            )));
        }
        let guaranteed = match qos.as_deref() {
            None | Some("probabilistic") => false,
            Some("guaranteed") => true,
            Some(other) => {
                return Err(ServeError::Protocol(format!(
                    "unknown qos tier `{other}` (expected `guaranteed` or `probabilistic`)"
                )))
            }
        };
        // The guaranteed tier is *defined* by the Γ-robust solver; it
        // overrides any requested allocator.
        let allocator_name = if guaranteed {
            "gamma-robust".to_string()
        } else {
            allocator.unwrap_or_else(|| self.cfg.default_allocator.clone())
        };
        let policy = resolve_policy(&allocator_name, &self.cfg)?;

        let (key, inputs) = self.expand(&spec)?;
        let (answer, _) =
            self.answer(key, &inputs, deadline, &allocator_name, &policy, keys_built)?;

        // A successful Γ-robust run *is* the guaranteed-tier certificate
        // (infeasible guaranteed requests error out above).
        let guaranteed_tier = (allocator_name == "gamma-robust").then_some(true);
        let (batch, platform) = &*inputs;
        match self.tenants.get_mut(&tenant) {
            Some(state) => {
                // Re-submission of inputs the state already holds: skip
                // the batch/platform clones, just refresh the parameters.
                if state.engine_key != key || state.spec != spec || state.events_applied != 0 {
                    state.batch = batch.clone();
                    state.platform = platform.clone();
                }
                state.spec = spec;
                state.deadline = deadline;
                state.allocator = allocator_name;
                state.threshold = threshold;
                state.engine_key = key;
                state.events_applied = 0;
            }
            None => {
                self.tenants.insert(
                    tenant.clone(),
                    TenantState {
                        spec,
                        deadline,
                        allocator: allocator_name,
                        threshold,
                        batch: batch.clone(),
                        platform: platform.clone(),
                        engine_key: key,
                        events_applied: 0,
                    },
                );
            }
        }
        self.counters.submits += 1;
        Ok(Response::Submit(SubmitReply {
            tenant,
            engine_key: key,
            assignments: answer.assignments,
            per_app_phi1: answer.per_app,
            expected_times: answer.expected_times,
            verdict: RobustVerdict {
                phi1: answer.joint,
                threshold,
                robust: answer.joint >= threshold,
                guaranteed_tier,
            },
            unproven: answer.unproven,
        }))
    }

    fn inject(&mut self, r: InjectRequest, keys_built: &mut HashSet<u64>) -> Result<Response> {
        let InjectRequest { tenant, event } = r;
        let state = self
            .tenants
            .get(&tenant)
            .ok_or_else(|| unknown_tenant(&tenant))?;
        let inputs = state.apply_event(&event)?;
        let allocator_name = state.allocator.clone();
        let policy = resolve_policy(&allocator_name, &self.cfg)?;
        let (deadline, threshold) = (state.deadline, state.threshold);

        let key = inputs_key(&inputs.0, &inputs.1);
        let (answer, kernel_ran) =
            self.answer(key, &inputs, deadline, &allocator_name, &policy, keys_built)?;
        if kernel_ran {
            self.counters.cache_rebuilds += 1;
        }

        let state = self.tenants.get_mut(&tenant).expect("checked above");
        (state.batch, state.platform) = inputs;
        state.engine_key = key;
        state.events_applied += 1;
        self.counters.injects += 1;
        Ok(Response::Inject(InjectReply {
            tenant,
            engine_key: key,
            assignments: answer.assignments,
            per_app_phi1: answer.per_app,
            verdict: RobustVerdict {
                phi1: answer.joint,
                threshold,
                robust: answer.joint >= threshold,
                // A guaranteed tenant's reactive remap re-proves the
                // worst case or errors above, like its submit did.
                guaranteed_tier: (allocator_name == "gamma-robust").then_some(true),
            },
            unproven: answer.unproven,
        }))
    }

    fn snapshot(&mut self, tenant: String) -> Result<Response> {
        let state = self
            .tenants
            .get(&tenant)
            .ok_or_else(|| unknown_tenant(&tenant))?;
        // The shard only clones the state here (cheap relative to JSON);
        // the expensive serialization of this reply happens on the
        // connection's writer thread, off the shard loop.
        let snapshot = state.snapshot(&tenant);
        self.counters.snapshots += 1;
        Ok(Response::Snapshot { snapshot })
    }

    fn restore(
        &mut self,
        snapshot: TenantSnapshot,
        keys_built: &mut HashSet<u64>,
    ) -> Result<Response> {
        let mut state = TenantState::from_snapshot(&snapshot);
        let (engine, kernel_ran) = assemble(
            &self.store,
            &mut self.counters,
            &state.batch,
            &state.platform,
            self.cfg.build_threads,
        )?;
        let key = inputs_key(&state.batch, &state.platform);
        self.account(key, kernel_ran, keys_built);
        state.engine_key = key;
        let tenant = snapshot.tenant;
        self.tenants.insert(tenant.clone(), state);
        self.counters.restores += 1;
        Ok(Response::Restored(RestoreReply {
            tenant,
            engine_key: key,
            fingerprint: engine.table_fingerprint(),
        }))
    }

    fn fingerprint(&mut self, tenant: String) -> Result<Response> {
        let state = self
            .tenants
            .get(&tenant)
            .ok_or_else(|| unknown_tenant(&tenant))?;
        // Assembled from the tenant's stored inputs; the build is
        // deterministic, so the digest is the one every earlier engine of
        // these inputs had.
        let (engine, _) = assemble(
            &self.store,
            &mut self.counters,
            &state.batch,
            &state.platform,
            self.cfg.build_threads,
        )?;
        Ok(Response::Fingerprint(FingerprintReply {
            engine_key: state.engine_key,
            tenant,
            fingerprint: engine.table_fingerprint(),
        }))
    }

    /// Buckets one admission batch's drain depth into the log₂ histogram.
    pub fn record_drain_depth(&mut self, depth: usize) {
        if depth == 0 {
            return;
        }
        let bucket = (usize::BITS - 1 - depth.leading_zeros()) as usize;
        self.counters.drain_depths[bucket.min(DRAIN_DEPTH_BUCKETS - 1)] += 1;
    }

    /// The shard's counters, engine-assembly and pool telemetry included.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shard: Some(self.id as u64),
            tenants: self.tenants.len() as u64,
            ..self.counters.clone()
        }
    }
}

fn unknown_tenant(tenant: &str) -> ServeError {
    ServeError::Protocol(format!("unknown tenant `{tenant}` (submit first)"))
}

/// How a shard runs a named allocator.
enum ShardPolicy {
    /// The framework's policy dispatch; the guaranteed tier's Γ-robust
    /// solver runs at the shard's configured pool width, which never
    /// changes its answer.
    Standard(ImPolicy),
    /// The exact lattice's anytime solve, which holds the shard for at
    /// most [`Lattice::NODE_BUDGET`] nodes: `lattice` and the robust IM
    /// (`robust`, `exhaustive`), and `sa`, `annealing`, `ga` and
    /// `genetic`, whose metaheuristics never beat the lattice's `φ₁` on
    /// a serve spec and cost more CPU there.
    Anytime,
}

fn resolve_policy(name: &str, cfg: &ServeConfig) -> Result<ShardPolicy> {
    let policy = ImPolicy::by_name(name)
        .ok_or_else(|| ServeError::Protocol(format!("unknown allocator `{name}`")))?;
    Ok(match (name, &policy) {
        ("lattice" | "sa" | "annealing" | "ga" | "genetic", _) | (_, ImPolicy::Robust) => {
            ShardPolicy::Anytime
        }
        ("gamma-robust", _) => ShardPolicy::Standard(ImPolicy::Custom(Box::new(GammaRobust {
            threads: cfg.build_threads,
            ..GammaRobust::default()
        }))),
        _ => ShardPolicy::Standard(policy),
    })
}

/// One allocation run's outcome: the allocation, whether (and why) it
/// fell back, and the certificate of a lattice solve that ran out of
/// budget.
struct AllocRun {
    alloc: Allocation,
    fallback: Option<FallbackReason>,
    unproven: Option<Unproven>,
}

/// Whether a Stage-I failure is an infeasibility claim — the class of
/// failure the exact lattice solver can adjudicate.
fn is_infeasible_claim(e: &CoreError) -> bool {
    matches!(e, CoreError::Ra(RaError::NoFeasibleAllocation))
}

/// Runs the requested policy. A Γ-robust infeasibility *proof*
/// propagates as an error (the message carries the tightest feasible
/// deadline for the client to retry with). A heuristic's
/// `NoFeasibleAllocation` claim is adjudicated by the lattice's anytime
/// solve instead of blindly falling back to equal-share: if an
/// allocation with positive φ₁ may exist, the solve's answer is served
/// (`proven: false` — the heuristic merely painted itself into a
/// corner); if none can, the solve's best-effort minimum-expected-time
/// allocation is served under a proof (`proven: true`, the solve's bound
/// on φ₁ is zero). Other Stage-I failures keep the deterministic
/// equal-share fallback; the original error propagates when even that
/// cannot pack the batch.
fn allocate_or_fallback(
    policy: &ShardPolicy,
    batch: &Batch,
    platform: &Platform,
    engine: &Phi1Engine,
    deadline: f64,
    scratch: &mut LatticeScratch,
) -> Result<AllocRun> {
    let primary: std::result::Result<AllocRun, (String, bool)> = match policy {
        ShardPolicy::Standard(p) => match p.allocate_with_engine(batch, platform, engine, deadline)
        {
            Ok(alloc) => Ok(AllocRun {
                alloc,
                fallback: None,
                unproven: None,
            }),
            // The guaranteed tier's rejection path: no fallback softens
            // a worst-case infeasibility proof.
            Err(CoreError::Ra(e @ RaError::ProvenInfeasible { .. })) => {
                return Err(ServeError::Framework(e.to_string()))
            }
            Err(e) => Err((e.to_string(), is_infeasible_claim(&e))),
        },
        ShardPolicy::Anytime => {
            match Lattice::anytime_with_engine(platform, engine, deadline, scratch) {
                Ok((alloc, _, unproven)) => Ok(AllocRun {
                    alloc,
                    fallback: None,
                    unproven,
                }),
                Err(e) => {
                    let infeasible = matches!(e, RaError::NoFeasibleAllocation);
                    Err((e.to_string(), infeasible))
                }
            }
        }
    };
    let (message, claims_infeasible) = match primary {
        Ok(run) => return Ok(run),
        Err(pair) => pair,
    };
    if matches!(policy, ShardPolicy::Standard(ImPolicy::Naive)) {
        return Err(ServeError::Framework(message));
    }
    if claims_infeasible {
        match Lattice::anytime_with_engine(platform, engine, deadline, scratch) {
            Ok((alloc, report, unproven)) => {
                let phi1_bound = unproven.map_or(report.phi1, |u| u.phi1_bound);
                return Ok(AllocRun {
                    alloc,
                    fallback: Some(FallbackReason::Infeasible {
                        proven: phi1_bound == 0.0,
                    }),
                    unproven,
                });
            }
            // Even the exact solver has no packing (capacity
            // infeasibility). Equal-share allocates within the same
            // lattice, so it cannot succeed either — propagate the
            // primary failure.
            Err(RaError::NoFeasibleAllocation) => return Err(ServeError::Framework(message)),
            // The budget ran out before the solve reached any
            // allocation: equal-share below.
            Err(_) => {}
        }
    }
    match ImPolicy::Naive.allocate_with_engine(batch, platform, engine, deadline) {
        Ok(alloc) => Ok(AllocRun {
            alloc,
            fallback: Some(FallbackReason::Other),
            unproven: None,
        }),
        Err(_) => Err(ServeError::Framework(message)),
    }
}

fn wire_assignments(alloc: &Allocation) -> Vec<WireAssignment> {
    alloc
        .assignments()
        .iter()
        .map(|a| WireAssignment {
            proc_type: a.proc_type.0,
            procs: a.procs,
        })
        .collect()
}

/// The shard thread loop: block for one message, drain the queue into an
/// admission batch (stopping at [`ServeConfig::drain_limit`] or a control
/// message), serve it in arrival order — each reply leaves for its
/// connection's writer the moment it is computed — then handle the
/// control message. The admission arena and the per-batch coalescing set
/// are reused across batches, so a warm shard loop allocates nothing for
/// the batching itself. Exits on [`ShardMsg::Stop`] or a closed queue.
pub fn run_shard(core: &mut ShardCore, rx: &mpsc::Receiver<ShardMsg>) {
    let mut admitted: Vec<(Request, ReplyTo)> = Vec::new();
    let mut keys_built: HashSet<u64> = HashSet::new();
    loop {
        let Ok(first) = rx.recv() else { break };
        let mut control = None;
        match first {
            ShardMsg::Req(req, to) => admitted.push((req, to)),
            other => control = Some(other),
        }
        if control.is_none() {
            while admitted.len() < core.cfg.drain_limit {
                match rx.try_recv() {
                    Ok(ShardMsg::Req(req, to)) => admitted.push((req, to)),
                    Ok(other) => {
                        control = Some(other);
                        break;
                    }
                    Err(_) => break,
                }
            }
        }
        if !admitted.is_empty() {
            core.record_drain_depth(admitted.len());
            keys_built.clear();
            for (req, to) in admitted.drain(..) {
                let reply = core.serve_owned(req, &mut keys_built);
                to.send(reply);
            }
        }
        match control {
            Some(ShardMsg::Stats(tx)) => {
                let _ = tx.send(core.stats());
            }
            Some(ShardMsg::Stop) => break,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantEvent, WorkloadSpec};

    fn spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec::simple(3, 2, 6, seed)
    }

    fn submit(tenant: &str, seed: u64) -> Request {
        Request::Submit(SubmitRequest {
            tenant: tenant.to_string(),
            spec: spec(seed),
            deadline: 2_800.0,
            allocator: None,
            threshold: None,
            qos: None,
        })
    }

    fn test_cfg() -> ServeConfig {
        ServeConfig {
            build_threads: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for name in ["acme", "globex", "initech", "umbrella"] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards));
            }
        }
    }

    fn inject(tenant: &str, event: TenantEvent) -> Request {
        Request::Inject(crate::protocol::InjectRequest {
            tenant: tenant.to_string(),
            event,
        })
    }

    #[test]
    fn submit_then_inject_then_fingerprint() {
        let store = Arc::new(CellStore::new(4_096));
        let mut core = ShardCore::with_store(0, test_cfg(), Arc::clone(&store));
        let resp = core.handle(&submit("acme", 7));
        let Response::Submit(reply) = resp else {
            panic!("expected submit reply, got {resp:?}");
        };
        assert_eq!(reply.assignments.len(), 3);
        assert_eq!(reply.per_app_phi1.len(), 3);
        assert!((0.0..=1.0).contains(&reply.verdict.phi1));

        let before = store.stats();
        let degrade = TenantEvent::Degrade {
            proc_type: 0,
            factor: 0.5,
        };
        let resp = core.handle(&inject("acme", degrade));
        let Response::Inject(inj) = resp else {
            panic!("expected inject reply, got {resp:?}");
        };
        assert_ne!(inj.engine_key, reply.engine_key, "inputs changed");
        // Degrading type 0 leaves type 1 untouched: the rebuild takes
        // type 1's cells from the store and computes only type 0's.
        let after = store.stats();
        let (batch, platform) = spec(7).expand().unwrap();
        let cells = |j: usize| {
            let options = platform.pow2_options(cdsf_system::ProcTypeId(j)).unwrap();
            (batch.len() * options.len()) as u64
        };
        assert_eq!(after.hits - before.hits, cells(1));
        assert_eq!(after.misses - before.misses, cells(0));

        let resp = core.handle(&Request::Fingerprint {
            tenant: "acme".to_string(),
        });
        let Response::Fingerprint(fp) = resp else {
            panic!("expected fingerprint reply, got {resp:?}");
        };
        assert_eq!(fp.engine_key, inj.engine_key);

        let stats = core.stats();
        assert_eq!(stats.submits, 1);
        assert_eq!(stats.injects, 1);
        assert_eq!(stats.tenants, 1);
        // The submit and the inject ran the kernel; the fingerprint's
        // assembly found every cell in the store.
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));
        assert_eq!(stats.cache_rebuilds, 1);
    }

    #[test]
    fn repeat_submit_is_answered_before_any_engine_work() {
        // One spec, nine others, then the first again: the repeat's
        // answer is still in the allocation cache, so it assembles no
        // engine — neither the kernel nor the cell store is touched.
        let store = Arc::new(CellStore::new(4_096));
        let mut core = ShardCore::with_store(0, test_cfg(), Arc::clone(&store));
        let first = submit("acme", 100);
        let mut bytes = Vec::new();
        crate::protocol::encode_line(&mut bytes, &core.handle(&first)).unwrap();
        for seed in 101..110 {
            let resp = core.handle(&submit("acme", seed));
            assert!(matches!(resp, Response::Submit(_)), "{resp:?}");
        }
        let (before, store_before) = (core.stats(), store.stats());
        let mut repeat = Vec::new();
        crate::protocol::encode_line(&mut repeat, &core.handle(&first)).unwrap();
        let (after, store_after) = (core.stats(), store.stats());
        assert_eq!(
            (after.cache_misses, after.builds),
            (before.cache_misses, before.builds)
        );
        assert_eq!(after.cache_hits, before.cache_hits);
        assert_eq!(
            store_after, store_before,
            "the repeat touched the cell store"
        );
        assert_eq!(after.alloc_cache_hits, before.alloc_cache_hits + 1);
        assert!(repeat == bytes, "the repeat's reply bytes differ");
    }

    #[test]
    fn evicted_answer_is_reassembled_from_the_store() {
        // One spec, then enough others to push its answer out of the
        // allocation cache: the repeat assembles its engine again, but
        // every cell comes from the store — a hit, no kernel run, and the
        // first reply's bytes.
        let store = Arc::new(CellStore::new(4_096));
        let mut core = ShardCore::with_store(0, test_cfg(), Arc::clone(&store));
        let first = submit("acme", 200);
        let mut bytes = Vec::new();
        crate::protocol::encode_line(&mut bytes, &core.handle(&first)).unwrap();
        for seed in 201..=200 + FRONT_CACHE_CAPACITY as u64 {
            let resp = core.handle(&submit("acme", seed));
            assert!(matches!(resp, Response::Submit(_)), "{resp:?}");
        }
        let (before, store_before) = (core.stats(), store.stats());
        let mut repeat = Vec::new();
        crate::protocol::encode_line(&mut repeat, &core.handle(&first)).unwrap();
        let (after, store_after) = (core.stats(), store.stats());
        assert_eq!(after.alloc_cache_misses, before.alloc_cache_misses + 1);
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        assert_eq!(
            (after.cache_misses, after.builds),
            (before.cache_misses, before.builds)
        );
        assert_eq!(store_after.evictions, 0, "the store itself evicted");
        assert_eq!(
            store_after.misses, store_before.misses,
            "the repeat recomputed a cell"
        );
        assert!(store_after.hits > store_before.hits);
        assert!(repeat == bytes, "the reassembled reply's bytes differ");
    }

    #[test]
    fn inject_reaching_known_inputs_is_not_a_rebuild() {
        // Two tenants on one spec take the same degrade: the second
        // inject's inputs are the first's, so its answer comes from the
        // allocation cache — no assembly, no `cache_rebuilds`, same reply.
        let store = Arc::new(CellStore::new(4_096));
        let mut core = ShardCore::with_store(0, test_cfg(), Arc::clone(&store));
        for tenant in ["acme", "globex"] {
            let resp = core.handle(&submit(tenant, 7));
            assert!(matches!(resp, Response::Submit(_)), "{resp:?}");
        }
        let degrade = TenantEvent::Degrade {
            proc_type: 0,
            factor: 0.5,
        };
        let resp = core.handle(&inject("acme", degrade));
        let Response::Inject(first) = resp else {
            panic!("expected inject reply, got {resp:?}");
        };
        let (before, store_before) = (core.stats(), store.stats());
        assert_eq!(before.cache_rebuilds, 1);
        let resp = core.handle(&inject("globex", degrade));
        let Response::Inject(second) = resp else {
            panic!("expected inject reply, got {resp:?}");
        };
        let (after, store_after) = (core.stats(), store.stats());
        assert_eq!(after.injects, 2);
        assert_eq!(after.cache_rebuilds, 1);
        assert_eq!(
            (after.cache_hits, after.cache_misses, after.builds),
            (before.cache_hits, before.cache_misses, before.builds)
        );
        assert_eq!(
            store_after, store_before,
            "the second inject touched the cell store"
        );
        assert_eq!(after.alloc_cache_hits, before.alloc_cache_hits + 1);
        assert_eq!(second.engine_key, first.engine_key);
        assert_eq!(second.assignments, first.assignments);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&second.per_app_phi1), bits(&first.per_app_phi1));
        assert_eq!(second.verdict.phi1.to_bits(), first.verdict.phi1.to_bits());
    }

    #[test]
    fn inject_replies_do_not_depend_on_cache_state() {
        // Two tenants interleaved, served one request per admission batch
        // and all in one batch.
        let stream = vec![
            submit("acme", 7),
            submit("globex", 8),
            inject(
                "acme",
                TenantEvent::Degrade {
                    proc_type: 0,
                    factor: 0.5,
                },
            ),
            inject("globex", TenantEvent::Crash { proc_type: 1 }),
            inject("acme", TenantEvent::Drift { factor: 0.9 }),
            submit("globex", 8),
            inject(
                "globex",
                TenantEvent::Degrade {
                    proc_type: 1,
                    factor: 0.7,
                },
            ),
            inject("acme", TenantEvent::Crash { proc_type: 0 }),
        ];
        let serve = |one_batch: bool| -> Vec<u8> {
            let mut core = ShardCore::new(0, test_cfg());
            let replies = if one_batch {
                core.process_batch(&stream)
            } else {
                stream.iter().map(|r| core.handle(r)).collect()
            };
            let mut bytes = Vec::new();
            for reply in &replies {
                assert!(!matches!(reply, Response::Error { .. }), "{reply:?}");
                crate::protocol::encode_line(&mut bytes, reply).unwrap();
            }
            bytes
        };
        assert!(serve(true) == serve(false), "reply bytes differ");
    }

    #[test]
    fn same_spec_submits_coalesce_within_a_batch() {
        let mut core = ShardCore::new(0, test_cfg());
        let reqs: Vec<Request> = (0..4).map(|i| submit(&format!("tenant-{i}"), 42)).collect();
        let replies = core.process_batch(&reqs);
        assert_eq!(replies.len(), 4);
        let keys: Vec<u64> = replies
            .iter()
            .map(|r| match r {
                Response::Submit(s) => s.engine_key,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] == w[1]),
            "one engine serves all"
        );
        let stats = core.stats();
        assert_eq!(stats.builds, 1, "one build for four same-spec submits");
        assert_eq!(stats.coalesced, 3);
        assert!((core.stats().coalescing_factor() - 4.0).abs() < 1e-12);
        // The front caches shielded the repeats: one expansion, one
        // allocator run, three hits each.
        assert_eq!(stats.spec_cache_misses, 1);
        assert_eq!(stats.spec_cache_hits, 3);
        assert_eq!(stats.alloc_cache_misses, 1);
        assert_eq!(stats.alloc_cache_hits, 3);
    }

    #[test]
    fn coalesced_reply_is_bit_identical_to_serial() {
        let reqs: Vec<Request> = (0..3).map(|i| submit(&format!("t{i}"), 9)).collect();
        // Serial: every request in its own admission batch.
        let mut serial = ShardCore::new(0, test_cfg());
        let serial_replies: Vec<Response> = reqs.iter().map(|r| serial.handle(r)).collect();
        // Coalesced: all in one batch.
        let mut batched = ShardCore::new(0, test_cfg());
        let batched_replies = batched.process_batch(&reqs);
        for (a, b) in serial_replies.iter().zip(&batched_replies) {
            let (Response::Submit(a), Response::Submit(b)) = (a, b) else {
                panic!("unexpected reply shape");
            };
            assert_eq!(a.engine_key, b.engine_key);
            for (x, y) in a.per_app_phi1.iter().zip(&b.per_app_phi1) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.expected_times.iter().zip(&b.expected_times) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.verdict.phi1.to_bits(), b.verdict.phi1.to_bits());
            assert_eq!(a.assignments, b.assignments);
        }
    }

    #[test]
    fn warm_cached_reply_is_bit_identical_to_cold() {
        // The spec-expansion and allocation-result caches must be
        // invisible in the bytes: the same submit served cold (all
        // misses) and warm (all hits) produces identical replies.
        let mut core = ShardCore::new(0, test_cfg());
        let req = submit("acme", 1_234);
        let cold = core.handle(&req);
        let warm = core.handle(&req);
        let warm2 = core.handle(&req);
        let cold_bytes = serde_json::to_string(&cold).unwrap();
        assert_eq!(cold_bytes, serde_json::to_string(&warm).unwrap());
        assert_eq!(cold_bytes, serde_json::to_string(&warm2).unwrap());
        let stats = core.stats();
        assert_eq!(stats.spec_cache_misses, 1);
        assert_eq!(stats.alloc_cache_misses, 1);
        assert_eq!(stats.alloc_cache_hits, 2);
    }

    #[test]
    fn fallback_is_a_function_of_the_spec_not_the_shard() {
        // Satellite: the committed bench shows shard 0 with 949 fallbacks
        // vs shard 1 with 3 — that skew is tenant routing (which shard
        // *sees* the fallback-y spec), not shard-dependent behavior.
        // Serve the same requests on shards with different ids: replies
        // and fallback counters must be identical.
        let reqs: Vec<Request> = (0..24)
            .flat_map(|i| {
                vec![
                    submit(&format!("tenant-{i}"), 40 + (i % 6) as u64),
                    Request::Inject(crate::protocol::InjectRequest {
                        tenant: format!("tenant-{i}"),
                        event: TenantEvent::Degrade {
                            proc_type: 0,
                            factor: 0.5 + 0.01 * (i % 5) as f64,
                        },
                    }),
                ]
            })
            .collect();
        let mut shard0 = ShardCore::new(0, test_cfg());
        let mut shard7 = ShardCore::new(7, test_cfg());
        let replies0 = shard0.process_batch(&reqs);
        let replies7 = shard7.process_batch(&reqs);
        assert_eq!(
            serde_json::to_string(&replies0).unwrap(),
            serde_json::to_string(&replies7).unwrap(),
            "shard id leaked into replies"
        );
        let (s0, s7) = (shard0.stats(), shard7.stats());
        assert_eq!(s0.alloc_fallbacks, s7.alloc_fallbacks);
        assert_eq!(s0.alloc_fallbacks_infeasible, s7.alloc_fallbacks_infeasible);
        assert_eq!(
            s0.alloc_fallbacks_infeasible_proven,
            s7.alloc_fallbacks_infeasible_proven
        );
        assert_eq!(s0.alloc_fallbacks_other, s7.alloc_fallbacks_other);
        // Every fallback is accounted to exactly one reason, and every
        // infeasibility claim is adjudicated one way or the other.
        assert_eq!(
            s0.alloc_fallbacks,
            s0.alloc_fallbacks_infeasible + s0.alloc_fallbacks_other
        );
        assert_eq!(
            s0.alloc_fallbacks_infeasible,
            s0.alloc_fallbacks_infeasible_proven + s0.alloc_fallbacks_infeasible_heuristic
        );
    }

    #[test]
    fn exact_solvers_answer_the_same_at_any_build_width() {
        // `lattice` and the guaranteed tier's Γ-robust solver run at the
        // shard's `build_threads`; their root split merges in order, so
        // the width never shows in a reply. The deadlines cover a positive
        // optimum, a zero one (the lattice's second phase) and a
        // guaranteed-tier rejection.
        let replies = |build_threads: usize| {
            let mut core = ShardCore::new(
                0,
                ServeConfig {
                    build_threads,
                    ..ServeConfig::default()
                },
            );
            let mut bytes = Vec::new();
            for (seed, deadline) in [(7, 2_800.0), (11, 2_800.0), (7, 1.0e-6), (11, 1.0e9)] {
                for (allocator, qos) in [(Some("lattice"), None), (None, Some("guaranteed"))] {
                    let req = Request::Submit(SubmitRequest {
                        tenant: format!("t{seed}"),
                        spec: WorkloadSpec::simple(6, 3, 6, seed),
                        deadline,
                        allocator: allocator.map(str::to_string),
                        threshold: None,
                        qos: qos.map(str::to_string),
                    });
                    crate::protocol::encode_line(&mut bytes, &core.handle(&req)).unwrap();
                }
            }
            bytes
        };
        let serial = replies(1);
        assert!(
            std::str::from_utf8(&serial).unwrap().contains("tightest"),
            "the hopeless deadline must reach the guaranteed tier's rejection"
        );
        assert_eq!(serial, replies(4));
    }

    #[test]
    fn guaranteed_qos_stamps_tier_or_rejects_with_tightest_deadline() {
        let mut core = ShardCore::new(0, test_cfg());
        // A generous deadline: the Γ-robust solver certifies positive
        // worst-case φ₁ and the reply carries the tier stamp.
        let resp = core.handle(&Request::Submit(SubmitRequest {
            tenant: "acme".to_string(),
            spec: spec(7),
            deadline: 1.0e9,
            allocator: None,
            threshold: None,
            qos: Some("guaranteed".to_string()),
        }));
        let Response::Submit(reply) = resp else {
            panic!("expected submit reply, got {resp:?}");
        };
        assert_eq!(reply.verdict.guaranteed_tier, Some(true));
        assert!(reply.verdict.phi1 > 0.0);
        // A hopeless deadline: rejected with the infeasibility proof —
        // the tightest feasible deadline — never served best-effort.
        let resp = core.handle(&Request::Submit(SubmitRequest {
            tenant: "acme".to_string(),
            spec: spec(7),
            deadline: 1.0e-6,
            allocator: None,
            threshold: None,
            qos: Some("guaranteed".to_string()),
        }));
        let Response::Error { message } = resp else {
            panic!("expected rejection, got {resp:?}");
        };
        assert!(message.contains("tightest"), "{message}");
        assert_eq!(
            core.stats().alloc_fallbacks,
            0,
            "rejections never fall back"
        );
        // Unknown tiers are protocol errors.
        let resp = core.handle(&Request::Submit(SubmitRequest {
            tenant: "acme".to_string(),
            spec: spec(7),
            deadline: 2_800.0,
            allocator: None,
            threshold: None,
            qos: Some("platinum".to_string()),
        }));
        let Response::Error { message } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.contains("qos"), "{message}");
    }

    #[test]
    fn probabilistic_qos_is_the_default_tier() {
        // `qos: probabilistic` must be byte-identical to omitting it.
        let mut a = ShardCore::new(0, test_cfg());
        let mut b = ShardCore::new(0, test_cfg());
        let explicit = b.handle(&Request::Submit(SubmitRequest {
            tenant: "acme".to_string(),
            spec: spec(5),
            deadline: 2_800.0,
            allocator: None,
            threshold: None,
            qos: Some("probabilistic".to_string()),
        }));
        let implicit = a.handle(&submit("acme", 5));
        assert_eq!(
            serde_json::to_string(&implicit).unwrap(),
            serde_json::to_string(&explicit).unwrap()
        );
    }

    #[test]
    fn infeasible_claims_are_adjudicated_by_the_exact_solver() {
        // A deadline no allocation can meet: the heuristic's fallback is
        // served from the lattice's best-effort optimum under a *proof*,
        // and the proven counter (not the heuristic one) records it.
        let mut core = ShardCore::new(0, test_cfg());
        let resp = core.handle(&Request::Submit(SubmitRequest {
            tenant: "acme".to_string(),
            spec: spec(7),
            deadline: 1.0e-6,
            allocator: Some("greedy-min-time".to_string()),
            threshold: None,
            qos: None,
        }));
        let stats = core.stats();
        if stats.alloc_fallbacks_infeasible > 0 {
            let Response::Submit(reply) = resp else {
                panic!("probabilistic tier still serves best-effort, got {resp:?}");
            };
            assert_eq!(reply.verdict.phi1, 0.0);
            assert_eq!(stats.alloc_fallbacks_infeasible_proven, 1);
            assert_eq!(stats.alloc_fallbacks_infeasible_heuristic, 0);
        } else {
            // The heuristic allocated without erroring; nothing to prove.
            assert!(matches!(resp, Response::Submit(_)));
        }
    }

    fn submit_with(spec: WorkloadSpec, deadline: f64, allocator: Option<&str>) -> Request {
        Request::Submit(SubmitRequest {
            tenant: "acme".to_string(),
            spec,
            deadline,
            allocator: allocator.map(str::to_string),
            threshold: None,
            qos: None,
        })
    }

    #[test]
    fn metaheuristic_names_are_answered_by_the_lattice() {
        let mut core = ShardCore::new(0, test_cfg());
        let bytes = |core: &mut ShardCore, allocator| {
            let resp = core.handle(&submit_with(spec(3), 2_800.0, Some(allocator)));
            assert!(matches!(resp, Response::Submit(_)), "{allocator}: {resp:?}");
            serde_json::to_string(&resp).unwrap()
        };
        let lattice = bytes(&mut core, "lattice");
        for allocator in ["sa", "annealing", "ga", "genetic", "robust", "exhaustive"] {
            assert_eq!(bytes(&mut core, allocator), lattice, "{allocator}");
        }
        // One solve per name, and the `sa`/`annealing` ones still count.
        let stats = core.stats();
        assert_eq!(stats.alloc_cache_misses, 7);
        assert_eq!(stats.sa_multistart_runs, 2);
        assert_eq!(stats.alloc_budget_exhausted, 0);
        // A warm repeat is served from the result cache — no second run.
        assert_eq!(bytes(&mut core, "sa"), lattice);
        assert_eq!(core.stats().sa_multistart_runs, 2);
    }

    #[test]
    fn plateau_submits_are_answered_within_the_node_budget() {
        // Sixteen applications on a platform where nearly every
        // allocation reaches φ₁ ≈ 1 at this deadline: the unbudgeted
        // lattice held a shard for seconds deciding the ties. Sufferage
        // (the default) claims infeasibility and the fallback's solve runs
        // out of budget, as does the solve a request naming `sa` runs.
        // Both replies say so, and each counts once.
        let plateau = WorkloadSpec::simple(16, 3, 8, 7);
        for (allocator, fallbacks) in [(None, 1), (Some("sa"), 0)] {
            let mut core = ShardCore::new(0, test_cfg());
            let resp = core.handle(&submit_with(plateau.clone(), 30_000.0, allocator));
            let Response::Submit(reply) = resp else {
                panic!("{allocator:?}: expected a submit reply, got {resp:?}");
            };
            let unproven = reply.unproven.expect("the budget runs out");
            assert_eq!(unproven.nodes, Lattice::NODE_BUDGET + 1, "{allocator:?}");
            assert!(unproven.phi1_bound >= reply.verdict.phi1, "{allocator:?}");
            let stats = core.stats();
            assert_eq!(stats.alloc_budget_exhausted, 1, "{allocator:?}");
            assert_eq!(
                stats.alloc_fallbacks_infeasible_heuristic, fallbacks,
                "{allocator:?}: {stats:?}"
            );
        }
    }

    #[test]
    fn unpackable_metaheuristic_submits_are_refused_and_the_shard_keeps_serving() {
        let mut core = ShardCore::new(0, test_cfg());
        // 64 applications on 41 processors: no allocation fits. The
        // lattice that answers `sa` and `ga` refuses it at the root.
        for allocator in ["sa", "ga"] {
            let resp = core.handle(&Request::Submit(SubmitRequest {
                tenant: "acme".to_string(),
                spec: WorkloadSpec::simple(64, 2, 4, 0),
                deadline: 2_800.0,
                allocator: Some(allocator.to_string()),
                threshold: None,
                qos: None,
            }));
            let Response::Error { message } = resp else {
                panic!("{allocator}: expected an error reply, got {resp:?}");
            };
            assert!(message.contains("no feasible allocation"), "{message}");
        }
        let resp = core.handle(&submit("acme", 7));
        assert!(matches!(resp, Response::Submit(_)), "{resp:?}");
    }

    #[test]
    fn drain_depths_land_in_log2_buckets() {
        let mut core = ShardCore::new(0, test_cfg());
        for depth in [1, 2, 3, 4, 7, 8, 127, 128, 4096] {
            core.record_drain_depth(depth);
        }
        assert_eq!(core.stats().drain_depths, vec![1, 2, 2, 1, 0, 0, 1, 2]);
    }

    #[test]
    fn snapshot_restore_round_trip_is_byte_identical() {
        let mut a = ShardCore::new(0, test_cfg());
        a.handle(&submit("acme", 5));
        a.handle(&Request::Inject(crate::protocol::InjectRequest {
            tenant: "acme".to_string(),
            event: TenantEvent::Drift { factor: 0.8 },
        }));
        let Response::Snapshot { snapshot } = a.handle(&Request::Snapshot {
            tenant: "acme".to_string(),
        }) else {
            panic!("expected snapshot");
        };
        let Response::Fingerprint(before) = a.handle(&Request::Fingerprint {
            tenant: "acme".to_string(),
        }) else {
            panic!("expected fingerprint");
        };

        // "Crash": a brand-new shard restores from the snapshot (via JSON,
        // as the wire would carry it).
        let json = serde_json::to_string(&snapshot).unwrap();
        let snapshot: TenantSnapshot = serde_json::from_str(&json).unwrap();
        let mut b = ShardCore::new(0, test_cfg());
        let Response::Restored(rest) = b.handle(&Request::Restore { snapshot }) else {
            panic!("expected restore reply");
        };
        assert_eq!(rest.engine_key, before.engine_key);
        assert_eq!(
            rest.fingerprint, before.fingerprint,
            "tables byte-identical"
        );
    }

    #[test]
    fn unknown_tenant_and_allocator_are_protocol_errors() {
        let mut core = ShardCore::new(0, test_cfg());
        let resp = core.handle(&Request::Inject(crate::protocol::InjectRequest {
            tenant: "ghost".to_string(),
            event: TenantEvent::Drift { factor: 0.9 },
        }));
        assert!(matches!(resp, Response::Error { .. }));
        let resp = core.handle(&Request::Submit(SubmitRequest {
            tenant: "acme".to_string(),
            spec: spec(1),
            deadline: 2_800.0,
            allocator: Some("no-such-policy".to_string()),
            threshold: None,
            qos: None,
        }));
        assert!(matches!(resp, Response::Error { .. }));
        assert_eq!(core.stats().errors, 2);
    }

    #[test]
    fn submits_outside_the_admitted_domain_are_refused_before_any_work() {
        let mut core = ShardCore::new(0, test_cfg());
        let with = |deadline: f64, threshold: Option<f64>, qos: Option<&str>| {
            Request::Submit(SubmitRequest {
                tenant: "acme".to_string(),
                spec: spec(1),
                deadline,
                allocator: None,
                threshold,
                qos: qos.map(str::to_string),
            })
        };
        let cases = [
            (with(0.0, None, None), "deadline"),
            (with(f64::NAN, None, None), "deadline"),
            (with(f64::INFINITY, None, None), "deadline"),
            (with(2_800.0, Some(0.0), None), "threshold"),
            (with(2_800.0, Some(1.5), None), "threshold"),
            (with(2_800.0, Some(f64::NAN), None), "threshold"),
            (with(2_800.0, None, Some("platinum")), "qos"),
        ];
        for (req, needle) in &cases {
            match core.handle(req) {
                Response::Error { message } => {
                    assert!(message.contains(needle), "{message:?} missing {needle:?}")
                }
                other => panic!("expected an error, got {other:?}"),
            }
        }
        let stats = core.stats();
        assert_eq!(stats.errors, cases.len() as u64);
        assert_eq!((stats.submits, stats.tenants), (0, 0));
        assert_eq!(stats.spec_cache_misses, 0, "nothing was expanded");
    }

    #[test]
    fn snapshot_and_fingerprint_of_an_unknown_tenant_are_errors() {
        let mut core = ShardCore::new(0, test_cfg());
        for req in [
            Request::Snapshot {
                tenant: "ghost".to_string(),
            },
            Request::Fingerprint {
                tenant: "ghost".to_string(),
            },
        ] {
            assert!(matches!(core.handle(&req), Response::Error { .. }));
        }
        assert_eq!(core.stats().errors, 2);
    }

    #[test]
    fn normalization_lifts_every_zero_knob_to_one() {
        let cfg = ServeConfig {
            shards: 0,
            build_threads: 0,
            drain_limit: 0,
            cell_store_capacity: 0,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(
            (
                cfg.shards,
                cfg.build_threads,
                cfg.drain_limit,
                cfg.cell_store_capacity
            ),
            (1, 1, 1, 1)
        );
        let kept = ServeConfig {
            shards: 3,
            drain_limit: 7,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!((kept.shards, kept.drain_limit), (3, 7));
    }

    #[test]
    fn a_threshold_is_usable_only_in_the_half_open_unit_interval() {
        for t in [f64::MIN_POSITIVE, 0.5, 1.0] {
            assert!(ServeConfig::threshold_ok(t), "{t}");
        }
        for t in [0.0, -0.5, 1.0 + f64::EPSILON, f64::NAN, f64::INFINITY] {
            assert!(!ServeConfig::threshold_ok(t), "{t}");
        }
    }
}
