//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, answered in request
//! order per connection. The encoding is the workspace's vendored
//! `serde`/`serde_json` pair with `float_roundtrip`, so every `f64`
//! survives the wire bit-exactly — the same property that makes the
//! event log byte-replayable makes snapshots transported through this
//! protocol restore to byte-identical engine state.
//!
//! Submissions carry an optional `qos` tier: `probabilistic` (the
//! default — maximize the joint deadline probability φ₁) or
//! `guaranteed` (the Γ-robust tier — the allocation must keep positive
//! worst-case φ₁ when up to Γ processor types degrade; a request whose
//! deadline is *proven* unachievable is rejected with the tightest
//! feasible deadline in the error detail rather than served
//! best-effort). The [`RobustVerdict::guaranteed_tier`] slot, reserved
//! since schema v1, is populated on guaranteed-tier replies.

use crate::tenant::{TenantEvent, TenantSnapshot, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::{BufRead, Write};

/// A client request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Submit a batch-scheduling workload: allocate, score, verdict.
    Submit(SubmitRequest),
    /// Inject a fault/drift event into a tenant's live workload and
    /// reactively remap, assembling the post-event engine from the shared
    /// cell store unless the shard already holds the remap's answer.
    Inject(InjectRequest),
    /// Capture a tenant's full durable state.
    Snapshot {
        /// The tenant to snapshot.
        tenant: String,
    },
    /// Re-create a tenant from a snapshot (possibly on a fresh server).
    Restore {
        /// The state to restore.
        snapshot: TenantSnapshot,
    },
    /// Digest of the tenant's current Stage-I engine tables.
    Fingerprint {
        /// The tenant to fingerprint.
        tenant: String,
    },
    /// Service-wide counters, aggregated across shards.
    Stats,
    /// Stop accepting connections and shut the shards down cleanly.
    Shutdown,
}

impl Request {
    /// The tenant this request must be routed by, if it is tenant-scoped.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Submit(r) => Some(&r.tenant),
            Request::Inject(r) => Some(&r.tenant),
            Request::Snapshot { tenant } | Request::Fingerprint { tenant } => Some(tenant),
            Request::Restore { snapshot } => Some(&snapshot.tenant),
            Request::Stats | Request::Shutdown => None,
        }
    }
}

/// `Submit`: schedule a seeded synthetic workload for a tenant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant identity (shard routing key).
    pub tenant: String,
    /// The workload, as a deterministic generator spec.
    pub spec: WorkloadSpec,
    /// Common deadline Δ.
    pub deadline: f64,
    /// Stage-I allocator name (`sufferage`, `greedy-max-robust`, `sa`,
    /// …); the server default when absent.
    pub allocator: Option<String>,
    /// φ₁ level above which the verdict reports `robust`; the server
    /// default when absent.
    pub threshold: Option<f64>,
    /// QoS tier: `"probabilistic"` (default) serves the named
    /// allocator's best φ₁ allocation; `"guaranteed"` routes through the
    /// Γ-robust solver and *rejects* (with the tightest feasible
    /// deadline) instead of serving a deadline proven unachievable.
    /// Absent on v1 clients — defaults to probabilistic.
    #[serde(default)]
    pub qos: Option<String>,
}

/// `Inject`: a disruption to an already-submitted tenant workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InjectRequest {
    /// Tenant identity (shard routing key).
    pub tenant: String,
    /// What happened.
    pub event: TenantEvent,
}

/// One `(processor type, power-of-two count)` assignment on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireAssignment {
    /// Processor-type index.
    pub proc_type: usize,
    /// Processors assigned (a power of two).
    pub procs: u32,
}

/// The per-request robustness verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustVerdict {
    /// Joint deadline probability `φ₁ = Π_i Pr(T_i ≤ Δ)`.
    pub phi1: f64,
    /// The level `phi1` was judged against.
    pub threshold: f64,
    /// `phi1 ≥ threshold`.
    pub robust: bool,
    /// Worst-case feasibility under the budgeted availability
    /// uncertainty set: `Some(true)` on guaranteed-tier replies (the
    /// Γ-robust solver proved positive worst-case φ₁ — infeasible
    /// guaranteed requests are rejected, never answered `Some(false)`),
    /// `None` on probabilistic-tier replies.
    pub guaranteed_tier: Option<bool>,
}

/// Reply to [`Request::Submit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitReply {
    /// Echoed tenant.
    pub tenant: String,
    /// Input fingerprint of the engine that served this request.
    pub engine_key: u64,
    /// The Stage-I allocation, one assignment per application.
    pub assignments: Vec<WireAssignment>,
    /// Per-application `Pr(T_i ≤ Δ)` under the allocation.
    pub per_app_phi1: Vec<f64>,
    /// Per-application expected completion times.
    pub expected_times: Vec<f64>,
    /// The verdict (joint φ₁ and threshold call).
    pub verdict: RobustVerdict,
}

/// Reply to [`Request::Inject`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InjectReply {
    /// Echoed tenant.
    pub tenant: String,
    /// Input fingerprint of the rebuilt engine.
    pub engine_key: u64,
    /// The post-event reactive allocation.
    pub assignments: Vec<WireAssignment>,
    /// Per-application `Pr(T_i ≤ Δ)` under the new allocation.
    pub per_app_phi1: Vec<f64>,
    /// The post-event verdict.
    pub verdict: RobustVerdict,
}

/// Reply to [`Request::Restore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RestoreReply {
    /// Echoed tenant.
    pub tenant: String,
    /// Input fingerprint of the restored engine.
    pub engine_key: u64,
    /// Digest of the restored engine's tables (equal to the digest the
    /// snapshotted server would report — restores are bit-exact).
    pub fingerprint: u64,
}

/// Reply to [`Request::Fingerprint`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FingerprintReply {
    /// Echoed tenant.
    pub tenant: String,
    /// Input fingerprint of the tenant's current engine.
    pub engine_key: u64,
    /// Digest of the engine's tables ([`cdsf_ra::Phi1Engine::table_fingerprint`]).
    pub fingerprint: u64,
}

/// Why an allocation fell back from the requested heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The requested heuristic reported `NoFeasibleAllocation`. The
    /// shard adjudicates the claim with the exact lattice solver:
    /// `proven` records whether the instance really admits no
    /// positive-φ₁ allocation (a property of the spec/deadline) or the
    /// heuristic merely painted itself into a corner on a feasible
    /// instance.
    Infeasible {
        /// `true`: the exact solver confirmed infeasibility; `false`:
        /// a feasible allocation exists and was served instead.
        proven: bool,
    },
    /// Any other Stage-I failure the fallback absorbed.
    Other,
}

/// Log₂ buckets of the admission batch-depth histogram
/// ([`ShardStats::drain_depths`]): 1, 2–3, 4–7, 8–15, 16–31, 32–63,
/// 64–127, ≥128.
pub const DRAIN_DEPTH_BUCKETS: usize = 8;

/// One shard's counters.
///
/// `Serialize`/`Deserialize` are hand-written (the vendored serde
/// stand-in's derive cannot express skip-if-`None`): the `shard` field is
/// *omitted* — not `null` — on the totals row, and every counter added
/// after schema v1 defaults to zero/empty when absent, so v1 payloads
/// still parse.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index; `None` on the aggregated totals row.
    pub shard: Option<u64>,
    /// Tenants resident on this shard.
    pub tenants: u64,
    /// `Submit` requests served.
    pub submits: u64,
    /// `Inject` requests served.
    pub injects: u64,
    /// `Snapshot` requests served.
    pub snapshots: u64,
    /// `Restore` requests served.
    pub restores: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Allocations that fell back to equal-share after the requested
    /// heuristic found no feasible packing.
    pub alloc_fallbacks: u64,
    /// Fallbacks whose primary failure was `NoFeasibleAllocation` —
    /// a property of the spec/deadline, never of the serving shard.
    /// Always `alloc_fallbacks_infeasible_proven +
    /// alloc_fallbacks_infeasible_heuristic`.
    pub alloc_fallbacks_infeasible: u64,
    /// Infeasibility claims the exact lattice solver *confirmed*: no
    /// allocation of the instance reaches positive φ₁ at the deadline.
    pub alloc_fallbacks_infeasible_proven: u64,
    /// Infeasibility claims the exact solver *refuted*: a feasible
    /// allocation existed and was served in place of the heuristic's.
    pub alloc_fallbacks_infeasible_heuristic: u64,
    /// Fallbacks absorbed for any other Stage-I failure.
    pub alloc_fallbacks_other: u64,
    /// Spec-expansion cache hits (submission reused an expanded
    /// `(batch, platform, key)` triple without regenerating it).
    pub spec_cache_hits: u64,
    /// Spec-expansion cache misses (fresh generator run + input hash).
    pub spec_cache_misses: u64,
    /// Allocation-result cache hits: `(engine key, deadline bits,
    /// allocator)` seen before, so no allocator or evaluator ran at all.
    pub alloc_cache_hits: u64,
    /// Allocation-result cache misses (the allocator actually ran).
    pub alloc_cache_misses: u64,
    /// Admission batch-depth histogram in log₂ buckets
    /// ([`DRAIN_DEPTH_BUCKETS`]): how many requests each queue drain
    /// coalesced into one batch.
    pub drain_depths: Vec<u64>,
    /// Pooled multi-start SA runs this shard executed.
    pub sa_multistart_runs: u64,
    /// Wins per SA restart-chain index (`sa_restart_wins[c]` counts runs
    /// chain `c` won) — evidence the extra restarts earn their keep.
    pub sa_restart_wins: Vec<u64>,
    /// Engine assemblies whose every cell came from the shared cell store
    /// (no kernel ran). Submits and injects assemble only on an
    /// allocation-cache miss; restores and fingerprints always do.
    pub cache_hits: u64,
    /// Engine assemblies that ran the build kernel for at least one cell.
    pub cache_misses: u64,
    /// Injects whose engine assembly ran the kernel (a subset of
    /// `cache_misses`).
    pub cache_rebuilds: u64,
    /// Submits, injects and restores that ran no kernel for an engine key
    /// an earlier request of the *same admission batch* built — they
    /// found its cached answer or its interned cells: the work one kernel
    /// run absorbed on behalf of its whole group.
    pub coalesced: u64,
    /// Engine assemblies for submits, injects and restores that ran the
    /// kernel (`cache_misses` less the fingerprints').
    pub builds: u64,
    /// Work-stealing pool runs absorbed by this shard's assemblies (one
    /// per assembly, tasks or none).
    pub pool_runs: u64,
    /// Pool tasks executed, summed over runs and workers.
    pub pool_tasks_run: u64,
    /// Pool chunks stolen, summed over runs and workers.
    pub pool_chunks_stolen: u64,
}

impl ShardStats {
    /// Folds another shard's counters into this one (used for the
    /// service-wide totals row; `shard` keeps `self`'s).
    pub fn merge(&mut self, other: &ShardStats) {
        fn merge_hist(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        self.tenants += other.tenants;
        self.submits += other.submits;
        self.injects += other.injects;
        self.snapshots += other.snapshots;
        self.restores += other.restores;
        self.errors += other.errors;
        self.alloc_fallbacks += other.alloc_fallbacks;
        self.alloc_fallbacks_infeasible += other.alloc_fallbacks_infeasible;
        self.alloc_fallbacks_infeasible_proven += other.alloc_fallbacks_infeasible_proven;
        self.alloc_fallbacks_infeasible_heuristic += other.alloc_fallbacks_infeasible_heuristic;
        self.alloc_fallbacks_other += other.alloc_fallbacks_other;
        self.spec_cache_hits += other.spec_cache_hits;
        self.spec_cache_misses += other.spec_cache_misses;
        self.alloc_cache_hits += other.alloc_cache_hits;
        self.alloc_cache_misses += other.alloc_cache_misses;
        merge_hist(&mut self.drain_depths, &other.drain_depths);
        self.sa_multistart_runs += other.sa_multistart_runs;
        merge_hist(&mut self.sa_restart_wins, &other.sa_restart_wins);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_rebuilds += other.cache_rebuilds;
        self.coalesced += other.coalesced;
        self.builds += other.builds;
        self.pool_runs += other.pool_runs;
        self.pool_tasks_run += other.pool_tasks_run;
        self.pool_chunks_stolen += other.pool_chunks_stolen;
    }

    /// Share of engine assemblies served entirely from the cell store
    /// (`0.0` before any assembly).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Requests served per kernel-running engine build (`1.0` before any
    /// build): the admission layer's coalescing factor.
    pub fn coalescing_factor(&self) -> f64 {
        if self.builds == 0 {
            1.0
        } else {
            (self.builds + self.coalesced) as f64 / self.builds as f64
        }
    }
}

impl Serialize for ShardStats {
    fn to_content(&self) -> serde::Content {
        let mut m: Vec<(String, serde::Content)> = Vec::with_capacity(27);
        // Omitted entirely (not `null`) on the totals row.
        if let Some(id) = self.shard {
            m.push(("shard".to_string(), id.to_content()));
        }
        m.push(("tenants".to_string(), self.tenants.to_content()));
        m.push(("submits".to_string(), self.submits.to_content()));
        m.push(("injects".to_string(), self.injects.to_content()));
        m.push(("snapshots".to_string(), self.snapshots.to_content()));
        m.push(("restores".to_string(), self.restores.to_content()));
        m.push(("errors".to_string(), self.errors.to_content()));
        m.push((
            "alloc_fallbacks".to_string(),
            self.alloc_fallbacks.to_content(),
        ));
        m.push((
            "alloc_fallbacks_infeasible".to_string(),
            self.alloc_fallbacks_infeasible.to_content(),
        ));
        m.push((
            "alloc_fallbacks_infeasible_proven".to_string(),
            self.alloc_fallbacks_infeasible_proven.to_content(),
        ));
        m.push((
            "alloc_fallbacks_infeasible_heuristic".to_string(),
            self.alloc_fallbacks_infeasible_heuristic.to_content(),
        ));
        m.push((
            "alloc_fallbacks_other".to_string(),
            self.alloc_fallbacks_other.to_content(),
        ));
        m.push((
            "spec_cache_hits".to_string(),
            self.spec_cache_hits.to_content(),
        ));
        m.push((
            "spec_cache_misses".to_string(),
            self.spec_cache_misses.to_content(),
        ));
        m.push((
            "alloc_cache_hits".to_string(),
            self.alloc_cache_hits.to_content(),
        ));
        m.push((
            "alloc_cache_misses".to_string(),
            self.alloc_cache_misses.to_content(),
        ));
        m.push(("drain_depths".to_string(), self.drain_depths.to_content()));
        m.push((
            "sa_multistart_runs".to_string(),
            self.sa_multistart_runs.to_content(),
        ));
        m.push((
            "sa_restart_wins".to_string(),
            self.sa_restart_wins.to_content(),
        ));
        m.push(("cache_hits".to_string(), self.cache_hits.to_content()));
        m.push(("cache_misses".to_string(), self.cache_misses.to_content()));
        m.push((
            "cache_rebuilds".to_string(),
            self.cache_rebuilds.to_content(),
        ));
        m.push(("coalesced".to_string(), self.coalesced.to_content()));
        m.push(("builds".to_string(), self.builds.to_content()));
        m.push(("pool_runs".to_string(), self.pool_runs.to_content()));
        m.push((
            "pool_tasks_run".to_string(),
            self.pool_tasks_run.to_content(),
        ));
        m.push((
            "pool_chunks_stolen".to_string(),
            self.pool_chunks_stolen.to_content(),
        ));
        serde::Content::Map(m)
    }
}

impl Deserialize for ShardStats {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let serde::Content::Map(entries) = content else {
            return Err(serde::DeError::custom(format!(
                "expected map for ShardStats, got {content:?}"
            )));
        };
        // Every counter defaults when absent, so schema-v1 payloads
        // (no histograms, no per-reason fallbacks) still parse.
        fn get<T: Deserialize + Default>(
            entries: &[(String, serde::Content)],
            name: &str,
        ) -> Result<T, serde::DeError> {
            match serde::__field(entries, name) {
                Some(c) => T::from_content(c),
                None => Ok(T::default()),
            }
        }
        Ok(ShardStats {
            shard: get(entries, "shard")?,
            tenants: get(entries, "tenants")?,
            submits: get(entries, "submits")?,
            injects: get(entries, "injects")?,
            snapshots: get(entries, "snapshots")?,
            restores: get(entries, "restores")?,
            errors: get(entries, "errors")?,
            alloc_fallbacks: get(entries, "alloc_fallbacks")?,
            alloc_fallbacks_infeasible: get(entries, "alloc_fallbacks_infeasible")?,
            alloc_fallbacks_infeasible_proven: get(entries, "alloc_fallbacks_infeasible_proven")?,
            alloc_fallbacks_infeasible_heuristic: get(
                entries,
                "alloc_fallbacks_infeasible_heuristic",
            )?,
            alloc_fallbacks_other: get(entries, "alloc_fallbacks_other")?,
            spec_cache_hits: get(entries, "spec_cache_hits")?,
            spec_cache_misses: get(entries, "spec_cache_misses")?,
            alloc_cache_hits: get(entries, "alloc_cache_hits")?,
            alloc_cache_misses: get(entries, "alloc_cache_misses")?,
            drain_depths: get(entries, "drain_depths")?,
            sa_multistart_runs: get(entries, "sa_multistart_runs")?,
            sa_restart_wins: get(entries, "sa_restart_wins")?,
            cache_hits: get(entries, "cache_hits")?,
            cache_misses: get(entries, "cache_misses")?,
            cache_rebuilds: get(entries, "cache_rebuilds")?,
            coalesced: get(entries, "coalesced")?,
            builds: get(entries, "builds")?,
            pool_runs: get(entries, "pool_runs")?,
            pool_tasks_run: get(entries, "pool_tasks_run")?,
            pool_chunks_stolen: get(entries, "pool_chunks_stolen")?,
        })
    }
}

/// Reply-path codec counters, aggregated over every connection writer.
/// The pre-pipeline data plane paid one `String` allocation and one
/// socket flush per reply; after it, `reply_frames` replies were encoded
/// into retained per-connection buffers (`reply_frames` Strings saved)
/// and drained in `flushes` flushes (`reply_frames - flushes` syscall
/// round-trips saved).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CodecStats {
    /// Reply bytes written (JSON lines, newline included).
    pub reply_bytes: u64,
    /// Reply frames encoded into retained buffers.
    pub reply_frames: u64,
    /// Socket flushes issued (one per drained burst, not per reply).
    pub flushes: u64,
}

/// Reply to [`Request::Stats`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsReply {
    /// Worker shards configured.
    pub shards: u64,
    /// Per-shard counters, shard-index order.
    pub per_shard: Vec<ShardStats>,
    /// The sum across shards.
    pub total: ShardStats,
    /// Reply-codec counters across all connection writers.
    #[serde(default)]
    pub codec: CodecStats,
    /// Content-addressed cell store counters — one store is shared by
    /// every shard, so these are service-wide, not per shard.
    #[serde(default)]
    pub cell_store: cdsf_ra::CellStoreStats,
}

/// A server response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Answer to `Submit`.
    Submit(SubmitReply),
    /// Answer to `Inject`.
    Inject(InjectReply),
    /// Answer to `Snapshot`.
    Snapshot {
        /// The captured state.
        snapshot: TenantSnapshot,
    },
    /// Answer to `Restore`.
    Restored(RestoreReply),
    /// Answer to `Fingerprint`.
    Fingerprint(FingerprintReply),
    /// Answer to `Stats`.
    Stats(StatsReply),
    /// Answer to `Shutdown` — the last line the server writes.
    Bye,
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// A borrowed, serialize-only view of the hot [`Response`] variants.
///
/// Variant and field names mirror [`Response`] exactly, and the vendored
/// `serde_json` emits identical bytes for a borrowed `&str`/slice and its
/// owned counterpart — so `encode_line(buf, &view)` produces the same
/// line `encode_line(buf, &response)` would, without ever cloning the
/// tenant id, error message, or result vectors into an owned `Response`.
/// The server's own data plane gets zero-clone replies by *moving* owned
/// strings out of the request; this view is for encoders that only hold
/// borrows (in-process embedders, benches, golden tests).
#[derive(Debug)]
pub enum ResponseView<'a> {
    /// Borrowed form of [`Response::Submit`].
    Submit(SubmitReplyView<'a>),
    /// Borrowed form of [`Response::Error`].
    Error {
        /// Human-readable cause.
        message: Cow<'a, str>,
    },
}

/// Borrowed form of [`SubmitReply`]: same field names, identical bytes.
#[derive(Debug)]
pub struct SubmitReplyView<'a> {
    /// Echoed tenant.
    pub tenant: Cow<'a, str>,
    /// Input fingerprint of the engine that served this request.
    pub engine_key: u64,
    /// The Stage-I allocation, one assignment per application.
    pub assignments: &'a [WireAssignment],
    /// Per-application `Pr(T_i ≤ Δ)` under the allocation.
    pub per_app_phi1: &'a [f64],
    /// Per-application expected completion times.
    pub expected_times: &'a [f64],
    /// The verdict (joint φ₁ and threshold call).
    pub verdict: &'a RobustVerdict,
}

// The stand-in derive does not take lifetime-generic types, so the views
// spell out the same external conventions the derive uses: newtype
// variant -> single-entry object, struct variant -> single-entry object
// of a field map, fields in declaration order.
impl Serialize for ResponseView<'_> {
    fn to_content(&self) -> serde::Content {
        match self {
            ResponseView::Submit(v) => {
                serde::Content::Map(vec![("Submit".to_string(), v.to_content())])
            }
            ResponseView::Error { message } => serde::Content::Map(vec![(
                "Error".to_string(),
                serde::Content::Map(vec![("message".to_string(), message.as_ref().to_content())]),
            )]),
        }
    }
}

impl Serialize for SubmitReplyView<'_> {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("tenant".to_string(), self.tenant.as_ref().to_content()),
            ("engine_key".to_string(), self.engine_key.to_content()),
            ("assignments".to_string(), self.assignments.to_content()),
            ("per_app_phi1".to_string(), self.per_app_phi1.to_content()),
            (
                "expected_times".to_string(),
                self.expected_times.to_content(),
            ),
            ("verdict".to_string(), self.verdict.to_content()),
        ])
    }
}

/// Serializes one message as a JSON line appended to `buf` (no flush, no
/// intermediate `String`). Callers that retain `buf` across calls pay
/// zero allocations per line once the buffer has grown to the working
/// line length; the bytes are identical to `serde_json::to_string` + `\n`
/// (`to_writer` and `to_string` share one serializer).
pub fn encode_line<T: Serialize>(buf: &mut Vec<u8>, msg: &T) -> std::io::Result<()> {
    serde_json::to_writer(&mut *buf, msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    buf.push(b'\n');
    Ok(())
}

/// Writes one message as a JSON line and flushes it — the lockstep
/// (request/reply) convenience used by [`crate::Client`] and tests. The
/// pipelined server writer uses [`encode_line`] into a retained buffer
/// with one flush per burst instead.
pub fn write_line<T: Serialize, W: Write>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(256);
    encode_line(&mut buf, msg)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one JSON line into the caller's retained `line` buffer;
/// `Ok(None)` on a clean EOF. Reusing `line` across calls keeps the
/// read path allocation-free in steady state.
pub fn read_line_into<T: serde::Deserialize, R: BufRead>(
    r: &mut R,
    line: &mut String,
) -> std::io::Result<Option<Result<T, String>>> {
    loop {
        line.clear();
        if r.read_line(line)? == 0 {
            return Ok(None);
        }
        if !line.trim().is_empty() {
            break;
        }
    }
    Ok(Some(
        serde_json::from_str(line.trim()).map_err(|e| e.to_string()),
    ))
}

/// Reads one JSON line; `Ok(None)` on a clean EOF.
pub fn read_line<T: serde::Deserialize, R: BufRead>(
    r: &mut R,
) -> std::io::Result<Option<Result<T, String>>> {
    let mut line = String::new();
    read_line_into(r, &mut line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json_lines() {
        let reqs = vec![
            Request::Submit(SubmitRequest {
                tenant: "acme".into(),
                spec: WorkloadSpec::simple(4, 3, 8, 42),
                deadline: 2_800.0,
                allocator: Some("sufferage".into()),
                threshold: None,
                qos: Some("guaranteed".into()),
            }),
            Request::Inject(InjectRequest {
                tenant: "acme".into(),
                event: TenantEvent::Degrade {
                    proc_type: 1,
                    factor: 0.5,
                },
            }),
            Request::Snapshot {
                tenant: "acme".into(),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_line(&mut buf, r).unwrap();
        }
        let mut rd = std::io::BufReader::new(buf.as_slice());
        let mut back = Vec::new();
        while let Some(parsed) = read_line::<Request, _>(&mut rd).unwrap() {
            back.push(parsed.expect("parses"));
        }
        assert_eq!(back.len(), reqs.len());
        match (&back[0], &reqs[0]) {
            (Request::Submit(a), Request::Submit(b)) => {
                assert_eq!(a.tenant, b.tenant);
                assert_eq!(a.spec.seed, b.spec.seed);
                assert_eq!(a.deadline.to_bits(), b.deadline.to_bits());
                assert_eq!(a.allocator, b.allocator);
                assert!(a.threshold.is_none());
                assert_eq!(a.qos, b.qos);
            }
            _ => panic!("variant changed in transit"),
        }
        assert!(matches!(back[4], Request::Shutdown));
    }

    #[test]
    fn v1_submit_without_qos_still_parses() {
        // A pre-QoS client's payload (no `qos` key) must keep parsing,
        // defaulting to the probabilistic tier.
        let line = r#"{"Submit":{"tenant":"acme","spec":{"apps":3,"types":2,"pulses":6,"seed":1},"deadline":2800.0,"allocator":null,"threshold":null}}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        let Request::Submit(s) = req else {
            panic!("expected submit");
        };
        assert_eq!(s.qos, None);
    }

    #[test]
    fn encode_line_matches_write_line_bytes() {
        let resp = Response::Submit(SubmitReply {
            tenant: "acme".into(),
            engine_key: 0xDEAD_BEEF,
            assignments: vec![WireAssignment {
                proc_type: 1,
                procs: 4,
            }],
            per_app_phi1: vec![0.25, 0.1 + 0.2], // non-representable bits
            expected_times: vec![1_234.567_89],
            verdict: RobustVerdict {
                phi1: 0.075,
                threshold: 0.8,
                robust: false,
                guaranteed_tier: None,
            },
        });
        let mut via_write = Vec::new();
        write_line(&mut via_write, &resp).unwrap();
        let mut via_encode = Vec::with_capacity(8); // forces regrowth
        encode_line(&mut via_encode, &resp).unwrap();
        assert_eq!(via_write, via_encode);
        // A retained buffer appends, preserving earlier lines.
        encode_line(&mut via_encode, &resp).unwrap();
        assert_eq!(via_encode.len(), 2 * via_write.len());
    }

    #[test]
    fn borrowed_response_view_serializes_byte_identically() {
        let owned = Response::Submit(SubmitReply {
            tenant: "tenant-007".into(),
            engine_key: 42,
            assignments: vec![
                WireAssignment {
                    proc_type: 0,
                    procs: 2,
                },
                WireAssignment {
                    proc_type: 2,
                    procs: 1,
                },
            ],
            per_app_phi1: vec![0.9, 0.99],
            expected_times: vec![100.5, 7.0 / 3.0],
            verdict: RobustVerdict {
                phi1: 0.891,
                threshold: 0.8,
                robust: true,
                guaranteed_tier: None,
            },
        });
        let Response::Submit(reply) = &owned else {
            unreachable!()
        };
        let view = ResponseView::Submit(SubmitReplyView {
            tenant: Cow::Borrowed(&reply.tenant),
            engine_key: reply.engine_key,
            assignments: &reply.assignments,
            per_app_phi1: &reply.per_app_phi1,
            expected_times: &reply.expected_times,
            verdict: &reply.verdict,
        });
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_line(&mut a, &owned).unwrap();
        encode_line(&mut b, &view).unwrap();
        assert_eq!(a, b, "borrowed view changed the wire bytes");

        let owned_err = Response::Error {
            message: "bad request line: trailing garbage".into(),
        };
        let view_err = ResponseView::Error {
            message: Cow::Borrowed("bad request line: trailing garbage"),
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_line(&mut a, &owned_err).unwrap();
        encode_line(&mut b, &view_err).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn totals_row_omits_the_shard_field() {
        let mut total = ShardStats::default();
        total.merge(&ShardStats {
            shard: Some(0),
            submits: 3,
            drain_depths: vec![1, 2],
            sa_restart_wins: vec![0, 1, 0, 0],
            ..ShardStats::default()
        });
        total.merge(&ShardStats {
            shard: Some(1),
            submits: 4,
            drain_depths: vec![5],
            sa_restart_wins: vec![2],
            ..ShardStats::default()
        });
        assert_eq!(total.shard, None);
        assert_eq!(total.submits, 7);
        assert_eq!(total.drain_depths, vec![6, 2]);
        assert_eq!(total.sa_restart_wins, vec![2, 1, 0, 0]);
        let json = serde_json::to_string(&total).unwrap();
        assert!(
            !json.contains("18446744073709551615") && !json.contains("\"shard\""),
            "totals row must not serialize a shard id: {json}"
        );
        // Old v1 payloads (no histograms, numeric shard) still parse.
        let back: ShardStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard, None);
        let per_shard: ShardStats = serde_json::from_str(
            &serde_json::to_string(&ShardStats {
                shard: Some(3),
                ..ShardStats::default()
            })
            .unwrap(),
        )
        .unwrap();
        assert_eq!(per_shard.shard, Some(3));
    }

    #[test]
    fn verdict_keeps_reserved_tier_slot() {
        let v = RobustVerdict {
            phi1: 0.91,
            threshold: 0.8,
            robust: true,
            guaranteed_tier: None,
        };
        let json = serde_json::to_string(&v).unwrap();
        let back: RobustVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(back.phi1.to_bits(), v.phi1.to_bits());
        assert!(back.guaranteed_tier.is_none());
    }
}
