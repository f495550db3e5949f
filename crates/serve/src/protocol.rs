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
use cdsf_ra::Unproven;
use serde::{Deserialize, Serialize};
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
    /// Stage-I allocator name (`sufferage`, `greedy-max-robust`,
    /// `lattice`, …); the server default when absent.
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
    /// Present only when the lattice's node budget ran out before it
    /// proved the allocation optimal: the nodes it visited and its bound
    /// on φ₁.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub unproven: Option<Unproven>,
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
    /// As [`SubmitReply::unproven`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub unproven: Option<Unproven>,
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

/// How a counter folds into the totals row: a `u64` adds, a `Vec<u64>`
/// histogram adds bucket by bucket (the shorter padded with zeros).
trait Merge {
    fn merge(&mut self, other: &Self);
}

impl Merge for u64 {
    fn merge(&mut self, other: &u64) {
        *self += other;
    }
}

impl Merge for Vec<u64> {
    fn merge(&mut self, other: &Vec<u64>) {
        if self.len() < other.len() {
            self.resize(other.len(), 0);
        }
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }
}

/// A wire field that may be absent: it parses to its default, so
/// payloads written before a counter existed still parse.
fn field_or_default<T: Deserialize + Default>(
    entries: &[(String, serde::Content)],
    name: &str,
) -> Result<T, serde::DeError> {
    match serde::__field(entries, name) {
        Some(c) => T::from_content(c),
        None => Ok(T::default()),
    }
}

/// Declares [`ShardStats`] from one list of counters. Each entry's doc,
/// name and type give the public field, its term in
/// [`ShardStats::merge`], its wire key (in declaration order, after
/// `shard`) and its defaulting parse, so adding a counter is one entry.
/// `Serialize`/`Deserialize` are generated here rather than derived
/// because the vendored derive cannot omit a `None`: the totals row
/// leaves `shard` out entirely instead of writing `null`.
macro_rules! shard_stats {
    ($($(#[doc = $doc:literal])* $name:ident: $ty:ty,)*) => {
        /// One shard's counters.
        ///
        /// The totals row of a [`StatsReply`] is the [`merge`] of the
        /// per-shard rows and omits the `shard` key. Every counter is
        /// optional on the wire, so schema-v1 payloads still parse.
        ///
        /// [`merge`]: ShardStats::merge
        #[derive(Debug, Clone, Default)]
        pub struct ShardStats {
            /// Shard index; `None` on the aggregated totals row.
            pub shard: Option<u64>,
            $($(#[doc = $doc])* pub $name: $ty,)*
        }

        impl ShardStats {
            /// Folds another shard's counters into this one (used for the
            /// service-wide totals row; `shard` keeps `self`'s).
            pub fn merge(&mut self, other: &ShardStats) {
                $(Merge::merge(&mut self.$name, &other.$name);)*
            }
        }

        impl Serialize for ShardStats {
            fn to_content(&self) -> serde::Content {
                let mut m = Vec::new();
                if let Some(id) = self.shard {
                    m.push(("shard".to_string(), id.to_content()));
                }
                $(m.push((stringify!($name).to_string(), self.$name.to_content()));)*
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
                Ok(ShardStats {
                    shard: field_or_default(entries, "shard")?,
                    $($name: field_or_default(entries, stringify!($name))?,)*
                })
            }
        }
    };
}

shard_stats! {
    /// Tenants resident on this shard.
    tenants: u64,
    /// `Submit` requests served.
    submits: u64,
    /// `Inject` requests served.
    injects: u64,
    /// `Snapshot` requests served.
    snapshots: u64,
    /// `Restore` requests served.
    restores: u64,
    /// Requests answered with an error.
    errors: u64,
    /// Answers carrying a fallback, cached answers included: the
    /// requested heuristic claimed infeasibility and the exact lattice
    /// optimum was served, or another Stage-I failure fell back to
    /// equal-share. Always `alloc_fallbacks_infeasible +
    /// alloc_fallbacks_other`.
    alloc_fallbacks: u64,
    /// Fallbacks whose primary failure was `NoFeasibleAllocation` —
    /// a property of the spec/deadline, never of the serving shard.
    /// Always `alloc_fallbacks_infeasible_proven +
    /// alloc_fallbacks_infeasible_heuristic`.
    alloc_fallbacks_infeasible: u64,
    /// Infeasibility claims the exact lattice solver *confirmed*: no
    /// allocation of the instance reaches positive φ₁ at the deadline.
    alloc_fallbacks_infeasible_proven: u64,
    /// Infeasibility claims the exact solver *refuted*: a feasible
    /// allocation existed and was served in place of the heuristic's.
    alloc_fallbacks_infeasible_heuristic: u64,
    /// Fallbacks to equal-share for any other Stage-I failure.
    alloc_fallbacks_other: u64,
    /// Spec-expansion cache hits (submission reused an expanded
    /// `(batch, platform, key)` triple without regenerating it).
    spec_cache_hits: u64,
    /// Spec-expansion cache misses (fresh generator run + input hash).
    spec_cache_misses: u64,
    /// Allocation-result cache hits: `(engine key, deadline bits,
    /// allocator)` seen before, so no allocator or evaluator ran at all.
    alloc_cache_hits: u64,
    /// Allocation-result cache misses (the allocator actually ran).
    alloc_cache_misses: u64,
    /// Admission batch-depth histogram in log₂ buckets
    /// ([`DRAIN_DEPTH_BUCKETS`]): how many requests each queue drain
    /// coalesced into one batch.
    drain_depths: Vec<u64>,
    /// Stage-I solves for requests naming `sa` or `annealing`. The shard
    /// answers them with the lattice's anytime solve; the counter keeps
    /// its name for the readers that look it up.
    sa_multistart_runs: u64,
    /// Answers whose anytime lattice solve ran out of its node budget
    /// before proving them optimal, cached answers included: the replies
    /// that carry `unproven`.
    alloc_budget_exhausted: u64,
    /// Engine assemblies whose every cell came from the shared cell store
    /// (no kernel ran). Submits and injects assemble only on an
    /// allocation-cache miss; restores and fingerprints always do.
    cache_hits: u64,
    /// Engine assemblies that ran the build kernel for at least one cell.
    cache_misses: u64,
    /// Injects whose engine assembly ran the kernel (a subset of
    /// `cache_misses`).
    cache_rebuilds: u64,
    /// Submits, injects and restores that ran no kernel for an engine key
    /// an earlier request of the *same admission batch* built — they
    /// found its cached answer or its interned cells: the work one kernel
    /// run absorbed on behalf of its whole group.
    coalesced: u64,
    /// Engine assemblies for submits, injects and restores that ran the
    /// kernel (`cache_misses` less the fingerprints').
    builds: u64,
    /// Work-stealing pool runs absorbed by this shard's assemblies (one
    /// per assembly, tasks or none).
    pool_runs: u64,
    /// Pool tasks executed, summed over runs and workers.
    pool_tasks_run: u64,
    /// Pool chunks stolen, summed over runs and workers.
    pool_chunks_stolen: u64,
}

impl ShardStats {
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
            unproven: None,
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

    /// A per-shard row whose every counter is distinct: counter `i` of
    /// the declaration reads `k + i`.
    fn distinct_row(shard: u64, k: u64, drain_depths: Vec<u64>) -> ShardStats {
        ShardStats {
            shard: Some(shard),
            tenants: k + 1,
            submits: k + 2,
            injects: k + 3,
            snapshots: k + 4,
            restores: k + 5,
            errors: k + 6,
            alloc_fallbacks: k + 7,
            alloc_fallbacks_infeasible: k + 8,
            alloc_fallbacks_infeasible_proven: k + 9,
            alloc_fallbacks_infeasible_heuristic: k + 10,
            alloc_fallbacks_other: k + 11,
            spec_cache_hits: k + 12,
            spec_cache_misses: k + 13,
            alloc_cache_hits: k + 14,
            alloc_cache_misses: k + 15,
            drain_depths,
            sa_multistart_runs: k + 17,
            alloc_budget_exhausted: k + 18,
            cache_hits: k + 19,
            cache_misses: k + 20,
            cache_rebuilds: k + 21,
            coalesced: k + 22,
            builds: k + 23,
            pool_runs: k + 24,
            pool_tasks_run: k + 25,
            pool_chunks_stolen: k + 26,
        }
    }

    /// The encoded `Stats` reply of [`totals_row_omits_the_shard_field`],
    /// recorded from the hand-written serializer the counter declaration
    /// replaced. Every reader of `Stats` looks its keys up by name.
    const STATS_LINE: &str = concat!(
        r#"{"Stats":{"shards":2,"per_shard":[{"shard":0,"tenants":101,"submits":102,"#,
        r#""injects":103,"snapshots":104,"restores":105,"errors":106,"alloc_fallbacks":107,"#,
        r#""alloc_fallbacks_infeasible":108,"alloc_fallbacks_infeasible_proven":109,"#,
        r#""alloc_fallbacks_infeasible_heuristic":110,"alloc_fallbacks_other":111,"#,
        r#""spec_cache_hits":112,"spec_cache_misses":113,"alloc_cache_hits":114,"#,
        r#""alloc_cache_misses":115,"drain_depths":[131,132,133],"sa_multistart_runs":117,"#,
        r#""alloc_budget_exhausted":118,"cache_hits":119,"cache_misses":120,"cache_rebuilds":121,"#,
        r#""coalesced":122,"builds":123,"pool_runs":124,"pool_tasks_run":125,"#,
        r#""pool_chunks_stolen":126},"#,
        r#"{"shard":1,"tenants":201,"submits":202,"#,
        r#""injects":203,"snapshots":204,"restores":205,"errors":206,"alloc_fallbacks":207,"#,
        r#""alloc_fallbacks_infeasible":208,"alloc_fallbacks_infeasible_proven":209,"#,
        r#""alloc_fallbacks_infeasible_heuristic":210,"alloc_fallbacks_other":211,"#,
        r#""spec_cache_hits":212,"spec_cache_misses":213,"alloc_cache_hits":214,"#,
        r#""alloc_cache_misses":215,"drain_depths":[231,232,233,234],"sa_multistart_runs":217,"#,
        r#""alloc_budget_exhausted":218,"cache_hits":219,"cache_misses":220,"#,
        r#""cache_rebuilds":221,"coalesced":222,"builds":223,"pool_runs":224,"#,
        r#""pool_tasks_run":225,"pool_chunks_stolen":226}],"#,
        r#""total":{"tenants":302,"submits":304,"#,
        r#""injects":306,"snapshots":308,"restores":310,"errors":312,"alloc_fallbacks":314,"#,
        r#""alloc_fallbacks_infeasible":316,"alloc_fallbacks_infeasible_proven":318,"#,
        r#""alloc_fallbacks_infeasible_heuristic":320,"alloc_fallbacks_other":322,"#,
        r#""spec_cache_hits":324,"spec_cache_misses":326,"alloc_cache_hits":328,"#,
        r#""alloc_cache_misses":330,"drain_depths":[362,364,366,234],"sa_multistart_runs":334,"#,
        r#""alloc_budget_exhausted":336,"cache_hits":338,"cache_misses":340,"#,
        r#""cache_rebuilds":342,"coalesced":344,"builds":346,"pool_runs":348,"#,
        r#""pool_tasks_run":350,"pool_chunks_stolen":352},"#,
        r#""codec":{"reply_bytes":901,"reply_frames":902,"flushes":903},"#,
        r#""cell_store":{"hits":911,"misses":912,"verify_rejects":913,"insertions":914,"#,
        r#""evictions":915,"resident":916,"capacity":917}}}"#,
        "\n"
    );

    #[test]
    fn totals_row_omits_the_shard_field() {
        // A row with a shorter histogram merged after a longer one (a
        // default row's `drain_depths` is empty) keeps the tail.
        let mut total = ShardStats::default();
        total.merge(&ShardStats {
            shard: Some(0),
            submits: 3,
            drain_depths: vec![1, 2],
            ..ShardStats::default()
        });
        total.merge(&ShardStats {
            shard: Some(1),
            submits: 4,
            drain_depths: vec![5],
            ..ShardStats::default()
        });
        total.merge(&ShardStats {
            shard: Some(2),
            ..ShardStats::default()
        });
        assert_eq!(total.shard, None);
        assert_eq!(total.submits, 7);
        assert_eq!(total.drain_depths, vec![6, 2]);

        let per_shard = vec![
            distinct_row(0, 100, vec![131, 132, 133]),
            distinct_row(1, 200, vec![231, 232, 233, 234]),
        ];
        let mut total = ShardStats::default();
        for row in &per_shard {
            total.merge(row);
        }
        assert_eq!(total.shard, None);
        assert_eq!(total.submits, 304);
        assert_eq!(total.drain_depths, vec![362, 364, 366, 234]);
        let reply = Response::Stats(StatsReply {
            shards: 2,
            per_shard,
            total: total.clone(),
            codec: CodecStats {
                reply_bytes: 901,
                reply_frames: 902,
                flushes: 903,
            },
            cell_store: cdsf_ra::CellStoreStats {
                hits: 911,
                misses: 912,
                verify_rejects: 913,
                insertions: 914,
                evictions: 915,
                resident: 916,
                capacity: 917,
            },
        });
        let mut line = Vec::new();
        encode_line(&mut line, &reply).unwrap();
        let line = String::from_utf8(line).unwrap();
        assert_eq!(line, STATS_LINE, "the Stats wire bytes changed");

        // Only the per-shard rows carry `shard`; every other key of the
        // totals row is the sum of the rows, bucket by bucket for the
        // histograms.
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let rows = v["Stats"]["per_shard"].as_array().unwrap();
        let totals = v["Stats"]["total"].as_object().unwrap();
        assert!(rows.iter().all(|r| r.get("shard").is_some()));
        let row_keys: Vec<&String> = rows[0]
            .as_object()
            .unwrap()
            .keys()
            .filter(|k| *k != "shard")
            .collect();
        assert_eq!(totals.keys().collect::<Vec<_>>(), row_keys);
        for (key, value) in totals.iter() {
            if let Some(sum) = value.as_u64() {
                let rows_sum: u64 = rows.iter().map(|r| r[key.as_str()].as_u64().unwrap()).sum();
                assert_eq!(sum, rows_sum, "{key}");
            } else {
                let buckets = |r: &serde_json::Value| -> Vec<u64> {
                    let a = r
                        .as_array()
                        .unwrap_or_else(|| panic!("{key}: not a histogram"));
                    a.iter().map(|b| b.as_u64().unwrap()).collect()
                };
                let mut rows_sum = Vec::new();
                for row in rows {
                    let b = buckets(&row[key.as_str()]);
                    rows_sum.resize(rows_sum.len().max(b.len()), 0);
                    rows_sum.iter_mut().zip(&b).for_each(|(s, x)| *s += x);
                }
                assert_eq!(buckets(value), rows_sum, "{key}");
            }
        }

        // Every key of a per-shard row may be absent: the row still
        // parses, with exactly that field at its default.
        let Response::Stats(stats) = &reply else {
            unreachable!()
        };
        let serde::Content::Map(full) = stats.per_shard[0].to_content() else {
            panic!("a row is a map");
        };
        let serde::Content::Map(defaults) = ShardStats::default().to_content() else {
            panic!("a row is a map");
        };
        for (i, (key, _)) in full.iter().enumerate() {
            let mut dropped = full.clone();
            dropped.remove(i);
            let parsed = ShardStats::from_content(&serde::Content::Map(dropped))
                .unwrap_or_else(|e| panic!("without `{key}`: {e}"));
            let mut expected = full.clone();
            match defaults.iter().find(|(k, _)| k == key) {
                Some((_, default)) => expected[i].1 = default.clone(),
                None => {
                    expected.remove(i);
                }
            }
            assert_eq!(parsed.to_content(), serde::Content::Map(expected), "{key}");
        }

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
    fn unproven_is_written_only_when_present() {
        let reply = |unproven| {
            Response::Inject(InjectReply {
                tenant: "acme".into(),
                engine_key: 7,
                assignments: vec![],
                per_app_phi1: vec![0.5],
                verdict: RobustVerdict {
                    phi1: 0.5,
                    threshold: 0.8,
                    robust: false,
                    guaranteed_tier: None,
                },
                unproven,
            })
        };
        let proven = serde_json::to_string(&reply(None)).unwrap();
        assert_eq!(
            proven,
            r#"{"Inject":{"tenant":"acme","engine_key":7,"assignments":[],"per_app_phi1":[0.5],"verdict":{"phi1":0.5,"threshold":0.8,"robust":false,"guaranteed_tier":null}}}"#
        );
        let cut = Unproven {
            nodes: 32_769,
            phi1_bound: 0.75,
        };
        let unproven = serde_json::to_string(&reply(Some(cut))).unwrap();
        assert_eq!(
            unproven,
            proven.replace(
                "null}}}",
                r#"null},"unproven":{"nodes":32769,"phi1_bound":0.75}}}"#
            )
        );
        for (json, want) in [(&proven, None), (&unproven, Some(cut))] {
            let Response::Inject(back) = serde_json::from_str(json).unwrap() else {
                panic!("expected an inject reply");
            };
            assert_eq!(back.unproven, want);
        }
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

    #[test]
    fn every_tenant_scoped_request_names_its_tenant() {
        let spec = WorkloadSpec::simple(2, 2, 5, 1);
        let (batch, platform) = spec.expand().unwrap();
        let snapshot = TenantSnapshot {
            tenant: "restored".into(),
            spec: spec.clone(),
            deadline: 2_800.0,
            allocator: "lattice".into(),
            threshold: 0.8,
            batch,
            platform,
            events_applied: 0,
        };
        let scoped = [
            (
                Request::Submit(SubmitRequest {
                    tenant: "submitted".into(),
                    spec,
                    deadline: 2_800.0,
                    allocator: None,
                    threshold: None,
                    qos: None,
                }),
                "submitted",
            ),
            (
                Request::Inject(InjectRequest {
                    tenant: "injected".into(),
                    event: TenantEvent::Drift { factor: 0.9 },
                }),
                "injected",
            ),
            (
                Request::Snapshot {
                    tenant: "snapped".into(),
                },
                "snapped",
            ),
            (Request::Restore { snapshot }, "restored"),
            (
                Request::Fingerprint {
                    tenant: "printed".into(),
                },
                "printed",
            ),
        ];
        for (req, tenant) in &scoped {
            assert_eq!(req.tenant(), Some(*tenant));
        }
        assert_eq!(Request::Stats.tenant(), None);
        assert_eq!(Request::Shutdown.tenant(), None);
    }

    #[test]
    fn derived_rates_read_neutral_values_before_any_work() {
        let idle = ShardStats::default();
        assert_eq!(idle.cache_hit_rate(), 0.0);
        assert_eq!(idle.coalescing_factor(), 1.0);
        let busy = ShardStats {
            cache_hits: 3,
            cache_misses: 1,
            builds: 2,
            coalesced: 6,
            ..ShardStats::default()
        };
        assert_eq!(busy.cache_hit_rate(), 0.75);
        assert_eq!(busy.coalescing_factor(), 4.0);
    }

    #[test]
    fn read_line_skips_blank_lines_and_ends_cleanly_at_eof() {
        let mut buf = b"\n   \n".to_vec();
        encode_line(&mut buf, &Request::Stats).unwrap();
        buf.extend_from_slice(b"\n\t\n");
        let mut rd = std::io::BufReader::new(buf.as_slice());
        let mut line = String::new();
        let first = read_line_into::<Request, _>(&mut rd, &mut line).unwrap();
        assert!(matches!(first, Some(Ok(Request::Stats))));
        assert!(read_line_into::<Request, _>(&mut rd, &mut line)
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_malformed_line_is_reported_and_the_next_one_still_reads() {
        let mut buf = b"{\"Submit\": 3}\n".to_vec();
        encode_line(&mut buf, &Request::Shutdown).unwrap();
        let mut rd = std::io::BufReader::new(buf.as_slice());
        let bad = read_line::<Request, _>(&mut rd).unwrap();
        assert!(matches!(bad, Some(Err(_))), "{bad:?}");
        let good = read_line::<Request, _>(&mut rd).unwrap();
        assert!(matches!(good, Some(Ok(Request::Shutdown))));
    }

    #[test]
    fn stats_from_a_reply_without_codec_or_store_counters_read_as_zero() {
        let line = r#"{"shards":1,"per_shard":[],"total":{}}"#;
        let reply: StatsReply = serde_json::from_str(line).unwrap();
        assert_eq!(reply.shards, 1);
        assert_eq!(reply.codec.reply_frames, 0);
        assert_eq!(reply.codec.flushes, 0);
        assert_eq!(reply.total.submits, 0);
        assert!(reply.total.shard.is_none());
    }
}
