//! `cdsf-serve` — the CDSF scheduling framework as a long-running,
//! multi-tenant network service.
//!
//! The batch pipeline (workload → Stage-I allocation → φ₁ verdict →
//! reactive remap on events) is exposed over a newline-delimited JSON
//! protocol on a plain `std::net` TCP socket: no async runtime, no
//! external server dependencies. Architecture:
//!
//! * **Thread-per-shard.** Tenants hash across `N` worker shards
//!   ([`shard::shard_of`]); each shard owns its tenants and its front
//!   caches outright, so shards lock only inside the one content-addressed
//!   [`cdsf_ra::CellStore`] they share.
//! * **One reuse path in front of Stage I.** A shard answers from its
//!   spec-expansion and allocation-result caches before touching an
//!   engine; only an allocation-cache miss (or a `Restore` or
//!   `Fingerprint`) assembles one, from the cell store, running the build
//!   kernel only for cells no earlier build interned. In the stats an
//!   assembly is a `cache_hits` hit when every cell came from the store
//!   and a `cache_misses` miss when the kernel ran; `cache_rebuilds`
//!   counts the injects whose assembly ran it.
//! * **Admission coalescing.** A shard drains its queue into an
//!   admission batch; queued requests wanting the same engine (same
//!   workload-spec bits) share one kernel run. Replies are bit-identical
//!   to serial handling — every reuse tier serves exactly the bits a
//!   cold computation would produce.
//! * **Byte-exact snapshots.** [`Request::Snapshot`] captures a
//!   tenant's evolved inputs through the vendored
//!   `serde_json`/`float_roundtrip` path; restoring on a fresh server
//!   and rebuilding yields byte-identical engine tables, verified by
//!   [`cdsf_ra::Phi1Engine::table_fingerprint`].
//! * **Replayable load generation.** [`loadgen`] replays a seeded
//!   synthetic multi-tenant stream (tenants / requests / skew /
//!   fault-rate) against a server and reports latency percentiles,
//!   throughput, cache hit rate, and the coalescing factor.
//!
//! ```no_run
//! use cdsf_serve::{Client, Request, Server, ServeConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let reply = client.request(&Request::Stats)?;
//! # let _ = reply;
//! # std::io::Result::Ok(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod tenant;

pub use error::{Result, ServeError};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{
    FingerprintReply, InjectReply, Request, Response, RestoreReply, RobustVerdict, ShardStats,
    StatsReply, SubmitReply, SubmitRequest, WireAssignment,
};
pub use server::{Client, Router, Server};
pub use shard::{shard_of, ServeConfig, ShardCore};
pub use tenant::{TenantEvent, TenantSnapshot, WorkloadSpec};
