//! Replayable load generation against a running service.
//!
//! The stream is a pure function of [`LoadgenConfig`]: tenants are drawn
//! from a Zipf-like skew, each tenant cycles a small pool of workload
//! specs (so the front caches see realistic re-submission), and faults
//! arrive as Degrade/Drift injections at a configurable rate. Replaying
//! the same config therefore issues byte-identical request lines — only
//! the measured latencies differ between runs.
//!
//! Per-tenant ordering is preserved by pinning every tenant to one
//! client connection (`tenant index mod connections`), mirroring how the
//! server pins tenants to shards; an `Inject` can never overtake the
//! `Submit` that must precede it.

use crate::error::{Result, ServeError};
use crate::protocol::{Request, Response, StatsReply, SubmitRequest};
use crate::server::{Client, Server};
use crate::shard::ServeConfig;
use crate::tenant::{TenantEvent, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::net::ToSocketAddrs;
use std::time::Instant;

/// A seeded synthetic tenant stream.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Distinct tenants (the ISSUE floor for a benchmark run is 4).
    pub tenants: usize,
    /// Total requests to replay (the benchmark floor is 10 000).
    pub requests: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Stream seed — same seed, same request bytes.
    pub seed: u64,
    /// Zipf exponent for tenant popularity (0 = uniform).
    pub skew: f64,
    /// Fraction of requests that inject a fault/drift event.
    pub fault_rate: f64,
    /// Fraction of requests that snapshot a tenant.
    pub snapshot_rate: f64,
    /// Workload specs each tenant cycles through (re-submission →
    /// front-cache hits; distinct specs → engine assemblies).
    pub specs_per_tenant: usize,
    /// Globally shared specs (popular "template" workloads).
    pub shared_specs: usize,
    /// Fraction of submissions drawing from the shared pool — the source
    /// of cross-tenant cell-store hits and same-batch coalescing.
    pub shared_rate: f64,
    /// Probability that each application in a generated spec is drawn
    /// from a *shared app catalog* instead of seeded privately. Zero
    /// (the default) keeps the legacy whole-spec seeding; anything
    /// positive switches every spec to per-app seeds on a common
    /// platform, so specs that differ as wholes still share individual
    /// applications — the cross-tenant interning the service-wide
    /// cell store exists for.
    pub catalog_overlap: f64,
    /// Fraction of submissions naming an explicit Stage-I policy instead
    /// of the server default, split evenly between the pooled
    /// multi-start annealer (`sa`) and the exact branch-and-bound
    /// (`lattice`) — so a replay exercises both solver paths and their
    /// counters (`sa_multistart_runs`, per-policy cache keys).
    pub policy_mix: f64,
    /// Common deadline Δ for every submission.
    pub deadline: f64,
    /// Requests each connection keeps in flight (1 = lockstep). The
    /// pipelined server answers in request order, so per-tenant ordering
    /// is untouched; only the transport dead time changes.
    pub pipeline: usize,
    /// Warm-up replies discarded from the latency distribution (spread
    /// across connections, rounded up per connection). They still count
    /// toward `ok`/`errors` and throughput — the discard only keeps
    /// cold-cache builds out of the percentiles.
    pub warmup: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            tenants: 6,
            requests: 10_000,
            connections: 4,
            seed: 42,
            skew: 1.0,
            fault_rate: 0.05,
            snapshot_rate: 0.01,
            specs_per_tenant: 3,
            shared_specs: 2,
            shared_rate: 0.3,
            catalog_overlap: 0.0,
            policy_mix: 0.2,
            deadline: 2_800.0,
            pipeline: 16,
            warmup: 200,
        }
    }
}

impl LoadgenConfig {
    fn validated(mut self) -> Result<Self> {
        self.tenants = self.tenants.max(1);
        self.connections = self.connections.clamp(1, self.tenants);
        self.specs_per_tenant = self.specs_per_tenant.max(1);
        self.pipeline = self.pipeline.max(1);
        if self.requests == 0 {
            return Err(ServeError::Protocol("requests must be positive".into()));
        }
        for (name, v, lo, hi) in [
            ("skew", self.skew, 0.0, 8.0),
            ("fault_rate", self.fault_rate, 0.0, 1.0),
            ("snapshot_rate", self.snapshot_rate, 0.0, 1.0),
            ("shared_rate", self.shared_rate, 0.0, 1.0),
            ("policy_mix", self.policy_mix, 0.0, 1.0),
            ("catalog_overlap", self.catalog_overlap, 0.0, 1.0),
        ] {
            if !(lo..=hi).contains(&v) {
                return Err(ServeError::Protocol(format!(
                    "{name} {v} out of [{lo}, {hi}]"
                )));
            }
        }
        if !(self.deadline > 0.0) || !self.deadline.is_finite() {
            return Err(ServeError::Protocol(
                "deadline must be finite and positive".into(),
            ));
        }
        Ok(self)
    }

    fn tenant_name(i: usize) -> String {
        format!("tenant-{i:03}")
    }

    /// The full deterministic request stream, in issue order.
    pub fn stream(&self) -> Result<Vec<Request>> {
        let cfg = self.clone().validated()?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Catalog mode: every spec shares one platform seed and one
        // (types, pulses) shape — per-app PMFs can only be bit-identical
        // across specs when the platform and pulse count match — and
        // each application is drawn from a small global seed catalog
        // with probability `catalog_overlap`, seeded privately otherwise.
        let catalog_mode = cfg.catalog_overlap > 0.0;
        let platform_seed = cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let catalog: Vec<u64> = (0..24)
            .map(|i| cfg.seed.wrapping_mul(2_147_483_647).wrapping_add(i))
            .collect();
        let (cat_types, cat_pulses) = (rng.gen_range(2..=3), rng.gen_range(5..=8));
        let catalog_spec = |rng: &mut StdRng| -> WorkloadSpec {
            let apps = rng.gen_range(3..=6);
            let app_seeds: Vec<u64> = (0..apps)
                .map(|_| {
                    if rng.gen_bool(cfg.catalog_overlap) {
                        catalog[rng.gen_range(0..catalog.len())]
                    } else {
                        rng.gen::<u64>()
                    }
                })
                .collect();
            WorkloadSpec {
                apps,
                types: cat_types,
                pulses: cat_pulses,
                seed: rng.gen::<u64>(),
                platform_seed: Some(platform_seed),
                app_seeds: Some(app_seeds),
            }
        };

        // Per-tenant spec pools. Sizes stay small enough that a single
        // engine build is milliseconds, large enough to exercise the
        // pool-backed parallel kernels.
        let mut pools: Vec<Vec<WorkloadSpec>> = Vec::with_capacity(cfg.tenants);
        for t in 0..cfg.tenants {
            let mut pool = Vec::with_capacity(cfg.specs_per_tenant);
            for s in 0..cfg.specs_per_tenant {
                pool.push(if catalog_mode {
                    catalog_spec(&mut rng)
                } else {
                    WorkloadSpec::simple(
                        rng.gen_range(3..=6),
                        rng.gen_range(2..=3),
                        rng.gen_range(5..=8),
                        cfg.seed
                            .wrapping_mul(1_000_003)
                            .wrapping_add((t * cfg.specs_per_tenant + s) as u64),
                    )
                });
            }
            pools.push(pool);
        }
        // Popular "template" workloads many tenants submit verbatim.
        let shared: Vec<WorkloadSpec> = (0..cfg.shared_specs.max(1))
            .map(|s| {
                if catalog_mode {
                    catalog_spec(&mut rng)
                } else {
                    WorkloadSpec::simple(
                        rng.gen_range(3..=6),
                        rng.gen_range(2..=3),
                        rng.gen_range(5..=8),
                        cfg.seed.wrapping_mul(7_368_787).wrapping_add(s as u64),
                    )
                }
            })
            .collect();

        // Zipf-like tenant popularity: weight 1/(rank+1)^skew.
        let weights: Vec<f64> = (0..cfg.tenants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.skew))
            .collect();
        let total_weight: f64 = weights.iter().sum();

        let mut submitted = vec![false; cfg.tenants];
        let mut types_now = vec![0usize; cfg.tenants];
        let mut stream = Vec::with_capacity(cfg.requests);
        for n in 0..cfg.requests {
            // Warm-up: the first pass touches every tenant once so
            // injections always have a submission to land on.
            let t = if n < cfg.tenants {
                n
            } else {
                let mut x = rng.gen::<f64>() * total_weight;
                let mut pick = cfg.tenants - 1;
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        pick = i;
                        break;
                    }
                    x -= w;
                }
                pick
            };
            let roll: f64 = rng.gen();
            let req = if submitted[t] && roll < cfg.fault_rate {
                let event = if rng.gen_bool(0.6) {
                    TenantEvent::Degrade {
                        proc_type: rng.gen_range(0..types_now[t]),
                        factor: rng.gen_range(0.5..0.95),
                    }
                } else {
                    TenantEvent::Drift {
                        factor: rng.gen_range(0.7..1.3),
                    }
                };
                Request::Inject(crate::protocol::InjectRequest {
                    tenant: Self::tenant_name(t),
                    event,
                })
            } else if submitted[t] && roll < cfg.fault_rate + cfg.snapshot_rate {
                Request::Snapshot {
                    tenant: Self::tenant_name(t),
                }
            } else {
                let spec = if rng.gen_bool(cfg.shared_rate) {
                    shared[rng.gen_range(0..shared.len())].clone()
                } else {
                    pools[t][rng.gen_range(0..cfg.specs_per_tenant)].clone()
                };
                submitted[t] = true;
                types_now[t] = spec.types;
                // Both rolls are always drawn, so streams with different
                // mixes share the same tenant/spec sequence per seed.
                let mixed = rng.gen_bool(cfg.policy_mix);
                let pick_sa = rng.gen_bool(0.5);
                let allocator = mixed.then(|| if pick_sa { "sa" } else { "lattice" }.to_string());
                Request::Submit(SubmitRequest {
                    tenant: Self::tenant_name(t),
                    spec,
                    deadline: cfg.deadline,
                    allocator,
                    threshold: None,
                    qos: None,
                })
            };
            stream.push(req);
        }
        Ok(stream)
    }
}

/// Schema version of [`LoadgenReport`] (bump on breaking shape changes).
/// v2 is the pipelined data plane: the loadgen runs a closed-loop send
/// window instead of lockstep request/reply, discards a warm-up prefix
/// from the latency percentiles, and records `pipeline`,
/// `warmup_discarded`, `host_threads` and `latency_p999_us` so the
/// throughput/latency guards can be host-aware. v3 added `policy_mix`:
/// the replay routes that fraction of submits through the explicit
/// "sa"/"lattice" policies, so a snapshot exercises both Stage-I solvers
/// (`sa_multistart_runs` was silently 0 before). v4 added
/// `catalog_overlap` (the fraction of tenant specs drawing their
/// applications from a shared catalog) and the service-wide
/// content-addressed cell-store counters
/// (`cell_store_hits`/`_misses`/`_verify_rejects`/`_hit_rate`).
pub const REPORT_SCHEMA_VERSION: u32 = 4;

/// What a replay measured. Serialized verbatim into `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// [`REPORT_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Requests replayed.
    pub requests: u64,
    /// Distinct tenants in the stream.
    pub tenants: u64,
    /// Client connections used.
    pub connections: u64,
    /// Worker shards serving the run.
    pub shards: u64,
    /// Stream seed.
    pub seed: u64,
    /// Zipf exponent used.
    pub skew: f64,
    /// Fault-injection rate used.
    pub fault_rate: f64,
    /// Fraction of submissions naming an explicit policy (split between
    /// `sa` and `lattice`).
    pub policy_mix: f64,
    /// Per-application catalog draw probability used for the stream
    /// (zero = legacy whole-spec seeding).
    pub catalog_overlap: f64,
    /// Wall-clock seconds for the whole replay.
    pub elapsed_s: f64,
    /// Requests per second over the replay.
    pub throughput_rps: f64,
    /// Requests each connection kept in flight.
    pub pipeline: u64,
    /// Warm-up replies excluded from the latency percentiles (they still
    /// count toward `requests`, `ok`/`errors`, and throughput).
    pub warmup_discarded: u64,
    /// Worker threads the serving host reports
    /// ([`cdsf_core::default_threads`]) — floors in the snapshot check
    /// are host-aware, so the report records what the host was.
    pub host_threads: u64,
    /// Median request latency, microseconds.
    pub latency_p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub latency_p99_us: u64,
    /// 99.9th-percentile request latency, microseconds.
    pub latency_p999_us: u64,
    /// Mean request latency, microseconds.
    pub latency_mean_us: u64,
    /// Worst request latency, microseconds.
    pub latency_max_us: u64,
    /// Requests answered without error.
    pub ok: u64,
    /// Requests answered with `Response::Error`.
    pub errors: u64,
    /// Share of engine assemblies served entirely from the cell store,
    /// across shards.
    pub cache_hit_rate: f64,
    /// Requests served per kernel-running engine build across shards.
    pub coalescing_factor: f64,
    /// Cells served from the service-wide store (no kernel ran).
    pub cell_store_hits: u64,
    /// Cell lookups that ran the kernel.
    pub cell_store_misses: u64,
    /// Hash matches rejected by the bitwise input comparison.
    pub cell_store_verify_rejects: u64,
    /// Store hit rate over all cell lookups.
    pub cell_store_hit_rate: f64,
    /// The server's final counters.
    pub stats: StatsReply,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Replays the stream against an already-running server. The server is
/// left running (stats are read, nothing is shut down).
pub fn run<A: ToSocketAddrs + Clone + Send + 'static>(
    cfg: &LoadgenConfig,
    addr: A,
) -> Result<LoadgenReport> {
    let cfg = cfg.clone().validated()?;
    let stream = cfg.stream()?;

    // Pin tenants to connections so per-tenant order survives concurrency.
    let mut per_conn: Vec<Vec<Request>> = vec![Vec::new(); cfg.connections];
    for req in stream {
        let t: usize = req
            .tenant()
            .and_then(|name| name.rsplit('-').next())
            .and_then(|d| d.parse().ok())
            .unwrap_or(0);
        per_conn[t % cfg.connections].push(req);
    }

    // Each connection keeps a window of requests in flight; the server's
    // writer answers in request order, so replies pair with send times
    // FIFO. Warm-up replies are measured but discarded from the
    // distribution afterwards.
    let window = cfg.pipeline;
    let warmup_per_conn = cfg.warmup.div_ceil(cfg.connections);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.connections);
    for reqs in per_conn {
        let addr = addr.clone();
        handles.push(std::thread::spawn(
            move || -> std::io::Result<(Vec<u64>, u64, u64, u64)> {
                let mut client = Client::connect(addr)?;
                let mut lat_us = Vec::with_capacity(reqs.len());
                let (mut ok, mut errors) = (0u64, 0u64);
                let mut sent_at: std::collections::VecDeque<Instant> =
                    std::collections::VecDeque::with_capacity(window);
                let mut next = reqs.iter();
                loop {
                    while sent_at.len() < window {
                        let Some(req) = next.next() else { break };
                        sent_at.push_back(Instant::now());
                        client.send(req)?;
                    }
                    let Some(t0) = sent_at.pop_front() else { break };
                    let resp = client.recv()?;
                    lat_us.push(t0.elapsed().as_micros() as u64);
                    match resp {
                        Response::Error { .. } => errors += 1,
                        _ => ok += 1,
                    }
                }
                let discard = warmup_per_conn.min(lat_us.len());
                lat_us.drain(..discard);
                Ok((lat_us, discard as u64, ok, errors))
            },
        ));
    }
    let mut lat_us = Vec::new();
    let (mut discarded, mut ok, mut errors) = (0u64, 0u64, 0u64);
    for handle in handles {
        let (l, d, o, e) = handle
            .join()
            .map_err(|_| ServeError::Protocol("a replay connection panicked".into()))??;
        lat_us.extend(l);
        discarded += d;
        ok += o;
        errors += e;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    lat_us.sort_unstable();

    let mut client = Client::connect(addr)?;
    let stats = match client.request(&Request::Stats)? {
        Response::Stats(s) => s,
        other => {
            return Err(ServeError::Protocol(format!(
                "stats request answered with {other:?}"
            )))
        }
    };

    let mean = if lat_us.is_empty() {
        0
    } else {
        lat_us.iter().sum::<u64>() / lat_us.len() as u64
    };
    let replayed = ok + errors;
    Ok(LoadgenReport {
        schema_version: REPORT_SCHEMA_VERSION,
        requests: replayed,
        tenants: cfg.tenants as u64,
        connections: cfg.connections as u64,
        shards: stats.shards,
        seed: cfg.seed,
        skew: cfg.skew,
        fault_rate: cfg.fault_rate,
        policy_mix: cfg.policy_mix,
        catalog_overlap: cfg.catalog_overlap,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            replayed as f64 / elapsed_s
        } else {
            0.0
        },
        pipeline: window as u64,
        warmup_discarded: discarded,
        host_threads: cdsf_core::default_threads() as u64,
        latency_p50_us: percentile(&lat_us, 50.0),
        latency_p99_us: percentile(&lat_us, 99.0),
        latency_p999_us: percentile(&lat_us, 99.9),
        latency_mean_us: mean,
        latency_max_us: lat_us.last().copied().unwrap_or(0),
        ok,
        errors,
        cache_hit_rate: stats.total.cache_hit_rate(),
        coalescing_factor: stats.total.coalescing_factor(),
        cell_store_hits: stats.cell_store.hits,
        cell_store_misses: stats.cell_store.misses,
        cell_store_verify_rejects: stats.cell_store.verify_rejects,
        cell_store_hit_rate: stats.cell_store.hit_rate(),
        stats,
    })
}

/// Spins up an in-process server on an ephemeral port, replays the
/// stream, shuts the server down cleanly, and reports.
pub fn run_local(cfg: &LoadgenConfig, serve_cfg: ServeConfig) -> Result<LoadgenReport> {
    let server = Server::bind("127.0.0.1:0", serve_cfg)?;
    let addr = server.addr();
    let result = run(cfg, addr);
    let mut client = Client::connect(addr)?;
    let _ = client.request(&Request::Shutdown)?;
    server.wait();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_well_formed() {
        let cfg = LoadgenConfig {
            requests: 200,
            tenants: 4,
            ..LoadgenConfig::default()
        };
        let a = cfg.stream().unwrap();
        let b = cfg.stream().unwrap();
        assert_eq!(a.len(), 200);
        let (ja, jb) = (
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
        );
        assert_eq!(ja, jb, "same config, same bytes");
        // The warm-up pass covers every tenant before any injection.
        let mut seen = std::collections::HashSet::new();
        for req in a.iter().take(4) {
            assert!(matches!(req, Request::Submit(_)));
            seen.insert(req.tenant().unwrap().to_string());
        }
        assert_eq!(seen.len(), 4);
        assert!(
            a.iter().any(|r| matches!(r, Request::Inject(_))),
            "stream exercises injections"
        );
    }

    #[test]
    fn policy_mix_routes_submits_through_both_solvers() {
        let named = |cfg: &LoadgenConfig, name: &str| {
            cfg.stream()
                .unwrap()
                .iter()
                .filter(|r| matches!(r, Request::Submit(s) if s.allocator.as_deref() == Some(name)))
                .count()
        };
        let cfg = LoadgenConfig {
            requests: 400,
            tenants: 4,
            policy_mix: 0.5,
            ..LoadgenConfig::default()
        };
        assert!(named(&cfg, "sa") > 0, "mix must route submits through sa");
        assert!(
            named(&cfg, "lattice") > 0,
            "mix must route submits through lattice"
        );
        let off = LoadgenConfig {
            policy_mix: 0.0,
            ..cfg.clone()
        };
        assert_eq!(named(&off, "sa") + named(&off, "lattice"), 0);
        // The mix knob changes only the allocator column: same seed,
        // same tenants and specs in the same order.
        let tenants = |cfg: &LoadgenConfig| -> Vec<String> {
            cfg.stream()
                .unwrap()
                .iter()
                .filter_map(|r| r.tenant().map(str::to_string))
                .collect()
        };
        assert_eq!(tenants(&cfg), tenants(&off));
        assert!(LoadgenConfig {
            policy_mix: 1.5,
            ..LoadgenConfig::default()
        }
        .stream()
        .is_err());
    }

    #[test]
    fn catalog_overlap_shares_app_seeds_across_specs() {
        let cfg = LoadgenConfig {
            requests: 300,
            tenants: 4,
            catalog_overlap: 0.8,
            ..LoadgenConfig::default()
        };
        let stream = cfg.stream().unwrap();
        // Every submission carries catalog fields, all on one platform.
        let mut platform_seeds = std::collections::HashSet::new();
        let mut seed_uses: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut specs = std::collections::HashSet::new();
        for req in &stream {
            let Request::Submit(s) = req else { continue };
            platform_seeds.insert(
                s.spec
                    .platform_seed
                    .expect("catalog mode pins the platform"),
            );
            let seeds = s.spec.app_seeds.as_ref().expect("catalog mode names apps");
            assert_eq!(seeds.len(), s.spec.apps);
            if specs.insert(serde_json::to_string(&s.spec).unwrap()) {
                for &seed in seeds {
                    *seed_uses.entry(seed).or_default() += 1;
                }
            }
        }
        assert_eq!(platform_seeds.len(), 1);
        assert!(specs.len() > 1, "stream cycles distinct specs");
        assert!(
            seed_uses.values().any(|&n| n > 1),
            "0.8 overlap must reuse catalog apps across distinct specs"
        );
        // Zero overlap keeps the legacy whole-spec seeding.
        let legacy = LoadgenConfig {
            catalog_overlap: 0.0,
            ..cfg.clone()
        };
        for req in legacy.stream().unwrap() {
            if let Request::Submit(s) = req {
                assert!(s.spec.platform_seed.is_none() && s.spec.app_seeds.is_none());
            }
        }
        assert!(LoadgenConfig {
            catalog_overlap: 1.5,
            ..LoadgenConfig::default()
        }
        .stream()
        .is_err());
    }

    #[test]
    fn catalog_replay_hits_the_shared_cell_store() {
        let cfg = LoadgenConfig {
            requests: 80,
            tenants: 4,
            connections: 2,
            pipeline: 8,
            warmup: 8,
            catalog_overlap: 0.8,
            ..LoadgenConfig::default()
        };
        let serve_cfg = ServeConfig {
            shards: 2,
            build_threads: 2,
            ..ServeConfig::default()
        };
        let report = run_local(&cfg, serve_cfg).unwrap();
        assert_eq!(report.errors, 0);
        assert!((report.catalog_overlap - 0.8).abs() < 1e-12);
        assert!(
            report.cell_store_hits > 0,
            "overlapping catalogs must intern cells across tenants: {:?}",
            report.stats.cell_store
        );
        assert_eq!(report.cell_store_hits, report.stats.cell_store.hits);
        assert!(report.cell_store_hit_rate > 0.0);
    }

    #[test]
    fn percentiles_pick_from_sorted_tail() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[], 50.0), 0);
        let w: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&w, 99.9), 999);
        assert_eq!(percentile(&w, 99.0), 990);
    }

    #[test]
    fn small_replay_end_to_end() {
        let cfg = LoadgenConfig {
            requests: 120,
            tenants: 4,
            connections: 2,
            pipeline: 8,
            warmup: 20,
            ..LoadgenConfig::default()
        };
        let serve_cfg = ServeConfig {
            shards: 2,
            build_threads: 2,
            ..ServeConfig::default()
        };
        let report = run_local(&cfg, serve_cfg).unwrap();
        assert_eq!(report.schema_version, 4);
        assert_eq!(report.requests, 120);
        assert_eq!(report.errors, 0, "clean stream replays without errors");
        assert!(
            report.stats.total.sa_multistart_runs > 0,
            "default policy mix exercises the pooled annealer"
        );
        assert_eq!(report.shards, 2);
        assert_eq!(report.pipeline, 8);
        assert_eq!(
            report.warmup_discarded, 20,
            "10 cold replies per connection"
        );
        assert!(report.host_threads >= 1);
        assert!(report.latency_p999_us >= report.latency_p99_us);
        assert!(report.cache_hit_rate > 0.0, "spec pools re-hit the cache");
        assert!(report.stats.total.submits > 0);
        assert!(
            report.stats.total.drain_depths.iter().sum::<u64>() > 0,
            "shards recorded admission batches"
        );
        assert!(
            report.stats.codec.reply_frames >= 120,
            "writers framed every reply"
        );
        assert!(
            report.stats.codec.flushes <= report.stats.codec.reply_frames,
            "at most one flush per frame"
        );
    }
}
