//! The four service workloads.
//!
//! Each replays its workload's canonical `LoadgenConfig::stream()` over TCP
//! against an in-process `Server`, from two generator threads on two
//! connections, tenants pinned to connections as `loadgen` pins them.
//! Replies are checked as they arrive. `phi1_mean` and the reply digest
//! come from an untimed in-process replay of the stream's first requests,
//! so they depend on the program alone. `--trace` then replays what was
//! sent through two in-process `ShardCore`s, timing a span around each
//! layer call and reading the program's counters by name from their
//! serialized stats.

use crate::dualstage;
use crate::stats::{self, Digest};
use crate::{heap, Outcome, Sizes, SETUP_REPS};
use cdsf_ra::CellStore;
use cdsf_serve::protocol::{encode_line, read_line_into, InjectRequest};
use cdsf_serve::{
    shard_of, Client, LoadgenConfig, Request, Response, ServeConfig, Server, ShardCore,
    TenantEvent, WorkloadSpec,
};
use serde_json::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Generator threads and connections: one each per core of the 2-core
/// host the bounds were measured on.
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight in a closed loop.
const WINDOW: usize = 16;
/// Seed of every serve workload's canonical stream (`loadgen`'s default).
const CATALOG_SEED: u64 = 42;
/// Requests in each canonical stream. A run cycles through it, so the
/// harness holds the same bounded stream however long the run is.
const STREAM_LEN: usize = 20_000;
/// The catalogue digest covers this many leading requests of the
/// canonical stream.
const DIGEST_PREFIX: usize = 10_000;
/// The latency limit of the `slo_ok_ratio` note.
const SLO_MS: f64 = 5.0;

/// Digests of each canonical stream's first [`DIGEST_PREFIX`] requests,
/// over their semantic fields. A change here means the workload's input
/// changed, and its numbers are no longer comparable.
const PINNED_DIGESTS: [(&str, u64); 4] = [
    ("steady", 0xcd78_3da6_2bb3_eac4),
    ("churn", 0x21fe_d3c7_5b5a_45c9),
    ("catalog", 0x64a4_1cff_941a_ef7e),
    ("remap", 0x0cd7_a25b_e92d_dead),
];

/// The per-layer metrics of the serving path, with their units. A traced
/// dual-stage run, which has no serving path, reports them as 0.
pub const LAYERS: [(&str, &str); 39] = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.reply_bytes", "B"),
    ("server.queue_transport_us", "us"),
    ("server.flushes_per_reply", "ratio"),
    ("shard.service_us", "us"),
    ("shard.service_p99_us", "us"),
    ("shard.imbalance", "ratio"),
    ("shard.coalescing_factor", "ratio"),
    ("shard.drain_depth_mean", "count"),
    ("shard.front.count", "count"),
    ("shard.front.share", "share"),
    ("shard.alloc_default.count", "count"),
    ("shard.alloc_default.share", "share"),
    ("shard.alloc_sa.count", "count"),
    ("shard.alloc_sa.share", "share"),
    ("shard.alloc_lattice.count", "count"),
    ("shard.alloc_lattice.share", "share"),
    ("shard.build.count", "count"),
    ("shard.build.share", "share"),
    ("shard.build.us", "us"),
    ("shard.rebuild.count", "count"),
    ("shard.rebuild.share", "share"),
    ("shard.snapshot.count", "count"),
    ("shard.snapshot.share", "share"),
    ("shard.error.count", "count"),
    ("shard.error.share", "share"),
    ("spec.expand_us", "us"),
    ("spec.cache_hit_ratio", "ratio"),
    ("engine.hit_ratio", "ratio"),
    ("engine.rebuilds", "count"),
    ("cell_store.hit_ratio", "ratio"),
    ("cell_store.evictions", "count"),
    ("alloc.cache_hit_ratio", "ratio"),
    ("alloc.sa_runs", "count"),
    ("alloc.fallbacks", "count"),
    ("pool.tasks_per_run", "ratio"),
    ("pool.steal_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Requests are due at a fixed total rate whatever the replies do;
    /// latency runs from the due time.
    Open { rate: f64 },
    /// Each connection keeps [`WINDOW`] requests in flight.
    Closed,
}

pub struct ServeWorkload {
    pub name: &'static str,
    pub stream: LoadgenConfig,
    pub pacing: Pacing,
}

pub fn workloads() -> Vec<ServeWorkload> {
    let base = LoadgenConfig {
        policy_mix: 0.02,
        ..LoadgenConfig::default()
    };
    let churn = LoadgenConfig {
        tenants: 48,
        specs_per_tenant: 8,
        shared_rate: 0.05,
        skew: 0.5,
        ..base.clone()
    };
    vec![
        ServeWorkload {
            name: "steady",
            stream: base.clone(),
            pacing: Pacing::Open { rate: 2_000.0 },
        },
        ServeWorkload {
            name: "churn",
            stream: churn.clone(),
            pacing: Pacing::Closed,
        },
        ServeWorkload {
            name: "catalog",
            stream: LoadgenConfig {
                catalog_overlap: 0.8,
                ..churn
            },
            pacing: Pacing::Closed,
        },
        ServeWorkload {
            name: "remap",
            stream: LoadgenConfig {
                fault_rate: 0.4,
                snapshot_rate: 0.05,
                ..base
            },
            pacing: Pacing::Closed,
        },
    ]
}

/// The server every workload runs against. The thread counts are written
/// out rather than taken from the host, so runs on hosts of different
/// sizes do the same work.
fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        build_threads: 2,
        ..ServeConfig::default()
    }
}

/// The canonical stream: `LoadgenConfig::stream()` at [`CATALOG_SEED`], so
/// every run serves the same tenants and specs. Seeding the generator with
/// the run seed would give each run its own spec catalogue, and the
/// catalogue, not the code under test, would then set every number.
fn canonical(w: &ServeWorkload) -> Result<Vec<Request>, String> {
    LoadgenConfig {
        seed: CATALOG_SEED,
        requests: STREAM_LEN,
        ..w.stream.clone()
    }
    .stream()
    .map_err(|e| format!("stream generation failed: {e}"))
}

/// Digest of the requests' semantic fields (kind, tenant, spec, deadline
/// bits, allocator, qos, event), not of their wire bytes: a new optional
/// protocol field leaves it unchanged.
fn stream_digest(reqs: &[Request]) -> u64 {
    let mut d = Digest::default();
    let opt = |d: &mut Digest, s: Option<&str>| {
        match s {
            Some(s) => d.u64(1).str(s),
            None => d.u64(0),
        };
    };
    for req in reqs {
        match req {
            Request::Submit(s) => {
                d.str("submit").str(&s.tenant);
                let spec = &s.spec;
                d.u64(spec.apps as u64)
                    .u64(spec.types as u64)
                    .u64(spec.pulses as u64)
                    .u64(spec.seed);
                match spec.platform_seed {
                    Some(p) => d.u64(1).u64(p),
                    None => d.u64(0),
                };
                match &spec.app_seeds {
                    Some(seeds) => {
                        d.u64(seeds.len() as u64 + 1);
                        for s in seeds {
                            d.u64(*s);
                        }
                    }
                    None => {
                        d.u64(0);
                    }
                }
                d.u64(s.deadline.to_bits());
                opt(&mut d, s.allocator.as_deref());
                opt(&mut d, s.qos.as_deref());
            }
            Request::Inject(InjectRequest { tenant, event }) => {
                d.str("inject").str(tenant);
                match *event {
                    TenantEvent::Crash { proc_type } => d.str("crash").u64(proc_type as u64),
                    TenantEvent::Degrade { proc_type, factor } => {
                        d.str("degrade").u64(proc_type as u64).u64(factor.to_bits())
                    }
                    TenantEvent::Drift { factor } => d.str("drift").u64(factor.to_bits()),
                };
            }
            Request::Snapshot { tenant } => {
                d.str("snapshot").str(tenant);
            }
            other => {
                d.str(&format!("{other:?}"));
            }
        }
    }
    d.finish()
}

/// The connection a request travels on: tenant `tenant-NNN` goes to
/// connection `NNN mod CONNECTIONS`, as in `loadgen`.
fn connection_of(req: &Request) -> usize {
    req.tenant()
        .and_then(|t| t.rsplit('-').next())
        .and_then(|d| d.parse::<usize>().ok())
        .unwrap_or(0)
        % CONNECTIONS
}

/// Newline-terminated lines packed into one buffer.
#[derive(Default)]
struct Lines {
    buf: Vec<u8>,
    ends: Vec<usize>,
}

impl Lines {
    fn encode(reqs: &[Request]) -> Result<Lines, String> {
        let mut lines = Lines::default();
        for req in reqs {
            encode_line(&mut lines.buf, req).map_err(|e| format!("encode failed: {e}"))?;
            lines.ends.push(lines.buf.len());
        }
        Ok(lines)
    }

    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }
}

/// The order a run sends the canonical stream in.
///
/// A run first warms up on the stream's first requests, the same for every
/// seed, so set-up does the same work whatever the seed. The run seed picks
/// an offset into the stream. The run then re-sends each tenant's last
/// submit before the offset, so that every later inject lands on the spec
/// it was generated for, and sends the stream from the offset on, wrapping
/// to its start as often as the run lasts. The wrap keeps that property,
/// because the stream opens with one submit per tenant.
struct Order {
    warmup: usize,
    restore: Vec<usize>,
    offset: usize,
    len: usize,
}

impl Order {
    fn new(reqs: &[Request], seed: u64, warmup: usize) -> Order {
        let offset = (stats::mix(seed, 0) % reqs.len() as u64) as usize;
        let mut last_submit: HashMap<&str, usize> = HashMap::new();
        for (i, req) in reqs[..offset].iter().enumerate() {
            if let Request::Submit(s) = req {
                last_submit.insert(&s.tenant, i);
            }
        }
        let mut restore: Vec<usize> = last_submit.into_values().collect();
        restore.sort_unstable();
        Order {
            warmup: warmup.min(reqs.len()),
            restore,
            offset,
            len: reqs.len(),
        }
    }

    /// Requests sent before timing starts: the warm-up and the restore.
    fn untimed(&self) -> usize {
        self.warmup + self.restore.len()
    }

    /// Stream position of the `j`-th request a run sends.
    fn pos(&self, j: usize) -> usize {
        let Some(k) = j.checked_sub(self.warmup) else {
            return j;
        };
        match self.restore.get(k) {
            Some(&p) => p,
            None => (self.offset + k - self.restore.len()) % self.len,
        }
    }
}

/// The canonical stream, its encoded lines and the order a run sends it
/// in. Requests are named by their sequence number `j` in that order.
struct Feed {
    reqs: Vec<Request>,
    lines: Lines,
    conn_of: Vec<usize>,
    order: Order,
}

impl Feed {
    fn new(reqs: Vec<Request>, seed: u64, warmup: usize) -> Result<Feed, String> {
        Ok(Feed {
            lines: Lines::encode(&reqs)?,
            conn_of: reqs.iter().map(connection_of).collect(),
            order: Order::new(&reqs, seed, warmup),
            reqs,
        })
    }

    fn req(&self, j: usize) -> &Request {
        &self.reqs[self.order.pos(j)]
    }

    fn line(&self, j: usize) -> &[u8] {
        self.lines.get(self.order.pos(j))
    }

    /// The sequence numbers in `range` that connection `c` sends, in order.
    fn plan(&self, c: usize, range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        range.filter(move |&j| self.conn_of[self.order.pos(j)] == c)
    }
}

/// One generator connection, and the application count of each tenant it
/// carries, which the reply checks need.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    line: Vec<u8>,
    apps: HashMap<String, usize>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Conn {
            w: s.try_clone()?,
            r: BufReader::new(s),
            line: Vec::new(),
            apps: HashMap::new(),
        })
    }
}

/// Makes the socket acknowledge received data at once (`TCP_QUICKACK`);
/// the kernel drops back to delayed ACKs on its own, so this is set again
/// before every read. The server does not set `TCP_NODELAY`, so a reply
/// written while the previous one is unacknowledged waits for the client's
/// ACK. With delayed ACKs that wait depends on which ACK mode the kernel
/// picked for each connection, and the median latency of a run lands on
/// one of three levels; with prompt ACKs it does not wait.
#[cfg(target_os = "linux")]
fn quick_ack(s: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor belongs to `s`, which outlives the call, and
    // `value` points to a live `i32` whose size is passed as `len`.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_: &TcpStream) -> io::Result<()> {
    Ok(())
}

/// Reads one reply line into `line`.
fn read_reply(r: &mut BufReader<TcpStream>, line: &mut Vec<u8>) -> io::Result<()> {
    quick_ack(r.get_ref())?;
    line.clear();
    if r.read_until(b'\n', line)? == 0 || line.last() != Some(&b'\n') {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(())
}

/// Requests below this sequence number keep their latency and reply hash,
/// for the traced run's cross-check; it replays at most this many.
const KEPT: usize = 10_000;

/// What one connection sent and got back. Each reply is checked as it
/// arrives. Latencies go into histograms, and only requests below [`KEPT`]
/// are kept one by one, in space taken up front, so the harness holds the
/// same memory however many requests a run sends.
struct ConnLog {
    sent: usize,
    /// `(sequence number, latency in ms, reply hash)`, in send order.
    kept: Vec<(usize, f64, u64)>,
    /// Latency in ms; a refused request counts as infinitely late.
    latency_ms: stats::Histogram,
    /// How late the open loop sent each request, in µs.
    lag_us: stats::Histogram,
    /// Requests answered ok within [`SLO_MS`].
    slo_ok: usize,
    last_end: Option<Instant>,
    /// CPU time of the generator threads that kept this log.
    cpu_s: f64,
    /// Sequence numbers of the requests answered with an error.
    refused: Vec<usize>,
    problems: Vec<String>,
}

impl Default for ConnLog {
    fn default() -> Self {
        ConnLog {
            sent: 0,
            kept: Vec::with_capacity(KEPT),
            latency_ms: stats::Histogram::default(),
            lag_us: stats::Histogram::default(),
            slo_ok: 0,
            last_end: None,
            cpu_s: 0.0,
            refused: Vec::new(),
            problems: Vec::new(),
        }
    }
}

impl ConnLog {
    fn record(
        &mut self,
        j: usize,
        req: &Request,
        start: Instant,
        lag: Duration,
        reply: &[u8],
        apps: &mut HashMap<String, usize>,
    ) {
        let end = Instant::now();
        let latency_ms = (end - start).as_secs_f64() * 1e3;
        self.sent += 1;
        if j < KEPT {
            self.kept.push((j, latency_ms, reply_hash(reply)));
        }
        self.lag_us.add(lag.as_secs_f64() * 1e6);
        self.last_end = Some(end);
        let refused = match check_reply(req, reply, apps) {
            Ok(Answer::Served(_)) => false,
            Ok(Answer::Refused(message)) => {
                if self.refused.is_empty() {
                    eprintln!("request {j} refused: {message}");
                }
                self.refused.push(j);
                true
            }
            Err(e) => {
                self.problems.push(format!("request {j}: {e}"));
                false
            }
        };
        if refused {
            self.latency_ms.add(f64::INFINITY);
        } else {
            self.latency_ms.add(latency_ms);
            self.slo_ok += usize::from(latency_ms <= SLO_MS);
        }
    }
}

/// Keeps [`WINDOW`] requests of `plan` in flight until the plan ends or,
/// when `stop` is set, until `stop` passes; then drains.
fn closed_loop(
    conn: &mut Conn,
    feed: &Feed,
    mut plan: impl Iterator<Item = usize>,
    stop: Option<Instant>,
) -> io::Result<ConnLog> {
    let mut log = ConnLog::default();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    loop {
        while inflight.len() < WINDOW && stop.is_none_or(|s| Instant::now() < s) {
            let Some(j) = plan.next() else { break };
            let now = Instant::now();
            conn.w.write_all(feed.line(j))?;
            inflight.push_back((j, now));
        }
        let Some((j, start)) = inflight.pop_front() else {
            return Ok(log);
        };
        read_reply(&mut conn.r, &mut conn.line)?;
        log.record(
            j,
            feed.req(j),
            start,
            Duration::ZERO,
            &conn.line,
            &mut conn.apps,
        );
    }
}

/// Sends request `j` when it is due (`t0 + (j - first) / rate`) whether or
/// not earlier replies have come back, while a second thread on the same
/// connection timestamps and checks the replies. The sender sleeps rather
/// than waiting on a socket read timeout, which Linux rounds up to a
/// scheduler tick and would make every send milliseconds late. Requests
/// due at or after `stop` are not sent.
fn open_loop(
    conn: &mut Conn,
    feed: &Feed,
    plan: impl Iterator<Item = usize>,
    first: usize,
    rate: f64,
    (t0, stop): (Instant, Instant),
) -> io::Result<ConnLog> {
    let Conn { w, r, line, apps } = conn;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Duration)>();
    std::thread::scope(|s| {
        let reader = s.spawn(move || -> io::Result<ConnLog> {
            let cpu = stats::thread_cpu_s();
            let mut log = ConnLog::default();
            for (j, due, lag) in rx {
                read_reply(r, line)?;
                log.record(j, feed.req(j), due, lag, line, apps);
            }
            log.cpu_s = stats::thread_cpu_s() - cpu;
            Ok(log)
        });
        let send = || -> io::Result<()> {
            for j in plan {
                let due = t0 + Duration::from_secs_f64((j - first) as f64 / rate);
                if due >= stop {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let lag = Instant::now() - due;
                w.write_all(feed.line(j))?;
                // Only written requests are announced, so the reader never
                // waits for a reply to a request that was not sent.
                let _ = tx.send((j, due, lag));
            }
            Ok(())
        };
        let sent = send();
        drop(tx);
        let log = reader.join().expect("the reply reader does not panic")?;
        sent.map(|()| log)
    })
}

/// A running server and the generator's connections to it.
struct Service {
    server: Server,
    conns: Vec<Conn>,
}

impl Service {
    fn start() -> Result<Service, String> {
        let server =
            Server::bind("127.0.0.1:0", serve_config()).map_err(|e| format!("bind failed: {e}"))?;
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::open(server.addr()))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("connect failed: {e}"))?;
        Ok(Service { server, conns })
    }

    /// Runs one generator thread per connection; `drive` gets the
    /// connection and its index.
    fn replay<F>(&mut self, drive: F) -> Result<Vec<ConnLog>, String>
    where
        F: Fn(&mut Conn, usize) -> io::Result<ConnLog> + Sync,
    {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let drive = &drive;
                    s.spawn(move || -> io::Result<ConnLog> {
                        let cpu = stats::thread_cpu_s();
                        let mut log = drive(conn, c)?;
                        log.cpu_s += stats::thread_cpu_s() - cpu;
                        Ok(log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "a generator thread panicked".to_string())?
                        .map_err(|e| format!("replay failed: {e}"))
                })
                .collect()
        })
    }

    /// Closes the connections, shuts the server down and returns its final
    /// stats as JSON.
    fn stop(self) -> Result<Value, String> {
        let addr = self.server.addr();
        drop(self.conns);
        let bye = Client::connect(addr)
            .and_then(|mut c| c.request(&Request::Shutdown))
            .map_err(|e| format!("shutdown failed: {e}"))?;
        if !matches!(bye, Response::Bye) {
            return Err(format!("shutdown answered with {bye:?}"));
        }
        Ok(serde_json::to_value(&self.server.wait()))
    }
}

/// Everything set-up builds: the stream, its encoded lines, the server,
/// and the warm-up replies.
struct Ready {
    feed: Feed,
    /// Requests sent before timing starts: the warm-up and the restore
    /// submits.
    warm_len: usize,
    service: Service,
    warm: Vec<ConnLog>,
}

/// Set-up: stream generation and encoding, server bind and connect, and
/// an untimed closed-loop replay of the warm-up and restore requests.
fn set_up(w: &ServeWorkload, seed: u64, warmup: usize) -> Result<Ready, String> {
    let feed = Feed::new(canonical(w)?, seed, warmup)?;
    let warm_len = feed.order.untimed();
    let mut service = Service::start()?;
    let warm =
        service.replay(|conn, c| closed_loop(conn, &feed, feed.plan(c, 0..warm_len), None))?;
    Ok(Ready {
        feed,
        warm_len,
        service,
        warm,
    })
}

/// `"reused_cells":N` read as `"reused_cells":0`. That field says whether
/// the tenant's previous engine was still resident, which depends on how
/// requests from different connections interleaved at a shard; every
/// other reply byte is a function of the stream alone.
fn mask_reused(line: &[u8]) -> std::borrow::Cow<'_, [u8]> {
    const KEY: &[u8] = b"\"reused_cells\":";
    let Some(at) = line.windows(KEY.len()).position(|w| w == KEY) else {
        return line.into();
    };
    let digits = at + KEY.len();
    let end = digits
        + line[digits..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
    let mut out = Vec::with_capacity(line.len());
    out.extend_from_slice(&line[..digits]);
    out.push(b'0');
    out.extend_from_slice(&line[end..]);
    out.into()
}

fn reply_hash(line: &[u8]) -> u64 {
    Digest::default().bytes(&mask_reused(line)).finish()
}

/// How the service answered a request.
enum Answer {
    /// Answered; carries the joint φ₁ when the reply has a verdict.
    Served(Option<f64>),
    /// Answered with `Response::Error`.
    Refused(String),
}

/// Checks a reply against its request: the variant matches the request
/// kind, the tenant is echoed, φ₁ is a probability, and each allocation
/// has one power-of-two assignment per application. `apps` tracks each
/// tenant's application count in stream order.
fn check_reply(
    req: &Request,
    line: &[u8],
    apps: &mut HashMap<String, usize>,
) -> Result<Answer, String> {
    let resp: Response =
        serde_json::from_slice(line).map_err(|e| format!("unparseable reply: {e}"))?;
    let verdict = |tenant: &str,
                   echoed: &str,
                   n: usize,
                   asg: &[cdsf_serve::WireAssignment],
                   per_app: &[f64],
                   phi1: f64|
     -> Result<Answer, String> {
        if echoed != tenant {
            return Err(format!(
                "reply for `{echoed}` answered a request of `{tenant}`"
            ));
        }
        if asg.len() != n || per_app.len() != n {
            return Err(format!(
                "{tenant}: {} assignments and {} φ₁ values for {n} applications",
                asg.len(),
                per_app.len()
            ));
        }
        if let Some(a) = asg.iter().find(|a| !a.procs.is_power_of_two()) {
            return Err(format!(
                "{tenant}: {} processors is not a power of two",
                a.procs
            ));
        }
        if !stats::is_probability(phi1) {
            return Err(format!("{tenant}: φ₁ = {phi1} is not a probability"));
        }
        Ok(Answer::Served(Some(phi1)))
    };
    match (req, resp) {
        (_, Response::Error { message }) => Ok(Answer::Refused(message)),
        (Request::Submit(s), Response::Submit(r)) => {
            apps.insert(s.tenant.clone(), s.spec.apps);
            let n = s.spec.apps;
            verdict(
                &s.tenant,
                &r.tenant,
                n,
                &r.assignments,
                &r.per_app_phi1,
                r.verdict.phi1,
            )
        }
        (Request::Inject(i), Response::Inject(r)) => {
            let n = *apps
                .get(&i.tenant)
                .ok_or_else(|| format!("{}: inject answered before any submit", i.tenant))?;
            verdict(
                &i.tenant,
                &r.tenant,
                n,
                &r.assignments,
                &r.per_app_phi1,
                r.verdict.phi1,
            )
        }
        (Request::Snapshot { tenant }, Response::Snapshot { snapshot }) => {
            if &snapshot.tenant != tenant {
                return Err(format!(
                    "snapshot of `{}` answered `{tenant}`",
                    snapshot.tenant
                ));
            }
            Ok(Answer::Served(None))
        }
        (req, resp) => Err(format!(
            "{:?} answered with {}",
            req.tenant(),
            serde_json::to_string(&resp).unwrap_or_default()
        )),
    }
}

pub fn run(w: &ServeWorkload, seed: u64, sizes: &Sizes, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The host reference, before set-up, before the timed phase and after.
    let mut host_ms = vec![stats::reference_ms()];
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUP_REPS {
        // The previous server stops first, so no two are ever alive.
        if let Some(old) = ready.take() {
            old.service.stop()?;
        }
        let (t, cpu) = (Instant::now(), stats::process_cpu_s());
        ready = Some(set_up(w, seed, sizes.warmup)?);
        setup_s.push(stats::process_cpu_s() - cpu);
        setup_wall_s.push(t.elapsed().as_secs_f64());
    }
    let Ready {
        feed,
        warm_len,
        mut service,
        warm,
    } = ready.expect("at least one set-up");
    host_ms.push(stats::reference_ms());

    let t0 = Instant::now() + Duration::from_millis(2);
    let stop = t0 + Duration::from_secs_f64(sizes.seconds);
    let timed_plan = |c| feed.plan(c, warm_len..usize::MAX);
    let (main_cpu, process_cpu) = (stats::thread_cpu_s(), stats::process_cpu_s());
    let timed = match w.pacing {
        Pacing::Open { rate } => service
            .replay(|conn, c| open_loop(conn, &feed, timed_plan(c), warm_len, rate, (t0, stop)))?,
        Pacing::Closed => {
            std::thread::sleep(t0.saturating_duration_since(Instant::now()));
            service.replay(|conn, c| closed_loop(conn, &feed, timed_plan(c), Some(stop)))?
        }
    };
    // The server's CPU time: the process's, less that of the generator's
    // threads and of this one.
    let server_cpu_s = stats::process_cpu_s()
        - process_cpu
        - (stats::thread_cpu_s() - main_cpu)
        - timed.iter().map(|l| l.cpu_s).sum::<f64>();
    let final_stats = service.stop()?;
    // Memory peaks over set-up and the timed phase, before the in-process
    // replays below.
    let peak_heap = heap::peak_mb();
    let peak_rss = stats::peak_rss_mb().ok_or("VmHWM is not readable from /proc/self/status")?;
    host_ms.push(stats::reference_ms());
    let host_ms = stats::median(&host_ms);

    let (sent, refused, mut problems) = tally(&warm, &timed);

    // Timed-phase results.
    let (mut latencies, mut lags) = (stats::Histogram::default(), stats::Histogram::default());
    let (mut ok, mut slo_ok, mut last_end) = (0usize, 0, t0);
    for log in &timed {
        latencies.merge(&log.latency_ms);
        lags.merge(&log.lag_us);
        ok += log.sent - log.refused.len();
        slo_ok += log.slo_ok;
        last_end = last_end.max(log.last_end.unwrap_or(t0));
    }
    let timed_len = latencies.len();
    if !stats::supports(timed_len, 99.0) {
        eprintln!(
            "warning: {timed_len} timed requests do not support a p99 (fewer than 10 beyond it)"
        );
    }

    let catalog = stream_digest(&feed.reqs[..DIGEST_PREFIX]);
    let pinned = PINNED_DIGESTS
        .iter()
        .find(|(n, _)| *n == w.name)
        .map(|p| p.1);
    if pinned != Some(catalog) {
        problems.push(format!(
            "catalogue digest {catalog:016x} differs from the pinned {:016x}",
            pinned.unwrap_or(0)
        ));
    }

    out.attempted = sent as u64;
    out.failed = refused as u64;
    out.note(format!("catalog_digest {catalog:016x}"));
    out.note(format!("stream_offset {}", feed.order.offset));
    out.note(format!("requests_sent {sent}"));
    out.note(format!(
        "highest_supported_percentile {:?}",
        stats::highest_supported(timed_len)
    ));
    out.note(format!(
        "error_ratio {}",
        stats::ratio(refused as f64, sent as f64)
    ));
    out.note(format!(
        "throughput_per_s {}",
        ok as f64 / (last_end - t0).as_secs_f64()
    ));
    out.note(format!("latency_p50_ms {}", latencies.percentile(50.0)));
    out.note(format!("latency_p99_ms {}", latencies.percentile(99.0)));
    out.note(format!(
        "slo_ok_ratio {}",
        stats::ratio(slo_ok as f64, timed_len as f64)
    ));
    out.note(format!("setup_wall_s {}", stats::median(&setup_wall_s)));
    // CPU times as measured, before they are scaled to the reference host.
    let (cpu_ms_per_op, setup_cpu_s) = (server_cpu_s / ok as f64 * 1e3, stats::median(&setup_s));
    out.note(format!("host_reference_ms {host_ms}"));
    out.note(format!("cpu_ms_per_op_measured {cpu_ms_per_op}"));
    out.note(format!("setup_s_measured {setup_cpu_s}"));
    out.note(format!("peak_rss_mb {peak_rss}"));
    if let Pacing::Open { .. } = w.pacing {
        let lag = lags.percentile(99.0);
        out.note(format!("loadgen_lag_p50_us {}", lags.percentile(50.0)));
        out.note(format!("loadgen_lag_p99_us {lag}"));
        if lag > 5_000.0 {
            eprintln!(
                "warning: generator lag p99 {lag:.0} µs exceeds 5 ms; latencies are not valid"
            );
        }
    }

    if trace {
        let tcp = by_sequence(&warm, &timed);
        let prefix = tcp.prefix;
        layer_metrics(
            &feed,
            prefix,
            &tcp,
            warm_len.min(prefix),
            &final_stats,
            &mut out,
            &mut problems,
        )?;
        out.not_run(&dualstage::LAYERS);
    } else {
        let (phi1, replies) = quality(&feed.reqs, &feed.lines, sizes.quality, &mut problems)?;
        out.note(format!("reply_digest {replies:016x}"));
        let scale = stats::host_scale(host_ms);
        out.metric("cpu_ms_per_op", cpu_ms_per_op * scale, "ms");
        out.metric("phi1_mean", stats::mean(&phi1), "prob");
        out.metric("setup_s", setup_cpu_s * scale, "s");
        out.metric("peak_heap_mb", peak_heap, "MB");
    }
    out.fail_on(problems);
    Ok(out)
}

/// Requests sent and refused, and the problems the reply checks found,
/// over every phase: a refused restore or warm-up request fails the run
/// like a refused timed one.
fn tally(warm: &[ConnLog], timed: &[ConnLog]) -> (usize, usize, Vec<String>) {
    let (mut sent, mut refused, mut problems) = (0, 0, Vec::new());
    for log in warm.iter().chain(timed) {
        sent += log.sent;
        refused += log.refused.len();
        problems.extend(log.problems.iter().cloned());
    }
    (sent, refused, problems)
}

/// Serves the canonical stream's first `n` requests in-process, untimed,
/// and checks each reply. Returns the φ₁ of every verdict and the digest
/// of the masked replies, in stream order: both are functions of the
/// program alone, which no seed, timing or interleaving moves.
fn quality(
    reqs: &[Request],
    lines: &Lines,
    n: usize,
    problems: &mut Vec<String>,
) -> Result<(Vec<f64>, u64), String> {
    let mut core = InProcess::new();
    let mut apps = HashMap::new();
    let mut replies = Digest::default();
    let mut phi1 = Vec::new();
    for (i, req) in reqs.iter().enumerate().take(n) {
        let (decoded, shard) = core.decode(lines.get(i))?;
        core.serve(decoded, shard)?;
        replies.u64(reply_hash(&core.reply));
        match check_reply(req, &core.reply, &mut apps) {
            Ok(Answer::Served(p)) => phi1.extend(p),
            Ok(Answer::Refused(message)) => {
                problems.push(format!("canonical request {i} refused: {message}"))
            }
            Err(e) => problems.push(format!("canonical request {i}: {e}")),
        }
    }
    Ok((phi1, replies.finish()))
}

/// The kept TCP replies by sequence number, up to `prefix`: the longest run
/// of sequence numbers below [`KEPT`] that every connection sent in full.
/// Past it, the end of the timed phase cut some connection off.
struct Tcp {
    prefix: usize,
    latency_ms: Vec<f64>,
    hash: Vec<u64>,
}

fn by_sequence(warm: &[ConnLog], timed: &[ConnLog]) -> Tcp {
    let logs = || warm.iter().chain(timed);
    let end = logs()
        .flat_map(|l| l.kept.last())
        .map(|k| k.0 + 1)
        .max()
        .unwrap_or(0);
    let mut tcp = Tcp {
        prefix: 0,
        latency_ms: vec![f64::NAN; end],
        hash: vec![0; end],
    };
    let mut sent = vec![false; end];
    for log in logs() {
        for &(j, latency_ms, hash) in &log.kept {
            sent[j] = true;
            tcp.latency_ms[j] = latency_ms;
            tcp.hash[j] = hash;
        }
    }
    tcp.prefix = sent.iter().take_while(|&&s| s).count();
    tcp
}

/// The serving path a request took, from the shard counters that moved
/// while it was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Engine hit and allocation-cache hit.
    Front,
    /// Engine hit, allocation-cache miss, by the tenant's allocator.
    AllocDefault,
    AllocSa,
    AllocLattice,
    /// Engine miss.
    Build,
    /// `Inject`.
    Rebuild,
    Snapshot,
    Error,
}

impl Path {
    const ALL: [Path; 8] = [
        Path::Front,
        Path::AllocDefault,
        Path::AllocSa,
        Path::AllocLattice,
        Path::Build,
        Path::Rebuild,
        Path::Snapshot,
        Path::Error,
    ];

    fn name(self) -> &'static str {
        match self {
            Path::Front => "front",
            Path::AllocDefault => "alloc_default",
            Path::AllocSa => "alloc_sa",
            Path::AllocLattice => "alloc_lattice",
            Path::Build => "build",
            Path::Rebuild => "rebuild",
            Path::Snapshot => "snapshot",
            Path::Error => "error",
        }
    }
}

/// Assigns a served request to exactly one [`Path`] from the difference
/// of its shard's stats before and after. `None` when a counter the rule
/// needs is no longer reported.
fn classify(req: &Request, before: &Value, after: &Value) -> Option<Path> {
    let moved = |name: &str| -> Option<bool> {
        Some(stats::counter(after, name)? > stats::counter(before, name)?)
    };
    Some(if moved("errors")? {
        Path::Error
    } else if moved("snapshots")? {
        Path::Snapshot
    } else if moved("injects")? {
        Path::Rebuild
    } else if moved("cache_misses")? {
        Path::Build
    } else if moved("alloc_cache_hits")? {
        Path::Front
    } else {
        let allocator = match req {
            Request::Submit(s) => s.allocator.as_deref(),
            _ => None,
        };
        match allocator {
            Some("sa" | "annealing") => Path::AllocSa,
            Some("lattice") => Path::AllocLattice,
            _ => Path::AllocDefault,
        }
    })
}

/// Two shards sharing one cell store, routed as the server routes, and
/// the buffers a replay reuses.
struct InProcess {
    cores: Vec<ShardCore>,
    keys: HashSet<u64>,
    text: String,
    reply: Vec<u8>,
}

impl InProcess {
    fn new() -> InProcess {
        let cfg = serve_config();
        let store = Arc::new(CellStore::new(cfg.cell_store_capacity));
        InProcess {
            cores: (0..cfg.shards)
                .map(|id| ShardCore::with_store(id, cfg.clone(), Arc::clone(&store)))
                .collect(),
            keys: HashSet::new(),
            text: String::new(),
            reply: Vec::new(),
        }
    }

    fn decode(&mut self, line: &[u8]) -> Result<(Request, usize), String> {
        match read_line_into::<Request, _>(&mut &line[..], &mut self.text) {
            Ok(Some(Ok(req))) => {
                let shard = shard_of(req.tenant().unwrap_or(""), self.cores.len());
                Ok((req, shard))
            }
            other => Err(format!("request line did not decode: {other:?}")),
        }
    }

    /// Serves in a fresh admission batch, so no request rides on another's
    /// build, and encodes the reply into `self.reply`.
    fn serve(&mut self, req: Request, shard: usize) -> Result<(), String> {
        self.keys.clear();
        let resp = self.cores[shard].serve_owned(req, &mut self.keys);
        self.reply.clear();
        encode_line(&mut self.reply, &resp).map_err(|e| e.to_string())
    }
}

/// Replays the first `prefix` requests the run sent in-process three times
/// over: once reading the shard counters around each request and checking
/// each reply against its TCP reply; once with decode, shard and encode
/// spans; and once with neither, as the baseline for the tracing overhead.
/// The replays are deterministic, so request `j` takes the same path in
/// each, and reading counters never perturbs a span. Adds the per-layer
/// metrics of the serving path to `out`.
fn layer_metrics(
    feed: &Feed,
    prefix: usize,
    tcp: &Tcp,
    timed_from: usize,
    server_stats: &Value,
    out: &mut Outcome,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut counted = InProcess::new();
    let mut shard_stats: Vec<Value> = counted
        .cores
        .iter()
        .map(|c| serde_json::to_value(&c.stats()))
        .collect();
    let mut paths = Vec::with_capacity(prefix);
    let mut reply_bytes = 0usize;
    let mut mismatched = Vec::new();
    for j in 0..prefix {
        let (req, shard) = counted.decode(feed.line(j))?;
        counted.serve(req, shard)?;
        let after = serde_json::to_value(&counted.cores[shard].stats());
        paths.push(classify(feed.req(j), &shard_stats[shard], &after));
        shard_stats[shard] = after;
        reply_bytes += counted.reply.len();
        if reply_hash(&counted.reply) != tcp.hash[j] {
            mismatched.push(j);
        }
    }

    // The spanned and the plain replay advance in alternating blocks, so
    // both see the same host conditions and their ratio is the overhead.
    const BLOCK: usize = 64;
    let (mut decode_us, mut shard_us, mut encode_us) = (vec![], vec![], vec![]);
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let (mut spans, mut plain) = (InProcess::new(), InProcess::new());
    let mut plain_s = 0.0;
    for from in (0..prefix).step_by(BLOCK) {
        let to = (from + BLOCK).min(prefix);
        for j in from..to {
            let t0 = Instant::now();
            let (req, shard) = spans.decode(feed.line(j))?;
            let t1 = Instant::now();
            spans.keys.clear();
            let resp = spans.cores[shard].serve_owned(req, &mut spans.keys);
            let t2 = Instant::now();
            spans.reply.clear();
            encode_line(&mut spans.reply, &resp).map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            decode_us.push(us(t0, t1));
            shard_us.push(us(t1, t2));
            encode_us.push(us(t2, t3));
        }
        let t = Instant::now();
        for j in from..to {
            let (req, shard) = plain.decode(feed.line(j))?;
            plain.serve(req, shard)?;
        }
        plain_s += t.elapsed().as_secs_f64();
    }
    let traced_s = (decode_us.iter().sum::<f64>()
        + shard_us.iter().sum::<f64>()
        + encode_us.iter().sum::<f64>())
        / 1e6;
    if !mismatched.is_empty() {
        problems.push(format!(
            "{} of {prefix} TCP replies differ from the in-process replies \
             (reused_cells masked), first at request {}",
            mismatched.len(),
            mismatched[0]
        ));
    }
    out.note(format!("trace_cross_checked_replies {prefix}"));

    let in_process: Vec<f64> = (timed_from..prefix)
        .map(|j| decode_us[j] + shard_us[j] + encode_us[j])
        .collect();
    let tcp_us: Vec<f64> = tcp.latency_ms[timed_from..prefix]
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    out.metric("protocol.decode_us", stats::mean(&decode_us), "us");
    out.metric("protocol.encode_us", stats::mean(&encode_us), "us");
    out.metric(
        "protocol.reply_bytes",
        stats::ratio(reply_bytes as f64, prefix as f64),
        "B",
    );
    out.metric(
        "server.queue_transport_us",
        stats::mean(&tcp_us) - stats::mean(&in_process),
        "us",
    );
    out.metric("shard.service_us", stats::mean(&shard_us), "us");
    out.metric(
        "spec.expand_us",
        expand_us((0..prefix).map(|j| feed.req(j)))?,
        "us",
    );
    let mut sorted = shard_us.clone();
    sorted.sort_by(f64::total_cmp);
    out.metric(
        "shard.service_p99_us",
        stats::percentile(&sorted, 99.0),
        "us",
    );

    if paths.iter().any(Option::is_none) {
        eprintln!("warning: a counter the path rule reads is missing; per-path metrics dropped");
    } else {
        let total: f64 = shard_us.iter().sum();
        for path in Path::ALL {
            let times: Vec<f64> = paths
                .iter()
                .zip(&shard_us)
                .filter(|(p, _)| **p == Some(path))
                .map(|(_, t)| *t)
                .collect();
            let name = path.name();
            out.metric(&format!("shard.{name}.count"), times.len() as f64, "count");
            out.metric(
                &format!("shard.{name}.share"),
                stats::ratio(times.iter().sum(), total),
                "share",
            );
            if path == Path::Build {
                out.metric("shard.build.us", stats::mean(&times), "us");
            }
        }
    }

    // Program counters, by name, summed over the in-process shards.
    let sum =
        |name: &str| -> Option<f64> { shard_stats.iter().map(|s| stats::counter(s, name)).sum() };
    let share = |hits: &str, misses: &str| -> Option<f64> {
        let (h, m) = (sum(hits)?, sum(misses)?);
        Some(stats::ratio(h, h + m))
    };
    out.counter_metric(
        "spec.cache_hit_ratio",
        share("spec_cache_hits", "spec_cache_misses"),
        "ratio",
    );
    out.counter_metric(
        "engine.hit_ratio",
        share("cache_hits", "cache_misses"),
        "ratio",
    );
    out.counter_metric("engine.rebuilds", sum("cache_rebuilds"), "count");
    out.counter_metric(
        "alloc.cache_hit_ratio",
        share("alloc_cache_hits", "alloc_cache_misses"),
        "ratio",
    );
    out.counter_metric("alloc.sa_runs", sum("sa_multistart_runs"), "count");
    out.counter_metric("alloc.fallbacks", sum("alloc_fallbacks"), "count");
    out.counter_metric(
        "pool.tasks_per_run",
        sum("pool_tasks_run")
            .zip(sum("pool_runs"))
            .map(|(t, r)| stats::ratio(t, r)),
        "ratio",
    );
    out.counter_metric(
        "pool.steal_ratio",
        sum("pool_chunks_stolen")
            .zip(sum("pool_tasks_run"))
            .map(|(s, t)| stats::ratio(s, t)),
        "ratio",
    );

    // Service-level counters from the TCP server's final stats.
    let cell = |name: &str| stats::counter(server_stats, &format!("cell_store.{name}"));
    out.counter_metric(
        "cell_store.hit_ratio",
        cell("hits")
            .zip(cell("misses"))
            .map(|(h, m)| stats::ratio(h, h + m)),
        "ratio",
    );
    out.counter_metric("cell_store.evictions", cell("evictions"), "count");
    out.counter_metric("shard.imbalance", imbalance(server_stats), "ratio");
    let total = |name: &str| stats::counter(server_stats, &format!("total.{name}"));
    out.counter_metric(
        "shard.coalescing_factor",
        total("builds")
            .zip(total("coalesced"))
            .map(|(b, c)| if b == 0.0 { 1.0 } else { (b + c) / b }),
        "ratio",
    );
    out.counter_metric(
        "shard.drain_depth_mean",
        drain_depth_mean(server_stats),
        "count",
    );
    out.counter_metric(
        "server.flushes_per_reply",
        stats::counter(server_stats, "codec.flushes")
            .zip(stats::counter(server_stats, "codec.reply_frames"))
            .map(|(f, r)| stats::ratio(f, r)),
        "ratio",
    );
    let overhead = traced_s / plain_s;
    if overhead > 1.05 {
        eprintln!("warning: traced spans take {overhead:.3}× the untraced replay");
    }
    out.metric("trace.overhead_ratio", overhead, "ratio");
    Ok(())
}

/// Busiest shard's served requests over the mean across shards.
fn imbalance(server_stats: &Value) -> Option<f64> {
    let shards = server_stats.get("per_shard")?.as_array()?;
    let served = shards
        .iter()
        .map(|s| {
            ["submits", "injects", "snapshots", "errors"]
                .iter()
                .map(|n| stats::counter(s, n))
                .sum::<Option<f64>>()
        })
        .collect::<Option<Vec<f64>>>()?;
    let max = served.iter().copied().fold(0.0, f64::max);
    Some(stats::ratio(max, stats::mean(&served)))
}

/// Mean admission-batch depth from the log₂ histogram, each bucket read
/// at its midpoint (the open top bucket at its floor).
fn drain_depth_mean(server_stats: &Value) -> Option<f64> {
    let buckets = server_stats.get("total")?.get("drain_depths")?.as_array()?;
    let last = buckets.len().saturating_sub(1);
    let (mut n, mut sum) = (0.0, 0.0);
    for (b, count) in buckets.iter().enumerate() {
        let count = count.as_f64()?;
        let lo = (1u64 << b) as f64;
        let mid = if b == last {
            lo
        } else {
            (lo + 2.0 * lo - 1.0) / 2.0
        };
        n += count;
        sum += count * mid;
    }
    Some(stats::ratio(sum, n))
}

/// Mean time of one `WorkloadSpec::expand` over the distinct specs the
/// requests submit, in µs.
fn expand_us<'a>(reqs: impl Iterator<Item = &'a Request>) -> Result<f64, String> {
    let mut seen: HashSet<&WorkloadSpec> = HashSet::new();
    let mut times = Vec::new();
    for req in reqs {
        if let Request::Submit(s) = req {
            if seen.insert(&s.spec) {
                let t = Instant::now();
                s.spec.expand().map_err(|e| e.to_string())?;
                times.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    Ok(stats::mean(&times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsf_serve::SubmitRequest;

    fn submit(tenant: &str, seed: u64, allocator: Option<&str>) -> Request {
        Request::Submit(SubmitRequest {
            tenant: tenant.to_string(),
            spec: WorkloadSpec::simple(3, 2, 6, seed),
            deadline: 2_800.0,
            allocator: allocator.map(str::to_string),
            threshold: None,
            qos: None,
        })
    }

    #[test]
    fn path_classifier_follows_the_counters() {
        let mut core = ShardCore::new(0, serve_config());
        let mut keys = HashSet::new();
        let inject = Request::Inject(InjectRequest {
            tenant: "acme".into(),
            event: TenantEvent::Degrade {
                proc_type: 0,
                factor: 0.5,
            },
        });
        let steps = [
            (submit("acme", 7, None), Path::Build),
            (submit("acme", 7, None), Path::Front),
            (submit("acme", 7, Some("lattice")), Path::AllocLattice),
            (submit("acme", 7, Some("sa")), Path::AllocSa),
            (submit("acme", 8, None), Path::Build),
            (inject, Path::Rebuild),
            (
                Request::Snapshot {
                    tenant: "acme".into(),
                },
                Path::Snapshot,
            ),
            (
                Request::Snapshot {
                    tenant: "ghost".into(),
                },
                Path::Error,
            ),
        ];
        for (k, (req, want)) in steps.into_iter().enumerate() {
            let before = serde_json::to_value(&core.stats());
            keys.clear();
            core.serve_owned(req.clone(), &mut keys);
            let after = serde_json::to_value(&core.stats());
            assert_eq!(classify(&req, &before, &after), Some(want), "step {k}");
        }
        // A counter the rule needs has gone: no path, not a wrong one.
        let bare: Value = serde_json::from_str(r#"{"errors":0}"#).unwrap();
        assert_eq!(classify(&submit("acme", 7, None), &bare, &bare), None);
    }

    #[test]
    fn stream_digest_is_stable_and_semantic() {
        // Wire-only differences leave the digest alone; meaning changes it.
        let plain = submit("acme", 7, None);
        let Request::Submit(mut s) = plain.clone() else {
            unreachable!()
        };
        s.threshold = Some(0.8);
        assert_eq!(
            stream_digest(std::slice::from_ref(&plain)),
            stream_digest(&[Request::Submit(s.clone())])
        );
        s.deadline = 2_801.0;
        assert_ne!(
            stream_digest(&[plain]),
            stream_digest(&[Request::Submit(s)])
        );
    }

    #[test]
    fn canonical_streams_match_the_pins_and_wrap_cleanly() {
        for w in workloads() {
            let reqs = canonical(&w).unwrap();
            let pinned = PINNED_DIGESTS.iter().find(|p| p.0 == w.name).unwrap().1;
            let catalog = stream_digest(&reqs[..DIGEST_PREFIX]);
            assert_eq!(catalog, pinned, "{}: {catalog:016x}", w.name);
            // The stream opens with one submit per tenant, so wrapping to
            // its start never sends an inject to a tenant's older spec.
            let opening: HashSet<&str> = reqs[..w.stream.tenants]
                .iter()
                .map(|r| match r {
                    Request::Submit(s) => s.tenant.as_str(),
                    other => panic!("{}: stream opens with {other:?}", w.name),
                })
                .collect();
            assert_eq!(opening.len(), w.stream.tenants, "{}", w.name);
        }
    }

    #[test]
    fn send_order_warms_up_restores_then_wraps() {
        let w = workloads().into_iter().find(|w| w.name == "remap").unwrap();
        let reqs = canonical(&w).unwrap();
        let order = Order::new(&reqs, 3, 100);
        // The warm-up is the stream's opening, whatever the seed.
        assert!((0..100).all(|j| order.pos(j) == j));
        assert_eq!(Order::new(&reqs, 4, 100).pos(99), 99);
        let r = order.restore.len();
        assert!(r > 0 && r <= w.stream.tenants);
        assert_eq!(order.untimed(), 100 + r);
        // The restore re-sends each tenant's last submit before the offset.
        for &p in &order.restore {
            let tenant = reqs[p].tenant().unwrap();
            assert!(p < order.offset);
            assert!(!reqs[p + 1..order.offset]
                .iter()
                .any(|q| matches!(q, Request::Submit(s) if s.tenant == tenant)));
        }
        let u = order.untimed();
        assert_eq!(order.pos(u), order.offset);
        assert_eq!(order.pos(u + reqs.len() - order.offset), 0);
        // Every tenant named after the warm-up has been submitted by then.
        let mut seen: HashSet<&str> = HashSet::new();
        for j in 0..u + 2 * reqs.len() {
            let req = &reqs[order.pos(j)];
            match req {
                Request::Submit(s) => {
                    seen.insert(&s.tenant);
                }
                other => assert!(seen.contains(other.tenant().unwrap()), "request {j}"),
            }
        }
    }

    #[test]
    fn quality_replay_is_deterministic() {
        let w = workloads().into_iter().find(|w| w.name == "remap").unwrap();
        let reqs = canonical(&w).unwrap();
        let lines = Lines::encode(&reqs).unwrap();
        let mut problems = Vec::new();
        let a = quality(&reqs, &lines, 300, &mut problems).unwrap();
        let b = quality(&reqs, &lines, 300, &mut problems).unwrap();
        assert!(problems.is_empty(), "{problems:?}");
        assert!(!a.0.is_empty());
        assert_eq!(a.1, b.1);
        assert_eq!(
            a.0.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            b.0.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reused_cells_is_masked_and_nothing_else() {
        let a = br#"{"Inject":{"tenant":"t","engine_key":5,"reused_cells":12,"assignments":[]}}"#;
        let b = br#"{"Inject":{"tenant":"t","engine_key":5,"reused_cells":3,"assignments":[]}}"#;
        let c = br#"{"Inject":{"tenant":"t","engine_key":6,"reused_cells":3,"assignments":[]}}"#;
        assert_eq!(reply_hash(a), reply_hash(b));
        assert_ne!(reply_hash(b), reply_hash(c));
        assert_eq!(&*mask_reused(b"{\"x\":1}"), b"{\"x\":1}");
    }

    #[test]
    fn replies_are_checked_against_requests() {
        let mut core = ShardCore::new(0, serve_config());
        let req = submit("acme", 7, None);
        let mut line = Vec::new();
        encode_line(&mut line, &core.handle(&req)).unwrap();
        let mut apps = HashMap::new();
        assert!(matches!(
            check_reply(&req, &line, &mut apps),
            Ok(Answer::Served(Some(p))) if (0.0..=1.0).contains(&p)
        ));
        assert_eq!(apps.get("acme"), Some(&3));
        // The same reply for another tenant's request is out of order.
        assert!(check_reply(&submit("globex", 7, None), &line, &mut apps).is_err());
        let snap = Request::Snapshot {
            tenant: "acme".into(),
        };
        assert!(check_reply(&snap, &line, &mut apps).is_err());
    }

    #[test]
    fn refusals_are_counted_in_every_phase() {
        let mut core = ShardCore::new(0, serve_config());
        let snap = Request::Snapshot {
            tenant: "ghost".into(),
        };
        let mut line = Vec::new();
        encode_line(&mut line, &core.handle(&snap)).unwrap();
        let mut log = ConnLog::default();
        let now = Instant::now();
        log.record(0, &snap, now, Duration::ZERO, &line, &mut HashMap::new());
        assert_eq!(log.refused, [0]);
        assert!(log.problems.is_empty());
        // A refusal in the warm-up fails the run like one in the timed phase.
        let (sent, refused, problems) = tally(&[log], &[ConnLog::default()]);
        assert_eq!((sent, refused), (1, 1));
        assert!(problems.is_empty());
    }
}
