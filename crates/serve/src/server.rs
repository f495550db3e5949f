//! The TCP front end: accept loop, per-connection threads, shard router.
//!
//! Plain `std::net` — one listener thread accepting connections, two
//! threads per connection (a reader and a writer), N shard threads doing
//! the scheduling work. Connection threads never compute anything.
//!
//! **Pipelined connections.** The reader parses each JSON line, stamps
//! it with its position in the connection's request order, and forwards
//! it to the owning shard's queue *without waiting for the reply* — a
//! client may have any number of requests in flight on one connection.
//! Shards answer onto the connection's frame channel as they finish;
//! the writer thread re-sequences frames with a [`std::collections::BTreeMap`]
//! keyed by sequence number and writes every reply in request order, so
//! the wire contract (replies in request order per connection) is
//! unchanged from the lockstep server. Per-tenant ordering stays total
//! because one shard owns a tenant and the reader enqueues in read order.
//!
//! **Batched reply codec.** The writer encodes each contiguous run of
//! ready frames into one retained byte buffer ([`encode_line`], no
//! intermediate `String`s) and issues a single `write_all` + `flush` per
//! burst rather than per reply. Snapshot serialization — the largest
//! reply by far — therefore happens here, off the shard loop. Aggregate
//! codec counters (bytes, frames, flushes) surface in
//! [`StatsReply::codec`].
//!
//! Shutdown: `Shutdown` flips an atomic flag and pokes the listener with
//! a throwaway self-connection so `accept` returns; the accept loop then
//! exits, shard queues get `Stop`, and [`Server::wait`] joins everything
//! and returns the final service-wide stats.

use crate::protocol::{
    encode_line, read_line_into, CodecStats, Request, Response, ShardStats, StatsReply,
};
use crate::shard::{run_shard, shard_of, ConnFrame, ReplyTo, ServeConfig, ShardCore, ShardMsg};
use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Reply-codec counters shared by every connection writer.
#[derive(Default)]
struct CodecCounters {
    reply_bytes: AtomicU64,
    reply_frames: AtomicU64,
    flushes: AtomicU64,
}

impl CodecCounters {
    fn record(&self, bytes: u64, frames: u64) {
        self.reply_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.reply_frames.fetch_add(frames, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CodecStats {
        CodecStats {
            reply_bytes: self.reply_bytes.load(Ordering::Relaxed),
            reply_frames: self.reply_frames.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

/// Routes requests to shard queues. Cheap to clone — one per connection
/// thread, plus one kept by the [`Server`] for its own shutdown path.
#[derive(Clone)]
pub struct Router {
    shards: Vec<mpsc::Sender<ShardMsg>>,
    shutdown: Arc<AtomicBool>,
    codec: Arc<CodecCounters>,
    cell_store: Arc<cdsf_ra::CellStore>,
    addr: SocketAddr,
}

impl Router {
    /// Serves one request to completion, whichever shard owns it — the
    /// synchronous in-process path (tests, embedders). TCP connections
    /// use the pipelined frame path instead.
    pub fn route(&self, req: Request) -> Response {
        match req.tenant() {
            Some(tenant) => {
                let shard = shard_of(tenant, self.shards.len());
                let (tx, rx) = mpsc::channel();
                if self.shards[shard]
                    .send(ShardMsg::Req(req, ReplyTo::Sync(tx)))
                    .is_err()
                {
                    return Response::Error {
                        message: "shard is down".to_string(),
                    };
                }
                rx.recv().unwrap_or(Response::Error {
                    message: "shard dropped the request".to_string(),
                })
            }
            None => match req {
                Request::Stats => Response::Stats(self.gather_stats()),
                Request::Shutdown => {
                    self.begin_shutdown();
                    Response::Bye
                }
                _ => Response::Error {
                    message: "unroutable request".to_string(),
                },
            },
        }
    }

    /// Collects and aggregates every shard's counters.
    pub fn gather_stats(&self) -> StatsReply {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = mpsc::channel();
            if shard.send(ShardMsg::Stats(tx)).is_ok() {
                if let Ok(stats) = rx.recv() {
                    per_shard.push(stats);
                }
            }
        }
        // The totals row carries no shard index (`shard: None`).
        let mut total = ShardStats::default();
        for s in &per_shard {
            total.merge(s);
        }
        StatsReply {
            shards: self.shards.len() as u64,
            per_shard,
            total,
            codec: self.codec.snapshot(),
            cell_store: self.cell_store.stats(),
        }
    }

    /// Flips the shutdown flag and unblocks the accept loop.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // The accept loop is blocked in `accept`; a throwaway
            // connection makes it return and observe the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running scheduling service.
pub struct Server {
    addr: SocketAddr,
    router: Router,
    accept_handle: Option<JoinHandle<()>>,
    shard_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use `"127.0.0.1:0"` for an ephemeral port), spawns
    /// the shard and accept threads, and starts serving immediately.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServeConfig) -> io::Result<Server> {
        let cfg = cfg.normalized();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        // One content-addressed cell store serves every shard: a PMF
        // cell interned by any tenant's build is reused by all of them.
        let cell_store = Arc::new(cdsf_ra::CellStore::new(cfg.cell_store_capacity));
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut shard_handles = Vec::with_capacity(cfg.shards);
        for id in 0..cfg.shards {
            let (tx, rx) = mpsc::channel::<ShardMsg>();
            senders.push(tx);
            let cfg = cfg.clone();
            let store = Arc::clone(&cell_store);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("cdsf-shard-{id}"))
                    .spawn(move || {
                        let mut core = ShardCore::with_store(id, cfg, store);
                        run_shard(&mut core, &rx);
                    })?,
            );
        }

        let router = Router {
            shards: senders,
            shutdown: Arc::new(AtomicBool::new(false)),
            codec: Arc::new(CodecCounters::default()),
            cell_store,
            addr,
        };

        let accept_router = router.clone();
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = std::thread::Builder::new()
            .name("cdsf-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_router.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let router = accept_router.clone();
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("cdsf-conn".to_string())
                        .spawn(move || serve_connection(stream, &router))
                    {
                        let mut handles = conn_handles.lock().expect("connection registry");
                        handles.push(handle);
                        // Reap finished connections so a long-lived server
                        // does not accumulate dead handles.
                        let (done, live): (Vec<_>, Vec<_>) =
                            handles.drain(..).partition(|h| h.is_finished());
                        for h in done {
                            let _ = h.join();
                        }
                        *handles = live;
                    }
                }
                // Drain the remaining connection threads before exiting so
                // `wait` observes a fully quiescent service.
                let handles = std::mem::take(&mut *conn_handles.lock().expect("registry"));
                for h in handles {
                    let _ = h.join();
                }
            })?;

        Ok(Server {
            addr,
            router,
            accept_handle: Some(accept_handle),
            shard_handles,
        })
    }

    /// The bound address (the actual port when bound ephemerally).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A router handle for driving the server in-process (no socket).
    pub fn router(&self) -> Router {
        self.router.clone()
    }

    /// Requests shutdown as if a client had sent [`Request::Shutdown`].
    pub fn shutdown(&self) {
        self.router.begin_shutdown();
    }

    /// Blocks until the accept loop exits (a client sent `Shutdown`, or
    /// [`Server::shutdown`] ran), then stops the shards and returns the
    /// final service-wide stats.
    pub fn wait(mut self) -> StatsReply {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let stats = self.router.gather_stats();
        for shard in &self.router.shards {
            let _ = shard.send(ShardMsg::Stop);
        }
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }
        stats
    }
}

/// One connection's reader half: parse each line, stamp it with its
/// sequence number, and forward it — tenant-scoped requests go to their
/// shard's queue without blocking; control requests and parse errors are
/// answered directly onto the frame channel (still in sequence, so the
/// writer interleaves them correctly with in-flight shard replies). On
/// EOF the frame channel is dropped and the writer joined.
fn serve_connection(stream: TcpStream, router: &Router) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<ConnFrame>();
    let codec = Arc::clone(&router.codec);
    let Ok(writer) = std::thread::Builder::new()
        .name("cdsf-conn-writer".to_string())
        .spawn(move || connection_writer(write_half, &rx, &codec))
    else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut seq: u64 = 0;
    while let Ok(Some(parsed)) = read_line_into::<Request, _>(&mut reader, &mut line) {
        let mut last = false;
        match parsed {
            Ok(req) => match req.tenant() {
                Some(tenant) => {
                    let shard = shard_of(tenant, router.shards.len());
                    let framed = ReplyTo::Framed {
                        seq,
                        tx: tx.clone(),
                    };
                    if let Err(mpsc::SendError(ShardMsg::Req(_, to))) =
                        router.shards[shard].send(ShardMsg::Req(req, framed))
                    {
                        to.send(Response::Error {
                            message: "shard is down".to_string(),
                        });
                    }
                }
                None => {
                    let resp = match req {
                        Request::Stats => Response::Stats(router.gather_stats()),
                        Request::Shutdown => {
                            router.begin_shutdown();
                            last = true;
                            Response::Bye
                        }
                        _ => Response::Error {
                            message: "unroutable request".to_string(),
                        },
                    };
                    let _ = tx.send(ConnFrame { seq, resp, last });
                }
            },
            Err(e) => {
                let _ = tx.send(ConnFrame {
                    seq,
                    resp: Response::Error {
                        message: format!("bad request line: {e}"),
                    },
                    last: false,
                });
            }
        }
        seq += 1;
        if last {
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// One connection's writer half: re-sequence reply frames and write each
/// contiguous run as a single buffered burst.
///
/// Frames may arrive out of request order (different shards finish at
/// different times); `pending` holds them until the next expected
/// sequence number shows up. Each iteration blocks for one frame,
/// absorbs whatever else is already queued, encodes the ready run into
/// the retained buffer, and issues one `write_all` + `flush`. A gap in
/// the run is never a deadlock: the missing sequence number is in flight
/// at a shard (or the reader), and `recv` will deliver it. Exits after
/// writing a frame marked `last` (`Bye`), or when every sender
/// (reader + shards) has hung up.
fn connection_writer(
    stream: TcpStream,
    rx: &mpsc::Receiver<ConnFrame>,
    codec: &CodecCounters,
) -> io::Result<()> {
    let mut w = BufWriter::new(stream);
    let mut pending: BTreeMap<u64, ConnFrame> = BTreeMap::new();
    let mut next_seq: u64 = 0;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    loop {
        let Ok(frame) = rx.recv() else {
            return Ok(());
        };
        pending.insert(frame.seq, frame);
        while let Ok(f) = rx.try_recv() {
            pending.insert(f.seq, f);
        }
        buf.clear();
        let mut frames: u64 = 0;
        let mut done = false;
        while let Some(f) = pending.remove(&next_seq) {
            next_seq += 1;
            encode_line(&mut buf, &f.resp)?;
            frames += 1;
            if f.last {
                done = true;
                break;
            }
        }
        if frames > 0 {
            w.write_all(&buf)?;
            w.flush()?;
            codec.record(buf.len() as u64, frames);
        }
        if done {
            return Ok(());
        }
    }
}

/// A blocking client speaking the line protocol over one connection.
///
/// [`Client::request`] is the lockstep convenience; for pipelining, queue
/// any number of [`Client::send`]s, [`Client::flush`], then drain with
/// [`Client::recv`] — the server answers in send order.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    buf: Vec<u8>,
    line: String,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            buf: Vec::with_capacity(256),
            line: String::new(),
        })
    }

    /// Queues one request without flushing (pipelining path).
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.buf.clear();
        encode_line(&mut self.buf, req)?;
        self.writer.write_all(&self.buf)
    }

    /// Pushes every queued request to the server.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Blocks for the next in-order reply (flushes queued requests
    /// first, so a bare `send` + `recv` cannot deadlock).
    pub fn recv(&mut self) -> io::Result<Response> {
        self.writer.flush()?;
        match read_line_into::<Response, _>(&mut self.reader, &mut self.line)? {
            Some(Ok(resp)) => Ok(resp),
            Some(Err(e)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable response: {e}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Sends one request and blocks for its reply (lockstep).
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_line, write_line};

    #[test]
    fn write_line_and_read_line_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Request::Stats).unwrap();
        let mut rd = BufReader::new(buf.as_slice());
        let parsed = read_line::<Request, _>(&mut rd).unwrap().unwrap().unwrap();
        assert!(matches!(parsed, Request::Stats));
    }

    fn one_shard() -> ServeConfig {
        ServeConfig {
            shards: 1,
            build_threads: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn a_bad_line_is_answered_in_order_and_the_connection_stays_open() {
        let server = Server::bind("127.0.0.1:0", one_shard()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut lines = b"this is not json\n".to_vec();
        encode_line(&mut lines, &Request::Stats).unwrap();
        stream.write_all(&lines).unwrap();
        let mut rd = BufReader::new(stream.try_clone().unwrap());
        match read_line::<Response, _>(&mut rd).unwrap().unwrap().unwrap() {
            Response::Error { message } => {
                assert!(message.starts_with("bad request line"), "{message:?}")
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        let stats = read_line::<Response, _>(&mut rd).unwrap().unwrap().unwrap();
        assert!(matches!(stats, Response::Stats(ref s) if s.shards == 1));
        // Both halves must close, or the connection thread `wait` joins
        // keeps reading.
        drop(rd);
        drop(stream);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn the_router_serves_stats_and_shutdown_in_process() {
        let server = Server::bind("127.0.0.1:0", one_shard()).unwrap();
        let router = server.router();
        let Response::Stats(stats) = router.route(Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!((stats.shards, stats.per_shard.len()), (1, 1));
        assert_eq!(stats.per_shard[0].shard, Some(0));
        assert!(stats.total.shard.is_none());
        assert!(matches!(router.route(Request::Shutdown), Response::Bye));
        // A second shutdown is harmless: the flag is already set.
        server.shutdown();
        let last = server.wait();
        assert_eq!(last.total.errors, 0);
    }

    #[test]
    fn wait_returns_the_counters_of_everything_served() {
        let server = Server::bind("127.0.0.1:0", one_shard()).unwrap();
        let router = server.router();
        let reply = router.route(Request::Submit(crate::protocol::SubmitRequest {
            tenant: "acme".to_string(),
            spec: crate::WorkloadSpec::simple(3, 2, 6, 5),
            deadline: 2_800.0,
            allocator: None,
            threshold: None,
            qos: None,
        }));
        assert!(matches!(reply, Response::Submit(_)), "{reply:?}");
        let fingerprint = router.route(Request::Fingerprint {
            tenant: "nobody".to_string(),
        });
        assert!(matches!(fingerprint, Response::Error { .. }));
        server.shutdown();
        let last = server.wait();
        assert_eq!((last.total.submits, last.total.errors), (1, 1));
        assert_eq!(last.total.tenants, 1);
    }
}
