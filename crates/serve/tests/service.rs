//! End-to-end suite for the scheduling service.
//!
//! Three contracts, all exact — no tolerances anywhere:
//!
//! 1. **Coalescing is invisible.** K submissions served from one
//!    admission batch (sharing one engine build) produce replies
//!    byte-identical to the same K submissions served one at a time —
//!    and byte-identical across engine build-thread counts 1/2/4.
//! 2. **Restores are byte-exact.** Snapshot a tenant mid-stream, kill
//!    the server, restore on a fresh one, replay the event tail: the
//!    final engine tables are byte-identical to the server that never
//!    died (asserted via `Phi1Engine::table_fingerprint`).
//! 3. **The TCP front end works.** Ephemeral-port server, concurrent
//!    clients, aggregated stats, clean shutdown.

use cdsf_serve::protocol::InjectRequest;
use cdsf_serve::{
    Client, Request, Response, ServeConfig, Server, ShardCore, SubmitRequest, TenantEvent,
    WorkloadSpec,
};
use proptest::prelude::*;

fn test_cfg(build_threads: usize) -> ServeConfig {
    ServeConfig {
        build_threads,
        ..ServeConfig::default()
    }
}

fn submit(tenant: &str, spec: WorkloadSpec, deadline: f64) -> Request {
    Request::Submit(SubmitRequest {
        tenant: tenant.to_string(),
        spec,
        deadline,
        allocator: None,
        threshold: None,
        qos: None,
    })
}

/// Byte-level reply comparison: the vendored `serde_json` is configured
/// with `float_roundtrip`, so equal JSON strings mean equal `f64` bits.
fn reply_bytes(resps: &[Response]) -> Vec<String> {
    resps
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializable"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 3: K concurrent (coalesced) submissions for the same
    /// spec are bit-identical to K serial submissions, for 1/2/4 build
    /// threads — and the replies agree *across* thread counts.
    #[test]
    fn coalesced_submits_bit_identical_to_serial(
        seed in 0u64..1_000_000,
        apps in 2usize..=5,
        types in 2usize..=3,
        pulses in 4usize..=8,
        k in 2usize..=4,
        same_tenant in prop_oneof![Just(true), Just(false)],
    ) {
        let spec = WorkloadSpec::simple(apps, types, pulses, seed);
        let deadline = 2_800.0;
        let reqs: Vec<Request> = (0..k)
            .map(|i| {
                let tenant = if same_tenant {
                    "tenant-0".to_string()
                } else {
                    format!("tenant-{i}")
                };
                submit(&tenant, spec.clone(), deadline)
            })
            .collect();

        let mut per_thread_bytes = Vec::new();
        for threads in [1usize, 2, 4] {
            // Serial: every request is its own admission batch.
            let mut serial = ShardCore::new(0, test_cfg(threads));
            let serial_replies: Vec<Response> =
                reqs.iter().map(|r| serial.handle(r)).collect();
            // Coalesced: one admission batch, one engine build.
            let mut batched = ShardCore::new(0, test_cfg(threads));
            let batched_replies = batched.process_batch(&reqs);

            let serial_bytes = reply_bytes(&serial_replies);
            let batched_bytes = reply_bytes(&batched_replies);
            prop_assert_eq!(
                &serial_bytes, &batched_bytes,
                "coalescing changed reply bytes at {} threads", threads
            );
            // The coalesced run paid for exactly one build.
            let stats = batched.stats();
            prop_assert_eq!(stats.builds, 1);
            prop_assert_eq!(stats.coalesced, k as u64 - 1);
            per_thread_bytes.push(batched_bytes);
        }
        // Thread count must not leak into replies either.
        prop_assert_eq!(&per_thread_bytes[0], &per_thread_bytes[1]);
        prop_assert_eq!(&per_thread_bytes[0], &per_thread_bytes[2]);
    }
}

/// Drives one request over an open client connection, panicking on
/// transport errors (the tests below assert on the typed response).
fn ask(client: &mut Client, req: &Request) -> Response {
    client.request(req).expect("request round-trips")
}

/// Satellite 4: snapshot → kill → restore → replay tail → byte-identical
/// engine tables, exercised over real sockets.
#[test]
fn crash_restart_replay_is_byte_identical() {
    let spec = WorkloadSpec::simple(4, 3, 6, 2_026);
    let events = [
        TenantEvent::Degrade {
            proc_type: 1,
            factor: 0.6,
        },
        TenantEvent::Drift { factor: 0.85 },
        TenantEvent::Crash { proc_type: 0 },
        TenantEvent::Degrade {
            proc_type: 0,
            factor: 0.9,
        },
    ];
    let inject = |tenant: &str, event: TenantEvent| {
        Request::Inject(InjectRequest {
            tenant: tenant.to_string(),
            event,
        })
    };

    // Server A lives through the whole stream.
    let server_a = Server::bind("127.0.0.1:0", test_cfg(2)).expect("bind A");
    let mut a = Client::connect(server_a.addr()).expect("connect A");
    ask(&mut a, &submit("acme", spec, 2_800.0));
    for e in &events[..2] {
        let resp = ask(&mut a, &inject("acme", *e));
        assert!(matches!(resp, Response::Inject(_)), "{resp:?}");
    }
    // Snapshot mid-stream (after two of four events).
    let Response::Snapshot { snapshot } = ask(
        &mut a,
        &Request::Snapshot {
            tenant: "acme".to_string(),
        },
    ) else {
        panic!("expected snapshot");
    };
    assert_eq!(snapshot.events_applied, 2);
    // The tail the restored server must replay.
    for e in &events[2..] {
        let resp = ask(&mut a, &inject("acme", *e));
        assert!(matches!(resp, Response::Inject(_)), "{resp:?}");
    }
    let Response::Fingerprint(survivor) = ask(
        &mut a,
        &Request::Fingerprint {
            tenant: "acme".to_string(),
        },
    ) else {
        panic!("expected fingerprint");
    };

    // "Kill" server A.
    assert!(matches!(ask(&mut a, &Request::Shutdown), Response::Bye));
    server_a.wait();

    // Server B restores from the snapshot and replays the tail.
    let server_b = Server::bind("127.0.0.1:0", test_cfg(2)).expect("bind B");
    let mut b = Client::connect(server_b.addr()).expect("connect B");
    let Response::Restored(restored) = ask(&mut b, &Request::Restore { snapshot }) else {
        panic!("expected restore reply");
    };
    for e in &events[2..] {
        let resp = ask(&mut b, &inject("acme", *e));
        assert!(matches!(resp, Response::Inject(_)), "{resp:?}");
    }
    let Response::Fingerprint(replayed) = ask(
        &mut b,
        &Request::Fingerprint {
            tenant: "acme".to_string(),
        },
    ) else {
        panic!("expected fingerprint");
    };
    assert!(matches!(ask(&mut b, &Request::Shutdown), Response::Bye));
    server_b.wait();

    assert_eq!(
        replayed.engine_key, survivor.engine_key,
        "replayed inputs diverged from the surviving server's"
    );
    assert_eq!(
        replayed.fingerprint, survivor.fingerprint,
        "restored + tail-replayed engine tables are not byte-identical"
    );
    assert_ne!(
        restored.engine_key, replayed.engine_key,
        "tail must evolve the state"
    );
}

/// TCP smoke: concurrent clients against a 2-shard server, aggregated
/// stats, clean shutdown.
#[test]
fn tcp_server_serves_concurrent_clients() {
    let cfg = ServeConfig {
        shards: 2,
        build_threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.addr();

    let mut handles = Vec::new();
    for c in 0..3 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for t in 0..2 {
                // One shared spec: with 6 tenants on 2 shards, some shard
                // must serve it repeatedly — hits or coalesces.
                let spec = WorkloadSpec::simple(3, 2, 5, 100);
                let tenant = format!("client{c}-tenant{t}");
                let resp = client
                    .request(&submit(&tenant, spec, 2_800.0))
                    .expect("submit");
                assert!(
                    matches!(resp, Response::Submit(_)),
                    "unexpected reply {resp:?}"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    let mut client = Client::connect(addr).expect("connect");
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected stats");
    };
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.per_shard.len(), 2);
    assert_eq!(stats.total.submits, 6);
    assert_eq!(stats.total.tenants, 6);
    assert_eq!(stats.total.errors, 0);
    // Same-spec submissions on one shard are answered from its
    // allocation cache or coalesce.
    assert!(stats.total.alloc_cache_hits + stats.total.coalesced > 0);
    // Pool telemetry flows through from the engine assemblies: one run
    // each, whether the kernel ran or every cell came from the store.
    assert_eq!(
        stats.total.pool_runs,
        stats.total.cache_hits + stats.total.cache_misses
    );

    assert!(matches!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::Bye
    ));
    let final_stats = server.wait();
    assert_eq!(final_stats.total.submits, 6);
}

/// The pipelined data plane is invisible in the bytes: a connection with
/// many requests in flight gets exactly the replies — in exactly the
/// order — a lockstep connection gets for the same stream, even though
/// the requests fan out across shards and complete out of order.
#[test]
fn pipelined_replies_match_lockstep_in_order_and_bytes() {
    // Tenants spread across both shards; repeated specs exercise the
    // caches; injections force cross-request state dependencies.
    let mut reqs = Vec::new();
    for i in 0..10 {
        let spec = WorkloadSpec::simple(3, 2, 5, 300 + (i % 3) as u64);
        reqs.push(submit(&format!("tenant-{i}"), spec.clone(), 2_800.0));
    }
    for i in 0..10 {
        reqs.push(Request::Inject(InjectRequest {
            tenant: format!("tenant-{i}"),
            event: TenantEvent::Drift { factor: 0.9 },
        }));
        reqs.push(Request::Fingerprint {
            tenant: format!("tenant-{i}"),
        });
    }

    let run = |pipelined: bool| -> Vec<String> {
        let cfg = ServeConfig {
            shards: 2,
            build_threads: 2,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut replies = Vec::with_capacity(reqs.len());
        if pipelined {
            // Everything in flight at once, then drain in order.
            for req in &reqs {
                client.send(req).expect("send");
            }
            client.flush().expect("flush");
            for _ in &reqs {
                replies.push(client.recv().expect("recv"));
            }
        } else {
            for req in &reqs {
                replies.push(client.request(req).expect("request"));
            }
        }
        assert!(matches!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::Bye
        ));
        server.wait();
        reply_bytes(&replies)
    };

    let lockstep = run(false);
    let pipelined = run(true);
    assert_eq!(
        lockstep, pipelined,
        "pipelining changed reply bytes or order"
    );
    // Order check independent of determinism: reply i echoes request i's
    // tenant.
    for (req, reply) in reqs.iter().zip(&pipelined) {
        let tenant = req.tenant().expect("tenant-scoped");
        assert!(
            reply.contains(&format!("\"{tenant}\"")),
            "reply out of order: expected {tenant} in {reply}"
        );
    }
}

/// Satellite 1 over the wire: the aggregated totals row omits the
/// `shard` field entirely (it used to carry a `u64::MAX` sentinel),
/// while per-shard rows keep their real ids — checked on the raw JSON,
/// not the deserialized struct.
#[test]
fn stats_totals_row_omits_shard_id_on_the_wire() {
    let cfg = ServeConfig {
        shards: 2,
        build_threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = WorkloadSpec::simple(3, 2, 5, 7);
    ask(&mut client, &submit("acme", spec, 2_800.0));

    // Speak the protocol by hand to inspect the raw reply line.
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect raw");
    {
        use std::io::Write;
        raw.write_all(b"\"Stats\"\n").expect("write stats request");
        raw.flush().expect("flush");
    }
    let mut line = String::new();
    {
        use std::io::BufRead;
        std::io::BufReader::new(&raw)
            .read_line(&mut line)
            .expect("read stats reply");
    }
    let v: serde_json::Value = serde_json::from_str(&line).expect("stats reply parses");
    let stats = v.get("Stats").expect("Stats variant");
    let total = stats.get("total").expect("total row");
    assert!(
        total.get("shard").is_none(),
        "totals row serialized a shard id: {line}"
    );
    assert!(!line.contains("18446744073709551615"), "sentinel leaked");
    let per_shard = stats
        .get("per_shard")
        .and_then(|p| p.as_array())
        .expect("per_shard rows");
    for (i, row) in per_shard.iter().enumerate() {
        assert_eq!(
            row.get("shard").and_then(|s| s.as_u64()),
            Some(i as u64),
            "per-shard row keeps its id"
        );
    }
    // Close the raw connection before shutdown: `Server::wait` joins
    // every connection thread, and this one's reader needs the EOF.
    drop(raw);

    // The codec counters flow through the typed reply too.
    let Response::Stats(typed) = ask(&mut client, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(typed.total.shard, None);
    assert!(typed.codec.reply_frames > 0, "writers recorded frames");

    assert!(matches!(
        ask(&mut client, &Request::Shutdown),
        Response::Bye
    ));
    server.wait();
}
