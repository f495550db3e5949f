//! Serve reply-codec microbenchmarks: the per-line cost of the
//! zero-allocation data plane against the allocate-per-line baseline it
//! replaced.
//!
//! Three angles on one representative `Submit` reply (8 apps — the
//! loadgen workload shape):
//!
//! - `encode_line/retained` — serializer straight into a caller-retained
//!   `Vec<u8>`, the connection-writer hot path (steady-state
//!   allocation-free);
//! - `encode_line/fresh` — the same serializer but a fresh buffer per
//!   line, isolating what buffer reuse saves;
//! - `to_string/baseline` — the old `serde_json::to_string` + copy path;
//! - `read_line/retained` — the request decode path with a retained line
//!   buffer.

use cdsf_serve::protocol::{
    encode_line, read_line_into, Request, RobustVerdict, SubmitReply, WireAssignment,
};
use cdsf_serve::Response;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::io::BufReader;

/// A reply shaped like the loadgen workload's: 8 apps, full verdict.
fn sample_reply() -> SubmitReply {
    SubmitReply {
        tenant: "tenant-0017".to_string(),
        engine_key: 0x9E37_79B9_7F4A_7C15,
        assignments: (0..8)
            .map(|i: usize| WireAssignment {
                proc_type: i % 3,
                procs: 1u32 << (i % 4),
            })
            .collect(),
        per_app_phi1: (0..8).map(|i| 0.91 + 0.01 * i as f64).collect(),
        expected_times: (0..8).map(|i| 1_800.0 + 37.5 * i as f64).collect(),
        verdict: RobustVerdict {
            phi1: 0.734_562_189_4,
            threshold: 0.8,
            robust: false,
            guaranteed_tier: None,
        },
    }
}

fn bench_encode(c: &mut Criterion) {
    let resp = Response::Submit(sample_reply());
    let line_len = serde_json::to_string(&resp).unwrap().len() as u64 + 1;

    let mut group = c.benchmark_group("serve_codec/encode");
    group.throughput(Throughput::Bytes(line_len));

    let mut retained = Vec::with_capacity(4096);
    group.bench_function("encode_line/retained", |b| {
        b.iter(|| {
            retained.clear();
            encode_line(&mut retained, black_box(&resp)).unwrap();
            black_box(retained.len())
        })
    });
    group.bench_function("encode_line/fresh", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            encode_line(&mut buf, black_box(&resp)).unwrap();
            black_box(buf.len())
        })
    });
    group.bench_function("to_string/baseline", |b| {
        b.iter(|| {
            let mut s = serde_json::to_string(black_box(&resp)).unwrap();
            s.push('\n');
            black_box(s.len())
        })
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    // A burst of submit requests, as the shard reader sees them.
    let mut wire = Vec::new();
    for i in 0..64 {
        let req = Request::Fingerprint {
            tenant: format!("tenant-{i:04}"),
        };
        encode_line(&mut wire, &req).unwrap();
    }
    let mut group = c.benchmark_group("serve_codec/decode");
    group.throughput(Throughput::Elements(64));
    let mut line = String::with_capacity(256);
    group.bench_function("read_line/retained", |b| {
        b.iter(|| {
            let mut reader = BufReader::new(wire.as_slice());
            let mut n = 0u32;
            while let Some(parsed) = read_line_into::<Request, _>(&mut reader, &mut line).unwrap() {
                parsed.expect("well-formed line");
                n += 1;
            }
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
