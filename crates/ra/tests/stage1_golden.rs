//! Golden pin of Stage-I allocator outputs.
//!
//! `tests/golden/stage1_allocs.json` freezes the exact allocation every
//! Stage-I policy returns on the paper instance and on a generated 7-app
//! instance, across several seeds and thread counts. The snapshot was
//! captured *before* the flat-SoA φ₁ kernel rewrite; keeping it green
//! proves the prefix-CDF tables, the arena-backed engine, and the
//! incremental delta-fitness evaluator are bit-identical replacements,
//! not approximations. The greedy and wave allocators' answers on two
//! tie-heavy instances were appended before those four policies came to
//! share one list-scheduling loop, and pin that the loop kept every
//! ranking and tie rule.
//!
//! Regenerate (only for an *intentional* behaviour change):
//!
//! ```sh
//! CDSF_BLESS=1 cargo test -p cdsf-ra --test stage1_golden
//! ```

use cdsf_ra::allocators::{
    allocate_incremental, EqualShare, Exhaustive, GeneticAlgorithm, GreedyMaxRobust, GreedyMinTime,
    Lattice, SimulatedAnnealing, Sufferage,
};
use cdsf_ra::{Allocation, Allocator};
use cdsf_system::{Batch, Platform};
use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
use cdsf_workloads::paper;
use serde_json::{json, Value};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/stage1_allocs.json")
}

fn generated_instance(seed: u64) -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types: 3,
        procs_per_type: (8, 16),
        availability_pulses: 3,
        availability_range: Range::new(0.3, 1.0).unwrap(),
    }
    .generate(seed)
    .unwrap();
    let batch = BatchGenerator {
        num_apps: 7,
        total_iters: (1_000, 8_000),
        serial_fraction: Range::new(0.02, 0.2).unwrap(),
        mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
        type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
        pulses: 12,
    }
    .generate(&platform, seed.wrapping_add(1))
    .unwrap();
    (batch, platform)
}

/// The service's generated instance shape at `seed`, on a platform of
/// `num_types` types with `procs_per_type` processors each.
fn serve_shaped(seed: u64, num_types: usize, procs_per_type: (u32, u32)) -> (Batch, Platform) {
    let platform = PlatformGenerator {
        num_types,
        procs_per_type,
        ..Default::default()
    }
    .generate(seed)
    .unwrap();
    let batch = BatchGenerator {
        num_apps: 3 + (seed % 4) as usize,
        pulses: 5 + (seed % 4) as usize,
        ..Default::default()
    }
    .generate(&platform, seed)
    .unwrap();
    (batch, platform)
}

/// Tie-heavy instances for the list-scheduling family: seed 65 with every
/// application twice at a slack deadline, where most options read
/// `φ = 1 ± ulps`, and seed 29 on 2 types of 2–5 processors, where every
/// allocation's `φ₁` is 0 and the expected times decide.
fn tie_heavy_instances() -> Vec<(&'static str, Batch, Platform, f64)> {
    let (batch, platform) = serve_shaped(65, 3, (4, 32));
    let twice = batch
        .apps()
        .iter()
        .flat_map(|a| [a.clone(), a.clone()])
        .collect();
    let (contended, small) = serve_shaped(29, 2, (2, 5));
    vec![
        ("dup65", Batch::new(twice), platform, 20_000.0),
        ("cont29", contended, small, 3_000.0),
    ]
}

fn alloc_json(alloc: &Allocation) -> Value {
    Value::Array(
        alloc
            .assignments()
            .iter()
            .map(|a| json!([a.proc_type.0, a.procs]))
            .collect(),
    )
}

/// Every pinned `(label, allocation)` pair, in deterministic order.
fn compute_all() -> Vec<(String, Allocation)> {
    let mut out = Vec::new();
    let instances: Vec<(&str, Batch, Platform, f64)> = vec![
        (
            "paper",
            paper::batch_with_pulses(32),
            paper::platform(),
            paper::DEADLINE,
        ),
        {
            let (b, p) = generated_instance(47);
            ("gen47", b, p, 2_800.0)
        },
    ];
    for (tag, batch, platform, deadline) in &instances {
        let deterministic: Vec<(&str, Box<dyn Allocator>)> = vec![
            ("equal_share", Box::new(EqualShare::new())),
            ("greedy_min_time", Box::new(GreedyMinTime::new())),
            ("greedy_max_robust", Box::new(GreedyMaxRobust::new())),
            ("sufferage", Box::new(Sufferage::new())),
        ];
        for (name, policy) in &deterministic {
            let alloc = policy.allocate(batch, platform, *deadline).unwrap();
            out.push((format!("{tag}/{name}"), alloc));
        }
        // The robust IM's pins: the lattice at 1 and 4 threads, which the
        // serial enumeration must equal.
        let reference = Exhaustive.allocate(batch, platform, *deadline).unwrap();
        for threads in [1usize, 4] {
            let alloc = Lattice::new(threads)
                .unwrap()
                .allocate(batch, platform, *deadline)
                .unwrap();
            assert_eq!(alloc, reference, "{tag}: lattice t{threads} ≠ exhaustive");
            out.push((format!("{tag}/exhaustive/t{threads}"), alloc));
        }
        for seed in [1u64, 2, 3] {
            for threads in [1usize, 8] {
                let sa = SimulatedAnnealing {
                    iterations: 3_000,
                    seed,
                    threads,
                    ..Default::default()
                };
                let alloc = sa.allocate(batch, platform, *deadline).unwrap();
                out.push((format!("{tag}/sa/s{seed}/t{threads}"), alloc));
            }
        }
        for seed in [1u64, 2] {
            for threads in [1usize, 8] {
                let ga = GeneticAlgorithm {
                    generations: 25,
                    seed,
                    threads,
                    ..Default::default()
                };
                let alloc = ga.allocate(batch, platform, *deadline).unwrap();
                out.push((format!("{tag}/ga/s{seed}/t{threads}"), alloc));
            }
        }
    }
    for (tag, batch, platform, deadline) in &tie_heavy_instances() {
        let greedy: Vec<(&str, Box<dyn Allocator>)> = vec![
            ("greedy_min_time", Box::new(GreedyMinTime::new())),
            ("greedy_max_robust", Box::new(GreedyMaxRobust::new())),
            ("sufferage", Box::new(Sufferage::new())),
        ];
        for (name, policy) in &greedy {
            let alloc = policy.allocate(batch, platform, *deadline).unwrap();
            out.push((format!("{tag}/{name}"), alloc));
        }
        let n = batch.len();
        for waves in [vec![n], vec![1; n], vec![n / 2, n - n / 2]] {
            let alloc = allocate_incremental(batch, platform, *deadline, &waves).unwrap();
            let sizes: Vec<String> = waves.iter().map(usize::to_string).collect();
            out.push((format!("{tag}/incremental/{}", sizes.join("+")), alloc));
        }
    }
    out
}

#[test]
fn allocations_match_pre_rewrite_golden() {
    let computed = compute_all();
    let as_json: Value = Value::Array(
        computed
            .iter()
            .map(|(label, alloc)| json!({ "label": label, "allocation": alloc_json(alloc) }))
            .collect(),
    );

    let path = golden_path();
    if std::env::var("CDSF_BLESS").is_ok() {
        std::fs::write(&path, serde_json::to_string_pretty(&as_json).unwrap()).unwrap();
        return;
    }

    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let golden: Value = serde_json::from_str(&raw).unwrap();
    let golden = golden.as_array().unwrap();
    assert_eq!(golden.len(), computed.len(), "golden entry count drifted");
    for (entry, (label, alloc)) in golden.iter().zip(&computed) {
        assert_eq!(entry["label"].as_str().unwrap(), label, "pin order drifted");
        assert_eq!(
            entry["allocation"],
            alloc_json(alloc),
            "allocation for `{label}` diverged from the pre-rewrite pin"
        );
    }
}
