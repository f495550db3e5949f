//! Engine-level work-stealing stress: a batch where one application's
//! execution PMFs have 100× the pulses of everyone else's, so its
//! `(app, type)` pair families dominate the kernel work. The pool must
//! keep every worker busy (no starvation — asserted via the instrumented
//! build's scheduling stats) and the engine must stay bit-identical to the
//! serial build.

use cdsf_ra::{EngineBuild, Phi1Engine};
use cdsf_system::{Application, Batch, ProcTypeId};
use cdsf_workloads::paper;

/// The paper's three applications, but application 0 gets `heavy` pulses
/// per execution PMF while the rest get `light`.
fn skewed_batch(heavy: usize, light: usize) -> Batch {
    let apps = (0..3)
        .map(|i| {
            let (s, p) = paper::ITERATIONS[i];
            let pulses = if i == 0 { heavy } else { light };
            Application::builder(format!("application {}", i + 1))
                .serial_iters(s)
                .parallel_iters(p)
                .exec_time_normal(paper::MEANS[i][0], pulses)
                .expect("valid fixture mean")
                .exec_time_normal(paper::MEANS[i][1], pulses)
                .expect("valid fixture mean")
                .build()
                .expect("valid fixture application")
        })
        .collect();
    Batch::new(apps)
}

fn engine_bits(engine: &Phi1Engine) -> Vec<u64> {
    let mut bits = Vec::new();
    for app in 0..engine.num_apps() {
        for ty in 0..engine.num_types() {
            let ty = ProcTypeId(ty);
            let mut procs = 1u32;
            while let Some(loaded) = engine.loaded_pmf(app, ty, procs) {
                for p in loaded.pulses() {
                    bits.push(p.value.to_bits());
                    bits.push(p.prob.to_bits());
                }
                procs *= 2;
            }
        }
    }
    bits
}

#[test]
fn hundredfold_pulse_skew_starves_no_worker_and_stays_bit_identical() {
    // App 0: 400 pulses; apps 1-2: 4 pulses — a 100× pulse skew, which the
    // quadratic kernel turns into a ~10000× *work* skew per pair family.
    let batch = skewed_batch(400, 4);
    let platform = paper::platform();
    let serial = Phi1Engine::build(&batch, &platform).unwrap();
    let want = engine_bits(&serial);

    for threads in [2usize, 4] {
        // min_work = 0 forces the pool path regardless of instance size.
        let opts = EngineBuild {
            threads,
            min_work: 0,
            store: None,
        };
        let (engine, stats) = Phi1Engine::build_with(&batch, &platform, &opts).unwrap();
        assert_eq!(
            engine_bits(&engine),
            want,
            "skewed build diverges at {threads} threads"
        );
        assert_eq!(stats.workers, threads);
        // 3 apps × 2 types = 6 pair families ≥ workers, so the pool's
        // reserved-first-chunk rule guarantees every worker ran ≥ 1.
        assert!(
            stats.no_worker_starved(),
            "worker starved at {threads} threads: {:?}",
            stats.tasks_run
        );
        assert_eq!(stats.tasks_run.iter().sum::<usize>(), 6);
    }
}

#[test]
fn skewed_build_respects_pair_error_order() {
    // Sanity on the error contract under skew: an empty batch and a zero
    // thread count still fail fast through the same entry points.
    let platform = paper::platform();
    let no_workers = EngineBuild {
        threads: 0,
        ..EngineBuild::default()
    };
    assert!(Phi1Engine::build_with(&skewed_batch(8, 4), &platform, &no_workers).is_err());
    assert!(Phi1Engine::build(&Batch::new(vec![]), &platform).is_err());
}
