//! Property-based tests for the system model.

use cdsf_pmf::Pmf;
use cdsf_system::availability::{AvailabilitySpec, Timeline};
use cdsf_system::parallel_time::{amdahl_rescale, loaded_time_pmf, parallel_time_pmf};
use cdsf_system::{Application, Platform, ProcTypeId, ProcessorType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: an availability PMF with support in (0, 1].
fn arb_avail() -> impl Strategy<Value = Pmf> {
    prop::collection::vec(((0.05f64..=1.0), 0.05f64..1.0), 1..=4)
        .prop_map(|pairs| Pmf::from_weighted(pairs).expect("valid availability"))
}

/// Strategy: a platform with 1–4 types.
fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::collection::vec((1u32..=32, arb_avail()), 1..=4).prop_map(|types| {
        Platform::new(
            types
                .into_iter()
                .enumerate()
                .map(|(i, (count, avail))| {
                    ProcessorType::new(format!("T{i}"), count, avail).expect("valid type")
                })
                .collect(),
        )
        .expect("non-empty platform")
    })
}

/// Strategy: an application compatible with `num_types` processor types.
fn arb_application(num_types: usize) -> impl Strategy<Value = Application> {
    (
        1u64..=2_000,
        1u64..=20_000,
        prop::collection::vec(100.0f64..20_000.0, num_types..=num_types),
    )
        .prop_map(|(serial, parallel, means)| {
            let mut b = Application::builder("prop-app")
                .serial_iters(serial)
                .parallel_iters(parallel);
            for mu in means {
                b = b.exec_time_normal(mu, 8).expect("valid mean");
            }
            b.build().expect("valid application")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weighted_availability_is_a_convex_combination(platform in arb_platform()) {
        let w = platform.weighted_availability();
        let lo = platform.types().iter().map(|t| t.expected_availability()).fold(1.0f64, f64::min);
        let hi = platform.types().iter().map(|t| t.expected_availability()).fold(0.0f64, f64::max);
        prop_assert!(w >= lo - 1e-12 && w <= hi + 1e-12);
    }

    #[test]
    fn amdahl_time_decreases_with_processors(
        mu in 100.0f64..10_000.0,
        s in 0.0f64..=1.0,
    ) {
        let pmf = Pmf::degenerate(mu).unwrap();
        let mut prev = f64::INFINITY;
        for n in [1u32, 2, 4, 8, 16] {
            let t = amdahl_rescale(&pmf, s, n).unwrap().expectation();
            prop_assert!(t <= prev + 1e-9, "n={n}: {t} > {prev}");
            // Serial floor: never below s·mu.
            prop_assert!(t >= s * mu - 1e-9);
            prev = t;
        }
    }

    #[test]
    fn loaded_time_dominates_dedicated_time(platform in arb_platform()) {
        // For every type of the platform: E[T/α] ≥ E[T] since α ≤ 1.
        let app = Application::builder("a")
            .serial_iters(10)
            .parallel_iters(90)
            .exec_time_normal(1_000.0, 8).unwrap()
            .build().unwrap();
        let j = ProcTypeId(0);
        if app.exec_time(j).is_ok() {
            let dedicated = parallel_time_pmf(&app, j, 2).unwrap().expectation();
            let loaded = loaded_time_pmf(&app, &platform, j, 2).unwrap().expectation();
            prop_assert!(loaded + 1e-9 >= dedicated);
        }
    }

    #[test]
    fn timeline_finish_times_are_monotone_and_consistent(
        seed in 0u64..500,
        dwell in 1.0f64..500.0,
        starts in prop::collection::vec(0.0f64..1_000.0, 1..6),
        work in 1.0f64..500.0,
    ) {
        let pmf = Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap();
        let spec = AvailabilitySpec::Renewal { pmf, mean_dwell: dwell };
        let mut tl = Timeline::new(&spec).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sorted = starts.clone();
        sorted.sort_by(f64::total_cmp);
        let mut prev_finish = 0.0f64;
        for &s in &sorted {
            let f = tl.finish_time(s, work, &mut rng);
            // Finishing after starting, bounded by extreme availabilities.
            prop_assert!(f >= s + work - 1e-9); // availability ≤ 1
            prop_assert!(f <= s + work / 0.25 + 1e-9);
            // Later start ⇒ later finish (same realization).
            prop_assert!(f + 1e-9 >= prev_finish.min(s + work));
            prev_finish = f;
            // Determinism: repeating the query gives the same answer.
            prop_assert!((tl.finish_time(s, work, &mut rng) - f).abs() < 1e-12);
        }
    }

    #[test]
    fn application_iteration_time_scales(app in arb_application(2)) {
        for j in 0..2 {
            let it = app.iteration_time(ProcTypeId(j)).unwrap();
            let n = app.total_iters() as f64;
            let total = app.exec_time(ProcTypeId(j)).unwrap();
            prop_assert!((it.mean() * n - total.expectation()).abs() < 1e-6 * total.expectation());
            prop_assert!(it.std_dev() > 0.0);
        }
        prop_assert!((app.serial_fraction() + app.parallel_fraction() - 1.0).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused loaded-PMF kernel is bit-for-bit equal to the two-step
    /// `amdahl_rescale` + availability-quotient reference across random
    /// apps/platforms, every type, and several processor counts — this is
    /// the pin that lets `loaded_time_pmf` (and the Stage-I engine) route
    /// through the fused path without moving any golden file.
    #[test]
    fn fused_loaded_pmf_matches_two_step_reference(
        platform in arb_platform(),
        seed_app in (1usize..=4).prop_flat_map(arb_application),
    ) {
        use cdsf_system::parallel_time::loaded_time_pmf_in;
        let mut scratch = cdsf_pmf::CombineScratch::new();
        for j in 0..platform.num_types().min(seed_app.num_proc_types()) {
            let j = ProcTypeId(j);
            let count = platform.proc_type(j).unwrap().count();
            for n in [1u32, 2, 3, count.max(1)] {
                let fused = loaded_time_pmf_in(&seed_app, &platform, j, n, &mut scratch).unwrap();
                let two_step = amdahl_rescale(
                    seed_app.exec_time(j).unwrap(),
                    seed_app.serial_fraction(),
                    n,
                )
                .unwrap()
                .quotient(platform.proc_type(j).unwrap().availability())
                .unwrap();
                prop_assert!(fused.bits_eq(&two_step));
                // The public entry point routes through the same kernel.
                let public = loaded_time_pmf(&seed_app, &platform, j, n).unwrap();
                prop_assert!(public.bits_eq(&two_step));
            }
        }
    }
}
