//! Serde round-trips for the persistent model types: a saved experiment
//! configuration must reload bit-for-bit.

use cdsf_pmf::Pmf;
use cdsf_system::availability::AvailabilitySpec;
use cdsf_system::{Application, Batch, Platform, ProcessorType};

fn platform() -> Platform {
    Platform::new(vec![
        ProcessorType::new(
            "Type 1",
            4,
            Pmf::from_pairs([(0.75, 0.5), (1.0, 0.5)]).unwrap(),
        )
        .unwrap(),
        ProcessorType::new(
            "Type 2",
            8,
            Pmf::from_pairs([(0.25, 0.25), (0.5, 0.25), (1.0, 0.5)]).unwrap(),
        )
        .unwrap(),
    ])
    .unwrap()
}

fn batch() -> Batch {
    Batch::new(vec![Application::builder("app")
        .serial_iters(439)
        .parallel_iters(1024)
        .exec_time_normal(1800.0, 16)
        .unwrap()
        .exec_time_normal(4000.0, 16)
        .unwrap()
        .build()
        .unwrap()])
}

#[test]
fn platform_round_trips() {
    let p = platform();
    let json = serde_json::to_string(&p).unwrap();
    let back: Platform = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
    assert_eq!(back.weighted_availability(), p.weighted_availability());
}

#[test]
fn batch_round_trips() {
    let b = batch();
    let json = serde_json::to_string(&b).unwrap();
    let back: Batch = serde_json::from_str(&json).unwrap();
    assert_eq!(b, back);
}

#[test]
fn availability_specs_round_trip() {
    let specs = vec![
        AvailabilitySpec::Constant { a: 0.7 },
        AvailabilitySpec::Renewal {
            pmf: Pmf::from_pairs([(0.5, 0.5), (1.0, 0.5)]).unwrap(),
            mean_dwell: 300.0,
        },
        AvailabilitySpec::TwoStateMarkov {
            up: 1.0,
            down: 0.2,
            mean_up: 100.0,
            mean_down: 50.0,
        },
        AvailabilitySpec::Trace {
            segments: vec![(1.0, 10.0), (0.5, 5.0)],
        },
    ];
    for spec in specs {
        let json = serde_json::to_string(&spec).unwrap();
        let back: AvailabilitySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // A reloaded spec must still validate.
        assert!(back.validate().is_ok());
    }
}

#[test]
fn reloaded_platform_supports_full_pipeline() {
    // Round-trip, then use the reloaded objects in the Stage-I arithmetic.
    let p: Platform = serde_json::from_str(&serde_json::to_string(&platform()).unwrap()).unwrap();
    let b: Batch = serde_json::from_str(&serde_json::to_string(&batch()).unwrap()).unwrap();
    let app = b.app(cdsf_system::AppId(0)).unwrap();
    let pmf = cdsf_system::parallel_time::loaded_time_pmf(app, &p, cdsf_system::ProcTypeId(0), 2)
        .unwrap();
    assert!((pmf.expectation() - 1365.0).abs() < 5.0);
}
