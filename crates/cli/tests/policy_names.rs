//! Name parity across the front ends that take a Stage-I allocator name:
//! the CLI's `--allocator` flag (`stage1`, `surface`, `correlate`,
//! `advise`, `events`, `serve`), an experiment spec's `im` (`run-config`)
//! and a service `Submit`'s `allocator`. Each accepts every name in
//! README's policy table and rejects a name outside it.

use cdsf_cli::commands::allocator_policy;
use cdsf_cli::CliError;
use cdsf_core::experiment::ExperimentSpec;
use cdsf_core::SimParams;
use cdsf_serve::{Request, Response, ServeConfig, ShardCore, SubmitRequest, WorkloadSpec};
use cdsf_workloads::paper;

/// The 13 names in the first column of README's policy table, the first
/// table after the line naming `ImPolicy::by_name`.
fn readme_names() -> Vec<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md is readable");
    let table = readme
        .split_once("one table, `ImPolicy::by_name`:")
        .expect("README has the policy table")
        .1;
    let names: Vec<String> = table
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2).map(str::to_string))
        .collect();
    assert_eq!(names.len(), 13, "{names:?}");
    names
}

#[test]
fn the_cli_flag_accepts_every_readme_name() {
    for name in readme_names() {
        assert!(allocator_policy(&name).is_ok(), "--allocator {name}");
    }
    for name in ["nope", "equal_share", "Lattice"] {
        match allocator_policy(name) {
            Err(CliError::BadValue { flag, value }) => {
                assert_eq!((flag.as_str(), value.as_str()), ("--allocator", name))
            }
            other => panic!("--allocator {name}: {other:?}"),
        }
    }
}

/// The paper instance at 8 pulses, one runtime case, one STATIC replicate.
fn spec(im: &str) -> ExperimentSpec {
    ExperimentSpec {
        name: format!("names-{im}"),
        batch: paper::batch_with_pulses(8),
        reference: paper::platform(),
        runtime_cases: Vec::new(),
        deadline: paper::DEADLINE,
        sim: Some(SimParams {
            replicates: 1,
            threads: 1,
            ..SimParams::default()
        }),
        im: im.to_string(),
        ras: vec!["naive".to_string()],
    }
}

#[test]
fn an_experiment_spec_accepts_every_readme_name() {
    for name in readme_names() {
        let result = spec(&name).run();
        assert!(result.is_ok(), "im {name}: {:?}", result.err());
    }
    // Spec names are matched after lowercasing.
    assert!(spec("LATTICE").run().is_ok());
    // `equal_share` was an alias of this front end alone; `equal-share`
    // names the same policy.
    for name in ["nope", "equal_share"] {
        let err = spec(name).run().expect_err(name).to_string();
        assert!(err.contains("unknown im policy name"), "im {name}: {err}");
    }
}

#[test]
fn a_service_submit_accepts_every_readme_name() {
    let mut core = ShardCore::new(
        0,
        ServeConfig {
            build_threads: 1,
            ..ServeConfig::default()
        },
    );
    let submit = |allocator: &str| {
        Request::Submit(SubmitRequest {
            tenant: format!("t-{allocator}"),
            spec: WorkloadSpec::simple(3, 2, 4, 7),
            deadline: 1.0e9,
            allocator: Some(allocator.to_string()),
            threshold: None,
            qos: None,
        })
    };
    for name in readme_names() {
        let reply = core.handle(&submit(&name));
        assert!(matches!(reply, Response::Submit(_)), "{name}: {reply:?}");
    }
    match core.handle(&submit("nope")) {
        Response::Error { message } => {
            assert!(message.contains("unknown allocator"), "{message}")
        }
        other => panic!("nope: {other:?}"),
    }
}
