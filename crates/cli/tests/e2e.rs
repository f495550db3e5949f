//! End-to-end tests of the `cdsf` binary itself (not the library layer):
//! exit codes, stdout/stderr routing, and JSON well-formedness.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn cdsf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cdsf"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = cdsf(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"), "{text}");
}

#[test]
fn unknown_command_exits_nonzero_with_stderr() {
    let out = cdsf(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn missing_command_suggests_help() {
    let out = cdsf(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cdsf help"), "{err}");
}

#[test]
fn stage1_json_is_valid_json_on_stdout() {
    let out = cdsf(&["stage1", "--pulses", "8", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("stdout is valid JSON");
    assert!(v["phi1"].as_f64().unwrap() > 0.5);
    assert!(v["system_radius"].is_number());
}

#[test]
fn bad_flag_value_exits_nonzero() {
    let out = cdsf(&["stage1", "--pulses", "banana"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("banana"), "{err}");
}

#[test]
fn init_and_run_config_through_the_binary() {
    let dir = std::env::temp_dir().join("cdsf-e2e-config");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("exp.json");
    let path_s = path.to_str().unwrap();

    let out = cdsf(&[
        "init-config",
        "--file",
        path_s,
        "--pulses",
        "8",
        "--replicates",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(path.exists());

    let out = cdsf(&["run-config", "--file", path_s, "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["name"], "paper-example");
    assert!(v["robustness"]["rho1"].as_f64().unwrap() > 0.5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stage1_runs_the_annealer_by_its_short_name() {
    let out = cdsf(&["stage1", "--allocator", "sa", "--pulses", "8", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["allocator"], "sa");
    assert!(v["phi1"].as_f64().unwrap() > 0.5);
}

#[test]
fn run_config_runs_a_lattice_spec() {
    let dir = std::env::temp_dir().join("cdsf-e2e-lattice");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("exp.json");
    let path_s = path.to_str().unwrap();
    let out = cdsf(&[
        "init-config",
        "--file",
        path_s,
        "--pulses",
        "8",
        "--replicates",
        "2",
    ]);
    assert!(out.status.success());
    let spec = std::fs::read_to_string(&path).unwrap();
    assert!(spec.contains("\"im\": \"robust\""), "{spec}");
    std::fs::write(
        &path,
        spec.replace("\"im\": \"robust\"", "\"im\": \"lattice\""),
    )
    .unwrap();

    let out = cdsf(&["run-config", "--file", path_s, "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["scenario"]["im_name"], "Lattice");
    assert!(v["scenario"]["phi1"].as_f64().unwrap() > 0.5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `cdsf serve` with `args` and returns its output once it exits,
/// killing it first if it is still running after `limit` — a server
/// that started instead of refusing its flags.
fn serve_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cdsf"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

#[test]
fn serve_refuses_an_out_of_range_threshold_before_binding() {
    for value in ["0", "1.5", "nan"] {
        let out = serve_within(
            &["--port", "0", "--threshold", value],
            Duration::from_secs(10),
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("listening"),
            "--threshold {value}: the server started: {stdout}"
        );
        assert!(!out.status.success(), "--threshold {value}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--threshold") && err.contains(value),
            "--threshold {value}: {err}"
        );
    }
}
