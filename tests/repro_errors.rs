//! Error-path contract of the repro artifact pipeline
//! (`bench_harness::repro`): a truncated, corrupt, or hand-mangled artifact
//! must come back as a descriptive `Err`, never a panic — quarantine
//! artifacts are read by humans mid-incident, and the `replay` binary must
//! degrade to a message, not a backtrace.

use bench_harness::repro::{parse_artifact, replay_artifact, run_repro_cell, ReproSpec};
use netsim::FaultScript;

const SPEC: &str = "{\"repro\":\"spec\",\"seed\":7,\"transfer_pkts\":100,\"cc\":\"dts\",\
                    \"dead_after_backoffs\":4,\"horizon_ns\":2000000000}";

fn spec(cc: &str) -> ReproSpec {
    ReproSpec {
        seed: 7,
        transfer_pkts: 50,
        cc: cc.into(),
        dead_after_backoffs: None,
        horizon_s: 1.0,
        fail_at_s: None,
        script: FaultScript::new(),
    }
}

#[test]
fn empty_and_spec_free_artifacts_are_rejected() {
    let err = parse_artifact("").unwrap_err();
    assert!(err.contains("no spec line"), "{err}");
    // Trace-tail noise without a spec is still spec-free.
    let err = parse_artifact("{\"ev\":\"send\",\"t\":1}\nnot json at all\n").unwrap_err();
    assert!(err.contains("no spec line"), "{err}");
}

#[test]
fn truncated_spec_line_is_an_error_not_a_panic() {
    // A SIGKILL mid-write can leave the spec line cut after the marker
    // field: a torn line is rejected whole, never read as a shorter spec.
    let cut = &SPEC[..SPEC.len() / 2];
    let err = parse_artifact(cut).unwrap_err();
    assert!(err.contains("artifact line 1"), "{err}");
}

#[test]
fn fault_line_before_spec_is_rejected() {
    let text = "{\"repro\":\"fault\",\"at_ns\":5,\"link\":0,\"kind\":\"blackout_on\"}\n";
    let err = parse_artifact(text).unwrap_err();
    assert!(err.contains("fault line before spec"), "{err}");
}

#[test]
fn corrupt_fault_and_violation_lines_are_rejected() {
    let bad_fault = format!("{SPEC}\n{{\"repro\":\"fault\",\"at_ns\":5}}\n");
    let err = parse_artifact(&bad_fault).unwrap_err();
    assert!(err.contains("fault line missing link"), "{err}");

    let bad_violation = format!("{SPEC}\n{{\"repro\":\"violation\",\"message\":\"x\"}}\n");
    let err = parse_artifact(&bad_violation).unwrap_err();
    assert!(err.contains("violation missing at_ns"), "{err}");
}

#[test]
fn well_formed_spec_still_parses_after_the_error_paths() {
    // Sanity: the fixture the error tests mangle is itself valid.
    let (spec, violation) = parse_artifact(SPEC).unwrap();
    assert_eq!(spec.seed, 7);
    assert_eq!(spec.transfer_pkts, 100);
    assert_eq!(spec.cc, "dts");
    assert_eq!(spec.dead_after_backoffs, Some(4));
    assert!(violation.is_none());
}

#[test]
fn unknown_congestion_control_is_an_error_not_a_panic() {
    let err = run_repro_cell(&spec("cubic")).unwrap_err();
    assert!(err.contains("unknown congestion control"), "{err}");
    assert!(err.contains("cubic"), "{err}");
}

#[test]
fn known_congestion_control_executes() {
    // The guard above must not be overeager: a real cc runs to completion.
    let outcome = run_repro_cell(&spec("reno")).unwrap();
    assert!(outcome.finished, "50-packet clean transfer must finish");
    assert_eq!(outcome.acked, 50);
}

#[test]
fn replaying_a_missing_artifact_is_an_error_not_a_panic() {
    let path = std::env::temp_dir()
        .join(format!("repro-errors-{}-definitely-missing.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let err = replay_artifact(&path).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn replaying_a_corrupt_artifact_is_an_error_not_a_panic() {
    let path =
        std::env::temp_dir().join(format!("repro-errors-{}-corrupt.jsonl", std::process::id()));
    std::fs::write(&path, "{\"repro\":\"violation\"").unwrap();
    let err = replay_artifact(&path).unwrap_err();
    assert!(err.contains("artifact line 1"), "{err}");
    let _ = std::fs::remove_file(&path);
}
