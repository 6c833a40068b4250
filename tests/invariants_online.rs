//! The online invariant checker end to end (`check-invariants` feature):
//! the checks are observe-only (byte-identical results), a seeded
//! violation halts the run and round-trips through a repro artifact, and the
//! replay entrypoint re-executes it to the same failure.

#![cfg(feature = "check-invariants")]

use bench_harness::repro::{dump_artifact, replay_artifact, run_repro_cell, ReproSpec};
use netsim::{FaultAction, FaultScript, LossModel, ReorderModel, SimDuration, SimTime};

fn impaired_spec(seed: u64) -> ReproSpec {
    ReproSpec {
        seed,
        transfer_pkts: 2_000,
        cc: "lia".into(),
        dead_after_backoffs: Some(4),
        horizon_s: 60.0,
        fail_at_s: None,
        script: FaultScript::new()
            .at(
                SimTime::from_secs_f64(0.5),
                FaultAction::SetLoss { link: 0, model: LossModel::iid(0.02) },
            )
            .at(
                SimTime::from_secs_f64(0.5),
                FaultAction::SetReorder {
                    link: 0,
                    model: ReorderModel::uniform(0.2, SimDuration::from_millis(2)),
                },
            )
            .at(SimTime::from_secs_f64(0.5), FaultAction::SetDuplicate { link: 2, p: 0.1 })
            .at(SimTime::from_secs_f64(0.5), FaultAction::SetCorrupt { link: 1, p: 0.02 })
            .at(
                SimTime::from_secs_f64(8.0),
                FaultAction::SetLoss { link: 0, model: LossModel::None },
            )
            .at(
                SimTime::from_secs_f64(8.0),
                FaultAction::SetReorder { link: 0, model: ReorderModel::None },
            )
            .at(SimTime::from_secs_f64(8.0), FaultAction::SetDuplicate { link: 2, p: 0.0 })
            .at(SimTime::from_secs_f64(8.0), FaultAction::SetCorrupt { link: 1, p: 0.0 }),
    }
}

#[test]
fn checked_impaired_runs_complete_exactly_once_and_deterministically() {
    // The checker watches a fully impaired transfer without firing, and two
    // executions are byte-identical (trace tail included) — the checks are
    // observe-only by construction (&Simulator) and must stay that way.
    let a = run_repro_cell(&impaired_spec(3)).expect("repro cell failed");
    let b = run_repro_cell(&impaired_spec(3)).expect("repro cell failed");
    assert!(a.violation.is_none(), "invariants fired on a healthy run: {:?}", a.violation);
    assert!(a.finished, "impaired transfer did not complete");
    assert_eq!(a.acked, 2_000);
    assert_eq!(a.finished, b.finished);
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.trace_tail, b.trace_tail, "checked runs diverged across executions");
}

#[test]
fn seeded_violation_halts_dumps_an_artifact_and_replays_to_the_same_failure() {
    let mut spec = impaired_spec(11);
    // Deliberately seed a violation mid-transfer: the checker must halt the
    // run there instead of letting it finish.
    spec.fail_at_s = Some(1.25);
    let outcome = run_repro_cell(&spec).expect("repro cell failed");
    let v = outcome.violation.as_ref().expect("seeded violation did not fire");
    assert_eq!(v.at_ns, 1_250_000_000, "the tripwire's own timer reports it: {v:?}");
    assert!(!outcome.finished, "the run must halt at the violation, not complete");
    assert!(!outcome.trace_tail.is_empty(), "artifact needs a trace tail for context");

    let dir = std::env::temp_dir().join(format!("repro-online-{}", std::process::id()));
    let path = dump_artifact(&dir, &spec, &outcome).expect("artifact write failed");
    let report = replay_artifact(&path).expect("artifact replay failed");
    assert_eq!(report.original.as_ref(), Some(v));
    assert!(
        report.reproduced(),
        "replay diverged: recorded {:?}, replayed {:?}",
        report.original,
        report.replayed
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn replay_detects_a_spec_that_no_longer_violates() {
    // An artifact whose recorded violation cannot recur (the spec carries no
    // seeded failure and the run is healthy) must report non-reproduction —
    // the replay entrypoint's honesty check.
    let spec = impaired_spec(5);
    let mut outcome = run_repro_cell(&spec).expect("repro cell failed");
    outcome.violation = Some(bench_harness::repro::ViolationRecord {
        at_ns: 1,
        message: "stale violation from an older build".into(),
    });
    let dir = std::env::temp_dir().join(format!("repro-stale-{}", std::process::id()));
    let path = dump_artifact(&dir, &spec, &outcome).expect("artifact write failed");
    let report = replay_artifact(&path).expect("artifact replay failed");
    assert!(report.original.is_some());
    assert!(report.replayed.is_none());
    assert!(!report.reproduced());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
