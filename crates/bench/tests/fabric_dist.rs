//! Integration drills for the distributed sweep fabric: byte-identity of
//! the distributed merge, `--workers`/`--journal` as the only way to ask for
//! workers or a journal, `--trace` refused by a binary that writes no
//! trace, chaos-injected worker loss, the temp spool's
//! clean-up, journal resume across a killed supervisor, and
//! quarantine-artifact naming. (The lease machine itself — heartbeat lapse,
//! late responses, partial harvest — is drilled by the root package's
//! `tests/fabric_supervisor.rs`, where tier-1 sees it.)

use bench_harness::fabric::{
    run_fabric, CellOutcome, FabricCell, FabricOptions, Fingerprint, RetryPolicy,
};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fabric-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke(args: &[&str], envs: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fabric_smoke"));
    cmd.args(args).env_remove("SWEEP_DIST_CHAOS");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("fabric_smoke runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn dist_merge_is_byte_identical_to_serial() {
    let (serial, _, code) = smoke(&[], &[]);
    assert_eq!(code, Some(0));
    let spool = temp_dir("ident");
    let (dist, stderr, code) = smoke(&["--workers", "3", "--spool", spool.to_str().unwrap()], &[]);
    assert_eq!(code, Some(0), "distributed run failed:\n{stderr}");
    assert_eq!(dist, serial, "distributed merge must be byte-identical to the serial run");
    assert!(
        stderr.contains("workers_spawned=3") && stderr.contains("redispatches=0"),
        "expected a clean 3-worker accounting line, got:\n{stderr}"
    );
}

/// `--workers` and `--journal` are the only spellings of their knobs: the
/// environment names they once also had must not turn a plain serial run
/// into a supervised, journaled one.
#[test]
fn workers_and_journal_are_flags_only() {
    let (serial, serial_err, code) = smoke(&[], &[]);
    assert_eq!(code, Some(0));
    let dir = temp_dir("flags-only");
    let tmpdir = dir.join("tmp");
    std::fs::create_dir(&tmpdir).unwrap();
    let journal = dir.join("env.jsonl");
    let (out, stderr, code) = smoke(
        &[],
        &[
            ("SWEEP_WORKERS", "3"),
            ("SWEEP_JOURNAL", journal.to_str().unwrap()),
            ("TMPDIR", tmpdir.to_str().unwrap()),
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(out, serial, "stdout must be the plain serial run's");
    assert_eq!(stderr, serial_err, "no supervisor, no warning: the serial run's counters only");
    assert!(!journal.exists(), "no journal without --journal");
    let spools: Vec<PathBuf> = std::fs::read_dir(&tmpdir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("sweep-spool-"))
        .collect();
    assert_eq!(spools, Vec::<PathBuf>::new(), "no spool without --workers");
}

/// `fabric_smoke` writes no trace, so `--trace` is an unknown argument
/// there, not a flag accepted and ignored.
#[test]
fn a_binary_that_writes_no_trace_refuses_the_flag() {
    let dir = temp_dir("no-trace");
    let traces = dir.join("traces");
    let (out, stderr, code) = smoke(&["--trace", traces.to_str().unwrap()], &[]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--trace`"), "{stderr}");
    assert_eq!(out, "", "no cell ran");
    assert!(!traces.exists(), "a refused --trace creates nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_is_redispatched_and_merge_unchanged() {
    let (serial, _, _) = smoke(&[], &[]);
    let spool = temp_dir("kill");
    let (dist, stderr, code) = smoke(
        &["--workers", "3", "--spool", spool.to_str().unwrap()],
        &[("SWEEP_DIST_CHAOS", "kill:1@2")],
    );
    assert_eq!(code, Some(0), "kill drill failed:\n{stderr}");
    assert_eq!(dist, serial, "a SIGKILLed worker must not change the merged bytes");
    assert!(
        stderr.contains("worker_crashes=1") && stderr.contains("redispatches=1"),
        "crash must be detected and re-dispatched, got:\n{stderr}"
    );
    assert!(
        stderr.contains("harvested_cells=1"),
        "the cell streamed before the kill must be salvaged, got:\n{stderr}"
    );
}

/// With no `--spool` the supervisor picks a directory under `$TMPDIR`, and
/// owns it: a clean run removes it, a run that revoked a lease keeps it (its
/// `events.jsonl` is the post-mortem) and says where it is, once.
#[test]
fn a_spool_the_supervisor_chose_is_removed_unless_a_lease_was_revoked() {
    let tmpdir = temp_dir("tmpdir");
    let entries = || -> Vec<PathBuf> {
        std::fs::read_dir(&tmpdir).unwrap().map(|e| e.unwrap().path()).collect()
    };
    let tmp_env = ("TMPDIR", tmpdir.to_str().unwrap());

    let (_, stderr, code) = smoke(&["--workers", "2"], &[tmp_env]);
    assert_eq!(code, Some(0), "clean run failed:\n{stderr}");
    assert_eq!(entries(), Vec::<PathBuf>::new(), "a clean run must leave $TMPDIR empty");
    assert!(!stderr.contains("spool kept"), "nothing to announce:\n{stderr}");

    let (_, stderr, code) =
        smoke(&["--workers", "2"], &[tmp_env, ("SWEEP_DIST_CHAOS", "kill:1@0")]);
    assert_eq!(code, Some(0), "kill drill failed:\n{stderr}");
    let kept = entries();
    assert_eq!(kept.len(), 1, "the revoked run's spool stays: {kept:?}");
    assert!(kept[0].file_name().unwrap().to_string_lossy().starts_with("sweep-spool-"));
    let grids: Vec<PathBuf> =
        std::fs::read_dir(&kept[0]).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(grids.len() == 1 && grids[0].join("events.jsonl").exists(), "{grids:?}");
    let named: Vec<&str> = stderr.lines().filter(|l| l.contains("spool kept")).collect();
    assert_eq!(named.len(), 1, "the kept spool is named once:\n{stderr}");
    assert!(named[0].contains(grids[0].to_str().unwrap()), "{named:?}");
}

#[test]
fn worker_quarantines_travel_the_wire_like_local_ones() {
    let dir = temp_dir("quarantine");
    let fail = [("FABRIC_SMOKE_FAIL", "cell-05")];
    let journal = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (serial, serial_err, code) = smoke(&["--journal", &journal("serial.jsonl")], &fail);
    assert_eq!(code, Some(1), "a quarantined cell exits 1:\n{serial_err}");
    let (dist, stderr, code) = smoke(
        &["--workers", "3", "--spool", dir.to_str().unwrap(), "--journal", &journal("dist.jsonl")],
        &fail,
    );
    assert_eq!(code, Some(1), "the distributed run must also exit 1:\n{stderr}");
    assert_eq!(dist, serial, "surviving cells must merge identically around the quarantine");
    // One collector settles both paths, so the accounting is not merely
    // similar: the counters line and the journaled quarantine are the
    // same bytes whether the cell failed in this process or across the wire.
    let lines_with = |text: &str, needle: &str| -> Vec<String> {
        text.lines().filter(|l| l.contains(needle)).map(str::to_owned).collect()
    };
    let counters = lines_with(&serial_err, "fabric: planned=");
    assert_eq!(counters.len(), 1, "one counters line:\n{serial_err}");
    assert!(counters[0].contains("panics=3") && counters[0].contains("quarantined=1"));
    assert_eq!(lines_with(&stderr, "fabric: planned="), counters, "dist stderr:\n{stderr}");
    let journaled = |name: &str| {
        let text = std::fs::read_to_string(journal(name)).unwrap();
        lines_with(&text, "\"fabric\":\"quarantined\"")
    };
    assert_eq!(journaled("serial.jsonl").len(), 1);
    assert_eq!(journaled("dist.jsonl"), journaled("serial.jsonl"));
    assert_eq!(lines_with(&stderr, "fabric-dist:").len(), 1, "printed once:\n{stderr}");
}

#[test]
fn supervisor_killed_mid_sweep_resumes_from_journal() {
    let (serial, _, _) = smoke(&[], &[]);
    let dir = temp_dir("resume");
    let journal = dir.join("sweep.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fabric_smoke"))
        .args(["--workers", "3", "--journal"])
        .arg(&journal)
        .arg("--spool")
        .arg(&dir)
        .env("FABRIC_SMOKE_SLEEP_MS", "300")
        .env_remove("SWEEP_DIST_CHAOS")
        .spawn()
        .unwrap();
    // Let a few cells land in the journal, then SIGKILL the supervisor
    // (workers die with it or become harmless orphans writing to the
    // spool; the journal is the durable layer).
    std::thread::sleep(Duration::from_millis(1200));
    let _ = child.kill();
    let _ = child.wait();
    let (resumed, stderr, code) = smoke(
        &[
            "--workers",
            "3",
            "--journal",
            journal.to_str().unwrap(),
            "--spool",
            dir.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(code, Some(0), "resume failed:\n{stderr}");
    assert_eq!(resumed, serial, "resumed output must be byte-identical to an unkilled run");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        text.lines().filter(|l| l.contains("\"fabric\":\"done\"")).count() >= 12,
        "journal must hold every cell after the resume"
    );
}

/// Identically-labelled cells distinguished only by config fingerprint must
/// quarantine into *distinct* artifact files — the CellId in the filename
/// is what prevents one repro from clobbering the other.
#[test]
fn quarantine_artifacts_embed_cell_ids() {
    let dir = temp_dir("artifacts");
    let mk = |tag: u64| {
        FabricCell::new("same-label", 9, move || -> (u64, f64) {
            panic!("boom {tag}");
        })
        .config(Fingerprint::new().str("artifact-test").u64(tag))
    };
    let opts = FabricOptions {
        jobs: 1,
        journal: None,
        deadline: None,
        retry: RetryPolicy::none(),
        artifacts: Some(dir.clone()),
    };
    let report = run_fabric(vec![mk(1), mk(2)], &opts).unwrap();
    let artifacts: Vec<PathBuf> = report
        .outcomes
        .iter()
        .map(|o| match o {
            CellOutcome::Quarantined(q) => {
                let path = q.artifact.clone().expect("artifact written");
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                assert!(
                    name.contains(&q.id.to_string()),
                    "artifact {name:?} must embed the cell id {}",
                    q.id
                );
                path
            }
            CellOutcome::Done { .. } => panic!("both cells were rigged to fail"),
        })
        .collect();
    assert_eq!(artifacts.len(), 2);
    assert_ne!(artifacts[0], artifacts[1], "same-label cells must not clobber each other");
    assert!(artifacts[0].exists() && artifacts[1].exists());
}
