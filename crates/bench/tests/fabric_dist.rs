//! Integration drills for the distributed sweep fabric: byte-identity of
//! the distributed merge, chaos-injected worker loss, the attach-mode wire
//! protocol driven by a test-authored worker (heartbeat lapse, late
//! responses, partial harvest), journal resume across a killed supervisor,
//! and quarantine-artifact naming.

use bench_harness::fabric::dist::wire::{self, PROTOCOL_VERSION};
use bench_harness::fabric::journal::encode_payload;
use bench_harness::fabric::retry::AttemptStats;
use bench_harness::fabric::{
    run_dist, run_fabric, CellOutcome, DistOptions, FabricCell, FabricOptions, Fingerprint,
    RetryPolicy, ShardPlan, SpawnMode,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fabric-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke(args: &[&str], envs: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fabric_smoke"));
    cmd.args(args).env_remove("SWEEP_DIST_CHAOS").env_remove("SWEEP_WORKERS");
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

/// The attach-mode contract end to end, with the test as the worker: a
/// first claimant heartbeats, streams one cell, and goes silent (lease
/// revoked as a heartbeat lapse); its response file grows *after* the
/// revocation (counted as a late response, discarded); a second claimant
/// serves the re-dispatched remainder — on its second attempt, after a
/// panic. The merge must match the serial run and account every event,
/// that panic included.
#[test]
fn attach_worker_lapse_redispatch_and_late_response() {
    let mk_cells = || -> Vec<FabricCell<(u64, f64)>> {
        (0..4u64)
            .map(|i| {
                FabricCell::new(format!("att-{i}"), i, move || {
                    (i.wrapping_mul(7) + 1, i as f64 * 0.5)
                })
                .config(Fingerprint::new().str("attach-test").u64(i))
            })
            .collect()
    };
    let payload_for = |seed: u64| encode_payload(&(seed.wrapping_mul(7) + 1, seed as f64 * 0.5));
    let clean = AttemptStats { attempts: 1, ..AttemptStats::default() };
    // Plan the same grid the supervisor will, to locate its spool subdir.
    let plan = ShardPlan::new(
        (0..4u64).map(|i| (format!("att-{i}"), i, Fingerprint::new().str("attach-test").u64(i))),
    )
    .unwrap();
    let grid = plan.grid_id();

    let root = temp_dir("attach");
    let spool = root.join(format!("grid-{grid:016x}"));
    let opts = FabricOptions {
        jobs: 1,
        journal: None,
        deadline: None,
        retry: RetryPolicy::default(),
        artifacts: None,
    };
    let mut dist = DistOptions::new("attach-test");
    dist.workers = 2;
    dist.spool = Some(root.clone());
    dist.spawn = SpawnMode::Attach;
    dist.lease = Duration::from_secs(10);
    dist.heartbeat = Duration::from_millis(25);
    dist.heartbeat_timeout = Duration::from_millis(300);
    dist.poll = Duration::from_millis(10);

    let sup = {
        let opts = opts.clone();
        let dist = dist.clone();
        std::thread::spawn(move || run_dist(mk_cells(), &opts, &dist))
    };

    let wait_for = |path: &Path| {
        let start = Instant::now();
        while !path.exists() {
            assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {path:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // Both gen-0 requests appear once the supervisor is up.
    wait_for(&wire::request_path(&spool, 0, 0));
    wait_for(&wire::request_path(&spool, 1, 0));

    // One worker id serves every claim, exactly like a real `sweep_worker`
    // process: its heartbeat file accumulates lines across requests, and
    // each request's heartbeat seq restarts at 1. The high seqs written
    // for this first request must not mask later dispatches' fresh low
    // seqs (liveness reads are scoped per shard/gen).
    let (h1, cells1) = wire::read_request(&wire::request_path(&spool, 1, 0)).unwrap();
    assert_eq!(h1.version, PROTOCOL_VERSION);
    assert!(wire::try_claim(&spool, 1, 0, "t-w").unwrap());
    for seq in 1..=50 {
        wire::append_heartbeat(&spool, "t-w", 1, 0, seq).unwrap();
    }
    let mut resp =
        wire::ResponseWriter::create(&spool, 1, 0, grid, "t-w", PROTOCOL_VERSION).unwrap();
    for c in &cells1 {
        resp.record_done(c.id, &c.label, c.seed, clean, &payload_for(c.seed)).unwrap();
    }
    resp.finish().unwrap();

    // Shard 0: claim, heartbeat, stream ONE of its two cells, go silent.
    let (_, cells0) = wire::read_request(&wire::request_path(&spool, 0, 0)).unwrap();
    assert_eq!(cells0.len(), 2);
    assert!(wire::try_claim(&spool, 0, 0, "t-w").unwrap());
    wire::append_heartbeat(&spool, "t-w", 0, 0, 1).unwrap();
    let mut resp =
        wire::ResponseWriter::create(&spool, 0, 0, grid, "t-w", PROTOCOL_VERSION).unwrap();
    resp.record_done(
        cells0[0].id,
        &cells0[0].label,
        cells0[0].seed,
        clean,
        &payload_for(cells0[0].seed),
    )
    .unwrap();
    drop(resp); // no finish(), no further heartbeats: a wedged worker

    // The lapse revokes the lease and re-dispatches the remaining cell.
    wait_for(&wire::request_path(&spool, 0, 1));
    let (_, cells0g1) = wire::read_request(&wire::request_path(&spool, 0, 1)).unwrap();
    assert_eq!(cells0g1.len(), 1, "only the unharvested cell is re-dispatched");
    assert_eq!(cells0g1[0].id, cells0[1].id);

    // The dead worker twitches: its gen-0 response grows after revocation.
    // The supervisor must count (and ignore) it.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(wire::response_path(&spool, 0, 0))
            .unwrap();
        writeln!(f, "{{\"dist\":\"done\",LATE-NOISE").unwrap();
    }

    // The same (now recovered) worker claims the re-dispatch. It
    // heartbeats afresh from seq 1 — far below the seqs already sitting in
    // its file — while taking several lapse windows to produce the cell.
    // Scoped liveness reads keep this lease alive; a file-wide max would
    // see "no fresh heartbeat" and wrongly revoke a live worker here.
    assert!(wire::try_claim(&spool, 0, 1, "t-w").unwrap());
    let mut resp =
        wire::ResponseWriter::create(&spool, 0, 1, grid, "t-w", PROTOCOL_VERSION).unwrap();
    for seq in 1..=12 {
        wire::append_heartbeat(&spool, "t-w", 0, 1, seq).unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    // This cell panicked once on the worker before it succeeded: the
    // per-cause half of the accounting must cross the wire with it.
    resp.record_done(
        cells0g1[0].id,
        &cells0g1[0].label,
        cells0g1[0].seed,
        AttemptStats { attempts: 2, panics: 1, deadline_kills: 0 },
        &payload_for(cells0g1[0].seed),
    )
    .unwrap();
    resp.finish().unwrap();

    let report = sup.join().unwrap().expect("supervised attach run succeeds");
    assert!(report.is_complete());
    let serial = run_fabric(mk_cells(), &opts).unwrap();
    let dist_rows: Vec<_> = report.results().map(|r| (r.label.clone(), r.seed, r.output)).collect();
    let serial_rows: Vec<_> =
        serial.results().map(|r| (r.label.clone(), r.seed, r.output)).collect();
    assert_eq!(dist_rows, serial_rows, "attach-mode merge must equal the serial run");

    let d = &report.counters.dist;
    assert_eq!(d.heartbeat_lapses, 1, "only the silent worker lapses, exactly once");
    assert_eq!(d.redispatches, 1);
    assert_eq!(d.harvested_cells, 1, "the streamed cell survives the revocation");
    assert_eq!(d.late_responses, 1, "post-revocation growth is counted");
    assert_eq!(d.leases_granted, 3, "shard1 g0 + shard0 g0 + shard0 g1");
    assert_eq!(d.duplicate_cells, 0);
    assert_eq!(d.claim_timeouts, 0);
    assert_eq!(d.workers_spawned, 0, "attach mode spawns nothing");
    let c = &report.counters;
    assert_eq!((c.retries, c.panics), (1, 1), "a worker-side panic counts as an in-process one");
}

/// A suite no attached worker hosts must never hang the supervisor in a
/// silent claim-wait: each dispatch times out unclaimed (counted as a
/// `claim_timeout`), burns the re-dispatch budget, and the shard's cells
/// quarantine into a partial report with the cause history naming the
/// unclaimed suite.
#[test]
fn unclaimed_attach_requests_time_out_into_a_partial_report() {
    let mk_cells = || -> Vec<FabricCell<(u64, f64)>> {
        (0..2u64)
            .map(|i| {
                FabricCell::new(format!("orphan-{i}"), i, move || (i, 0.0))
                    .config(Fingerprint::new().str("orphan-test").u64(i))
            })
            .collect()
    };
    let root = temp_dir("unclaimed");
    let opts = FabricOptions {
        jobs: 1,
        journal: None,
        deadline: None,
        retry: RetryPolicy::default(),
        artifacts: None,
    };
    let mut dist = DistOptions::new("suite-nobody-hosts");
    dist.workers = 2;
    dist.spool = Some(root);
    dist.spawn = SpawnMode::Attach;
    dist.claim_timeout = Some(Duration::from_millis(150));
    dist.max_redispatch = 1;
    dist.poll = Duration::from_millis(10);

    let start = Instant::now();
    let report = run_dist(mk_cells(), &opts, &dist).expect("supervisor returns, never hangs");
    assert!(start.elapsed() < Duration::from_secs(15), "must converge promptly");
    assert!(!report.is_complete(), "nothing was served, so the report is partial");
    for outcome in &report.outcomes {
        match outcome {
            CellOutcome::Quarantined(q) => {
                assert!(
                    q.message.contains("claim_timeout") && q.message.contains("suite-nobody-hosts"),
                    "quarantine must name the unclaimed suite, got {:?}",
                    q.message
                );
            }
            CellOutcome::Done { .. } => panic!("no worker existed to complete cells"),
        }
    }
    let d = &report.counters.dist;
    assert_eq!(d.claim_timeouts, 4, "2 shards x (g0 + g1) each timed out");
    assert_eq!(d.redispatches, 2, "one re-dispatch per shard before the budget ran out");
    assert_eq!(d.leases_granted, 0, "nothing was ever claimed");
    assert_eq!(report.counters.quarantined, 2);
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
