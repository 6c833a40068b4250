//! Tier-1's view of the distributed fabric's supervisor
//! (`bench_harness::fabric::dist`): the lease machine, partial harvest and
//! revocation, driven end to end with the test as the worker.
//!
//! The supervisor spawns an **inert** child per dispatch — a shell loop
//! that waits for the response's `end` footer and exits — while the test
//! authors the worker's files by hand through the wire API, under the ids
//! the supervisor assigns (`w{shard}-g{gen}`). The supervisor reaps the
//! child on a complete response and kills it on revocation, exactly as it
//! does a real worker, so no seam in production code is needed. This is
//! the repo's only drill of a `heartbeat_lapse` revocation (no chaos arm
//! produces one — a `stall` worker keeps beating).

use bench_harness::fabric::dist::wire::{self, PROTOCOL_VERSION};
use bench_harness::fabric::journal::encode_payload;
use bench_harness::fabric::retry::{AttemptStats, FailCause};
use bench_harness::fabric::{
    run_dist, run_fabric, DistOptions, FabricCell, FabricOptions, Fingerprint, RetryPolicy,
    ShardPlan, SpawnMode,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// `sh -c SCRIPT inert --dist-worker SPOOL --dist-shard K --dist-gen G
/// --dist-id ID`: `$2`, `$4` and `$6` name the response file to wait on. The
/// count bounds the child's life, so a failed run leaks no process.
const INERT: &str = r#"n=0
until grep -qs '"dist":"end"' "$2/responses/shard-$4.g$6.jsonl" || [ $n -gt 400 ]
do sleep 0.05; n=$((n+1)); done"#;

fn fingerprint(i: u64) -> Fingerprint {
    Fingerprint::new().str("supervisor-test").u64(i)
}

fn output(seed: u64) -> (u64, f64) {
    (seed.wrapping_mul(7) + 1, seed as f64 * 0.5)
}

fn cells() -> Vec<FabricCell<(u64, f64)>> {
    (0..4u64)
        .map(|i| FabricCell::new(format!("sup-{i}"), i, move || output(i)).config(fingerprint(i)))
        .collect()
}

fn wait_for(path: &Path) {
    let start = Instant::now();
    while !path.exists() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {path:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A first worker heartbeats, streams one cell, and goes silent (lease
/// revoked as a heartbeat lapse, the streamed cell harvested); its response
/// file grows *after* the revocation (counted as a late response,
/// discarded); a second worker serves the re-dispatched remainder — slowly,
/// kept alive by heartbeats alone, and on its second attempt after a panic.
/// The merge must match the serial run and account every event, that panic
/// included.
#[test]
fn lapsed_lease_is_harvested_redispatched_and_its_late_response_counted() {
    let clean = AttemptStats { attempts: 1, ..AttemptStats::default() };
    // Plan the same grid the supervisor will, to locate its spool subdir.
    let plan = ShardPlan::new((0..4u64).map(|i| (format!("sup-{i}"), i, fingerprint(i)))).unwrap();
    let grid = plan.grid_id();
    let root = std::env::temp_dir().join(format!("fabric-supervisor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spool = root.join(format!("grid-{grid:016x}"));

    let opts = FabricOptions {
        jobs: 1,
        journal: None,
        deadline: None,
        retry: RetryPolicy::default(),
        artifacts: None,
    };
    let mut dist = DistOptions::new("supervisor-test");
    dist.workers = 2;
    dist.spool = Some(root.clone());
    dist.spawn =
        SpawnMode::Command(["sh", "-c", INERT, "inert"].iter().map(|s| (*s).to_owned()).collect());
    dist.lease = Duration::from_secs(30);
    // The lease clock starts at dispatch: a first beat (or a whole
    // response) must land within this window of the request appearing.
    dist.heartbeat_timeout = Duration::from_secs(1);
    dist.poll = Duration::from_millis(10);

    let sup = {
        let (opts, dist) = (opts.clone(), dist.clone());
        std::thread::spawn(move || run_dist(cells(), &opts, &dist))
    };

    // Shard 0: heartbeat, stream ONE of its two cells, go silent.
    wait_for(&wire::request_path(&spool, 0, 0));
    let (h0, cells0) = wire::read_request(&wire::request_path(&spool, 0, 0)).unwrap();
    assert_eq!(h0.version, PROTOCOL_VERSION);
    assert_eq!(cells0.len(), 2);
    wire::append_heartbeat(&spool, "w0-g0", 0, 0, 1).unwrap();
    let mut resp =
        wire::ResponseWriter::create(&spool, 0, 0, grid, "w0-g0", PROTOCOL_VERSION).unwrap();
    let first = &cells0[0];
    resp.record_done(
        first.id,
        &first.label,
        first.seed,
        clean,
        &encode_payload(&output(first.seed)),
    )
    .unwrap();
    drop(resp); // no finish(), no further heartbeats: a wedged worker

    // Shard 1 is served whole.
    wait_for(&wire::request_path(&spool, 1, 0));
    let (_, cells1) = wire::read_request(&wire::request_path(&spool, 1, 0)).unwrap();
    let mut resp =
        wire::ResponseWriter::create(&spool, 1, 0, grid, "w1-g0", PROTOCOL_VERSION).unwrap();
    for c in &cells1 {
        resp.record_done(c.id, &c.label, c.seed, clean, &encode_payload(&output(c.seed))).unwrap();
    }
    resp.finish().unwrap();

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

    // The replacement takes over two lapse windows to produce the cell,
    // with no progress to show meanwhile: fresh heartbeats alone must keep
    // its lease.
    let mut resp =
        wire::ResponseWriter::create(&spool, 0, 1, grid, "w0-g1", PROTOCOL_VERSION).unwrap();
    for seq in 1..=22 {
        wire::append_heartbeat(&spool, "w0-g1", 0, 1, seq).unwrap();
        std::thread::sleep(Duration::from_millis(100));
    }
    // This cell panicked once on the worker before it succeeded: the
    // per-cause half of the accounting must cross the wire with it.
    let last = &cells0g1[0];
    resp.record_done(
        last.id,
        &last.label,
        last.seed,
        AttemptStats { attempts: 2, panics: 1, deadline_kills: 0 },
        &encode_payload(&output(last.seed)),
    )
    .unwrap();
    resp.finish().unwrap();

    let report = sup.join().unwrap().expect("supervised run succeeds");
    assert!(report.is_complete());
    let serial = run_fabric(cells(), &opts).unwrap();
    let dist_rows: Vec<_> = report.results().map(|r| (r.label.clone(), r.seed, r.output)).collect();
    let serial_rows: Vec<_> =
        serial.results().map(|r| (r.label.clone(), r.seed, r.output)).collect();
    assert_eq!(dist_rows, serial_rows, "the supervised merge must equal the serial run");

    let d = &report.counters.dist;
    assert_eq!(d.heartbeat_lapses, 1, "only the silent worker lapses, exactly once");
    assert_eq!(d.redispatches, 1);
    assert_eq!(d.harvested_cells, 1, "the streamed cell survives the revocation");
    assert_eq!(d.late_responses, 1, "post-revocation growth is counted");
    assert_eq!(d.leases_granted, 3, "shard1 g0 + shard0 g0 + shard0 g1");
    assert_eq!(d.workers_spawned, 3, "every lease is a child the supervisor spawned");
    assert_eq!(d.duplicate_cells, 0);
    let c = &report.counters;
    assert_eq!((c.retries, c.panics), (1, 1), "a worker-side panic counts as an in-process one");
    let _ = std::fs::remove_dir_all(&root);
}

/// Options for the two wake-up drills: a 10 s poll, so a run that returns
/// in well under that was woken by its workers' exits and its due
/// re-dispatches, not by the clock.
fn slow_poll(root: &Path, script: &str) -> (FabricOptions, DistOptions) {
    let opts = FabricOptions {
        jobs: 1,
        journal: None,
        deadline: None,
        retry: RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(20),
        },
        artifacts: None,
    };
    let mut dist = DistOptions::new("supervisor-test");
    dist.workers = 2;
    dist.spool = Some(root.to_path_buf());
    dist.spawn =
        SpawnMode::Command(["sh", "-c", script, "inert"].iter().map(|s| (*s).to_owned()).collect());
    dist.poll = Duration::from_secs(10);
    (opts, dist)
}

/// Both shards are served whole by the test; each inert child exits once
/// its footer lands, and that exit — not the 10 s poll — is what lets the
/// supervisor harvest it.
#[test]
fn a_worker_exit_wakes_the_supervisor_before_its_poll() {
    let clean = AttemptStats { attempts: 1, ..AttemptStats::default() };
    let plan = ShardPlan::new((0..4u64).map(|i| (format!("sup-{i}"), i, fingerprint(i)))).unwrap();
    let grid = plan.grid_id();
    let root = std::env::temp_dir().join(format!("fabric-supervisor-exit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spool = root.join(format!("grid-{grid:016x}"));
    let (opts, dist) = slow_poll(&root, INERT);

    let start = Instant::now();
    let sup = {
        let (opts, dist) = (opts.clone(), dist.clone());
        std::thread::spawn(move || run_dist(cells(), &opts, &dist))
    };
    for shard in 0..2 {
        wait_for(&wire::request_path(&spool, shard, 0));
        let (_, req) = wire::read_request(&wire::request_path(&spool, shard, 0)).unwrap();
        let id = format!("w{shard}-g0");
        let mut resp =
            wire::ResponseWriter::create(&spool, shard, 0, grid, &id, PROTOCOL_VERSION).unwrap();
        for c in &req {
            resp.record_done(c.id, &c.label, c.seed, clean, &encode_payload(&output(c.seed)))
                .unwrap();
        }
        resp.finish().unwrap();
    }
    let report = sup.join().unwrap().expect("supervised run succeeds");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "waited out the poll: {took:?}");

    let serial = run_fabric(cells(), &opts).unwrap();
    let dist_rows: Vec<_> = report.results().map(|r| (r.label.clone(), r.seed, r.output)).collect();
    let serial_rows: Vec<_> =
        serial.results().map(|r| (r.label.clone(), r.seed, r.output)).collect();
    assert_eq!(dist_rows, serial_rows, "the supervised merge must equal the serial run");
    assert_eq!(report.counters.dist.workers_spawned, 2);
    assert_eq!(report.counters.dist.redispatches, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Every generation's child exits at once with no response: three crashes,
/// each noticed at its exit, and two re-dispatches, each sent when its 20 ms
/// backoff is due; then the budget is spent and the shard's cell is
/// quarantined as a worker failure. One cell over two workers: one shard.
#[test]
fn crashes_and_due_redispatches_wake_the_supervisor_before_its_poll() {
    let root = std::env::temp_dir().join(format!("fabric-supervisor-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (opts, mut dist) = slow_poll(&root, "exit 3");
    dist.max_redispatch = 2;

    let start = Instant::now();
    let one: Vec<_> = cells().into_iter().take(1).collect();
    let report = run_dist(one, &opts, &dist).expect("crashes are contained, not returned");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "waited out the poll: {took:?}");

    let d = &report.counters.dist;
    assert_eq!((d.shards, d.worker_crashes, d.redispatches), (1, 3, 2));
    let quarantined: Vec<_> = report.quarantined().collect();
    assert_eq!(quarantined.len(), 1);
    assert_eq!((quarantined[0].cause, quarantined[0].attempts), (FailCause::Worker, 3));
    let _ = std::fs::remove_dir_all(&root);
}
