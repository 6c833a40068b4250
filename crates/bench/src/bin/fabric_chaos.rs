//! Chaos drills for the distributed sweep fabric: run the shared demo grid
//! through the supervisor with one injected worker failure per drill, and
//! assert (a) the merged report is byte-identical to the serial in-process
//! run, and (b) every absorbed loss shows up in the
//! [`DistCounters`] accounting — graceful degradation with nothing
//! swallowed silently.
//!
//! Drills, each armed via `SWEEP_DIST_CHAOS` (generation 0 of the named
//! shard only, so every drill converges):
//!
//! * `kill`     — SIGKILL a worker mid-shard; crash detected, partial
//!   response salvaged, remainder re-dispatched;
//! * `stall`    — worker keeps heartbeating but stops completing cells;
//!   the lease expires as a *stall* (not a heartbeat lapse);
//! * `truncate` — worker exits cleanly without the end footer; every cell
//!   is salvaged from the stream, nothing re-runs;
//! * `corrupt`  — garbage line mid-response; invalid-response revocation,
//!   valid prefix kept;
//! * `dup`      — every done line written twice; first-valid-wins, the
//!   echoes counted as duplicates;
//! * `stale`    — response claims protocol version 0; rejected wholesale
//!   before any cell is trusted.
//!
//! Exits 0 with `fabric_chaos: N drills passed` when every drill holds,
//! 1 with per-drill diagnostics otherwise. Each drill spools under
//! `$TMPDIR/fabric-chaos-<pid>/<drill>/`; the root is removed when every
//! drill passes and named once when one fails. CI's `dist-fabric` job runs
//! this after the byte-identity check on a real 3-worker sweep.
//!
//! When spawned with `--dist-worker …`, this binary is one of its own
//! workers (self-exec), inheriting the armed chaos.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bench_harness::fabric::demo;
use bench_harness::fabric::dist::DistCounters;
use bench_harness::fabric::{run_dist, run_fabric, DistOptions, FabricOptions};
use bench_harness::Cli;
use std::time::Duration;

const WORKERS: usize = 3;

/// Supervisor-side fabric options: no journal (each drill is hermetic);
/// artifacts follow `SWEEP_ARTIFACTS` so CI can collect unexpected
/// quarantines.
fn fabric_opts() -> FabricOptions {
    FabricOptions { journal: None, ..FabricOptions::default() }
}

/// Dist options tuned for drills: short leases so the stall drill resolves
/// in ~a second, fast heartbeats, generous lapse window (stalls must be
/// diagnosed as stalls — the heartbeats are still flowing).
fn dist_opts(task: Option<bench_harness::DistWorkerCli>) -> DistOptions {
    let mut o = DistOptions::new(demo::WALK_SUITE);
    o.workers = WORKERS;
    o.lease = Duration::from_millis(500);
    o.heartbeat = Duration::from_millis(50);
    o.heartbeat_timeout = Duration::from_secs(5);
    o.poll = Duration::from_millis(10);
    o.task = task;
    o
}

struct Drill {
    name: &'static str,
    /// `SWEEP_DIST_CHAOS` spec, or `None` for the clean control run.
    spec: Option<&'static str>,
    /// Counter assertions; returns one message per violated expectation.
    check: fn(&DistCounters) -> Vec<String>,
}

fn expect(failures: &mut Vec<String>, ok: bool, msg: String) {
    if !ok {
        failures.push(msg);
    }
}

/// The demo grid round-robins 12 cells over 3 shards: 4 cells per shard.
/// Chaos counts below lean on that shape.
const DRILLS: &[Drill] = &[
    Drill {
        name: "clean",
        spec: None,
        check: |c| {
            let mut f = Vec::new();
            expect(&mut f, c.shards == 3, format!("shards={} want 3", c.shards));
            expect(
                &mut f,
                c.workers_spawned == 3,
                format!("workers_spawned={} want 3", c.workers_spawned),
            );
            expect(&mut f, c.redispatches == 0, format!("redispatches={} want 0", c.redispatches));
            expect(
                &mut f,
                c.worker_crashes == 0,
                format!("worker_crashes={} want 0", c.worker_crashes),
            );
            f
        },
    },
    Drill {
        name: "kill",
        spec: Some("kill:2@1"),
        check: |c| {
            let mut f = Vec::new();
            expect(
                &mut f,
                c.worker_crashes == 1,
                format!("worker_crashes={} want 1", c.worker_crashes),
            );
            expect(&mut f, c.redispatches == 1, format!("redispatches={} want 1", c.redispatches));
            expect(
                &mut f,
                c.harvested_cells == 2,
                format!("harvested_cells={} want 2 (killed after 2 of 4)", c.harvested_cells),
            );
            expect(
                &mut f,
                c.workers_spawned == 4,
                format!("workers_spawned={} want 4 (3 + 1 re-dispatch)", c.workers_spawned),
            );
            f
        },
    },
    Drill {
        name: "stall",
        spec: Some("stall:2@0"),
        check: |c| {
            let mut f = Vec::new();
            expect(&mut f, c.stalls == 1, format!("stalls={} want 1", c.stalls));
            expect(
                &mut f,
                c.heartbeat_lapses == 0,
                format!("heartbeat_lapses={} want 0 (heartbeats kept flowing)", c.heartbeat_lapses),
            );
            expect(&mut f, c.redispatches == 1, format!("redispatches={} want 1", c.redispatches));
            expect(
                &mut f,
                c.harvested_cells == 2,
                format!("harvested_cells={} want 2", c.harvested_cells),
            );
            f
        },
    },
    Drill {
        name: "truncate",
        spec: Some("truncate@1"),
        check: |c| {
            let mut f = Vec::new();
            expect(
                &mut f,
                c.worker_crashes == 1,
                format!("worker_crashes={} want 1 (exit without footer)", c.worker_crashes),
            );
            expect(
                &mut f,
                c.harvested_cells == 4,
                format!("harvested_cells={} want 4 (whole stream salvaged)", c.harvested_cells),
            );
            expect(
                &mut f,
                c.redispatches == 0,
                format!("redispatches={} want 0 (nothing left to redo)", c.redispatches),
            );
            f
        },
    },
    Drill {
        name: "corrupt",
        spec: Some("corrupt:2@0"),
        check: |c| {
            let mut f = Vec::new();
            expect(
                &mut f,
                c.invalid_responses >= 1,
                format!("invalid_responses={} want >=1", c.invalid_responses),
            );
            expect(
                &mut f,
                c.redispatches >= 1,
                format!("redispatches={} want >=1", c.redispatches),
            );
            expect(
                &mut f,
                c.harvested_cells >= 2,
                format!("harvested_cells={} want >=2 (valid prefix kept)", c.harvested_cells),
            );
            f
        },
    },
    Drill {
        name: "dup",
        spec: Some("dup@2"),
        check: |c| {
            let mut f = Vec::new();
            expect(
                &mut f,
                c.duplicate_cells == 4,
                format!(
                    "duplicate_cells={} want 4 (each of 4 cells echoed once)",
                    c.duplicate_cells
                ),
            );
            expect(&mut f, c.redispatches == 0, format!("redispatches={} want 0", c.redispatches));
            expect(
                &mut f,
                c.worker_crashes == 0,
                format!("worker_crashes={} want 0", c.worker_crashes),
            );
            f
        },
    },
    Drill {
        name: "stale",
        spec: Some("stale@0"),
        check: |c| {
            let mut f = Vec::new();
            expect(
                &mut f,
                c.stale_protocol == 1,
                format!("stale_protocol={} want 1", c.stale_protocol),
            );
            expect(&mut f, c.redispatches == 1, format!("redispatches={} want 1", c.redispatches));
            expect(
                &mut f,
                c.harvested_cells == 0,
                format!(
                    "harvested_cells={} want 0 (stale response fully distrusted)",
                    c.harvested_cells
                ),
            );
            f
        },
    },
];

fn main() {
    let cli = Cli::from_args();
    if cli.dist.is_some() {
        // Worker role: serve the assigned shard of the demo grid and exit
        // (run_dist never returns with a task set).
        let _ = run_dist(demo::walk_cells(), &fabric_opts(), &dist_opts(cli.dist.clone()));
        unreachable!("run_dist exits in worker mode");
    }

    let baseline = match run_fabric(demo::walk_cells(), &fabric_opts()) {
        Ok(report) => render(report.results()),
        Err(e) => {
            eprintln!("fabric_chaos: serial baseline failed: {e}");
            std::process::exit(2);
        }
    };

    // Every drill gets its own spool under one root this binary owns — an
    // operator-given spool the supervisor never touches — so a clean battery
    // leaves nothing behind and a failed one names its evidence once.
    let root = std::env::temp_dir().join(format!("fabric-chaos-{}", std::process::id()));
    let mut failed = 0usize;
    for drill in DRILLS {
        match drill.spec {
            Some(spec) => std::env::set_var("SWEEP_DIST_CHAOS", spec),
            None => std::env::remove_var("SWEEP_DIST_CHAOS"),
        }
        eprintln!("fabric_chaos: drill {} ({})", drill.name, drill.spec.unwrap_or("no chaos"));
        let dist = DistOptions { spool: Some(root.join(drill.name)), ..dist_opts(None) };
        let report = match run_dist(demo::walk_cells(), &fabric_opts(), &dist) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("fabric_chaos: drill {} errored: {e}", drill.name);
                failed += 1;
                continue;
            }
        };
        let mut problems = Vec::new();
        if !report.is_complete() {
            problems.push(format!("report incomplete: {}", report.partial_note().trim_end()));
        }
        let merged = render(report.results());
        if merged != baseline {
            problems.push(format!(
                "merged report diverged from the serial run ({} vs {} lines)",
                merged.len(),
                baseline.len()
            ));
            for (m, b) in merged.iter().zip(&baseline) {
                if m != b {
                    problems.push(format!("  first diff: dist {m:?} vs serial {b:?}"));
                    break;
                }
            }
        }
        problems.extend((drill.check)(&report.counters.dist));
        if problems.is_empty() {
            eprintln!("fabric_chaos: drill {} ok [{}]", drill.name, report.counters.dist.render());
        } else {
            failed += 1;
            eprintln!(
                "fabric_chaos: drill {} FAILED [{}]",
                drill.name,
                report.counters.dist.render()
            );
            for p in &problems {
                eprintln!("fabric_chaos:   {p}");
            }
        }
    }
    std::env::remove_var("SWEEP_DIST_CHAOS");

    if failed > 0 {
        eprintln!("fabric_chaos: {failed} of {} drills FAILED", DRILLS.len());
        eprintln!("fabric_chaos: spools kept for post-mortem: {}", root.display());
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&root);
    println!("fabric_chaos: {} drills passed", DRILLS.len());
}

fn render<'a>(
    results: impl Iterator<Item = &'a bench_harness::runner::RunSummary<(u64, f64)>>,
) -> Vec<String> {
    results.map(|r| format!("{:?}", (&r.label, r.seed, &r.output))).collect()
}
