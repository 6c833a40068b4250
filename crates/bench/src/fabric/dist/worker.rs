//! The worker side of the distributed fabric: receive a shard, execute its
//! cells with the **same per-cell containment policy** the single-process
//! fabric uses, and stream results back through the spool.
//!
//! A worker is a sweep binary spawned by its supervisor with `--dist-worker
//! … --dist-shard K --dist-gen G --dist-id ID` ([`serve_cells`]). The
//! binary rebuilds its full deterministic cell vector exactly as the
//! supervisor did, so the grid digest in the request must match its own
//! plan — a mismatch means supervisor and worker binaries are out of step,
//! and the worker refuses rather than compute wrong cells.
//!
//! Each cell runs under [`retry::run_with_retries`] with the deadline/retry
//! policy shipped in the request header — a cell that would be quarantined
//! by the in-process fabric fails the same way here, as a streamed `failed`
//! line the supervisor turns into the identical quarantine record. Results
//! are flushed line by line; a heartbeat thread appends liveness proof on
//! the side.
//!
//! ## Chaos injection
//!
//! The `SWEEP_DIST_CHAOS` environment variable arms one failure for the
//! worker serving a named shard, **generation 0 only** — re-dispatched
//! generations always run clean, so every drill converges instead of
//! crash-looping. Format: `mode[:n]@shard`, e.g. `kill:1@0` (SIGKILL self
//! after 1 completed cell while serving shard 0). Modes: `kill:n`,
//! `stall:n` (heartbeats continue, no further progress until the
//! supervisor kills the worker), `truncate` (exit without the end footer),
//! `corrupt:n` (write a garbage line), `dup` (write every done line twice),
//! `stale` (respond with protocol version 0). Used by the `fabric_chaos`
//! harness and CI; never armed in normal runs.

use super::super::journal::{encode_payload, JournalCodec, JournalValue};
use super::super::retry::{self, CellFn, RetryPolicy};
use super::super::{plan_of, FabricCell};
use super::wire::{self, ResponseWriter, PROTOCOL_VERSION};
use crate::DistWorkerCli;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// One armed chaos failure (see the module doc for the grammar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosMode {
    /// SIGKILL self after `n` completed cells.
    Kill(usize),
    /// Stop making progress after `n` cells; keep heartbeating.
    Stall(usize),
    /// Exit cleanly without writing the end footer.
    Truncate,
    /// Write a garbage line after `n` cells, then continue.
    Corrupt(usize),
    /// Write every done line twice (duplicate responses for one cell).
    Dup,
    /// Write the response header with protocol version 0.
    Stale,
}

/// A chaos arming: the mode plus the shard whose gen-0 worker it hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chaos {
    /// The armed failure.
    pub mode: ChaosMode,
    /// Only the worker serving this shard is affected.
    pub shard: usize,
}

/// Parses a `SWEEP_DIST_CHAOS` spec (`mode[:n]@shard`). `None` on anything
/// unparseable — chaos is a test tool, and a typo must not take down a real
/// sweep; it just stays unarmed.
pub fn parse_chaos(spec: &str) -> Option<Chaos> {
    let (mode_part, shard_part) = spec.trim().split_once('@')?;
    let shard = shard_part.parse::<usize>().ok()?;
    let (name, count) = match mode_part.split_once(':') {
        Some((name, n)) => (name, Some(n.parse::<usize>().ok()?)),
        None => (mode_part, None),
    };
    let mode = match (name, count) {
        ("kill", Some(n)) => ChaosMode::Kill(n),
        ("stall", Some(n)) => ChaosMode::Stall(n),
        ("truncate", None) => ChaosMode::Truncate,
        ("corrupt", Some(n)) => ChaosMode::Corrupt(n),
        ("dup", None) => ChaosMode::Dup,
        ("stale", None) => ChaosMode::Stale,
        _ => return None,
    };
    Some(Chaos { mode, shard })
}

/// The chaos armed for `(shard, gen)` via `SWEEP_DIST_CHAOS`, if any.
/// Generation 0 only: a re-dispatched shard always runs clean.
fn armed_chaos(shard: usize, gen: u64) -> Option<Chaos> {
    if gen != 0 {
        return None;
    }
    let spec: String = crate::env_parsed("SWEEP_DIST_CHAOS", "a chaos spec", |_| true)?;
    parse_chaos(&spec).filter(|c| c.shard == shard)
}

/// SIGKILL this process: the crash drill. `kill -9` cannot be caught, so
/// the response file is left exactly as the last flush left it.
fn kill_self_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").arg("-9").arg(&pid).status();
    // Unreachable on any POSIX system; abort as a fallback.
    std::process::abort();
}

/// A liveness thread handle: appends one heartbeat line per interval until
/// dropped.
struct HeartbeatThread {
    /// Never sent on: dropping it is the stop signal, and wakes the thread
    /// mid-interval — a worker must not outlive its last cell by a whole
    /// heartbeat interval, the supervisor waits for it to exit.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatThread {
    fn start(
        spool: &Path,
        worker: &str,
        shard: usize,
        gen: u64,
        interval: Duration,
    ) -> HeartbeatThread {
        let (stop, stopped) = mpsc::channel::<()>();
        let spool = spool.to_path_buf();
        let worker = worker.to_owned();
        let handle = std::thread::Builder::new()
            .name(format!("dist-heartbeat-{worker}"))
            .spawn(move || {
                let mut seq = 0u64;
                loop {
                    seq += 1;
                    if let Err(e) = wire::append_heartbeat(&spool, &worker, shard, gen, seq) {
                        eprintln!("warning: {e}");
                    }
                    if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                        return;
                    }
                }
            })
            .ok();
        HeartbeatThread { stop: Some(stop), handle }
    }
}

impl Drop for HeartbeatThread {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Serves a worker assignment: reads the request for `(task.shard,
/// task.gen)`, verifies the grid digest against this binary's own plan of
/// `cells` (a mismatch means supervisor/worker version skew), and streams
/// results, applying the armed chaos.
///
/// # Errors
///
/// On an unreadable/stale request, a grid mismatch, cell ids the plan does
/// not contain, or filesystem failures. The supervisor sees any of these as
/// a crashed lease and re-dispatches.
pub fn serve_cells<T>(task: &DistWorkerCli, cells: &[FabricCell<T>]) -> Result<(), String>
where
    T: JournalCodec + Send + 'static,
{
    let (spool, worker_id) = (task.spool.as_path(), task.id.as_str());
    let (header, requested) = wire::read_request(&wire::request_path(spool, task.shard, task.gen))?;
    let plan = plan_of(cells)?;
    if plan.grid_id() != header.grid {
        return Err(format!(
            "request is for grid {:016x}, this binary plans grid {:016x}; \
             supervisor and worker builds are out of step",
            header.grid,
            plan.grid_id()
        ));
    }
    let by_id: BTreeMap<_, _> = cells.iter().map(|c| (c.id(), c)).collect();
    let chaos = armed_chaos(header.shard, header.gen).map(|c| c.mode);
    let version = match chaos {
        Some(ChaosMode::Stale) => 0,
        _ => PROTOCOL_VERSION,
    };
    let mut resp =
        ResponseWriter::create(spool, header.shard, header.gen, header.grid, worker_id, version)?;
    let _heartbeat = HeartbeatThread::start(
        spool,
        worker_id,
        header.shard,
        header.gen,
        Duration::from_millis(header.heartbeat_ms.max(1)),
    );
    let deadline = (header.deadline_ms > 0).then(|| Duration::from_millis(header.deadline_ms));
    let policy = RetryPolicy {
        max_attempts: header.max_attempts,
        base_backoff: Duration::from_millis(header.backoff_ms),
        max_backoff: Duration::from_millis(header.max_backoff_ms),
    };
    for (served, req) in requested.iter().enumerate() {
        match chaos {
            Some(ChaosMode::Kill(n)) if served == n => kill_self_hard(),
            Some(ChaosMode::Stall(n)) if served == n => loop {
                // Alive (the heartbeat thread keeps appending) but never
                // progressing: the supervisor must diagnose a stall, not a
                // heartbeat lapse — and kills this process when it does.
                std::thread::sleep(Duration::from_millis(50));
            },
            Some(ChaosMode::Corrupt(n)) if served == n => {
                resp.append("{\"dist\":\"done\",CHAOS-INTERIOR-GARBAGE\n")?;
            }
            _ => {}
        }
        let cell = by_id
            .get(&req.id)
            .ok_or_else(|| format!("request names cell {} not in this grid", req.id))?;
        // The closure returns the output already encoded: the payload of the
        // cell's `done` line (and, later, of the supervisor's journal).
        let run = Arc::clone(&cell.run);
        let run: CellFn<Vec<JournalValue>> = Arc::new(move || encode_payload(&run()));
        let (result, stats) = retry::run_with_retries(&req.label, &run, deadline, &policy);
        match result {
            Ok(payload) => {
                resp.record_done(req.id, &req.label, req.seed, stats, &payload)?;
                if chaos == Some(ChaosMode::Dup) {
                    resp.record_done(req.id, &req.label, req.seed, stats, &payload)?;
                }
            }
            Err((cause, message)) => {
                resp.record_failed(req.id, &req.label, req.seed, stats, cause, &message)?;
            }
        }
    }
    if chaos == Some(ChaosMode::Truncate) {
        // Exit without the footer: to the supervisor this response is
        // truncated, indistinguishable from a crash after the last flush.
        return Ok(());
    }
    resp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_specs_parse_and_reject_typos() {
        assert_eq!(parse_chaos("kill:2@1"), Some(Chaos { mode: ChaosMode::Kill(2), shard: 1 }));
        assert_eq!(parse_chaos("stall:0@0"), Some(Chaos { mode: ChaosMode::Stall(0), shard: 0 }));
        assert_eq!(parse_chaos("truncate@2"), Some(Chaos { mode: ChaosMode::Truncate, shard: 2 }));
        assert_eq!(
            parse_chaos("corrupt:1@0"),
            Some(Chaos { mode: ChaosMode::Corrupt(1), shard: 0 })
        );
        assert_eq!(parse_chaos("dup@0"), Some(Chaos { mode: ChaosMode::Dup, shard: 0 }));
        assert_eq!(parse_chaos("stale@1"), Some(Chaos { mode: ChaosMode::Stale, shard: 1 }));
        // Typos disarm rather than crash a real sweep.
        assert_eq!(parse_chaos("kill@1"), None, "kill requires a count");
        assert_eq!(parse_chaos("truncate:1@2"), None, "truncate takes no count");
        assert_eq!(parse_chaos("kill:x@1"), None);
        assert_eq!(parse_chaos("kill:1"), None, "shard is mandatory");
        assert_eq!(parse_chaos(""), None);
    }

    #[test]
    fn dropping_the_heartbeat_does_not_wait_out_the_interval() {
        let spool = std::env::temp_dir().join(format!("dist-heartbeat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        wire::init_spool(&spool, 0, 0, 1, "t").expect("spool");
        let heartbeat = HeartbeatThread::start(&spool, "w", 0, 0, Duration::from_secs(10));
        // The first beat on disk proves the thread is inside its interval.
        #[expect(
            clippy::disallowed_methods,
            reason = "the test bounds a real thread's first heartbeat in wall-clock time"
        )]
        let started = std::time::Instant::now();
        while wire::read_heartbeat_seq(&spool, "w", 0, 0) != Some(1) {
            assert!(started.elapsed() < Duration::from_secs(5), "no first heartbeat");
            std::thread::yield_now();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the test bounds how long dropping the heartbeat thread takes in wall-clock time"
        )]
        let dropping = std::time::Instant::now();
        drop(heartbeat);
        assert!(dropping.elapsed() < Duration::from_secs(1), "drop waited out the interval");
        let _ = std::fs::remove_dir_all(&spool);
    }
}
