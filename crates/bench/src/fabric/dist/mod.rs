//! # dist — supervisor/worker execution on top of the sweep fabric
//!
//! [`super::run_fabric`] contains failures inside one process; this module
//! contains the loss of whole *processes*. A supervisor plans the grid,
//! round-robins it into shards ([`ShardPlan::shards`]), and grants each
//! shard a **lease**: a worker process, a deadline, and a heartbeat
//! obligation. Workers stream results back through a spool directory in
//! the versioned wire format of [`wire`]; the supervisor harvests them
//! cell by cell into the same journal the single-process fabric writes, so
//! crash-safety composes — kill the supervisor and a rerun resumes from
//! the journal; kill a worker and the supervisor re-dispatches only the
//! cells its partial response did not already deliver.
//!
//! ## The lease lifecycle (see [`lease`])
//!
//! ```text
//! dispatch ──► Leased ──(complete+valid response)──► Settled
//!    ▲            │
//!    │            ├─ crash (process exit, incomplete response)
//!    │            ├─ heartbeat lapse (no liveness)
//!    │            ├─ stall (liveness but no progress past deadline)
//!    │            └─ invalid/stale response (corrupt, wrong echo, old
//!    │               protocol)
//!    │            ▼
//!    └─(backoff)─ revoke: harvest valid prefix, kill child, gen += 1
//!                 … until the re-dispatch budget is spent, then the
//!                 remaining cells quarantine with FailCause::Worker
//! ```
//!
//! **First-valid-wins.** A cell's first decoded result — from any
//! generation — is journaled and final. Later results for the same cell
//! (duplicate lines from a chaos-mode worker, a revoked worker racing its
//! replacement) are discarded and counted in
//! [`DistCounters::duplicate_cells`]; growth in a revoked
//! generation's response file is counted in `late_responses`. Nothing is
//! silently dropped: every absorbed failure increments a counter and
//! appends a [`DistEvent`] line to `spool/events.jsonl`.
//!
//! **Determinism.** Worker assignment, lease timing, crashes, and
//! re-dispatch order never influence a cell's *output* — cells own their
//! seeded simulators, payloads round-trip bit-exactly, and the merged
//! report is assembled by input position. The merged report of a
//! distributed run is therefore byte-identical to the in-process
//! [`super::run_fabric`] of the same grid (pinned by
//! `tests/fabric_dist.rs`); wall-clock here decides only whether and where
//! a cell runs, the same contract as [`super::retry`].

mod audit;
pub mod lease;
pub mod wire;
pub mod worker;

pub use audit::{DistCounters, DistEvent};
pub use lease::{Lease, RevokeCause};
pub use worker::{parse_chaos, serve_cells};

use super::journal::{decode_payload, JournalCodec};
use super::plan::{CellId, PlannedCell};
use super::retry::{AttemptStats, FailCause};
use super::{open_journal, plan_of, Collector, FabricCell, FabricOptions, FabricReport};
use crate::DistWorkerCli;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::{RequestCell, RequestHeader, ResponseExpect, ResponseFault, PROTOCOL_VERSION};

/// What the supervisor spawns as a worker process. Every worker is its
/// child: it holds the handle and kills it on revocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpawnMode {
    /// Re-exec the current binary with `--dist-worker …` appended (plus the
    /// original scale flags, so the worker rebuilds the identical grid).
    /// The default for figure binaries.
    SelfExec,
    /// Spawn an explicit command (argv) per shard, `--dist-worker …`
    /// appended. Used by tests and the chaos harness.
    Command(Vec<String>),
}

/// Distributed execution knobs, layered on top of [`FabricOptions`].
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Worker-process count; 1 means "run in-process via `run_fabric`".
    pub workers: usize,
    /// Spool directory root; `None` uses a per-run temp directory, removed
    /// after a run that revoked no lease and quarantined no cell. The
    /// supervisor works inside `<spool>/grid-<digest>/`, wiped at start.
    pub spool: Option<PathBuf>,
    /// The run's name in the manifest, requests and messages.
    pub suite: String,
    /// Lease duration: how long a worker may go without completing a *new*
    /// cell before it is declared stalled. Renewed on every completed cell.
    pub lease: Duration,
    /// Interval workers append heartbeats at.
    pub heartbeat: Duration,
    /// Silence longer than this revokes the lease as a heartbeat lapse.
    pub heartbeat_timeout: Duration,
    /// The longest the supervisor waits before re-reading the spool
    /// (streamed lines, heartbeats, lapse and stall). A worker's exit and a
    /// due re-dispatch wake it sooner.
    pub poll: Duration,
    /// Re-dispatch budget per shard; once spent, the shard's remaining
    /// cells quarantine with [`FailCause::Worker`].
    pub max_redispatch: u32,
    /// How worker processes are obtained.
    pub spawn: SpawnMode,
    /// Set when this process *is* a worker: [`run_dist`] serves the
    /// assigned shard and exits instead of supervising.
    pub task: Option<DistWorkerCli>,
}

impl DistOptions {
    /// Defaults for `suite`: single worker (in-process), 120 s lease,
    /// 200 ms heartbeats with a 3 s timeout, 25 ms poll, 3 re-dispatches,
    /// self-exec spawning.
    pub fn new(suite: impl Into<String>) -> DistOptions {
        DistOptions {
            workers: 1,
            spool: None,
            suite: suite.into(),
            lease: Duration::from_secs(120),
            heartbeat: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(3),
            poll: Duration::from_millis(25),
            max_redispatch: 3,
            spawn: SpawnMode::SelfExec,
            task: None,
        }
    }

    /// Builds options from the parsed [`crate::Cli`]. Lease, heartbeat,
    /// poll and re-dispatch settings are struct fields only: the drills
    /// that need other values set them in code.
    pub fn from_cli(cli: &crate::Cli, suite: impl Into<String>) -> DistOptions {
        DistOptions {
            workers: cli.workers(),
            spool: cli.spool.clone(),
            task: cli.dist.clone(),
            ..DistOptions::new(suite)
        }
    }
}

/// Runs the grid across worker processes — or serves it, or falls through.
///
/// Exactly one of three things happens:
///
/// * `dist.task` is set (this process was spawned with `--dist-worker`):
///   the assigned shard is served and **the process exits** — the caller's
///   post-run printing belongs to the supervisor alone, so this never
///   returns.
/// * `dist.workers <= 1`: delegates to [`super::run_fabric`] — identical
///   semantics, no spool, no processes.
/// * Otherwise: supervises `dist.workers` shard leases to completion and
///   returns the merged report, byte-identical (outputs, seeds, labels) to
///   the in-process run of the same grid.
///
/// # Errors
///
/// On planning/journal errors, an unusable spool, or spawn failures.
/// Worker crashes, stalls, and invalid responses are *contained* —
/// re-dispatched and ultimately quarantined — never returned as `Err`.
pub fn run_dist<T>(
    cells: Vec<FabricCell<T>>,
    opts: &FabricOptions,
    dist: &DistOptions,
) -> Result<FabricReport<T>, String>
where
    T: JournalCodec + Send + 'static,
{
    if let Some(task) = &dist.task {
        match worker::serve_cells(task, &cells) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("dist worker {}: {e}", task.id);
                std::process::exit(3);
            }
        }
    }
    if dist.workers <= 1 {
        return super::run_fabric(cells, opts);
    }
    supervise(cells, opts, dist)
}

/// One shard's dispatch bookkeeping across generations.
struct ShardRun<'p> {
    shard: usize,
    gen: u64,
    redispatches: u32,
    /// Cells still owed a result, by id.
    pending: BTreeMap<CellId, &'p PlannedCell>,
    /// Harvest cursors into the current generation's parsed response —
    /// lines before the cursor were already consumed on an earlier poll.
    harvest_done: usize,
    harvest_failed: usize,
    /// Cells accepted under the current generation (become "harvested" in
    /// the accounting if this generation is revoked).
    accepted_this_gen: Vec<CellId>,
    /// Revocation history, folded into the final quarantine message.
    causes: Vec<String>,
    /// Revoked generations still watched for late response growth:
    /// `(gen, response bytes at revocation)`.
    watch: Vec<(u64, u64)>,
    state: State,
}

enum State {
    /// Revoked; re-dispatch scheduled after bounded backoff.
    AwaitingRedispatch { at_ms: u64 },
    /// A worker — this supervisor's child — owns the shard.
    Leased { lease: Lease, worker: Worker },
    /// Finished: completed, or quarantined after the budget was spent.
    Settled,
}

/// A leased shard's child process and the thread that reports its exit.
struct Worker {
    child: Child,
    /// Drains the child's stdout to EOF, then sends `(shard, gen)` on the
    /// supervisor's exit channel. Joined where the child is reaped.
    relay: JoinHandle<()>,
}

/// The supervisor's audit log (`spool/events.jsonl`).
struct EventLog {
    file: Option<std::fs::File>,
    t0: Instant,
}

impl EventLog {
    fn emit(&mut self, ev: &DistEvent) {
        if let Some(f) = &mut self.file {
            let mut line = String::new();
            ev.to_json(self.t0.elapsed().as_millis() as u64, &mut line);
            line.push('\n');
            // Audit-log IO failures must never take down the sweep.
            let _ = f.write_all(line.as_bytes()).and_then(|()| f.flush());
        }
    }
}

/// Everything the per-shard stepping functions share.
struct Supervisor<'a, T> {
    spool: PathBuf,
    grid: u64,
    opts: &'a FabricOptions,
    dist: &'a DistOptions,
    /// Where harvested and given-up cells settle (journal, report).
    collector: Collector<'a, T>,
    counters: DistCounters,
    events: EventLog,
    lease_ms: u64,
    hb_timeout_ms: u64,
    /// Cloned into every relay; held here so the channel never disconnects.
    exit_tx: Sender<(usize, u64)>,
    exit_rx: Receiver<(usize, u64)>,
    /// Exits the relays reported and no reap has consumed yet:
    /// `(shard, gen)` → the ms the EOF arrived.
    exits: BTreeMap<(usize, u64), u64>,
}

fn supervise<T>(
    cells: Vec<FabricCell<T>>,
    opts: &FabricOptions,
    dist: &DistOptions,
) -> Result<FabricReport<T>, String>
where
    T: JournalCodec + Send + 'static,
{
    let plan = plan_of(&cells)?;
    let (replayed, writer) = open_journal(&plan, opts.journal.as_deref())?;

    // A fresh per-grid spool: stale files from a previous (possibly killed)
    // supervisor must not masquerade as this run's responses — completed
    // work survives in the journal, which is the durable layer.
    let root = dist.spool.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("sweep-spool-{}", std::process::id()))
    });
    let spool = root.join(format!("grid-{:016x}", plan.grid_id()));
    let _ = std::fs::remove_dir_all(&spool);
    wire::init_spool(&spool, plan.grid_id(), plan.len(), dist.workers, &dist.suite)?;

    let (exit_tx, exit_rx) = mpsc::channel();
    let mut sup = Supervisor {
        grid: plan.grid_id(),
        opts,
        dist,
        collector: Collector::new(&plan, opts, writer),
        counters: DistCounters::default(),
        events: EventLog {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(wire::events_path(&spool))
                .ok(),
            t0: Instant::now(),
        },
        lease_ms: dist.lease.as_millis() as u64,
        hb_timeout_ms: dist.heartbeat_timeout.as_millis() as u64,
        spool,
        exit_tx,
        exit_rx,
        exits: BTreeMap::new(),
    };

    let shards = plan.shards(dist.workers)?;
    let mut runs: Vec<ShardRun<'_>> = Vec::with_capacity(shards.len());
    for (k, shard_cells) in shards.iter().enumerate() {
        let pending: BTreeMap<CellId, &PlannedCell> = shard_cells
            .iter()
            .filter(|p| !replayed.contains_key(&p.index))
            .map(|p| (p.id, *p))
            .collect();
        let mut run = ShardRun {
            shard: k,
            gen: 0,
            redispatches: 0,
            pending,
            harvest_done: 0,
            harvest_failed: 0,
            accepted_this_gen: Vec::new(),
            causes: Vec::new(),
            watch: Vec::new(),
            state: State::Settled,
        };
        if !run.pending.is_empty() {
            sup.counters.shards += 1;
            run.state = sup.dispatch(&run)?;
        }
        runs.push(run);
    }

    loop {
        let now = sup.now_ms();
        let mut active = 0usize;
        for run in &mut runs {
            sup.watch_late(run);
            let state = std::mem::replace(&mut run.state, State::Settled);
            run.state = match state {
                State::Settled => State::Settled,
                State::AwaitingRedispatch { at_ms } if now >= at_ms => sup.dispatch(run)?,
                s @ State::AwaitingRedispatch { .. } => s,
                State::Leased { lease, worker } => sup.step_lease(run, lease, worker, now)?,
            };
            if !matches!(run.state, State::Settled) {
                active += 1;
            }
        }
        if active == 0 {
            break;
        }
        // A worker's exit ends the wait early (its relay's EOF); a due
        // re-dispatch bounds it; `poll` is the backstop for what only the
        // spool shows — streamed lines, heartbeats, lapse and stall.
        let now = sup.now_ms();
        let wait = next_wait(now, dist.poll, runs.iter().filter_map(|run| sup.due_ms(run, now)));
        sup.await_exits(wait);
    }

    let revoked = runs.iter().any(|run| !run.causes.is_empty());
    let Supervisor { counters, collector, spool, .. } = sup;
    let mut report = collector.finish(replayed)?;
    report.counters.dist = counters;
    if dist.spool.is_none() {
        // A spool the supervisor chose is the supervisor's to remove —
        // unless something went wrong, when `events.jsonl` is the
        // post-mortem. An operator's `--spool` is never touched.
        if revoked || report.counters.quarantined > 0 {
            eprintln!("warning: spool kept for post-mortem: {}", spool.display());
        } else {
            let _ = std::fs::remove_dir_all(&spool);
            let _ = std::fs::remove_dir(&root);
        }
    }
    Ok(report)
}

impl<T> Supervisor<'_, T>
where
    T: JournalCodec + Send + 'static,
{
    fn now_ms(&self) -> u64 {
        self.events.t0.elapsed().as_millis() as u64
    }

    /// When `run` next needs a step no relay will announce: its re-dispatch,
    /// or a recheck of an exit whose EOF arrived before `try_wait` could see
    /// it. The two race by microseconds, so the recheck backs off — 1, 2,
    /// 4 … ms after the EOF — until `poll` caps it.
    fn due_ms(&self, run: &ShardRun<'_>, now: u64) -> Option<u64> {
        match run.state {
            State::AwaitingRedispatch { at_ms } => Some(at_ms),
            State::Leased { .. } => {
                let eof = self.exits.get(&(run.shard, run.gen))?;
                Some(now + now.saturating_sub(*eof).max(1))
            }
            State::Settled => None,
        }
    }

    /// Blocks up to `wait` for a relay to report a worker's exit, then takes
    /// every report already queued. False if the wait ran out.
    fn await_exits(&mut self, wait: Duration) -> bool {
        let Ok(first) = self.exit_rx.recv_timeout(wait) else {
            return false;
        };
        let now = self.now_ms();
        self.exits.insert(first, now);
        self.exits.extend(self.exit_rx.try_iter().map(|key| (key, now)));
        true
    }

    /// Reaps `run`'s worker — killed first when its lease is revoked — and
    /// joins its relay. The relay's EOF follows the exit at once unless a
    /// process the worker left behind still holds its stdout; that relay
    /// gets one `poll` and is then left to finish on its own, so a leaked
    /// grandchild cannot wedge the sweep.
    fn reap(&mut self, run: &ShardRun<'_>, mut worker: Worker, kill: bool) {
        if kill {
            let _ = worker.child.kill();
        }
        let _ = worker.child.wait();
        let key = (run.shard, run.gen);
        let give_up = Instant::now() + self.dist.poll;
        while !self.exits.contains_key(&key) {
            if !self.await_exits(give_up.saturating_duration_since(Instant::now())) {
                return;
            }
        }
        self.exits.remove(&key);
        let _ = worker.relay.join();
    }

    /// Publishes the request for `run`'s current generation and spawns the
    /// worker that serves it.
    fn dispatch(&mut self, run: &ShardRun<'_>) -> Result<State, String> {
        let header = RequestHeader {
            version: PROTOCOL_VERSION,
            grid: self.grid,
            shard: run.shard,
            gen: run.gen,
            suite: self.dist.suite.clone(),
            cells: run.pending.len(),
            deadline_ms: self.opts.deadline.map_or(0, |d| d.as_millis() as u64),
            max_attempts: self.opts.retry.attempts(),
            backoff_ms: self.opts.retry.base_backoff.as_millis() as u64,
            max_backoff_ms: self.opts.retry.max_backoff.as_millis() as u64,
            heartbeat_ms: self.dist.heartbeat.as_millis() as u64,
        };
        let req_cells: Vec<RequestCell> = run
            .pending
            .values()
            .map(|p| RequestCell { id: p.id, index: p.index, label: p.label.clone(), seed: p.seed })
            .collect();
        wire::write_request(&self.spool, &header, &req_cells)?;
        let worker_id = format!("w{}-g{}", run.shard, run.gen);
        let exits = self.exit_tx.clone();
        let worker =
            spawn_worker(&self.dist.spawn, &self.spool, run.shard, run.gen, &worker_id, exits)?;
        self.counters.workers_spawned += 1;
        self.counters.leases_granted += 1;
        self.events.emit(&DistEvent::LeaseGranted {
            shard: run.shard,
            gen: run.gen,
            worker: worker_id.clone(),
            cells: run.pending.len(),
        });
        Ok(State::Leased {
            lease: Lease::grant(run.shard, run.gen, worker_id, self.now_ms(), self.lease_ms),
            worker,
        })
    }

    /// Checks revoked generations for post-revocation response growth: a
    /// late worker still writing. The work is discarded (its cells were
    /// re-dispatched); the activity is counted so nothing vanishes quietly.
    fn watch_late(&mut self, run: &mut ShardRun<'_>) {
        let spool = self.spool.clone();
        let shard = run.shard;
        let counters = &mut self.counters;
        let events = &mut self.events;
        run.watch.retain(|&(gen, bytes)| {
            let len =
                std::fs::metadata(wire::response_path(&spool, shard, gen)).map_or(0, |m| m.len());
            if len > bytes {
                counters.late_responses += 1;
                events.emit(&DistEvent::LateResponse { shard, gen });
                false
            } else {
                true
            }
        });
    }

    /// One poll step for a leased shard: read the streamed response,
    /// harvest new lines first-valid-wins, then judge the lease. Ordering
    /// matters — completion is checked before expiry, so a worker that
    /// finishes exactly at its deadline wins.
    fn step_lease(
        &mut self,
        run: &mut ShardRun<'_>,
        mut lease: Lease,
        mut worker: Worker,
        now: u64,
    ) -> Result<State, String> {
        let resp_path = wire::response_path(&self.spool, run.shard, run.gen);
        let expect = ResponseExpect { grid: self.grid, shard: run.shard, gen: run.gen };
        let mut text = std::fs::read_to_string(&resp_path).unwrap_or_default();
        let exited = worker.child.try_wait().ok().flatten();
        if exited.is_some() {
            // The exit can race our read of the final footer flush —
            // re-read so a clean finish is never misread as a crash.
            text = std::fs::read_to_string(&resp_path).unwrap_or_default();
        }
        let parsed = wire::parse_response(&text, &expect);
        // Scoped to this dispatch: only this generation's lines prove the
        // worker is alive *here*, whatever else its file holds.
        if let Some(seq) = wire::read_heartbeat_seq(&self.spool, &lease.worker, run.shard, run.gen)
        {
            lease.observe_heartbeat(seq, now);
        }
        let harvested = self.harvest(run, &parsed);
        lease.observe_progress(parsed.done.len() + parsed.failed.len(), now, self.lease_ms);
        if let Err(detail) = harvested {
            self.counters.invalid_responses += 1;
            return self.revoke(run, worker, "invalid_response", detail, now);
        }
        if let Some(fault) = &parsed.fault {
            match fault {
                ResponseFault::Stale(_) => self.counters.stale_protocol += 1,
                ResponseFault::Invalid(_) => self.counters.invalid_responses += 1,
            }
            let detail = fault.detail().to_owned();
            return self.revoke(run, worker, fault.as_str(), detail, now);
        }
        if parsed.complete {
            if run.pending.is_empty() {
                self.reap(run, worker, false);
                self.events.emit(&DistEvent::ResponseAccepted {
                    shard: run.shard,
                    gen: run.gen,
                    done: parsed.done.len(),
                    failed: parsed.failed.len(),
                });
                return Ok(State::Settled);
            }
            self.counters.invalid_responses += 1;
            let detail = format!("complete response left {} cell(s) unanswered", run.pending.len());
            return self.revoke(run, worker, "invalid_response", detail, now);
        }
        if let Some(status) = exited {
            self.counters.worker_crashes += 1;
            let detail = format!("worker exited ({status}) with an incomplete response");
            return self.revoke(run, worker, "crash", detail, now);
        }
        if let Some(cause) = lease.assess(now, self.hb_timeout_ms) {
            let detail = match cause {
                RevokeCause::Stall => {
                    self.counters.stalls += 1;
                    format!(
                        "heartbeats alive (seq {}) but no new cell before the lease deadline \
                         ({} of {} cells done)",
                        lease.heartbeat_seq,
                        lease.progress,
                        lease.progress + run.pending.len()
                    )
                }
                RevokeCause::HeartbeatLapse => {
                    self.counters.heartbeat_lapses += 1;
                    format!("no heartbeat for over {} ms", self.hb_timeout_ms)
                }
            };
            return self.revoke(run, worker, cause.as_str(), detail, now);
        }
        Ok(State::Leased { lease, worker })
    }

    /// Consumes new response lines past the harvest cursors. First valid
    /// result per cell wins — the collector journals it immediately
    /// (crash-safety for the *supervisor*), later duplicates are counted
    /// and dropped.
    ///
    /// # Errors
    ///
    /// On an undecodable payload — the caller revokes the lease.
    fn harvest(
        &mut self,
        run: &mut ShardRun<'_>,
        parsed: &wire::ParsedResponse,
    ) -> Result<(), String> {
        for (dl, stats) in &parsed.done[run.harvest_done..] {
            run.harvest_done += 1;
            let Some(&planned) = run.pending.get(&dl.id) else {
                self.counters.duplicate_cells += 1;
                self.events.emit(&DistEvent::DuplicateCell {
                    shard: run.shard,
                    gen: run.gen,
                    cell: dl.id.to_string(),
                });
                continue;
            };
            let output = decode_payload::<T>(&dl.payload)
                .map_err(|e| format!("payload for cell {} ({:?}): {e}", dl.id, dl.label))?;
            self.collector.done(planned.index, output, *stats, &dl.payload);
            run.pending.remove(&dl.id);
            run.accepted_this_gen.push(dl.id);
        }
        for fl in &parsed.failed[run.harvest_failed..] {
            run.harvest_failed += 1;
            let Some(&planned) = run.pending.get(&fl.id) else {
                self.counters.duplicate_cells += 1;
                self.events.emit(&DistEvent::DuplicateCell {
                    shard: run.shard,
                    gen: run.gen,
                    cell: fl.id.to_string(),
                });
                continue;
            };
            let (attempts, message) = (fl.stats.attempts, fl.message.clone());
            self.collector.quarantine(planned.index, attempts, fl.cause, message, fl.stats);
            run.pending.remove(&fl.id);
            run.accepted_this_gen.push(fl.id);
        }
        Ok(())
    }

    /// Revokes the current lease: kill the worker, log the harvested
    /// salvage, and either re-dispatch the remainder after
    /// bounded backoff or — budget spent — quarantine it.
    fn revoke(
        &mut self,
        run: &mut ShardRun<'_>,
        worker: Worker,
        reason: &'static str,
        detail: String,
        now: u64,
    ) -> Result<State, String> {
        self.reap(run, worker, true);
        // The late-response baseline is the file's on-disk length *after*
        // the worker is dead — a line it flushed between our last read and
        // the kill was written before the watch began, not after it.
        let resp_bytes = std::fs::metadata(wire::response_path(&self.spool, run.shard, run.gen))
            .map_or(0, |m| m.len());
        self.events.emit(&DistEvent::LeaseRevoked {
            shard: run.shard,
            gen: run.gen,
            reason,
            detail: detail.clone(),
        });
        self.counters.harvested_cells += run.accepted_this_gen.len() as u64;
        for id in run.accepted_this_gen.drain(..) {
            self.events.emit(&DistEvent::CellHarvested {
                shard: run.shard,
                gen: run.gen,
                cell: id.to_string(),
            });
        }
        run.causes.push(format!("g{}: {reason} ({detail})", run.gen));
        run.watch.push((run.gen, resp_bytes));
        if run.pending.is_empty() {
            // Everything was salvaged from the partial response (e.g. a
            // crash between the last cell and the footer): nothing to redo.
            return Ok(State::Settled);
        }
        if run.redispatches >= self.dist.max_redispatch {
            let attempts = run.redispatches + 1;
            let message = format!(
                "shard {} re-dispatch budget exhausted after {attempts} generation(s): {}",
                run.shard,
                run.causes.join("; ")
            );
            for planned in std::mem::take(&mut run.pending).into_values() {
                self.collector.quarantine(
                    planned.index,
                    attempts,
                    FailCause::Worker,
                    message.clone(),
                    AttemptStats::default(),
                );
            }
            return Ok(State::Settled);
        }
        run.redispatches += 1;
        self.counters.redispatches += 1;
        run.gen += 1;
        run.harvest_done = 0;
        run.harvest_failed = 0;
        let backoff = self.opts.retry.backoff(run.redispatches);
        Ok(State::AwaitingRedispatch { at_ms: now + backoff.as_millis() as u64 })
    }
}

/// How long the supervisor may block: until the earliest of `due_ms`, and
/// never longer than `poll`. Worker exits need no entry — a relay's EOF
/// ends the wait on its own.
fn next_wait(now_ms: u64, poll: Duration, due_ms: impl IntoIterator<Item = u64>) -> Duration {
    due_ms
        .into_iter()
        .map(|due| Duration::from_millis(due.saturating_sub(now_ms)))
        .fold(poll, Duration::min)
}

/// Spawns one worker process for `(shard, gen)` and the relay that sends
/// `(shard, gen)` on `exits` once it is gone.
fn spawn_worker(
    mode: &SpawnMode,
    spool: &Path,
    shard: usize,
    gen: u64,
    worker_id: &str,
    exits: Sender<(usize, u64)>,
) -> Result<Worker, String> {
    let mut cmd = match mode {
        SpawnMode::SelfExec => {
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot resolve current executable: {e}"))?;
            let mut c = Command::new(exe);
            c.args(passthrough_args(std::env::args().skip(1)));
            c
        }
        SpawnMode::Command(argv) => {
            let (prog, rest) = argv.split_first().ok_or("worker command must not be empty")?;
            let mut c = Command::new(prog);
            c.args(rest);
            c
        }
    };
    cmd.arg("--dist-worker")
        .arg(spool)
        .arg("--dist-shard")
        .arg(shard.to_string())
        .arg("--dist-gen")
        .arg(gen.to_string())
        .arg("--dist-id")
        .arg(worker_id)
        // Workers write results to the spool and diagnostics to stderr, and
        // nothing to stdout: it is a pipe whose EOF tells the supervisor the
        // worker is gone — finished, crashed or killed.
        .stdout(Stdio::piped());
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn worker {worker_id}: {e}"))?;
    let stdout = child.stdout.take();
    let relay =
        std::thread::Builder::new().name(format!("dist-relay-{worker_id}")).spawn(move || {
            if let Some(mut out) = stdout {
                let _ = std::io::copy(&mut out, &mut std::io::sink());
            }
            let _ = exits.send((shard, gen));
        });
    match relay {
        Ok(relay) => Ok(Worker { child, relay }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("cannot start the exit relay of worker {worker_id}: {e}"))
        }
    }
}

/// The supervisor's own argv minus the orchestration flags: what a
/// self-exec worker inherits. `--workers`, `--spool`, `--journal`, and
/// `--jobs` are the supervisor's business — a worker re-supervising, or
/// double-journaling, would be a fork bomb with extra steps.
fn passthrough_args(args: impl Iterator<Item = String>) -> Vec<String> {
    const VALUED: [&str; 4] = ["--workers", "--spool", "--journal", "--jobs"];
    let mut out = Vec::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if VALUED.contains(&a.as_str()) {
            let _ = args.next();
            continue;
        }
        if VALUED.iter().any(|f| a.starts_with(f) && a[f.len()..].starts_with('=')) {
            continue;
        }
        out.push(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_strips_orchestration_flags_only() {
        let args = [
            "--full",
            "--workers",
            "3",
            "--trace",
            "t",
            "--jobs=2",
            "--spool",
            "s",
            "--journal=j.jsonl",
        ];
        let kept = passthrough_args(args.iter().map(|s| (*s).to_owned()));
        assert_eq!(kept, vec!["--full".to_owned(), "--trace".to_owned(), "t".to_owned()]);
        // A trailing orchestration flag with no value is still stripped.
        let kept = passthrough_args(["--full", "--workers"].iter().map(|s| (*s).to_owned()));
        assert_eq!(kept, vec!["--full".to_owned()]);
    }

    #[test]
    fn the_wait_runs_to_the_earliest_due_and_never_past_poll() {
        let poll = Duration::from_millis(25);
        assert_eq!(next_wait(100, poll, []), poll, "nothing due: the backstop");
        assert_eq!(next_wait(100, poll, [103]), Duration::from_millis(3));
        assert_eq!(next_wait(100, poll, [140, 103, 110]), Duration::from_millis(3));
        assert_eq!(next_wait(100, poll, [100]), Duration::ZERO, "due now");
        assert_eq!(next_wait(100, poll, [40, 103]), Duration::ZERO, "overdue");
        assert_eq!(next_wait(100, poll, [10_000]), poll, "never more than poll");
        assert_eq!(next_wait(0, Duration::ZERO, [5]), Duration::ZERO);
    }

    #[test]
    fn dist_options_defaults_are_single_process() {
        let o = DistOptions::new("walk");
        assert_eq!(o.workers, 1);
        assert_eq!(o.spawn, SpawnMode::SelfExec);
        assert!(o.task.is_none());
        assert!(o.lease > o.heartbeat_timeout, "a stall must outlive a heartbeat lapse window");
    }
}
