//! # fabric — the crash-safe sweep fabric
//!
//! The paper's evaluation, and every suite grown from it, is a grid of
//! independent `(scenario × algorithm × impairment × seed)` cells. The
//! plain [`crate::runner`] executes such a grid fast and deterministically
//! — but all-or-nothing: one panicking, hanging, or invariant-violating
//! cell destroys hours of completed work, and a killed sweep restarts from
//! zero. The fabric wraps the same worker-pool idea in three layers of
//! crash safety:
//!
//! 1. **Planning** ([`plan`]): every cell gets a content-addressed
//!    [`CellId`] — a stable hash of label, seed, and config fingerprint —
//!    and the grid a digest pinning membership and order. Pure function of
//!    the input; no wall-clock, no `HashMap`, no pointer identity.
//! 2. **Journaling** ([`journal`]): each completed cell appends one flushed
//!    JSONL line (floats as bit patterns) to the journal. A killed sweep
//!    resumes by replaying the journal and running only the missing cells;
//!    the merged report is byte-identical to an uninterrupted run
//!    (`tests/fabric_resume.rs`).
//! 3. **Containment** ([`retry`], [`merge`]): each attempt runs under
//!    `catch_unwind` with an optional wall-clock deadline; failures retry
//!    with bounded exponential backoff, and on exhaustion the cell is
//!    **quarantined** — it emits a self-contained repro artifact (the
//!    `crate::repro` format the `replay` binary re-executes) and the sweep
//!    degrades to a partial report naming it, instead of aborting.
//!
//! ## Determinism under resume, retry, and quarantine
//!
//! The serial-vs-parallel byte-identity of `runner` survives because every
//! fabric mechanism is either (a) a pure function of the cells (planning,
//! merging, journal payloads — the codec round-trips bit-exactly), or
//! (b) wall-clock-dependent but *output-invariant* (deadlines and backoff
//! decide only **whether/when** a cell's closure runs; the closure owns its
//! whole seeded simulator, so its output cannot change). Quarantine removes
//! a cell from the result vector without touching its neighbours.

pub mod demo;
pub mod dist;
pub mod journal;
pub mod merge;
pub mod plan;
pub mod retry;

pub use dist::{run_dist, DistOptions, SpawnMode};
pub use journal::{JournalCodec, JournalReplay};
pub use merge::{CellOutcome, FabricReport, QuarantineRecord};
pub use plan::{CellId, Fingerprint, ShardPlan};
pub use retry::{FailCause, RetryPolicy};

use crate::repro::{self, ReproOutcome, ReproSpec, ViolationRecord};
use crate::runner::RunSummary;
use journal::{decode_payload, JournalValue, JournalWriter};
use obs::{CounterSnapshot, FabricCounters};
use plan::PlannedCell;
use retry::CellFn;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One fabric work unit: a [`crate::runner::SweepCell`] whose closure is
/// re-runnable (`Fn`, for retries) and `'static` (deadline attempts run on
/// detachable threads), plus the config fingerprint that makes its
/// [`CellId`] content-addressed and an optional [`ReproSpec`] for
/// quarantine artifacts.
pub struct FabricCell<T> {
    /// Display label, carried into summaries, journals, and reports.
    pub label: String,
    /// The seed this cell derives its determinism from.
    pub seed: u64,
    config: Fingerprint,
    repro: Option<ReproSpec>,
    run: CellFn<T>,
}

impl<T> FabricCell<T> {
    /// Creates a cell from a label, a seed, and a re-runnable closure;
    /// counters come back empty (see [`FabricCell::with_counters`]).
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        run: impl Fn() -> T + Send + Sync + 'static,
    ) -> FabricCell<T> {
        FabricCell::with_counters(label, seed, move || (run(), CounterSnapshot::default()))
    }

    /// Creates a cell whose closure also reports an [`obs::CounterSnapshot`].
    pub fn with_counters(
        label: impl Into<String>,
        seed: u64,
        run: impl Fn() -> (T, CounterSnapshot) + Send + Sync + 'static,
    ) -> FabricCell<T> {
        FabricCell {
            label: label.into(),
            seed,
            config: Fingerprint::new(),
            repro: None,
            run: std::sync::Arc::new(run),
        }
    }

    /// Attaches the configuration fingerprint distinguishing this cell from
    /// an identically-labelled cell at a different scale/config. Part of
    /// the cell's content address.
    #[must_use]
    pub fn config(mut self, config: Fingerprint) -> FabricCell<T> {
        self.config = config;
        self
    }

    /// Attaches a repro spec: if this cell is quarantined, the artifact is
    /// written in the `crate::repro` format and is replayable with
    /// `cargo run --bin replay`.
    #[must_use]
    pub fn repro(mut self, spec: ReproSpec) -> FabricCell<T> {
        self.repro = Some(spec);
        self
    }

    /// The cell's content-addressed identity.
    pub fn id(&self) -> CellId {
        CellId::derive(&self.label, self.seed, self.config)
    }
}

/// Fabric execution knobs. [`FabricOptions::from_cli`] wires the standard
/// environment/CLI surface (`--journal`/`SWEEP_JOURNAL`, `SWEEP_DEADLINE_S`,
/// `SWEEP_RETRIES`, `SWEEP_BACKOFF_MS`, `SWEEP_ARTIFACTS`).
#[derive(Clone, Debug)]
pub struct FabricOptions {
    /// Worker count (clamped to ≥ 1).
    pub jobs: usize,
    /// Journal path; `None` disables checkpointing and resume.
    pub journal: Option<PathBuf>,
    /// Per-attempt wall-clock deadline; `None` waits forever.
    pub deadline: Option<Duration>,
    /// Retry/backoff policy for failed attempts.
    pub retry: RetryPolicy,
    /// Where quarantine artifacts are written; `None` skips artifacts.
    pub artifacts: Option<PathBuf>,
}

impl Default for FabricOptions {
    fn default() -> FabricOptions {
        FabricOptions {
            jobs: crate::runner::default_jobs(),
            journal: None,
            deadline: None,
            retry: RetryPolicy::default(),
            artifacts: repro::artifact_dir(),
        }
    }
}

pub(crate) fn env_parsed<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    let v = std::env::var(name).ok()?;
    match v.trim().parse::<T>() {
        Ok(parsed) => Some(parsed),
        Err(_) => {
            eprintln!("warning: ignoring {name}={v:?}: expected {what}");
            None
        }
    }
}

impl FabricOptions {
    /// Builds options from the parsed [`crate::Cli`] plus the fabric env
    /// knobs: `SWEEP_DEADLINE_S` (fractional seconds per attempt),
    /// `SWEEP_RETRIES` (max attempts per cell), `SWEEP_BACKOFF_MS` (base
    /// backoff). Unusable values warn on stderr and fall back, matching
    /// `SWEEP_JOBS` handling.
    pub fn from_cli(cli: &crate::Cli) -> FabricOptions {
        let mut o = FabricOptions {
            jobs: cli.jobs(),
            journal: cli.journal_path(),
            ..FabricOptions::default()
        };
        if let Some(secs) = env_parsed::<f64>("SWEEP_DEADLINE_S", "a positive number of seconds") {
            if secs > 0.0 && secs.is_finite() {
                o.deadline = Some(Duration::from_secs_f64(secs));
            } else {
                eprintln!("warning: ignoring SWEEP_DEADLINE_S={secs}: expected a positive number of seconds");
            }
        }
        if let Some(n) = env_parsed::<u32>("SWEEP_RETRIES", "a positive attempt count") {
            if n >= 1 {
                o.retry.max_attempts = n;
            } else {
                eprintln!("warning: ignoring SWEEP_RETRIES=0: expected a positive attempt count");
            }
        }
        if let Some(ms) = env_parsed::<u64>("SWEEP_BACKOFF_MS", "a backoff in milliseconds") {
            o.retry.base_backoff = Duration::from_millis(ms);
        }
        o
    }
}

/// Writes the quarantine artifact for `cell`. With a [`ReproSpec`] the
/// artifact is the full `crate::repro` format (replayable); without one it
/// is an identity-only JSONL stub naming the cell. Both paths fold the
/// cell's content-addressed [`CellId`] into the filename — a grid routinely
/// runs many cells at the same seed (one per algorithm), and seed- or
/// label-derived names would let their artifacts overwrite each other.
/// IO failures warn and return `None` — quarantine must never abort the
/// sweep it exists to save.
pub(crate) fn write_artifact(
    dir: &Path,
    planned: &PlannedCell,
    spec: Option<&ReproSpec>,
    cause: FailCause,
    message: &str,
) -> Option<PathBuf> {
    let annotated =
        format!("quarantined sweep cell {:?} [{}]: {message}", planned.label, cause.as_str());
    let result = match spec {
        Some(spec) => {
            let outcome = ReproOutcome {
                finished: false,
                acked: 0,
                violation: Some(ViolationRecord { at_ns: 0, message: annotated }),
                trace_tail: Vec::new(),
            };
            repro::dump_artifact_named(
                dir,
                &format!("repro-{}-{}", planned.seed, planned.id),
                spec,
                &outcome,
            )
        }
        None => {
            let path = dir.join(format!("quarantine-{}.jsonl", planned.id));
            let PlannedCell { id, label, seed, .. } = planned;
            let stub = journal::framed(|w| {
                journal::cell_fields(w, "fabric", "quarantine", *id, label, *seed)
                    .str("cause", cause.as_str())
                    .str("message", message)
            });
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, stub)).map(|()| path)
        }
    };
    match result {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write quarantine artifact for {:?}: {e}", planned.label);
            None
        }
    }
}

/// The already-journaled results for a grid, decoded and indexed by input
/// position.
pub(crate) type Replayed<T> = BTreeMap<usize, (T, CounterSnapshot, u32)>;

/// Loads and decodes the journal at `journal_path` against `plan`: grid
/// check, torn-tail warning, and per-cell payload decode. Shared by the
/// in-process fabric and the distributed supervisor, so both resume with
/// identical semantics.
pub(crate) fn replay_for_plan<T: JournalCodec>(
    plan: &ShardPlan,
    journal_path: &Path,
) -> Result<Replayed<T>, String> {
    let replay = journal::load_journal(journal_path)?;
    if let Some(grid) = replay.grid {
        if grid != plan.grid_id() {
            return Err(format!(
                "journal {} was written for grid {grid:016x}, this sweep is {:016x}; \
                 refusing to mix results (use a fresh journal path per grid)",
                journal_path.display(),
                plan.grid_id()
            ));
        }
    }
    if let Some(torn) = &replay.torn_tail {
        eprintln!(
            "fabric: journal {} has a torn final line (interrupted append), re-running that cell: {}",
            journal_path.display(),
            &torn[..torn.len().min(80)]
        );
    }
    let mut replayed: Replayed<T> = BTreeMap::new();
    for (id, entry) in &replay.done {
        let Some(planned) = plan.find(*id) else {
            return Err(format!(
                "journal {} contains cell {id} ({:?}) that is not in this grid",
                journal_path.display(),
                entry.label
            ));
        };
        let (output, counters) = decode_payload::<(T, CounterSnapshot)>(&entry.payload)
            .map_err(|e| format!("journal payload for cell {id} ({:?}): {e}", entry.label))?;
        replayed.insert(planned.index, (output, counters, entry.attempts));
    }
    Ok(replayed)
}

/// Runs the missing cells across the worker pool with containment, calling
/// `on_done` under no lock ordering guarantees (it must synchronise
/// internally — the journal writer sits behind a `Mutex`).
#[allow(clippy::type_complexity)]
fn run_missing<T: Send + 'static>(
    work: &[(usize, &FabricCell<T>, &PlannedCell)],
    opts: &FabricOptions,
    on_done: &(dyn Fn(&PlannedCell, u32, &T, &CounterSnapshot) + Sync),
    on_quarantine: &(dyn Fn(&QuarantineRecord) + Sync),
) -> Result<Vec<(usize, CellOutcome<T>, retry::AttemptStats)>, String> {
    let jobs = opts.jobs.max(1).min(work.len().max(1));
    let cursor = AtomicUsize::new(0);
    let run_one = |&(index, cell, planned): &(usize, &FabricCell<T>, &PlannedCell)| {
        let (result, stats) =
            retry::run_with_retries(&cell.label, &cell.run, opts.deadline, &opts.retry);
        let outcome = match result {
            Ok((output, counters)) => {
                on_done(planned, stats.attempts, &output, &counters);
                CellOutcome::Done {
                    summary: RunSummary {
                        label: cell.label.clone(),
                        seed: cell.seed,
                        output,
                        counters,
                    },
                    attempts: stats.attempts,
                    replayed: false,
                }
            }
            Err((cause, message)) => {
                let artifact = opts.artifacts.as_deref().and_then(|dir| {
                    write_artifact(dir, planned, cell.repro.as_ref(), cause, &message)
                });
                let record = QuarantineRecord {
                    id: planned.id,
                    label: cell.label.clone(),
                    seed: cell.seed,
                    attempts: stats.attempts,
                    cause,
                    message,
                    artifact,
                };
                on_quarantine(&record);
                CellOutcome::Quarantined(record)
            }
        };
        (index, outcome, stats)
    };
    if jobs == 1 {
        // Serial reference path: identical decisions, no threads.
        return Ok(work.iter().map(run_one).collect());
    }
    let mut out = Vec::with_capacity(work.len());
    let joined: Result<(), String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = work.get(i) else { return mine };
                        mine.push(run_one(item));
                    }
                })
            })
            .collect();
        let mut first_err = None;
        for worker in workers {
            match worker.join() {
                Ok(mine) => out.extend(mine),
                Err(payload) => {
                    // Cell panics are caught inside run_with_retries; a
                    // worker-level panic is a fabric bug, surfaced as Err.
                    first_err.get_or_insert_with(|| {
                        format!(
                            "fabric worker panicked: {}",
                            retry::panic_message(payload.as_ref())
                        )
                    });
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    });
    joined?;
    Ok(out)
}

fn assemble_report<T>(
    plan: &ShardPlan,
    replayed: Replayed<T>,
    fresh: Vec<(usize, CellOutcome<T>, retry::AttemptStats)>,
    cells_by_index: &BTreeMap<usize, (String, u64)>,
) -> Result<FabricReport<T>, String> {
    let mut counters = FabricCounters {
        planned: plan.len() as u64,
        replayed: replayed.len() as u64,
        executed: fresh.len() as u64,
        ..FabricCounters::default()
    };
    let mut parts: Vec<(usize, CellOutcome<T>)> = Vec::with_capacity(plan.len());
    for (index, (output, snapshot, attempts)) in replayed {
        let (label, seed) = match cells_by_index.get(&index) {
            Some(pair) => pair.clone(),
            None => return Err(format!("fabric merge: replayed index {index} not in grid")),
        };
        parts.push((
            index,
            CellOutcome::Done {
                summary: RunSummary { label, seed, output, counters: snapshot },
                attempts,
                replayed: true,
            },
        ));
    }
    for (index, outcome, stats) in fresh {
        counters.retries += u64::from(stats.attempts.saturating_sub(1));
        counters.panics += u64::from(stats.panics);
        counters.deadline_kills += u64::from(stats.deadline_kills);
        if matches!(outcome, CellOutcome::Quarantined(_)) {
            counters.quarantined += 1;
        }
        parts.push((index, outcome));
    }
    Ok(FabricReport { outcomes: merge::assemble(plan.len(), parts)?, counters })
}

/// Runs the grid **without** a journal: containment (deadlines, retries,
/// quarantine) but no checkpoint/resume. For outputs that have no
/// [`JournalCodec`], e.g. ad-hoc test outcome structs.
///
/// # Errors
///
/// On planning errors (duplicate cell ids) or fabric-internal failures;
/// cell panics/hangs are contained, not returned as `Err`.
pub fn run_fabric_ephemeral<T: Send + 'static>(
    cells: Vec<FabricCell<T>>,
    opts: &FabricOptions,
) -> Result<FabricReport<T>, String> {
    let plan = ShardPlan::new(cells.iter().map(|c| (c.label.clone(), c.seed, c.config)))?;
    let cells_by_index: BTreeMap<usize, (String, u64)> =
        plan.cells().iter().map(|p| (p.index, (p.label.clone(), p.seed))).collect();
    let work: Vec<(usize, &FabricCell<T>, &PlannedCell)> = cells
        .iter()
        .zip(plan.cells())
        .map(|(cell, planned)| (planned.index, cell, planned))
        .collect();
    let fresh = run_missing(&work, opts, &|_, _, _, _| {}, &|q| {
        eprintln!("fabric: {q}");
    })?;
    assemble_report(&plan, BTreeMap::new(), fresh, &cells_by_index)
}

/// Runs the grid with the full crash-safe protocol: journal replay and
/// per-cell checkpointing when [`FabricOptions::journal`] is set, plus
/// containment. Resuming is automatic — point a second run at the same
/// journal and only the missing cells execute.
///
/// # Errors
///
/// On planning errors, an unreadable/corrupt journal, a journal written
/// for a different grid, or undecodable journal payloads. Cell
/// panics/hangs are contained, not returned as `Err`.
pub fn run_fabric<T>(
    cells: Vec<FabricCell<T>>,
    opts: &FabricOptions,
) -> Result<FabricReport<T>, String>
where
    T: JournalCodec + Send + 'static,
{
    let Some(journal_path) = opts.journal.clone() else {
        return run_fabric_ephemeral(cells, opts);
    };
    let plan = ShardPlan::new(cells.iter().map(|c| (c.label.clone(), c.seed, c.config)))?;
    let cells_by_index: BTreeMap<usize, (String, u64)> =
        plan.cells().iter().map(|p| (p.index, (p.label.clone(), p.seed))).collect();

    // Replay: decode every journaled payload for this grid.
    let replayed: Replayed<T> = replay_for_plan(&plan, &journal_path)?;

    let writer = Mutex::new(JournalWriter::append_to(&journal_path, plan.grid_id(), plan.len())?);
    let on_done = |planned: &PlannedCell, attempts: u32, output: &T, counters: &CounterSnapshot| {
        let mut payload: Vec<JournalValue> = Vec::new();
        output.encode(&mut payload);
        counters.encode(&mut payload);
        let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = w.record_done(planned.id, &planned.label, planned.seed, attempts, &payload)
        {
            // A failing checkpoint degrades crash safety, never the sweep.
            eprintln!("warning: {e}");
        }
    };
    let on_quarantine = |record: &QuarantineRecord| {
        eprintln!("fabric: {record}");
        let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = w.record_quarantine(
            record.id,
            &record.label,
            record.seed,
            record.attempts,
            record.cause.as_str(),
            &record.message,
        ) {
            eprintln!("warning: {e}");
        }
    };

    let work: Vec<(usize, &FabricCell<T>, &PlannedCell)> = cells
        .iter()
        .zip(plan.cells())
        .filter(|(_, planned)| !replayed.contains_key(&planned.index))
        .map(|(cell, planned)| (planned.index, cell, planned))
        .collect();
    if !replayed.is_empty() {
        eprintln!(
            "fabric: resumed {} of {} cell(s) from journal {}",
            replayed.len(),
            plan.len(),
            journal_path.display()
        );
    }
    let fresh = run_missing(&work, opts, &on_done, &on_quarantine)?;
    assemble_report(&plan, replayed, fresh, &cells_by_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fabric-mod-{}-{name}", std::process::id()))
    }

    fn square_cells(n: u64, runs: &Arc<AtomicU64>) -> Vec<FabricCell<u64>> {
        (0..n)
            .map(|s| {
                let runs = Arc::clone(runs);
                FabricCell::new(format!("c{s}"), s, move || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    s * s
                })
                .config(Fingerprint::new().str("square"))
            })
            .collect()
    }

    #[test]
    fn journaled_run_resumes_without_reexecuting() {
        let dir = tmp("resume");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let opts = FabricOptions {
            jobs: 2,
            journal: Some(journal.clone()),
            artifacts: None,
            ..FabricOptions::default()
        };
        let runs = Arc::new(AtomicU64::new(0));
        let first = run_fabric(square_cells(6, &runs), &opts).expect("first run");
        assert!(first.is_complete());
        assert_eq!(runs.load(Ordering::Relaxed), 6);
        assert_eq!(first.counters.executed, 6);
        // Second run over the same journal replays everything.
        let second = run_fabric(square_cells(6, &runs), &opts).expect("second run");
        assert_eq!(runs.load(Ordering::Relaxed), 6, "resume must not re-execute");
        assert_eq!(second.counters.replayed, 6);
        assert_eq!(second.counters.executed, 0);
        let a: Vec<_> = first.results().map(|r| (r.label.clone(), r.output)).collect();
        let b: Vec<_> = second.results().map(|r| (r.label.clone(), r.output)).collect();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_for_a_different_grid_is_refused() {
        let dir = tmp("gridmix");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let opts = FabricOptions {
            jobs: 1,
            journal: Some(journal),
            artifacts: None,
            ..FabricOptions::default()
        };
        let runs = Arc::new(AtomicU64::new(0));
        run_fabric(square_cells(3, &runs), &opts).expect("seed run");
        let err = run_fabric(square_cells(4, &runs), &opts).unwrap_err();
        assert!(err.contains("was written for grid"), "{err}");
        assert!(err.contains("refusing to mix"), "{err}");
        let _ = std::fs::remove_dir_all(tmp("gridmix"));
    }

    #[test]
    fn quarantine_contains_failures_and_preserves_neighbours() {
        let dir = tmp("quarantine");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FabricOptions {
            jobs: 3,
            journal: None,
            deadline: None,
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
            },
            artifacts: Some(dir.clone()),
        };
        let mut cells: Vec<FabricCell<u64>> =
            (0..4u64).map(|s| FabricCell::new(format!("ok{s}"), s, move || s + 10)).collect();
        cells.push(FabricCell::new("bomb", 99, || panic!("cell 99 exploded")));
        let report = run_fabric_ephemeral(cells, &opts).expect("fabric run");
        assert!(!report.is_complete());
        let healthy: Vec<u64> = report.results().map(|r| r.output).collect();
        assert_eq!(healthy, vec![10, 11, 12, 13], "healthy cells unchanged");
        let q: Vec<&QuarantineRecord> = report.quarantined().collect();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].attempts, 2, "retried before quarantine");
        assert_eq!(q[0].cause, FailCause::Panic);
        assert!(q[0].message.contains("cell 99 exploded"), "{}", q[0].message);
        let artifact = q[0].artifact.as_ref().expect("artifact written");
        let text = std::fs::read_to_string(artifact).expect("artifact readable");
        assert!(text.contains("cell 99 exploded"), "{text}");
        assert_eq!(report.counters.quarantined, 1);
        assert_eq!(report.counters.retries, 1);
        assert_eq!(report.counters.panics, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
