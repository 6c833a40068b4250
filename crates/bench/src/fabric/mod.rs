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
//!    **quarantined** — it writes an identity stub naming the cell, its
//!    failure cause and message, and the sweep degrades to a partial report
//!    naming it, instead of aborting.
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
pub use merge::{CellOutcome, FabricCounters, FabricReport, QuarantineRecord};
pub use plan::{CellId, Fingerprint, ShardPlan};
pub use retry::{FailCause, RetryPolicy};

use crate::env_parsed;
use crate::repro;
use crate::runner::{run_sweep_jobs, RunSummary, SweepCell};
use journal::{decode_payload, encode_payload, JournalValue, JournalWriter};
use plan::PlannedCell;
use retry::{AttemptStats, CellFn};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// One fabric work unit: a [`crate::runner::SweepCell`] whose closure is
/// re-runnable (`Fn`, for retries) and `'static` (deadline attempts run on
/// detachable threads), plus the config fingerprint that makes its
/// [`CellId`] content-addressed.
pub struct FabricCell<T> {
    /// Display label, carried into summaries, journals, and reports.
    pub label: String,
    /// The seed this cell derives its determinism from.
    pub seed: u64,
    config: Fingerprint,
    run: CellFn<T>,
}

impl<T> FabricCell<T> {
    /// Creates a cell from a label, a seed, and a re-runnable closure. A
    /// cell that wants counters next to its numbers returns them in `T`, as
    /// `hybrid_scale`'s `CellOut` does.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        run: impl Fn() -> T + Send + Sync + 'static,
    ) -> FabricCell<T> {
        FabricCell {
            label: label.into(),
            seed,
            config: Fingerprint::new(),
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

    /// The cell's content-addressed identity.
    pub fn id(&self) -> CellId {
        CellId::derive(&self.label, self.seed, self.config)
    }
}

/// Fabric execution knobs. [`FabricOptions::from_cli`] wires the standard
/// environment/CLI surface (`--journal`, `SWEEP_DEADLINE_S`,
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
        o.deadline =
            env_parsed("SWEEP_DEADLINE_S", "a positive number of seconds", crate::positive_secs)
                .map(Duration::from_secs_f64);
        if let Some(n) = env_parsed("SWEEP_RETRIES", "a positive attempt count", crate::nonzero) {
            o.retry.max_attempts = n;
        }
        if let Some(ms) = env_parsed("SWEEP_BACKOFF_MS", "a backoff in milliseconds", |_| true) {
            o.retry.base_backoff = Duration::from_millis(ms);
        }
        o
    }
}

/// Writes the quarantine artifact for `cell`: an identity-only JSONL stub
/// naming the cell, its failure cause and message. The filename folds in
/// the cell's content-addressed [`CellId`] — a grid routinely runs many
/// cells at the same seed (one per algorithm), and seed- or label-derived
/// names would let their artifacts overwrite each other. IO failures warn
/// and return `None` — quarantine must never abort the sweep it exists to
/// save.
fn write_artifact(
    dir: &Path,
    planned: &PlannedCell,
    cause: FailCause,
    message: &str,
) -> Option<PathBuf> {
    let path = dir.join(format!("quarantine-{}.jsonl", planned.id));
    let PlannedCell { id, label, seed, .. } = planned;
    let stub = journal::framed(|w| {
        journal::cell_fields(w, "fabric", "quarantine", *id, label, *seed)
            .str("cause", cause.as_str())
            .str("message", message)
    });
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, stub)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write quarantine artifact for {:?}: {e}", planned.label);
            None
        }
    }
}

/// The already-journaled results for a grid, decoded and indexed by input
/// position.
pub(crate) type Replayed<T> = BTreeMap<usize, (T, u32)>;

/// Plans the grid `cells` describe. The one place a grid is planned:
/// supervisor, in-process runner and self-exec worker agree on the digest
/// because they all come through here.
pub(crate) fn plan_of<T>(cells: &[FabricCell<T>]) -> Result<ShardPlan, String> {
    ShardPlan::new(cells.iter().map(|c| (c.label.clone(), c.seed, c.config)))
}

/// Opens the journal at `path` for `plan`: replays what it already holds
/// (grid check, torn-tail warning, per-cell payload decode), then appends
/// this run's header. No path means no checkpointing: nothing replayed and
/// no writer. Shared by the in-process fabric and the distributed
/// supervisor, so both resume with identical semantics.
pub(crate) fn open_journal<T: JournalCodec>(
    plan: &ShardPlan,
    path: Option<&Path>,
) -> Result<(Replayed<T>, Option<JournalWriter>), String> {
    let Some(path) = path else { return Ok((BTreeMap::new(), None)) };
    let replay = journal::load_journal(path)?;
    if let Some(grid) = replay.grid {
        if grid != plan.grid_id() {
            return Err(format!(
                "journal {} was written for grid {grid:016x}, this sweep is {:016x}; \
                 refusing to mix results (use a fresh journal path per grid)",
                path.display(),
                plan.grid_id()
            ));
        }
    }
    if let Some(torn) = &replay.torn_tail {
        eprintln!(
            "fabric: journal {} has a torn final line (interrupted append), re-running that cell: {}",
            path.display(),
            &torn[..torn.len().min(80)]
        );
    }
    let mut replayed: Replayed<T> = BTreeMap::new();
    for (id, entry) in &replay.done {
        let Some(planned) = plan.find(*id) else {
            return Err(format!(
                "journal {} contains cell {id} ({:?}) that is not in this grid",
                path.display(),
                entry.label
            ));
        };
        let output = decode_payload::<T>(&entry.payload)
            .map_err(|e| format!("journal payload for cell {id} ({:?}): {e}", entry.label))?;
        replayed.insert(planned.index, (output, entry.attempts));
    }
    if !replayed.is_empty() {
        eprintln!(
            "fabric: resumed {} of {} cell(s) from journal {}",
            replayed.len(),
            plan.len(),
            path.display()
        );
    }
    let writer = JournalWriter::append_to(path, plan.grid_id(), plan.len())?;
    Ok((replayed, Some(writer)))
}

/// Where every executed cell settles, whichever path ran it: pool threads
/// of the in-process fabric (behind a `Mutex`) and the distributed
/// supervisor's harvest both end here. The only code that journals a
/// `done`, quarantines a cell (artifact, journal line, record, stderr) or
/// assembles the [`FabricReport`].
pub(crate) struct Collector<'a, T> {
    plan: &'a ShardPlan,
    artifacts: Option<&'a Path>,
    writer: Option<JournalWriter>,
    fresh: Vec<(usize, CellOutcome<T>)>,
    counters: FabricCounters,
}

impl<'a, T> Collector<'a, T> {
    pub(crate) fn new(
        plan: &'a ShardPlan,
        opts: &'a FabricOptions,
        writer: Option<JournalWriter>,
    ) -> Collector<'a, T> {
        Collector {
            plan,
            artifacts: opts.artifacts.as_deref(),
            writer,
            fresh: Vec::new(),
            counters: FabricCounters::default(),
        }
    }

    fn count(&mut self, stats: AttemptStats) {
        self.counters.executed += 1;
        self.counters.retries += u64::from(stats.attempts.saturating_sub(1));
        self.counters.panics += u64::from(stats.panics);
        self.counters.deadline_kills += u64::from(stats.deadline_kills);
    }

    /// Settles cell `index` as completed: checkpoint first (`payload` is
    /// the encoded `output`, unread without a journal), then the report
    /// entry.
    pub(crate) fn done(
        &mut self,
        index: usize,
        output: T,
        stats: AttemptStats,
        payload: &[JournalValue],
    ) {
        let planned = &self.plan.cells()[index];
        if let Some(w) = &mut self.writer {
            // A failing checkpoint degrades crash safety, never the sweep.
            if let Err(e) =
                w.record_done(planned.id, &planned.label, planned.seed, stats.attempts, payload)
            {
                eprintln!("warning: {e}");
            }
        }
        self.count(stats);
        self.fresh.push((index, done_outcome(planned, output, stats.attempts, false)));
    }

    /// Settles cell `index` as quarantined after `attempts` tries: repro
    /// artifact, journal line, stderr notice, report entry.
    pub(crate) fn quarantine(
        &mut self,
        index: usize,
        attempts: u32,
        cause: FailCause,
        message: String,
        stats: AttemptStats,
    ) {
        let planned = &self.plan.cells()[index];
        let artifact = self.artifacts.and_then(|dir| write_artifact(dir, planned, cause, &message));
        let PlannedCell { id, label, seed, .. } = planned.clone();
        let record = QuarantineRecord { id, label, seed, attempts, cause, message, artifact };
        eprintln!("fabric: {record}");
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.record_quarantine(
                record.id,
                &record.label,
                record.seed,
                attempts,
                cause.as_str(),
                &record.message,
            ) {
                eprintln!("warning: {e}");
            }
        }
        self.count(stats);
        self.counters.quarantined += 1;
        self.fresh.push((index, CellOutcome::Quarantined(record)));
    }

    /// Merges the settled cells with the `replayed` ones into the report,
    /// in input order.
    ///
    /// # Errors
    ///
    /// When a planned cell settled twice or never — a fabric-core bug.
    pub(crate) fn finish(mut self, replayed: Replayed<T>) -> Result<FabricReport<T>, String> {
        self.counters.planned = self.plan.len() as u64;
        self.counters.replayed = replayed.len() as u64;
        for (index, (output, attempts)) in replayed {
            let planned = &self.plan.cells()[index];
            self.fresh.push((index, done_outcome(planned, output, attempts, true)));
        }
        let outcomes = merge::assemble(self.plan.len(), self.fresh)?;
        Ok(FabricReport { outcomes, counters: self.counters })
    }
}

fn done_outcome<T>(
    planned: &PlannedCell,
    output: T,
    attempts: u32,
    replayed: bool,
) -> CellOutcome<T> {
    let summary = RunSummary { label: planned.label.clone(), seed: planned.seed, output };
    CellOutcome::Done { summary, attempts, replayed }
}

/// Executes the cells `replayed` does not cover on the [`crate::runner`]
/// pool, each under the containment policy, and settles them through one
/// [`Collector`]. `encode` renders a completed cell's journal payload; it
/// runs on the pool thread, outside the collector's lock, and only when a
/// journal is open.
fn run_planned<T: Send + 'static>(
    cells: &[FabricCell<T>],
    opts: &FabricOptions,
    plan: &ShardPlan,
    (replayed, writer): (Replayed<T>, Option<JournalWriter>),
    encode: fn(&T) -> Vec<JournalValue>,
) -> Result<FabricReport<T>, String> {
    let journals = writer.is_some();
    let collector = Mutex::new(Collector::new(plan, opts, writer));
    // Cell panics are caught inside run_with_retries, so a pool thread
    // cannot die holding the lock; recovery keeps a fabric-core panic from
    // cascading into every other worker.
    let settle = || collector.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let missing: Vec<SweepCell<'_, ()>> = cells
        .iter()
        .enumerate()
        .filter(|(index, _)| !replayed.contains_key(index))
        .map(|(index, cell)| {
            SweepCell::new(cell.label.as_str(), cell.seed, move || {
                let (result, stats) =
                    retry::run_with_retries(&cell.label, &cell.run, opts.deadline, &opts.retry);
                match result {
                    Ok(output) => {
                        let payload = if journals { encode(&output) } else { Vec::new() };
                        settle().done(index, output, stats, &payload);
                    }
                    Err((cause, message)) => {
                        settle().quarantine(index, stats.attempts, cause, message, stats);
                    }
                }
            })
        })
        .collect();
    run_sweep_jobs(missing, opts.jobs);
    collector.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner).finish(replayed)
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
    let plan = plan_of(&cells)?;
    run_planned(&cells, opts, &plan, (BTreeMap::new(), None), |_| Vec::new())
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
    let plan = plan_of(&cells)?;
    let journal = open_journal(&plan, opts.journal.as_deref())?;
    run_planned(&cells, opts, &plan, journal, encode_payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
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
