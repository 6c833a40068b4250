//! Merging: journal replays + live results + quarantines → one report, in
//! input order.
//!
//! The merge path is deliberately free of wall-clock, RNG, and hash-order
//! effects: the report is a pure function of (grid, journaled payloads,
//! fresh outputs, quarantine records), so an interrupted-and-resumed sweep
//! assembles the same bytes as an uninterrupted one.

use super::dist::DistCounters;
use super::plan::CellId;
use super::retry::FailCause;
use crate::runner::RunSummary;
use std::path::PathBuf;

/// Sweep-fabric accounting for one fabric run: how much work the journal
/// saved, how hard the retry layer worked, and what was quarantined.
/// Assembled by the fabric after the pool joins, so cells pay nothing for
/// it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Cells in the planned grid.
    pub planned: u64,
    /// Cells satisfied by replaying the journal (not executed).
    pub replayed: u64,
    /// Cells executed this run (including ones later quarantined).
    pub executed: u64,
    /// Extra attempts beyond each cell's first (the retry bill).
    pub retries: u64,
    /// Attempts that ended in a caught panic.
    pub panics: u64,
    /// Attempts abandoned at their wall-clock deadline.
    pub deadline_kills: u64,
    /// Cells quarantined after retry exhaustion.
    pub quarantined: u64,
    /// Supervisor/worker accounting; all-zero for in-process runs.
    pub dist: DistCounters,
}

impl FabricCounters {
    /// Renders the one-line digest the fabric prints on stderr (two lines
    /// when the distributed layer ran).
    pub fn render(&self) -> String {
        let base = format!(
            "fabric: planned={} replayed={} executed={} retries={} panics={} \
             deadline_kills={} quarantined={}",
            self.planned,
            self.replayed,
            self.executed,
            self.retries,
            self.panics,
            self.deadline_kills,
            self.quarantined
        );
        if self.dist.is_idle() {
            base
        } else {
            format!("{base}\n{}", self.dist.render())
        }
    }
}

/// A cell the fabric gave up on: retried to exhaustion, then contained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Content-addressed identity.
    pub id: CellId,
    /// Display label.
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
    /// Attempts consumed (including the first).
    pub attempts: u32,
    /// Why the final attempt failed.
    pub cause: FailCause,
    /// The final attempt's failure message.
    pub message: String,
    /// The self-contained repro artifact written for this cell, if an
    /// artifact directory was configured.
    pub artifact: Option<PathBuf>,
}

impl std::fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {:?} (seed {}, id {}) quarantined after {} attempt(s): [{}] {}",
            self.label,
            self.seed,
            self.id,
            self.attempts,
            self.cause.as_str(),
            self.message
        )?;
        if let Some(p) = &self.artifact {
            write!(f, " — repro artifact: {}", p.display())?;
        }
        Ok(())
    }
}

/// The fate of one planned cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome<T> {
    /// The cell completed (this run, or replayed from the journal).
    Done {
        /// The cell's summary, identical to what an uninterrupted
        /// `run_sweep` would have produced.
        summary: RunSummary<T>,
        /// Attempts consumed (1 for a clean first run).
        attempts: u32,
        /// True when the result came from the journal, not execution.
        replayed: bool,
    },
    /// The cell was quarantined.
    Quarantined(QuarantineRecord),
}

/// The fabric's merged result: one outcome per planned cell, in input
/// order, plus the run's journal/retry/quarantine counters.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricReport<T> {
    /// One entry per planned cell, input order.
    pub outcomes: Vec<CellOutcome<T>>,
    /// Journal/retry/quarantine accounting for this run.
    pub counters: FabricCounters,
}

impl<T> FabricReport<T> {
    /// The healthy summaries, in input order. Exactly the `run_sweep`
    /// result vector when nothing was quarantined.
    pub fn results(&self) -> impl Iterator<Item = &RunSummary<T>> {
        self.outcomes.iter().filter_map(|o| match o {
            CellOutcome::Done { summary, .. } => Some(summary),
            CellOutcome::Quarantined(_) => None,
        })
    }

    /// The quarantined cells, in input order.
    pub fn quarantined(&self) -> impl Iterator<Item = &QuarantineRecord> {
        self.outcomes.iter().filter_map(|o| match o {
            CellOutcome::Quarantined(q) => Some(q),
            CellOutcome::Done { .. } => None,
        })
    }

    /// True when every cell completed.
    pub fn is_complete(&self) -> bool {
        self.quarantined().next().is_none()
    }

    /// The graceful-degradation report: names every quarantined cell (with
    /// its repro artifact, when one was written) instead of aborting the
    /// sweep. Empty when the run is complete.
    pub fn partial_note(&self) -> String {
        let quarantined: Vec<&QuarantineRecord> = self.quarantined().collect();
        if quarantined.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "partial sweep: {} of {} cell(s) quarantined\n",
            quarantined.len(),
            self.outcomes.len()
        );
        for q in quarantined {
            out.push_str(&format!("  {q}\n"));
        }
        out
    }

    /// The sweep binaries' epilogue: a partial report prints its
    /// [`Self::partial_note`] on stderr and exits 1.
    pub fn exit_if_partial(&self) {
        if !self.is_complete() {
            eprint!("{}", self.partial_note());
            std::process::exit(1);
        }
    }
}

/// Assembles per-index parts into the input-order outcome vector.
///
/// # Errors
///
/// When indices are missing, duplicated, or out of range — a fabric-core
/// bug surfaced as an error rather than a panic.
pub fn assemble<T>(
    n: usize,
    mut parts: Vec<(usize, CellOutcome<T>)>,
) -> Result<Vec<CellOutcome<T>>, String> {
    parts.sort_by_key(|(i, _)| *i);
    if parts.len() != n {
        return Err(format!("fabric merge: {} outcome(s) for {n} planned cell(s)", parts.len()));
    }
    for (slot, (i, _)) in parts.iter().enumerate() {
        if *i != slot {
            return Err(format!("fabric merge: outcome index {i} in slot {slot}"));
        }
    }
    Ok(parts.into_iter().map(|(_, o)| o).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::plan::Fingerprint;

    fn done(i: u64) -> CellOutcome<u64> {
        CellOutcome::Done {
            summary: RunSummary { label: format!("c{i}"), seed: i, output: i * i },
            attempts: 1,
            replayed: false,
        }
    }

    fn quarantine(i: u64) -> CellOutcome<u64> {
        CellOutcome::Quarantined(QuarantineRecord {
            id: CellId::derive("q", i, Fingerprint::new()),
            label: format!("q{i}"),
            seed: i,
            attempts: 3,
            cause: FailCause::Panic,
            message: "boom".into(),
            artifact: Some(PathBuf::from("/tmp/repro.jsonl")),
        })
    }

    #[test]
    fn assemble_restores_input_order_and_rejects_gaps() {
        let parts = vec![(2, done(2)), (0, done(0)), (1, quarantine(1))];
        let outcomes = assemble(3, parts).expect("assemble");
        assert!(matches!(&outcomes[0], CellOutcome::Done { summary, .. } if summary.seed == 0));
        assert!(matches!(&outcomes[1], CellOutcome::Quarantined(q) if q.seed == 1));
        assert!(assemble(3, vec![(0, done(0))]).is_err(), "missing indices");
        assert!(assemble(2, vec![(0, done(0)), (0, done(0))]).is_err(), "duplicate index");
    }

    #[test]
    fn report_partial_note_names_quarantined_cells() {
        let report = FabricReport {
            outcomes: vec![done(0), quarantine(1), done(2)],
            counters: FabricCounters::default(),
        };
        assert!(!report.is_complete());
        assert_eq!(report.results().count(), 2);
        let note = report.partial_note();
        assert!(note.contains("1 of 3"), "{note}");
        assert!(note.contains("\"q1\""), "{note}");
        assert!(note.contains("repro.jsonl"), "{note}");
        assert!(note.contains("[panic]"), "{note}");

        let clean = FabricReport { outcomes: vec![done(0)], counters: FabricCounters::default() };
        assert!(clean.is_complete());
        assert_eq!(clean.partial_note(), "");
    }
}
