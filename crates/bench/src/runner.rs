//! # runner — deterministic parallel sweep execution
//!
//! The paper's evaluation (§VI) is a grid of independent
//! `(scenario × algorithm × seed)` cells, and so is every suite built on it:
//! the figure harnesses, the chaos soak, the stress grids. Each cell owns a
//! whole [`netsim::Simulator`], so cells share no mutable state and can run
//! on any thread without changing their results — the simulator is
//! single-threaded and seeded, and `Send` (see `netsim::sim::Agent`) only
//! permits moving it, never sharing it.
//!
//! [`run_sweep`] fans a list of [`SweepCell`]s across a `std::thread::scope`
//! worker pool and collects one [`RunSummary`] per cell **in input order**,
//! regardless of completion order. Determinism argument:
//!
//! 1. every cell's closure builds, runs, and summarizes its own simulator —
//!    no cross-cell reads or writes;
//! 2. workers claim cells from an atomic cursor, but each result is written
//!    to the slot indexed by the cell's input position;
//! 3. the pool joins before results are read, so the returned `Vec` is a
//!    pure function of the input cells — byte-identical at `--jobs 1` and
//!    `--jobs N` (asserted by `tests/sweep_determinism.rs`).
//!
//! Worker count: explicit argument > `SWEEP_JOBS` env var > available
//! parallelism. The figure binaries expose it as `--jobs N`
//! ([`crate::Cli::from_args`]).
//!
//! # Examples
//!
//! ```
//! use bench_harness::runner::{run_sweep_jobs, SweepCell};
//!
//! let cells: Vec<SweepCell<u64>> = (0..8)
//!     .map(|seed| SweepCell::new(format!("cell-{seed}"), seed, move || seed * seed))
//!     .collect();
//! let results = run_sweep_jobs(cells, 4);
//! assert_eq!(results.len(), 8);
//! assert_eq!(results[3].label, "cell-3");
//! assert_eq!(results[3].output, 9);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One independent simulation cell of a sweep: a label for reports, the RNG
/// seed it was built from, and the closure that builds, runs, and summarizes
/// its own `Simulator`.
///
/// The closure must be `Send` (it is executed on a worker thread); the
/// borrow lifetime `'a` lets cells capture references to sweep-wide options
/// living on the caller's stack.
pub struct SweepCell<'a, T> {
    /// Display label, carried through to the [`RunSummary`].
    pub label: String,
    /// The seed this cell derives its determinism from (informational; the
    /// closure is responsible for actually using it).
    pub seed: u64,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> SweepCell<'a, T> {
    /// Creates a cell from a label, a seed, and the run closure. A cell
    /// that wants observability counters next to its numbers returns them
    /// in `T` (e.g. from `mptcp_energy::scenarios::counters_of`).
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> T + Send + 'a,
    ) -> SweepCell<'a, T> {
        SweepCell { label: label.into(), seed, run: Box::new(run) }
    }
}

/// The result of one sweep cell, in the order the cells were submitted.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary<T> {
    /// The cell's label.
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
    /// Whatever the cell's closure returned.
    pub output: T,
}

/// The worker count used when none is given explicitly: the `SWEEP_JOBS`
/// environment variable if set to a positive integer, otherwise the
/// machine's available parallelism. A `SWEEP_JOBS` value that is set but not
/// a positive integer is reported on stderr (the same input as `--jobs` is a
/// hard usage error) before using the default.
pub fn default_jobs() -> usize {
    crate::env_parsed("SWEEP_JOBS", "a positive integer", crate::nonzero).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Extracts a human-readable message from a panic payload. `&str` and
/// `String` payloads (every `panic!`/`assert!` in practice) pass through;
/// anything else (`panic_any` with a custom type) is named as such rather
/// than dropped, so the cell that failed is never anonymous.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one cell under `catch_unwind`; a panic comes back as a message that
/// names the cell (label and seed), so the re-raised payload identifies the
/// failing cell even when the original payload was not a string
/// (`panic_any(42)` and friends).
fn run_cell<T>(cell: SweepCell<'_, T>) -> Result<RunSummary<T>, String> {
    let label = cell.label;
    let seed = cell.seed;
    match catch_unwind(AssertUnwindSafe(cell.run)) {
        Ok(output) => Ok(RunSummary { label, seed, output }),
        Err(payload) => Err(format!(
            "sweep cell {label:?} (seed {seed}) panicked: {}",
            panic_message(payload.as_ref())
        )),
    }
}

/// Runs the cells across [`default_jobs`] workers; results in input order.
pub fn run_sweep<T: Send>(cells: Vec<SweepCell<'_, T>>) -> Vec<RunSummary<T>> {
    run_sweep_jobs(cells, default_jobs())
}

/// Runs the cells across exactly `jobs` workers (clamped to at least 1) and
/// returns one summary per cell, **in input order**.
///
/// Every cell runs under `catch_unwind`, so one panicking cell never stops
/// the others: the whole grid is drained first, then the panic of the
/// **lowest input index** is re-raised with the cell's label and seed
/// attached — `sweep cell "…" (seed N) panicked: <message>` — so the
/// failing cell is identifiable even when the original payload was not a
/// string, and the choice of re-raised panic does not depend on thread
/// scheduling. Callers that want failures contained instead of re-raised
/// use [`crate::fabric::run_fabric`].
pub fn run_sweep_jobs<T: Send>(cells: Vec<SweepCell<'_, T>>, jobs: usize) -> Vec<RunSummary<T>> {
    let n = cells.len();
    let jobs = jobs.max(1).min(n.max(1));
    let collected: Vec<(usize, Result<RunSummary<T>, String>)> = if jobs == 1 {
        // The serial path is the reference implementation the parallel path
        // must be byte-identical to.
        cells.into_iter().map(run_cell).enumerate().collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let tasks: Vec<Mutex<Option<SweepCell<'_, T>>>> =
            cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        // Each worker returns the (index, result) pairs it
                        // ran; results travel back through join() instead of
                        // shared slot mutexes, so there is no lock to poison
                        // on the result path.
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return mine;
                            }
                            // Cell panics are caught inside run_cell, so a
                            // worker cannot die holding this lock; the
                            // poison recovery is belt-and-braces for a
                            // hypothetical claim-path panic, which cannot
                            // corrupt the Option<SweepCell> it protects.
                            let claimed = tasks[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take();
                            let Some(cell) = claimed else {
                                unreachable!("cursor handed out cell {i} twice")
                            };
                            mine.push((i, run_cell(cell)));
                        }
                    })
                })
                .collect();
            // Join explicitly: a worker-level panic (impossible for cell
            // code, which is caught) would otherwise be reduced by the
            // scope's auto-join to "a scoped thread panicked".
            let mut done = Vec::with_capacity(n);
            for worker in workers {
                match worker.join() {
                    Ok(mine) => done.extend(mine),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            done
        })
    };
    let mut results = Vec::with_capacity(n);
    let mut first_panic: Option<(usize, String)> = None;
    for (i, res) in collected {
        match res {
            Ok(summary) => results.push((i, summary)),
            Err(message) => {
                if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_panic = Some((i, message));
                }
            }
        }
    }
    if let Some((_, message)) = first_panic {
        std::panic::resume_unwind(Box::new(message));
    }
    results.sort_by_key(|(i, _)| *i);
    assert_eq!(results.len(), n, "worker pool joined with missing results");
    results.into_iter().map(|(_, summary)| summary).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn square_cells<'a>(n: u64) -> Vec<SweepCell<'a, u64>> {
        (0..n).map(|s| SweepCell::new(format!("c{s}"), s, move || s * s)).collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        // Make early cells the slowest so completion order inverts input
        // order; collection order must not care.
        let cells: Vec<SweepCell<u64>> = (0..16u64)
            .map(|s| {
                SweepCell::new(format!("c{s}"), s, move || {
                    std::thread::sleep(std::time::Duration::from_millis(2 * (16 - s)));
                    s
                })
            })
            .collect();
        let out = run_sweep_jobs(cells, 8);
        let got: Vec<u64> = out.iter().map(|r| r.output).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert_eq!(out[5].label, "c5");
        assert_eq!(out[5].seed, 5);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_sweep_jobs(square_cells(12), 1);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_sweep_jobs(square_cells(12), jobs), serial);
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let cells: Vec<SweepCell<()>> = (0..50)
            .map(|s| {
                let count = &count;
                SweepCell::new("c", s, move || {
                    count.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let out = run_sweep_jobs(cells, 4);
        assert_eq!(out.len(), 50);
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<RunSummary<u8>> = run_sweep_jobs(Vec::new(), 8);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "cell 3 exploded")]
    fn cell_panics_propagate() {
        let cells: Vec<SweepCell<u64>> = (0..6)
            .map(|s| {
                SweepCell::new("c", s, move || {
                    assert!(s != 3, "cell 3 exploded");
                    s
                })
            })
            .collect();
        let _ = run_sweep_jobs(cells, 2);
    }

    fn trap_panic(cells: Vec<SweepCell<'static, u64>>, jobs: usize) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| run_sweep_jobs(cells, jobs)))
            .expect_err("sweep must re-raise the cell panic");
        panic_message(payload.as_ref())
    }

    #[test]
    fn panics_carry_cell_identity_even_for_nonstring_payloads() {
        for jobs in [1, 3] {
            let cells: Vec<SweepCell<u64>> = (0..4)
                .map(|s| {
                    SweepCell::new(format!("c{s}"), s, move || {
                        if s == 2 {
                            // A payload resume_unwind alone would anonymize.
                            std::panic::panic_any(42u32);
                        }
                        s
                    })
                })
                .collect();
            let msg = trap_panic(cells, jobs);
            assert!(msg.contains("\"c2\""), "jobs={jobs}: {msg}");
            assert!(msg.contains("seed 2"), "jobs={jobs}: {msg}");
            assert!(msg.contains("non-string panic payload"), "jobs={jobs}: {msg}");
        }
    }

    #[test]
    fn lowest_index_panic_wins_regardless_of_scheduling() {
        let cells: Vec<SweepCell<u64>> = (0..8)
            .map(|s| {
                SweepCell::new(format!("c{s}"), s, move || {
                    // Cell 5 fails instantly; cell 1 fails late. The re-raise
                    // must still pick input index 1, not completion order.
                    if s == 1 {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                    }
                    assert!(s != 1 && s != 5, "boom {s}");
                    s
                })
            })
            .collect();
        let msg = trap_panic(cells, 4);
        assert!(msg.contains("\"c1\""), "{msg}");
        assert!(msg.contains("boom 1"), "{msg}");
    }

    #[test]
    fn one_panic_does_not_stop_other_cells() {
        let count = std::sync::Arc::new(AtomicU64::new(0));
        let cells: Vec<SweepCell<u64>> = (0..20)
            .map(|s| {
                let count = std::sync::Arc::clone(&count);
                SweepCell::new(format!("c{s}"), s, move || {
                    count.fetch_add(1, Ordering::Relaxed);
                    assert!(s != 0, "early cell explodes");
                    s
                })
            })
            .collect();
        let msg = trap_panic(cells, 2);
        assert!(msg.contains("\"c0\""), "{msg}");
        // The explosion at index 0 must not have prevented the rest of the
        // grid from draining.
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }
}
