//! Tiny deterministic sweep used to drill the crash-safe fabric itself —
//! CI's `fabric` job builds this, SIGKILLs it mid-sweep, resumes from the
//! journal, and diffs the resumed stdout against an uninterrupted run; the
//! `dist-fabric` job runs it with `--workers 3` and diffs the distributed
//! merge against the serial one.
//!
//! The 12 cells compute a cheap pseudo-random walk (u64 accumulator plus an
//! f64 mean, exercising bit-exact float journaling) — the shared
//! [`bench_harness::fabric::demo`] workload. Knobs, all optional:
//!
//! * `--journal PATH` — checkpoint + resume as usual;
//! * `--workers N` — distribute the grid across N worker processes
//!   (self-exec) through the supervisor;
//! * `FABRIC_SMOKE_SLEEP_MS=N` — each cell sleeps N ms first, so an external
//!   `timeout -s KILL` reliably lands while the sweep is mid-flight;
//! * `FABRIC_SMOKE_FAIL=cell-03,cell-07` — the named cells panic on every
//!   attempt, drilling retry + quarantine (the run then exits 1 with a
//!   partial report, and the quarantined cells drop repro stubs).
//!
//! stdout is one `(label, seed, output)` Debug line per completed cell, in
//! input order — byte-comparable across runs by construction.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bench_harness::fabric::demo;
use bench_harness::{env_parsed, Cli};

fn main() {
    let cli = Cli::from_args();
    let sleep_ms = env_parsed("FABRIC_SMOKE_SLEEP_MS", "integer milliseconds", |_| true);
    let fail: Vec<String> = env_parsed::<String>("FABRIC_SMOKE_FAIL", "cell labels", |_| true)
        .map(|s| s.split(',').map(|t| t.trim().to_owned()).filter(|t| !t.is_empty()).collect())
        .unwrap_or_default();

    let report = cli.sweep(demo::WALK_SUITE, demo::walk_cells_with(sleep_ms, &fail));
    for r in report.results() {
        println!("{:?}", (&r.label, r.seed, &r.output));
    }
    report.exit_if_partial();
}
