//! Re-executes an invariant-violation repro artifact deterministically.
//!
//! ```text
//! cargo run --bin replay --features check-invariants -- artifacts/repro-7.jsonl
//! ```
//!
//! Exit status: 0 when the recorded violation reproduced exactly (same
//! message at the same simulated nanosecond), 1 when it did not, 2 on usage
//! or parse errors.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bench_harness::repro::{replay_artifact, ViolationRecord};
use std::path::Path;
use std::process::ExitCode;

fn show(tag: &str, v: &Option<ViolationRecord>) {
    match v {
        Some(v) => println!("{tag}: t={:.9}s  {}", v.at_ns as f64 / 1e9, v.message),
        None => println!("{tag}: no violation"),
    }
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: replay <repro-artifact.jsonl>");
        return ExitCode::from(2);
    };
    if !cfg!(feature = "check-invariants") {
        eprintln!(
            "warning: built without the check-invariants feature — the replay runs but \
             cannot observe violations; rebuild with --features check-invariants"
        );
    }
    let report = match replay_artifact(Path::new(&path)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    show("recorded", &report.original);
    show("replayed", &report.replayed);
    if report.reproduced() {
        println!("violation reproduced");
        ExitCode::SUCCESS
    } else {
        println!("violation NOT reproduced");
        ExitCode::FAILURE
    }
}
