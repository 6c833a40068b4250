//! `trace_dump` — summarize JSONL traces produced by `--trace` (or the chaos
//! soak's `SWEEP_TRACE`).
//!
//! Usage: `trace_dump <trace.jsonl>...`
//!
//! Prints, per file: event counts by kind, drops by cause and by link, and
//! recovery/RTO episodes by (conn, subflow). Exits non-zero on unreadable
//! input; malformed lines are counted, not fatal.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use obs::summary::summarize;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_dump <trace.jsonl>...");
        return ExitCode::FAILURE;
    }
    let mut status = ExitCode::SUCCESS;
    for path in &paths {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("trace_dump: {path}: {e}");
                status = ExitCode::FAILURE;
                continue;
            }
        };
        match summarize(BufReader::new(file)) {
            Ok(summary) => {
                println!("== {path}");
                print!("{}", summary.render());
            }
            Err(e) => {
                eprintln!("trace_dump: {path}: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
