//! Regenerates every figure — or, with `--only`, some — in one crash-safe
//! run.
//!
//! Pass --smoke/--quick/--full and optionally --jobs N, which sizes both the
//! pool of figures and the pool each figure's simulations fan out over
//! (`--jobs 1` starts no thread). The figures are one plan: a simulation
//! several of them need runs once, and a last stderr line counts it
//! (`sims: datacenter 18 requested, 10 run; …`). `--only LIST` (or
//! `--only=LIST`) restricts the run to a comma-separated list of figure
//! module names (`fig01 fig02 fig03 fig04 fig06 fig07 fig08 fig09 fig10
//! fig12_14 fig15 fig16 fig17`); an unknown name is a usage error that
//! lists them. The selection is made before the grid is planned, so it is
//! part of the grid digest: a journal written for one selection is refused
//! by a run with another ("written for grid …"), never half-reused — use a
//! journal path per selection. With --journal PATH each completed figure is
//! checkpointed to an append-only journal: kill the run at any point, rerun
//! the same command, and only the unfinished figures execute — the final
//! stdout is byte-identical to an uninterrupted run (CI's `fabric` job pins
//! this). A panicking or deadline-blown figure is retried with backoff and,
//! on exhaustion, quarantined: the surviving figures still print and the
//! process exits 1 with a partial-sweep note on stderr. With --workers N
//! the figures run in N supervised worker processes — same byte-identical
//! stdout, plus survival of whole worker losses (each worker holds the store
//! of its own shard's figures; the supervisor simulates nothing and prints
//! no `sims:` line).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bench_harness::{figs, Cli};
use std::sync::Arc;

/// A usage error: the message on stderr, exit 2.
fn die(e: &str) -> ! {
    eprintln!("figures_all: {e}");
    std::process::exit(2);
}

fn main() {
    let (only, cli) = Cli::from_args_with("--only");
    // `--jobs` sizes the simulations' pool as it does the figures'.
    let sims = Arc::new(figs::Sims::new(cli.jobs()));
    let cells = figs::fig_cells_with(cli.scale, only.as_deref(), &sims).unwrap_or_else(|e| die(&e));
    let report = cli.sweep("figures", cells);
    // Under --workers the stores are the workers'; this one ran nothing.
    if sims.counts().iter().any(|&(_, (requested, _))| requested > 0) {
        eprintln!("{}", sims.render());
    }
    for r in report.results() {
        print!("==== {} ====\n{}\n", r.label, r.output);
    }
    report.exit_if_partial();
}
