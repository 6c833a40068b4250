//! `sweep_fabric` — a 48-cell `fabric::demo::walk` grid through four
//! dispatch paths: in-process (`run_fabric`, 1 job), journaled, resumed
//! from that journal (0 cells executed), and two self-exec worker processes
//! (`run_dist`, `SpawnMode::Command`).
//!
//! Why: the harness does all the work and the simulator none. Journal
//! writes sit beside journal reads, and spool wire encode beside parse. The
//! grid is the size of this repo's real sweeps (6–48 cells), so the fixed
//! dispatch latency dominates, as it does for users. It guards ROADMAP
//! item 3's shrink of the fabric. It is the one workload that loads both of
//! the sandbox's cores: the dist path runs two worker processes.
//!
//! Why one job in process: the whole grid is 1.4 ms of `walk`, and whether
//! the second thread of a two-job pool wakes in time to take any of it is
//! decided by the VM (the path's wall time sat at 0.86 ms one hour and at
//! 1.4 ms, all on one thread, the next). One job takes the fabric's serial
//! path: the same plan, journal, retry and merge decisions, no threads.

use crate::pass::{Layer, Pass};
use bench_harness::fabric::demo::walk;
use bench_harness::fabric::{
    run_dist, run_fabric, DistOptions, FabricCell, FabricOptions, FabricReport, Fingerprint,
    SpawnMode,
};
use bench_harness::DistWorkerCli;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Cells in the grid.
pub const CELLS: usize = 48;
/// The suite tag written into dist requests.
const SUITE: &str = "benchmark.sweep_fabric";

/// A cell's output: `walk`'s checksum and running mean.
pub type Out = (u64, f64);

/// The four ways a round dispatches the grid, in execution order (the
/// resumed path replays the journal the journaled path just wrote).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// `run_fabric`, one job, no journal.
    InProcess,
    /// `run_fabric` writing a fresh journal.
    Journaled,
    /// `run_fabric` resuming from that journal: nothing executes.
    Resumed,
    /// `run_dist` over two self-exec worker processes.
    Dist,
}

impl Dispatch {
    /// Every path, in execution order.
    pub const ALL: [Dispatch; 4] =
        [Dispatch::InProcess, Dispatch::Journaled, Dispatch::Resumed, Dispatch::Dist];

    /// The label used in cell records and span names.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::InProcess => "in-process",
            Dispatch::Journaled => "journaled",
            Dispatch::Resumed => "resumed",
            Dispatch::Dist => "dist",
        }
    }
}

/// The grid for `seed`: cell seeds drawn from the benchmark's RNG. Supervisor
/// and workers both build it from `(seed, cells)` alone, so their grid
/// digests agree.
pub fn grid(seed: u64, cells: usize) -> Vec<FabricCell<Out>> {
    cell_seeds(seed, cells)
        .into_iter()
        .enumerate()
        .map(|(i, cell_seed)| {
            FabricCell::new(format!("cell-{i:02}"), cell_seed, move || walk(cell_seed))
                .config(Fingerprint::new().str(SUITE).u64(i as u64))
        })
        .collect()
}

/// The seeds of the grid's cells, in grid order.
pub fn cell_seeds(seed: u64, cells: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..cells).map(|_| rng.gen()).collect()
}

fn in_process(journal: Option<PathBuf>) -> FabricOptions {
    FabricOptions { jobs: 1, journal, artifacts: None, ..FabricOptions::default() }
}

/// Dispatches `cells` — which must be `grid(seed, cells.len())` — over two
/// worker processes: this executable re-run with `--seed`/`--cells`, to
/// which the fabric appends its `--dist-*` flags.
///
/// # Errors
///
/// On spool or spawn failures; lost workers are contained by the fabric.
pub fn run_over_workers(
    cells: Vec<FabricCell<Out>>,
    seed: u64,
    spool: &Path,
) -> Result<FabricReport<Out>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve own executable: {e}"))?;
    let argv = vec![
        exe.display().to_string(),
        "--seed".to_owned(),
        seed.to_string(),
        "--cells".to_owned(),
        cells.len().to_string(),
    ];
    let opts = DistOptions {
        workers: 2,
        spool: Some(spool.to_path_buf()),
        spawn: SpawnMode::Command(argv),
        ..DistOptions::new(SUITE)
    };
    run_dist(cells, &in_process(None), &opts)
}

/// Serves one shard as a dist worker (`--dist-worker …` on the command
/// line). Never returns on success: `run_dist` exits the process.
///
/// # Errors
///
/// Only if the fabric refuses the task before serving it.
pub fn serve(seed: u64, cells: usize, task: DistWorkerCli) -> Result<(), String> {
    let opts = DistOptions { task: Some(task), ..DistOptions::new(SUITE) };
    run_dist(grid(seed, cells), &in_process(None), &opts).map(|_| ())
}

/// How many of a report's cells are wrong — missing, quarantined, retried,
/// re-dispatched, or different bit-for-bit from a direct `walk(seed)` — and
/// why.
fn failures(report: &FabricReport<Out>, cells: usize) -> (u64, String) {
    let c = report.counters;
    let unclean = c.retries
        + c.panics
        + c.deadline_kills
        + c.quarantined
        + c.dist.redispatches
        + c.dist.worker_crashes
        + c.dist.stalls
        + c.dist.heartbeat_lapses
        + c.dist.invalid_responses;
    if unclean > 0 {
        return (cells as u64, format!("not clean on the first dispatch: {}", c.render()));
    }
    let good = report
        .results()
        .filter(|r| {
            let want = walk(r.seed);
            r.output.0 == want.0 && r.output.1.to_bits() == want.1.to_bits()
        })
        .count();
    let bad = cells.saturating_sub(good) as u64;
    (bad, if bad > 0 { format!("{bad} cell(s) differ from walk(seed)") } else { String::new() })
}

/// A scratch directory under `out/` for journals and spools, emptied first.
///
/// # Errors
///
/// If it cannot be created.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let tmp = crate::out_dir().join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    Ok(tmp)
}

pub(super) fn pass(seed: u64, pass: &mut Pass) -> Result<(), String> {
    let cells = if pass.tiny { 6 } else { CELLS };
    let tmp = scratch_dir()?;
    let spool = tmp.join("spool");
    let journal = tmp.join("journal.jsonl");
    for path in Dispatch::ALL {
        // Set-up: cell construction and option structs.
        let cells_in = grid(seed, cells);
        let opts = match path {
            Dispatch::InProcess | Dispatch::Dist => in_process(None),
            Dispatch::Journaled | Dispatch::Resumed => in_process(Some(journal.clone())),
        };
        let tracer = &mut pass.tracer;
        let report = pass.meter.timed(|| {
            tracer.span(format!("fabric {}", path.name()), Layer::Bench, || match path {
                Dispatch::Dist => run_over_workers(cells_in, seed, &spool),
                Dispatch::InProcess | Dispatch::Journaled | Dispatch::Resumed => {
                    run_fabric(cells_in, &opts)
                }
            })
        });
        let Some(report) = report else { continue };
        let report = report?;

        let (mut failed, mut why) = failures(&report, cells);
        if path == Dispatch::Resumed && report.counters.executed > 0 {
            failed = cells as u64;
            why = format!("resume re-executed {} cell(s)", report.counters.executed);
        }
        for r in report.results() {
            pass.digest.str(&r.label);
            pass.digest.u64(r.output.0);
            pass.digest.f64(r.output.1);
        }
        if pass.tracer.on() {
            let c = report.counters;
            pass.count("bench.retries", c.retries as f64);
            pass.count("bench.redispatches", c.dist.redispatches as f64);
            pass.count("bench.quarantined", c.quarantined as f64);
            if path == Dispatch::Journaled {
                let bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
                pass.gauge_max("bench.journal_bytes_per_cell", bytes as f64 / cells as f64);
            }
        }
        pass.work += cells as u64;
        pass.cell_of(path.name(), cells as u64, failed, why);
    }
    // Journals and spools are scratch: removed on success, left for
    // inspection if the pass bailed out above.
    std::fs::remove_dir_all(&tmp).map_err(|e| format!("cannot remove {}: {e}", tmp.display()))
}
