//! The repo benchmark: five workloads, an end-to-end ledger and a per-layer
//! ledger, declared in `/BENCHMARK.json`. See README.md.
//!
//! One executable, several roles, chosen by the first flag that matches:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run, as the
//!   acceptance driver invokes it; the last stdout line is the JSON result.
//! * no `--workload` — the stand-alone mode: every workload, `--repeats`
//!   runs each, one table ([`report`]).
//! * `--selftest`, `--emit-spec` — the benchmark checking and describing
//!   itself.
//! * `--pass W …`, `--probes`, `--dist-worker …` — the child roles a run
//!   spawns: one pass of a workload, the layer probes, a fabric worker.

mod json;
mod parity;
mod pass;
mod probes;
mod procstat;
mod report;
mod run;
mod selftest;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::Workload;

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.parent().unwrap_or(here).to_path_buf()
}

/// `benchmark/out/`: traces, and scratch journals and spools.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1     one run; last line is JSON
  benchmark [--seed S] [--repeats N] [--trace] [--only W] [--json FILE]
                                                              every workload, one table
  benchmark --selftest | --emit-spec
workloads: figs_smoke dc_packet wireless_lossy hybrid_fluid sweep_fabric";

/// The flags of every role, parsed once.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    pass: Option<String>,
    only: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    repeats: Option<usize>,
    cells: Option<usize>,
    trace: bool,
    setup_only: bool,
    traced: bool,
    tiny: bool,
    probes: bool,
    selftest: bool,
    emit_spec: bool,
    json: Option<PathBuf>,
    dist_spool: Option<PathBuf>,
    dist_shard: Option<usize>,
    dist_gen: Option<u64>,
    dist_id: Option<String>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let mut a = Args::default();
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&flag, argv.next())?),
            "--pass" => a.pass = Some(value(&flag, argv.next())?),
            "--only" => a.only = Some(value(&flag, argv.next())?),
            "--seed" => a.seed = Some(value(&flag, argv.next())?),
            "--seconds" => a.seconds = Some(value(&flag, argv.next())?),
            "--repeats" => a.repeats = Some(value(&flag, argv.next())?),
            "--cells" => a.cells = Some(value(&flag, argv.next())?),
            "--json" => a.json = Some(value::<String>(&flag, argv.next())?.into()),
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => match argv.next_if(|v| v == "0" || v == "1") {
                Some(v) => a.trace = v == "1",
                None => a.trace = true,
            },
            "--setup-only" => a.setup_only = true,
            "--traced" => a.traced = true,
            "--tiny" => a.tiny = true,
            "--probes" => a.probes = true,
            "--selftest" => a.selftest = true,
            "--emit-spec" => a.emit_spec = true,
            "--dist-worker" => a.dist_spool = Some(value::<String>(&flag, argv.next())?.into()),
            "--dist-shard" => a.dist_shard = Some(value(&flag, argv.next())?),
            "--dist-gen" => a.dist_gen = Some(value(&flag, argv.next())?),
            "--dist-id" => a.dist_id = Some(value(&flag, argv.next())?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// The child role: one pass, reported on stdout.
fn child_pass(a: &Args, name: &str, entry: Instant, entered_ns: u128) -> Result<(), String> {
    let w = workload(name)?;
    let seed = a.seed.ok_or("--pass needs --seed")?;
    // The parent read the shared realtime clock just before spawning us.
    let pre_main_s = std::env::var(run::SPAWNED_AT_ENV)
        .ok()
        .and_then(|v| v.parse::<u128>().ok())
        .map_or(0.0, |spawned_ns| entered_ns.saturating_sub(spawned_ns) as f64 / 1e9);
    let mut pass = pass::Pass::new(entry, a.setup_only, a.traced, a.tiny);
    w.pass(seed, &mut pass)?;
    if a.traced {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, pass.tracer.to_jsonl(&format!("{}-{seed}", w.name())))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print!("{}", pass.render(pre_main_s));
    Ok(())
}

/// The role the acceptance driver invokes: one run, JSON on the last line.
fn driver_run(a: &Args, name: &str) -> Result<bool, String> {
    parity::check()?;
    let w = workload(name)?;
    let seed = a.seed.ok_or("--workload needs --seed")?;
    let (r, ledger) = if a.trace {
        (run::trace(w, seed, a.tiny)?, spec::per_layer())
    } else {
        let seconds = a.seconds.unwrap_or(spec::RUN_SECONDS as f64);
        (run::measure(w, seed, seconds, a.tiny)?, spec::end_to_end())
    };
    eprintln!(
        "{} seed {seed}: {} pass(es), result_digest {:016x}, {}/{} cell(s) failed; {}",
        w.name(),
        r.passes,
        r.digest,
        r.failed,
        r.attempted,
        run::cell_summary(&r)
    );
    for note in &r.notes {
        eprintln!("  {note}");
    }
    println!("{}", r.to_json(&ledger));
    Ok(true)
}

fn dispatch(entry: Instant, entered_ns: u128) -> Result<bool, String> {
    let a = parse_args(std::env::args().skip(1))?;
    if let Some(spool) = a.dist_spool.clone() {
        let task = bench_harness::DistWorkerCli {
            spool,
            shard: a.dist_shard.ok_or("--dist-worker needs --dist-shard")?,
            gen: a.dist_gen.ok_or("--dist-worker needs --dist-gen")?,
            id: a.dist_id.clone().ok_or("--dist-worker needs --dist-id")?,
        };
        let seed = a.seed.ok_or("--dist-worker needs --seed")?;
        let cells = a.cells.ok_or("--dist-worker needs --cells")?;
        return workloads::sweep_fabric::serve(seed, cells, task).map(|()| true);
    }
    if let Some(name) = &a.pass {
        return child_pass(&a, name, entry, entered_ns).map(|()| true);
    }
    if a.probes {
        let seed = a.seed.ok_or("--probes needs --seed")?;
        for (k, v) in probes::run(seed, a.tiny)? {
            println!("layer {k} {v}");
        }
        return Ok(true);
    }
    if a.emit_spec {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if a.selftest {
        parity::check()?;
        return selftest::run().map(|()| true);
    }
    if let Some(name) = &a.workload {
        return driver_run(&a, name);
    }
    parity::check()?;
    report::all(&report::Options {
        seed: a.seed.unwrap_or(1),
        repeats: a.repeats.unwrap_or(5).max(1),
        trace: a.trace,
        only: a.only.as_deref().map(workload).transpose()?,
        json: a.json.clone(),
    })
}

fn main() {
    let entry = Instant::now();
    let entered_ns = procstat::realtime_ns();
    match dispatch(entry, entered_ns) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
