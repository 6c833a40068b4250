//! # bench-harness — figure regeneration harnesses
//!
//! One module per figure of the paper's evaluation. Every module exposes
//! `run` returning the printed table — it lists the simulations it needs
//! and [`figs::Sims`], the plan's store, runs each once however many
//! figures ask; `figures_all` (optionally `--only fig06,fig09`) is the one
//! binary in front of them.
//!
//! Scales:
//! * [`Scale::Smoke`] — seconds; CI and the repo benchmark.
//! * [`Scale::Quick`] — minutes; the default for the binaries.
//! * [`Scale::Full`] — closest to the paper's parameters that a laptop-class
//!   machine handles (see EXPERIMENTS.md for the documented scaling).

pub mod fabric;
pub mod figs;
pub mod repro;
pub mod runner;

pub use figs::*;

/// Experiment scale selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity scale.
    Smoke,
    /// Minutes-long default scale.
    Quick,
    /// Paper-faithful scale.
    Full,
}

impl Scale {
    /// A stable lowercase name, used in fabric config fingerprints (a
    /// journal written at one scale must not resume a sweep at another).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// The worker-side identity of a distributed fabric process, parsed from
/// the `--dist-*` flags a supervisor passes when it spawns workers (see
/// [`fabric::dist`]). All four flags travel together; a partial set is a
/// usage error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistWorkerCli {
    /// The spool directory shared with the supervisor.
    pub spool: std::path::PathBuf,
    /// The shard index this worker serves.
    pub shard: usize,
    /// The lease generation the request file is named for.
    pub gen: u64,
    /// The worker id the supervisor assigned (names the heartbeat file).
    pub id: String,
}

/// Parsed command-line options shared by the figure binaries: an experiment
/// [`Scale`], an optional sweep worker count, and an optional trace
/// directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// The experiment scale.
    pub scale: Scale,
    /// `--jobs N` if given; binaries fall back to
    /// [`runner::default_jobs`] (which honours `SWEEP_JOBS`) when absent.
    pub jobs: Option<usize>,
    /// `--trace DIR` if given: the directory where per-cell JSONL traces are
    /// written (one file per cell, see [`obs::jsonl_sink_in`]). Only
    /// `ablation_dts` and `fluid_fig6` trace; the other binaries refuse the
    /// flag ([`Cli::without_trace`]).
    pub trace: Option<std::path::PathBuf>,
    /// `--journal PATH` if given: the crash-safe sweep journal
    /// ([`fabric::run_fabric`] checkpoints each completed cell there and
    /// resumes from it after a kill).
    pub journal: Option<std::path::PathBuf>,
    /// `--workers N` if given: the distributed fabric supervises N worker
    /// *processes* (vs `--jobs`, threads inside one process). Binaries fall
    /// back to single-process execution.
    pub workers: Option<usize>,
    /// `--spool DIR` if given: the spool directory the distributed fabric
    /// exchanges request/response/heartbeat files through. Defaults to a
    /// per-run temporary directory.
    pub spool: Option<std::path::PathBuf>,
    /// Set when this process was spawned *as* a distributed worker
    /// (`--dist-worker SPOOL --dist-shard K --dist-gen G --dist-id ID`):
    /// it serves its shard and exits instead of supervising.
    pub dist: Option<DistWorkerCli>,
}

impl Cli {
    /// Parses `--smoke`/`--quick`/`--full`, `--jobs N` (or `--jobs=N`),
    /// `--trace DIR` (or `--trace=DIR`), `--journal PATH` (or
    /// `--journal=PATH`), `--workers N` (or `--workers=N`), `--spool DIR`
    /// (or `--spool=DIR`), and the worker-side `--dist-*` flags from the
    /// process arguments. Exits with a usage message on anything else.
    pub fn from_args() -> Cli {
        Cli::from_arg_list(std::env::args().skip(1))
    }

    /// [`Cli::from_args`] over an explicit argument list, for a binary that
    /// strips a flag of its own first (`figures_all --only`).
    pub fn from_arg_list(args: impl Iterator<Item = String>) -> Cli {
        Cli::parse(args).unwrap_or_else(|bad| {
            eprintln!(
                "unknown argument `{bad}` \
                 (expected --smoke/--quick/--full/--jobs N/--trace DIR/--journal PATH/\
                 --workers N/--spool DIR)"
            );
            std::process::exit(2);
        })
    }

    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: Scale::Quick,
            jobs: None,
            trace: None,
            journal: None,
            workers: None,
            spool: None,
            dist: None,
        };
        let mut dist_spool: Option<std::path::PathBuf> = None;
        let mut dist_shard: Option<usize> = None;
        let mut dist_gen: Option<u64> = None;
        let mut dist_id: Option<String> = None;
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => cli.scale = Scale::Smoke,
                "--quick" => cli.scale = Scale::Quick,
                "--full" => cli.scale = Scale::Full,
                "--jobs" => {
                    let v = args.next().ok_or_else(|| "--jobs (missing count)".to_owned())?;
                    cli.jobs = Some(v.parse::<usize>().map_err(|_| format!("--jobs {v}"))?);
                }
                "--workers" => {
                    let v = args.next().ok_or_else(|| "--workers (missing count)".to_owned())?;
                    cli.workers = Some(v.parse::<usize>().map_err(|_| format!("--workers {v}"))?);
                }
                "--trace" => {
                    let v = args.next().ok_or_else(|| "--trace (missing dir)".to_owned())?;
                    cli.trace = Some(v.into());
                }
                "--journal" => {
                    let v = args.next().ok_or_else(|| "--journal (missing path)".to_owned())?;
                    cli.journal = Some(v.into());
                }
                "--spool" => {
                    let v = args.next().ok_or_else(|| "--spool (missing dir)".to_owned())?;
                    cli.spool = Some(v.into());
                }
                "--dist-worker" => {
                    let v =
                        args.next().ok_or_else(|| "--dist-worker (missing spool)".to_owned())?;
                    dist_spool = Some(v.into());
                }
                "--dist-shard" => {
                    let v = args.next().ok_or_else(|| "--dist-shard (missing index)".to_owned())?;
                    dist_shard = Some(v.parse::<usize>().map_err(|_| format!("--dist-shard {v}"))?);
                }
                "--dist-gen" => {
                    let v = args.next().ok_or_else(|| "--dist-gen (missing gen)".to_owned())?;
                    dist_gen = Some(v.parse::<u64>().map_err(|_| format!("--dist-gen {v}"))?);
                }
                "--dist-id" => {
                    let v = args.next().ok_or_else(|| "--dist-id (missing id)".to_owned())?;
                    dist_id = Some(v);
                }
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        cli.jobs = Some(v.parse::<usize>().map_err(|_| format!("--jobs={v}"))?);
                    } else if let Some(v) = other.strip_prefix("--workers=") {
                        cli.workers =
                            Some(v.parse::<usize>().map_err(|_| format!("--workers={v}"))?);
                    } else if let Some(v) = other.strip_prefix("--trace=") {
                        cli.trace = Some(v.into());
                    } else if let Some(v) = other.strip_prefix("--journal=") {
                        cli.journal = Some(v.into());
                    } else if let Some(v) = other.strip_prefix("--spool=") {
                        cli.spool = Some(v.into());
                    } else {
                        return Err(a);
                    }
                }
            }
        }
        if cli.jobs == Some(0) {
            return Err("--jobs 0".to_owned());
        }
        if cli.workers == Some(0) {
            return Err("--workers 0".to_owned());
        }
        let dist_any =
            dist_spool.is_some() || dist_shard.is_some() || dist_gen.is_some() || dist_id.is_some();
        if dist_any {
            match (dist_spool, dist_shard, dist_gen, dist_id) {
                (Some(spool), Some(shard), Some(gen), Some(id)) => {
                    cli.dist = Some(DistWorkerCli { spool, shard, gen, id });
                }
                _ => {
                    return Err(
                        "--dist-worker/--dist-shard/--dist-gen/--dist-id (all four required)"
                            .to_owned(),
                    )
                }
            }
        }
        Ok(cli)
    }

    /// The sweep worker count: `--jobs` if given, else
    /// [`runner::default_jobs`].
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(runner::default_jobs)
    }

    /// For a binary that writes no trace: exits 2 with a usage message if
    /// `--trace` was given, rather than accept a flag it would ignore.
    pub fn without_trace(self, bin: &str) -> Cli {
        if self.trace.is_some() {
            eprintln!("{bin}: --trace is not supported (only ablation_dts and fluid_fig6 trace)");
            std::process::exit(2);
        }
        self
    }

    /// The sweep journal path: `--journal` if given, else `None`
    /// (checkpointing disabled; the sweep runs ephemerally).
    pub fn journal_path(&self) -> Option<std::path::PathBuf> {
        self.journal.clone()
    }

    /// The distributed worker-process count: `--workers` if given, else 1
    /// (single-process; the fabric runs in-process and never touches a
    /// spool).
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or(1)
    }

    /// The sweep binaries' front door: runs `cells` as suite `suite` with
    /// the fabric and dist options this command line and the `SWEEP_*`
    /// environment select, and prints the run's counters on stderr. A
    /// fabric error (bad journal, unusable spool, spawn failure) is
    /// reported on stderr and exits 2; in a `--dist-worker` process this
    /// serves the shard and never returns.
    pub fn sweep<T>(
        &self,
        suite: &str,
        cells: Vec<fabric::FabricCell<T>>,
    ) -> fabric::FabricReport<T>
    where
        T: fabric::JournalCodec + Send + 'static,
    {
        let opts = fabric::FabricOptions::from_cli(self);
        let dist = fabric::DistOptions::from_cli(self, suite);
        let report = fabric::run_dist(cells, &opts, &dist).unwrap_or_else(|e| {
            eprintln!("{suite} sweep: {e}");
            std::process::exit(2);
        });
        eprintln!("{}", report.counters.render());
        report
    }
}

/// What a raw environment value resolves to, and the warning owed when it
/// is set but unusable (silently ignoring a typo'd `SWEEP_JOBS` could mask
/// a mis-pinned reproducibility run). Pure, so the fallback order and the
/// warn path of every variable are unit-testable.
fn parse_env<T: std::str::FromStr>(
    name: &str,
    raw: Option<&str>,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> (Option<T>, Option<String>) {
    let Some(raw) = raw else { return (None, None) };
    match raw.trim().parse::<T>() {
        Ok(v) if valid(&v) => (Some(v), None),
        _ => (None, Some(format!("warning: ignoring {name}={raw:?}: expected {what}"))),
    }
}

/// Reads environment variable `name` as a `T` that passes `valid`; a value
/// that is set but unusable is reported on stderr (naming `what` was
/// expected) and treated as unset. The crate's only environment read, so
/// every `SWEEP_*` knob parses, range-checks and warns the same way.
pub fn env_parsed<T: std::str::FromStr>(
    name: &str,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    let raw = std::env::var(name);
    if let Err(std::env::VarError::NotUnicode(v)) = &raw {
        eprintln!("warning: ignoring {name}={v:?}: not valid UTF-8");
    }
    let (value, warning) = parse_env(name, raw.ok().as_deref(), what, valid);
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    value
}

/// Range check for the count knobs: zero is a usage error, not "none".
pub(crate) fn nonzero<T: Default + PartialEq>(n: &T) -> bool {
    *n != T::default()
}

/// Range check for seconds: positive, and what a `Duration` can hold.
pub(crate) fn positive_secs(s: &f64) -> bool {
    *s > 0.0 && std::time::Duration::try_from_secs_f64(*s).is_ok()
}

/// Renders an aligned text table: a header row plus data rows.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(ToString::to_string).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats bits/second as Mb/s.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// Formats `100·x/base` as a percentage with `decimals` fraction digits, or
/// `"-"` when the baseline is zero, negative, or non-finite. Starved cells
/// (a subflow killed by wireless loss, a zero-goodput run) must render as a
/// placeholder, not divide by zero.
pub fn pct_of(x: f64, base: f64, decimals: usize) -> String {
    if base > 0.0 && base.is_finite() {
        format!("{:.*}%", decimals, 100.0 * x / base)
    } else {
        "-".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["alg", "energy"],
            &[vec!["lia".into(), "10.0".into()], vec!["dts-phi".into(), "8.123".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("lia    "));
    }

    #[test]
    fn mbps_formats() {
        assert_eq!(mbps(1_500_000.0), "1.50");
    }

    #[test]
    fn pct_of_guards_degenerate_baselines() {
        assert_eq!(pct_of(25.0, 50.0, 0), "50%");
        assert_eq!(pct_of(1.0, 3.0, 1), "33.3%");
        assert_eq!(pct_of(1.0, 0.0, 0), "-");
        assert_eq!(pct_of(1.0, -2.0, 0), "-");
        assert_eq!(pct_of(1.0, f64::INFINITY, 0), "-");
        assert_eq!(pct_of(1.0, f64::NAN, 0), "-");
    }

    /// One row of the environment table: `name=raw` through `valid` must
    /// resolve to `want`; set-but-unusable must also warn, naming variable
    /// and value, and everything else must stay silent.
    fn env_case<T: std::str::FromStr + PartialEq + std::fmt::Debug>(
        name: &str,
        raw: Option<&str>,
        valid: impl Fn(&T) -> bool,
        want: Option<T>,
    ) {
        let (got, warning) = parse_env(name, raw, "something usable", valid);
        assert_eq!(got, want, "{name}={raw:?}");
        match (raw, got) {
            (Some(raw), None) => {
                let w = warning.unwrap_or_else(|| panic!("{name}={raw:?} must warn"));
                assert!(w.contains(name) && w.contains(raw), "{w}");
            }
            _ => assert_eq!(warning, None, "{name}={raw:?} must be silent"),
        }
    }

    #[test]
    fn env_values_parse_range_check_and_warn() {
        // Unset: silently nothing, so the caller's default applies (for
        // SWEEP_JOBS the machine's available parallelism).
        env_case::<usize>("SWEEP_JOBS", None, nonzero, None);
        assert!(runner::default_jobs() >= 1);
        // A usable value wins over the default, silently.
        env_case("SWEEP_JOBS", Some("4"), nonzero, Some(4usize));
        env_case("SWEEP_JOBS", Some(" 2 "), nonzero, Some(2usize));
        // Set but unusable falls back AND warns — a typo'd SWEEP_JOBS must
        // not silently change a pinned reproducibility run.
        for bad in ["0", "-3", "lots", ""] {
            env_case::<usize>("SWEEP_JOBS", Some(bad), nonzero, None);
        }
        env_case("SWEEP_RETRIES", Some("2"), nonzero, Some(2u32));
        env_case::<u32>("SWEEP_RETRIES", Some("0"), nonzero, None);
        env_case("SWEEP_BACKOFF_MS", Some("0"), |_| true, Some(0u64));
        env_case("SWEEP_DEADLINE_S", Some("1.5"), positive_secs, Some(1.5f64));
        for bad in ["-1", "inf", "0", "NaN", "1e30", "soon"] {
            env_case::<f64>("SWEEP_DEADLINE_S", Some(bad), positive_secs, None);
        }
    }

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| (*s).to_owned()))
    }

    fn cli(scale: Scale, jobs: Option<usize>) -> Cli {
        Cli { scale, jobs, trace: None, journal: None, workers: None, spool: None, dist: None }
    }

    #[test]
    fn cli_parses_scale_and_jobs() {
        assert_eq!(parse(&[]), Ok(cli(Scale::Quick, None)));
        assert_eq!(parse(&["--smoke"]), Ok(cli(Scale::Smoke, None)));
        assert_eq!(parse(&["--full", "--jobs", "4"]), Ok(cli(Scale::Full, Some(4))));
        assert_eq!(parse(&["--jobs=2"]), Ok(cli(Scale::Quick, Some(2))));
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "zero"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err(), "a zero worker count is a usage error");
        assert!(parse(&["--jobs=0"]).is_err(), "the = form must reject zero too");
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn cli_parses_trace_dir() {
        let c = parse(&["--trace", "out/traces"]).unwrap();
        assert_eq!(c.trace, Some(std::path::PathBuf::from("out/traces")));
        let c = parse(&["--trace=t", "--smoke"]).unwrap();
        assert_eq!(c.trace, Some(std::path::PathBuf::from("t")));
        assert_eq!(c.scale, Scale::Smoke);
        assert!(parse(&["--trace"]).is_err());
        assert_eq!(parse(&[]).unwrap().trace, None);
    }

    #[test]
    fn cli_parses_workers_and_spool() {
        let c = parse(&["--workers", "3", "--spool", "out/spool"]).unwrap();
        assert_eq!(c.workers, Some(3));
        assert_eq!(c.spool, Some(std::path::PathBuf::from("out/spool")));
        assert_eq!(c.workers(), 3, "--workers is the worker count");
        let c = parse(&["--workers=2", "--spool=s"]).unwrap();
        assert_eq!(c.workers, Some(2));
        assert_eq!(c.spool, Some(std::path::PathBuf::from("s")));
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--workers", "0"]).is_err(), "zero workers is a usage error");
        assert!(parse(&["--workers=0"]).is_err(), "the = form must reject zero too");
        assert_eq!(parse(&[]).unwrap().workers, None);
        assert_eq!(parse(&[]).unwrap().workers(), 1, "no flag: one in-process run");
    }

    #[test]
    fn cli_parses_dist_worker_flags_all_or_nothing() {
        let c = parse(&[
            "--smoke",
            "--dist-worker",
            "sp",
            "--dist-shard",
            "2",
            "--dist-gen",
            "1",
            "--dist-id",
            "w2-g1",
        ])
        .unwrap();
        let d = c.dist.expect("dist worker role parsed");
        assert_eq!(d.spool, std::path::PathBuf::from("sp"));
        assert_eq!(d.shard, 2);
        assert_eq!(d.gen, 1);
        assert_eq!(d.id, "w2-g1");
        // A partial flag set is a usage error, not a silent supervisor run.
        let err = parse(&["--dist-worker", "sp", "--dist-shard", "2"]).unwrap_err();
        assert!(err.contains("all four"), "{err}");
        assert!(parse(&["--dist-shard", "x"]).is_err());
        assert_eq!(parse(&[]).unwrap().dist, None);
    }

    #[test]
    fn cli_parses_journal_path() {
        let c = parse(&["--journal", "out/j.jsonl"]).unwrap();
        assert_eq!(c.journal, Some(std::path::PathBuf::from("out/j.jsonl")));
        // The --journal flag is the only spelling of the journal path.
        assert_eq!(c.journal_path(), Some(std::path::PathBuf::from("out/j.jsonl")));
        let c = parse(&["--journal=j", "--smoke"]).unwrap();
        assert_eq!(c.journal, Some(std::path::PathBuf::from("j")));
        assert!(parse(&["--journal"]).is_err());
        assert_eq!(parse(&[]).unwrap().journal_path(), None);
    }
}
