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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

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
/// [`Scale`], an optional sweep worker count, and the fabric's journal and
/// worker settings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// The experiment scale.
    pub scale: Scale,
    /// `--jobs N` if given; binaries fall back to
    /// [`runner::default_jobs`] (which honours `SWEEP_JOBS`) when absent.
    pub jobs: Option<usize>,
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
    /// Parses `--smoke`/`--quick`/`--full`, `--jobs N`, `--journal PATH`,
    /// `--workers N`, `--spool DIR` and the worker-side `--dist-*` flags from
    /// the process arguments, each valued flag also as `--flag=VALUE`. Exits
    /// 2 with a usage message on anything else.
    pub fn from_args() -> Cli {
        Cli::from_arg_list(std::env::args().skip(1))
    }

    /// [`Cli::from_args`] for a binary with one valued flag of its own
    /// (`figures_all --only LIST`, `ablation_dts --trace DIR`): splits
    /// `flag VALUE` or `flag=VALUE` off and returns the value beside the
    /// rest, parsed. A flag with no value exits 2.
    pub fn from_args_with(flag: &str) -> (Option<String>, Cli) {
        let (value, rest) = split_flag(flag, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        (value, Cli::from_arg_list(rest.into_iter()))
    }

    fn from_arg_list(args: impl Iterator<Item = String>) -> Cli {
        Cli::parse(args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// The flags, or the usage message that names the fault found.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: Scale::Quick,
            jobs: None,
            journal: None,
            workers: None,
            spool: None,
            dist: None,
        };
        let mut dist_spool: Option<std::path::PathBuf> = None;
        let mut dist_shard: Option<usize> = None;
        let mut dist_gen: Option<u64> = None;
        let mut dist_id: Option<String> = None;
        let valued = |name: &str| VALUED_FLAGS.contains(&name);
        while let Some(a) = args.next() {
            match read_flag(&a, valued, &mut args)? {
                ("--smoke", None) => cli.scale = Scale::Smoke,
                ("--quick", None) => cli.scale = Scale::Quick,
                ("--full", None) => cli.scale = Scale::Full,
                ("--jobs", Some(v)) => cli.jobs = Some(number("--jobs", &v)?),
                ("--workers", Some(v)) => cli.workers = Some(number("--workers", &v)?),
                ("--journal", Some(v)) => cli.journal = Some(v.into()),
                ("--spool", Some(v)) => cli.spool = Some(v.into()),
                ("--dist-worker", Some(v)) => dist_spool = Some(v.into()),
                ("--dist-shard", Some(v)) => dist_shard = Some(number("--dist-shard", &v)?),
                ("--dist-gen", Some(v)) => dist_gen = Some(number("--dist-gen", &v)?),
                ("--dist-id", Some(v)) => dist_id = Some(v),
                _ => {
                    return Err(format!(
                        "unknown argument `{a}` \
                         (expected --smoke/--quick/--full/--jobs N/--journal PATH/\
                         --workers N/--spool DIR)"
                    ))
                }
            }
        }
        for (name, n) in [("--jobs", cli.jobs), ("--workers", cli.workers)] {
            if n == Some(0) {
                return Err(format!("{name}: must be at least 1"));
            }
        }
        match (dist_spool, dist_shard, dist_gen, dist_id) {
            (Some(spool), Some(shard), Some(gen), Some(id)) => {
                cli.dist = Some(DistWorkerCli { spool, shard, gen, id });
            }
            (None, None, None, None) => {}
            _ => return Err(format!("{}: give all four or none", VALUED_FLAGS[4..].join(", "))),
        }
        Ok(cli)
    }

    /// The sweep worker count: `--jobs` if given, else
    /// [`runner::default_jobs`].
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(runner::default_jobs)
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

/// The flags of [`Cli`] that take a value; the last four travel together.
const VALUED_FLAGS: [&str; 8] = [
    "--jobs",
    "--workers",
    "--journal",
    "--spool",
    "--dist-worker",
    "--dist-shard",
    "--dist-gen",
    "--dist-id",
];

/// Reads argument `a` as a flag: its name, and its value in either
/// spelling — the `VALUE` of `--name=VALUE`, or, when `valued(name)`, the
/// next argument of `args` (`--name VALUE`). Every flag of every harness
/// binary is read here, so each valued flag takes both spellings.
///
/// # Errors
///
/// When a valued flag is the last argument, with no value after it.
fn read_flag<'a>(
    a: &'a str,
    valued: impl Fn(&str) -> bool,
    args: &mut impl Iterator<Item = String>,
) -> Result<(&'a str, Option<String>), String> {
    let (name, inline) = match a.split_once('=') {
        Some((name, v)) if name.starts_with("--") => (name, Some(v.to_owned())),
        _ => (a, None),
    };
    let value = match inline {
        None if valued(name) => Some(args.next().ok_or_else(|| format!("{name}: missing value"))?),
        inline => inline,
    };
    Ok((name, value))
}

/// Flag `name`'s value `v` as a number.
fn number<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{name}: `{v}` is not a non-negative integer"))
}

/// Splits `flag VALUE` / `flag=VALUE` off an argument list: returns the
/// flag's value (the last one given) and the other arguments, in order.
///
/// # Errors
///
/// When `flag` is the last argument, with no value after it.
fn split_flag(
    flag: &str,
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<String>, Vec<String>), String> {
    let mut value = None;
    let mut rest = Vec::new();
    while let Some(a) = args.next() {
        match read_flag(&a, |name| name == flag, &mut args)? {
            (name, v) if name == flag => value = v,
            _ => rest.push(a),
        }
    }
    Ok((value, rest))
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
        Cli { scale, jobs, journal: None, workers: None, spool: None, dist: None }
    }

    #[test]
    fn cli_parses_scale_flags_and_refuses_a_value_on_them() {
        assert_eq!(parse(&[]), Ok(cli(Scale::Quick, None)));
        assert_eq!(parse(&["--smoke"]), Ok(cli(Scale::Smoke, None)));
        assert_eq!(parse(&["--full", "--jobs", "4"]), Ok(cli(Scale::Full, Some(4))));
        assert_eq!(parse(&["--smoke", "--quick"]), Ok(cli(Scale::Quick, None)));
        for bad in ["--smoke=1", "--quick=", "--full=yes", "--bogus", "--bogus=1", "smoke"] {
            assert_eq!(parse(&[bad]), Err(unknown(bad)), "{bad} must be refused");
        }
    }

    /// What `Cli` prints for an argument it does not know.
    fn unknown(a: &str) -> String {
        format!(
            "unknown argument `{a}` \
             (expected --smoke/--quick/--full/--jobs N/--journal PATH/--workers N/--spool DIR)"
        )
    }

    /// One valued flag: a good value, the parsed field it lands in (as
    /// `Debug`) and a bad value (`None`: every string is a good value).
    struct Valued {
        flag: &'static str,
        good: &'static str,
        read: fn(&Cli) -> String,
        want: &'static str,
        bad: Option<&'static str>,
    }

    const VALUED: [Valued; 8] = [
        Valued {
            flag: "--jobs",
            good: "4",
            read: |c| format!("{:?}", c.jobs),
            want: "Some(4)",
            bad: Some("four"),
        },
        Valued {
            flag: "--workers",
            good: "3",
            read: |c| format!("{:?}", c.workers),
            want: "Some(3)",
            bad: Some("-1"),
        },
        Valued {
            flag: "--journal",
            good: "out/j.jsonl",
            read: |c| format!("{:?}", c.journal),
            want: r#"Some("out/j.jsonl")"#,
            bad: None,
        },
        Valued {
            flag: "--spool",
            good: "s",
            read: |c| format!("{:?}", c.spool),
            want: r#"Some("s")"#,
            bad: None,
        },
        Valued {
            flag: "--dist-worker",
            good: "sp",
            read: |c| format!("{:?}", c.dist.as_ref().map(|d| &d.spool)),
            want: r#"Some("sp")"#,
            bad: None,
        },
        Valued {
            flag: "--dist-shard",
            good: "2",
            read: |c| format!("{:?}", c.dist.as_ref().map(|d| d.shard)),
            want: "Some(2)",
            bad: Some("x"),
        },
        Valued {
            flag: "--dist-gen",
            good: "7",
            read: |c| format!("{:?}", c.dist.as_ref().map(|d| d.gen)),
            want: "Some(7)",
            bad: Some("1.5"),
        },
        Valued {
            flag: "--dist-id",
            good: "w2-g1",
            read: |c| format!("{:?}", c.dist.as_ref().map(|d| &d.id)),
            want: r#"Some("w2-g1")"#,
            bad: None,
        },
    ];

    /// `args` for `flag`, plus the other `--dist-*` flags when `flag` is one
    /// (the four travel together).
    fn with_peers(flag: &str, args: &[String]) -> Result<Cli, String> {
        let mut all = args.to_vec();
        if flag.starts_with("--dist-") {
            for v in VALUED.iter().filter(|v| v.flag.starts_with("--dist-") && v.flag != flag) {
                all.extend([v.flag.to_owned(), v.good.to_owned()]);
            }
        }
        Cli::parse(all.into_iter())
    }

    #[test]
    fn cli_reads_every_valued_flag_in_both_spellings() {
        for Valued { flag, good, read, want, bad } in VALUED {
            let spaced = with_peers(flag, &owned(&[flag, good]));
            let joined = with_peers(flag, &[format!("{flag}={good}")]);
            let c = spaced.unwrap_or_else(|e| panic!("{flag} {good}: {e}"));
            assert_eq!(read(&c), want, "{flag} {good}");
            assert_eq!(joined.as_ref(), Ok(&c), "{flag}={good} reads as {flag} {good}");
            assert_eq!(parse(&[flag]), Err(format!("{flag}: missing value")));
            if let Some(bad) = bad {
                let want = format!("{flag}: `{bad}` is not a non-negative integer");
                for args in [owned(&[flag, bad]), vec![format!("{flag}={bad}")]] {
                    assert_eq!(with_peers(flag, &args), Err(want.clone()), "{args:?}");
                }
            }
        }
    }

    #[test]
    fn cli_refuses_zero_jobs_and_workers_in_both_spellings() {
        for args in [&["--jobs", "0"][..], &["--jobs=0"], &["--workers", "0"], &["--workers=0"]] {
            let want = format!("{}: must be at least 1", args[0].trim_end_matches("=0"));
            assert_eq!(parse(args), Err(want), "{args:?}: a zero count is a usage error");
        }
        assert_eq!(parse(&["--workers=2"]).unwrap().workers(), 2);
        assert_eq!(parse(&[]).unwrap().workers(), 1, "no flag: one in-process run");
    }

    fn split(flag: &str, args: &[&str]) -> Result<(Option<String>, Vec<String>), String> {
        split_flag(flag, args.iter().map(|s| (*s).to_owned()))
    }

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn split_flag_takes_both_spellings_and_passes_the_rest_in_order() {
        assert_eq!(
            split("--x", &["--smoke", "--x", "V", "--jobs", "2"]),
            Ok((Some("V".to_owned()), owned(&["--smoke", "--jobs", "2"])))
        );
        assert_eq!(
            split("--x", &["--jobs=2", "--x=a=b", "--full"]),
            Ok((Some("a=b".to_owned()), owned(&["--jobs=2", "--full"])))
        );
        assert_eq!(split("--x", &["--smoke", "--xy"]), Ok((None, owned(&["--smoke", "--xy"]))));
        assert_eq!(split("--x", &[]), Ok((None, Vec::new())));
        let err = split("--x", &["--smoke", "--x"]).unwrap_err();
        assert!(err.contains("--x") && err.contains("missing"), "{err}");
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
        assert_eq!(
            parse(&["--dist-worker", "sp", "--dist-shard", "2"]),
            Err("--dist-worker, --dist-shard, --dist-gen, --dist-id: give all four or none".into())
        );
        assert!(parse(&["--dist-shard", "x"]).is_err());
        assert_eq!(parse(&[]).unwrap().dist, None);
    }
}
