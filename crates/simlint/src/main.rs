//! CLI for the workspace linter. See `simlint --help`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::rules::ALL_RULES;

const USAGE: &str = "\
simlint — workspace determinism & safety linter

USAGE:
    cargo run -p simlint -- [OPTIONS]

OPTIONS:
    --check             Lint the workspace (the default; kept for explicit CI
                        invocations). Exit 0 = clean, 1 = findings, 2 = error.
    --root DIR          Workspace root (default: nearest ancestor with a
                        [workspace] Cargo.toml).
    --json FILE         Also write every finding (fresh and waived) as JSONL
                        to FILE (`-` = stdout).
    --list-rules        Print the rule set and exit.
    -h, --help          This text.

Waive a finding inline with `// simlint: allow(RULE, reason)` on (or directly
above) the offending line; the reason is mandatory. Hash collections, wall-clock
reads and unwrap/expect/panic! are clippy's to check (clippy.toml and the deny
line at every crate root). See DESIGN.md §11.";

struct Opts {
    root: Option<PathBuf>,
    list_rules: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { root: None, list_rules: false, json: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {}
            "--root" => {
                opts.root = Some(it.next().ok_or("--root needs a directory argument")?.into());
            }
            "--json" => {
                opts.json = Some(it.next().ok_or("--json needs a file argument (or `-`)")?.into());
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    if opts.list_rules {
        for (id, summary) in ALL_RULES {
            println!("{id}  {summary}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
            simlint::find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory")?
        }
    };

    let report = simlint::lint_workspace(&root).map_err(|e| format!("lint: {e}"))?;
    if let Some(json) = &opts.json {
        let body = simlint::render_jsonl(&report);
        if json.as_os_str() == "-" {
            print!("{body}");
        } else {
            std::fs::write(json, body).map_err(|e| format!("write {}: {e}", json.display()))?;
        }
    }
    for f in &report.findings {
        println!("{f}");
    }
    eprintln!("simlint: {} finding(s)", report.findings.len());
    Ok(if report.findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("simlint: error: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        }
    }
}
