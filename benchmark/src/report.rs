//! The stand-alone mode: every workload, several repeats, one table.
//!
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- [--seed S]
//! [--repeats N] [--trace] [--only WORKLOAD] [--json FILE]` interleaves the
//! workloads across rounds (A B C D E, then A B C D E again) so that slow
//! drift of the machine lands on all of them alike, prints each end-to-end
//! metric as median and quartiles over the repeats with the sample count,
//! and with `--trace` adds one traced run per workload. `--json` records the
//! same numbers, with an environment block, as a baseline file.

use crate::run::{cell_summary, measure, trace, RunResult};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Workload;
use crate::{json, spec};
use std::collections::BTreeMap;
use std::path::Path;

/// What the stand-alone mode was asked to do.
pub struct Options {
    /// The workload seed.
    pub seed: u64,
    /// Runs per workload.
    pub repeats: usize,
    /// Add one traced run per workload.
    pub trace: bool,
    /// Restrict to one workload.
    pub only: Option<Workload>,
    /// Where to record the baseline, if anywhere.
    pub json: Option<std::path::PathBuf>,
}

fn tool_version(program: &str, args: &[&str], cwd: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Runs the stand-alone mode; `Ok(false)` if any cell failed or any repeat
/// printed another digest.
///
/// # Errors
///
/// On harness failures (a child that cannot be spawned or exits non-zero,
/// an unwritable `--json` file).
pub fn all(o: &Options) -> Result<bool, String> {
    let workloads: Vec<Workload> = o.only.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let seconds = spec::RUN_SECONDS as f64;
    let mut runs: BTreeMap<&str, Vec<RunResult>> = BTreeMap::new();
    for round in 0..o.repeats {
        for &w in &workloads {
            let r = measure(w, o.seed, seconds, false)?;
            eprintln!(
                "round {}/{} {}: {} passes, digest {:016x}, {}/{} failed; {}",
                round + 1,
                o.repeats,
                w.name(),
                r.passes,
                r.digest,
                r.failed,
                r.attempted,
                cell_summary(&r)
            );
            for note in &r.notes {
                eprintln!("  {note}");
            }
            runs.entry(w.name()).or_default().push(r);
        }
    }

    let mut ok = true;
    let mut e2e_json = Vec::new();
    let mut digest_json = Vec::new();
    let mut failed_json = Vec::new();
    println!("# end to end — seed {}, {} run(s) of {seconds} s per workload", o.seed, o.repeats);
    for &w in &workloads {
        let rs = &runs[w.name()];
        let attempted: u64 = rs.iter().map(|r| r.attempted).sum();
        let failed: u64 = rs.iter().map(|r| r.failed).sum();
        let digest = rs.first().map_or(0, |r| r.digest);
        let same_digest = rs.iter().all(|r| r.digest == digest);
        ok &= failed == 0 && same_digest;
        println!(
            "\n{} (work = {}): result_digest {digest:016x}{}, failed_ops_share {}",
            w.name(),
            w.work_unit(),
            if same_digest { "" } else { " (DIFFERS BETWEEN REPEATS)" },
            failed as f64 / attempted.max(1) as f64
        );
        let mut rows = Vec::new();
        for m in spec::end_to_end() {
            let xs: Vec<f64> = rs.iter().filter_map(|r| r.metrics.get(&m.name).copied()).collect();
            let med = median(&xs).unwrap_or(0.0);
            let (q1, q3) = quartiles(&xs).unwrap_or((med, med));
            println!(
                "  {:<14} median {med:>14.6} {:<4} quartiles [{q1:.6}, {q3:.6}] spread {:>5.2} % n={}",
                m.name,
                m.unit,
                spread(&xs).unwrap_or(0.0) * 100.0,
                xs.len()
            );
            rows.push(format!(
                "\"{}\": {{\"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"n\": {}, \"unit\": \"{}\"}}",
                m.name,
                xs.len(),
                m.unit
            ));
        }
        e2e_json.push(format!("    \"{}\": {{{}}}", w.name(), rows.join(", ")));
        digest_json.push(format!("\"{}\": \"{digest:016x}\"", w.name()));
        failed_json.push(format!("\"{}\": {}", w.name(), failed as f64 / attempted.max(1) as f64));
    }

    let mut layer_json = Vec::new();
    if o.trace {
        let mut traced = Vec::new();
        for &w in &workloads {
            let r = trace(w, o.seed, false)?;
            ok &= r.failed == 0;
            for note in &r.notes {
                eprintln!("traced {}: {note}", w.name());
            }
            traced.push(r);
        }
        println!("\n# per layer — one traced run per workload (0 = not crossed or not observable)");
        let head: Vec<String> = workloads.iter().map(|w| format!("{:>14}", w.name())).collect();
        println!("{:<36} {:<6}{}", "metric", "unit", head.join(" "));
        for m in spec::per_layer() {
            let vals: Vec<String> = traced
                .iter()
                .map(|r| format!("{:>14.4}", r.metrics.get(&m.name).copied().unwrap_or(0.0)))
                .collect();
            println!("{:<36} {:<6}{}", m.name, m.unit, vals.join(" "));
        }
        for (w, r) in workloads.iter().zip(&traced) {
            let rows: Vec<String> = spec::per_layer()
                .iter()
                .map(|m| {
                    format!("\"{}\": {}", m.name, r.metrics.get(&m.name).copied().unwrap_or(0.0))
                })
                .collect();
            layer_json.push(format!("    \"{}\": {{{}}}", w.name(), rows.join(", ")));
        }
    }

    if let Some(path) = &o.json {
        let root = crate::repo_root();
        let doc = format!(
            "{{\n  \"environment\": {{\"nproc\": {}, \"rustc\": \"{}\", \"git_revision\": \"{}\"}},\n  \
             \"seed\": {},\n  \"run_seconds\": {},\n  \"repeats\": {},\n  \
             \"result_digest\": {{{}}},\n  \"failed_ops_share\": {{{}}},\n  \
             \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }}\n}}\n",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            json::escape(&tool_version("rustc", &["--version"], &root)),
            json::escape(&tool_version("git", &["rev-parse", "HEAD"], &root)),
            o.seed,
            spec::RUN_SECONDS,
            o.repeats,
            digest_json.join(", "),
            failed_json.join(", "),
            e2e_json.join(",\n"),
            layer_json.join(",\n")
        );
        json::parse(&doc)?;
        std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(ok)
}
