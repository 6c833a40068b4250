//! # simlint — workspace determinism & safety linter
//!
//! Every result in this reproduction rests on bit-exact determinism: the
//! paper's DTS/DTS-Φ claims are validated by seeded sweeps, and PRs 2–9 each
//! fixed a bug from the same few classes — unchecked `as` casts wrapping
//! `SimDuration` arithmetic, silent float edge cases, unit mix-ups between
//! raw integers, panics escaping worker threads. The runtime invariant
//! checker (`netsim::check`) catches those *after* they corrupt a run; this
//! crate catches them at review time, the way htsim-style simulators and the
//! Linux MPTCP tree lean on checkpatch/sparse-class tooling rather than
//! runtime luck.
//!
//! The build is vendored-only, so everything is hand-rolled (no `syn`): see
//! [`lexer`] for the token layer, [`parser`] for the item trees, [`index`]
//! for the workspace symbol index, [`dataflow`] for the unit/taint lattices,
//! and [`rules`]/[`rules_flow`] for the rule set; `DESIGN.md` §11/§16 has
//! the history each rule encodes. A violation is silenced by an inline
//! `// simlint: allow(RULE, reason)` waiver; the reason is mandatory.
//!
//! simlint holds only the rules the compiler cannot say. Hash collections
//! and wall-clock reads are banned by the root `clippy.toml`, and every
//! crate root denies `clippy::unwrap_used`, `clippy::expect_used` and
//! `clippy::panic` (DESIGN.md §11).
//!
//! Linting runs as a three-phase pipeline — per-file analysis (parallel),
//! symbol-index build (serial), rule evaluation (parallel) — with findings
//! collected in input order, the same deterministic-pool discipline as
//! `bench_harness::runner`.
//!
//! Run it as `cargo run -p simlint -- --check`; exit code 0 means clean, 1
//! means findings, 2 means usage or I/O error. `--json FILE` additionally
//! emits every finding (fresh and waived) as JSONL.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dataflow;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod rules_flow;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use index::SymbolIndex;
use rules::FileAnalysis;

pub use rules::{lint_source, Finding};

/// Directory names never descended into: third-party code, build output,
/// VCS metadata, and the linter's own deliberately-violating test fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", ".github", ".claude"];

/// Top-level entries scanned for `.rs` files.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Recursively collects the workspace's lintable `.rs` files, sorted by
/// workspace-relative path so reports are stable.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    walk(&path, out)?;
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// A workspace-relative, `/`-separated display path.
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Maps `f` over `items` on a scoped thread pool, returning outputs in
/// input order regardless of scheduling — the same discipline as
/// `bench_harness::runner`: an atomic cursor hands out indices, each worker
/// returns `(index, output)` pairs through `join()` (no slot locks), and
/// the results are scattered back by index. Worker panics propagate.
fn par_map<I, O, F>(items: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let worker_outs: Vec<Vec<(usize, O)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<O>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, o) in worker_outs.into_iter().flatten() {
        slots[i] = Some(o);
    }
    slots
        .into_iter()
        .map(|o| match o {
            Some(v) => v,
            // Every index below the cursor was claimed by exactly one worker.
            None => unreachable!("par_map slot left unfilled"),
        })
        .collect()
}

/// Default worker count for the lint pipeline.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// A full workspace lint: standing findings plus inline-waived ones.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Findings that stand, sorted by path/line/rule.
    pub findings: Vec<Finding>,
    /// Findings silenced by inline waivers (surfaced in `--json`).
    pub waived: Vec<Finding>,
}

/// The three-phase pipeline over already-loaded sources: analyze each file,
/// build the symbol index, then evaluate rules per file against it.
fn run_pipeline(analyses: &[FileAnalysis], jobs: usize) -> WorkspaceReport {
    let indexable: Vec<(String, parser::FileItems)> = analyses
        .iter()
        .filter_map(|a| a.indexable_items().map(|items| (a.rel.clone(), items)))
        .collect();
    let index = SymbolIndex::build(indexable.iter().map(|(rel, items)| (rel.as_str(), items)));

    let reports = par_map(analyses, jobs, |a| rules::finish(a, &index));
    let mut out = WorkspaceReport::default();
    for r in reports {
        out.findings.extend(r.findings);
        out.waived.extend(r.waived);
    }
    out.findings.sort();
    out.waived.sort();
    out
}

/// Lints a set of in-memory `(rel_path, source)` files as one workspace —
/// cross-file symbol resolution included. Drives the same pipeline as
/// [`lint_workspace_with_jobs`], minus the I/O.
pub fn lint_sources(files: &[(String, String)]) -> WorkspaceReport {
    let analyses = par_map(files, 1, |(rel, src)| rules::analyze(rel, src));
    run_pipeline(&analyses, 1)
}

/// Lints every file under `root` with an explicit worker count. Output is
/// independent of `jobs` (pinned by test).
pub fn lint_workspace_with_jobs(root: &Path, jobs: usize) -> std::io::Result<WorkspaceReport> {
    let files = collect_files(root)?;
    let loaded: Vec<Result<(String, String), std::io::Error>> = par_map(&files, jobs, |file| {
        let src = std::fs::read_to_string(file)?;
        Ok((rel_path(root, file), src))
    });
    let mut sources = Vec::with_capacity(loaded.len());
    for r in loaded {
        sources.push(r?);
    }
    let analyses = par_map(&sources, jobs, |(rel, src)| rules::analyze(rel, src));
    Ok(run_pipeline(&analyses, jobs))
}

/// Lints every file under `root` on every available core.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    lint_workspace_with_jobs(root, default_jobs())
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Escapes a string for a JSON string literal (no external deps).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a workspace report as JSONL: one object per finding with its
/// waiver status (`fresh` fails the build, `waived` has an inline waiver),
/// sorted by path/line so reports diff cleanly across PRs.
pub fn render_jsonl(report: &WorkspaceReport) -> String {
    let mut rows: Vec<(&Finding, &str)> = report
        .findings
        .iter()
        .map(|f| (f, "fresh"))
        .chain(report.waived.iter().map(|f| (f, "waived")))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (f, status) in rows {
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"snippet\":\"{}\",\"status\":\"{status}\",\"message\":\"{}\"}}\n",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.snippet),
            json_escape(&f.message),
        ));
    }
    out
}
