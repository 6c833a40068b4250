//! `--selftest`: the benchmark checking itself, at tiny sizes, in under
//! 20 s. It proves the ledger and the printed metrics agree in both
//! directions, that result digests are stable and seed-sensitive, and that
//! the hold model really holds its population.

use crate::pass::Pass;
use crate::workloads::Workload;
use crate::{json, probes, run, spec};
use netsim::SimDuration;
use std::collections::BTreeSet;
use std::time::Instant;

fn names(ledger: &[spec::Metric]) -> BTreeSet<String> {
    ledger.iter().map(|m| m.name.clone()).collect()
}

fn check(what: &str, ok: bool) -> Result<(), String> {
    eprintln!("selftest: {} {what}", if ok { "ok  " } else { "FAIL" });
    if ok {
        Ok(())
    } else {
        Err(format!("selftest failed: {what}"))
    }
}

/// The declared names of one ledger section of the parsed `BENCHMARK.json`.
fn declared(doc: &json::Json, section: &str) -> Result<Vec<String>, String> {
    doc.get(section)
        .and_then(json::Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} array"))?
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(json::Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("a {section} entry has no name"))
        })
        .collect()
}

/// A tiny in-process pass of `w`, returning its digest.
fn digest_of(w: Workload, seed: u64) -> Result<u64, String> {
    let mut pass = Pass::new(Instant::now(), false, false, true);
    w.pass(seed, &mut pass)?;
    let failed: u64 = pass.cells.iter().map(|c| c.failed).sum();
    if failed == 0 {
        Ok(pass.digest.value())
    } else {
        Err(format!("{}: {failed} cell(s) failed at tiny size", w.name()))
    }
}

/// Runs every self-check.
///
/// # Errors
///
/// With the first check that failed.
pub fn run() -> Result<(), String> {
    let t0 = Instant::now();
    // 1. BENCHMARK.json is the rendered ledger, within the contract's limits.
    let path = crate::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    check("BENCHMARK.json is the rendered ledger (--emit-spec)", text == spec::benchmark_json())?;
    let doc = json::parse(&text)?;
    let workloads = declared(&doc, "workloads")?;
    let e2e = declared(&doc, "end_to_end")?;
    let layers = declared(&doc, "per_layer")?;
    check(
        "at most 8 workloads, 16 end-to-end and 128 per-layer metrics",
        workloads.len() <= 8 && e2e.len() <= 16 && layers.len() <= 128,
    )?;
    let bounds_ok = doc.get("end_to_end").and_then(json::Json::as_arr).is_some_and(|es| {
        es.iter().all(|e| {
            e.get("bound").and_then(json::Json::as_f64).is_some_and(|b| b > 0.0 && b <= 0.25)
        })
    });
    let seconds = doc.get("run_seconds").and_then(json::Json::as_f64).unwrap_or(0.0);
    check(
        "run_seconds is within 1..=60 and every bound within (0, 0.25]",
        bounds_ok && (1.0..=60.0).contains(&seconds),
    )?;
    let all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    check("every name matches [A-Za-z0-9][A-Za-z0-9_.-]*", all.iter().all(|n| spec::name_ok(n)))?;
    check("no name is used twice", all.iter().collect::<BTreeSet<_>>().len() == all.len())?;
    check(
        "the declared workloads are the five the benchmark runs",
        workloads == Workload::ALL.map(|w| w.name().to_owned()),
    )?;

    // 2. Printed = declared, per workload, for both ledgers.
    for w in Workload::ALL {
        let r = run::measure(w, 1, 0.0, true)?;
        let printed: BTreeSet<String> = r.metrics.keys().cloned().collect();
        check(
            &format!("{}: untraced run prints exactly the end-to-end ledger", w.name()),
            printed == e2e.iter().cloned().collect() && printed == names(&spec::end_to_end()),
        )?;
        check(
            &format!("{}: no cell failed and every metric is non-zero", w.name()),
            r.failed == 0 && r.attempted > 0 && r.metrics.values().all(|v| *v > 0.0),
        )?;
    }
    // Traced: every declared per-layer metric is measured by some workload's
    // traced run (tiny figs_smoke runs only Figs. 1-4, so the other fig_s
    // spans are exempt), and nothing fails under tracing.
    let mut measured = BTreeSet::new();
    for w in Workload::ALL {
        let r = run::trace(w, 1, true)?;
        check(&format!("{}: traced run is clean and keeps the digest", w.name()), r.failed == 0)?;
        measured.extend(r.metrics.into_keys());
    }
    let missing: Vec<&String> = layers
        .iter()
        .filter(|n| !measured.contains(*n) && !n.starts_with("bench.fig_s."))
        .collect();
    check(
        &format!("every declared per-layer metric is measured (missing: {missing:?})"),
        missing.is_empty(),
    )?;
    check(
        "the per-layer ledger in BENCHMARK.json is the one the benchmark prints",
        layers.iter().cloned().collect::<BTreeSet<_>>() == names(&spec::per_layer())
            && measured.iter().filter(|n| n.starts_with("bench.fig_s.")).count() == 4,
    )?;

    // 3. Digests: stable across two in-process runs, different across seeds
    // (on the four seeded workloads; the figure harnesses fix their seeds).
    for w in Workload::ALL.into_iter().filter(|&w| w != Workload::FigsSmoke) {
        let (a, b, c) = (digest_of(w, 1)?, digest_of(w, 1)?, digest_of(w, 2)?);
        check(
            &format!("{}: result_digest repeats and follows the seed", w.name()),
            a == b && a != c,
        )?;
    }

    // 4. The hold model keeps pending_events() at exactly P (it errs if not).
    for (p, max_ms) in [(10, 1), (1_000, 1), (100_000, 1), (1_000, 400)] {
        probes::hold_step_ns(1, p, SimDuration::from_millis(max_ms), 20_000)?;
    }
    check("hold model keeps pending_events() at exactly P", true)?;
    eprintln!("selftest: all checks passed in {:.1} s", t0.elapsed().as_secs_f64());
    Ok(())
}
