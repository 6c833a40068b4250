//! The parent side of a run: spawn one child process per pass, aggregate
//! their reports into the declared metrics, check outputs.
//!
//! An untraced run ([`measure`]) repeats full passes until `--seconds` of
//! host time have gone by, timing set-up alone in [`SETUP_SAMPLES`]
//! set-up-only children before each and after the last. It makes at least
//! [`MIN_PASSES`] full passes, so that even `figs_smoke` (one pass outlasts
//! `--seconds`) has a repeat to check its digest against and a minimum to
//! take. A traced run ([`trace`]) is a few untraced passes, a few traced
//! passes and the probes; end-to-end numbers never come from it.
//!
//! ## Why minima, not medians
//!
//! Every pass of one `(workload, seed)` does identical work, segment by
//! segment, so the differences between passes are the machine's. On the
//! sandbox this was written in they are one-sided and dense: a fixed 10 ms
//! kernel timed back to back for minutes has a *median* that wanders between
//! 1.1× and 1.5× its best time from one 10 s window to the next, while the
//! *fastest* sample of any window stays within 3 % of the best. A median
//! over passes therefore tracks the neighbours' load, not the program. Each
//! timed segment (tens of host milliseconds) is taken at its fastest over
//! the run's passes, and `wall_s` / `cpu_s` are sums of those minima: the
//! cost of the work with the interference removed, which is the part a code
//! change moves.

use crate::pass::{PassReport, Segment};
use crate::stats::{highest_supported_percentile, least, median, percentile};
use crate::workloads::Workload;
use crate::{procstat, spec};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up-only children before every full pass of an untraced run and after
/// the last; `setup_s` is the fastest of them all.
const SETUP_SAMPLES: usize = 8;

/// Full passes an untraced run makes at the least, however long one takes.
const MIN_PASSES: usize = 2;

/// The environment variable carrying the parent's realtime clock reading
/// taken just before the spawn.
pub const SPAWNED_AT_ENV: &str = "BENCHMARK_SPAWNED_AT_NS";

/// What kind of pass a child runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Full,
    SetupOnly,
    Traced,
}

/// The outcome of one run, ready to print.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Declared metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Cells attempted over all passes.
    pub attempted: u64,
    /// Cells that failed (see README.md, "What counts as a failure").
    pub failed: u64,
    /// The passes' common `result_digest` (of the first pass if they differ).
    pub digest: u64,
    /// Full passes measured.
    pub passes: usize,
    /// Per-cell host milliseconds pooled over all passes.
    pub cell_pool_ms: Vec<f64>,
    /// Why cells failed, for stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line JSON result the acceptance driver reads.
    pub fn to_json(&self, ledger: &[spec::Metric]) -> String {
        let metrics: Vec<String> = ledger
            .iter()
            .map(|m| {
                let v = self.metrics.get(&m.name).copied().unwrap_or(0.0);
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A child command for this executable with the sweep harness's own
/// environment knobs stripped, so an exported `SWEEP_JOBS` or
/// `FABRIC_SMOKE_FAIL` cannot change what is measured.
fn child_command(args: &[String]) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        let k = key.to_string_lossy();
        if k.starts_with("SWEEP_") || k.starts_with("FABRIC_SMOKE_") {
            cmd.env_remove(&key);
        }
    }
    cmd.env(SPAWNED_AT_ENV, procstat::realtime_ns().to_string());
    Ok(cmd)
}

/// Runs a child to completion and returns its stdout.
fn run_child(args: &[String]) -> Result<String, String> {
    let out =
        child_command(args)?.output().map_err(|e| format!("cannot spawn child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("child {args:?} printed invalid UTF-8"))
}

fn spawn_pass(w: Workload, seed: u64, mode: Mode, tiny: bool) -> Result<PassReport, String> {
    let mut args =
        vec!["--pass".to_owned(), w.name().to_owned(), "--seed".into(), seed.to_string()];
    match mode {
        Mode::Full => {}
        Mode::SetupOnly => args.push("--setup-only".into()),
        Mode::Traced => args.push("--traced".into()),
    }
    if tiny {
        args.push("--tiny".into());
    }
    PassReport::parse(&run_child(&args)?)
}

fn spawn_probes(seed: u64, tiny: bool) -> Result<BTreeMap<String, f64>, String> {
    let mut args = vec!["--probes".to_owned(), "--seed".into(), seed.to_string()];
    if tiny {
        args.push("--tiny".into());
    }
    Ok(PassReport::parse(&run_child(&args)?)?.layer)
}

/// Whether `p` did the same work as `first`: same digest, same segments,
/// same cells.
fn same_work(p: &PassReport, first: &PassReport) -> bool {
    p.digest == first.digest
        && p.segments.len() == first.segments.len()
        && p.cells.len() == first.cells.len()
}

/// Host milliseconds per operation of each cell of `p`, its segments summed.
fn cell_ms(p: &PassReport, segments: &[Segment]) -> Vec<f64> {
    let mut at = 0;
    p.cells
        .iter()
        .map(|c| {
            let end = (at + c.segments).min(segments.len());
            let wall_s: f64 = segments[at.min(end)..end].iter().map(|s| s.wall_s).sum();
            at = end;
            wall_s * 1e3 / c.ops.max(1) as f64
        })
        .collect()
}

/// Folds the passes' cell records into attempted/failed counts. Repeats of
/// one `(workload, seed)` must do the same work: a pass whose digest (or
/// shape) differs from the first pass's has every one of its cells counted
/// failed.
fn tally(passes: &[PassReport], r: &mut RunResult) {
    let Some(first) = passes.first() else { return };
    r.digest = first.digest;
    r.passes = passes.len();
    for (i, p) in passes.iter().enumerate() {
        let ops: u64 = p.cells.iter().map(|c| c.ops).sum();
        r.attempted += ops;
        if same_work(p, first) {
            r.failed += p.cells.iter().map(|c| c.failed).sum::<u64>();
        } else {
            r.failed += ops;
            r.notes.push(format!("pass {i}: digest {:016x} != {:016x}", p.digest, r.digest));
        }
        for c in p.cells.iter().filter(|c| c.failed > 0) {
            r.notes.push(format!("pass {i}: cell {:?}: {}", c.label, c.why));
        }
        r.cell_pool_ms.extend(cell_ms(p, &p.segments));
    }
}

/// One segment's samples (one per pass) reduced to a steady figure.
///
/// A segment that computes is taken at its fastest: interference only adds
/// time (see the module docs). A segment that mostly sleeps — the dist path
/// of `sweep_fabric` polls and heartbeats on timers — is not slowed by
/// interference at all; its wall time is set by where in a poll period it
/// lands and is bimodal (27 ms or 204 ms), so its minimum would be the rare
/// mode. Its wall time is taken at its median. Its CPU time is the same in
/// either mode and, like any other, only ever inflated: always the least.
fn steady(samples: &[Segment]) -> Segment {
    let wall: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let sleeps = cpu.iter().sum::<f64>() < 0.5 * wall.iter().sum::<f64>();
    let wall_s = if sleeps { median(&wall).unwrap_or(0.0) } else { least(&wall) };
    Segment { wall_s, cpu_s: least(&cpu) }
}

/// Every segment of the first pass reduced over the passes that did the
/// same work as it.
fn steady_segments(passes: &[PassReport]) -> Vec<Segment> {
    let Some(first) = passes.first() else { return Vec::new() };
    let alike: Vec<&PassReport> = passes.iter().filter(|p| same_work(p, first)).collect();
    (0..first.segments.len())
        .map(|i| steady(&alike.iter().map(|p| p.segments[i]).collect::<Vec<Segment>>()))
        .collect()
}

/// One untraced run: the end-to-end metrics of `w` for `seed`.
///
/// # Errors
///
/// If a child cannot be spawned, exits non-zero, or reports nonsense.
/// Failed cells are not errors; they are counted in the result.
pub fn measure(w: Workload, seed: u64, seconds: f64, tiny: bool) -> Result<RunResult, String> {
    // Set-up samples go before every full pass and after the last: the
    // first instants of a run, on a processor just woken, are its slowest,
    // and samples taken all at once share whatever the machine did then.
    let setup_samples = if tiny { 1 } else { SETUP_SAMPLES };
    let (mut setups, mut passes) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        for _ in 0..setup_samples {
            setups.push(spawn_pass(w, seed, Mode::SetupOnly, tiny)?.setup_s);
        }
        if passes.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        passes.push(spawn_pass(w, seed, Mode::Full, tiny)?);
    }

    let mut r = RunResult::default();
    tally(&passes, &mut r);
    let first = &passes[0];
    let best = steady_segments(&passes);
    let wall_s: f64 = best.iter().map(|s| s.wall_s).sum();
    let cells = cell_ms(first, &best);
    let rss_mb: Vec<f64> = passes.iter().map(|p| p.rss_kb as f64 / 1024.0).collect();
    let mut put = |name: &str, v: Option<f64>| {
        r.metrics.insert(name.to_owned(), v.unwrap_or(0.0));
    };
    put("wall_s", Some(wall_s));
    put("cpu_s", Some(best.iter().map(|s| s.cpu_s).sum()));
    put("setup_s", Some(least(&setups)));
    put("peak_rss_mb", median(&rss_mb));
    put("work_per_s", (wall_s > 0.0).then(|| first.work as f64 / wall_s));
    put("cell_ms_p50", percentile(&cells, 50.0));
    put("cell_ms_p90", percentile(&cells, 90.0));
    Ok(r)
}

/// Fills in the metrics that combine a traced pass's counts with the probes'
/// unit costs.
fn derive(m: &mut BTreeMap<String, f64>) {
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let acked = get(m, "transport.data_pkts_acked");
    if acked > 0.0 {
        m.insert("transport.goodput_ratio".into(), acked / (acked + get(m, "transport.rexmits")));
    }
    // The estimated split of the simulator's run time: each share is a count
    // from the traced pass times the matching probe's unit cost. What is
    // left over is the case for in-program tracing.
    let run_s = get(m, "netsim.run_s");
    if run_s > 0.0 {
        let pct = |ns: f64| ns / 1e9 / run_s * 100.0;
        let netsim = pct(get(m, "netsim.link_tx_pkts") * get(m, "netsim.link_hop_ns"));
        let transport = pct(acked * get(m, "transport.self_ns_per_pkt"));
        let congestion: f64 = m
            .iter()
            .filter_map(|(k, calls)| {
                let algo = k.strip_prefix("congestion.on_ack_calls.")?;
                Some(calls * get(m, &format!("congestion.on_ack_ns.{algo}")))
            })
            .sum();
        let congestion = pct(congestion);
        m.insert("netsim.run_share_pct".into(), netsim);
        m.insert("transport.run_share_pct".into(), transport);
        m.insert("congestion.run_share_pct".into(), congestion);
        m.insert("bench.run_unattributed_pct".into(), 100.0 - netsim - transport - congestion);
    }
}

/// One traced run: the per-layer metrics of `w` for `seed`.
///
/// # Errors
///
/// As [`measure`].
pub fn trace(w: Workload, seed: u64, tiny: bool) -> Result<RunResult, String> {
    // A few passes of each kind, so that the overhead compares steady walls
    // and not two single readings (one each is all `figs_smoke` has time
    // for), and alternating, so that the machine's drift lands on both alike.
    let budget_s = if tiny { 0.0 } else { 6.0 };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        untraced.push(spawn_pass(w, seed, Mode::Full, tiny)?);
        traced.push(spawn_pass(w, seed, Mode::Traced, tiny)?);
        if t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let mut m = spawn_probes(seed, tiny)?;
    // Counts are the same in every traced pass; self times are the last's.
    m.extend(traced.last().map(|p| p.layer.clone()).unwrap_or_default());
    let wall_s =
        |passes: &[PassReport]| steady_segments(passes).iter().map(|s| s.wall_s).sum::<f64>();
    if wall_s(&untraced) > 0.0 {
        m.insert(
            "trace_overhead_pct".into(),
            (wall_s(&traced) - wall_s(&untraced)) / wall_s(&untraced) * 100.0,
        );
    }
    derive(&mut m);
    let mut r = RunResult { metrics: m, ..RunResult::default() };
    // Tracing observes only: traced passes must print the untraced digest.
    let all: Vec<PassReport> = untraced.into_iter().chain(traced).collect();
    tally(&all, &mut r);
    Ok(r)
}

/// The guide's timing summary for stderr: median and the highest percentile
/// the pooled per-cell sample supports, with the sample count.
pub fn cell_summary(r: &RunResult) -> String {
    let n = r.cell_pool_ms.len();
    let p = highest_supported_percentile(n);
    format!(
        "cell host time: median {:.3} ms, p{p} {:.3} ms (n={n})",
        median(&r.cell_pool_ms).unwrap_or(0.0),
        percentile(&r.cell_pool_ms, p).unwrap_or(0.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::CellRecord;

    fn report(digest: u64, failed: u64) -> PassReport {
        PassReport {
            digest,
            segments: vec![Segment { wall_s: 0.002, cpu_s: 0.001 }; 2],
            cells: vec![CellRecord {
                label: "c".into(),
                segments: 2,
                ops: 4,
                failed,
                why: "w".into(),
            }],
            ..PassReport::default()
        }
    }

    #[test]
    fn computing_segments_take_the_minimum_and_sleeping_ones_the_median_wall() {
        let seg = |wall_s, cpu_s| Segment { wall_s, cpu_s };
        let busy = steady(&[seg(1.0, 0.99), seg(1.4, 1.3), seg(1.2, 1.1)]);
        assert!((busy.wall_s - 1.0).abs() < 1e-12 && (busy.cpu_s - 0.99).abs() < 1e-12);
        let idle = steady(&[seg(0.027, 0.002), seg(0.204, 0.001), seg(0.205, 0.003)]);
        assert!((idle.wall_s - 0.204).abs() < 1e-12 && (idle.cpu_s - 0.001).abs() < 1e-12);
    }

    #[test]
    fn a_cell_is_its_segments_summed_per_operation() {
        let p = report(1, 0);
        assert!((cell_ms(&p, &p.segments)[0] - 1.0).abs() < 1e-12);
        // A report that claims more segments than it has must not panic.
        assert_eq!(cell_ms(&p, &p.segments[..1]).len(), 1);
    }

    #[test]
    fn a_pass_with_another_digest_fails_all_its_cells() {
        let mut r = RunResult::default();
        tally(&[report(1, 0), report(1, 1), report(2, 0)], &mut r);
        assert_eq!((r.attempted, r.failed, r.digest, r.passes), (12, 5, 1, 3));
        assert_eq!(r.notes.len(), 2);
        assert_eq!(r.cell_pool_ms.len(), 3);
    }

    #[test]
    fn derived_shares_sum_to_one_hundred() {
        let mut m: BTreeMap<String, f64> = [
            ("netsim.run_s", 1.0),
            ("netsim.link_tx_pkts", 1e6),
            ("netsim.link_hop_ns", 300.0),
            ("transport.data_pkts_acked", 1e5),
            ("transport.rexmits", 1e5),
            ("transport.self_ns_per_pkt", 1000.0),
            ("congestion.on_ack_calls.lia", 1e5),
            ("congestion.on_ack_ns.lia", 100.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        derive(&mut m);
        assert!((m["transport.goodput_ratio"] - 0.5).abs() < 1e-12);
        assert!((m["netsim.run_share_pct"] - 30.0).abs() < 1e-9);
        assert!((m["transport.run_share_pct"] - 10.0).abs() < 1e-9);
        assert!((m["congestion.run_share_pct"] - 1.0).abs() < 1e-9);
        assert!((m["bench.run_unattributed_pct"] - 59.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_is_valid_json_with_every_declared_metric() {
        let mut r = RunResult { attempted: 3, ..RunResult::default() };
        r.metrics.insert("wall_s".into(), 1.25);
        let line = r.to_json(&spec::end_to_end());
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(crate::json::Json::as_f64), Some(3.0));
        let metrics = v.get("metrics").unwrap();
        for m in spec::end_to_end() {
            let e = metrics.get(&m.name).unwrap();
            assert_eq!(e.get("unit").and_then(crate::json::Json::as_str), Some(m.unit));
        }
        let wall = metrics.get("wall_s").and_then(|e| e.get("value"));
        assert_eq!(wall.and_then(crate::json::Json::as_f64), Some(1.25));
    }
}
