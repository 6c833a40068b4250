//! Ablations over DTS's design choices:
//!
//! * sigmoid slope (the `−10(…)` steepness in Equation (5));
//! * the Pareto scale `c` (the paper argues `c = 1` preserves fairness);
//! * exact exponential vs Algorithm 1's fixed-point Taylor expansion.
//!
//! Each variant runs the Fig. 5(b) bursty two-path scenario (energy to move
//! 8 MB) and, for `c`, the fluid-model friendliness ratio. A friendliness
//! solve that misses its tolerance prints `unconverged` in its cell and makes
//! the process exit 1.
//!
//! Pass --smoke/--quick/--full and optionally --jobs N (default: available
//! parallelism, or the SWEEP_JOBS env var) or --workers N for supervised
//! multi-process execution. Every variant is an independent simulation
//! cell; all three sections form ONE fabric grid, so with --journal PATH a
//! killed sweep resumes across section boundaries and the recomputed tables
//! are byte-identical. A panicking or deadline-blown variant
//! (SWEEP_DEADLINE_S) is retried and, on exhaustion, quarantined: its row is
//! dropped, the rest of the ablation still prints, and the process exits 1
//! with a partial-sweep note on stderr.
//!
//! With `--trace DIR` each cell writes a JSONL event trace to
//! `DIR/<section>-<label>.jsonl`, summarizable with the `trace_dump` binary. Tracing never changes results (pinned by
//! `tests/sweep_determinism.rs`).

use bench_harness::fabric::{CellOutcome, FabricCell, Fingerprint};
use bench_harness::{table, Cli, Scale};
use mptcp_energy::scenarios::{run_two_path_bursty_traced, BurstyOptions, CcChoice};
use mptcp_energy::{friendliness_ratio, CcModel, DtsConfig, Psi};
use obs::TraceSink;
use std::path::{Path, PathBuf};

fn opts(scale: Scale) -> BurstyOptions {
    let transfer = match scale {
        Scale::Smoke => 4_000_000,
        Scale::Quick => 24_000_000,
        Scale::Full => 100_000_000,
    };
    BurstyOptions { transfer_bytes: Some(transfer), duration_s: 600.0, ..BurstyOptions::default() }
}

fn run_cfg(cfg: DtsConfig, o: &BurstyOptions, sink: Option<Box<dyn TraceSink>>) -> (f64, f64, f64) {
    let (r, _counters) = run_two_path_bursty_traced(&CcChoice::Dts(cfg), o, sink);
    (r.energy.joules, r.finish_s.unwrap_or(f64::NAN), r.goodput_bps / 1e6)
}

/// One labelled `DtsConfig` variant as a fabric cell. The fingerprint covers
/// the section, label, and scale-dependent transfer size, so a journal from
/// one ablation grid refuses to feed another.
fn cell(
    section: &'static str,
    label: String,
    cfg: DtsConfig,
    o: BurstyOptions,
    trace: Option<&Path>,
) -> FabricCell<(f64, f64, f64)> {
    let file_label = format!("{section}-{label}");
    let trace: Option<PathBuf> = trace.map(Path::to_path_buf);
    let fp = Fingerprint::new()
        .str("ablation")
        .str(section)
        .str(&label)
        .u64(o.transfer_bytes.unwrap_or(0))
        .u64(o.seed);
    FabricCell::new(label, o.seed, move || {
        let sink = trace.as_deref().and_then(|d| obs::jsonl_sink_in(d, &file_label));
        run_cfg(cfg, &o, sink)
    })
    .config(fp)
}

/// Turns one section's outcomes into table rows, skipping quarantined cells
/// (their absence is reported through the partial-sweep note). `extra`
/// appends section-specific columns given the variant's input-order index.
fn rows_for(
    outcomes: &[CellOutcome<(f64, f64, f64)>],
    extra: impl Fn(usize) -> Vec<String>,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (i, out) in outcomes.iter().enumerate() {
        if let CellOutcome::Done { summary, .. } = out {
            let (j, fct, mbps) = summary.output;
            let mut row = vec![
                summary.label.clone(),
                format!("{j:.1}"),
                format!("{fct:.1}"),
                format!("{mbps:.2}"),
            ];
            row.extend(extra(i));
            rows.push(row);
        }
    }
    rows
}

fn main() {
    let cli = Cli::from_args();
    let o = opts(cli.scale);
    let trace = cli.trace.as_deref();
    if let Some(dir) = trace {
        eprintln!("writing per-cell JSONL traces to {}", dir.display());
    }

    let slopes = [2.0f64, 5.0, 10.0, 20.0];
    let cs = [0.5f64, 1.0, 1.5, 2.0];
    let eps = [("exact", false), ("fixed-point", true)];

    // One grid across all three sections, so a single journal checkpoints
    // the whole ablation and a resume never replays a finished section.
    let mut cells = Vec::new();
    for slope in slopes {
        let cfg = DtsConfig { slope, ..DtsConfig::default() };
        cells.push(cell("slope", format!("{slope}"), cfg, o, trace));
    }
    for c in cs {
        let cfg = DtsConfig { c, ..DtsConfig::default() };
        cells.push(cell("c", format!("{c}"), cfg, o, trace));
    }
    for (name, fixed) in eps {
        let cfg = DtsConfig { fixed_point: fixed, ..DtsConfig::default() };
        cells.push(cell("eps", name.to_owned(), cfg, o, trace));
    }

    let report = cli.sweep("ablation_dts", cells);
    let (slope_out, rest) = report.outcomes.split_at(slopes.len());
    let (c_out, eps_out) = rest.split_at(cs.len());

    println!("== sigmoid slope sweep (c = 1, exact exp) ==");
    print!(
        "{}",
        table(&["slope", "energy (J)", "fct (s)", "Mb/s"], &rows_for(slope_out, |_| Vec::new()))
    );

    println!("\n== Pareto scale c sweep (slope 10) ==");
    // Fluid friendliness at the design-point ratio: with E[ε] = 1 the
    // aggregate over one shared bottleneck should not exceed one TCP for
    // c ≤ 1 (the paper's fairness argument for c = 1).
    let friend: Vec<_> = cs
        .iter()
        .map(|&c| {
            let psi = Psi::Dts(DtsConfig { c, ..DtsConfig::default() });
            friendliness_ratio(CcModel::loss_based(psi), 1000.0, 0.1, 2)
        })
        .collect();
    let rows = rows_for(c_out, |i| match friend[i] {
        Ok(ratio) => vec![format!("{ratio:.3}")],
        Err(_) => vec!["unconverged".to_owned()],
    });
    print!("{}", table(&["c", "energy (J)", "fct (s)", "Mb/s", "fluid friendliness"], &rows));

    println!("\n== exact exp vs Algorithm 1 fixed-point Taylor ==");
    print!(
        "{}",
        table(&["epsilon", "energy (J)", "fct (s)", "Mb/s"], &rows_for(eps_out, |_| Vec::new()))
    );

    let mut missed = false;
    for (c, f) in cs.iter().zip(&friend) {
        if let Err(miss) = f {
            eprintln!("fluid friendliness at c = {c} did not reach equilibrium: {miss:?}");
            missed = true;
        }
    }
    report.exit_if_partial();
    if missed {
        std::process::exit(1);
    }
}
