//! Fig. 7 — traffic-shifting comparison of the existing algorithms in the
//! Fig. 5(b) scenario (two paths whose quality flips under Pareto bursts).
//!
//! Paper shape: LIA outperforms the other existing algorithms at shifting
//! traffic in this harsh scenario.

use super::Sims;
use crate::{table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{BurstyOptions, CcChoice};

/// The Fig. 5(b) run Figs. 7–9 share at `scale` (seed 1; Fig. 9 adds
/// seeds). Energy is measured to *completion* of a fixed transfer, the
/// paper's Equation-(2) metric E = (M/mean-throughput)·ΣP.
pub(super) fn bursty_opts(scale: Scale) -> BurstyOptions {
    let (transfer, horizon) = match scale {
        Scale::Smoke => (8_000_000, 120.0),
        Scale::Quick => (60_000_000, 600.0),
        Scale::Full => (400_000_000, 1800.0),
    };
    BurstyOptions {
        duration_s: horizon,
        transfer_bytes: Some(transfer),
        ..BurstyOptions::default()
    }
}

/// Runs the Fig. 7 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let algorithms = [
        AlgorithmKind::Ewtcp,
        AlgorithmKind::Coupled,
        AlgorithmKind::Lia,
        AlgorithmKind::Olia,
        AlgorithmKind::Balia,
        AlgorithmKind::EcMtcp,
        AlgorithmKind::WVegas,
    ];
    let opts = bursty_opts(scale);
    let mut rows = Vec::new();
    for r in sims.bursty(&algorithms.map(|kind| (CcChoice::Base(kind), opts))) {
        rows.push(vec![
            r.label.clone(),
            crate::mbps(r.goodput_bps),
            format!("{:.1}", r.energy.joules),
            r.finish_s.map_or("-".into(), |t| format!("{t:.1}")),
            format!("{:.2}", r.energy.mean_power_w),
            r.rexmits.to_string(),
        ]);
    }
    table(
        &["algorithm", "goodput (Mb/s)", "energy (J)", "fct (s)", "mean power (W)", "rexmits"],
        &rows,
    )
}
