//! Fig. 8 — throughput/power trace of LIA vs modified LIA (DTS) in the
//! Fig. 5(b) scenario.
//!
//! Paper shape: DTS tracks LIA's throughput while drawing less power during
//! the bad-path episodes.

use super::Sims;
use crate::{table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{CcChoice, FlowResult};

fn downsample(r: &FlowResult, points: usize) -> Vec<(f64, f64, f64)> {
    let n = r.tput_trace.len().min(r.energy.trace.len());
    if n == 0 {
        return Vec::new();
    }
    let stride = (n / points.max(1)).max(1);
    (0..n)
        .step_by(stride)
        .map(|i| (r.tput_trace[i].0, r.tput_trace[i].1, r.energy.trace[i].1))
        .collect()
}

/// Runs the Fig. 8 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let opts = super::fig07::bursty_opts(scale);
    let pair = sims.bursty(&[(CcChoice::Base(AlgorithmKind::Lia), opts), (CcChoice::dts(), opts)]);
    let (lia, dts) = (&pair[0], &pair[1]);
    let points = 12;
    let (la, da) = (downsample(lia, points), downsample(dts, points));
    let mut rows = Vec::new();
    for (l, d) in la.iter().zip(&da) {
        rows.push(vec![
            format!("{:.1}", l.0),
            crate::mbps(l.1),
            format!("{:.2}", l.2),
            crate::mbps(d.1),
            format!("{:.2}", d.2),
        ]);
    }
    let mut out =
        table(&["t (s)", "lia tput (Mb/s)", "lia P (W)", "dts tput (Mb/s)", "dts P (W)"], &rows);
    out.push_str(&format!(
        "totals: lia {:.1} J @ {} Mb/s | dts {:.1} J @ {} Mb/s\n",
        lia.energy.joules,
        crate::mbps(lia.goodput_bps),
        dts.energy.joules,
        crate::mbps(dts.goodput_bps),
    ));
    out
}
