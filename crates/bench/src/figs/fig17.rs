//! Fig. 17 — heterogeneous wireless: WiFi (10 Mb/s, 40 ms) + 4G (20 Mb/s,
//! 100 ms) with bursty cross traffic, phone radio energy model.
//!
//! Paper shape: DTS saves up to ≈ 30 % energy versus LIA, with the
//! compensative parameter contributing; DTS trades some throughput for that
//! saving.

use super::Sims;
use crate::{pct_of, table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{CcChoice, WirelessOptions};

/// The Fig. 17 runs at `scale`: LIA, DTS and DTS-Φ per seed, LIA — each
/// seed's baseline — first.
pub fn keys(scale: Scale) -> Vec<(CcChoice, WirelessOptions)> {
    let (duration, seeds): (f64, &[u64]) = match scale {
        Scale::Smoke => (20.0, &[1]),
        Scale::Quick => (100.0, &[1, 2]),
        Scale::Full => (200.0, &[1, 2, 3, 4]),
    };
    // The radio scenario wants a strong price weight: the LTE path's delay
    // excess is large (≈ 100 ms over a 5 ms target), and throttling it is
    // where the radio energy lives (κ per Equation (7) is per-deployment).
    let wireless_phi = mptcp_energy::DtsPhiConfig { kappa: 2e-3, ..Default::default() };
    let choices =
        [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts(), CcChoice::DtsPhi(wireless_phi)];
    seeds
        .iter()
        .flat_map(|&seed| {
            let opts = WirelessOptions { seed, duration_s: duration, ..WirelessOptions::default() };
            choices.map(|cc| (cc, opts))
        })
        .collect()
}

/// Algorithms per seed in [`keys`].
const GROUP: usize = 3;

/// Runs the Fig. 17 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let keys = keys(scale);
    let mut rows = Vec::new();
    for (keys, group) in keys.chunks(GROUP).zip(sims.wireless(&keys).chunks(GROUP)) {
        // Each seed's LIA row is the savings baseline; a starved LIA cell
        // (wireless loss can kill a subflow) renders "-" instead of NaN.
        let lia_energy = group[0].energy.joules;
        for ((_, opts), r) in keys.iter().zip(group) {
            rows.push(vec![
                opts.seed.to_string(),
                r.label.clone(),
                format!("{:.1}", r.energy.joules),
                pct_of(lia_energy - r.energy.joules, lia_energy, 1),
                crate::mbps(r.goodput_bps),
            ]);
        }
    }
    table(&["seed", "algorithm", "energy (J)", "saving vs lia", "goodput (Mb/s)"], &rows)
}
