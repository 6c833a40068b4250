//! Fig. 15 — energy saving from the compensative parameter φ (DTS-Φ) over
//! LIA in FatTree and VL2 with many subflows per connection.
//!
//! Paper shape: the extended algorithm saves up to ≈ 20 % energy in the
//! hierarchical fabrics.

use super::sims::{DcKey, Sims};
use crate::{pct_of, table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{CcChoice, DcKind, DcOptions};

/// The grid Figs. 15 and 16 share: LIA, DTS and `phi` on FatTree and VL2 at
/// the scale's largest subflow count, one key per (fabric, algorithm),
/// grouped per fabric with LIA — each group's baseline — first.
pub(super) fn grid(scale: Scale, phi: CcChoice) -> Vec<DcKey> {
    let (fabrics, subflows, duration) = match scale {
        Scale::Smoke => ([DcKind::FatTree { k: 4 }, DcKind::Vl2 { scale: 8 }], 2, 1.0),
        Scale::Quick => ([DcKind::FatTree { k: 4 }, DcKind::Vl2 { scale: 4 }], 4, 5.0),
        Scale::Full => ([DcKind::FatTree { k: 8 }, DcKind::Vl2 { scale: 1 }], 8, 20.0),
    };
    let opts = DcOptions { n_subflows: subflows, duration_s: duration, ..DcOptions::default() };
    let choices = [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts(), phi];
    fabrics.iter().flat_map(|&fabric| choices.map(|cc| (fabric, cc, opts))).collect()
}

/// Algorithms per fabric in [`grid`].
pub(super) const GROUP: usize = 3;

/// Runs the Fig. 15 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    // A heavier price weight suits datacenter windows (κ per Equation (7) is
    // a per-user weight; DC BDPs are tiny, so the w² drain needs more κ).
    let dc_phi =
        mptcp_energy::DtsPhiConfig { kappa: 1e-3, queue_target_s: 1e-3, ..Default::default() };
    let keys = grid(scale, CcChoice::DtsPhi(dc_phi));
    let mut rows = Vec::new();
    for (keys, group) in keys.chunks(GROUP).zip(sims.datacenter(&keys).chunks(GROUP)) {
        // The LIA row of each fabric is the savings baseline.
        let lia_energy = group[0].total_energy_j;
        for ((fabric, ..), r) in keys.iter().zip(group) {
            rows.push(vec![
                fabric.name().to_owned(),
                r.label.clone(),
                format!("{:.0}", r.total_energy_j),
                pct_of(lia_energy - r.total_energy_j, lia_energy, 1),
                format!("{:.1}", r.joules_per_gbit),
            ]);
        }
    }
    table(&["fabric", "algorithm", "energy (J)", "saving vs lia", "J/Gbit"], &rows)
}
