//! Fig. 15 — energy saving from the compensative parameter φ (DTS-Φ) over
//! LIA in FatTree and VL2 with many subflows per connection.
//!
//! Paper shape: the extended algorithm saves up to ≈ 20 % energy in the
//! hierarchical fabrics.

use super::fig12_14;
use super::sims::{DcKey, Sims};
use crate::{pct_of, table, Scale};
use mptcp_energy::scenarios::{CcChoice, DcKind, FleetResult};
use mptcp_energy::DtsPhiConfig;

/// The Figs. 15 and 16 runs at `scale`: Figs. 13–14's FatTree and VL2 LIA
/// runs at the largest subflow count, each followed by DTS and DTS-Φ on its
/// fabric and options, so every group of three keys opens with its baseline.
pub fn keys(scale: Scale) -> Vec<DcKey> {
    // A heavier price weight suits datacenter windows (κ per Equation (7) is
    // a per-user weight; DC BDPs are tiny, so the w² drain needs more κ).
    let phi = DtsPhiConfig { kappa: 1e-3, queue_target_s: 1e-3, ..Default::default() };
    let lia = fig12_14::keys(scale);
    let most = lia.iter().map(|(_, _, o)| o.n_subflows).max();
    lia.into_iter()
        .filter(|(f, _, o)| !matches!(f, DcKind::BCube { .. }) && Some(o.n_subflows) == most)
        .flat_map(|(f, lia, o)| [lia, CcChoice::dts(), CcChoice::DtsPhi(phi)].map(|cc| (f, cc, o)))
        .collect()
}

/// The rows of Figs. 15 and 16: fabric, algorithm, then `cols` of each run
/// and its fabric's LIA run.
pub(super) fn rows(
    scale: Scale,
    sims: &Sims,
    cols: impl Fn(&FleetResult, &FleetResult) -> Vec<String>,
) -> Vec<Vec<String>> {
    let keys = keys(scale);
    let runs: Vec<_> = keys.iter().zip(sims.datacenter(&keys)).collect();
    let mut rows = Vec::new();
    for group in runs.chunk_by(|(a, _), (b, _)| a.0 == b.0) {
        for ((fabric, ..), r) in group {
            let mut row = vec![fabric.name().to_owned(), r.label.clone()];
            row.extend(cols(r, &group[0].1));
            rows.push(row);
        }
    }
    rows
}

/// Runs the Fig. 15 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let rows = rows(scale, sims, |r, lia| {
        vec![
            format!("{:.0}", r.total_energy_j),
            pct_of(lia.total_energy_j - r.total_energy_j, lia.total_energy_j, 1),
            format!("{:.1}", r.joules_per_gbit),
        ]
    });
    table(&["fabric", "algorithm", "energy (J)", "saving vs lia", "J/Gbit"], &rows)
}
