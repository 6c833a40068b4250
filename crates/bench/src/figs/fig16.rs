//! Fig. 16 — aggregated throughput of DTS(-Φ) vs LIA in FatTree and VL2.
//!
//! Paper shape: the new algorithm gets as good utilization as LIA in both
//! fabrics (the energy saving of Fig. 15 is not bought with throughput).

use super::fig15::{grid, GROUP};
use super::sims::{DcKey, Sims};
use crate::{pct_of, table, Scale};
use mptcp_energy::scenarios::CcChoice;

/// The Fig. 16 runs at `scale`: Fig. 15's grid with DTS-Φ at the default κ.
pub fn keys(scale: Scale) -> Vec<DcKey> {
    grid(scale, CcChoice::dts_phi())
}

/// Runs the Fig. 16 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let keys = keys(scale);
    let mut rows = Vec::new();
    for (keys, group) in keys.chunks(GROUP).zip(sims.datacenter(&keys).chunks(GROUP)) {
        // Each fabric's LIA row is the utilization baseline; a starved LIA
        // cell renders "-" rather than dividing by zero.
        let lia_tput = group[0].aggregate_goodput_bps;
        for ((fabric, ..), r) in keys.iter().zip(group) {
            rows.push(vec![
                fabric.name().to_owned(),
                r.label.clone(),
                crate::mbps(r.aggregate_goodput_bps),
                pct_of(r.aggregate_goodput_bps, lia_tput, 1),
            ]);
        }
    }
    table(&["fabric", "algorithm", "agg goodput (Mb/s)", "vs lia"], &rows)
}
