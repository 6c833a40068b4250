//! Fig. 16 — aggregated throughput of DTS(-Φ) vs LIA in FatTree and VL2.
//!
//! Paper shape: the new algorithm gets as good utilization as LIA in both
//! fabrics (the energy saving of Fig. 15 is not bought with throughput).

use super::fig15;
use super::sims::{DcKey, Sims};
use crate::{pct_of, table, Scale};

/// The Fig. 16 runs at `scale`: Fig. 15's, read for throughput.
pub fn keys(scale: Scale) -> Vec<DcKey> {
    fig15::keys(scale)
}

/// Runs the Fig. 16 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    // Each fabric's LIA row is the utilization baseline; a starved LIA cell
    // renders "-" rather than dividing by zero.
    let rows = fig15::rows(scale, sims, |r, lia| {
        vec![
            crate::mbps(r.aggregate_goodput_bps),
            pct_of(r.aggregate_goodput_bps, lia.aggregate_goodput_bps, 1),
        ]
    });
    table(&["fabric", "algorithm", "agg goodput (Mb/s)", "vs lia"], &rows)
}
