//! Figs. 12–14 — energy overhead of LIA as the number of subflows grows, in
//! BCube, FatTree and VL2.
//!
//! Paper shape: more subflows greatly reduce energy overhead in BCube
//! (server-centric, each subflow leaves through its own NIC, so host
//! capacity multiplies), but fail to save energy in FatTree and VL2 (all
//! subflows share the host's single NIC while each adds CPU overhead).
//!
//! "Energy overhead" is reported as joules per gigabit delivered.

use super::sims::{DcKey, Sims};
use crate::{table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{CcChoice, DcKind, DcOptions};

/// The Figs. 12–14 runs at `scale`: LIA at each subflow count, ascending,
/// on BCube, FatTree and VL2 in that order.
pub fn keys(scale: Scale) -> Vec<DcKey> {
    let (fabrics, subflows, duration): (Vec<DcKind>, &[usize], f64) = match scale {
        Scale::Smoke => (
            vec![DcKind::BCube { n: 4, k: 1 }, DcKind::FatTree { k: 4 }, DcKind::Vl2 { scale: 8 }],
            &[1, 2],
            1.0,
        ),
        Scale::Quick => (
            vec![DcKind::BCube { n: 4, k: 2 }, DcKind::FatTree { k: 4 }, DcKind::Vl2 { scale: 4 }],
            &[1, 2, 4],
            5.0,
        ),
        Scale::Full => (
            vec![DcKind::BCube { n: 4, k: 3 }, DcKind::FatTree { k: 8 }, DcKind::Vl2 { scale: 1 }],
            &[1, 2, 4, 8],
            20.0,
        ),
    };
    fabrics
        .iter()
        .flat_map(|&fabric| {
            subflows.iter().map(move |&n| {
                let opts =
                    DcOptions { n_subflows: n, duration_s: duration, ..DcOptions::default() };
                (fabric, CcChoice::Base(AlgorithmKind::Lia), opts)
            })
        })
        .collect()
}

/// Runs the Figs. 12–14 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let keys = keys(scale);
    let mut rows = Vec::new();
    for ((fabric, _, opts), r) in keys.iter().zip(sims.datacenter(&keys)) {
        rows.push(vec![
            fabric.name().to_owned(),
            opts.n_subflows.to_string(),
            format!("{:.1}", r.joules_per_gbit),
            crate::mbps(r.aggregate_goodput_bps),
            format!("{:.0}", r.total_energy_j),
        ]);
    }
    table(&["fabric", "subflows", "J/Gbit", "agg goodput (Mb/s)", "energy (J)"], &rows)
}
