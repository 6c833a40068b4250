//! Fig. 9 — energy of DTS vs LIA in the Fig. 5(b) scenario across repeated
//! runs.
//!
//! Paper shape: DTS reduces energy by up to 20 % versus LIA without
//! degrading throughput.

use super::Sims;
use crate::{table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{BurstyOptions, CcChoice};

/// The Fig. 9 runs at `scale`: a LIA, DTS pair per seed.
pub fn keys(scale: Scale) -> Vec<(CcChoice, BurstyOptions)> {
    let seeds: &[u64] = match scale {
        Scale::Smoke => &[1],
        Scale::Quick => &[1, 2, 3],
        Scale::Full => &[1, 2, 3, 4, 5, 6, 7, 8],
    };
    seeds
        .iter()
        .flat_map(|&seed| {
            let opts = BurstyOptions { seed, ..super::fig07::bursty_opts(scale) };
            [(CcChoice::Base(AlgorithmKind::Lia), opts), (CcChoice::dts(), opts)]
        })
        .collect()
}

/// Runs the Fig. 9 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let keys = keys(scale);
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for (pair_keys, pair) in keys.chunks(2).zip(sims.bursty(&keys).chunks(2)) {
        let (seed, lia, dts) = (pair_keys[0].1.seed, &pair[0], &pair[1]);
        let saving = 100.0 * (lia.energy.joules - dts.energy.joules) / lia.energy.joules;
        savings.push(saving);
        rows.push(vec![
            seed.to_string(),
            format!("{:.1}", lia.energy.joules),
            format!("{:.1}", dts.energy.joules),
            format!("{saving:.1}%"),
            crate::mbps(lia.goodput_bps),
            crate::mbps(dts.goodput_bps),
        ]);
    }
    let mut out = table(
        &["seed", "lia (J)", "dts (J)", "saving", "lia tput (Mb/s)", "dts tput (Mb/s)"],
        &rows,
    );
    out.push_str(&format!(
        "mean saving: {:.1}% | max saving: {:.1}%\n",
        mptcp_energy::mean(&savings),
        savings.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    ));
    out
}
