//! Fig. 6 — box-whisker energy of the four TCP-friendly algorithms (LIA,
//! OLIA, Balia, ecMTCP) in the Fig. 5(a) shared-bottleneck scenario with
//! N MPTCP users (16 MB each) and 2N TCP competitors.
//!
//! Paper shape: OLIA consumes the least average energy, increasingly so at
//! large N — Pareto-optimality converts into shorter transfers.

use super::Sims;
use crate::{table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{CcChoice, SharedOptions};
use mptcp_energy::FiveNumber;

/// The Fig. 6 runs of `kinds` at `scale`: every N with its transfer size,
/// N-major. `fluid_fig6` solves the fluid twin of the same keys.
pub fn keys(scale: Scale, kinds: &[AlgorithmKind]) -> Vec<(CcChoice, SharedOptions)> {
    let (n_values, transfer): (&[usize], u64) = match scale {
        Scale::Smoke => (&[5], 1024 * 1024),
        Scale::Quick => (&[10, 20], 8 * 1024 * 1024),
        Scale::Full => (&[10, 20, 50, 100], 16 * 1024 * 1024),
    };
    n_values
        .iter()
        .flat_map(|&n| {
            let opts =
                SharedOptions { n_users: n, transfer_bytes: transfer, ..SharedOptions::default() };
            kinds.iter().map(move |&kind| (CcChoice::Base(kind), opts))
        })
        .collect()
}

/// Runs the Fig. 6 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let keys = keys(scale, &AlgorithmKind::PAPER_FOUR);
    let mut rows = Vec::new();
    for ((cc, opts), energies) in keys.iter().zip(sims.shared(&keys)) {
        rows.push(vec![
            opts.n_users.to_string(),
            cc.label(),
            format!("{:.1}", mptcp_energy::mean(&energies)),
            FiveNumber::of(&energies).row(),
        ]);
    }
    table(&["N", "algorithm", "mean energy (J)", "box-whisker (J)"], &rows)
}
