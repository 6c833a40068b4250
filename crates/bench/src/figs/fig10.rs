//! Fig. 10 — the EC2 VPC experiment: TCP, DCTCP, LIA and DTS moving bulk
//! data between multihomed instances (4 × 256 Mb/s ENIs each).
//!
//! Paper shape: the multipath algorithms save up to ≈ 70 % of the aggregate
//! energy of the single-path baselines (they finish ≈ 4× sooner on 4 ENIs),
//! and DTS performs like LIA in this benign datacenter network.

use super::Sims;
use crate::{pct_of, table, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{CcChoice, Ec2Options};

/// The Fig. 10 runs at `scale`: TCP, DCTCP, LIA and DTS on one fleet, the
/// single-path TCP baseline first.
pub fn keys(scale: Scale) -> Vec<(CcChoice, Ec2Options)> {
    let opts = match scale {
        Scale::Smoke => Ec2Options {
            n_hosts: 4,
            transfer_bytes: 8 * 1024 * 1024,
            horizon_s: 120.0,
            ..Ec2Options::default()
        },
        Scale::Quick => Ec2Options {
            n_hosts: 10,
            transfer_bytes: 64 * 1024 * 1024,
            horizon_s: 600.0,
            ..Ec2Options::default()
        },
        Scale::Full => Ec2Options {
            n_hosts: 40,
            transfer_bytes: 512 * 1024 * 1024,
            horizon_s: 3600.0,
            ..Ec2Options::default()
        },
    };
    let choices = [
        CcChoice::Base(AlgorithmKind::Reno),
        CcChoice::Base(AlgorithmKind::Dctcp),
        CcChoice::Base(AlgorithmKind::Lia),
        CcChoice::dts(),
    ];
    choices.map(|cc| (cc, opts)).to_vec()
}

/// Runs the Fig. 10 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let results = sims.ec2(&keys(scale));
    // The single-path TCP row is the savings baseline (first cell).
    let tcp_energy = results.first().map_or(0.0, |r| r.total_energy_j);
    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.label.clone(),
            format!("{:.0}", r.total_energy_j),
            pct_of(tcp_energy - r.total_energy_j, tcp_energy, 0),
            crate::mbps(r.aggregate_goodput_bps),
            r.mean_finish_s.map_or("-".to_owned(), |t| format!("{t:.1}")),
            format!("{:.0}%", 100.0 * r.completion_rate),
        ]);
    }
    table(
        &["algorithm", "energy (J)", "vs tcp", "agg goodput (Mb/s)", "mean fct (s)", "done"],
        &rows,
    )
}
