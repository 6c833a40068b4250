//! Fig. 1 — CPU power consumed by TCP vs MPTCP as the number of subflows
//! grows (i7-3770 testbed, two 100 Mb/s NICs).
//!
//! Paper shape: MPTCP > TCP, and MPTCP power increases with the number of
//! subflows.

use super::sims::{Sims, TestbedKey};
use crate::{table, Scale};
use congestion::AlgorithmKind;
use energy_model::{energy_of_flow, WiredCpuModel};
use mptcp_energy::scenarios::CcChoice;
use netsim::{SimDuration, SimTime, Simulator};
use topology::TwoPath;
use transport::{attach_flow, FlowConfig, PathSpec};

/// The simulator seed of every testbed run.
pub(super) const SEED: u64 = 42;

/// `(mean CPU power W, goodput b/s)` of one run: a single subflow is TCP
/// over one NIC, more are MPTCP subflows alternating over the two.
pub(super) fn mean_power(n_subflows: usize, duration_s: f64) -> (f64, f64) {
    let mut sim = Simulator::new(SEED);
    let tp = TwoPath::dual_nic(&mut sim, 100_000_000, SimDuration::from_millis(5));
    let both = tp.both();
    let paths: Vec<PathSpec> = (0..n_subflows).map(|i| both[i % 2].clone()).collect();
    let cc = if n_subflows == 1 {
        CcChoice::Base(AlgorithmKind::Reno).build(1)
    } else {
        CcChoice::Base(AlgorithmKind::Lia).build(n_subflows)
    };
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).rcv_buf_pkts(4096).sample_every(SimDuration::from_millis(20)),
        cc,
        &paths,
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(duration_s));
    let sender = flow.sender_ref(&sim);
    let mut model = WiredCpuModel::i7_3770();
    let report = energy_of_flow(&mut model, sender.samples());
    (report.mean_power_w, sender.goodput_bps(sim.now()))
}

/// Runs the Fig. 1 harness.
pub fn run(scale: Scale, sims: &Sims) -> String {
    let duration = match scale {
        Scale::Smoke => 3.0,
        Scale::Quick => 15.0,
        Scale::Full => 60.0,
    };
    let max_subflows = match scale {
        Scale::Smoke => 4,
        Scale::Quick | Scale::Full => 8,
    };
    let keys: Vec<TestbedKey> = (1..=max_subflows).map(|n| (n, duration)).collect();
    let mut rows = Vec::new();
    for (&(n, _), r) in keys.iter().zip(sims.testbed(&keys)) {
        let (power, goodput) = *r;
        rows.push(vec![
            if n == 1 { "tcp (1 NIC)" } else { "mptcp (2 NICs)" }.to_owned(),
            n.to_string(),
            format!("{power:.2}"),
            crate::mbps(goodput),
        ]);
    }
    table(&["config", "subflows", "mean power (W)", "goodput (Mb/s)"], &rows)
}
