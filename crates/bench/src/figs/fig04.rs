//! Fig. 4 — CPU power of MPTCP under different path delays at matched
//! throughput.
//!
//! The paper's knob, reproduced exactly: path delay is raised by running
//! more subflows per NIC (`num_subflows` in the kernel's fullmesh path
//! manager) — aggregate throughput stays NIC-limited and unchanged, but the
//! shared queue inflates every subflow's RTT. Paper shape: the high-delay
//! configuration draws more CPU power.

use crate::{table, Scale};
use congestion::AlgorithmKind;
use energy_model::WiredCpuModel;
use mptcp_energy::scenarios::{CcChoice, FlowResult};
use netsim::{SimDuration, SimTime, Simulator};
use topology::TwoPath;
use transport::{attach_flow, FlowConfig, PathSpec};

fn point(subflows_per_nic: usize, duration_s: f64) -> (f64, f64, f64) {
    let mut sim = Simulator::new(4);
    let tp = TwoPath::dual_nic(&mut sim, 50_000_000, SimDuration::from_millis(10));
    let both = tp.both();
    let paths: Vec<PathSpec> = (0..2 * subflows_per_nic).map(|i| both[i % 2].clone()).collect();
    let cc = CcChoice::Base(AlgorithmKind::Lia);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).rcv_buf_pkts(4096).sample_every(SimDuration::from_millis(20)),
        cc.build(paths.len()),
        &paths,
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(duration_s));
    let sender = flow.sender_ref(&sim);
    // Skip the slow-start warmup when averaging power.
    let samples = sender.samples();
    let steady = &samples[samples.len() / 3..];
    let r = FlowResult::metered(&sim, flow, cc.label(), &mut WiredCpuModel::i7_3770(), steady);
    (r.energy.mean_power_w, r.goodput_bps, sender.cc_states()[0].srtt * 1000.0)
}

/// Runs the Fig. 4 harness.
pub fn run(scale: Scale) -> String {
    let duration = match scale {
        Scale::Smoke => 6.0,
        Scale::Quick => 30.0,
        Scale::Full => 90.0,
    };
    let mut rows = Vec::new();
    for (label, per_nic) in [("1 subflow/NIC (low RTT)", 1usize), ("2 subflows/NIC (high RTT)", 2)]
    {
        let (p, g, srtt) = point(per_nic, duration);
        rows.push(vec![label.to_owned(), format!("{srtt:.1}"), format!("{p:.2}"), crate::mbps(g)]);
    }
    table(&["config", "srtt (ms)", "mean power (W)", "goodput (Mb/s)"], &rows)
}
