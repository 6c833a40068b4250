//! Fig. 3 — energy and power vs throughput of MPTCP.
//!
//! (a) Wired Ethernet, available bandwidth 200 → 1000 Mb/s, fixed transfer:
//!     total energy *decreases* with throughput while power rises gently
//!     (≈ 15 % end to end, non-linear).
//! (b) WiFi, 10 → 50 Mb/s: power rises sharply (≈ 90 %+, linear).

use crate::{table, Scale};
use congestion::AlgorithmKind;
use energy_model::{PhoneModel, WiredCpuModel};
use mptcp_energy::scenarios::{CcChoice, FlowResult};
use netsim::{LinkConfig, SimDuration, SimTime, Simulator};
use topology::TwoPath;
use transport::{attach_flow, FlowConfig, DEFAULT_MSS_BYTES};

fn ethernet_point(total_bps: u64, bytes: u64) -> (f64, f64, f64) {
    let mut sim = Simulator::new(3);
    // BDP-sized buffers, as on an autotuned testbed: queueing delay is then
    // a constant multiple of base RTT across the bandwidth sweep, so the
    // power curve isolates the throughput term (the paper's Fig. 3a).
    let nic_bps = total_bps / 2;
    let bdp_pkts =
        ((nic_bps as f64 * 0.008) / (f64::from(DEFAULT_MSS_BYTES) * 8.0)).ceil() as usize;
    let params =
        LinkConfig::new(nic_bps, SimDuration::from_millis(2)).queue_limit(bdp_pkts.max(16));
    let tp = TwoPath::symmetric(&mut sim, params);
    let cc = CcChoice::Base(AlgorithmKind::Lia);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0)
            .transfer_bytes(bytes)
            .rcv_buf_pkts(2048)
            .sample_every(SimDuration::from_millis(20)),
        cc.build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(600.0));
    let r = FlowResult::collect(&sim, flow, cc.label(), &mut WiredCpuModel::i7_3770());
    (r.energy.joules, r.energy.mean_power_w, r.goodput_bps)
}

fn wifi_point(bps: u64, bytes: u64) -> (f64, f64, f64) {
    let mut sim = Simulator::new(3);
    let params = LinkConfig::new(bps, SimDuration::from_millis(10)).queue_limit(100);
    let tp = TwoPath::symmetric(&mut sim, params);
    let cc = CcChoice::Base(AlgorithmKind::Reno);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_bytes(bytes).sample_every(SimDuration::from_millis(20)),
        cc.build(1),
        &tp.first_only(),
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(600.0));
    let r = FlowResult::collect(&sim, flow, cc.label(), &mut PhoneModel::nexus5());
    (r.energy.joules, r.energy.mean_power_w, r.goodput_bps)
}

/// Runs the Fig. 3 harness.
pub fn run(scale: Scale) -> String {
    // Paper: 10 GB wired / 500 MB WiFi. Scaled per EXPERIMENTS.md.
    let (wired_bytes, wifi_bytes) = match scale {
        Scale::Smoke => (8_000_000, 2_000_000),
        Scale::Quick => (100_000_000, 20_000_000),
        Scale::Full => (1_000_000_000, 100_000_000),
    };
    let mut rows = Vec::new();
    for mbps in [200u64, 400, 600, 800, 1000] {
        let (j, p, g) = ethernet_point(mbps * 1_000_000, wired_bytes);
        rows.push(vec![
            "ethernet".to_owned(),
            mbps.to_string(),
            format!("{j:.1}"),
            format!("{p:.2}"),
            crate::mbps(g),
        ]);
    }
    for mbps in [10u64, 20, 30, 40, 50] {
        let (j, p, g) = wifi_point(mbps * 1_000_000, wifi_bytes);
        rows.push(vec![
            "wifi".to_owned(),
            mbps.to_string(),
            format!("{j:.1}"),
            format!("{p:.3}"),
            crate::mbps(g),
        ]);
    }
    table(&["medium", "bandwidth (Mb/s)", "energy (J)", "mean power (W)", "goodput (Mb/s)"], &rows)
}
