//! Session-level energy accounting tests: the LTE tail's contribution to a
//! bursty session, the cost of splitting a host's load over interfaces, and
//! uplink/downlink model asymmetries.

use energy_model::{energy_of_flow, LteModel, PhoneModel, PowerModel, WifiModel, WiredCpuModel};
use netsim::SimTime;
use transport::{FlowSample, SubflowSample};

/// A subflow carrying `throughput_bps` at a steady `rtt_s`, open while it
/// carries anything.
fn load(throughput_bps: f64, rtt_s: f64) -> SubflowSample {
    SubflowSample { throughput_bps, srtt_s: rtt_s, base_rtt_s: rtt_s, active: throughput_bps > 0.0 }
}

fn sample(at_s: f64, interval_s: f64, per_path_mbps: &[f64]) -> FlowSample {
    FlowSample {
        at: SimTime::from_secs_f64(at_s),
        interval_s,
        subflows: per_path_mbps.iter().map(|&m| load(m * 1e6, 0.05)).collect(),
    }
}

#[test]
fn lte_tail_energy_dominates_a_short_burst_session() {
    // 1 s of transfer followed by 14 s of idle: the 11.576 s tail at 1.06 W
    // costs far more than the transfer itself — the phenomenon that makes
    // bursty traffic expensive on LTE (and motivates radio-aware transport).
    let mut model = LteModel::mobisys2012();
    let mut samples = Vec::new();
    for i in 0..10 {
        samples.push(sample(i as f64 * 0.1, 0.1, &[5.0]));
    }
    for i in 0..140 {
        samples.push(sample(1.0 + i as f64 * 0.1, 0.1, &[0.0]));
    }
    let report = energy_of_flow(&mut model, &samples);
    let transfer_j: f64 = report.trace.iter().take(10).map(|(_, p)| p * 0.1).sum();
    let tail_j = report.joules - transfer_j;
    assert!(tail_j > 2.0 * transfer_j, "tail {tail_j} J should dominate transfer {transfer_j} J");
}

#[test]
fn back_to_back_bursts_reuse_the_tail() {
    // Two bursts 3 s apart: the radio never leaves CONNECTED/TAIL, so the
    // second burst pays no promotion.
    let mut model = LteModel::mobisys2012();
    let mut samples = Vec::new();
    for i in 0..10 {
        samples.push(sample(i as f64 * 0.1, 0.1, &[5.0]));
    }
    for i in 0..30 {
        samples.push(sample(1.0 + i as f64 * 0.1, 0.1, &[0.0]));
    }
    for i in 0..10 {
        samples.push(sample(4.0 + i as f64 * 0.1, 0.1, &[5.0]));
    }
    let report = energy_of_flow(&mut model, &samples);
    // No sample in the second burst may sit at promotion power.
    let second_burst = &report.trace[40..50];
    assert!(
        second_burst.iter().all(|(_, p)| (*p - model.promo_w).abs() > 1e-9),
        "second burst must not re-promote"
    );
}

#[test]
fn uplink_models_charge_more_per_bit() {
    let down = WifiModel::mobisys2012();
    let up = WifiModel::mobisys2012_uplink();
    assert!(up.per_mbps_w > down.per_mbps_w);
    let lte_down = LteModel::mobisys2012();
    let lte_up = LteModel::mobisys2012_uplink();
    assert!(lte_up.per_mbps_w > lte_down.per_mbps_w);
    // Uplink: LTE per-bit beats WiFi per-bit (the DTS asymmetry).
    assert!(lte_up.per_mbps_w > up.per_mbps_w);
}

#[test]
fn split_interfaces_cost_more_than_pooled() {
    // One host moving 30 Mb/s: split over two interfaces (10 + 20 Mb/s) it
    // pays a second subflow's overhead; pooled on one interface it does not.
    let mut cpu = WiredCpuModel::i7_3770();
    let split = cpu.power_w(0.0, &[load(10e6, 0.05), load(20e6, 0.05)]);
    let pooled = cpu.power_w(0.0, &[load(30e6, 0.05)]);
    assert!(
        split > pooled,
        "split across 2 ifaces {split} W must cost more than pooled {pooled} W (Fig. 1 concavity)"
    );
}

#[test]
#[allow(
    clippy::float_cmp,
    reason = "bit-reproducibility check: reset() must restore the exact same power computation, so the strict comparison is intended"
)]
fn phone_reset_between_runs_restores_idle_state() {
    let mut phone = PhoneModel::nexus5();
    let active = [load(5e6, 0.05), load(5e6, 0.1)];
    let p_first = phone.power_w(0.0, &active);
    phone.power_w(1.0, &active);
    phone.reset();
    let p_again = phone.power_w(0.0, &active);
    assert_eq!(p_first, p_again, "reset must make runs reproducible");
}
