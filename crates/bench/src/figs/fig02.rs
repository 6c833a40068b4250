//! Fig. 2 — Nexus 5 power during data transfers: TCP over WiFi, TCP over
//! LTE, and MPTCP over both radios.
//!
//! Paper shape: MPTCP largely increases the phone's power consumption.

use crate::{table, Scale};
use congestion::AlgorithmKind;
use energy_model::PhoneModel;
use mptcp_energy::path_select::onto_phone_slots;
use mptcp_energy::scenarios::{CcChoice, FlowResult};
use netsim::{SimDuration, SimTime, Simulator};
use std::borrow::Cow;
use topology::TwoPath;
use transport::{attach_flow, FlowConfig};

/// Which radios the connection uses.
#[derive(Clone, Copy)]
enum Radios {
    Wifi,
    Lte,
    Both,
}

fn run_phone(radios: Radios, duration_s: f64) -> (f64, f64) {
    let mut sim = Simulator::new(7);
    let tp = TwoPath::wireless(&mut sim);
    let (specs, cc) = match radios {
        Radios::Wifi => (tp.first_only(), CcChoice::Base(AlgorithmKind::Reno)),
        Radios::Lte => (tp.second_only(), CcChoice::Base(AlgorithmKind::Reno)),
        Radios::Both => (tp.both(), CcChoice::Base(AlgorithmKind::Lia)),
    };
    let n = specs.len();
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).rcv_buf_bytes(256 * 1024).sample_every(SimDuration::from_millis(50)),
        cc.build(n),
        &specs,
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(duration_s));
    let samples = flow.sender_ref(&sim).samples();
    // The phone model maps sample slot 0 → WiFi and slot 1 → LTE; pad the
    // single-LTE run so its traffic lands on the LTE slot.
    let samples = match radios {
        Radios::Lte => Cow::Owned(onto_phone_slots(samples, 1)),
        Radios::Wifi | Radios::Both => Cow::Borrowed(samples),
    };
    let r = FlowResult::metered(&sim, flow, cc.label(), &mut PhoneModel::nexus5(), &samples);
    (r.energy.mean_power_w, r.goodput_bps)
}

/// Runs the Fig. 2 harness.
pub fn run(scale: Scale) -> String {
    let duration = match scale {
        Scale::Smoke => 5.0,
        Scale::Quick => 30.0,
        Scale::Full => 120.0,
    };
    let (p_wifi, g_wifi) = run_phone(Radios::Wifi, duration);
    let (p_lte, g_lte) = run_phone(Radios::Lte, duration);
    let (p_mptcp, g_mptcp) = run_phone(Radios::Both, duration);
    let rows = vec![
        vec!["tcp/wifi".to_owned(), format!("{p_wifi:.3}"), crate::mbps(g_wifi)],
        vec!["tcp/lte".to_owned(), format!("{p_lte:.3}"), crate::mbps(g_lte)],
        vec!["mptcp/wifi+lte".to_owned(), format!("{p_mptcp:.3}"), crate::mbps(g_mptcp)],
    ];
    table(&["config", "mean power (W)", "goodput (Mb/s)"], &rows)
}
