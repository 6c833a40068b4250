//! Fault injection: black out one of two paths mid-transfer, watch the
//! sender declare the subflow dead, fail over to the survivor, and revive
//! the subflow when the link returns — then re-run with failover disabled
//! and let the stall watchdog abort the hang with a diagnosis.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use mptcp_energy_repro::congestion::AlgorithmKind;
use mptcp_energy_repro::netsim::{
    FaultAction, FaultScript, LossModel, SimDuration, SimTime, Simulator,
};
use mptcp_energy_repro::paper::CcChoice;
use mptcp_energy_repro::topology::TwoPath;
use mptcp_energy_repro::transport::{attach_flow, FlowConfig};

const TRANSFER_PKTS: u64 = 30_000;

fn main() {
    failover_and_revival();
    watchdog_on_permanent_blackout();
}

/// Two 10 Mb/s paths; path 2 is dark from t = 5 s to t = 17 s and lossy
/// (1 % i.i.d.) afterwards. The transfer must ride out the blackout on
/// path 1 alone.
fn failover_and_revival() {
    let mut sim = Simulator::new(7);
    let tp = TwoPath::dual_nic(&mut sim, 10_000_000, SimDuration::from_millis(10));
    let down = SimTime::from_secs_f64(5.0);
    let up = SimTime::from_secs_f64(17.0);
    FaultScript::new()
        .blackout(tp.p2.fwd, down, up)
        .blackout(tp.p2.rev, down, up)
        .at(up, FaultAction::SetLoss { link: tp.p2.fwd, model: LossModel::iid(0.01) })
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_pkts(TRANSFER_PKTS).dead_after_backoffs(Some(3)),
        CcChoice::Base(AlgorithmKind::Lia).build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.enable_watchdog(SimDuration::from_secs_f64(5.0));
    sim.watch(flow.sender);

    println!("Blackout on path 2 from {down} to {up}; 30k packets over LIA:\n");
    let mut deaths = 0;
    let mut revivals = 0;
    while sim.now() < SimTime::from_secs_f64(60.0) && !flow.is_finished(&sim) {
        sim.run_until(sim.now() + SimDuration::from_millis(10));
        let s = flow.sender_ref(&sim);
        if s.subflow(1).deaths > deaths {
            deaths = s.subflow(1).deaths;
            println!(
                "  {:>7}  subflow 2 declared dead ({} stranded pkts reinjected on path 1)",
                format!("{}", sim.now()),
                s.failover_reinjections
            );
        }
        if s.subflow(1).revivals > revivals {
            revivals = s.subflow(1).revivals;
            println!(
                "  {:>7}  subflow 2 revived in slow start (cwnd {:.1}, {} probes sent)",
                format!("{}", sim.now()),
                s.cc_states()[1].cwnd,
                s.subflow(1).probes
            );
        }
    }

    let s = flow.sender_ref(&sim);
    let drops = sim.world().link(tp.p2.fwd).stats().drops_blackout
        + sim.world().link(tp.p2.rev).stats().drops_blackout;
    let losses = sim.world().link(tp.p2.fwd).stats().drops_fault;
    println!(
        "  {:>7}  transfer complete ({} / {} pkts acked)",
        format!("{}", sim.now()),
        s.data_acked(),
        TRANSFER_PKTS
    );
    println!(
        "\n  per-path acks: {} (path 1) + {} (path 2); blackout swallowed {} pkts,",
        s.subflow(0).acked_pkts,
        s.subflow(1).acked_pkts,
        drops
    );
    println!("  post-revival i.i.d. loss dropped {losses} more. Watchdog stayed quiet.\n");
    assert!(flow.is_finished(&sim) && sim.stall_report().is_none());
}

/// Same topology, but path 2 goes down forever and failover is disabled —
/// the connection wedges on a stranded packet. The watchdog converts what
/// would be an endless (sim-time) hang into an aborted run plus a report.
fn watchdog_on_permanent_blackout() {
    let mut sim = Simulator::new(8);
    let tp = TwoPath::dual_nic(&mut sim, 10_000_000, SimDuration::from_millis(10));
    let at = SimTime::from_secs_f64(3.0);
    FaultScript::new()
        .at(at, FaultAction::LinkDown { link: tp.p2.fwd })
        .at(at, FaultAction::LinkDown { link: tp.p2.rev })
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_pkts(TRANSFER_PKTS).dead_after_backoffs(None),
        CcChoice::Base(AlgorithmKind::Lia).build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.enable_watchdog(SimDuration::from_secs_f64(5.0));
    sim.watch(flow.sender);
    sim.run_until(SimTime::from_secs_f64(120.0));

    println!("Permanent blackout at {at} with failover disabled:\n");
    let report = sim.stall_report().expect("watchdog must fire");
    println!("{report}");
    println!("\n  (run aborted at {} instead of spinning to the 120 s horizon)", sim.now());
    assert!(!flow.is_finished(&sim));
}
