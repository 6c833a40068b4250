//! Failure-injection tests: degrade a path mid-run and verify the
//! delay-based traffic shifting reacts — the operational behaviour the
//! paper's §V-B designs DTS for.

use congestion::AlgorithmKind;
use mptcp_energy::CcChoice;
use netsim::{FaultAction, FaultScript, SimDuration, SimTime, Simulator};
use topology::TwoPath;
use transport::{attach_flow, FlowConfig, FlowHandle};

fn acked_per_path(sim: &Simulator, flow: FlowHandle) -> (u64, u64) {
    let s = flow.sender_ref(sim);
    (s.subflow(0).acked_pkts, s.subflow(1).acked_pkts)
}

/// Two equal 50 Mb/s paths; at t = 8 s path 1's propagation jumps from 10 ms
/// to 150 ms (a mobility / reroute event). DTS must move traffic to path 0.
#[test]
fn dts_shifts_away_from_suddenly_slow_path() {
    let mut sim = Simulator::new(21);
    let tp = TwoPath::dual_nic(&mut sim, 50_000_000, SimDuration::from_millis(10));
    // Degrade path 1 (both directions) at t = 8 s, declaratively.
    let slow = SimDuration::from_millis(150);
    FaultScript::new()
        .at(
            SimTime::from_secs_f64(8.0),
            FaultAction::SetPropagation { link: tp.p2.fwd, propagation: slow },
        )
        .at(
            SimTime::from_secs_f64(8.0),
            FaultAction::SetPropagation { link: tp.p2.rev, propagation: slow },
        )
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).rcv_buf_pkts(2048),
        CcChoice::dts().build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(8.0));
    let (a0, a1) = acked_per_path(&sim, flow);
    // Symmetric phase: both paths carry substantial traffic.
    assert!(a1 > a0 / 4, "before degradation: {a0} vs {a1}");

    sim.run_until(SimTime::from_secs_f64(10.0)); // let estimators catch up
    let (b0, b1) = acked_per_path(&sim, flow);
    sim.run_until(SimTime::from_secs_f64(25.0));
    let (c0, c1) = acked_per_path(&sim, flow);

    let good_path_delta = c0 - b0;
    let bad_path_delta = c1 - b1;
    assert!(
        good_path_delta > 4 * bad_path_delta,
        "after degradation DTS should shift traffic: good {good_path_delta} vs bad {bad_path_delta}"
    );
}

/// A path whose bandwidth collapses by 10× must not deadlock the
/// connection: the scoreboard recovers, and the connection keeps moving
/// data over the healthy path.
#[test]
fn bandwidth_collapse_does_not_deadlock() {
    let mut sim = Simulator::new(22);
    let tp = TwoPath::dual_nic(&mut sim, 50_000_000, SimDuration::from_millis(10));
    FaultScript::new()
        .at(
            SimTime::from_secs_f64(5.0),
            FaultAction::SetBandwidth { link: tp.p2.fwd, bps: 5_000_000 },
        )
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).rcv_buf_pkts(1024),
        CcChoice::Base(AlgorithmKind::Lia).build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(5.0));
    let before = flow.sender_ref(&sim).data_acked();
    sim.run_until(SimTime::from_secs_f64(20.0));
    let after = flow.sender_ref(&sim).data_acked();
    // ≥ 50 Mb/s available on path 0 alone for 15 s ≈ 62k packets ideal;
    // demand well over half of that.
    assert!(
        after - before > 30_000,
        "connection stalled after bandwidth collapse: {} pkts in 15 s",
        after - before
    );
}

/// The lowest-SRTT scheduler concentrates new data on the faster path when
/// RTTs differ.
#[test]
fn lowest_srtt_prefers_the_fast_path() {
    let mut sim = Simulator::new(23);
    let fast_slow = TwoPath::asymmetric(
        &mut sim,
        netsim::LinkConfig::new(20_000_000, SimDuration::from_millis(5)),
        netsim::LinkConfig::new(20_000_000, SimDuration::from_millis(80)),
    );
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).rcv_buf_pkts(64),
        CcChoice::Base(AlgorithmKind::Lia).build(2),
        &fast_slow.both(),
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(10.0));
    let (f0, f1) = acked_per_path(&sim, flow);
    assert!(f0 > 2 * f1, "lowest-SRTT should prefer the fast path: {f0} vs {f1}");
}
