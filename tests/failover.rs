//! Dead-subflow failover and revival: black out one of two paths mid-transfer
//! and verify the connection finishes over the survivor, strands nothing, and
//! puts the revived subflow back to work after the link returns — all driven
//! by a single deterministic `FaultScript`.

use congestion::AlgorithmKind;
use mptcp_energy::CcChoice;
use netsim::{FaultAction, FaultScript, SimDuration, SimTime, Simulator};
use topology::TwoPath;
use transport::{attach_flow, FlowConfig};

const TRANSFER_PKTS: u64 = 30_000;

/// Path 2 goes dark from t = 5 s to t = 17 s (a 12 s blackout). The sender
/// must declare the subflow dead, reinject its stranded segments onto path 1,
/// finish the transfer, and — once the link is back — revive the subflow in
/// slow start and move real traffic over it again. Liveness is one fact: the
/// subflow's congestion state and its telemetry read closed while it is dead
/// and open again once it revives.
#[test]
fn blackout_fails_over_and_revives() {
    let mut sim = Simulator::new(42);
    let tp = TwoPath::dual_nic(&mut sim, 10_000_000, SimDuration::from_millis(10));
    let down = SimTime::from_secs_f64(5.0);
    let up = SimTime::from_secs_f64(17.0);
    FaultScript::new()
        .blackout(tp.p2.fwd, down, up)
        .blackout(tp.p2.rev, down, up)
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0)
            .transfer_pkts(TRANSFER_PKTS)
            // Death after ~7 × RTO ≈ 1.6 s of silence, so the 12 s blackout
            // exercises both death and a long probing phase.
            .dead_after_backoffs(Some(3)),
        CcChoice::Base(AlgorithmKind::Lia).build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.enable_watchdog(SimDuration::from_secs_f64(5.0));
    sim.watch(flow.sender);

    // Run in small steps so we can observe the subflow while it is dead and
    // right as it revives. `dead_samples` indexes the telemetry samples taken
    // between the first and the last step that saw subflow 1 dead.
    let mut revival_cwnd = None;
    let mut acked_at_revival = 0;
    let mut dead_from = None;
    let mut dead_samples = 0..0;
    let mut revived_from = 0;
    while sim.now() < SimTime::from_secs_f64(30.0) && revival_cwnd.is_none() {
        let before = flow.sender_ref(&sim).samples().len();
        sim.run_until(sim.now() + SimDuration::from_millis(10));
        let s = flow.sender_ref(&sim);
        if s.subflow(1).revivals > 0 {
            revival_cwnd = Some(s.cc_states()[1].cwnd);
            acked_at_revival = s.subflow(1).acked_pkts;
            assert!(s.cc_states()[1].active, "revived subflow must read active");
            dead_samples = dead_from.expect("subflow revived without being seen dead")..before;
            revived_from = s.samples().len();
        } else if s.subflow(1).deaths > 0 {
            assert!(!s.cc_states()[1].active, "dead subflow must read inactive");
            dead_from.get_or_insert(s.samples().len());
        }
    }
    sim.run_until(SimTime::from_secs_f64(60.0));

    let s = flow.sender_ref(&sim);
    assert!(flow.is_finished(&sim), "transfer did not finish: {}", s.data_acked());
    assert_eq!(s.data_acked(), TRANSFER_PKTS);
    assert!(sim.stall_report().is_none(), "watchdog fired: {}", sim.stall_report().unwrap());

    // The blackout killed path 2 exactly once, and probes detected revival.
    assert_eq!(s.subflow(1).deaths, 1, "expected one death");
    assert_eq!(s.subflow(1).revivals, 1, "expected one revival");
    assert!(s.subflow(1).probes >= 1, "dead subflow never probed");
    assert_eq!(s.subflow(0).deaths, 0, "survivor must stay alive");

    // Every segment stranded on the dead path was reinjected onto the
    // survivor exactly once: at most one reinjection per packet that could
    // have been in flight (bounded by the receive window), at least one for
    // the head-of-line hole.
    assert!(s.failover_reinjections >= 1, "no failover reinjection happened");
    assert!(
        s.failover_reinjections <= s.config().rcv_buf_pkts,
        "more reinjections ({}) than could ever be stranded",
        s.failover_reinjections
    );

    // While dead, every sample reported the subflow closed — what the power
    // models charge as a closed interface — and after revival, every sample
    // up to the finish reports it open again.
    let samples = s.samples();
    assert!(dead_samples.len() > 10, "too few samples while dead: {dead_samples:?}");
    assert!(
        samples[dead_samples.clone()].iter().all(|x| !x.subflows[1].active),
        "a sample taken while subflow 1 was dead reports it active"
    );
    let finish = flow.finish_time(&sim).expect("finished");
    let open: Vec<_> = samples[revived_from..].iter().filter(|x| x.at < finish).collect();
    assert!(!open.is_empty(), "no sample between revival and finish");
    assert!(
        open.iter().all(|x| x.subflows[1].active),
        "a sample taken after revival reports subflow 1 inactive"
    );

    // Revival restarted congestion control from slow start.
    let cwnd = revival_cwnd.expect("subflow never revived within 30 s");
    assert!(cwnd < 8.0, "revived subflow should restart near initial cwnd, got {cwnd}");
    // …and the revived path then carried real traffic, not just the probe.
    let post_revival = s.subflow(1).acked_pkts - acked_at_revival;
    assert!(post_revival > 100, "revived subflow moved only {post_revival} pkts");

    // The blackout itself was accounted by the link, not DropTail.
    let drops = sim.world().link(tp.p2.fwd).stats().drops_blackout
        + sim.world().link(tp.p2.rev).stats().drops_blackout;
    assert!(drops > 0, "blackout swallowed no packets");
}

/// With failover disabled, a permanent blackout freezes the connection — and
/// the stall watchdog turns the would-be CI hang into a diagnosable report.
#[test]
fn permanent_blackout_without_failover_trips_watchdog() {
    let mut sim = Simulator::new(43);
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

    // The run aborted early with a report instead of spinning to the horizon.
    let report = sim.stall_report().expect("watchdog should have fired");
    assert!(report.at < SimTime::from_secs_f64(30.0), "fired late: {}", report.at);
    assert!(sim.now() < SimTime::from_secs_f64(30.0), "run was not aborted");
    assert_eq!(report.stalled.len(), 1);
    assert!(
        report.stalled[0].diagnostics.contains("conn 0"),
        "diagnostics missing flow identity: {}",
        report.stalled[0].diagnostics
    );
    let s = flow.sender_ref(&sim);
    assert!(!flow.is_finished(&sim));
    assert_eq!(s.subflow(1).deaths, 0, "failover disabled, nothing may die");
}
