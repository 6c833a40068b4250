//! Event-sequence tests over the `obs` trace stream: the fast-recovery exit
//! boundary (`cum_ack >= recover` must fire at *exactly* `recover`) and the
//! dead-subflow → revival control-plane ordering.

use congestion::AlgorithmKind;
use netsim::prelude::*;
use obs::{DropCause, TraceEvent};
use std::sync::{Arc, Mutex};
use transport::{attach_flow, FlowConfig, PathSpec};

/// One forward link, one reverse link.
fn duplex(sim: &mut Simulator, bps: u64, one_way: SimDuration, qlimit: usize) -> PathSpec {
    let fwd = sim.add_link(LinkConfig::new(bps, one_way).queue_limit(qlimit));
    let rev = sim.add_link(LinkConfig::new(bps, one_way).queue_limit(qlimit));
    PathSpec::new(vec![fwd], vec![rev])
}

/// A finite transfer whose entire window is wiped out by a blackout from
/// time zero: the sender RTOs into recovery with `recover == snd_nxt == 3`
/// and, since only 3 packets exist, the cumulative ACK can never exceed 3 — so
/// `RecoveryExit` must fire when `cum_ack` equals `recover` exactly. An
/// off-by-one (`>` instead of `>=`) would emit no exit at all.
#[test]
fn recovery_exit_fires_exactly_at_recover() {
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulator::new(5);
    sim.set_trace_sink(Box::new(events.clone()));
    let path = duplex(&mut sim, 10_000_000, SimDuration::from_millis(10), 256);
    // Black out the forward link before anything is delivered; restore it
    // well before the RTO backoff gives up.
    FaultScript::new()
        .blackout(path.fwd[0], SimTime::ZERO, SimTime::from_secs_f64(0.5))
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_pkts(3).rcv_buf_pkts(256).dead_after_backoffs(None),
        AlgorithmKind::Reno.build(1),
        &[path],
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(30.0));
    assert!(flow.is_finished(&sim), "transfer did not finish");
    drop(sim.take_trace_sink());

    let events = events.lock().unwrap();
    let rto_recover = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RecoveryEnter { recover, .. } => Some(*recover),
            _ => None,
        })
        .max()
        .expect("blackout must force a recovery episode");
    assert_eq!(rto_recover, 3, "RTO must arm recovery at snd_nxt");
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::RtoFired { .. })),
        "whole-window loss must be repaired by RTO"
    );
    let exits: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RecoveryExit { cum_ack, .. } => Some(*cum_ack),
            _ => None,
        })
        .collect();
    assert!(!exits.is_empty(), "recovery never exited");
    assert_eq!(
        *exits.last().unwrap(),
        rto_recover,
        "exit must fire when cum_ack reaches recover exactly"
    );
    // Exits and enters alternate: a second enter requires a prior exit.
    let mut in_recovery = false;
    for e in events.iter() {
        match e {
            TraceEvent::RecoveryEnter { .. } => {
                assert!(!in_recovery, "RecoveryEnter while already in recovery");
                in_recovery = true;
            }
            TraceEvent::RecoveryExit { .. } => {
                assert!(in_recovery, "RecoveryExit without a matching enter");
                in_recovery = false;
            }
            _ => {}
        }
    }
}

/// Mid-transfer blackout of path 2 (5 s → 17 s): the trace must show the
/// blackout drops, an escalating RTO backoff, exactly one `SubflowDead`, and
/// a later `SubflowRevived` — in that order — on subflow 1 only.
#[test]
fn death_and_revival_appear_in_order_in_the_trace() {
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulator::new(42);
    sim.set_trace_sink(Box::new(events.clone()));
    let p1 = duplex(&mut sim, 10_000_000, SimDuration::from_millis(10), 100);
    let p2 = duplex(&mut sim, 10_000_000, SimDuration::from_millis(10), 100);
    let down = SimTime::from_secs_f64(5.0);
    let up = SimTime::from_secs_f64(17.0);
    FaultScript::new()
        .blackout(p2.fwd[0], down, up)
        .blackout(p2.rev[0], down, up)
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_pkts(30_000).dead_after_backoffs(Some(3)),
        AlgorithmKind::Lia.build(2),
        &[p1, p2],
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(60.0));
    assert!(flow.is_finished(&sim), "transfer did not finish over the survivor");
    drop(sim.take_trace_sink());

    let events = events.lock().unwrap();
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::Drop { cause: DropCause::Blackout, .. })),
        "blackout drops missing from trace"
    );
    let deaths: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            TraceEvent::SubflowDead { subflow, .. } => {
                assert_eq!(*subflow, 1, "only the blacked-out subflow may die");
                Some(i)
            }
            _ => None,
        })
        .collect();
    let revivals: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            TraceEvent::SubflowRevived { subflow, .. } => {
                assert_eq!(*subflow, 1, "only the dead subflow may revive");
                Some(i)
            }
            _ => None,
        })
        .collect();
    assert_eq!(deaths.len(), 1, "expected exactly one death event");
    assert_eq!(revivals.len(), 1, "expected exactly one revival event");
    assert!(deaths[0] < revivals[0], "death must precede revival");

    // The death was preceded by the escalating backoff that justified it.
    let backoffs: Vec<u32> = events[..deaths[0]]
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RtoFired { subflow: 1, backoff, .. } => Some(*backoff),
            _ => None,
        })
        .collect();
    assert!(backoffs.len() >= 3, "death requires 3 consecutive backoffs, saw {backoffs:?}");
    assert!(backoffs.windows(2).all(|w| w[1] > w[0]), "backoff must escalate: {backoffs:?}");

    // The trace agrees with the sender's own counters.
    let counters = flow.sender_ref(&sim).subflow_counters();
    assert_eq!(counters[1].deaths, 1);
    assert_eq!(counters[1].revivals, 1);
    assert!(counters[1].probes >= 1, "dead subflow never probed");
    assert_eq!(counters[0].deaths, 0);
}
