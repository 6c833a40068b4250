//! Acceptance test for the trace pipeline end to end: a chaos-style cell
//! streams its events to a JSONL file through `obs::jsonl_sink_in`, and the
//! `trace_dump` summarizer (`obs::summarize`, the library behind the binary)
//! reads the file back showing the drops by cause and recovery counts the
//! run actually experienced — with zero malformed lines, and equal to what
//! the links and the sender counted without a trace.

use congestion::AlgorithmKind;
use mptcp_energy::CcChoice;
use netsim::{FaultAction, FaultScript, LinkStats, LossModel, SimDuration, SimTime, Simulator};
use std::collections::BTreeMap;
use std::io::BufReader;
use topology::TwoPath;
use transport::{attach_flow, FlowConfig, SubflowCounters};

#[test]
fn chaos_cell_trace_round_trips_through_the_summarizer() {
    let dir = std::env::temp_dir().join(format!("mptcp-trace-rt-{}", std::process::id()));
    let label = "chaos-cell";

    // A faulted two-path transfer: random loss on path 1 (fault_loss drops),
    // a mid-transfer blackout on path 2 (blackout drops, RTO recoveries,
    // death + revival), and tight queues (queue_overflow drops).
    let mut sim = Simulator::new(9);
    let sink = obs::jsonl_sink_in(&dir, label).expect("trace sink must open");
    sim.set_trace_sink(sink);
    let tp = TwoPath::dual_nic(&mut sim, 10_000_000, SimDuration::from_millis(10));
    let down = SimTime::from_secs_f64(5.0);
    let up = SimTime::from_secs_f64(12.0);
    FaultScript::new()
        .at(
            SimTime::from_secs_f64(1.0),
            FaultAction::SetLoss { link: tp.p1.fwd, model: LossModel::iid(0.02) },
        )
        .blackout(tp.p2.fwd, down, up)
        .blackout(tp.p2.rev, down, up)
        .install(&mut sim);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_pkts(20_000).dead_after_backoffs(Some(3)),
        CcChoice::Base(AlgorithmKind::Lia).build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(60.0));
    assert!(flow.is_finished(&sim), "cell did not finish");
    drop(sim.take_trace_sink()); // flush

    let path = obs::trace_path(&dir, label);
    let text = std::fs::read_to_string(&path).expect("trace file must exist");
    let lines = text.lines().count();
    let summary = obs::summarize(BufReader::new(text.as_bytes())).unwrap();

    // Every line parsed; nothing dropped on the floor.
    assert_eq!(summary.malformed_lines, 0);
    assert_eq!(summary.events as usize, lines);
    assert!(summary.events > 1_000, "only {} events traced", summary.events);

    // Drops by cause: the blackout and the injected loss both bit.
    assert!(summary.drops_by_cause.get("blackout").copied().unwrap_or(0) > 0, "{summary:?}");
    assert!(summary.drops_by_cause.get("fault_loss").copied().unwrap_or(0) > 0, "{summary:?}");

    // Drops agree with the links' own counters, by cause and by link.
    let links = sim.world().link_counters();
    let by_cause = |f: fn(&LinkStats) -> u64| links.iter().map(f).sum::<u64>();
    let traced_cause = |cause: &str| summary.drops_by_cause.get(cause).copied().unwrap_or(0);
    assert_eq!(traced_cause("queue_overflow"), by_cause(|l| l.drops_queue), "{summary:?}");
    assert_eq!(traced_cause("fault_loss"), by_cause(|l| l.drops_fault), "{summary:?}");
    assert_eq!(traced_cause("blackout"), by_cause(|l| l.drops_blackout), "{summary:?}");
    let counted_by_link: BTreeMap<u64, u64> = (0u64..)
        .zip(&links)
        .filter(|(_, l)| l.drops() > 0)
        .map(|(id, l)| (id, l.drops()))
        .collect();
    assert_eq!(summary.drops_by_link, counted_by_link);

    // Recovery counts: the blackout forced RTO-driven recovery episodes, and
    // the file's counts agree with the sender's own counters, per subflow.
    let counters = flow.sender_ref(&sim).subflow_counters();
    assert!(summary.rtos_by_subflow.values().sum::<u64>() > 0, "no RTOs in trace: {summary:?}");
    let per_subflow = |count: fn(&SubflowCounters) -> u64| -> BTreeMap<(u64, u64), u64> {
        (0u64..)
            .zip(&counters)
            .filter(|(_, c)| count(c) > 0)
            .map(|(r, c)| ((0, r), count(c)))
            .collect()
    };
    assert!(summary.recoveries_by_subflow.values().sum::<u64>() > 0, "{summary:?}");
    assert_eq!(summary.rtos_by_subflow, per_subflow(|c| c.rtos));
    assert_eq!(summary.recoveries_by_subflow, per_subflow(|c| c.recoveries));

    // And the human-readable report carries both tables.
    let report = summary.render();
    assert!(report.contains("drops by cause"), "{report}");
    assert!(report.contains("recoveries"), "{report}");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
