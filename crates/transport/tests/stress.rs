//! Transport stress tests: randomized link conditions and every algorithm,
//! checking the end-to-end correctness invariants that must survive any
//! loss pattern — exactly-once in-order delivery, bounded reorder buffers,
//! and no deadlock.
//!
//! The parameter grid is drawn deterministically from a seeded RNG and
//! fanned across the sweep runner (`bench_harness::runner`), one whole
//! `Simulator` per cell: the full 24-cell grid with its 600 s horizon is
//! `#[ignore]`d into the CI `--ignored` job, while a smaller smoke grid
//! keeps the invariants in the default tier-1 run. The full grid runs under
//! the crash-safe fabric (`bench_harness::fabric`) with a per-cell wall
//! deadline, so one wedged case is quarantined and reported instead of
//! hanging the whole CI job; retries stay off because the cells are
//! deterministic.

use bench_harness::fabric::{
    run_fabric_ephemeral, FabricCell, FabricOptions, Fingerprint, RetryPolicy,
};
use bench_harness::runner::{run_sweep, SweepCell};
use congestion::AlgorithmKind;
use netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transport::{attach_flow, FlowConfig, PathSpec};

fn duplex(sim: &mut Simulator, bps: u64, delay_us: u64, q: usize) -> PathSpec {
    let fwd = sim.add_link(LinkConfig::new(bps, SimDuration::from_micros(delay_us)).queue_limit(q));
    let rev = sim.add_link(LinkConfig::new(bps, SimDuration::from_micros(delay_us)).queue_limit(q));
    PathSpec::new(vec![fwd], vec![rev])
}

/// One randomly-drawn stress configuration (tiny queues, asymmetric rates
/// and delays, any algorithm).
#[derive(Clone, Copy, Debug)]
struct StressCase {
    seed: u64,
    q1: usize,
    q2: usize,
    mbps1: u64,
    mbps2: u64,
    d1_us: u64,
    d2_us: u64,
    kind: AlgorithmKind,
}

/// Draws `n` cases from the same distributions the old proptest block used,
/// deterministically from `meta_seed`.
fn draw_cases(n: usize, meta_seed: u64) -> Vec<StressCase> {
    let mut rng = SmallRng::seed_from_u64(meta_seed);
    (0..n)
        .map(|_| {
            let case = StressCase {
                seed: rng.gen_range(0..1000),
                q1: rng.gen_range(2..12),
                q2: rng.gen_range(2..12),
                mbps1: rng.gen_range(2..30),
                mbps2: rng.gen_range(2..30),
                d1_us: rng.gen_range(100..30_000),
                d2_us: rng.gen_range(100..30_000),
                kind: AlgorithmKind::ALL[rng.gen_range(0..AlgorithmKind::ALL.len())],
            };
            // A retired per-case coin (it once picked the packet scheduler),
            // still drawn so every later case keeps its parameters.
            let _ = rng.gen_bool(0.5);
            case
        })
        .collect()
}

/// Everything a stress cell must get right, checked after the sweep joins.
#[derive(Debug, PartialEq)]
struct StressOutcome {
    finished: bool,
    acked: u64,
    delivered: u64,
    min_rwnd: u64,
}

const STRESS_PKTS: u64 = 600;

fn stress_run(c: StressCase) -> StressOutcome {
    let mut sim = Simulator::new(c.seed);
    let p1 = duplex(&mut sim, c.mbps1 * 1_000_000, c.d1_us, c.q1);
    let p2 = duplex(&mut sim, c.mbps2 * 1_000_000, c.d2_us, c.q2);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0)
            .transfer_pkts(STRESS_PKTS)
            .rcv_buf_pkts(40)
            .min_rto(SimDuration::from_millis(50)),
        c.kind.build(2),
        &[p1, p2],
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(600.0));
    let sender = flow.sender_ref(&sim);
    let recv = flow.receiver_ref(&sim);
    StressOutcome {
        finished: sender.is_finished(),
        acked: sender.data_acked(),
        delivered: recv.data_delivered(),
        min_rwnd: recv.rwnd_pkts(),
    }
}

/// Whatever the (tiny) queues, delays and rates: a finite transfer
/// completes, every packet is delivered exactly once in order, and the
/// receiver's rwnd accounting never goes negative.
fn assert_grid(cases: Vec<StressCase>) {
    let cells: Vec<SweepCell<StressOutcome>> = cases
        .iter()
        .map(|&c| {
            SweepCell::new(format!("{}-seed{}", c.kind, c.seed), c.seed, move || stress_run(c))
        })
        .collect();
    for (r, c) in run_sweep(cells).iter().zip(&cases) {
        assert_case(&r.output, c);
    }
}

/// Checks one completed cell against the exactly-once contract.
fn assert_case(out: &StressOutcome, c: &StressCase) {
    assert!(out.finished, "{} deadlocked ({c:?}): {out:?}", c.kind);
    assert_eq!(out.acked, STRESS_PKTS, "{c:?}");
    assert_eq!(out.delivered, STRESS_PKTS, "{}: wrong delivery count ({c:?})", c.kind);
    assert!(out.min_rwnd >= 1, "rwnd went negative ({c:?})");
}

#[test]
fn exactly_once_delivery_smoke_grid() {
    assert_grid(draw_cases(8, 0x57e55));
}

#[test]
#[ignore = "full 600 s stress grid — run via `cargo test -- --ignored` (CI ignored job)"]
fn exactly_once_in_order_delivery_under_chaos() {
    // Same contract as the smoke grid, but under the crash-safe fabric: a
    // panicking or wedged case is deadline-killed and quarantined, the
    // remaining 23 still run to completion, and the quarantine records name
    // the losers. Each simulated cell is ~seconds of wall time; 300 s of
    // budget only triggers on a genuine livelock.
    let cases = draw_cases(24, 0xC4A0);
    let cells: Vec<FabricCell<StressOutcome>> = cases
        .iter()
        .map(|&c| {
            FabricCell::new(format!("{}-seed{}", c.kind, c.seed), c.seed, move || stress_run(c))
                .config(
                    Fingerprint::new()
                        .str("stress")
                        .str(&format!("{}", c.kind))
                        .u64(c.seed)
                        .u64(c.mbps1)
                        .u64(c.mbps2),
                )
        })
        .collect();
    let opts = FabricOptions {
        deadline: Some(std::time::Duration::from_secs(300)),
        retry: RetryPolicy::none(),
        ..FabricOptions::default()
    };
    let report = run_fabric_ephemeral(cells, &opts).expect("fabric sweep failed");
    eprintln!("{}", report.counters.render());
    assert!(report.is_complete(), "{}", report.partial_note());
    for (r, c) in report.results().zip(&cases) {
        assert_case(&r.output, c);
    }
}

#[test]
fn dctcp_on_ecn_links_sees_fewer_drops_than_reno() {
    let run = |kind: AlgorithmKind| {
        let mut sim = Simulator::new(5);
        let fwd = sim.add_link(
            LinkConfig::new(50_000_000, SimDuration::from_micros(200))
                .queue_limit(100)
                .ecn_threshold(20),
        );
        let rev = sim.add_link(LinkConfig::new(50_000_000, SimDuration::from_micros(200)));
        let flow = attach_flow(
            &mut sim,
            FlowConfig::new(0).transfer_bytes(10_000_000).min_rto(SimDuration::from_millis(20)),
            kind.build(1),
            &[PathSpec::new(vec![fwd], vec![rev])],
            SimDuration::ZERO,
        );
        sim.run_until(SimTime::from_secs_f64(120.0));
        assert!(flow.is_finished(&sim), "{kind} did not finish");
        let drops: u64 = sim.world().link_counters().iter().map(|l| l.drops_queue).sum();
        (drops, flow.sender_ref(&sim).goodput_bps(sim.now()))
    };
    // The two runs are independent cells; fan them out.
    let cells = vec![
        SweepCell::new("reno", 5, move || run(AlgorithmKind::Reno)),
        SweepCell::new("dctcp", 5, move || run(AlgorithmKind::Dctcp)),
    ];
    let results = run_sweep(cells);
    let (reno_drops, reno_goodput) = results[0].output;
    let (dctcp_drops, dctcp_goodput) = results[1].output;
    assert!(
        dctcp_drops < reno_drops,
        "DCTCP should avoid drops via ECN: {dctcp_drops} vs {reno_drops}"
    );
    assert!(dctcp_goodput > 0.7 * reno_goodput, "DCTCP goodput sane");
}

#[test]
fn ack_loss_on_reverse_path_does_not_stall() {
    // A 2-packet reverse queue drops many ACKs; cumulative ACKs must keep
    // the transfer alive.
    let mut sim = Simulator::new(6);
    let fwd = sim.add_link(LinkConfig::new(20_000_000, SimDuration::from_millis(2)));
    let rev = sim.add_link(LinkConfig::new(20_000_000, SimDuration::from_millis(2)).queue_limit(2));
    // Congest the reverse path with cross traffic.
    let cross_fwd = rev; // the ACK link doubles as the cross-traffic link
    let (_src, _sink) =
        workload::attach_cbr(&mut sim, vec![cross_fwd], 18_000_000, 1500, SimDuration::ZERO);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_bytes(2_000_000).min_rto(SimDuration::from_millis(50)),
        AlgorithmKind::Reno.build(1),
        &[PathSpec::new(vec![fwd], vec![rev])],
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(300.0));
    assert!(flow.is_finished(&sim), "stalled under ACK loss");
}

#[test]
fn many_competing_flows_share_without_starvation() {
    let mut sim = Simulator::new(7);
    let fwd = sim.add_link(LinkConfig::new(100_000_000, SimDuration::from_millis(5)));
    let rev = sim.add_link(LinkConfig::new(100_000_000, SimDuration::from_millis(5)));
    let flows: Vec<_> = (0..16)
        .map(|i| {
            attach_flow(
                &mut sim,
                FlowConfig::new(i),
                AlgorithmKind::Reno.build(1),
                &[PathSpec::new(vec![fwd], vec![rev])],
                SimDuration::from_millis(i * 3),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs_f64(30.0));
    let rates: Vec<f64> = flows.iter().map(|f| f.goodput_bps(&sim)).collect();
    let total: f64 = rates.iter().sum();
    assert!(total > 70e6, "aggregate {total} should use most of the link");
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rates.iter().cloned().fold(0.0f64, f64::max);
    // Jain-style sanity: no flow starves outright.
    assert!(min > max / 20.0, "starvation: min {min} max {max}");
}
