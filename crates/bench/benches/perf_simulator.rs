//! Criterion benches for the simulator substrate: event-loop throughput and
//! end-to-end transport cost.

use congestion::AlgorithmKind;
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::prelude::*;
use std::time::Duration;
use transport::{attach_flow, FlowConfig, PathSpec};

fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("event_loop_10k_raw_packets", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let l = sim.add_link(
                LinkConfig::new(1_000_000_000, SimDuration::from_micros(10)).queue_limit(20_000),
            );
            let sink = sim.add_agent(Box::new(workload::Sink::new()));
            let route = Route::new(vec![l], sink);
            for _ in 0..10_000 {
                sim.world_mut().send_packet(sink, route.clone(), 1500, Payload::Raw);
            }
            sim.run_to_completion();
            std::hint::black_box(sim.agent::<workload::Sink>(sink).pkts)
        });
    });
}

fn bench_bulk_transfer(c: &mut Criterion) {
    c.bench_function("transport_1mb_transfer_reno", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let fwd = sim.add_link(LinkConfig::new(100_000_000, SimDuration::from_millis(1)));
            let rev = sim.add_link(LinkConfig::new(100_000_000, SimDuration::from_millis(1)));
            let flow = attach_flow(
                &mut sim,
                FlowConfig::new(0).transfer_bytes(1_000_000),
                AlgorithmKind::Reno.build(1),
                &[PathSpec::new(vec![fwd], vec![rev])],
                SimDuration::ZERO,
            );
            sim.run_until(SimTime::from_secs_f64(10.0));
            assert!(flow.is_finished(&sim));
            std::hint::black_box(flow.goodput_bps(&sim))
        });
    });
}

fn bench_mptcp_two_paths(c: &mut Criterion) {
    c.bench_function("transport_1mb_transfer_lia_2paths", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let mk = |sim: &mut Simulator| {
                let f = sim.add_link(LinkConfig::new(50_000_000, SimDuration::from_millis(2)));
                let r = sim.add_link(LinkConfig::new(50_000_000, SimDuration::from_millis(2)));
                PathSpec::new(vec![f], vec![r])
            };
            let p1 = mk(&mut sim);
            let p2 = mk(&mut sim);
            let flow = attach_flow(
                &mut sim,
                FlowConfig::new(0).transfer_bytes(1_000_000),
                AlgorithmKind::Lia.build(2),
                &[p1, p2],
                SimDuration::ZERO,
            );
            sim.run_until(SimTime::from_secs_f64(10.0));
            assert!(flow.is_finished(&sim));
            std::hint::black_box(flow.goodput_bps(&sim))
        });
    });
}

/// Cost of the fault-injection layer on the hot path: the same two-path
/// transfer, now with i.i.d. loss rolled per enqueue and a mid-run blackout
/// driving dead-subflow failover and revival.
fn bench_faulted_transfer(c: &mut Criterion) {
    c.bench_function("transport_1mb_transfer_lia_2paths_faulted", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let mk = |sim: &mut Simulator| {
                let f = sim.add_link(LinkConfig::new(50_000_000, SimDuration::from_millis(2)));
                let r = sim.add_link(LinkConfig::new(50_000_000, SimDuration::from_millis(2)));
                PathSpec::new(vec![f], vec![r])
            };
            let p1 = mk(&mut sim);
            let p2 = mk(&mut sim);
            FaultScript::new()
                .at(
                    SimTime::from_secs_f64(0.0),
                    FaultAction::SetLoss { link: p1.fwd[0], model: LossModel::iid(0.01) },
                )
                .blackout(p2.fwd[0], SimTime::from_secs_f64(0.1), SimTime::from_secs_f64(0.4))
                .install(&mut sim);
            let flow = attach_flow(
                &mut sim,
                FlowConfig::new(0).transfer_bytes(1_000_000).dead_after_backoffs(Some(2)),
                AlgorithmKind::Lia.build(2),
                &[p1, p2],
                SimDuration::ZERO,
            );
            sim.run_until(SimTime::from_secs_f64(20.0));
            assert!(flow.is_finished(&sim));
            std::hint::black_box(flow.goodput_bps(&sim))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_event_loop, bench_bulk_transfer, bench_mptcp_two_paths, bench_faulted_transfer
}
criterion_main!(benches);
