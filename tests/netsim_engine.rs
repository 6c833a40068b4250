//! Tier-1's view of `netsim`'s event engine. `cargo test -q` runs only the
//! root package, so the engine's own suites (`crates/netsim`) are invisible
//! to it; this file drives the two things most likely to break silently —
//! event order when work is scheduled between two runs, and the dense-bucket
//! path of the timer wheel — through the public API, on the engine and on the
//! binary-heap reference queue.

use congestion::AlgorithmKind;
use energy_model::WiredCpuModel;
use mptcp_energy::scenarios::{counters_of, FlowResult};
use netsim::{Agent, Ctx, EngineCounters, Packet, SimDuration, SimTime, Simulator, WheelCounters};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use topology::{FatTree, LinkParams};
use transport::{attach_flow, FlowConfig, FlowHandle};
use workload::permutation_pairs;

/// Records when each timer fired.
struct Stamp(Vec<(SimTime, u64)>);

impl Agent for Stamp {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.0.push((ctx.now(), token));
    }
}

/// `run_until` has to peek at the next event to learn that it lies past the
/// deadline, and the wheel stages that event's bucket to answer. Work
/// scheduled afterwards — legal, at or after `now` — then lies *before* the
/// staged bucket. The wheel used to file it behind its own position: a
/// release build fired the 1 s timer first and ran the clock backwards to
/// 11 ms, a debug build panicked.
#[test]
fn work_scheduled_between_two_runs_fires_in_time_order() {
    let ms = |v: u64| SimTime::from_nanos(v * 1_000_000);
    let run = |mut sim: Simulator| {
        let a = sim.add_agent(Box::new(Stamp(Vec::new())));
        sim.kick(a, SimDuration::from_millis(1000), 1);
        sim.run_until(ms(10));
        sim.kick(a, SimDuration::from_millis(1), 2);
        sim.run_until(ms(2000));
        (sim.agent::<Stamp>(a).0.clone(), sim.now())
    };
    let fired = run(Simulator::new(1));
    assert_eq!(fired, (vec![(ms(11), 2), (ms(1000), 1)], ms(2000)));
    assert_eq!(fired, run(Simulator::with_reference_queue(1)));
}

/// A small FatTree(k=4) permutation, four subflows per flow over 100 µs
/// hops: hundreds of events per 131 µs wheel bucket, so buckets are split
/// into sub-slots and pushed into while they drain. Every flow result, every
/// counter and the count of events popped per kind must equal the oracle's.
#[test]
fn dense_fattree_cell_matches_the_reference_queue() {
    let run = |mut sim: Simulator| {
        let params = LinkParams::new(1_000_000_000, SimDuration::from_micros(100)).queue(32);
        let ft = FatTree::build(&mut sim, 4, params);
        let mut rng = SmallRng::seed_from_u64(0xF47);
        let flows: Vec<FlowHandle> = permutation_pairs(ft.hosts(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| {
                let paths = ft.sample_paths(src, dst, 4, &mut rng);
                let cfg = FlowConfig::new(i as u64)
                    .transfer_pkts(400)
                    .min_rto(SimDuration::from_millis(10));
                let start = SimDuration::from_micros(i as u64 * 70);
                attach_flow(&mut sim, cfg, AlgorithmKind::Lia.build(paths.len()), &paths, start)
            })
            .collect();
        // In slices, as the scenario drivers run: every slice boundary is a
        // peek past the deadline.
        while sim.now() < SimTime::from_secs_f64(2.0) && !flows.iter().all(|f| f.is_finished(&sim))
        {
            sim.run_for(SimDuration::from_millis(1));
        }
        assert!(flows.iter().all(|f| f.is_finished(&sim)), "transfers did not finish");
        let mut model = WiredCpuModel::energy_proportional_server();
        let results: Vec<FlowResult> = flows
            .iter()
            .map(|&f| FlowResult::collect(&sim, f, "lia".to_owned(), &mut model))
            .collect();
        let simulated = format!("{results:?} {:?}", counters_of(&sim, &flows));
        (simulated, sim.engine_counters())
    };
    let (simulated, engine) = run(Simulator::new(3));
    let (oracle_simulated, oracle) = run(Simulator::with_reference_queue(3));
    assert_eq!(simulated, oracle_simulated, "engine diverged from the heap oracle");

    // The run was dense, and only the wheel has anything to say about that.
    let wheel = engine.wheel;
    assert!(
        wheel.dense_buckets_staged > 100
            && wheel.dense_events_staged * 4 > engine.pushed
            && wheel.draining_pushes * 2 > engine.pushed,
        "not the dense regime: {engine:?}"
    );
    assert_eq!(oracle.wheel, WheelCounters::default());
    // Everything else is a fact about the simulation, not about the queue.
    assert_eq!(EngineCounters { wheel: oracle.wheel, ..engine }, oracle);
    assert!(engine.popped_link_enqueue > engine.popped_deliver, "{engine:?}");
}
