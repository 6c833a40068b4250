//! Simulator invariants under randomized traffic: packet conservation,
//! FIFO link ordering, and clock monotonicity.

use netsim::prelude::*;
use proptest::prelude::*;

/// Records every delivered packet id and its arrival time.
#[derive(Default)]
struct Recorder {
    arrivals: Vec<(SimTime, u64)>,
}

impl Agent for Recorder {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.arrivals.push((ctx.now(), pkt.id));
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Injected = delivered + dropped, for any burst size / queue limit.
    #[test]
    fn packets_are_conserved(
        n_pkts in 1usize..400,
        queue_limit in 1usize..64,
        size in 100u32..1500,
        bw_mbps in 1u64..100,
    ) {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(
            LinkConfig::new(bw_mbps * 1_000_000, SimDuration::from_micros(50))
                .queue_limit(queue_limit),
        );
        let sink = sim.add_agent(Box::new(Recorder::default()));
        let route = Route::new(vec![l], sink);
        for _ in 0..n_pkts {
            sim.world_mut().send_packet(sink, route.clone(), size, Payload::Raw);
        }
        sim.run_until(SimTime::from_secs_f64(60.0));
        let delivered = sim.agent::<Recorder>(sink).arrivals.len() as u64;
        let stats = sim.world().link(l).stats();
        prop_assert_eq!(delivered + stats.drops_queue, n_pkts as u64);
        // The link's own transmit counter agrees.
        prop_assert_eq!(stats.tx_pkts, delivered);
    }

    /// A FIFO link delivers surviving packets in injection order, at
    /// strictly increasing times.
    #[test]
    fn fifo_order_is_preserved(
        n_pkts in 2usize..200,
        queue_limit in 1usize..50,
    ) {
        let mut sim = Simulator::new(2);
        let l = sim.add_link(
            LinkConfig::new(10_000_000, SimDuration::from_micros(10)).queue_limit(queue_limit),
        );
        let sink = sim.add_agent(Box::new(Recorder::default()));
        let route = Route::new(vec![l], sink);
        let mut ids = Vec::new();
        for _ in 0..n_pkts {
            ids.push(sim.world_mut().send_packet(sink, route.clone(), 500, Payload::Raw));
        }
        sim.run_until(SimTime::from_secs_f64(60.0));
        let arrivals = &sim.agent::<Recorder>(sink).arrivals;
        for pair in arrivals.windows(2) {
            prop_assert!(pair[0].1 < pair[1].1, "ids out of order");
            prop_assert!(pair[0].0 <= pair[1].0, "time went backwards");
        }
    }

    /// Utilization never exceeds 1 and queue occupancy never exceeds the
    /// configured bound.
    #[test]
    fn capacity_and_queue_bounds_hold(
        n_pkts in 1usize..300,
        queue_limit in 1usize..40,
    ) {
        let mut sim = Simulator::new(3);
        let l = sim.add_link(
            LinkConfig::new(5_000_000, SimDuration::from_micros(100)).queue_limit(queue_limit),
        );
        let sink = sim.add_agent(Box::new(Recorder::default()));
        let route = Route::new(vec![l], sink);
        for _ in 0..n_pkts {
            sim.world_mut().send_packet(sink, route.clone(), 1000, Payload::Raw);
        }
        sim.run_until(SimTime::from_secs_f64(30.0));
        prop_assert!(sim.world().link(l).utilization(sim.now()) <= 1.0 + 1e-9);
        prop_assert!(sim.world().link(l).stats().queue_high_water <= queue_limit);
        prop_assert_eq!(sim.world().link(l).queue_len(), 0, "queue must drain");
    }
}
