//! Online invariant checker behaviour (only built with `check-invariants`):
//! the built-in link and clock invariants hold under heavy impaired traffic,
//! and an agent whose own check fails halts every run loop at the event
//! that broke it.

#![cfg(feature = "check-invariants")]

use netsim::prelude::*;

/// Counts deliveries; its check fails once it has taken `limit` packets.
struct Sink {
    arrivals: Vec<SimTime>,
    limit: usize,
}

impl Sink {
    fn new(limit: usize) -> Self {
        Sink { arrivals: Vec::new(), limit }
    }
}

impl Agent for Sink {
    fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx<'_>) {
        self.arrivals.push(ctx.now());
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    fn check_invariants(&self, _sim: &Simulator, _deep: bool) -> Result<(), String> {
        if self.arrivals.len() >= self.limit {
            return Err(format!(
                "sink took packet {} of at most {}",
                self.arrivals.len(),
                self.limit
            ));
        }
        Ok(())
    }
}

/// A time tripwire: a timer at `at`, after which its own check fails.
struct Tripwire {
    at: SimTime,
    fired: bool,
}

impl Agent for Tripwire {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {
        self.fired = true;
    }
    fn check_invariants(&self, _sim: &Simulator, _deep: bool) -> Result<(), String> {
        if self.fired {
            return Err(format!("deliberate failure past t={:.3}s", self.at.as_secs_f64()));
        }
        Ok(())
    }
}

fn impaired_sim(seed: u64, limit: usize) -> (Simulator, AgentId) {
    let mut sim = Simulator::new(seed);
    let l = sim.add_link(LinkConfig::new(5_000_000, SimDuration::from_micros(200)).queue_limit(8));
    {
        let imp = sim.world_mut().link_mut(l).impairment_mut();
        imp.set_loss(LossModel::iid(0.05));
        imp.set_reorder(ReorderModel::uniform(0.2, SimDuration::from_millis(3)));
        imp.set_duplicate(0.1);
        imp.set_corrupt(0.1);
    }
    let sink = sim.add_agent(Box::new(Sink::new(limit)));
    let route = Route::new(vec![l], sink);
    for _ in 0..500 {
        sim.world_mut().send_packet(sink, route.clone(), 700, Payload::Raw);
    }
    (sim, sink)
}

#[test]
fn built_in_invariants_hold_under_impaired_traffic() {
    let (mut sim, sink) = impaired_sim(21, usize::MAX);
    sim.run_until(SimTime::from_secs_f64(30.0));
    assert!(sim.invariant_violation().is_none(), "{:?}", sim.invariant_violation());
    assert!(!sim.invariant_halted());
    assert!(!sim.agent::<Sink>(sink).arrivals.is_empty());
    assert_eq!(sim.now(), SimTime::from_secs_f64(30.0), "clock reaches the deadline");
}

#[test]
fn a_failing_check_halts_run_loops_at_the_violation() {
    let (mut sim, _) = impaired_sim(22, usize::MAX);
    let delay = SimDuration::from_millis(10);
    let fail_after = SimTime::ZERO + delay;
    let wire = sim.add_agent(Box::new(Tripwire { at: fail_after, fired: false }));
    sim.kick(wire, delay, 0);
    sim.run_until(SimTime::from_secs_f64(30.0));
    let v = sim.invariant_violation().expect("violation must be recorded").clone();
    assert!(v.message.contains("deliberate failure"), "{}", v.message);
    assert_eq!(v.at, fail_after, "the tripwire's own event reports it");
    assert!(sim.invariant_halted());
    // The clock freezes at the violating event rather than jumping to the
    // deadline, and further stepping refuses to run.
    assert_eq!(sim.now(), fail_after);
    let frozen = sim.now();
    assert!(!sim.step());
    assert_eq!(sim.now(), frozen);
    assert!(sim.pending_events() > 0, "events remain but the simulator is halted");
    let display = format!("{v}");
    assert!(display.contains("invariant violated at t="), "{display}");
}

#[test]
fn an_agents_own_check_halts_the_run_at_the_packet_that_broke_it() {
    const LIMIT: usize = 5;
    let (mut sim, sink) = impaired_sim(24, LIMIT);
    sim.run_until(SimTime::from_secs_f64(30.0));
    let v = sim.invariant_violation().expect("the sink's check must fire").clone();
    assert_eq!(v.message, format!("sink took packet {LIMIT} of at most {LIMIT}"));
    let arrivals = &sim.agent::<Sink>(sink).arrivals;
    assert_eq!(arrivals.len(), LIMIT, "no packet is delivered past the violation");
    assert_eq!(v.at, arrivals[LIMIT - 1], "reported at that packet's delivery");
    assert_eq!(sim.now(), v.at);
}
