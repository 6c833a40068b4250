//! Terminal sink for background traffic.

use netsim::{Agent, Ctx, Packet, SimTime};

/// Counts the raw traffic delivered to it; the endpoint for cross-traffic
/// routes.
#[derive(Debug, Default)]
pub struct Sink {
    /// Packets delivered.
    pub pkts: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

impl Sink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Sink::default()
    }

    /// Mean delivered rate in bits/second over `[0, now]`.
    pub fn mean_rate_bps(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs > 0.0 {
            self.bytes as f64 * 8.0 / secs
        } else {
            0.0
        }
    }
}

impl Agent for Sink {
    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.pkts += 1;
        self.bytes += u64::from(pkt.size_bytes);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;

    #[test]
    fn sink_counts_traffic() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(1_000_000, SimDuration::ZERO));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let route = Route::new(vec![l], sink);
        for _ in 0..4 {
            sim.world_mut().send_packet(sink, route.clone(), 500, Payload::Raw);
        }
        sim.run_until(SimTime::from_secs_f64(1.0));
        let s = sim.agent::<Sink>(sink);
        assert_eq!(s.pkts, 4);
        assert_eq!(s.bytes, 2000);
        assert!(s.mean_rate_bps(SimTime::from_secs_f64(1.0)) > 0.0);
    }
}
