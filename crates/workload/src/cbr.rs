//! Constant-bit-rate traffic source.

use netsim::{Agent, Ctx, LinkId, Packet, Payload, Route, SimDuration, Simulator};
use std::sync::Arc;

use crate::sink::Sink;

const TK_TICK: u64 = 1;

/// Emits fixed-size raw packets at a constant rate along a route.
#[derive(Debug)]
pub struct CbrSource {
    route: Arc<Route>,
    pkt_bytes: u32,
    interval: SimDuration,
    /// Packets emitted.
    pub sent: u64,
}

impl CbrSource {
    /// Creates a CBR source at `rate_bps` with `pkt_bytes` packets.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` or `pkt_bytes` is zero.
    pub fn new(route: Arc<Route>, rate_bps: u64, pkt_bytes: u32) -> Self {
        assert!(rate_bps > 0 && pkt_bytes > 0);
        let interval = SimDuration::from_secs_f64(f64::from(pkt_bytes) * 8.0 / rate_bps as f64);
        CbrSource { route, pkt_bytes, interval, sent: 0 }
    }
}

impl Agent for CbrSource {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == TK_TICK {
            ctx.send(self.route.clone(), self.pkt_bytes, Payload::Raw);
            self.sent += 1;
            ctx.schedule_in(self.interval, TK_TICK);
        }
    }
}

/// Convenience: installs a CBR source feeding a fresh [`Sink`] across
/// `links`, starting after `start`. Returns `(source, sink)` agent ids.
pub fn attach_cbr(
    sim: &mut Simulator,
    links: Vec<LinkId>,
    rate_bps: u64,
    pkt_bytes: u32,
    start: SimDuration,
) -> (netsim::AgentId, netsim::AgentId) {
    let sink = sim.add_agent(Box::new(Sink::new()));
    let route = Route::new(links, sink);
    let src = sim.add_agent(Box::new(CbrSource::new(route, rate_bps, pkt_bytes)));
    sim.kick(src, start, TK_TICK);
    (src, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;

    #[test]
    fn cbr_hits_target_rate() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(10_000_000, SimDuration::ZERO));
        let (_src, sink) = attach_cbr(&mut sim, vec![l], 1_000_000, 1250, SimDuration::ZERO);
        sim.run_until(SimTime::from_secs_f64(10.0));
        let s = sim.agent::<Sink>(sink);
        // 1 Mb/s = 100 pkt/s of 1250 B over 10 s ≈ 1000 packets.
        assert!((s.pkts as i64 - 1000).unsigned_abs() <= 2, "pkts {}", s.pkts);
    }

    #[test]
    fn delayed_start_is_respected() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(10_000_000, SimDuration::ZERO));
        let (_src, sink) =
            attach_cbr(&mut sim, vec![l], 1_000_000, 1250, SimDuration::from_secs(5));
        sim.run_until(SimTime::from_secs_f64(4.0));
        assert_eq!(sim.agent::<Sink>(sink).pkts, 0);
        sim.run_until(SimTime::from_secs_f64(6.0));
        assert!(sim.agent::<Sink>(sink).pkts > 50);
    }
}
