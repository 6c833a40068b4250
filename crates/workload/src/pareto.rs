//! Pareto on/off bursty cross-traffic, the Fig. 5(b) scenario driver.
//!
//! The paper: "the scenario generates on each path a bursty traffic that
//! follows Pareto pattern at rate 45 Mb/s and occurs at random intervals
//! (average 10 seconds) and with average bursty duration of 5 seconds."
//!
//! Burst durations are Pareto(α = 1.5) with a 5 s mean; gaps are
//! exponential with a 10 s mean; within a burst the source emits 1500-byte
//! packets at the configured burst rate.

use crate::sink::Sink;
use netsim::{Agent, Ctx, LinkId, Packet, Payload, Route, SimDuration, Simulator};
use rand::Rng;
use std::sync::Arc;

const TK_TOGGLE: u64 = 1;
const TK_SEND: u64 = 2;

/// Mean burst duration, seconds.
const MEAN_ON_S: f64 = 5.0;
/// Mean gap between bursts, seconds.
const MEAN_OFF_S: f64 = 10.0;
/// Pareto shape α for burst durations (must be > 1 for a finite mean).
const SHAPE: f64 = 1.5;
/// Packet size, bytes.
const PKT_BYTES: u32 = 1500;

/// Configuration of a Pareto on/off source. The burst timing is fixed at
/// the paper's: Pareto(α = 1.5) bursts of 5 s mean, exponential gaps of
/// 10 s mean, 1500-byte packets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParetoOnOffConfig {
    /// Emission rate during a burst, bits/second.
    pub burst_rate_bps: u64,
}

impl ParetoOnOffConfig {
    /// The paper's Fig. 5(b) parameters: 45 Mb/s bursts.
    pub fn paper_fig5b() -> Self {
        ParetoOnOffConfig { burst_rate_bps: 45_000_000 }
    }
}

/// Samples a Pareto-distributed value with the given shape and mean.
pub fn pareto_sample<R: Rng>(rng: &mut R, shape: f64, mean: f64) -> f64 {
    debug_assert!(shape > 1.0, "Pareto mean requires shape > 1");
    let scale = mean * (shape - 1.0) / shape;
    let u: f64 = rng.gen_range(1e-12..1.0);
    scale / u.powf(1.0 / shape)
}

/// Samples an exponential value with the given mean.
pub fn exp_sample<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

/// The on/off bursty source agent.
#[derive(Debug)]
pub struct ParetoOnOff {
    route: Arc<Route>,
    on: bool,
    interval: SimDuration,
    /// Bursts begun.
    pub bursts: u64,
    /// Packets emitted.
    pub sent: u64,
}

impl ParetoOnOff {
    /// Creates the source (attach with [`attach_pareto_cross_traffic`]).
    pub fn new(route: Arc<Route>, cfg: ParetoOnOffConfig) -> Self {
        let interval =
            SimDuration::from_secs_f64(f64::from(PKT_BYTES) * 8.0 / cfg.burst_rate_bps as f64);
        ParetoOnOff { route, on: false, interval, bursts: 0, sent: 0 }
    }
}

impl Agent for ParetoOnOff {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match token {
            TK_TOGGLE => {
                if self.on {
                    // Burst ends; schedule the next one after an exponential
                    // gap.
                    self.on = false;
                    let gap = exp_sample(ctx.rng(), MEAN_OFF_S);
                    ctx.schedule_in(SimDuration::from_secs_f64(gap), TK_TOGGLE);
                } else {
                    // Burst begins; schedule its Pareto end and start sending.
                    self.on = true;
                    self.bursts += 1;
                    let dur = pareto_sample(ctx.rng(), SHAPE, MEAN_ON_S);
                    ctx.schedule_in(SimDuration::from_secs_f64(dur), TK_TOGGLE);
                    ctx.schedule_in(SimDuration::ZERO, TK_SEND);
                }
            }
            TK_SEND if self.on => {
                ctx.send(self.route.clone(), PKT_BYTES, Payload::Raw);
                self.sent += 1;
                ctx.schedule_in(self.interval, TK_SEND);
            }
            _ => {}
        }
    }
}

/// Installs a Pareto on/off source feeding a fresh [`Sink`] across `links`.
/// The first burst is scheduled after an exponential gap (so multiple
/// sources desynchronize). Returns `(source, sink)` agent ids.
pub fn attach_pareto_cross_traffic(
    sim: &mut Simulator,
    links: Vec<LinkId>,
    cfg: ParetoOnOffConfig,
) -> (netsim::AgentId, netsim::AgentId) {
    let sink = sim.add_agent(Box::new(Sink::new()));
    let route = Route::new(links, sink);
    let src = sim.add_agent(Box::new(ParetoOnOff::new(route, cfg)));
    let first_gap = {
        let rng = sim.world_mut().rng();
        exp_sample(rng, MEAN_OFF_S)
    };
    sim.kick(src, SimDuration::from_secs_f64(first_gap), TK_TOGGLE);
    (src, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_sample_mean_converges() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| pareto_sample(&mut rng, 1.5, 5.0)).sum::<f64>() / n as f64;
        // Heavy-tailed: generous tolerance.
        assert!((mean - 5.0).abs() < 0.8, "empirical mean {mean}");
    }

    #[test]
    fn exp_sample_mean_converges() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, 10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "empirical mean {mean}");
    }

    #[test]
    fn pareto_samples_exceed_scale() {
        let mut rng = SmallRng::seed_from_u64(1);
        let scale = 5.0 * 0.5 / 1.5;
        for _ in 0..1000 {
            assert!(pareto_sample(&mut rng, 1.5, 5.0) >= scale);
        }
    }

    #[test]
    fn bursts_alternate_and_deliver_traffic() {
        let mut sim = Simulator::new(9);
        let l = sim.add_link(LinkConfig::new(100_000_000, SimDuration::ZERO).queue_limit(1000));
        let (src, sink) =
            attach_pareto_cross_traffic(&mut sim, vec![l], ParetoOnOffConfig::paper_fig5b());
        sim.run_until(SimTime::from_secs_f64(120.0));
        let source = sim.agent::<ParetoOnOff>(src);
        // 120 s with ~15 s cycles: several bursts.
        assert!(source.bursts >= 3, "bursts {}", source.bursts);
        let s = sim.agent::<Sink>(sink);
        assert!(s.pkts > 1000, "pkts {}", s.pkts);
        // Duty cycle ≈ 1/3 of 45 Mb/s: mean rate should be well below the
        // burst rate but substantial.
        let rate = s.mean_rate_bps(SimTime::from_secs_f64(120.0));
        assert!(rate > 2_000_000.0 && rate < 45_000_000.0, "rate {rate}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = || {
            let mut sim = Simulator::new(5);
            let l = sim.add_link(LinkConfig::new(100_000_000, SimDuration::ZERO).queue_limit(1000));
            let (src, _) =
                attach_pareto_cross_traffic(&mut sim, vec![l], ParetoOnOffConfig::paper_fig5b());
            sim.run_until(SimTime::from_secs_f64(60.0));
            sim.agent::<ParetoOnOff>(src).sent
        };
        assert_eq!(run(), run());
    }
}
