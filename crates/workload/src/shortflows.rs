//! Short-flow ("mice") workloads: Poisson arrivals of small transfers, the
//! datacenter traffic mix of Benson et al. (IMC 2010), which the paper cites
//! for the burstiness of real fabrics.
//!
//! Agents cannot be added to a running simulation, so the generator
//! pre-samples the whole arrival process (Poisson arrivals, log-uniform
//! sizes) and returns a schedule; the caller attaches one flow per arrival
//! with the sampled start time.

use crate::pareto::exp_sample;
use netsim::SimDuration;
use rand::Rng;

/// One scheduled short flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShortFlow {
    /// Arrival (start) time.
    pub start: SimDuration,
    /// Transfer size in bytes.
    pub bytes: u64,
}

/// Smallest flow, bytes.
const MIN_BYTES: u64 = 10 * 1024;

/// Parameters of the short-flow process. The smallest flow is fixed at
/// 10 KiB.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShortFlowConfig {
    /// Mean arrival rate, flows/second.
    pub rate_per_s: f64,
    /// Largest flow, bytes (sizes are log-uniform in `[10 KiB, max]`, the
    /// heavy-tailed shape of measured DC mice/elephant mixes).
    pub max_bytes: u64,
    /// Horizon over which arrivals are generated, seconds.
    pub horizon_s: f64,
}

impl Default for ShortFlowConfig {
    fn default() -> Self {
        ShortFlowConfig { rate_per_s: 20.0, max_bytes: 1024 * 1024, horizon_s: 10.0 }
    }
}

/// Samples the arrival schedule.
///
/// # Panics
///
/// Panics if `max_bytes` is below 10 KiB.
pub fn short_flow_schedule<R: Rng>(cfg: &ShortFlowConfig, rng: &mut R) -> Vec<ShortFlow> {
    assert!(MIN_BYTES <= cfg.max_bytes);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mean_gap = 1.0 / cfg.rate_per_s;
    loop {
        t += exp_sample(rng, mean_gap);
        if t >= cfg.horizon_s {
            break;
        }
        let lo = (MIN_BYTES as f64).ln();
        let hi = (cfg.max_bytes as f64).ln();
        let bytes = (lo + rng.gen_range(0.0..1.0) * (hi - lo)).exp() as u64;
        out.push(ShortFlow { start: SimDuration::from_secs_f64(t), bytes: bytes.max(1) });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn arrival_count_tracks_rate() {
        let mut rng = SmallRng::seed_from_u64(8);
        let cfg = ShortFlowConfig { rate_per_s: 50.0, horizon_s: 100.0, ..Default::default() };
        let sched = short_flow_schedule(&cfg, &mut rng);
        let n = sched.len() as f64;
        assert!((n - 5000.0).abs() < 300.0, "arrivals {n}");
    }

    #[test]
    fn sizes_span_the_configured_range() {
        let mut rng = SmallRng::seed_from_u64(9);
        let cfg = ShortFlowConfig { rate_per_s: 100.0, horizon_s: 50.0, ..Default::default() };
        let sched = short_flow_schedule(&cfg, &mut rng);
        assert!(sched.iter().all(|f| f.bytes >= MIN_BYTES && f.bytes <= cfg.max_bytes));
        let small = sched.iter().filter(|f| f.bytes < 100 * 1024).count();
        let large = sched.iter().filter(|f| f.bytes >= 100 * 1024).count();
        assert!(small > 0 && large > 0, "log-uniform should cover both ends");
    }

    #[test]
    fn schedule_is_sorted_and_within_horizon() {
        let mut rng = SmallRng::seed_from_u64(10);
        let cfg = ShortFlowConfig::default();
        let sched = short_flow_schedule(&cfg, &mut rng);
        for pair in sched.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        assert!(sched.iter().all(|f| f.start.as_secs_f64() < cfg.horizon_s));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ShortFlowConfig::default();
        let a = short_flow_schedule(&cfg, &mut SmallRng::seed_from_u64(3));
        let b = short_flow_schedule(&cfg, &mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
