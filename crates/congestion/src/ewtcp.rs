//! EWTCP — Equally-Weighted TCP (Honda et al., PFLDNeT 2009).
//!
//! Each subflow runs Reno scaled by `a = 1/√n`, so that `n` subflows sharing
//! one bottleneck collectively take one TCP's share. In the paper's model
//! decomposition (§IV) this is `ψ_r = (Σ_k x_k)² / (x_r² √n)`, which reduces
//! to the per-ACK rule `Δw_r = 1 / (√n · w_r)`.
//!
//! EWTCP cannot shift traffic between paths (its increase ignores the other
//! subflows' state), which is exactly why the paper uses it as the
//! no-traffic-shifting reference point.

use crate::common;
use crate::state::{active_count, SubflowCc};
use crate::{AlgorithmKind, MultipathCongestionControl};

/// EWTCP: uncoupled Reno with `1/√n` weighting.
#[derive(Clone, Debug, Default)]
pub struct Ewtcp {
    _private: (),
}

impl Ewtcp {
    /// Creates an EWTCP controller.
    pub fn new() -> Self {
        Ewtcp::default()
    }
}

impl MultipathCongestionControl for Ewtcp {
    fn name(&self) -> &'static str {
        AlgorithmKind::Ewtcp.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        let n = active_count(flows).max(1) as f64;
        let f = &mut flows[r];
        if common::slow_start(f, newly_acked) {
            return;
        }
        let delta = 1.0 / (n.sqrt() * f.cwnd);
        common::increase(f, delta, newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Ewtcp::new())
    }
}

#[cfg(test)]
// Tests drive window arithmetic whose operands (halving, +1 steps,
// literal initial values) are exact in f64, so strict comparison pins
// the algorithm without tolerance slop.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn ca_flow(cwnd: f64, rtt: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0;
        f.observe_rtt(rtt);
        f
    }

    #[test]
    fn single_path_reduces_to_reno() {
        let mut cc = Ewtcp::new();
        let mut flows = [ca_flow(10.0, 0.1)];
        cc.on_ack(0, &mut flows, 1, false);
        assert!((flows[0].cwnd - 10.1).abs() < 1e-9);
    }

    #[test]
    fn four_paths_grow_at_half_reno_rate() {
        let mut cc = Ewtcp::new();
        let mut flows =
            [ca_flow(10.0, 0.1), ca_flow(10.0, 0.1), ca_flow(10.0, 0.1), ca_flow(10.0, 0.1)];
        cc.on_ack(0, &mut flows, 1, false);
        // 1/(√4·10) = 0.05.
        assert!((flows[0].cwnd - 10.05).abs() < 1e-9);
    }

    #[test]
    fn increase_ignores_other_paths_state() {
        // EWTCP has no traffic shifting: a congested sibling (huge RTT) does
        // not change this path's increase.
        let mut cc = Ewtcp::new();
        let mut a = [ca_flow(10.0, 0.1), ca_flow(10.0, 0.1)];
        let mut b = [ca_flow(10.0, 0.1), ca_flow(10.0, 1.0)];
        cc.on_ack(0, &mut a, 1, false);
        cc.on_ack(0, &mut b, 1, false);
        assert!((a[0].cwnd - b[0].cwnd).abs() < 1e-12);
    }
}
