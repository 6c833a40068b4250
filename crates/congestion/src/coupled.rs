//! Fully coupled congestion control (Kelly & Voice 2005; Han et al. 2006).
//!
//! The paper's decomposition gives `ψ_r = RTT_r²(Σ_k x_k)²/(Σ_k w_k)²`, which
//! discretizes to the per-ACK rule `Δw_r = w_r / (Σ_k w_k)²`. On a single
//! path this is Reno; across paths it couples so hard that all traffic
//! eventually concentrates on the least-congested path ("flappiness"), the
//! known drawback that motivated LIA's semi-coupling.

use crate::common;
use crate::state::{total_cwnd, SubflowCc};
use crate::{AlgorithmKind, MultipathCongestionControl};

/// Fully coupled Kelly/Voice window control.
#[derive(Clone, Debug, Default)]
pub struct CoupledKv {
    _private: (),
}

impl CoupledKv {
    /// Creates a fully coupled controller.
    pub fn new() -> Self {
        CoupledKv::default()
    }
}

impl MultipathCongestionControl for CoupledKv {
    fn name(&self) -> &'static str {
        AlgorithmKind::Coupled.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let wt = total_cwnd(flows);
        if wt <= 0.0 {
            return;
        }
        let delta = flows[r].cwnd / (wt * wt);
        common::increase(&mut flows[r], delta, newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(CoupledKv::new())
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
        let mut cc = CoupledKv::new();
        let mut flows = [ca_flow(10.0, 0.1)];
        cc.on_ack(0, &mut flows, 1, false);
        assert!((flows[0].cwnd - 10.1).abs() < 1e-9);
    }

    #[test]
    fn total_increase_is_at_most_one_tcp() {
        // Two equal paths, one round (w ACKs per path): each ACK adds
        // w_r/(Σw)², so the round's total growth is Σ_r w_r²/(Σw)² = 1/2 —
        // strictly TCP-friendly (≤ 1 packet/round, the single-TCP rate).
        let mut cc = CoupledKv::new();
        let mut flows = [ca_flow(10.0, 0.1), ca_flow(10.0, 0.1)];
        let before = total_cwnd(&flows);
        for _ in 0..10 {
            cc.on_ack(0, &mut flows, 1, false);
            cc.on_ack(1, &mut flows, 1, false);
        }
        let grown = total_cwnd(&flows) - before;
        assert!((grown - 0.5).abs() < 0.05, "total growth {grown}");
        assert!(grown <= 1.0);
    }

    #[test]
    fn bigger_window_grows_faster_concentrating_traffic() {
        let mut cc = CoupledKv::new();
        let mut flows = [ca_flow(15.0, 0.1), ca_flow(5.0, 0.1)];
        let d0 = {
            let w = flows[0].cwnd;
            cc.on_ack(0, &mut flows, 1, false);
            flows[0].cwnd - w
        };
        let d1 = {
            let w = flows[1].cwnd;
            cc.on_ack(1, &mut flows, 1, false);
            flows[1].cwnd - w
        };
        assert!(d0 > d1, "coupled favours the larger window ({d0} vs {d1})");
    }
}
