//! ecMTCP — energy-aware coupled MPTCP (Le et al., IEEE Communications
//! Letters 2012).
//!
//! ecMTCP couples all subflows and additionally biases the increase toward
//! low-energy-cost paths, using path RTT relative to the best path as the
//! cost signal. The paper's §IV decomposition gives
//! `ψ_r = RTT_r³ (Σ_k x_k)² / (|s| · min_k RTT_k · w_r · Σ_k w_k)`, which
//! discretized through Equation (3) collapses to the per-ACK rule
//!
//! ```text
//! Δw_r = RTT_r / ( n · min_k RTT_k · Σ_k w_k )
//! ```
//!
//! i.e. a fully coupled `1/(n·Σw)` increase scaled up on high-RTT paths in
//! *window* units — which equalizes *rate* growth across paths and gently
//! shifts traffic toward cheap paths via its loss-side behaviour.

use crate::common;
use crate::state::{active_count, total_cwnd, SubflowCc};
use crate::{AlgorithmKind, MultipathCongestionControl};

/// ecMTCP energy-aware coupled congestion avoidance.
#[derive(Clone, Debug, Default)]
pub struct EcMtcp {
    _private: (),
}

impl EcMtcp {
    /// Creates an ecMTCP controller.
    pub fn new() -> Self {
        EcMtcp::default()
    }
}

impl MultipathCongestionControl for EcMtcp {
    fn name(&self) -> &'static str {
        AlgorithmKind::EcMtcp.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let n = active_count(flows).max(1) as f64;
        let wt = total_cwnd(flows);
        let min_rtt = flows
            .iter()
            .filter(|f| f.active && f.has_rtt())
            .map(|f| f.srtt)
            .fold(f64::INFINITY, f64::min);
        if wt <= 0.0 || !min_rtt.is_finite() || !flows[r].has_rtt() {
            return;
        }
        let delta = flows[r].srtt / (n * min_rtt * wt);
        common::increase(&mut flows[r], delta, newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(EcMtcp::new())
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
        let mut cc = EcMtcp::new();
        let mut flows = [ca_flow(10.0, 0.1)];
        cc.on_ack(0, &mut flows, 1, false);
        // n=1, min_rtt=rtt: Δw = rtt/(rtt·w) = 1/w.
        assert!((flows[0].cwnd - 10.1).abs() < 1e-9);
    }

    #[test]
    fn increase_is_coupled_and_conservative() {
        // Two paths: the per-ACK increase is at most half of Reno's on equal
        // paths, so the aggregate stays TCP-friendly.
        let mut cc = EcMtcp::new();
        let mut flows = [ca_flow(10.0, 0.1), ca_flow(10.0, 0.1)];
        let before = flows[0].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        let delta = flows[0].cwnd - before;
        assert!((delta - 1.0 / (2.0 * 20.0)).abs() < 1e-12);
    }

    #[test]
    fn rate_growth_is_equalized_across_rtts() {
        // Δw ∝ rtt means Δx = Δw/rtt is the same on both paths per ACK.
        let mut cc = EcMtcp::new();
        let mut flows = [ca_flow(10.0, 0.05), ca_flow(10.0, 0.2)];
        let b0 = flows[0].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        let dx0 = (flows[0].cwnd - b0) / flows[0].srtt;
        let b1 = flows[1].cwnd;
        cc.on_ack(1, &mut flows, 1, false);
        let dx1 = (flows[1].cwnd - b1) / flows[1].srtt;
        assert!((dx0 - dx1).abs() / dx0 < 0.01, "rate deltas {dx0} {dx1}");
    }
}
