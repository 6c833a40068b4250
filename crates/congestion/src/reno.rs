//! TCP Reno / NewReno congestion avoidance.
//!
//! The single-path baseline of every experiment in the paper. When attached
//! to a multi-subflow connection it runs *uncoupled*: each subflow behaves
//! like an independent Reno flow (this is the "regular TCP over each path"
//! strawman that MPTCP coupling is designed to avoid).

use crate::common;
use crate::state::SubflowCc;
use crate::{AlgorithmKind, MultipathCongestionControl};

/// TCP Reno: AIMD with `Δw = 1/w` per ACK and window halving on loss.
#[derive(Clone, Debug, Default)]
pub struct Reno {
    _private: (),
}

impl Reno {
    /// Creates a Reno controller.
    pub fn new() -> Self {
        Reno::default()
    }
}

impl MultipathCongestionControl for Reno {
    fn name(&self) -> &'static str {
        AlgorithmKind::Reno.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        let f = &mut flows[r];
        if common::slow_start(f, newly_acked) {
            return;
        }
        let delta = 1.0 / f.cwnd;
        common::increase(f, delta, newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Reno::new())
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests drive window arithmetic whose operands (halving, +1 steps, literal initial values) are exact in f64, so strict comparison pins the algorithm without tolerance slop"
)]
mod tests {
    use super::*;

    fn ca_flow(cwnd: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0;
        f.observe_rtt(0.1);
        f
    }

    #[test]
    fn one_window_of_acks_adds_one_packet() {
        let mut cc = Reno::new();
        let mut flows = [ca_flow(10.0)];
        for _ in 0..10 {
            cc.on_ack(0, &mut flows, 1, false);
        }
        // Sum of 1/w over a window ≈ 1 packet (slightly less as w grows).
        assert!((flows[0].cwnd - 11.0).abs() < 0.05, "cwnd {}", flows[0].cwnd);
    }

    #[test]
    fn loss_halves() {
        let mut cc = Reno::new();
        let mut flows = [ca_flow(32.0)];
        cc.on_loss(0, &mut flows);
        assert_eq!(flows[0].cwnd, 16.0);
    }

    #[test]
    fn subflows_are_independent() {
        let mut cc = Reno::new();
        let mut flows = [ca_flow(10.0), ca_flow(10.0)];
        let before = flows[1].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        assert_eq!(flows[1].cwnd, before);
        // Reno's increase on one path ignores the other path entirely.
        assert!((flows[0].cwnd - 10.1).abs() < 1e-9);
    }
}
