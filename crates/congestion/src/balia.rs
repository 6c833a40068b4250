//! Balia — Balanced Linked Adaptation (Peng, Walid & Low, SIGMETRICS 2013;
//! the `balia` module of the MPTCP Linux kernel).
//!
//! Congestion avoidance on subflow `r`, with rates `x_k = w_k/RTT_k` and
//! `α_r = max_k x_k / x_r ≥ 1`:
//!
//! ```text
//! Δw_r = (w_r/RTT_r²) / (Σ_k x_k)² · ((1+α_r)/2) · ((4+α_r)/5)   per ACK
//! loss: w_r ← w_r · (1 − min(α_r, 1.5)/2)
//! ```
//!
//! Expanding the product gives the paper's §IV decomposition
//! `ψ_r = 2/5 + α_r/2 + α_r²/10`. Balia trades some friendliness for better
//! responsiveness than OLIA (its design goal).

use crate::common;
use crate::state::SubflowCc;
use crate::MultipathCongestionControl;

/// Balia coupled congestion avoidance.
#[derive(Clone, Debug, Default)]
pub struct Balia {
    _private: (),
}

impl Balia {
    /// Creates a Balia controller.
    pub fn new() -> Self {
        Balia::default()
    }

    /// `α_r = max_k x_k / x_r` (1.0 when `r` is the fastest path or rates are
    /// unknown).
    pub fn alpha(r: usize, flows: &[SubflowCc]) -> f64 {
        let xr = flows[r].rate();
        if xr <= 0.0 {
            return 1.0;
        }
        let xmax = flows.iter().map(SubflowCc::rate).fold(0.0f64, f64::max);
        (xmax / xr).max(1.0)
    }
}

impl MultipathCongestionControl for Balia {
    fn name(&self) -> &'static str {
        "balia"
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let alpha = Balia::alpha(r, flows);
        let psi = ((1.0 + alpha) / 2.0) * ((4.0 + alpha) / 5.0);
        let delta = common::model_increase(psi, r, flows);
        common::increase(&mut flows[r], delta, newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        let alpha = Balia::alpha(r, flows);
        common::decrease(&mut flows[r], alpha.min(1.5) / 2.0);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Balia::new())
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
        // α = 1 → ψ = (2/2)·(5/5) = 1 → Δw = 1/w; loss factor min(1,1.5)/2 = 1/2.
        let mut cc = Balia::new();
        let mut flows = [ca_flow(10.0, 0.1)];
        cc.on_ack(0, &mut flows, 1, false);
        assert!((flows[0].cwnd - 10.1).abs() < 1e-9);
        cc.on_loss(0, &mut flows);
        assert!((flows[0].cwnd - 5.05).abs() < 1e-9);
    }

    #[test]
    fn slow_path_gets_boosted_increase() {
        // The slower path (smaller rate) has α > 1 and thus ψ > 1: Balia
        // keeps it from starving (balanced adaptation).
        let flows = [ca_flow(10.0, 0.05), ca_flow(10.0, 0.2)];
        let a_fast = Balia::alpha(0, &flows);
        let a_slow = Balia::alpha(1, &flows);
        assert_eq!(a_fast, 1.0);
        assert!((a_slow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn loss_backoff_is_capped_at_three_quarters() {
        let mut cc = Balia::new();
        let mut flows = [ca_flow(10.0, 0.01), ca_flow(40.0, 1.0)];
        // Path 1 is much slower: α huge, capped at 1.5 → factor 0.75.
        cc.on_loss(1, &mut flows);
        assert!((flows[1].cwnd - 10.0).abs() < 1e-9);
    }

    #[test]
    fn psi_matches_paper_decomposition() {
        // ψ = ((1+α)/2)((4+α)/5) must equal 2/5 + α/2 + α²/10.
        for alpha in [1.0f64, 1.5, 2.0, 4.0, 10.0] {
            let product = ((1.0 + alpha) / 2.0) * ((4.0 + alpha) / 5.0);
            let expanded = 0.4 + alpha / 2.0 + alpha * alpha / 10.0;
            assert!((product - expanded).abs() < 1e-12);
        }
    }
}
