//! LIA — Linked Increases Algorithm (Wischik et al., NSDI 2011; RFC 6356).
//!
//! The MPTCP kernel default. Congestion avoidance on subflow `r`:
//!
//! ```text
//! Δw_r = min( α / Σ_k w_k ,  1 / w_r )          per ACK
//! α    = (Σ_k w_k) · max_k(w_k/RTT_k²) / (Σ_k w_k/RTT_k)²
//! ```
//!
//! The `min` with `1/w_r` caps each subflow at plain-TCP aggressiveness; the
//! `α` numerator makes the aggregate take at most a best-path TCP's share
//! (the paper's Condition 1). In the paper's decomposition this is
//! `ψ_r = (max_k w_k/RTT_k²) · RTT_r² / w_r`.

use crate::common;
use crate::state::{total_cwnd, total_rate, SubflowCc};
use crate::{AlgorithmKind, MultipathCongestionControl};

/// LIA (RFC 6356) coupled congestion avoidance.
#[derive(Clone, Debug, Default)]
pub struct Lia {
    _private: (),
}

impl Lia {
    /// Creates a LIA controller.
    pub fn new() -> Self {
        Lia::default()
    }

    /// RFC 6356 `alpha`: the aggregate aggressiveness scale factor.
    /// Returns 0 until RTT estimates exist.
    pub fn alpha(flows: &[SubflowCc]) -> f64 {
        let wt = total_cwnd(flows);
        let xt = total_rate(flows);
        if wt <= 0.0 || xt <= 0.0 {
            return 0.0;
        }
        let best = flows
            .iter()
            .filter(|f| f.active && f.has_rtt())
            .map(|f| f.cwnd / (f.srtt * f.srtt))
            .fold(0.0f64, f64::max);
        wt * best / (xt * xt)
    }
}

impl MultipathCongestionControl for Lia {
    fn name(&self) -> &'static str {
        AlgorithmKind::Lia.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let alpha = Lia::alpha(flows);
        let wt = total_cwnd(flows);
        if wt <= 0.0 {
            return;
        }
        let coupled = alpha / wt;
        let uncoupled = 1.0 / flows[r].cwnd;
        common::increase(&mut flows[r], coupled.min(uncoupled), newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Lia::new())
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
        let mut cc = Lia::new();
        let mut flows = [ca_flow(10.0, 0.1)];
        cc.on_ack(0, &mut flows, 1, false);
        // α = w·(w/rtt²)/(w/rtt)² = 1, so Δw = min(1/w, 1/w) = 1/w.
        assert!((flows[0].cwnd - 10.1).abs() < 1e-9);
    }

    #[test]
    fn alpha_equals_one_on_symmetric_paths() {
        // Two equal paths: α = 2w·(w/rtt²)/(2w/rtt)² = 1/2... compute:
        // wt=2w, best=w/rtt², xt=2w/rtt → α = 2w·(w/rtt²)/(4w²/rtt²) = 1/2.
        let flows = [ca_flow(10.0, 0.1), ca_flow(10.0, 0.1)];
        assert!((Lia::alpha(&flows) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn aggregate_increase_never_exceeds_best_path_tcp() {
        // TCP-friendliness (paper Condition 1): total per-ACK increase over
        // one round ≤ best-path Reno's.
        let flows = [ca_flow(10.0, 0.1), ca_flow(20.0, 0.2)];
        let alpha = Lia::alpha(&flows);
        let wt = total_cwnd(&flows);
        // Per-round aggregate growth: Σ_r w_r·min(α/wt, 1/w_r) ≤ 1.
        let growth: f64 = flows.iter().map(|f| f.cwnd * (alpha / wt).min(1.0 / f.cwnd)).sum();
        assert!(growth <= 1.0 + 1e-9, "round growth {growth}");
    }

    #[test]
    fn cap_applies_on_asymmetric_paths() {
        // A tiny subflow next to a huge one: the min() caps its increase at
        // its own Reno rate rather than the coupled rate.
        let mut cc = Lia::new();
        let mut flows = [ca_flow(2.0, 0.01), ca_flow(100.0, 0.5)];
        let before = flows[0].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        let delta = flows[0].cwnd - before;
        assert!(delta <= 1.0 / 2.0 + 1e-12, "delta {delta}");
    }

    #[test]
    fn shifts_traffic_toward_low_rtt_path() {
        // Same windows, different RTTs: LIA's α is driven by the *best*
        // (lowest-RTT) path, and both subflows receive the same coupled
        // increment per ACK — but the low-RTT path acks faster in real time,
        // so per unit time it grows faster. Here we check the per-ACK delta
        // is equal (coupling) while rates differ.
        let mut cc = Lia::new();
        let mut flows = [ca_flow(10.0, 0.05), ca_flow(10.0, 0.2)];
        let b0 = flows[0].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        let d0 = flows[0].cwnd - b0;
        let b1 = flows[1].cwnd;
        cc.on_ack(1, &mut flows, 1, false);
        let d1 = flows[1].cwnd - b1;
        assert!(d0 > 0.0 && d1 > 0.0);
        assert!((d0 - d1).abs() / d0 < 0.05, "coupled deltas {d0} {d1}");
    }
}
