//! DWC — Dynamic Window Coupling (Hassayoun, Iyengar & Ros, ICNP 2011).
//!
//! In the paper's §IV taxonomy DWC is the algorithm whose decrease signal
//! `λ_r` is a *delay condition* rather than a loss: subflows sharing a
//! bottleneck are detected through correlated delay growth and their
//! windows are coupled as a group; a subflow whose delay crosses the
//! congestion threshold backs off without waiting for loss.
//!
//! This implementation keeps DWC's observable behaviour at the granularity
//! the paper's model uses:
//!
//! * group-coupled LIA-style increase across the subflows currently flagged
//!   as sharing a bottleneck (delay-correlated), independent Reno increase
//!   for the rest;
//! * multiplicative decrease triggered by the delay condition
//!   `RTT_r > baseRTT_r + θ·(maxRTT_r − baseRTT_r)` (once per RTT round),
//!   as well as by loss.

use crate::common;
use crate::state::SubflowCc;
use crate::{AlgorithmKind, MultipathCongestionControl};

/// Fraction of the observed delay range treated as the congestion threshold
/// (the ICNP paper's τ).
pub const DELAY_THRESHOLD: f64 = 0.6;

#[derive(Clone, Copy, Debug, Default)]
struct PathState {
    /// Largest RTT ever observed, seconds.
    max_rtt: f64,
    /// Packets acked in the current round.
    acked: f64,
    /// Round length (cwnd at round start).
    round_len: f64,
    /// Whether the delay condition currently flags this path.
    congested: bool,
}

/// DWC: delay-signalled, group-coupled congestion control.
#[derive(Clone, Debug)]
pub struct Dwc {
    paths: Vec<PathState>,
}

impl Dwc {
    /// Creates a DWC controller for `n_subflows` paths.
    pub fn new(n_subflows: usize) -> Self {
        Dwc { paths: vec![PathState::default(); n_subflows.max(1)] }
    }

    fn ensure(&mut self, n: usize) {
        if self.paths.len() < n {
            self.paths.resize(n, PathState::default());
        }
    }

    /// Whether the delay condition holds for subflow `r`.
    pub fn delay_condition(&self, r: usize, f: &SubflowCc) -> bool {
        let p = &self.paths[r];
        if f.last_rtt <= 0.0 || !f.base_rtt.is_finite() || p.max_rtt <= f.base_rtt {
            return false;
        }
        f.last_rtt > f.base_rtt + DELAY_THRESHOLD * (p.max_rtt - f.base_rtt)
    }

    /// Which subflows are currently grouped (sharing a bottleneck per the
    /// delay signal).
    pub fn group(&self) -> Vec<bool> {
        self.paths.iter().map(|p| p.congested).collect()
    }
}

impl MultipathCongestionControl for Dwc {
    fn name(&self) -> &'static str {
        AlgorithmKind::Dwc.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        self.ensure(flows.len());
        if flows[r].last_rtt > self.paths[r].max_rtt {
            self.paths[r].max_rtt = flows[r].last_rtt;
        }
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        // Round bookkeeping for the once-per-RTT delay decrease.
        let round_done = {
            let p = &mut self.paths[r];
            if p.round_len <= 0.0 {
                p.round_len = flows[r].cwnd;
            }
            p.acked += newly_acked as f64;
            p.acked >= p.round_len
        };
        if round_done {
            let congested = self.delay_condition(r, &flows[r]);
            let p = &mut self.paths[r];
            p.acked = 0.0;
            p.congested = congested;
            if congested {
                // λ_r fired: delay-triggered multiplicative decrease.
                common::halve(&mut flows[r]);
                p.round_len = flows[r].cwnd;
                return;
            }
            p.round_len = flows[r].cwnd;
        }
        // Increase: LIA-coupled across the congested group; Reno otherwise.
        // The group is walked, not collected: this runs once per ACK and
        // must not allocate.
        let in_group = self.paths[r].congested;
        let group = || (0..flows.len()).filter(|&k| self.paths.get(k).is_some_and(|p| p.congested));
        let delta = if in_group && group().count() >= 2 {
            let wt: f64 = group().map(|k| flows[k].cwnd).sum();
            let xt: f64 = group().map(|k| flows[k].rate()).sum();
            let best = group()
                .map(|k| flows[k].cwnd / (flows[k].srtt * flows[k].srtt))
                .fold(0.0f64, f64::max);
            if wt > 0.0 && xt > 0.0 {
                (wt * best / (xt * xt) / wt).min(1.0 / flows[r].cwnd)
            } else {
                1.0 / flows[r].cwnd
            }
        } else {
            1.0 / flows[r].cwnd
        };
        common::increase(&mut flows[r], delta, newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        self.ensure(flows.len());
        self.paths[r].congested = true;
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Dwc::new(self.paths.len()))
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests drive window arithmetic whose operands (halving, +1 steps, literal initial values) are exact in f64, so strict comparison pins the algorithm without tolerance slop"
)]
mod tests {
    use super::*;

    fn flow(cwnd: f64, base: f64, rtt: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0;
        f.observe_rtt(base);
        f.observe_rtt(rtt);
        f
    }

    #[test]
    fn delay_condition_requires_observed_range() {
        let dwc = Dwc::new(1);
        let f = flow(10.0, 0.1, 0.1);
        assert!(!dwc.delay_condition(0, &f), "no range observed yet");
    }

    #[test]
    fn delay_condition_fires_above_threshold() {
        let mut dwc = Dwc::new(1);
        dwc.paths[0].max_rtt = 0.3;
        let calm = flow(10.0, 0.1, 0.15); // below 0.1 + 0.6·0.2 = 0.22
        let hot = flow(10.0, 0.1, 0.25); // above
        assert!(!dwc.delay_condition(0, &calm));
        assert!(dwc.delay_condition(0, &hot));
    }

    #[test]
    fn delay_triggers_window_decrease_without_loss() {
        let mut dwc = Dwc::new(1);
        let mut flows = [flow(10.0, 0.05, 0.05)];
        // Teach it a high max RTT, then inflate the observed RTT.
        flows[0].observe_rtt(0.30);
        dwc.on_ack(0, &mut flows, 1, false); // records max
        flows[0].observe_rtt(0.29);
        let w = flows[0].cwnd;
        // Complete a round of ACKs with the delay condition holding.
        for _ in 0..(w.ceil() as u64 + 2) {
            dwc.on_ack(0, &mut flows, 1, false);
        }
        assert!(
            flows[0].cwnd < w,
            "delay signal should shrink the window: {} -> {}",
            w,
            flows[0].cwnd
        );
    }

    #[test]
    fn calm_path_grows_like_reno() {
        let mut dwc = Dwc::new(1);
        let mut flows = [flow(10.0, 0.05, 0.05)];
        let before = flows[0].cwnd;
        dwc.on_ack(0, &mut flows, 1, false);
        assert!((flows[0].cwnd - before - 0.1).abs() < 1e-9);
    }

    #[test]
    fn loss_joins_the_group_and_halves() {
        let mut dwc = Dwc::new(2);
        let mut flows = [flow(20.0, 0.05, 0.05), flow(20.0, 0.05, 0.05)];
        dwc.on_loss(0, &mut flows);
        assert_eq!(flows[0].cwnd, 10.0);
        assert!(dwc.group()[0]);
        assert!(!dwc.group()[1]);
    }
}
