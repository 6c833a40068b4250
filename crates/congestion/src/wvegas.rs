//! wVegas — weighted Vegas, delay-based multipath congestion control
//! (Cao, Xu & Fu, ICNP 2012).
//!
//! wVegas is the one algorithm in the paper's taxonomy with step size `δ = 1`
//! (one adjustment per RTT round rather than per ACK) and a delay-based price
//! `q_r = RTT_r − baseRTT_r`. Each subflow maintains a target backlog `α_r`
//! (packets queued in the network) proportional to its share of the
//! connection's total rate, and nudges its window by ±1 per round to track
//! it:
//!
//! ```text
//! diff_r = w_r · (RTT_r − baseRTT_r) / RTT_r     (packets in queue)
//! diff_r < α_r        → w_r += 1
//! diff_r > α_r + 2    → w_r -= 1
//! ```
//!
//! Loss still halves the window. Because its equilibrium holds queues at a
//! few packets, wVegas keeps RTTs near base — the behaviour that makes
//! delay-based control attractive for energy but fragile against loss-based
//! competitors.

use crate::common;
use crate::state::{total_rate, SubflowCc};
use crate::{AlgorithmKind, MultipathCongestionControl};

/// Total target backlog across subflows, in packets (the ICNP paper's
/// `total_alpha`).
pub const TOTAL_ALPHA: f64 = 10.0;

/// Hysteresis band above `α_r` before the window is decreased.
pub const BETA_MARGIN: f64 = 2.0;

#[derive(Clone, Copy, Debug, Default)]
struct Round {
    acked: f64,
    len: f64,
}

/// wVegas delay-based multipath congestion control.
#[derive(Clone, Debug)]
pub struct WVegas {
    rounds: Vec<Round>,
}

impl WVegas {
    /// Creates a wVegas controller for `n_subflows` paths.
    pub fn new(n_subflows: usize) -> Self {
        WVegas { rounds: vec![Round::default(); n_subflows.max(1)] }
    }

    fn ensure(&mut self, n: usize) {
        if self.rounds.len() < n {
            self.rounds.resize(n, Round::default());
        }
    }

    /// The per-subflow backlog target `α_r`: this subflow's share of
    /// [`TOTAL_ALPHA`], floored at 2 packets.
    pub fn alpha_target(r: usize, flows: &[SubflowCc]) -> f64 {
        let xt = total_rate(flows);
        let xr = flows[r].rate();
        if xt <= 0.0 || xr <= 0.0 {
            return 2.0;
        }
        (TOTAL_ALPHA * xr / xt).max(2.0)
    }

    /// Vegas backlog estimate `diff_r = w_r·(RTT−base)/RTT` in packets.
    pub fn backlog(f: &SubflowCc) -> f64 {
        if f.last_rtt > 0.0 && f.base_rtt.is_finite() {
            f.cwnd * (f.last_rtt - f.base_rtt).max(0.0) / f.last_rtt
        } else {
            0.0
        }
    }
}

impl MultipathCongestionControl for WVegas {
    fn name(&self) -> &'static str {
        AlgorithmKind::WVegas.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        self.ensure(flows.len());
        // Vegas-style slow start: grow every other RTT until backlog appears.
        {
            let f = &mut flows[r];
            if f.cwnd < f.ssthresh && WVegas::backlog(f) < TOTAL_ALPHA {
                common::slow_start(f, newly_acked);
                // fall through to round bookkeeping so diff is tracked
            }
        }
        let round = &mut self.rounds[r];
        if round.len <= 0.0 {
            round.len = flows[r].cwnd;
        }
        round.acked += newly_acked as f64;
        if round.acked < round.len || !flows[r].has_rtt() {
            return;
        }
        round.acked = 0.0;
        let target = WVegas::alpha_target(r, flows);
        let f = &mut flows[r];
        let diff = WVegas::backlog(f);
        if f.cwnd >= f.ssthresh || diff >= TOTAL_ALPHA {
            // Congestion avoidance: ±1 per round toward the target backlog.
            if f.cwnd >= f.ssthresh {
                if diff < target {
                    f.cwnd += 1.0;
                } else if diff > target + BETA_MARGIN {
                    f.cwnd -= 1.0;
                }
            } else {
                // Backlog appeared during slow start: leave slow start.
                f.ssthresh = f.cwnd;
            }
            f.clamp_cwnd();
        }
        round.len = f.cwnd;
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(WVegas::new(self.rounds.len()))
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests drive window arithmetic whose operands (halving, +1 steps, literal initial values) are exact in f64, so strict comparison pins the algorithm without tolerance slop"
)]
mod tests {
    use super::*;

    fn flow(cwnd: f64, rtt: f64, base: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0; // congestion avoidance
        f.observe_rtt(base);
        f.observe_rtt(rtt);
        f
    }

    fn run_rounds(cc: &mut WVegas, flows: &mut [SubflowCc], r: usize, rounds: usize) {
        for _ in 0..rounds {
            let len = flows[r].cwnd.ceil() as u64 + 1;
            for _ in 0..len {
                cc.on_ack(r, flows, 1, false);
            }
        }
    }

    #[test]
    fn grows_when_queue_below_target() {
        let mut cc = WVegas::new(1);
        // RTT == base: zero backlog, below target → +1 per round.
        let mut flows = [flow(10.0, 0.1, 0.1)];
        let before = flows[0].cwnd;
        run_rounds(&mut cc, &mut flows, 0, 3);
        assert!(flows[0].cwnd >= before + 3.0 - 1e-9, "cwnd {}", flows[0].cwnd);
    }

    #[test]
    fn shrinks_when_queue_above_target() {
        let mut cc = WVegas::new(1);
        // Heavy queueing: RTT = 2x base → backlog = w/2 = 20 ≫ α+β.
        let mut flows = [flow(40.0, 0.2, 0.1)];
        let before = flows[0].cwnd;
        run_rounds(&mut cc, &mut flows, 0, 2);
        assert!(flows[0].cwnd < before, "cwnd {}", flows[0].cwnd);
    }

    #[test]
    fn backlog_estimate_is_vegas_diff() {
        let f = flow(40.0, 0.2, 0.1);
        assert!((WVegas::backlog(&f) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_target_splits_by_rate_share() {
        let flows = [flow(30.0, 0.1, 0.1), flow(10.0, 0.1, 0.1)];
        let a0 = WVegas::alpha_target(0, &flows);
        let a1 = WVegas::alpha_target(1, &flows);
        assert!((a0 - 7.5).abs() < 1e-9);
        assert!((a1 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn loss_halves_window() {
        let mut cc = WVegas::new(1);
        let mut flows = [flow(16.0, 0.1, 0.1)];
        cc.on_loss(0, &mut flows);
        assert_eq!(flows[0].cwnd, 8.0);
    }
}
