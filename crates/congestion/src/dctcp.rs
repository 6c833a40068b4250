//! DCTCP — Data Center TCP (Alizadeh et al., SIGCOMM 2010).
//!
//! The single-path datacenter baseline of the paper's Fig. 10 (EC2)
//! comparison. DCTCP keeps Reno's additive increase but reacts to the
//! *fraction* `F` of ECN-marked packets per window:
//!
//! ```text
//! α ← (1−g)·α + g·F        once per window (g = 1/16)
//! w ← w·(1 − α/2)           once per marked window
//! ```
//!
//! Like Reno, it runs uncoupled when attached to multiple subflows.

use crate::common;
use crate::state::SubflowCc;
use crate::{AlgorithmKind, MultipathCongestionControl};

/// EWMA gain for the marking-fraction estimator (RFC 8257 recommends 1/16).
pub const DCTCP_G: f64 = 1.0 / 16.0;

#[derive(Clone, Copy, Debug)]
struct WindowState {
    /// Smoothed marking fraction α.
    alpha: f64,
    /// Packets acked in the current observation window.
    acked: f64,
    /// Of those, packets with the ECN echo set.
    marked: f64,
    /// Window length target (cwnd at the start of the round).
    round_len: f64,
}

impl WindowState {
    fn new() -> Self {
        WindowState { alpha: 1.0, acked: 0.0, marked: 0.0, round_len: 0.0 }
    }
}

/// DCTCP ECN-proportional congestion control.
#[derive(Clone, Debug)]
pub struct Dctcp {
    windows: Vec<WindowState>,
}

impl Dctcp {
    /// Creates a DCTCP controller for `n_subflows` (usually 1).
    pub fn new(n_subflows: usize) -> Self {
        Dctcp { windows: vec![WindowState::new(); n_subflows.max(1)] }
    }

    fn ensure(&mut self, n: usize) {
        if self.windows.len() < n {
            self.windows.resize(n, WindowState::new());
        }
    }

    /// Current marking-fraction estimate for subflow `r`.
    pub fn alpha(&self, r: usize) -> f64 {
        self.windows.get(r).map_or(1.0, |w| w.alpha)
    }
}

impl MultipathCongestionControl for Dctcp {
    fn name(&self) -> &'static str {
        AlgorithmKind::Dctcp.name()
    }

    fn wants_ecn(&self) -> bool {
        true
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, ecn_echo: bool) {
        self.ensure(flows.len());
        let f = &mut flows[r];
        let w = &mut self.windows[r];
        if w.round_len <= 0.0 {
            w.round_len = f.cwnd;
        }
        w.acked += newly_acked as f64;
        if ecn_echo {
            w.marked += newly_acked as f64;
            // A mark during slow start ends slow start (RFC 8257 §3.4).
            if f.cwnd < f.ssthresh {
                f.ssthresh = f.cwnd;
            }
        }
        if w.acked >= w.round_len {
            let fraction = (w.marked / w.acked).clamp(0.0, 1.0);
            w.alpha = (1.0 - DCTCP_G) * w.alpha + DCTCP_G * fraction;
            if w.marked > 0.0 {
                common::decrease(f, (w.alpha / 2.0).clamp(1e-6, 1.0));
            }
            w.acked = 0.0;
            w.marked = 0.0;
            w.round_len = f.cwnd;
        }
        if common::slow_start(f, newly_acked) {
            return;
        }
        if !ecn_echo {
            let delta = 1.0 / f.cwnd;
            common::increase(f, delta, newly_acked);
        }
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Dctcp::new(self.windows.len()))
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
        f.observe_rtt(0.001);
        f
    }

    #[test]
    fn unmarked_traffic_decays_alpha() {
        let mut cc = Dctcp::new(1);
        let mut flows = [ca_flow(10.0)];
        let a0 = cc.alpha(0);
        for _ in 0..100 {
            cc.on_ack(0, &mut flows, 1, false);
        }
        assert!(cc.alpha(0) < a0 * 0.7, "alpha should decay: {}", cc.alpha(0));
    }

    #[test]
    fn fully_marked_window_halves_eventually() {
        let mut cc = Dctcp::new(1);
        let mut flows = [ca_flow(100.0)];
        // Saturate α at 1 with fully marked windows.
        for _ in 0..2000 {
            cc.on_ack(0, &mut flows, 1, true);
        }
        assert!(cc.alpha(0) > 0.9);
        // With α≈1 each marked window roughly halves cwnd → window collapses
        // toward the floor.
        assert!(flows[0].cwnd < 10.0, "cwnd {}", flows[0].cwnd);
    }

    #[test]
    fn light_marking_gives_gentle_backoff() {
        let mut cc = Dctcp::new(1);
        let mut flows = [ca_flow(100.0)];
        // Decay alpha first with clean windows.
        for _ in 0..3000 {
            cc.on_ack(0, &mut flows, 1, false);
        }
        let w_before = flows[0].cwnd;
        let a = cc.alpha(0);
        // One mark in the next window.
        cc.on_ack(0, &mut flows, 1, true);
        for _ in 0..(w_before as u64) {
            cc.on_ack(0, &mut flows, 1, false);
        }
        // Reduction factor ≈ α/2, far smaller than Reno's 1/2.
        assert!(flows[0].cwnd > w_before * (1.0 - a), "gentle backoff");
    }

    #[test]
    fn mark_in_slow_start_exits_slow_start() {
        let mut cc = Dctcp::new(1);
        let mut flows = [SubflowCc::new()];
        flows[0].observe_rtt(0.001);
        assert!(flows[0].cwnd < flows[0].ssthresh);
        cc.on_ack(0, &mut flows, 1, true);
        assert!(flows[0].ssthresh.is_finite());
    }
}
