//! Per-subflow congestion state shared between the transport layer and the
//! congestion-control algorithms.

/// Lower bound on the congestion window, in packets.
pub const MIN_CWND: f64 = 1.0;

/// Default initial congestion window, in packets (RFC 3390-era value; the
/// MPTCP v0.90 kernel experiments in the paper predate large IW defaults
/// mattering for these workloads).
pub const INITIAL_CWND: f64 = 3.0;

/// Upper safety bound on the congestion window, in packets. The transport
/// layer additionally enforces the receiver window; this cap only prevents
/// numeric runaway in loss-free fluid scenarios.
pub const MAX_CWND: f64 = 1_000_000.0;

/// The congestion-control view of one subflow.
///
/// The transport layer owns one of these per subflow and keeps the RTT fields
/// up to date from ACK timestamps; algorithms read the whole slice (windows
/// are coupled across subflows in MPTCP) and write `cwnd`/`ssthresh`.
#[derive(Clone, Debug, PartialEq)]
pub struct SubflowCc {
    /// Congestion window, in packets. Fractional: per-ACK increments of
    /// `1/w` accumulate exactly as in the fluid models.
    pub cwnd: f64,
    /// Slow-start threshold, in packets.
    pub ssthresh: f64,
    /// Smoothed RTT in seconds; `0.0` until the first sample.
    pub srtt: f64,
    /// Most recent RTT sample in seconds; `0.0` until the first sample.
    pub last_rtt: f64,
    /// Minimum RTT observed on this subflow (`baseRTT` in the paper);
    /// `f64::INFINITY` until the first sample.
    pub base_rtt: f64,
    /// Whether the subflow is established and usable.
    pub active: bool,
}

impl SubflowCc {
    /// A fresh subflow in slow start.
    pub fn new() -> Self {
        SubflowCc {
            cwnd: INITIAL_CWND,
            ssthresh: f64::INFINITY,
            srtt: 0.0,
            last_rtt: 0.0,
            base_rtt: f64::INFINITY,
            active: true,
        }
    }

    /// Whether at least one RTT sample has been taken.
    pub fn has_rtt(&self) -> bool {
        self.srtt > 0.0
    }

    /// Send rate estimate `x_r = w_r / RTT_r` in packets/second, or 0 before
    /// the first RTT sample.
    pub fn rate(&self) -> f64 {
        if self.active && self.srtt > 0.0 {
            self.cwnd / self.srtt
        } else {
            0.0
        }
    }

    /// Records an RTT sample, updating `last_rtt`, `srtt` (EWMA 1/8) and
    /// `base_rtt`.
    pub fn observe_rtt(&mut self, rtt: f64) {
        debug_assert!(rtt > 0.0, "non-positive RTT sample");
        self.last_rtt = rtt;
        self.srtt = if self.srtt > 0.0 { 0.875 * self.srtt + 0.125 * rtt } else { rtt };
        if rtt < self.base_rtt {
            self.base_rtt = rtt;
        }
    }

    /// Clamps the window into `[MIN_CWND, MAX_CWND]`.
    pub fn clamp_cwnd(&mut self) {
        self.cwnd = self.cwnd.clamp(MIN_CWND, MAX_CWND);
    }
}

impl Default for SubflowCc {
    fn default() -> Self {
        Self::new()
    }
}

/// Sum of send-rate estimates over active subflows: `Σ_k x_k`.
pub fn total_rate(flows: &[SubflowCc]) -> f64 {
    flows.iter().map(SubflowCc::rate).sum()
}

/// Sum of congestion windows over active subflows: `Σ_k w_k`.
pub fn total_cwnd(flows: &[SubflowCc]) -> f64 {
    flows.iter().filter(|f| f.active).map(|f| f.cwnd).sum()
}

/// Number of active subflows.
pub fn active_count(flows: &[SubflowCc]) -> usize {
    flows.iter().filter(|f| f.active).count()
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests drive window arithmetic whose operands (halving, +1 steps, literal initial values) are exact in f64, so strict comparison pins the algorithm without tolerance slop"
)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_slow_start() {
        let f = SubflowCc::new();
        assert_eq!(f.cwnd, INITIAL_CWND);
        assert!(f.ssthresh.is_infinite());
        assert!(!f.has_rtt());
        assert_eq!(f.rate(), 0.0);
    }

    #[test]
    fn rtt_observation_updates_all_fields() {
        let mut f = SubflowCc::new();
        f.observe_rtt(0.100);
        assert_eq!(f.srtt, 0.100);
        assert_eq!(f.base_rtt, 0.100);
        f.observe_rtt(0.200);
        assert!((f.srtt - 0.1125).abs() < 1e-12);
        assert_eq!(f.base_rtt, 0.100);
        assert_eq!(f.last_rtt, 0.200);
    }

    #[test]
    fn aggregates_skip_inactive_flows() {
        let mut a = SubflowCc::new();
        a.observe_rtt(0.1);
        a.cwnd = 10.0;
        let mut b = SubflowCc::new();
        b.observe_rtt(0.2);
        b.cwnd = 20.0;
        b.active = false;
        let flows = [a, b];
        assert!((total_rate(&flows) - 100.0).abs() < 1e-9);
        assert!((total_cwnd(&flows) - 10.0).abs() < 1e-9);
        assert_eq!(active_count(&flows), 1);
    }

    #[test]
    fn clamp_respects_bounds() {
        let mut f = SubflowCc::new();
        f.cwnd = 0.01;
        f.clamp_cwnd();
        assert_eq!(f.cwnd, MIN_CWND);
        f.cwnd = 1e12;
        f.clamp_cwnd();
        assert_eq!(f.cwnd, MAX_CWND);
    }
}
