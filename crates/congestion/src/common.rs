//! Shared window-evolution building blocks.
//!
//! Every loss-based algorithm in this crate keeps regular TCP slow start,
//! multiplicative decrease on loss, and window collapse on timeout — only
//! the congestion-avoidance increase differs (the paper's `ψ_r` parameter).
//! These helpers implement the shared parts once.

use crate::state::{SubflowCc, MIN_CWND};

/// Performs slow start on `f` if it applies, returning `true` if the ACK was
/// consumed by slow start (congestion avoidance should then be skipped).
///
/// Slow start grows the window by one packet per acked packet until
/// `ssthresh`. On the ACK that crosses `ssthresh` the window is set to
/// `ssthresh` and `false` is returned so the caller applies its
/// congestion-avoidance increase to the same ACK — without this, an
/// algorithm with a decrease term (DTS-Φ's drain) can be pinned exactly at
/// `ssthresh`, re-entering slow start forever.
pub fn slow_start(f: &mut SubflowCc, newly_acked: u64) -> bool {
    if f.cwnd < f.ssthresh {
        f.cwnd += newly_acked as f64;
        if f.cwnd >= f.ssthresh {
            f.cwnd = f.ssthresh;
            f.clamp_cwnd();
            return false; // crossing ACK continues in congestion avoidance
        }
        f.clamp_cwnd();
        true
    } else {
        false
    }
}

/// Standard multiplicative decrease (`β = 1/2` in the paper's model):
/// `ssthresh = cwnd/2`, `cwnd = ssthresh`.
pub fn halve(f: &mut SubflowCc) {
    decrease(f, 0.5);
}

/// Multiplicative decrease by an arbitrary factor: the window becomes
/// `cwnd * (1 - factor)`, floored at [`MIN_CWND`].
///
/// # Panics
///
/// Panics in debug builds if `factor` is outside `(0, 1]`.
pub fn decrease(f: &mut SubflowCc, factor: f64) {
    debug_assert!(factor > 0.0 && factor <= 1.0, "decrease factor {factor}");
    f.ssthresh = (f.cwnd * (1.0 - factor)).max(MIN_CWND);
    f.cwnd = f.ssthresh;
}

/// RTO collapse: `ssthresh = cwnd/2`, `cwnd = 1`.
pub fn timeout(f: &mut SubflowCc) {
    f.ssthresh = (f.cwnd * 0.5).max(2.0 * MIN_CWND);
    f.cwnd = MIN_CWND;
}

/// Applies a congestion-avoidance increment `delta` (per acked packet) for
/// `newly_acked` packets, clamping to the valid window range.
pub fn increase(f: &mut SubflowCc, delta_per_ack: f64, newly_acked: u64) {
    debug_assert!(delta_per_ack.is_finite(), "non-finite cwnd increment");
    f.cwnd += delta_per_ack.max(0.0) * newly_acked as f64;
    f.clamp_cwnd();
}

/// The paper's Equation (3) increase term discretized per ACK:
///
/// `Δw_r = ψ · (w_r / RTT_r²) / (Σ_k w_k / RTT_k)²`
///
/// which is the window-increase rule printed in Algorithm 1. With `ψ = 1`
/// this is exactly OLIA's base term. Returns 0 until every active subflow has
/// an RTT estimate.
pub fn model_increase(psi: f64, r: usize, flows: &[SubflowCc]) -> f64 {
    let f = &flows[r];
    if !f.has_rtt() {
        return 0.0;
    }
    let sum_rate: f64 = flows.iter().map(SubflowCc::rate).sum();
    if sum_rate <= 0.0 {
        return 0.0;
    }
    psi * (f.cwnd / (f.srtt * f.srtt)) / (sum_rate * sum_rate)
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests drive window arithmetic whose operands (halving, +1 steps, literal initial values) are exact in f64, so strict comparison pins the algorithm without tolerance slop"
)]
mod tests {
    use super::*;

    fn flow(cwnd: f64, rtt: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0; // congestion avoidance
        f.observe_rtt(rtt);
        f
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut f = SubflowCc::new();
        f.ssthresh = 100.0;
        let w0 = f.cwnd;
        // Acking a full window in slow start doubles it.
        let acked = f.cwnd as u64;
        assert!(slow_start(&mut f, acked));
        assert!((f.cwnd - 2.0 * w0).abs() < 1e-9);
    }

    #[test]
    fn slow_start_clamps_at_ssthresh_and_hands_off_to_ca() {
        let mut f = SubflowCc::new();
        f.cwnd = 9.0;
        f.ssthresh = 10.0;
        // The crossing ACK clamps to ssthresh and is NOT consumed: the
        // caller's congestion avoidance applies to it too.
        assert!(!slow_start(&mut f, 5));
        assert_eq!(f.cwnd, 10.0);
        assert!(!slow_start(&mut f, 1));
    }

    #[test]
    fn slow_start_cannot_pin_a_draining_algorithm() {
        // Regression: with a per-ACK drain (DTS-Φ), the old clamp semantics
        // pinned cwnd at ssthresh forever. The crossing ACK must leave room
        // for the caller's CA increase to outgrow a small drain.
        let mut f = SubflowCc::new();
        f.cwnd = 2.0;
        f.ssthresh = 2.0;
        f.observe_rtt(0.02);
        for _ in 0..100 {
            // Simulate DTS-Φ: drain, then slow-start check, then CA.
            f.cwnd -= 1e-4; // drain pushes just below ssthresh
            if !slow_start(&mut f, 1) {
                f.cwnd += 0.1; // CA increase
            }
        }
        assert!(f.cwnd > 3.0, "window must escape the ssthresh trap: {}", f.cwnd);
    }

    #[test]
    fn halve_sets_ssthresh() {
        let mut f = flow(20.0, 0.1);
        halve(&mut f);
        assert_eq!(f.cwnd, 10.0);
        assert_eq!(f.ssthresh, 10.0);
    }

    #[test]
    fn decrease_floors_at_min() {
        let mut f = flow(1.2, 0.1);
        decrease(&mut f, 0.9);
        assert_eq!(f.cwnd, MIN_CWND);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut f = flow(64.0, 0.1);
        timeout(&mut f);
        assert_eq!(f.cwnd, MIN_CWND);
        assert_eq!(f.ssthresh, 32.0);
    }

    #[test]
    fn model_increase_reduces_to_reno_on_single_path() {
        // Single path, ψ = 1: Δw = (w/rtt²)/(w/rtt)² = 1/w.
        let flows = [flow(10.0, 0.05)];
        let d = model_increase(1.0, 0, &flows);
        assert!((d - 0.1).abs() < 1e-12, "delta {d}");
    }

    #[test]
    fn model_increase_is_zero_before_rtt() {
        let flows = [SubflowCc::new()];
        assert_eq!(model_increase(1.0, 0, &flows), 0.0);
    }

    #[test]
    fn model_increase_splits_across_equal_paths() {
        // Two identical paths: Σx doubles, so each path grows 4x slower than
        // alone — the coupling that makes MPTCP TCP-friendly.
        let one = [flow(10.0, 0.05)];
        let two = [flow(10.0, 0.05), flow(10.0, 0.05)];
        let alone = model_increase(1.0, 0, &one);
        let shared = model_increase(1.0, 0, &two);
        assert!((alone / shared - 4.0).abs() < 1e-9);
    }
}
