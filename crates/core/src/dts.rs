//! DTS — Delay-based Traffic Shifting, the paper's §V-B contribution.
//!
//! DTS multiplies the Pareto-optimal window increase (`ψ = 1`, OLIA's base
//! term) by a sigmoid of the path-quality ratio `baseRTT_r / RTT_r`
//! (Equation (5)):
//!
//! ```text
//! ε_r = 2 / (1 + e^{−10·(baseRTT_r/RTT_r − 1/2)})
//! Δw_r = c·ε_r · (w_r/RTT_r²) / (Σ_k w_k/RTT_k)²      per ACK
//! ```
//!
//! A queue-free path (`ratio → 1`) gets `ε ≈ 2`; a badly congested path
//! (`ratio → 0`) gets `ε ≈ 0`, so window growth — and therefore traffic —
//! shifts to low-delay, low-energy paths. Since the ratio's long-run
//! expectation is ≈ ½ where `ε = 1`, choosing `c = 1` preserves the
//! TCP-friendliness condition (the paper's fairness argument in §V-B).
//!
//! Algorithm 1 in the paper computes `ε` in kernel fixed-point arithmetic
//! with a cubic Taylor expansion of `exp`; [`epsilon_fixed_point`] mirrors
//! that computation exactly (including its clamping behaviour far from the
//! midpoint), and the unit tests quantify where it diverges from the exact
//! sigmoid.

use congestion::{common, MultipathCongestionControl, SubflowCc};

/// Tunable parameters of DTS (the defaults are the paper's). The sigmoid's
/// midpoint is fixed at Equation (5)'s ½.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DtsConfig {
    /// Pareto-optimality scale `c` (the paper sets 1).
    pub c: f64,
    /// Sigmoid slope (the paper's Equation (5) uses 10).
    pub slope: f64,
    /// Use the kernel-style fixed-point Taylor expansion of Algorithm 1
    /// instead of the exact exponential.
    pub fixed_point: bool,
}

impl Default for DtsConfig {
    fn default() -> Self {
        DtsConfig { c: 1.0, slope: 10.0, fixed_point: false }
    }
}

/// Equation (5)'s sigmoid midpoint, read by the packet-level algorithm and
/// by its fluid form ([`crate::model`]) alike.
pub(crate) const MIDPOINT: f64 = 0.5;

/// The exact Equation (5) factor for a quality ratio `baseRTT/RTT ∈ [0, 1]`.
pub fn epsilon_exact(ratio: f64, slope: f64, midpoint: f64) -> f64 {
    2.0 / (1.0 + (-slope * (ratio - midpoint)).exp())
}

/// Algorithm 1's integer-arithmetic `ε`: scales the ratio to
/// `x = 10·ratio − 5`, approximates `e^x` by the cubic Taylor polynomial in
/// per-cent fixed point (`100 + 100x + 50x² + 17x³`), and computes
/// `ε = 2·num/(100 + num)`, clamped into `[0, 2]` where the cubic goes
/// negative (deep congestion).
pub fn epsilon_fixed_point(ratio: f64) -> f64 {
    let x = 10.0 * ratio - 5.0;
    // Per-cent fixed point exactly as in the pseudo-code (coefficient 17 is
    // the kernel's integer rounding of 100/6).
    let num = 100.0 + 100.0 * x + 50.0 * x * x + 17.0 * x * x * x;
    if num <= 0.0 {
        return 0.0;
    }
    let den = 100.0 + num;
    (2.0 * num / den).clamp(0.0, 2.0)
}

/// The Delay-based Traffic Shifting congestion-control algorithm.
#[derive(Clone, Debug, Default)]
pub struct Dts {
    cfg: DtsConfig,
}

impl Dts {
    /// DTS with the paper's defaults (`c = 1`, exact sigmoid).
    pub fn new() -> Self {
        Dts::default()
    }

    /// DTS with custom parameters.
    pub fn with_config(cfg: DtsConfig) -> Self {
        Dts { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DtsConfig {
        &self.cfg
    }

    /// The ε factor for one subflow's current state.
    pub fn epsilon(&self, f: &SubflowCc) -> f64 {
        let ratio = f.rtt_ratio();
        if self.cfg.fixed_point {
            epsilon_fixed_point(ratio)
        } else {
            epsilon_exact(ratio, self.cfg.slope, MIDPOINT)
        }
    }
}

impl MultipathCongestionControl for Dts {
    fn name(&self) -> &'static str {
        "dts"
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let psi = self.cfg.c * self.epsilon(&flows[r]);
        let delta = common::model_increase(psi, r, flows);
        common::increase(&mut flows[r], delta, newly_acked);
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Dts::with_config(self.cfg))
    }
}

#[cfg(test)]
// Tests assert values produced by exact f64 arithmetic on small literals
// (window steps, order statistics of integer samples), so strict float
// comparison is the intended precision.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_boundary_values() {
        // Pristine path: ratio 1 → ε ≈ 2/(1+e^-5) ≈ 1.9867.
        let e1 = epsilon_exact(1.0, 10.0, 0.5);
        assert!((e1 - 1.9867).abs() < 1e-3, "{e1}");
        // Midpoint: ε = 1 exactly.
        assert!((epsilon_exact(0.5, 10.0, 0.5) - 1.0).abs() < 1e-12);
        // Deep congestion: ratio → 0 → ε ≈ 0.0134.
        let e0 = epsilon_exact(0.0, 10.0, 0.5);
        assert!(e0 < 0.02, "{e0}");
    }

    #[test]
    fn epsilon_is_monotone_increasing() {
        let mut prev = -1.0;
        for i in 0..=100 {
            let r = i as f64 / 100.0;
            let e = epsilon_exact(r, 10.0, 0.5);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn fixed_point_matches_exact_near_midpoint() {
        // Algorithm 1's cubic Taylor is accurate around x = 0 (ratio = 1/2).
        for ratio in [0.4, 0.45, 0.5, 0.55, 0.6] {
            let exact = epsilon_exact(ratio, 10.0, 0.5);
            let fixed = epsilon_fixed_point(ratio);
            assert!((exact - fixed).abs() < 0.08, "ratio {ratio}: exact {exact} vs fixed {fixed}");
        }
    }

    #[test]
    fn fixed_point_clamps_in_deep_congestion() {
        // The cubic goes negative for small ratios; Algorithm 1's division
        // would misbehave — our port clamps to 0 (no window growth on a
        // terrible path, which is the design intent).
        assert_eq!(epsilon_fixed_point(0.0), 0.0);
        assert!(epsilon_fixed_point(1.0) <= 2.0);
    }

    #[test]
    fn expectation_of_epsilon_is_near_one() {
        // The paper's c = 1 fairness argument: E[ε(U)] ≈ 1 for U ~ Uniform(0,1)
        // by the sigmoid's symmetry around (1/2, 1).
        let n = 100_000;
        let mean: f64 =
            (0..n).map(|i| epsilon_exact((i as f64 + 0.5) / n as f64, 10.0, 0.5)).sum::<f64>()
                / n as f64;
        assert!((mean - 1.0).abs() < 1e-3, "E[ε] = {mean}");
    }

    #[test]
    fn dts_reduces_toward_olia_on_fresh_path() {
        // ratio = 1 → ψ ≈ 2: DTS grows up to 2× OLIA's base on a pristine
        // path, and single-path behaves like an aggressive Reno.
        let mut cc = Dts::new();
        let mut flows = [SubflowCc::new()];
        flows[0].cwnd = 10.0;
        flows[0].ssthresh = 1.0;
        flows[0].observe_rtt(0.1);
        let before = flows[0].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        let delta = flows[0].cwnd - before;
        assert!((delta - 1.9867 / 10.0).abs() < 1e-3, "delta {delta}");
    }

    #[test]
    fn dts_starves_congested_path() {
        let mut cc = Dts::new();
        let mk = |rtt: f64, base: f64| {
            let mut f = SubflowCc::new();
            f.cwnd = 10.0;
            f.ssthresh = 1.0;
            f.observe_rtt(base);
            f.observe_rtt(rtt);
            f
        };
        // Path 0 pristine, path 1 heavily queued (ratio 0.2).
        let mut flows = [mk(0.05, 0.05), mk(0.25, 0.05)];
        let b0 = flows[0].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        let d_good = flows[0].cwnd - b0;
        let b1 = flows[1].cwnd;
        cc.on_ack(1, &mut flows, 1, false);
        let d_bad = flows[1].cwnd - b1;
        assert!(d_good > 10.0 * d_bad, "good {d_good} should dwarf bad {d_bad}");
    }

    #[test]
    fn loss_halves() {
        let mut cc = Dts::new();
        let mut flows = [SubflowCc::new()];
        flows[0].cwnd = 24.0;
        cc.on_loss(0, &mut flows);
        assert_eq!(flows[0].cwnd, 12.0);
    }
}
