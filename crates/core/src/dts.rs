//! DTS — Delay-based Traffic Shifting, the paper's §V-B contribution — and
//! DTS-Φ, its §V-C extension with an energy-proportional price.
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
//! DTS-Φ adds a data-center cost utility
//! `U_ep = Σ_{l'} (Q_{l'} − Q)⁺ + ρ·Σ_{l'} y_{l'}` (queue-excess service
//! penalty plus per-unit-traffic energy price ρ) to the resource-allocation
//! problem and derives the compensative parameter
//! `φ_r = κ·x_r²·∂U_ep/∂x_r`, giving the fluid model of Equation (9):
//!
//! ```text
//! dx_r/dt = c·ε_r·x_r²/(RTT_r²(Σx)²) − ½·p_r·x_r² − κ·x_r²·∂U_ep/∂x_r
//! ```
//!
//! Discretizing the φ term per ACK (`dw/dt = dx/dt·RTT`, one ACK per
//! `1/x_r` seconds) yields a gentle multiplicative drain
//! `Δw_r = −κ·w_r·(ρ + η·(d̂_r − D)⁺/D)`, where `d̂_r = RTT_r − baseRTT_r`
//! is the path's queueing delay and `D` the delay target. The paper's
//! `(Q_l − Q)⁺` terms are switch-queue sizes; end-to-end, the queueing
//! *delay* of the path is the observable proxy that does not dilute with
//! the number of flows sharing the bottleneck — no switch support needed,
//! which is what makes the design deployable on the hierarchical topologies
//! of §VI-C.
//!
//! Both are one controller, [`Dts`], holding the Equation-(3) instance the
//! fluid solver integrates ([`CcModel::dts`] or [`CcModel::dts_phi`]): each
//! congestion-avoidance ACK reads `c·ε_r` and the price gradient from the
//! model's per-path constants. The one packet-only rule is Algorithm 1's
//! `ε`, which the paper computes in kernel fixed-point arithmetic with a
//! cubic Taylor expansion of `exp`; [`epsilon_fixed_point`] mirrors that
//! computation exactly (including its clamping behaviour far from the
//! midpoint), and the unit tests quantify where it diverges from the exact
//! sigmoid.

use crate::model::{CcModel, DtsPhiConfig, Phi, Psi};
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

/// Equation (5)'s sigmoid midpoint.
pub(crate) const MIDPOINT: f64 = 0.5;

/// Equation (5)'s path-quality ratio `baseRTT/RTT`, clamped into `[0, 1]`:
/// 1 on a path not yet sampled (`RTT = 0`, `baseRTT = ∞`).
pub(crate) fn quality_ratio(rtt: f64, base_rtt: f64) -> f64 {
    (base_rtt / rtt).clamp(0.0, 1.0)
}

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

/// The DTS or DTS-Φ congestion-control algorithm: the packet form of a
/// [`CcModel::dts`] or [`CcModel::dts_phi`].
#[derive(Clone, Debug)]
pub struct Dts {
    model: CcModel,
}

impl Dts {
    /// DTS with the given parameters.
    pub fn with_config(cfg: DtsConfig) -> Self {
        Dts { model: CcModel::dts(cfg) }
    }

    /// DTS-Φ with the given parameters.
    pub fn with_price(cfg: DtsPhiConfig) -> Self {
        Dts { model: CcModel::dts_phi(cfg) }
    }
}

impl MultipathCongestionControl for Dts {
    fn name(&self) -> &'static str {
        match self.model.phi {
            Phi::Zero => "dts",
            Phi::EnergyPrice(_) => "dts-phi",
        }
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let f = &flows[r];
        let k = self.model.path_consts(f.last_rtt, f.base_rtt);
        let psi = if let Psi::Dts(DtsConfig { c, fixed_point: true, .. }) = self.model.psi {
            c * epsilon_fixed_point(quality_ratio(f.last_rtt, f.base_rtt))
        } else {
            k.psi0
        };
        let delta = common::model_increase(psi, r, flows);
        common::increase(&mut flows[r], delta, newly_acked);
        // The compensative drain applies in congestion avoidance only.
        if let Phi::EnergyPrice(cfg) = self.model.phi {
            let f = &mut flows[r];
            if f.cwnd >= f.ssthresh {
                f.cwnd -= cfg.kappa * f.cwnd * k.grad * newly_acked as f64;
                f.clamp_cwnd();
            }
        }
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(self.clone())
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
    fn quality_ratio_is_one_before_the_first_sample() {
        assert_eq!(quality_ratio(0.0, f64::INFINITY), 1.0);
        assert_eq!(quality_ratio(0.2, 0.1), 0.5);
        assert_eq!(quality_ratio(0.1, 0.1), 1.0);
    }

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

    fn dts() -> Dts {
        Dts::with_config(DtsConfig::default())
    }

    fn dts_phi() -> Dts {
        Dts::with_price(DtsPhiConfig::default())
    }

    #[test]
    fn dts_reduces_toward_olia_on_fresh_path() {
        // ratio = 1 → ψ ≈ 2: DTS grows up to 2× OLIA's base on a pristine
        // path, and single-path behaves like an aggressive Reno.
        let mut cc = dts();
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
        let mut cc = dts();
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
        for mut cc in [dts(), dts_phi()] {
            let mut flows = [SubflowCc::new()];
            flows[0].cwnd = 24.0;
            cc.on_loss(0, &mut flows);
            assert_eq!(flows[0].cwnd, 12.0, "{}", cc.name());
        }
    }

    fn ca_flow(cwnd: f64, rtt: f64, base: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0;
        f.observe_rtt(base);
        f.observe_rtt(rtt);
        f
    }

    /// The price gradient DTS-Φ applied on one congestion-avoidance ACK of
    /// `f`: its window falls short of DTS's by `κ·w′·grad`.
    fn applied_gradient(f: &SubflowCc) -> f64 {
        let (mut a, mut b) = ([f.clone()], [f.clone()]);
        dts().on_ack(0, &mut a, 1, false);
        dts_phi().on_ack(0, &mut b, 1, false);
        (a[0].cwnd - b[0].cwnd) / (DtsPhiConfig::default().kappa * a[0].cwnd)
    }

    #[test]
    fn gradient_reads_queueing_delay_from_rtt_inflation() {
        // d̂ = 0.2 − 0.1 s against the 5 ms target: ρ + (0.1 − D)/D.
        let cfg = DtsPhiConfig::default();
        let want = cfg.rho + (0.1 - cfg.queue_target_s) / cfg.queue_target_s;
        let got = applied_gradient(&ca_flow(40.0, 0.2, 0.1));
        assert!((got - want).abs() < 1e-9 * want, "grad {got} vs {want}");
    }

    #[test]
    fn gradient_is_rho_when_queue_below_target() {
        let got = applied_gradient(&ca_flow(10.0, 0.1, 0.1)); // no inflation
        assert!((got - DtsPhiConfig::default().rho).abs() < 1e-9, "grad {got}");
    }

    #[test]
    fn gradient_grows_with_queue_excess() {
        let calm = applied_gradient(&ca_flow(10.0, 0.1, 0.1));
        let queued = applied_gradient(&ca_flow(80.0, 0.3, 0.1));
        assert!(queued > calm * 2.0, "queued {queued} vs calm {calm}");
    }

    #[test]
    fn phi_drains_relative_to_plain_dts() {
        let (mut dts, mut phi) = (dts(), dts_phi());
        let mut a = [ca_flow(50.0, 0.25, 0.1)];
        let mut b = [ca_flow(50.0, 0.25, 0.1)];
        for _ in 0..100 {
            dts.on_ack(0, &mut a, 1, false);
            phi.on_ack(0, &mut b, 1, false);
        }
        assert!(b[0].cwnd < a[0].cwnd, "phi {} should stay below dts {}", b[0].cwnd, a[0].cwnd);
    }

    #[test]
    fn phi_is_gentle_on_uncongested_paths() {
        let (mut dts, mut phi) = (dts(), dts_phi());
        let mut a = [ca_flow(20.0, 0.1, 0.1)];
        let mut b = [ca_flow(20.0, 0.1, 0.1)];
        for _ in 0..50 {
            dts.on_ack(0, &mut a, 1, false);
            phi.on_ack(0, &mut b, 1, false);
        }
        // Only the tiny ρ drain separates them.
        let gap = (a[0].cwnd - b[0].cwnd) / a[0].cwnd;
        assert!(gap < 0.05, "gap {gap}");
        assert!(b[0].cwnd > 20.0, "still grows");
    }

    #[test]
    fn phi_drains_the_ack_that_crosses_ssthresh_and_no_slow_start_ack() {
        // Slow start: cwnd 4 → 6 under ssthresh 8, undrained and unscaled.
        let mut f = ca_flow(4.0, 0.1, 0.1);
        f.ssthresh = 8.0;
        let mut flows = [f];
        dts_phi().on_ack(0, &mut flows, 2, false);
        assert_eq!(flows[0].cwnd, 6.0, "a slow-start ACK is not drained");
        // The crossing ACK lands on ssthresh, then takes DTS's increase and
        // the drain, like any congestion-avoidance ACK.
        let (mut a, mut b) = (flows.clone(), flows);
        dts().on_ack(0, &mut a, 3, false);
        dts_phi().on_ack(0, &mut b, 3, false);
        assert!(a[0].cwnd > 8.0, "DTS grows past ssthresh: {}", a[0].cwnd);
        let drain = DtsPhiConfig::default().kappa * a[0].cwnd * DtsPhiConfig::default().rho * 3.0;
        assert_eq!(b[0].cwnd, a[0].cwnd - drain, "the crossing ACK is drained");
    }
}
