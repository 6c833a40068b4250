//! DTS-Φ — DTS extended with the energy-proportional compensative price of
//! the paper's §V-C (Equations (6)–(9)).
//!
//! The paper adds a data-center cost utility
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

use crate::dts::{Dts, DtsConfig};
use congestion::{MultipathCongestionControl, SubflowCc};

/// Tunable parameters of DTS-Φ. The queue-excess term's weight η is fixed
/// at 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DtsPhiConfig {
    /// The underlying DTS parameters.
    pub dts: DtsConfig,
    /// Price weight `κ_s` of Equation (7).
    pub kappa: f64,
    /// Per-unit-traffic energy price `ρ` of Equation (6).
    pub rho: f64,
    /// Expected (target) queueing delay — the end-to-end proxy for
    /// Equation (6)'s expected queue size `Q` — in seconds.
    pub queue_target_s: f64,
}

impl Default for DtsPhiConfig {
    fn default() -> Self {
        DtsPhiConfig { dts: DtsConfig::default(), kappa: 1e-4, rho: 0.2, queue_target_s: 0.005 }
    }
}

/// Weight η of the queue-excess term in the price gradient, read by the
/// packet-level algorithm and by its fluid form ([`crate::model`]) alike.
pub(crate) const ETA: f64 = 1.0;

/// DTS with the energy-proportional compensative price.
#[derive(Clone, Debug, Default)]
pub struct DtsPhi {
    dts: Dts,
    cfg: DtsPhiConfig,
}

impl DtsPhi {
    /// DTS-Φ with default parameters.
    pub fn new() -> Self {
        DtsPhi::default()
    }

    /// DTS-Φ with custom parameters.
    pub fn with_config(cfg: DtsPhiConfig) -> Self {
        DtsPhi { dts: Dts::with_config(cfg.dts), cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DtsPhiConfig {
        &self.cfg
    }

    /// Estimated queueing delay of the subflow's path, in seconds:
    /// `d̂ = RTT − baseRTT`.
    pub fn queue_delay_estimate(f: &SubflowCc) -> f64 {
        if f.last_rtt > 0.0 && f.base_rtt.is_finite() {
            (f.last_rtt - f.base_rtt).max(0.0)
        } else {
            0.0
        }
    }

    /// The marginal energy price `∂U_ep/∂x_r` estimate.
    pub fn price_gradient(&self, f: &SubflowCc) -> f64 {
        let excess = (Self::queue_delay_estimate(f) - self.cfg.queue_target_s).max(0.0);
        self.cfg.rho + ETA * excess / self.cfg.queue_target_s
    }
}

impl MultipathCongestionControl for DtsPhi {
    fn name(&self) -> &'static str {
        "dts-phi"
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, ecn: bool) {
        self.dts.on_ack(r, flows, newly_acked, ecn);
        // The compensative drain applies in congestion avoidance only.
        let f = &mut flows[r];
        if f.cwnd >= f.ssthresh {
            let grad = self.price_gradient(f);
            f.cwnd -= self.cfg.kappa * f.cwnd * grad * newly_acked as f64;
            f.clamp_cwnd();
        }
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        self.dts.on_loss(r, flows);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(DtsPhi::with_config(self.cfg))
    }
}

#[cfg(test)]
// Tests assert values produced by exact f64 arithmetic on small literals
// (window steps, order statistics of integer samples), so strict float
// comparison is the intended precision.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn ca_flow(cwnd: f64, rtt: f64, base: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0;
        f.observe_rtt(base);
        f.observe_rtt(rtt);
        f
    }

    #[test]
    fn queue_delay_estimate_from_rtt_inflation() {
        let f = ca_flow(40.0, 0.2, 0.1);
        let d = DtsPhi::queue_delay_estimate(&f);
        assert!((d - 0.1).abs() < 1e-12, "d {d}");
    }

    #[test]
    fn gradient_is_rho_when_queue_below_target() {
        let phi = DtsPhi::new();
        let f = ca_flow(10.0, 0.1, 0.1); // no inflation
        assert!((phi.price_gradient(&f) - phi.config().rho).abs() < 1e-12);
    }

    #[test]
    fn gradient_grows_with_queue_excess() {
        let phi = DtsPhi::new();
        let calm = ca_flow(10.0, 0.1, 0.1);
        let queued = ca_flow(80.0, 0.3, 0.1);
        assert!(phi.price_gradient(&queued) > phi.price_gradient(&calm) * 2.0);
    }

    #[test]
    fn phi_drains_relative_to_plain_dts() {
        let mut dts = Dts::new();
        let mut phi = DtsPhi::new();
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
        let mut dts = Dts::new();
        let mut phi = DtsPhi::new();
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
    fn loss_halves_like_dts() {
        let mut phi = DtsPhi::new();
        let mut flows = [ca_flow(30.0, 0.1, 0.1)];
        phi.on_loss(0, &mut flows);
        assert_eq!(flows[0].cwnd, 15.0);
    }
}
