//! The per-ACK form of Equation (3): one controller for every algorithm
//! whose packet rule is its §IV row — EWTCP, Coupled, LIA, Balia, ecMTCP,
//! and the paper's DTS and DTS-Φ.
//!
//! Each congestion-avoidance ACK on subflow `r` reads `ψ_r` from the same
//! [`CcModel`] the fluid solver integrates, at the connection's packet
//! state, and steps the window by Equation (3)'s increase term
//! ([`common::model_increase`]); DTS-Φ then drains `κ·w_r·grad_r`, its
//! `φ_r` per ACK. A loss takes the window to `(1 − β_r)·w_r`, with `β_r`
//! read from the same row at the same state ([`Psi::of`]). The packet
//! state has two RTTs where the fluid state has one: `ψ`'s geometry reads
//! the smoothed RTT, which is what the increase term divides by, while
//! DTS's `ε_r` and φ's queueing delay read the latest sample
//! ([`CcModel::path_consts`]). No subflow grows before its first RTT
//! sample.
//!
//! Two rules are the packet form's own, each the published algorithm's:
//!
//! * LIA caps each subflow's increase at one TCP's, `1/w_r` (RFC 6356);
//! * DTS-Φ's drain runs in congestion avoidance only.

use crate::common;
use crate::model::{CcModel, DtsConfig, DtsPhiConfig, Phi, Psi};
use crate::state::SubflowCc;
use crate::MultipathCongestionControl;

/// The packet form of one Equation-(3) row.
#[derive(Clone, Debug)]
pub struct ModelCc {
    name: &'static str,
    model: CcModel,
}

impl ModelCc {
    /// The packet form of `model`, reporting `name`.
    pub fn new(name: &'static str, model: CcModel) -> Self {
        ModelCc { name, model }
    }

    /// DTS with the given parameters.
    pub fn dts(cfg: DtsConfig) -> Self {
        ModelCc::new("dts", CcModel::dts(cfg))
    }

    /// DTS-Φ with the given parameters.
    pub fn dts_phi(cfg: DtsPhiConfig) -> Self {
        ModelCc::new("dts-phi", CcModel::dts_phi(cfg))
    }
}

impl MultipathCongestionControl for ModelCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let (psi, f) = (self.model.psi, &flows[r]);
        let k = self.model.path_consts(f.srtt, f.last_rtt, f.base_rtt);
        let x = f.rate();
        if x > 0.0 {
            let mut delta =
                common::model_increase(psi.of(&k, &psi.subflow_sums(flows), x).0, r, flows);
            if matches!(psi, Psi::Lia) {
                delta = delta.min(1.0 / flows[r].cwnd);
            }
            common::increase(&mut flows[r], delta, newly_acked);
        }
        if let Phi::EnergyPrice(cfg) = self.model.phi {
            let f = &mut flows[r];
            if f.cwnd >= f.ssthresh {
                f.cwnd -= cfg.kappa * f.cwnd * k.grad * newly_acked as f64;
                f.clamp_cwnd();
            }
        }
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        let (psi, f) = (self.model.psi, &flows[r]);
        let k = self.model.path_consts(f.srtt, f.last_rtt, f.base_rtt);
        let (_, beta) = psi.of(&k, &psi.subflow_sums(flows), f.rate());
        common::decrease(&mut flows[r], beta);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert values produced by exact f64 arithmetic on small literals (window steps, halving), so strict float comparison is the intended precision"
)]
mod tests {
    use super::*;
    use crate::AlgorithmKind;

    fn ca_flow(cwnd: f64, rtt: f64, base: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0;
        f.observe_rtt(base);
        f.observe_rtt(rtt);
        f
    }

    /// The controller `AlgorithmKind::build` makes for a ψ-family `kind`.
    fn of(kind: AlgorithmKind) -> ModelCc {
        ModelCc::new(kind.name(), kind.model().expect("a row of Equation (3)"))
    }

    /// Subflow `r`'s window step on one ACK.
    fn step(cc: &mut ModelCc, r: usize, flows: &mut [SubflowCc]) -> f64 {
        let before = flows[r].cwnd;
        cc.on_ack(r, flows, 1, false);
        flows[r].cwnd - before
    }

    #[test]
    fn lia_caps_each_subflow_at_one_tcp() {
        // Path 1 holds a large window on a slow path next to a fast one:
        // its coupled increase, best/(Σx)² = 32768/640² = 0.08, is ten
        // times one TCP's 1/w = 1/128, so the cap sets the step.
        let mut cc = of(AlgorithmKind::Lia);
        let mut flows = [ca_flow(8.0, 1.0 / 64.0, 1.0 / 64.0), ca_flow(128.0, 1.0, 1.0)];
        assert_eq!(step(&mut cc, 1, &mut flows), 1.0 / 128.0);
        // The fast path's coupled increase is below its cap.
        assert!(step(&mut cc, 0, &mut flows) < 1.0 / 8.0);
    }

    #[test]
    fn balia_backs_off_by_at_most_three_quarters() {
        // Alone, α = 1: an ordinary halving.
        let mut cc = of(AlgorithmKind::Balia);
        let mut flows = [ca_flow(10.0, 0.1, 0.1)];
        cc.on_loss(0, &mut flows);
        assert_eq!(flows[0].cwnd, 5.0);
        // Path 1 is much slower: α is huge, capped at 1.5, a factor of 0.75.
        let mut flows = [ca_flow(10.0, 0.01, 0.01), ca_flow(40.0, 1.0, 1.0)];
        cc.on_loss(1, &mut flows);
        assert_eq!(flows[1].cwnd, 10.0);
        // The fastest path has α = 1 and halves.
        cc.on_loss(0, &mut flows);
        assert_eq!(flows[0].cwnd, 5.0);
    }

    #[test]
    fn no_subflow_grows_before_its_first_rtt_sample() {
        for kind in [
            AlgorithmKind::Ewtcp,
            AlgorithmKind::Coupled,
            AlgorithmKind::Lia,
            AlgorithmKind::Balia,
            AlgorithmKind::EcMtcp,
        ] {
            let mut cc = of(kind);
            let mut fresh = SubflowCc::new();
            fresh.ssthresh = 1.0;
            let mut flows = [fresh, ca_flow(10.0, 0.1, 0.1)];
            assert_eq!(step(&mut cc, 0, &mut flows), 0.0, "{kind}");
            assert!(step(&mut cc, 1, &mut flows) > 0.0, "{kind}");
        }
    }

    #[test]
    fn geometry_reads_srtt_and_the_sigmoid_reads_the_latest_sample() {
        // srtt 0.1 s, latest sample 0.2 s, base 0.1 s: ε at ratio ½ is
        // exactly 1, so DTS takes OLIA's ψ = 1 step; at srtt it would be ≈ 2.
        let mut f = ca_flow(10.0, 0.1, 0.1);
        (f.srtt, f.last_rtt, f.base_rtt) = (0.1, 0.2, 0.1);
        let mut flows = [f];
        let olia = common::model_increase(1.0, 0, &flows);
        let mut dts = flows.clone();
        ModelCc::dts(DtsConfig::default()).on_ack(0, &mut dts, 1, false);
        assert_eq!(dts[0].cwnd, 10.0 + olia);
        // Alone, Coupled is Reno at its smoothed RTT: Δw = 1/w, where RTT_r²
        // read at the latest sample would make it 4/w.
        let dw = step(&mut of(AlgorithmKind::Coupled), 0, &mut flows);
        assert!((dw - 0.1).abs() < 1e-12, "Δw {dw}");
    }

    #[test]
    fn dts_starves_congested_path() {
        let mut cc = ModelCc::dts(DtsConfig::default());
        // Path 0 pristine, path 1 heavily queued (ratio 0.2).
        let mut flows = [ca_flow(10.0, 0.05, 0.05), ca_flow(10.0, 0.25, 0.05)];
        let d_good = step(&mut cc, 0, &mut flows);
        let d_bad = step(&mut cc, 1, &mut flows);
        assert!(d_good > 10.0 * d_bad, "good {d_good} should dwarf bad {d_bad}");
    }

    #[test]
    fn phi_drains_the_ack_that_crosses_ssthresh_and_no_slow_start_ack() {
        let (dts, phi) = (DtsConfig::default(), DtsPhiConfig::default());
        // Slow start: cwnd 4 → 6 under ssthresh 8, undrained and unscaled.
        let mut f = ca_flow(4.0, 0.1, 0.1);
        f.ssthresh = 8.0;
        let mut flows = [f];
        ModelCc::dts_phi(phi).on_ack(0, &mut flows, 2, false);
        assert_eq!(flows[0].cwnd, 6.0, "a slow-start ACK is not drained");
        // The crossing ACK lands on ssthresh, then takes DTS's increase and
        // the drain, like any congestion-avoidance ACK.
        let (mut a, mut b) = (flows.clone(), flows);
        ModelCc::dts(dts).on_ack(0, &mut a, 3, false);
        ModelCc::dts_phi(phi).on_ack(0, &mut b, 3, false);
        assert!(a[0].cwnd > 8.0, "DTS grows past ssthresh: {}", a[0].cwnd);
        let drain = phi.kappa * a[0].cwnd * phi.rho * 3.0;
        assert_eq!(b[0].cwnd, a[0].cwnd - drain, "the crossing ACK is drained");
    }

    #[test]
    fn names_come_from_the_one_table() {
        assert_eq!(AlgorithmKind::EcMtcp.build(2).name(), "ecmtcp");
        assert_eq!(ModelCc::dts(DtsConfig::default()).name(), "dts");
        assert_eq!(ModelCc::dts_phi(DtsPhiConfig::default()).fresh_box().name(), "dts-phi");
    }
}
