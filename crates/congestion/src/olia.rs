//! OLIA — Opportunistic Linked Increases Algorithm (Khalili et al., CoNEXT
//! 2012).
//!
//! The only Pareto-optimal algorithm among the paper's four TCP-friendly
//! baselines (`ψ_r = 1` in the §IV decomposition), which is exactly why it
//! wins the paper's Fig. 6 energy comparison. Congestion avoidance:
//!
//! ```text
//! Δw_r = ( w_r/RTT_r² ) / ( Σ_k w_k/RTT_k )²  +  α_r / w_r    per ACK
//! ```
//!
//! where `α_r` opportunistically re-balances toward "best" paths (largest
//! inter-loss distance `l_r` relative to RTT) that currently hold small
//! windows:
//!
//! * `r ∈ B∖M` (best path, not max-window): `α_r = +1 / (n·|B∖M|)`
//! * `r ∈ M` and `B∖M ≠ ∅` (max-window path): `α_r = −1 / (n·|M|)`
//! * otherwise `α_r = 0`.
//!
//! `l_r` is estimated kernel-style as `max(l1_r, l2_r)` with `l1_r` packets
//! acked since the last loss and `l2_r` packets between the last two losses.

use crate::common;
use crate::state::SubflowCc;
use crate::{AlgorithmKind, MultipathCongestionControl};

#[derive(Clone, Copy, Debug, Default)]
struct LossHistory {
    /// Packets acked since the last loss.
    l1: f64,
    /// Packets acked between the previous two losses.
    l2: f64,
}

impl LossHistory {
    fn inter_loss(&self) -> f64 {
        // Before any loss l2 is 0 and l1 grows without bound, matching the
        // kernel's "everything since the start" semantics.
        self.l1.max(self.l2).max(1.0)
    }
}

/// OLIA coupled congestion avoidance.
#[derive(Clone, Debug)]
pub struct Olia {
    history: Vec<LossHistory>,
}

impl Olia {
    /// Creates an OLIA controller for `n_subflows` paths.
    pub fn new(n_subflows: usize) -> Self {
        Olia { history: vec![LossHistory::default(); n_subflows.max(1)] }
    }

    fn ensure(&mut self, n: usize) {
        if self.history.len() < n {
            self.history.resize(n, LossHistory::default());
        }
    }

    /// Computes `α_r` for subflow `r` by counting the best-path and
    /// max-window sets instead of building them: this runs once per ACK and
    /// must not allocate.
    fn alpha(&self, r: usize, flows: &[SubflowCc]) -> f64 {
        let usable = |k: usize| flows[k].active && flows[k].has_rtt();
        // Best paths: max l²/rtt² among usable paths.
        let quality = |k: usize| {
            let l = self.history.get(k).copied().unwrap_or_default().inter_loss();
            let rtt = flows[k].srtt;
            (l / rtt) * (l / rtt)
        };
        let (mut n, mut qmax, mut wmax) = (0usize, 0.0f64, 0.0f64);
        for k in (0..flows.len()).filter(|&k| usable(k)) {
            n += 1;
            qmax = qmax.max(quality(k));
            wmax = wmax.max(flows[k].cwnd);
        }
        if n < 2 || !usable(r) {
            return 0.0;
        }
        let best = |k: usize| quality(k) >= qmax * (1.0 - 1e-9);
        let maxw = |k: usize| flows[k].cwnd >= wmax * (1.0 - 1e-9);
        let (mut n_maxw, mut n_best_not_maxw) = (0usize, 0usize);
        for k in (0..flows.len()).filter(|&k| usable(k)) {
            if maxw(k) {
                n_maxw += 1;
            } else if best(k) {
                n_best_not_maxw += 1;
            }
        }
        if n_best_not_maxw == 0 {
            0.0 // B∖M = ∅: no transfer needed.
        } else if maxw(r) {
            -1.0 / (n as f64 * n_maxw as f64)
        } else if best(r) {
            1.0 / (n as f64 * n_best_not_maxw as f64)
        } else {
            0.0
        }
    }

    /// Computes `α_r` for every subflow (the form tests and diagnostics
    /// read; `on_ack` asks for the one it needs).
    pub fn alphas(&self, flows: &[SubflowCc]) -> Vec<f64> {
        (0..flows.len()).map(|r| self.alpha(r, flows)).collect()
    }
}

impl MultipathCongestionControl for Olia {
    fn name(&self) -> &'static str {
        AlgorithmKind::Olia.name()
    }

    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, _ecn: bool) {
        self.ensure(flows.len());
        self.history[r].l1 += newly_acked as f64;
        if common::slow_start(&mut flows[r], newly_acked) {
            return;
        }
        let base = common::model_increase(1.0, r, flows);
        let alpha = self.alpha(r, flows);
        let delta = base + alpha / flows[r].cwnd;
        // OLIA's α can be negative; allow gentle decrease but never below the
        // floor (common::increase clamps positives only, so handle directly).
        flows[r].cwnd += delta * newly_acked as f64;
        flows[r].clamp_cwnd();
    }

    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        self.ensure(flows.len());
        let h = &mut self.history[r];
        h.l2 = h.l1;
        h.l1 = 0.0;
        common::halve(&mut flows[r]);
    }

    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(Olia::new(self.history.len()))
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests drive window arithmetic whose operands (halving, +1 steps, literal initial values) are exact in f64, so strict comparison pins the algorithm without tolerance slop"
)]
mod tests {
    use super::*;

    fn ca_flow(cwnd: f64, rtt: f64) -> SubflowCc {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = 1.0;
        f.observe_rtt(rtt);
        f
    }

    /// `alphas` as it was written before `on_ack` stopped allocating: the
    /// sets of the definition, built as `Vec`s. Kept as the oracle for the
    /// counting form.
    fn alphas_by_sets(cc: &Olia, flows: &[SubflowCc]) -> Vec<f64> {
        let n = flows.len();
        let mut alphas = vec![0.0; n];
        let usable: Vec<usize> =
            (0..n).filter(|&k| flows[k].active && flows[k].has_rtt()).collect();
        if usable.len() < 2 {
            return alphas;
        }
        let quality = |k: usize| {
            let l = cc.history.get(k).copied().unwrap_or_default().inter_loss();
            let rtt = flows[k].srtt;
            (l / rtt) * (l / rtt)
        };
        let qmax = usable.iter().map(|&k| quality(k)).fold(0.0f64, f64::max);
        let wmax = usable.iter().map(|&k| flows[k].cwnd).fold(0.0f64, f64::max);
        let best: Vec<usize> =
            usable.iter().copied().filter(|&k| quality(k) >= qmax * (1.0 - 1e-9)).collect();
        let maxw: Vec<usize> =
            usable.iter().copied().filter(|&k| flows[k].cwnd >= wmax * (1.0 - 1e-9)).collect();
        let b_minus_m: Vec<usize> = best.iter().copied().filter(|k| !maxw.contains(k)).collect();
        if b_minus_m.is_empty() {
            return alphas;
        }
        let nf = usable.len() as f64;
        for &k in &b_minus_m {
            alphas[k] = 1.0 / (nf * b_minus_m.len() as f64);
        }
        for &k in &maxw {
            alphas[k] = -1.0 / (nf * maxw.len() as f64);
        }
        alphas
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// The counting form and the set-building form agree to the bit.
        /// States are drawn from a few values per field, so ties in window
        /// and in quality, inactive and RTT-less subflows, and fewer history
        /// entries than subflows are all common.
        #[test]
        fn counted_alphas_equal_the_set_definition_bit_for_bit(
            paths in proptest::collection::vec((1..5u32, 0..4u32, 0..4u32, 0..4u32, 0..8u32), 1..7),
            histories in 1..7usize,
        ) {
            let mut cc = Olia::new(histories.min(paths.len()));
            let flows: Vec<SubflowCc> = paths
                .iter()
                .enumerate()
                .map(|(k, &(cwnd, rtt, l1, l2, active))| {
                    if let Some(h) = cc.history.get_mut(k) {
                        *h = LossHistory { l1: f64::from(l1) * 50.0, l2: f64::from(l2) * 50.0 };
                    }
                    let mut f = SubflowCc::new();
                    f.cwnd = f64::from(cwnd) * 7.5;
                    f.active = active > 0;
                    if rtt > 0 {
                        f.observe_rtt(f64::from(rtt) * 0.05);
                    }
                    f
                })
                .collect();
            let (counted, by_sets) = (cc.alphas(&flows), alphas_by_sets(&cc, &flows));
            let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&counted), bits(&by_sets), "{counted:?} vs {by_sets:?} on {flows:?}");
        }
    }

    #[test]
    fn single_path_reduces_to_reno() {
        let mut cc = Olia::new(1);
        let mut flows = [ca_flow(10.0, 0.1)];
        cc.on_ack(0, &mut flows, 1, false);
        assert!((flows[0].cwnd - 10.1).abs() < 1e-9);
    }

    #[test]
    fn alphas_sum_to_zero() {
        let mut cc = Olia::new(3);
        // Give path 0 a clean loss record (best) but the smallest window.
        cc.history[0].l1 = 1000.0;
        cc.history[1].l1 = 10.0;
        cc.history[2].l1 = 10.0;
        let flows = [ca_flow(2.0, 0.1), ca_flow(20.0, 0.1), ca_flow(20.0, 0.1)];
        let alphas = cc.alphas(&flows);
        let sum: f64 = alphas.iter().sum();
        assert!(sum.abs() < 1e-12, "alphas {alphas:?}");
        assert!(alphas[0] > 0.0, "best small-window path gets positive alpha");
        assert!(alphas[1] < 0.0 && alphas[2] < 0.0);
    }

    #[test]
    fn no_transfer_when_best_path_has_max_window() {
        let mut cc = Olia::new(2);
        cc.history[0].l1 = 1000.0;
        cc.history[1].l1 = 10.0;
        let flows = [ca_flow(20.0, 0.1), ca_flow(5.0, 0.1)];
        let alphas = cc.alphas(&flows);
        // simlint: allow(F001, the no-transfer branch assigns literal 0.0 alphas; the test pins that they are exactly zero, not merely small)
        assert!(alphas.iter().all(|a| *a == 0.0), "alphas {alphas:?}");
    }

    #[test]
    fn loss_rotates_history_and_halves() {
        let mut cc = Olia::new(1);
        let mut flows = [ca_flow(10.0, 0.1)];
        for _ in 0..7 {
            cc.on_ack(0, &mut flows, 1, false);
        }
        cc.on_loss(0, &mut flows);
        assert_eq!(cc.history[0].l1, 0.0);
        assert_eq!(cc.history[0].l2, 7.0);
        assert!((flows[0].cwnd - (10.0 + 7.0 * 0.1) / 2.0).abs() < 0.05);
    }

    #[test]
    fn rebalancing_grows_starved_best_path_faster() {
        let mut cc = Olia::new(2);
        cc.history[0].l1 = 1000.0; // path 0: rarely loses = best
        cc.history[1].l1 = 5.0;
        let mut flows = [ca_flow(2.0, 0.1), ca_flow(30.0, 0.1)];
        let b = flows[0].cwnd;
        cc.on_ack(0, &mut flows, 1, false);
        let with_alpha = flows[0].cwnd - b;
        // Compare against the pure ψ=1 base term.
        let flows2 = [ca_flow(2.0, 0.1), ca_flow(30.0, 0.1)];
        let base = common::model_increase(1.0, 0, &flows2);
        assert!(with_alpha > base, "alpha should boost: {with_alpha} vs {base}");
    }
}
