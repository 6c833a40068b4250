//! The paper's general congestion-control model (§IV, Equation (3)) and its
//! per-algorithm parameter decompositions.
//!
//! Equation (3) writes every window-based multipath algorithm as
//!
//! ```text
//! dx_r/dt = ψ_r(x)·x_r² / (RTT_r²·(Σ_k x_k)²) − β_r(x)·λ_r·x_r² − φ_r(x)
//! ```
//!
//! with a traffic-shifting parameter `ψ_r`, a decrease parameter `β_r`, a
//! congestion signal `λ_r`, and a compensative parameter `φ_r`. The paper's
//! §IV table of decompositions is reproduced here verbatim as [`Psi`]
//! variants; the `congestion` crate's per-ACK implementations and these
//! fluid forms are cross-validated in the test suite.

use crate::dts::{epsilon_exact, quality_ratio, Dts, DtsConfig, MIDPOINT};
use congestion::{AlgorithmKind, MultipathCongestionControl};

/// A read-only view of one multipath user's state for parameter evaluation.
#[derive(Clone, Copy, Debug)]
pub struct FlowView<'a> {
    /// Per-path send rates `x_r` (packets/second).
    pub x: &'a [f64],
    /// Per-path round-trip times (seconds).
    pub rtt: &'a [f64],
    /// Per-path minimum RTTs (seconds).
    pub base_rtt: &'a [f64],
}

impl FlowView<'_> {
    /// Number of paths.
    pub fn n(&self) -> usize {
        self.x.len()
    }

    /// Window of path `r`: `w_r = x_r·RTT_r`.
    pub fn w(&self, r: usize) -> f64 {
        self.x[r] * self.rtt[r]
    }

    /// `Σ_k x_k`.
    pub fn sum_x(&self) -> f64 {
        self.x.iter().sum()
    }

    /// `Σ_k w_k`.
    pub fn sum_w(&self) -> f64 {
        (0..self.n()).map(|k| self.w(k)).sum()
    }

    /// `max_k x_k`.
    pub fn max_x(&self) -> f64 {
        self.x.iter().copied().fold(0.0, f64::max)
    }

    /// `min_k RTT_k`.
    pub fn min_rtt(&self) -> f64 {
        self.rtt.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// The traffic-shifting parameter `ψ_r` of each algorithm, exactly as the
/// paper's §IV decomposition table states them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Psi {
    /// EWTCP: `ψ_r = (Σx)² / (x_r²·√n)`.
    Ewtcp,
    /// Coupled (Kelly/Voice): `ψ_r = RTT_r²(Σx)²/(Σw)²`.
    Coupled,
    /// LIA: `ψ_r = max_k(w_k/RTT_k²)·RTT_r²/w_r`.
    Lia,
    /// OLIA: `ψ_r = 1` (the Pareto-optimal base).
    Olia,
    /// Balia: `ψ_r = 2/5 + α/2 + α²/10` with `α = max_k x_k / x_r`.
    Balia,
    /// ecMTCP: `ψ_r = RTT_r³(Σx)²/(n·min_k RTT_k·w_r·Σw)`.
    EcMtcp,
    /// DTS (this paper): `ψ_r = c·ε_r` with the Equation (5) sigmoid.
    Dts(DtsConfig),
}

/// What Equation (3) reads of one path besides its rate and its congestion
/// signal. All of it is a function of `(rtt, base_rtt)`, so a solver builds
/// it once ([`CcModel::path_consts`]) and every RK4 stage reuses it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PathConsts {
    pub(crate) rtt: f64,
    /// `rtt·rtt`.
    pub(crate) rtt2: f64,
    /// `ψ_r`'s rate-independent part: `c·ε_r` (DTS), `rtt³` (ecMTCP), else 1.
    pub(crate) psi0: f64,
    /// `φ_r`'s gradient `ρ + η(d̂_r − D)⁺/D`; 0 for [`Phi::Zero`].
    pub(crate) grad: f64,
}

/// The per-flow aggregates of a state: `Σx`, plus whichever of the others
/// the flow's `ψ` reads ([`Psi::sums`]; the rest stay 0).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct FlowSums {
    pub(crate) sum_x: f64,
    pub(crate) sum_w: f64,
    pub(crate) max_x: f64,
    /// LIA's `max_k w_k/RTT_k²`.
    pub(crate) best: f64,
    /// ecMTCP's `n·min_k RTT_k`.
    pub(crate) n_min_rtt: f64,
    /// EWTCP's `√n`.
    pub(crate) sqrt_n: f64,
}

impl Psi {
    /// Evaluates `ψ_r` on the given state.
    pub fn eval(&self, r: usize, v: &FlowView<'_>) -> f64 {
        let k = CcModel::loss_based(*self).path_consts(v.rtt[r], v.base_rtt[r]);
        self.of(&k, &self.sums(v.x, v.rtt), v.x[r])
    }

    /// The aggregates [`Psi::of`] reads, taken once per flow and state.
    pub(crate) fn sums(&self, x: &[f64], rtt: &[f64]) -> FlowSums {
        let v = FlowView { x, rtt, base_rtt: rtt };
        let mut s = FlowSums { sum_x: v.sum_x(), ..FlowSums::default() };
        match self {
            Psi::Olia | Psi::Dts(_) => {}
            Psi::Ewtcp => s.sqrt_n = (v.n() as f64).sqrt(),
            Psi::Coupled => s.sum_w = v.sum_w(),
            Psi::Lia => {
                s.best = (0..v.n()).map(|k| v.w(k) / (rtt[k] * rtt[k])).fold(0.0f64, f64::max);
            }
            Psi::Balia => s.max_x = v.max_x(),
            Psi::EcMtcp => {
                s.sum_w = v.sum_w();
                s.n_min_rtt = v.n() as f64 * v.min_rtt();
            }
        }
        s
    }

    /// `ψ_r` from the path's constants, its flow's aggregates and `x_r`.
    #[inline]
    pub(crate) fn of(&self, k: &PathConsts, s: &FlowSums, x: f64) -> f64 {
        let sx = s.sum_x;
        match self {
            Psi::Ewtcp => (sx * sx) / (x * x * s.sqrt_n),
            Psi::Coupled => k.rtt2 * sx * sx / (s.sum_w * s.sum_w),
            Psi::Lia => s.best * k.rtt * k.rtt / (x * k.rtt),
            Psi::Olia | Psi::Dts(_) => k.psi0,
            Psi::Balia => {
                let alpha = (s.max_x / x).max(1.0);
                0.4 + alpha / 2.0 + alpha * alpha / 10.0
            }
            Psi::EcMtcp => k.psi0 * sx * sx / (s.n_min_rtt * (x * k.rtt) * s.sum_w),
        }
    }

    /// The human-readable algorithm name.
    pub fn name(&self) -> &'static str {
        match self {
            Psi::Ewtcp => AlgorithmKind::Ewtcp.name(),
            Psi::Coupled => AlgorithmKind::Coupled.name(),
            Psi::Lia => AlgorithmKind::Lia.name(),
            Psi::Olia => AlgorithmKind::Olia.name(),
            Psi::Balia => AlgorithmKind::Balia.name(),
            Psi::EcMtcp => AlgorithmKind::EcMtcp.name(),
            Psi::Dts(cfg) => Dts::with_config(*cfg).name(),
        }
    }
}

/// Tunable parameters of DTS-Φ, the paper's §V-C energy price. The
/// queue-excess term's weight η is fixed at 1.
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

/// Weight η of the queue-excess term in the price gradient.
const ETA: f64 = 1.0;

/// The compensative parameter `φ_r`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phi {
    /// `φ_r = 0` — all the §IV baseline algorithms.
    Zero,
    /// The §V-C energy price `φ_r = κ·x_r²·(ρ + η·(d̂_r − D)⁺/D)` with the
    /// path queueing delay `d̂_r = RTT_r − baseRTT_r`.
    EnergyPrice(DtsPhiConfig),
}

impl Phi {
    /// Evaluates `φ_r` on the given state.
    pub fn eval(&self, r: usize, v: &FlowView<'_>) -> f64 {
        self.of(self.grad(v.rtt[r], v.base_rtt[r]), v.x[r])
    }

    /// The price gradient `ρ + η(d̂_r − D)⁺/D` of a path, 0 for `Zero`.
    /// An unsampled path (`rtt = 0`, `base_rtt = ∞`) has `d̂_r = 0`.
    pub fn grad(&self, rtt: f64, base_rtt: f64) -> f64 {
        match self {
            Phi::Zero => 0.0,
            Phi::EnergyPrice(cfg) => {
                let d_hat = (rtt - base_rtt).max(0.0);
                let excess = (d_hat - cfg.queue_target_s).max(0.0);
                cfg.rho + ETA * excess / cfg.queue_target_s
            }
        }
    }

    /// `φ_r` from the path's gradient and `x_r`.
    #[inline]
    fn of(&self, grad: f64, x: f64) -> f64 {
        match self {
            Phi::Zero => 0.0,
            Phi::EnergyPrice(cfg) => cfg.kappa * x * x * grad,
        }
    }
}

/// A fully specified instance of Equation (3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcModel {
    /// Traffic-shifting parameter.
    pub psi: Psi,
    /// Decrease parameter `β` (½ for every loss-based algorithm here).
    pub beta: f64,
    /// Compensative parameter.
    pub phi: Phi,
}

impl CcModel {
    /// The standard loss-based model with `β = ½`, `φ = 0`.
    pub fn loss_based(psi: Psi) -> Self {
        CcModel { psi, beta: 0.5, phi: Phi::Zero }
    }

    /// The paper's DTS model (Equation (5) inside Equation (3)).
    pub fn dts(cfg: DtsConfig) -> Self {
        CcModel::loss_based(Psi::Dts(cfg))
    }

    /// The paper's extended DTS-Φ model (Equation (9)).
    pub fn dts_phi(cfg: DtsPhiConfig) -> Self {
        CcModel { psi: Psi::Dts(cfg.dts), beta: 0.5, phi: Phi::EnergyPrice(cfg) }
    }

    /// `dx_r/dt` per Equation (3) given the congestion signal `λ_r`.
    pub fn dxdt(&self, r: usize, v: &FlowView<'_>, lambda_r: f64) -> f64 {
        let k = self.path_consts(v.rtt[r], v.base_rtt[r]);
        self.rate(&k, &self.psi.sums(v.x, v.rtt), v.x[r], lambda_r)
    }

    /// The constants of a path with the given RTTs under this model.
    pub(crate) fn path_consts(&self, rtt: f64, base_rtt: f64) -> PathConsts {
        let psi0 = match self.psi {
            Psi::Dts(cfg) => {
                cfg.c * epsilon_exact(quality_ratio(rtt, base_rtt), cfg.slope, MIDPOINT)
            }
            Psi::EcMtcp => rtt.powi(3),
            Psi::Ewtcp | Psi::Coupled | Psi::Lia | Psi::Olia | Psi::Balia => 1.0,
        };
        PathConsts { rtt, rtt2: rtt * rtt, psi0, grad: self.phi.grad(rtt, base_rtt) }
    }

    /// The Equation-(3) kernel: `dx_r/dt` of one path from its constants,
    /// its flow's aggregates, its rate and its congestion signal. This is
    /// what [`CcModel::dxdt`] returns and what the fluid solver integrates.
    #[inline]
    pub(crate) fn rate(&self, k: &PathConsts, s: &FlowSums, x: f64, lambda_r: f64) -> f64 {
        if s.sum_x <= 0.0 {
            return 0.0;
        }
        let inc = self.psi.of(k, s, x) * x * x / (k.rtt2 * s.sum_x * s.sum_x);
        let dec = self.beta * lambda_r * x * x;
        inc - dec - self.phi.of(k.grad, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(x: &'a [f64], rtt: &'a [f64]) -> FlowView<'a> {
        FlowView { x, rtt, base_rtt: rtt }
    }

    #[test]
    fn all_psi_reduce_to_one_on_single_symmetric_path() {
        // On one path at equilibrium every TCP-friendly ψ must be 1 (Reno).
        let x = [100.0];
        let rtt = [0.1];
        let v = view(&x, &rtt);
        for psi in [Psi::Ewtcp, Psi::Coupled, Psi::Lia, Psi::Olia, Psi::Balia, Psi::EcMtcp] {
            let val = psi.eval(0, &v);
            assert!((val - 1.0).abs() < 1e-9, "{}: {val}", psi.name());
        }
    }

    #[test]
    fn psi_values_on_two_equal_paths() {
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.1];
        let v = view(&x, &rtt);
        // EWTCP: (200)²/(100²·√2) = 4/√2 = 2.828.
        assert!((Psi::Ewtcp.eval(0, &v) - 4.0 / 2f64.sqrt()).abs() < 1e-9);
        // Coupled: 0.01·4e4/(20·20)·... w = 10 each, Σw = 20:
        // 0.01·40000/400 = 1.
        assert!((Psi::Coupled.eval(0, &v) - 1.0).abs() < 1e-9);
        // LIA: best = 10/0.01 = 1000; 1000·0.01/10 = 1.
        assert!((Psi::Lia.eval(0, &v) - 1.0).abs() < 1e-9);
        // Balia: α = 1 → 0.4+0.5+0.1 = 1.
        assert!((Psi::Balia.eval(0, &v) - 1.0).abs() < 1e-9);
        // ecMTCP: 0.001·4e4/(2·0.1·10·20) = 40/40 = 1.
        assert!((Psi::EcMtcp.eval(0, &v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dts_psi_tracks_rtt_ratio() {
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.2];
        let base = [0.1, 0.1];
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
        let psi = Psi::Dts(DtsConfig::default());
        let good = psi.eval(0, &v); // ratio 1
        let bad = psi.eval(1, &v); // ratio 0.5
        assert!(good > 1.9 && (bad - 1.0).abs() < 1e-9, "good {good} bad {bad}");
    }

    #[test]
    fn phi_energy_price_scales_with_rate_squared() {
        let cfg = DtsPhiConfig::default();
        let phi = Phi::EnergyPrice(cfg);
        let x1 = [100.0];
        let x2 = [200.0];
        let rtt = [0.1];
        let p1 = phi.eval(0, &view(&x1, &rtt));
        let p2 = phi.eval(0, &view(&x2, &rtt));
        // No queue excess (rtt == base): gradient is ρ; φ ∝ x².
        assert!((p2 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dxdt_zero_at_reno_equilibrium() {
        // Single Reno path: equilibrium x* = √(2ψ/λ)/RTT. With ψ=1, λ chosen
        // so x* = 100: λ = 2/(x*·RTT)² = 2/100.
        let model = CcModel::loss_based(Psi::Olia);
        let x = [100.0];
        let rtt = [0.1];
        let lambda = 2.0 / (100.0f64 * 0.1).powi(2);
        let d = model.dxdt(0, &view(&x, &rtt), lambda);
        assert!(d.abs() < 1e-9, "dxdt {d}");
    }

    /// Folds `f(r, view, λ)` over 400 fixed pseudo-random states (1–4 paths,
    /// rates 1–10⁴, RTTs 100 µs–500 ms log-uniform, `base ≤ rtt`, λ < 3)
    /// into one word; any changed bit of any value changes it.
    fn digest(f: impl Fn(usize, &FlowView<'_>, f64) -> f64) -> u64 {
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut acc = 0u64;
        for _ in 0..400 {
            let n = 1 + (unit() * 4.0) as usize;
            let x: Vec<f64> = (0..n).map(|_| 1.0 + unit() * 9999.0).collect();
            let rtt: Vec<f64> = (0..n).map(|_| 10f64.powf(-4.0 + 3.699 * unit())).collect();
            let base: Vec<f64> = rtt.iter().map(|r| r * (0.05 + 0.95 * unit())).collect();
            let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
            for r in 0..n {
                acc = acc.rotate_left(7) ^ f(r, &v, 3.0 * unit()).to_bits();
            }
        }
        acc
    }

    #[test]
    fn eval_and_dxdt_return_the_bits_they_returned_before_the_kernel() {
        // Digests taken from the tree before `Psi::eval`, `Phi::eval` and
        // `dxdt` became callers of the per-path kernel: Equation (3)'s
        // operation order is part of their contract (the fluid tables pin
        // it, and the solver integrates the same kernel).
        let phi = DtsPhiConfig::default();
        let pinned: [(Psi, u64, u64); 7] = [
            (Psi::Ewtcp, 0x197d_f962_6b26_73f4, 0x1927_59b1_11c4_8155),
            (Psi::Coupled, 0x4fed_bbea_2aec_a5f4, 0x77d8_5e6f_39d8_3d92),
            (Psi::Lia, 0xdb5e_29c0_1158_083f, 0x08ec_ee2a_e20c_b5b2),
            (Psi::Olia, 0xad22_5ab5_6ad5_ab56, 0x95e8_169e_f79b_21a7),
            (Psi::Balia, 0xbe6f_cbde_09a6_f32e, 0x11d1_4883_cdfd_80a7),
            (Psi::EcMtcp, 0x2a6c_5965_5fc0_9082, 0xc427_eb12_65c0_f003),
            (Psi::Dts(phi.dts), 0x3961_d335_0479_e965, 0x3e2e_834a_09fb_1768),
        ];
        for (psi, eval_bits, dxdt_bits) in pinned {
            let got = digest(|r, v, _| psi.eval(r, v));
            assert_eq!(got, eval_bits, "ψ {}: {got:#018x}", psi.name());
            let got = digest(|r, v, lambda| CcModel::loss_based(psi).dxdt(r, v, lambda));
            assert_eq!(got, dxdt_bits, "dxdt {}: {got:#018x}", psi.name());
        }
        let got = digest(|r, v, _| Phi::EnergyPrice(phi).eval(r, v));
        assert_eq!(got, 0xafaf_ff79_5ff8_fd4d, "φ: {got:#018x}");
        let got = digest(|r, v, lambda| CcModel::dts_phi(phi).dxdt(r, v, lambda));
        assert_eq!(got, 0xa89d_1e6a_c98c_b395, "dts-phi dxdt: {got:#018x}");
    }
}
