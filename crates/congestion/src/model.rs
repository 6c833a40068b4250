//! The paper's general congestion-control model (§IV, Equation (3)), its
//! per-algorithm parameter decompositions, and the paper's own rows, DTS
//! and DTS-Φ.
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
//! variants, and one `match`, [`Psi::of`], gives each row's `(ψ_r, β_r)` at
//! a state: Balia's `β_r` is its published `min(α_r, 1.5)/2` (Peng, Walid,
//! Hwang & Low), every other row's is ½. The fluid solver integrates
//! [`CcModel::rate`]; the packet controller [`crate::ModelCc`] takes one
//! step of the same row per ACK and backs off by the same `β_r` on a loss.
//!
//! DTS — Delay-based Traffic Shifting, the paper's §V-B contribution —
//! multiplies the Pareto-optimal increase (`ψ = 1`, OLIA's base term) by a
//! sigmoid of the path-quality ratio `baseRTT_r / RTT_r` (Equation (5)):
//!
//! ```text
//! ε_r = 2 / (1 + e^{−10·(baseRTT_r/RTT_r − 1/2)})        ψ_r = c·ε_r
//! ```
//!
//! A queue-free path (`ratio → 1`) gets `ε ≈ 2`; a badly congested path
//! (`ratio → 0`) gets `ε ≈ 0`, so window growth — and therefore traffic —
//! shifts to low-delay, low-energy paths. Since the ratio's long-run
//! expectation is ≈ ½ where `ε = 1`, choosing `c = 1` preserves the
//! TCP-friendliness condition (the paper's fairness argument in §V-B).
//! Algorithm 1 computes `ε` in kernel fixed-point arithmetic with a cubic
//! Taylor expansion of `exp`; [`epsilon_fixed_point`] mirrors that
//! computation exactly, and [`DtsConfig::fixed_point`] selects it.
//!
//! DTS-Φ (§V-C) adds a data-center cost utility
//! `U_ep = Σ_{l'} (Q_{l'} − Q)⁺ + ρ·Σ_{l'} y_{l'}` (queue-excess service
//! penalty plus per-unit-traffic energy price ρ) to the resource-allocation
//! problem and derives the compensative parameter
//! `φ_r = κ·x_r²·∂U_ep/∂x_r` ([`Phi::EnergyPrice`]), giving Equation (9):
//!
//! ```text
//! dx_r/dt = c·ε_r·x_r²/(RTT_r²(Σx)²) − ½·p_r·x_r² − κ·x_r²·∂U_ep/∂x_r
//! ```
//!
//! Discretized per ACK (`dw/dt = dx/dt·RTT`, one ACK per `1/x_r` seconds)
//! the φ term is a gentle multiplicative drain
//! `Δw_r = −κ·w_r·(ρ + η·(d̂_r − D)⁺/D)`, where `d̂_r = RTT_r − baseRTT_r`
//! is the path's queueing delay and `D` the delay target. The paper's
//! `(Q_l − Q)⁺` terms are switch-queue sizes; end-to-end, the queueing
//! *delay* of the path is the observable proxy that does not dilute with
//! the number of flows sharing the bottleneck — no switch support needed,
//! which is what makes the design deployable on the hierarchical topologies
//! of §VI-C.

use crate::state::{active_count, total_cwnd, total_rate, SubflowCc};

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
/// signal. All of it is a function of the path's RTTs, so a solver builds
/// it once ([`CcModel::path_consts`]) and every RK4 stage reuses it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathConsts {
    /// The RTT of Equation (3)'s geometry, `RTT_r`.
    pub(crate) rtt: f64,
    /// `rtt·rtt`.
    pub(crate) rtt2: f64,
    /// `ψ_r`'s rate-independent part: `c·ε_r` (DTS, with Algorithm 1's
    /// fixed-point `ε` when the config asks for it), `rtt³` (ecMTCP), else 1.
    pub(crate) psi0: f64,
    /// `φ_r`'s gradient `ρ + η(d̂_r − D)⁺/D`; 0 for [`Phi::Zero`].
    pub(crate) grad: f64,
}

/// The per-flow aggregates of a state: `Σx`, plus whichever of the others
/// the flow's `ψ` reads ([`Psi::sums`] for the fluid state, and its packet
/// twin for a connection's subflows; the rest stay 0).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowSums {
    /// `Σ_k x_k`.
    pub(crate) sum_x: f64,
    /// Coupled's and ecMTCP's `Σ_k w_k`.
    pub(crate) sum_w: f64,
    /// Balia's `max_k x_k`.
    pub(crate) max_x: f64,
    /// LIA's `max_k w_k/RTT_k²`.
    pub(crate) best: f64,
    /// ecMTCP's `n·min_k RTT_k`.
    pub(crate) n_min_rtt: f64,
    /// EWTCP's `√n`.
    pub(crate) sqrt_n: f64,
}

impl Psi {
    /// Evaluates `(ψ_r, β_r)` on the given state.
    pub fn eval(&self, r: usize, v: &FlowView<'_>) -> (f64, f64) {
        let k = CcModel::loss_based(*self).path_consts(v.rtt[r], v.rtt[r], v.base_rtt[r]);
        self.of(&k, &self.sums(v.x, v.rtt), v.x[r])
    }

    /// The aggregates [`Psi::of`] reads, taken once per flow and state.
    #[inline]
    pub fn sums(&self, x: &[f64], rtt: &[f64]) -> FlowSums {
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

    /// [`Psi::sums`] of a packet connection, read from its subflows without
    /// allocating: `Σx` is [`total_rate`], `Σw` [`total_cwnd`] and `n`
    /// [`active_count`]; LIA's best path and ecMTCP's smallest RTT range
    /// over the active subflows that have an RTT sample, at `srtt`.
    pub(crate) fn subflow_sums(&self, flows: &[SubflowCc]) -> FlowSums {
        let mut s = FlowSums { sum_x: total_rate(flows), ..FlowSums::default() };
        let sampled = || flows.iter().filter(|f| f.active && f.has_rtt());
        match self {
            Psi::Olia | Psi::Dts(_) => {}
            Psi::Ewtcp => s.sqrt_n = (active_count(flows) as f64).sqrt(),
            Psi::Coupled => s.sum_w = total_cwnd(flows),
            Psi::Lia => {
                s.best = sampled().map(|f| f.cwnd / (f.srtt * f.srtt)).fold(0.0f64, f64::max);
            }
            Psi::Balia => s.max_x = flows.iter().map(SubflowCc::rate).fold(0.0f64, f64::max),
            Psi::EcMtcp => {
                s.sum_w = total_cwnd(flows);
                let min_rtt = sampled().map(|f| f.srtt).fold(f64::INFINITY, f64::min);
                s.n_min_rtt = active_count(flows) as f64 * min_rtt;
            }
        }
        s
    }

    /// `(ψ_r, β_r)` from the path's constants, its flow's aggregates and
    /// `x_r`. Balia's `α_r = max_k x_k / x_r`, at least 1, sets both its ψ
    /// and its `β_r = min(α_r, 1.5)/2`; every other row's `β_r` is ½.
    #[inline]
    pub fn of(&self, k: &PathConsts, s: &FlowSums, x: f64) -> (f64, f64) {
        let sx = s.sum_x;
        let psi = match self {
            Psi::Ewtcp => (sx * sx) / (x * x * s.sqrt_n),
            Psi::Coupled => k.rtt2 * sx * sx / (s.sum_w * s.sum_w),
            Psi::Lia => s.best * k.rtt * k.rtt / (x * k.rtt),
            Psi::Olia | Psi::Dts(_) => k.psi0,
            Psi::Balia => {
                let alpha = (s.max_x / x).max(1.0);
                return (0.4 + alpha / 2.0 + alpha * alpha / 10.0, alpha.min(1.5) / 2.0);
            }
            Psi::EcMtcp => k.psi0 * sx * sx / (s.n_min_rtt * (x * k.rtt) * s.sum_w),
        };
        (psi, 0.5)
    }
}

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
const MIDPOINT: f64 = 0.5;

/// Equation (5)'s path-quality ratio `baseRTT/RTT`, clamped into `[0, 1]`:
/// 1 on a path not yet sampled (`RTT = 0`, `baseRTT = ∞`).
fn quality_ratio(rtt: f64, base_rtt: f64) -> f64 {
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

/// A fully specified instance of Equation (3): the row `psi` names gives
/// `ψ_r` and `β_r` ([`Psi::of`]), `phi` gives `φ_r`, and `λ_r` is the
/// network's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcModel {
    /// Traffic-shifting and decrease parameters.
    pub psi: Psi,
    /// Compensative parameter.
    pub phi: Phi,
}

impl CcModel {
    /// The loss-based model of row `psi`, with `φ = 0`; its `β_r` is the
    /// row's, ½ for all but Balia.
    pub fn loss_based(psi: Psi) -> Self {
        CcModel { psi, phi: Phi::Zero }
    }

    /// The paper's DTS model (Equation (5) inside Equation (3)).
    pub fn dts(cfg: DtsConfig) -> Self {
        CcModel::loss_based(Psi::Dts(cfg))
    }

    /// The paper's extended DTS-Φ model (Equation (9)).
    pub fn dts_phi(cfg: DtsPhiConfig) -> Self {
        CcModel { psi: Psi::Dts(cfg.dts), phi: Phi::EnergyPrice(cfg) }
    }

    /// `dx_r/dt` per Equation (3) given the congestion signal `λ_r`.
    pub fn dxdt(&self, r: usize, v: &FlowView<'_>, lambda_r: f64) -> f64 {
        let k = self.path_consts(v.rtt[r], v.rtt[r], v.base_rtt[r]);
        self.rate(&k, &self.psi.sums(v.x, v.rtt), v.x[r], lambda_r)
    }

    /// The constants of a path under this model: Equation (3)'s geometry at
    /// `rtt`, and DTS's sigmoid and φ's queueing delay at `sample_rtt`
    /// against `base_rtt`. The fluid form has one RTT and passes it twice;
    /// the packet form passes its smoothed RTT and its latest sample.
    pub fn path_consts(&self, rtt: f64, sample_rtt: f64, base_rtt: f64) -> PathConsts {
        let psi0 = match self.psi {
            Psi::Dts(cfg) => {
                let ratio = quality_ratio(sample_rtt, base_rtt);
                cfg.c
                    * if cfg.fixed_point {
                        epsilon_fixed_point(ratio)
                    } else {
                        epsilon_exact(ratio, cfg.slope, MIDPOINT)
                    }
            }
            Psi::EcMtcp => rtt.powi(3),
            Psi::Ewtcp | Psi::Coupled | Psi::Lia | Psi::Olia | Psi::Balia => 1.0,
        };
        PathConsts { rtt, rtt2: rtt * rtt, psi0, grad: self.phi.grad(sample_rtt, base_rtt) }
    }

    /// The Equation-(3) kernel: `dx_r/dt` of one path from its constants,
    /// its flow's aggregates, its rate and its congestion signal. This is
    /// what [`CcModel::dxdt`] returns and what the fluid solver integrates.
    #[inline]
    pub fn rate(&self, k: &PathConsts, s: &FlowSums, x: f64, lambda_r: f64) -> f64 {
        if s.sum_x <= 0.0 {
            return 0.0;
        }
        let (psi, beta) = self.psi.of(k, s, x);
        let inc = psi * x * x / (k.rtt2 * s.sum_x * s.sum_x);
        let dec = beta * lambda_r * x * x;
        inc - dec - self.phi.of(k.grad, x)
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "the sigmoid tests assert values produced by exact f64 arithmetic on small literals, so strict float comparison is the intended precision"
)]
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
    fn a_fixed_point_config_reads_algorithm_1s_epsilon() {
        let fixed = DtsConfig { fixed_point: true, ..DtsConfig::default() };
        for (rtt, base) in [(0.1, 0.1), (0.2, 0.1), (0.4, 0.1)] {
            let k = CcModel::dts(fixed).path_consts(rtt, rtt, base);
            assert_eq!(k.psi0.to_bits(), epsilon_fixed_point(base / rtt).to_bits(), "{rtt}");
        }
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
            let (val, _) = psi.eval(0, &v);
            assert!((val - 1.0).abs() < 1e-9, "{psi:?}: {val}");
        }
    }

    #[test]
    fn psi_values_on_two_equal_paths() {
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.1];
        let v = view(&x, &rtt);
        // EWTCP: (200)²/(100²·√2) = 4/√2 = 2.828.
        assert!((Psi::Ewtcp.eval(0, &v).0 - 4.0 / 2f64.sqrt()).abs() < 1e-9);
        // Coupled: 0.01·4e4/(20·20)·... w = 10 each, Σw = 20:
        // 0.01·40000/400 = 1.
        assert!((Psi::Coupled.eval(0, &v).0 - 1.0).abs() < 1e-9);
        // LIA: best = 10/0.01 = 1000; 1000·0.01/10 = 1.
        assert!((Psi::Lia.eval(0, &v).0 - 1.0).abs() < 1e-9);
        // Balia: α = 1 → 0.4+0.5+0.1 = 1.
        assert!((Psi::Balia.eval(0, &v).0 - 1.0).abs() < 1e-9);
        // ecMTCP: 0.001·4e4/(2·0.1·10·20) = 40/40 = 1.
        assert!((Psi::EcMtcp.eval(0, &v).0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dts_psi_tracks_rtt_ratio() {
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.2];
        let base = [0.1, 0.1];
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
        let psi = Psi::Dts(DtsConfig::default());
        let (good, _) = psi.eval(0, &v); // ratio 1
        let (bad, _) = psi.eval(1, &v); // ratio 0.5
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

    #[test]
    fn balia_backs_off_by_its_published_beta_and_every_other_row_by_half() {
        // Path 1 runs at 100 packets/s beside a path α times as fast.
        let rtt = [0.1, 0.1];
        for (alpha, beta) in [(1.0, 0.5), (1.2, 0.6), (2.0, 0.75), (4.0, 0.75)] {
            let x = [100.0 * alpha, 100.0];
            assert_eq!(Psi::Balia.eval(1, &view(&x, &rtt)).1, beta, "α = {alpha}");
            let others = [Psi::Ewtcp, Psi::Coupled, Psi::Lia, Psi::Olia, Psi::EcMtcp];
            for psi in others.into_iter().chain([Psi::Dts(DtsConfig::default())]) {
                assert_eq!(psi.eval(1, &view(&x, &rtt)).1, 0.5, "{psi:?} at α = {alpha}");
            }
        }
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
        // it, and the solver integrates the same kernel). Balia's `dxdt` was
        // re-pinned once, when its row took its published `β_r` for ½.
        let phi = DtsPhiConfig::default();
        let pinned: [(Psi, u64, u64); 7] = [
            (Psi::Ewtcp, 0x197d_f962_6b26_73f4, 0x1927_59b1_11c4_8155),
            (Psi::Coupled, 0x4fed_bbea_2aec_a5f4, 0x77d8_5e6f_39d8_3d92),
            (Psi::Lia, 0xdb5e_29c0_1158_083f, 0x08ec_ee2a_e20c_b5b2),
            (Psi::Olia, 0xad22_5ab5_6ad5_ab56, 0x95e8_169e_f79b_21a7),
            (Psi::Balia, 0xbe6f_cbde_09a6_f32e, 0x27a8_e23d_a734_52fd),
            (Psi::EcMtcp, 0x2a6c_5965_5fc0_9082, 0xc427_eb12_65c0_f003),
            (Psi::Dts(phi.dts), 0x3961_d335_0479_e965, 0x3e2e_834a_09fb_1768),
        ];
        for (psi, eval_bits, dxdt_bits) in pinned {
            let got = digest(|r, v, _| psi.eval(r, v).0);
            assert_eq!(got, eval_bits, "ψ {psi:?}: {got:#018x}");
            let got = digest(|r, v, lambda| CcModel::loss_based(psi).dxdt(r, v, lambda));
            assert_eq!(got, dxdt_bits, "dxdt {psi:?}: {got:#018x}");
        }
        let got = digest(|r, v, _| Phi::EnergyPrice(phi).eval(r, v));
        assert_eq!(got, 0xafaf_ff79_5ff8_fd4d, "φ: {got:#018x}");
        let got = digest(|r, v, lambda| CcModel::dts_phi(phi).dxdt(r, v, lambda));
        assert_eq!(got, 0xa89d_1e6a_c98c_b395, "dts-phi dxdt: {got:#018x}");
    }
}
