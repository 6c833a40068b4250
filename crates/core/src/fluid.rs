//! RK4 fluid-model solver for networks of Equation-(3) flows sharing links.
//!
//! Links carry smooth congestion prices `p_l(y) = min(p0·(y/c_l)⁴, 1)` (the
//! standard fluid approximation of loss probability, capped at 1 because it
//! *is* a probability); a flow's per-path signal is `λ_r = Σ_{l ∈ r} p_l(y_l)`.
//! The solver integrates every flow's Equation (3) simultaneously, which lets
//! the analytical layer (a) verify each algorithm's published fixed point,
//! (b) check TCP-friendliness and Pareto-efficiency numerically, and
//! (c) cross-validate the packet-level simulator's equilibria.
//!
//! [`FluidNet`] is plain data: links and flows. [`FluidSolver`] is the one
//! integrator. It compiles a net into flat, preallocated arrays — state, RK4
//! stages, link rates and prices, and a CSR path→link index — so a step over
//! 10⁵ flows allocates nothing. The condition checkers, the Fig. 6 fluid
//! cross-check and the hybrid engine all drive it. An equilibrium solve that
//! misses its tolerance is an `Err` its caller has to handle.
//!
//! # Integrator semantics
//!
//! Equation (3) is undefined at `x_r = 0` (several ψ decompositions divide by
//! `x_r` or `w_r`), so the vector field is extended *constantly* below the
//! rate floor: `F̃(x) := F(max(x, X_MIN))` componentwise. RK4 stages are formed
//! without clamping and evaluate `F̃`; only the final combined state is
//! projected back onto `[X_MIN, ∞)`. Off the floor the extension is inert and
//! the integrator is classic RK4, bit-for-bit (pinned by test).

use congestion::model::{CcModel, PathConsts};

/// Minimum rate floor (packets/second): flows never go extinct, matching the
/// one-packet window floor of the packet level.
pub const X_MIN: f64 = 1.0;

/// `r^B` for the price exponent, the constant `B = 4` (sharpness of
/// congestion onset), as two explicit squarings: a fixed sequence of
/// roundings (which `powi` does not promise), within 4 ulp of libm's power
/// function at a sixth of its cost (DESIGN.md §14).
#[inline]
fn pow_b(r: f64) -> f64 {
    (r * r) * (r * r)
}

/// The shared price curve: `min(p0·(y/c)⁴, 1)`. Returns the price and
/// whether the probability cap engaged.
#[inline]
fn price_of(p0: f64, capacity: f64, y: f64) -> (f64, bool) {
    if y <= 0.0 {
        return (0.0, false);
    }
    let p = p0 * pow_b(y / capacity);
    if p >= 1.0 {
        (1.0, true)
    } else {
        (p, false)
    }
}

/// A fluid link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidLink {
    /// Capacity in packets/second.
    pub capacity: f64,
    /// Price scale `p0`.
    pub p0: f64,
}

impl FluidLink {
    /// A link with the standard price curve (`p0 = 1e-2`, `B = 4`).
    pub fn new(capacity: f64) -> Self {
        FluidLink { capacity, p0: 1e-2 }
    }

    /// A link whose price scale is calibrated so that a *single Reno flow*
    /// with round-trip time `rtt` has its Equation-(3) fixed point at
    /// `target_util · capacity`.
    ///
    /// From `1/rtt² = ½·p0·(x/c)^B·x²` at `x = u·c`:
    /// `p0 = 2 / (rtt² · (u·c)² · u^B)`. This is how the hybrid engine maps
    /// packet-level links (which run near full utilization under loss-based
    /// CC) onto fluid links whose equilibria land in the same place.
    pub fn calibrated(capacity: f64, rtt: f64, target_util: f64) -> Self {
        let xs = target_util * capacity;
        let p0 = 2.0 / (rtt * rtt * xs * xs * pow_b(target_util));
        FluidLink { capacity, p0 }
    }

    /// The congestion price at aggregate rate `y`, capped at 1.0 (it models
    /// a loss probability).
    pub fn price(&self, y: f64) -> f64 {
        price_of(self.p0, self.capacity, y).0
    }
}

/// One path of a fluid flow.
#[derive(Clone, Debug, PartialEq)]
pub struct FluidPath {
    /// Indices into the net's link table.
    pub links: Vec<usize>,
    /// Propagation RTT of the path, seconds.
    pub rtt: f64,
    /// Base (minimum) RTT exposed to delay-based ψ, seconds.
    pub base_rtt: f64,
}

impl FluidPath {
    /// A path over `links` with equal RTT and base RTT.
    pub fn new(links: Vec<usize>, rtt: f64) -> Self {
        FluidPath { links, rtt, base_rtt: rtt }
    }
}

/// A multipath fluid flow governed by a [`CcModel`].
#[derive(Clone, Debug, PartialEq)]
pub struct FluidFlow {
    /// The Equation-(3) parameterization.
    pub model: CcModel,
    /// The flow's paths.
    pub paths: Vec<FluidPath>,
}

/// A network of fluid links and flows: plain data, integrated by
/// [`FluidSolver`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FluidNet {
    /// Links.
    pub links: Vec<FluidLink>,
    /// Flows.
    pub flows: Vec<FluidFlow>,
}

impl FluidNet {
    /// Creates an empty net.
    pub fn new() -> Self {
        FluidNet::default()
    }

    /// Adds a link, returning its index.
    pub fn add_link(&mut self, link: FluidLink) -> usize {
        self.links.push(link);
        self.links.len() - 1
    }

    /// Adds a flow, returning its index.
    pub fn add_flow(&mut self, flow: FluidFlow) -> usize {
        self.flows.push(flow);
        self.flows.len() - 1
    }
}

/// A miss of [`FluidSolver::solve_equilibrium`]: the tolerance was not met
/// within `max_steps`, and the solver holds a state that is not a fixed point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EquilibriumInfo {
    /// Steps integrated (`max_steps`).
    pub steps: usize,
    /// Worst relative rate change over the last tested window
    /// (`f64::INFINITY` if no window was tested, i.e. `max_steps == 0`).
    pub residual: f64,
}

/// Immutable flat topology: links, flows and the CSR path→link index, plus
/// everything Equation (3) reads that is fixed while the net is.
struct FlatTopo {
    /// Per-link capacity (packets/second).
    capacity: Vec<f64>,
    /// Per-link price scale.
    p0: Vec<f64>,
    /// Per-flow model.
    models: Vec<CcModel>,
    /// Flow `f` owns global paths `path_off[f]..path_off[f+1]`.
    path_off: Vec<usize>,
    /// Per-path RTT (seconds), flow-major: what the per-flow aggregates read.
    rtt: Vec<f64>,
    /// Per-path kernel constants, flow-major.
    consts: Vec<PathConsts>,
    /// Path `p` crosses links `link_idx[link_off[p]..link_off[p+1]]`.
    link_off: Vec<usize>,
    /// CSR link indices (`u32`: half the bytes the two sparse products walk).
    link_idx: Vec<u32>,
}

/// Preallocated integration scratch.
struct Scratch {
    /// Clamped copy of the stage state (the constant extension `F̃`).
    xc: Vec<f64>,
    /// RK4 stage derivatives.
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    /// Unclamped stage state.
    stage: Vec<f64>,
    /// Per-link aggregate rates.
    y: Vec<f64>,
    /// Per-link prices.
    prices: Vec<f64>,
}

impl FlatTopo {
    /// The links of path `p`.
    #[inline]
    fn links_of(&self, p: usize) -> &[u32] {
        &self.link_idx[self.link_off[p]..self.link_off[p + 1]]
    }

    /// `xc = max(xs, X_MIN)` and the per-link aggregate rates `y` under it,
    /// summed in ascending path order.
    fn link_load(&self, xs: &[f64], xc: &mut [f64], y: &mut [f64]) {
        for (c, &v) in xc.iter_mut().zip(xs) {
            *c = v.max(X_MIN);
        }
        y.fill(0.0);
        for (p, &xv) in xc.iter().enumerate() {
            for &l in self.links_of(p) {
                y[l as usize] += xv;
            }
        }
    }

    /// Evaluates the constantly-extended field `F̃(xs) = F(max(xs, X_MIN))`
    /// into `out`, using `xc`/`y`/`prices` as scratch. Counts price-cap hits.
    fn field(
        &self,
        xs: &[f64],
        xc: &mut [f64],
        y: &mut [f64],
        prices: &mut [f64],
        out: &mut [f64],
        cap_hits: &mut u64,
    ) {
        self.link_load(xs, xc, y);
        for l in 0..prices.len() {
            let (pv, capped) = price_of(self.p0[l], self.capacity[l], y[l]);
            prices[l] = pv;
            if capped {
                *cap_hits = cap_hits.saturating_add(1);
            }
        }
        for (f, model) in self.models.iter().enumerate() {
            let r = self.path_off[f]..self.path_off[f + 1];
            let sums = model.psi.sums(&xc[r.clone()], &self.rtt[r.clone()]);
            for p in r {
                let lambda: f64 = self.links_of(p).iter().map(|&l| prices[l as usize]).sum();
                out[p] = model.rate(&self.consts[p], &sums, xc[p], lambda);
            }
        }
    }
}

/// Flat, preallocated RK4 integrator over a [`FluidNet`]. A step allocates
/// nothing; state is flow-major (`flow 0`'s paths, then `flow 1`'s, …).
pub struct FluidSolver {
    topo: FlatTopo,
    ws: Scratch,
    x: Vec<f64>,
    price_cap_hits: u64,
}

impl FluidSolver {
    /// Builds a solver from `net` with the state given flat, flow-major (as
    /// [`FluidSolver::x`] exposes it). The CSR arrays and each path's kernel
    /// constants are computed here from its `(rtt, base_rtt)`, so a solver is
    /// valid for as long as the net's RTTs and links are.
    ///
    /// # Panics
    /// Panics if `x0`'s length does not equal the net's total path count, a
    /// path references a link index out of range, or the net has more than
    /// `u32::MAX` links.
    pub fn from_flat_state(net: &FluidNet, x0: &[f64]) -> Self {
        let n_paths: usize = net.flows.iter().map(|f| f.paths.len()).sum();
        assert_eq!(x0.len(), n_paths, "flat x0 must have one entry per path");
        let n_links = net.links.len();
        let mut topo = FlatTopo {
            capacity: net.links.iter().map(|l| l.capacity).collect(),
            p0: net.links.iter().map(|l| l.p0).collect(),
            models: net.flows.iter().map(|f| f.model).collect(),
            path_off: Vec::with_capacity(net.flows.len() + 1),
            rtt: Vec::new(),
            consts: Vec::new(),
            link_off: Vec::new(),
            link_idx: Vec::new(),
        };
        topo.path_off.push(0);
        topo.link_off.push(0);
        for flow in &net.flows {
            for path in &flow.paths {
                topo.rtt.push(path.rtt);
                topo.consts.push(flow.model.path_consts(path.rtt, path.rtt, path.base_rtt));
                for &l in &path.links {
                    assert!(l < n_links, "path references link {l} of {n_links}");
                    // simlint: allow(P001, documented panic: a net of four billion links is out of scope by construction)
                    topo.link_idx.push(u32::try_from(l).expect("link index fits u32"));
                }
                topo.link_off.push(topo.link_idx.len());
            }
            topo.path_off.push(topo.rtt.len());
        }
        let ws = Scratch {
            xc: vec![0.0; n_paths],
            k1: vec![0.0; n_paths],
            k2: vec![0.0; n_paths],
            k3: vec![0.0; n_paths],
            k4: vec![0.0; n_paths],
            stage: vec![0.0; n_paths],
            y: vec![0.0; n_links],
            prices: vec![0.0; n_links],
        };
        FluidSolver { topo, ws, x: x0.to_vec(), price_cap_hits: 0 }
    }

    /// The flat state, flow-major.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Flow `f`'s per-path rates.
    pub fn rates_of(&self, f: usize) -> &[f64] {
        &self.x[self.topo.path_off[f]..self.topo.path_off[f + 1]]
    }

    /// Per-link aggregate rates under the *current* state (clamped to the
    /// floor, as the field sees them). Recomputed into the scratch buffer.
    pub fn link_rates(&mut self) -> &[f64] {
        self.topo.link_load(&self.x, &mut self.ws.xc, &mut self.ws.y);
        &self.ws.y
    }

    /// Times a link price hit the probability cap since construction.
    pub fn price_cap_hits(&self) -> u64 {
        self.price_cap_hits
    }

    /// One classic RK4 step of size `dt` on the constantly-extended field;
    /// the final state is projected onto `[X_MIN, ∞)`.
    pub fn step(&mut self, dt: f64) {
        let t = &self.topo;
        let w = &mut self.ws;
        t.field(&self.x, &mut w.xc, &mut w.y, &mut w.prices, &mut w.k1, &mut self.price_cap_hits);
        for i in 0..self.x.len() {
            w.stage[i] = self.x[i] + (dt / 2.0) * w.k1[i];
        }
        t.field(&w.stage, &mut w.xc, &mut w.y, &mut w.prices, &mut w.k2, &mut self.price_cap_hits);
        for i in 0..self.x.len() {
            w.stage[i] = self.x[i] + (dt / 2.0) * w.k2[i];
        }
        t.field(&w.stage, &mut w.xc, &mut w.y, &mut w.prices, &mut w.k3, &mut self.price_cap_hits);
        for i in 0..self.x.len() {
            w.stage[i] = self.x[i] + dt * w.k3[i];
        }
        t.field(&w.stage, &mut w.xc, &mut w.y, &mut w.prices, &mut w.k4, &mut self.price_cap_hits);
        for i in 0..self.x.len() {
            let d = (w.k1[i] + 2.0 * w.k2[i] + 2.0 * w.k3[i] + w.k4[i]) / 6.0;
            self.x[i] = (self.x[i] + dt * d).max(X_MIN);
        }
    }

    /// Integrates `steps` steps of size `dt`.
    pub fn run(&mut self, dt: f64, steps: usize) {
        for _ in 0..steps {
            self.step(dt);
        }
    }

    /// Integrates until the max relative rate change over a window falls
    /// below `tol`, returning the steps taken, or misses after `max_steps`.
    /// The test runs every 200 steps *and* on the final step, so
    /// `max_steps < 200` still gets a verdict.
    ///
    /// # Errors
    /// [`EquilibriumInfo`] when `max_steps` elapse without meeting `tol`.
    pub fn solve_equilibrium(
        &mut self,
        dt: f64,
        tol: f64,
        max_steps: usize,
    ) -> Result<usize, EquilibriumInfo> {
        let window = 200usize;
        let mut since_check = self.x.clone();
        let mut residual = f64::INFINITY;
        for s in 1..=max_steps {
            self.step(dt);
            if s % window == 0 || s == max_steps {
                let mut worst: f64 = 0.0;
                for (a, b) in self.x.iter().zip(&since_check) {
                    worst = worst.max((a - b).abs() / b.max(X_MIN));
                }
                residual = worst;
                if worst < tol {
                    return Ok(s);
                }
                since_check.copy_from_slice(&self.x);
            }
        }
        Err(EquilibriumInfo { steps: max_steps, residual })
    }
}

/// Convenience: a single-bottleneck net with one multipath flow whose paths
/// each cross a dedicated link — the canonical §IV analysis setup.
pub fn disjoint_paths_net(model: CcModel, caps: &[f64], rtts: &[f64]) -> FluidNet {
    assert_eq!(caps.len(), rtts.len());
    let mut net = FluidNet::new();
    let links: Vec<usize> = caps.iter().map(|&c| net.add_link(FluidLink::new(c))).collect();
    let paths = links.iter().zip(rtts).map(|(&l, &rtt)| FluidPath::new(vec![l], rtt)).collect();
    net.add_flow(FluidFlow { model, paths });
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::model::{CcModel, DtsConfig, DtsPhiConfig, FlowView, Phi, Psi};
    use proptest::prelude::*;

    fn reno_single(cap: f64, rtt: f64) -> FluidNet {
        disjoint_paths_net(CcModel::loss_based(Psi::Olia), &[cap], &[rtt])
    }

    /// Solves `net` from the flat state `x0`, asserting convergence.
    fn solved(net: &FluidNet, x0: &[f64], dt: f64, tol: f64, max_steps: usize) -> FluidSolver {
        let mut solver = FluidSolver::from_flat_state(net, x0);
        if let Err(miss) = solver.solve_equilibrium(dt, tol, max_steps) {
            panic!("no equilibrium: {miss:?} at x = {:?}", solver.x());
        }
        solver
    }

    #[test]
    fn single_reno_converges_to_fixed_point() {
        // Equilibrium: ψ x²/(rtt²x²) = β p(x) x² → 1/rtt² = ½ p0 (x/c)^B x².
        let net = reno_single(1000.0, 0.1);
        let xr = solved(&net, &[10.0], 1e-3, 1e-8, 2_000_000).x()[0];
        // Analytic fixed point: 1/rtt² = ½·p0·(x/c)^B·x² → x* = (2c^B/(p0·rtt²))^(1/(B+2)).
        let expected = (2.0 * 1000.0f64.powi(4) / (1e-2 * 0.01)).powf(1.0 / 6.0);
        assert!((xr - expected).abs() / expected < 0.01, "x* = {xr}, expected {expected}");
    }

    #[test]
    fn equilibrium_is_independent_of_start() {
        let net = reno_single(1000.0, 0.1);
        let a = solved(&net, &[5.0], 1e-3, 1e-8, 2_000_000).x()[0];
        let b = solved(&net, &[500.0], 1e-3, 1e-8, 2_000_000).x()[0];
        assert!((a - b).abs() / a < 1e-3, "a {a} b {b}");
    }

    #[test]
    fn two_reno_flows_share_a_bottleneck_equally() {
        let mut net = FluidNet::new();
        let l = net.add_link(FluidLink::new(1000.0));
        for _ in 0..2 {
            net.add_flow(FluidFlow {
                model: CcModel::loss_based(Psi::Olia),
                paths: vec![FluidPath::new(vec![l], 0.1)],
            });
        }
        let solver = solved(&net, &[10.0, 300.0], 1e-3, 1e-8, 4_000_000);
        let (a, b) = (solver.x()[0], solver.x()[1]);
        assert!((a - b).abs() / a < 0.01, "unfair split {a} vs {b}");
    }

    #[test]
    fn olia_on_two_paths_is_tcp_friendly() {
        // Multipath OLIA over two disjoint equal links gets less aggregate
        // than two independent Renos would (coupling), but more than one.
        let net =
            disjoint_paths_net(CcModel::loss_based(Psi::Olia), &[1000.0, 1000.0], &[0.1, 0.1]);
        let total: f64 = solved(&net, &[10.0, 10.0], 1e-3, 1e-8, 2_000_000).x().iter().sum();
        let single = solved(&reno_single(1000.0, 0.1), &[10.0], 1e-3, 1e-8, 2_000_000).x()[0];
        assert!(total > single * 1.05, "multipath should beat one path");
        assert!(total < single * 2.0, "multipath must not beat two independent TCPs");
    }

    #[test]
    fn dts_shifts_rate_to_good_ratio_path() {
        let cfg = DtsConfig::default();
        let mut net = disjoint_paths_net(CcModel::dts(cfg), &[1000.0, 1000.0], &[0.1, 0.1]);
        // Path 1 shows heavy RTT inflation (base ≪ rtt).
        net.flows[0].paths[1].rtt = 0.2;
        net.flows[0].paths[1].base_rtt = 0.05; // ratio 0.25

        // From a cold start the fixed point, x* ≈ [525.7, 195.4], takes 10.7 M
        // steps; an even split of about its aggregate takes 1.6 M, and the
        // ratio assertion fails at the start, so the solve has to move it.
        let solver = solved(&net, &[360.0, 360.0], 1e-3, 1e-8, 2_000_000);
        let x = solver.x();
        assert!(x[0] > 2.0 * x[1], "DTS should favour the clean path: {x:?}");
    }

    #[test]
    fn rates_never_drop_below_floor() {
        let net =
            disjoint_paths_net(CcModel::loss_based(Psi::Olia), &[10.0, 10000.0], &[1.0, 0.01]);
        let mut solver = FluidSolver::from_flat_state(&net, &[5.0, 5.0]);
        solver.run(1e-3, 100_000);
        assert!(solver.x().iter().all(|&v| v >= X_MIN));
    }

    // ---- price cap (satellite: price must stay a probability) ----

    #[test]
    // The cap saturates via `.min(1.0)`, so 1.0 is exact, not approximate.
    #[allow(clippy::float_cmp)]
    fn price_is_capped_at_one() {
        let l = FluidLink::new(1000.0);
        // p0·(y/c)^B = 1 at y/c = (1/p0)^(1/B) = 100^(1/4) ≈ 3.1623.
        let cap_y = 1000.0 * (1.0 / 1e-2f64).powf(1.0 / 4.0);
        assert_eq!(l.price(cap_y * 1.0001), 1.0, "at/above the cap the price is exactly 1");
        assert_eq!(l.price(cap_y * 10.0), 1.0);
        assert_eq!(l.price(1e12), 1.0);
        assert!(l.price(cap_y * 0.999) < 1.0, "just below the cap stays below 1");
    }

    #[test]
    fn price_below_cap_is_bit_identical_to_uncapped_curve() {
        // The cap must be inert in the uncongested regime: below the
        // crossing the capped price is the raw formula, bit for bit.
        let l = FluidLink::new(1000.0);
        for frac in [0.01, 0.1, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0] {
            let y = 1000.0 * frac;
            let raw = l.p0 * pow_b(y / l.capacity);
            assert_eq!(l.price(y).to_bits(), raw.to_bits(), "y/c = {frac}");
        }
    }

    #[test]
    fn solver_counts_price_cap_hits_when_overloaded() {
        // Two aggressive flows vastly over a tiny link: the cap must engage.
        let mut net = FluidNet::new();
        let l = net.add_link(FluidLink::new(10.0));
        for _ in 0..2 {
            net.add_flow(FluidFlow {
                model: CcModel::loss_based(Psi::Olia),
                paths: vec![FluidPath::new(vec![l], 0.1)],
            });
        }
        let solver = solved(&net, &[500.0, 500.0], 1e-4, 1e-8, 10_000);
        assert!(solver.price_cap_hits() > 0, "overload must hit the cap");
        // And the capped system still settles to a finite, floored state.
        assert!(solver.x().iter().all(|v| v.is_finite() && *v >= X_MIN));
    }

    // ---- equilibrium window (satellite: small max_steps must test tol) ----

    #[test]
    fn equilibrium_with_small_max_steps_still_tests_tolerance() {
        // Start *at* the analytic fixed point. With max_steps < 200 the old
        // code never ran the tolerance test and reported non-convergence
        // implicitly; the fix tests on the final step.
        let net = reno_single(1000.0, 0.1);
        let xstar = (2.0 * 1000.0f64.powi(4) / (1e-2 * 0.01)).powf(1.0 / 6.0);
        let mut solver = FluidSolver::from_flat_state(&net, &[xstar]);
        assert_eq!(
            solver.solve_equilibrium(1e-3, 1e-6, 50),
            Ok(50),
            "at the fixed point, 50 steps must converge"
        );
    }

    #[test]
    fn equilibrium_far_from_fixed_point_reports_not_converged() {
        let net = reno_single(1000.0, 0.1);
        let mut solver = FluidSolver::from_flat_state(&net, &[10.0]);
        let miss = solver.solve_equilibrium(1e-3, 1e-10, 50).unwrap_err();
        assert_eq!(miss.steps, 50, "50 steps from x=10 cannot meet 1e-10");
        assert!(miss.residual > 1e-10);
    }

    // ---- RK4 stage handling (satellite: classic RK4 off the floor) ----

    /// The nested-`Vec` field built from the public pieces alone — link sums
    /// in ascending path order, [`FluidLink::price`], [`CcModel::dxdt`] —
    /// allocating as it goes: what the flat solver's `field` must reproduce
    /// bit for bit.
    fn reference_field(net: &FluidNet, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut y = vec![0.0; net.links.len()];
        for (flow, xf) in net.flows.iter().zip(x) {
            for (path, &xr) in flow.paths.iter().zip(xf) {
                for &l in &path.links {
                    y[l] += xr;
                }
            }
        }
        let prices: Vec<f64> = net.links.iter().zip(&y).map(|(l, &yl)| l.price(yl)).collect();
        net.flows
            .iter()
            .enumerate()
            .map(|(f, flow)| {
                let rtts: Vec<f64> = flow.paths.iter().map(|p| p.rtt).collect();
                let bases: Vec<f64> = flow.paths.iter().map(|p| p.base_rtt).collect();
                let view = FlowView { x: &x[f], rtt: &rtts, base_rtt: &bases };
                flow.paths
                    .iter()
                    .enumerate()
                    .map(|(p, path)| {
                        let lambda: f64 = path.links.iter().map(|&l| prices[l]).sum();
                        flow.model.dxdt(p, &view, lambda)
                    })
                    .collect()
            })
            .collect()
    }

    /// The pre-refactor nested-`Vec` integrator, kept as the reference for
    /// byte-identity: the stage floor applied inside `add`. The
    /// constant-extension field is provably the same map (`F(clamp(s))` vs
    /// `clamp` inside `add`), so the flat solver must reproduce it bit for
    /// bit.
    fn reference_rk4_step(net: &FluidNet, x: &[Vec<f64>], dt: f64) -> Vec<Vec<f64>> {
        let deriv = |x: &[Vec<f64>]| reference_field(net, x);
        let add = |a: &[Vec<f64>], b: &[Vec<f64>], s: f64| -> Vec<Vec<f64>> {
            a.iter()
                .zip(b)
                .map(|(ar, br)| {
                    ar.iter().zip(br).map(|(&av, &bv)| (av + s * bv).max(X_MIN)).collect()
                })
                .collect()
        };
        let k1 = deriv(x);
        let k2 = deriv(&add(x, &k1, dt / 2.0));
        let k3 = deriv(&add(x, &k2, dt / 2.0));
        let k4 = deriv(&add(x, &k3, dt));
        x.iter()
            .enumerate()
            .map(|(f, xr)| {
                xr.iter()
                    .enumerate()
                    .map(|(p, &v)| {
                        let d = (k1[f][p] + 2.0 * k2[f][p] + 2.0 * k3[f][p] + k4[f][p]) / 6.0;
                        (v + dt * d).max(X_MIN)
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_bits_eq(flat: &[f64], nested: &[Vec<f64>], step: usize) {
        for (va, vb) in flat.iter().zip(nested.concat()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "step {step}: {va} vs {vb}");
        }
    }

    #[test]
    fn off_floor_trajectory_is_byte_identical_to_classic_rk4() {
        // Off the floor (all stage states ≥ X_MIN, prices < 1) the flat
        // solver, the constant extension, and the pre-fix integrator are the
        // same classic RK4, bit for bit.
        let net =
            disjoint_paths_net(CcModel::loss_based(Psi::Olia), &[1000.0, 2000.0], &[0.1, 0.05]);
        let mut solver = FluidSolver::from_flat_state(&net, &[10.0, 10.0]);
        let mut reference = vec![vec![10.0, 10.0]];
        for step in 0..5_000 {
            solver.step(1e-3);
            reference = reference_rk4_step(&net, &reference, 1e-3);
            assert_bits_eq(solver.x(), &reference, step);
        }
    }

    #[test]
    fn near_floor_trajectory_is_byte_identical_to_reference() {
        // The starved path rides the X_MIN floor: the constant extension
        // still reproduces the reference map bit for bit, because
        // F̃(s) = F(max(s, X_MIN)) is exactly what the stage clamp computed.
        let net =
            disjoint_paths_net(CcModel::loss_based(Psi::Olia), &[10.0, 10000.0], &[1.0, 0.01]);
        let mut solver = FluidSolver::from_flat_state(&net, &[5.0, 5.0]);
        let mut reference = vec![vec![5.0, 5.0]];
        for step in 0..5_000 {
            solver.step(1e-3);
            reference = reference_rk4_step(&net, &reference, 1e-3);
            assert_bits_eq(solver.x(), &reference, step);
        }
        assert!(solver.x().iter().all(|&v| v >= X_MIN));
    }

    // ---- calibrated links (hybrid handoff support) ----

    #[test]
    fn calibrated_link_puts_reno_fixed_point_at_target_utilization() {
        let cap = 8000.0; // ≈100 Mb/s of 1500 B packets
        let rtt = 0.02;
        let util = 0.9;
        let mut net = FluidNet::new();
        let l = net.add_link(FluidLink::calibrated(cap, rtt, util));
        net.add_flow(FluidFlow {
            model: CcModel::loss_based(Psi::Olia),
            paths: vec![FluidPath::new(vec![l], rtt)],
        });
        let x = solved(&net, &[100.0], 1e-5, 1e-9, 4_000_000).x()[0];
        let target = util * cap;
        assert!((x - target).abs() / target < 0.01, "x* = {x}, want {target}");
    }

    // ---- the compiled kernel against the public, nested spelling ----

    #[test]
    fn squared_price_curve_is_within_4_ulp_of_powf() {
        // B = 4 as two squarings rounds three times where libm's `powf`
        // rounds once; the curves may differ in the last bits, never more.
        for link in [FluidLink::new(1000.0), FluidLink::calibrated(8333.0, 0.0042, 0.9)] {
            let r_cap = (1.0 / link.p0).powf(0.25);
            for i in 0..200_000 {
                // Log-uniform over y/c ∈ [10⁻³, 3.16] (clipped below the cap).
                let r = (1e-3 * 3160f64.powf(f64::from(i) / 2e5)).min(0.999 * r_cap);
                let y = r * link.capacity;
                let libm = link.p0 * (y / link.capacity).powf(4.0);
                let ulps = link.price(y).to_bits().abs_diff(libm.to_bits());
                assert!(ulps <= 4, "y/c = {r}: {ulps} ulp from powf");
            }
        }
    }

    /// One path of a generated net: link picks (reduced modulo the link
    /// count), RTT, `base_rtt / rtt`, initial rate.
    type PathSpec = (Vec<usize>, f64, f64, f64);

    /// 2–4 flows of 1–4 paths; RTTs log-uniform over 100 µs–500 ms with
    /// `base ≤ rtt`; rates 1–10⁴.
    fn flows_strategy() -> impl Strategy<Value = Vec<Vec<PathSpec>>> {
        let rtt = (-4.0f64..-0.301).prop_map(|e| 10f64.powf(e));
        let path = (proptest::collection::vec(0usize..60, 1..4), rtt, 0.05f64..1.0, 1.0f64..1e4);
        proptest::collection::vec(proptest::collection::vec(path, 1..5), 2..5)
    }

    /// 3–6 shared links, standard or calibrated, sized so that generated
    /// loads land on both sides of the probability cap.
    fn links_strategy() -> impl Strategy<Value = Vec<FluidLink>> {
        let link = (50.0f64..2e4, any::<bool>()).prop_map(|(cap, calibrated)| {
            if calibrated {
                FluidLink::calibrated(cap, 0.01, 0.9)
            } else {
                FluidLink::new(cap)
            }
        });
        proptest::collection::vec(link, 3..7)
    }

    fn generated_net(
        model: CcModel,
        links: &[FluidLink],
        flows: &[Vec<PathSpec>],
    ) -> (FluidNet, Vec<Vec<f64>>) {
        let mut net = FluidNet { links: links.to_vec(), flows: Vec::new() };
        for specs in flows {
            let paths = specs
                .iter()
                .map(|(picks, rtt, base_frac, _)| FluidPath {
                    links: picks.iter().map(|l| l % links.len()).collect(),
                    rtt: *rtt,
                    base_rtt: rtt * base_frac,
                })
                .collect();
            net.add_flow(FluidFlow { model, paths });
        }
        let x0 = flows.iter().map(|specs| specs.iter().map(|s| s.3).collect()).collect();
        (net, x0)
    }

    /// All seven ψ under both φ.
    fn every_model() -> Vec<CcModel> {
        let phi = DtsPhiConfig::default();
        let psis = [
            Psi::Ewtcp,
            Psi::Coupled,
            Psi::Lia,
            Psi::Olia,
            Psi::Balia,
            Psi::EcMtcp,
            Psi::Dts(phi.dts),
        ];
        let phis = [Phi::Zero, Phi::EnergyPrice(phi)];
        psis.iter()
            .flat_map(|&psi| phis.iter().map(move |&phi| CcModel { psi, beta: 0.5, phi }))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The hoists (per-path constants, per-flow sums, `u32` CSR) change
        /// no bit of the field or of 200 RK4 steps, for any ψ and φ.
        #[test]
        fn flat_solver_equals_the_nested_reference_for_every_model(
            links in links_strategy(),
            flows in flows_strategy(),
        ) {
            for model in every_model() {
                let (net, x0) = generated_net(model, &links, &flows);
                let mut solver = FluidSolver::from_flat_state(&net, &x0.concat());
                let mut out = vec![0.0; solver.x().len()];
                let FluidSolver { topo, ws, x, price_cap_hits } = &mut solver;
                topo.field(x, &mut ws.xc, &mut ws.y, &mut ws.prices, &mut out, price_cap_hits);
                let want = reference_field(&net, &x0).concat();
                for (p, (got, want)) in out.iter().zip(&want).enumerate() {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} path {}", model, p);
                }
                let mut reference = x0;
                for step in 0..200 {
                    solver.step(1e-5);
                    reference = reference_rk4_step(&net, &reference, 1e-5);
                    assert_bits_eq(solver.x(), &reference, step);
                }
            }
        }
    }
}
