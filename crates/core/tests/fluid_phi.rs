//! Fluid-level validation of the DTS-Φ price (Equation (9)): the φ term must
//! lower the equilibrium rate relative to plain DTS, proportionally to κ,
//! and stepping the solver must show the transient settle.

use mptcp_energy::{
    disjoint_paths_net, CcModel, DtsConfig, DtsPhiConfig, FluidFlow, FluidLink, FluidNet,
    FluidPath, FluidSolver,
};

fn phi_cfg(kappa: f64) -> DtsPhiConfig {
    DtsPhiConfig { kappa, rho: 1.0, queue_target_s: 0.005, ..DtsPhiConfig::default() }
}

/// Solves `net` from the flat state `x0` at `dt = 5e-4`, asserting
/// convergence.
fn equilibrium(net: &FluidNet, x0: &[f64]) -> FluidSolver {
    let mut solver = FluidSolver::from_flat_state(net, x0);
    if let Err(miss) = solver.solve_equilibrium(5e-4, 1e-8, 2_000_000) {
        panic!("no equilibrium: {miss:?} at x = {:?}", solver.x());
    }
    solver
}

fn equilibrium_total(model: CcModel) -> f64 {
    let net = disjoint_paths_net(model, &[2000.0, 2000.0], &[0.05, 0.05]);
    equilibrium(&net, &[10.0, 10.0]).x().iter().sum()
}

#[test]
fn phi_price_lowers_equilibrium_rate_monotonically_in_kappa() {
    let dts = equilibrium_total(CcModel::dts(DtsConfig::default()));
    let weak = equilibrium_total(CcModel::dts_phi(phi_cfg(1e-6)));
    let strong = equilibrium_total(CcModel::dts_phi(phi_cfg(1e-4)));
    assert!(weak <= dts * 1.001, "weak phi {weak} vs dts {dts}");
    assert!(strong < weak, "stronger kappa must price rate down: {strong} vs {weak}");
    assert!(strong > 0.2 * dts, "the price must not collapse the flow");
}

#[test]
fn trajectory_records_transient_and_converges() {
    let net =
        disjoint_paths_net(CcModel::dts(DtsConfig::default()), &[1000.0, 1000.0], &[0.05, 0.05]);
    let mut solver = FluidSolver::from_flat_state(&net, &[5.0, 5.0]);
    // The aggregate every 10 000 steps of 1 ms, over 200 s.
    let mut totals = vec![solver.x().iter().sum::<f64>()];
    for _ in 0..20 {
        solver.run(1e-3, 10_000);
        totals.push(solver.x().iter().sum());
    }
    let (first, prev, last) = (totals[0], totals[19], totals[20]);
    assert!(last > first, "flow should grow from a cold start");
    // The tail of the trajectory is near-stationary.
    assert!((last - prev).abs() / last < 0.05, "tail not settled: {prev} -> {last}");
}

#[test]
fn shared_bottleneck_with_price_yields_to_unpriced_flow() {
    // Two DTS flows share one link; one carries the energy price. At
    // equilibrium the priced flow takes the smaller share — the φ tradeoff
    // the paper's Fig. 17 measures.
    let mut net = FluidNet::new();
    let l = net.add_link(FluidLink::new(2000.0));
    net.add_flow(FluidFlow {
        model: CcModel::dts(DtsConfig::default()),
        paths: vec![FluidPath::new(vec![l], 0.05)],
    });
    net.add_flow(FluidFlow {
        model: CcModel::dts_phi(phi_cfg(5e-5)),
        paths: vec![FluidPath::new(vec![l], 0.05)],
    });
    let solver = equilibrium(&net, &[100.0, 100.0]);
    let x = solver.x();
    assert!(x[1] < x[0], "priced flow {} should yield to unpriced {}", x[1], x[0]);
    assert!(x[1] > 0.05 * x[0], "but not starve");
}
