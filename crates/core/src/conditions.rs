//! Numeric checkers for the paper's §V design conditions.
//!
//! * **Condition 1 (TCP-friendliness):** at equilibrium, on the best path
//!   `h = argmax_k x_k*`, the parameters satisfy `ψ_h ≤ 1`, `β_h = ½`,
//!   `φ_h = 0` — then the MPTCP aggregate `√(2ψ_h/λ_h)/RTT_h` never exceeds
//!   a single TCP's `√(2/λ_h)/RTT_h` on that path.
//! * **Condition 2 (Pareto optimality):** the increase rate matches the
//!   gradient of a concave utility at the welfare maximizer. We check it
//!   operationally: an algorithm's equilibrium aggregate should not be
//!   improvable without hurting others — measured as the gap to the OLIA
//!   (`ψ = 1`, provably Pareto-optimal) reference on the same network.

use crate::fluid::{
    disjoint_paths_net, EquilibriumInfo, FluidFlow, FluidLink, FluidNet, FluidPath, FluidSolver,
};
use congestion::model::{CcModel, FlowView, Psi};

/// A violation of Condition 1, describing which clause failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition1Violation {
    /// `ψ_h > 1` on the best path.
    PsiTooLarge {
        /// Best-path index.
        path: usize,
        /// Observed ψ value.
        psi: f64,
    },
    /// `β ≠ ½`.
    BetaNotHalf {
        /// Observed β.
        beta: f64,
    },
    /// `φ_h ≠ 0` on the best path.
    PhiNonZero {
        /// Best-path index.
        path: usize,
        /// Observed φ value.
        phi: f64,
    },
}

impl std::fmt::Display for Condition1Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Condition1Violation::PsiTooLarge { path, psi } => {
                write!(f, "psi on best path {path} is {psi} > 1")
            }
            Condition1Violation::BetaNotHalf { beta } => write!(f, "beta is {beta}, not 1/2"),
            Condition1Violation::PhiNonZero { path, phi } => {
                write!(f, "phi on best path {path} is {phi}, not 0")
            }
        }
    }
}

/// Checks the paper's Condition 1 at an equilibrium state.
pub fn check_condition1(
    model: &CcModel,
    view: &FlowView<'_>,
    tol: f64,
) -> Result<(), Condition1Violation> {
    // total_cmp gives NaN a fixed position in the order instead of panicking
    // on incomparable rates; a flow with zero paths has no best path, so the
    // check vacuously passes.
    let Some(h) = (0..view.n()).max_by(|&a, &b| view.x[a].total_cmp(&view.x[b])) else {
        return Ok(());
    };
    if (model.beta - 0.5).abs() > tol {
        return Err(Condition1Violation::BetaNotHalf { beta: model.beta });
    }
    let psi = model.psi.eval(h, view);
    if psi > 1.0 + tol {
        return Err(Condition1Violation::PsiTooLarge { path: h, psi });
    }
    let phi = model.phi.eval(h, view);
    if phi.abs() > tol {
        return Err(Condition1Violation::PhiNonZero { path: h, phi });
    }
    Ok(())
}

/// Solves a one-flow `net` to equilibrium from 10 packets/s on every path,
/// returning the flow's aggregate rate.
fn equilibrium_total(net: &FluidNet) -> Result<f64, EquilibriumInfo> {
    let n_paths = net.flows.iter().map(|f| f.paths.len()).sum();
    let mut solver = FluidSolver::from_flat_state(net, &vec![10.0; n_paths]);
    solver.solve_equilibrium(1e-3, 1e-8, 2_000_000)?;
    Ok(solver.x().iter().sum())
}

/// The fluid-equilibrium aggregate throughput of `model` over disjoint equal
/// paths, normalized by the OLIA (Pareto-optimal) reference on the same
/// network. Values near 1 mean the algorithm extracts the Pareto-efficient
/// allocation; materially below 1 means it leaves throughput on the table
/// (the inefficiency the paper's Fig. 6 converts into wasted energy).
///
/// # Errors
/// The first equilibrium solve that misses its tolerance.
pub fn pareto_efficiency(
    model: CcModel,
    caps: &[f64],
    rtts: &[f64],
) -> Result<f64, EquilibriumInfo> {
    let total = |m| equilibrium_total(&disjoint_paths_net(m, caps, rtts));
    let reference = total(CcModel::loss_based(Psi::Olia))?;
    Ok(total(model)? / reference)
}

/// Aggregate-vs-best-path-TCP friendliness ratio at fluid equilibrium:
/// ≤ 1 means the multipath flow takes no more than one TCP on its best path
/// *would get alone* on that path — the operational form of Condition 1
/// (single shared-bottleneck case).
///
/// # Errors
/// The first equilibrium solve that misses its tolerance.
pub fn friendliness_ratio(
    model: CcModel,
    cap: f64,
    rtt: f64,
    n_paths: usize,
) -> Result<f64, EquilibriumInfo> {
    // n paths crossing ONE shared bottleneck.
    let mut net = FluidNet::new();
    let l = net.add_link(FluidLink::new(cap));
    net.add_flow(FluidFlow {
        model,
        paths: (0..n_paths).map(|_| FluidPath::new(vec![l], rtt)).collect(),
    });
    let multi = equilibrium_total(&net)?;
    let single_net = disjoint_paths_net(CcModel::loss_based(Psi::Olia), &[cap], &[rtt]);
    let single = equilibrium_total(&single_net)?;
    Ok(multi / single)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::model::{DtsConfig, DtsPhiConfig};

    fn sym_view<'a>(x: &'a [f64], rtt: &'a [f64]) -> FlowView<'a> {
        FlowView { x, rtt, base_rtt: rtt }
    }

    #[test]
    fn baselines_satisfy_condition1_at_symmetric_equilibrium() {
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.1];
        let v = sym_view(&x, &rtt);
        for psi in [Psi::Coupled, Psi::Lia, Psi::Olia, Psi::Balia, Psi::EcMtcp] {
            let m = CcModel::loss_based(psi);
            assert!(check_condition1(&m, &v, 1e-6).is_ok(), "{psi:?}");
        }
    }

    #[test]
    fn ewtcp_violates_condition1() {
        // EWTCP's ψ = (Σx)²/(x²√n) = 4/√2 > 1 on equal paths: it is NOT
        // TCP-friendly in the coupled sense (known result the paper uses).
        let x = [100.0, 100.0];
        let rtt = [0.1, 0.1];
        let m = CcModel::loss_based(Psi::Ewtcp);
        let err = check_condition1(&m, &sym_view(&x, &rtt), 1e-6).unwrap_err();
        assert!(matches!(err, Condition1Violation::PsiTooLarge { .. }));
    }

    #[test]
    fn dts_at_expected_ratio_satisfies_condition1() {
        // At the design point baseRTT/RTT = ½, ε = 1, so ψ = c·ε = 1.
        let x = [100.0, 90.0];
        let rtt = [0.1, 0.1];
        let base = [0.05, 0.05];
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
        let m = CcModel::dts(DtsConfig::default());
        assert!(check_condition1(&m, &v, 1e-6).is_ok());
    }

    #[test]
    fn dts_phi_fails_phi_clause_by_design() {
        // The §V-C extension deliberately trades Condition 1's φ = 0 for the
        // energy price — the paper's own throughput/energy tradeoff. At the
        // design-point ratio (baseRTT/RTT = ½) ψ = 1, so the φ clause is
        // what fails.
        let x = [100.0, 90.0];
        let rtt = [0.1, 0.1];
        let base = [0.05, 0.05];
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
        let m = CcModel::dts_phi(DtsPhiConfig::default());
        let err = check_condition1(&m, &v, 1e-9).unwrap_err();
        assert!(matches!(err, Condition1Violation::PhiNonZero { .. }));
    }

    #[test]
    fn olia_pareto_efficiency_is_one_by_definition() {
        let eff = pareto_efficiency(CcModel::loss_based(Psi::Olia), &[500.0, 500.0], &[0.1, 0.1])
            .expect("both solves converge");
        assert!((eff - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lia_leaves_throughput_on_the_table() {
        // The paper (after Khalili et al.): LIA is not Pareto-optimal; OLIA
        // extracts at least as much.
        let eff = pareto_efficiency(CcModel::loss_based(Psi::Lia), &[500.0, 500.0], &[0.1, 0.1])
            .expect("both solves converge");
        assert!(eff <= 1.0 + 1e-6, "LIA efficiency {eff}");
    }

    #[test]
    fn friendliness_ratio_bounded_for_friendly_algorithms() {
        for psi in [Psi::Lia, Psi::Olia, Psi::Balia] {
            let ratio = friendliness_ratio(CcModel::loss_based(psi), 1000.0, 0.1, 2)
                .expect("both solves converge");
            assert!(ratio < 1.15, "{psi:?} aggregate {ratio} should not exceed one TCP by much");
        }
    }
}
