//! Tier-1's view of the `congestion::model` ↔ `core::fluid` ↔ `core::hybrid`
//! boundary. `cargo test -q` runs the root package only, so the crate-level
//! oracles (`fluid.rs`'s proptest over every ψ and φ, `hybrid_validation`)
//! do not gate a merge; this is their smoke at a small case count.
//!
//! The flat solver integrates a kernel compiled from each path's
//! `(rtt, base_rtt)`; the public `CcModel::dxdt` and `FluidLink::price` are
//! the same equation spelled a path at a time. They must agree bit for bit.

use congestion::AlgorithmKind;
use energy_model::WiredCpuModel;
use mptcp_energy::fluid::{FluidFlow, FluidLink, FluidNet, FluidPath, FluidSolver, X_MIN};
use mptcp_energy::hybrid::{HybridConfig, HybridEngine};
use mptcp_energy::{CcChoice, CcModel, DtsPhiConfig, FlowView, Phi, Psi};
use netsim::{LinkConfig, SimDuration, Simulator};
use proptest::prelude::*;
use transport::{FlowConfig, PathSpec};

/// `dx/dt` of every path from the public, nested API alone; link loads are
/// summed here, in ascending path order, not read from the solver.
fn nested_field(net: &FluidNet, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
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
        .zip(x)
        .map(|(flow, xf)| {
            let rtt: Vec<f64> = flow.paths.iter().map(|p| p.rtt).collect();
            let base: Vec<f64> = flow.paths.iter().map(|p| p.base_rtt).collect();
            let view = FlowView { x: xf, rtt: &rtt, base_rtt: &base };
            (0..xf.len())
                .map(|r| {
                    let lambda: f64 = flow.paths[r].links.iter().map(|&l| prices[l]).sum();
                    flow.model.dxdt(r, &view, lambda)
                })
                .collect()
        })
        .collect()
}

/// One classic RK4 step over [`nested_field`], stages floored at `X_MIN`.
fn nested_rk4_step(net: &FluidNet, x: &[Vec<f64>], dt: f64) -> Vec<Vec<f64>> {
    let stage = |k: &[Vec<f64>], s: f64| -> Vec<Vec<f64>> {
        let row = |xr: &Vec<f64>, kr: &Vec<f64>| {
            xr.iter().zip(kr).map(|(&v, &d)| (v + s * d).max(X_MIN)).collect()
        };
        x.iter().zip(k).map(|(xr, kr)| row(xr, kr)).collect()
    };
    let k1 = nested_field(net, x);
    let k2 = nested_field(net, &stage(&k1, dt / 2.0));
    let k3 = nested_field(net, &stage(&k2, dt / 2.0));
    let k4 = nested_field(net, &stage(&k3, dt));
    let mut next = x.to_vec();
    for (f, row) in next.iter_mut().enumerate() {
        for (p, v) in row.iter_mut().enumerate() {
            let d = (k1[f][p] + 2.0 * k2[f][p] + 2.0 * k3[f][p] + k4[f][p]) / 6.0;
            *v = (*v + dt * d).max(X_MIN);
        }
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 2–4 flows of 1–4 paths over 3–6 shared links, every ψ under both φ:
    /// 40 steps of the flat solver equal the nested reference bit for bit.
    /// A path is drawn as (link picks modulo the link count, RTT,
    /// `base_rtt / rtt`, initial rate).
    #[test]
    fn flat_solver_integrates_what_dxdt_and_price_spell(
        caps in proptest::collection::vec(50.0f64..2e4, 3..7),
        flows in proptest::collection::vec(
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..60, 1..4),
                    (-4.0f64..-0.301).prop_map(|e| 10f64.powf(e)),
                    0.05f64..1.0,
                    1.0f64..1e4,
                ),
                1..5,
            ),
            2..5,
        ),
    ) {
        let phi = DtsPhiConfig::default();
        let psis =
            [Psi::Ewtcp, Psi::Coupled, Psi::Lia, Psi::Olia, Psi::Balia, Psi::EcMtcp, Psi::Dts(phi.dts)];
        for psi in psis {
            for phi in [Phi::Zero, Phi::EnergyPrice(phi)] {
                let model = CcModel { psi, beta: 0.5, phi };
                let mut net = FluidNet::new();
                for (i, &cap) in caps.iter().enumerate() {
                    net.add_link(if i % 2 == 0 {
                        FluidLink::new(cap)
                    } else {
                        FluidLink::calibrated(cap, 0.01, 0.9)
                    });
                }
                for draws in &flows {
                    let paths = draws
                        .iter()
                        .map(|(picks, rtt, base_frac, _)| FluidPath {
                            links: picks.iter().map(|l| l % caps.len()).collect(),
                            rtt: *rtt,
                            base_rtt: rtt * base_frac,
                        })
                        .collect();
                    net.add_flow(FluidFlow { model, paths });
                }
                let mut reference: Vec<Vec<f64>> =
                    flows.iter().map(|draws| draws.iter().map(|d| d.3).collect()).collect();
                let mut solver = FluidSolver::from_flat_state(&net, &reference.concat());
                for step in 0..40 {
                    solver.step(1e-5);
                    reference = nested_rk4_step(&net, &reference, 1e-5);
                    let got: Vec<u64> = solver.x().iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = reference.concat().iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(got, want, "{:?}, step {}", model, step);
                }
            }
        }
    }
}

/// Three epochs of the hybrid engine — DTS-Φ fluid flow, LIA packet flow
/// handed off after the first epoch — repeat bit for bit.
#[test]
fn hybrid_epochs_repeat_bit_for_bit() {
    let run = || {
        let mut sim = Simulator::new(11);
        // Two disjoint bidirectional paths: links 0/1 (fwd/rev) and 2/3.
        for _ in 0..4 {
            sim.add_link(LinkConfig::new(10_000_000, SimDuration::from_millis(5)).queue_limit(64));
        }
        let paths = [PathSpec::new(vec![0], vec![1]), PathSpec::new(vec![2], vec![3])];
        let cfg =
            HybridConfig { epoch_s: 0.1, fluid_dt: 1e-3, handoff_age_s: 0.1, calib_rtt_s: 0.012 };
        let mut eng = HybridEngine::new(sim, 2, WiredCpuModel::energy_proportional_server(), cfg);
        eng.add_fluid_flow(CcModel::dts_phi(DtsPhiConfig::default()), &paths, 10.0, 0);
        eng.add_packet_flow_from(
            FlowConfig::new(0).min_rto(SimDuration::from_millis(10)),
            &CcChoice::Base(AlgorithmKind::Lia),
            &paths,
            SimDuration::ZERO,
            0,
        );
        eng.run_epochs(3);
        let rates: Vec<u64> = eng.fluid_rates().iter().map(|x| x.to_bits()).collect();
        (eng.energy_joules().to_bits(), eng.delivered_bits().to_bits(), rates, eng.counters())
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert_eq!(a.3.handoffs, 1, "the packet flow crossed into the fluid regime: {:?}", a.3);
    assert_eq!(a.2.len(), 4, "two paths of the fluid flow, two of the handed-off one");
}
