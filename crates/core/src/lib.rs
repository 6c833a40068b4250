//! # mptcp-energy — energy-efficient congestion control for Multipath TCP
//!
//! A full reproduction of Zhao, Liu & Wang, *On Energy-Efficient Congestion
//! Control for Multipath TCP* (IEEE ICDCS 2017), built over from-scratch
//! Rust substrates (packet-level simulator, MPTCP stack, power models,
//! datacenter topologies — see the `netsim`, `transport`, `congestion`,
//! `energy-model`, `topology` and `workload` crates).
//!
//! The paper's model lives one layer down, in `congestion`, beside the
//! controllers that run it: [`model`] (re-exported from `congestion::model`)
//! is the general congestion-control model of Equation (3), the §IV
//! per-algorithm decompositions of the traffic-shifting parameter `ψ_r`,
//! and the paper's own rows — **DTS**, Delay-based Traffic Shifting, with
//! its Equation-(5) sigmoid, and **DTS-Φ**, its §V-C extension with the
//! energy-proportional compensative price of Equations (6)–(9). One packet
//! controller, `congestion::ModelCc`, is the per-ACK form of every row that
//! has one; [`CcChoice::build`] makes it for DTS and DTS-Φ.
//!
//! This crate is what the paper does with that model:
//!
//! * [`conditions`] — numeric checkers for Condition 1 (TCP-friendliness)
//!   and the Pareto-efficiency test behind Condition 2;
//! * [`fluid`] — an RK4 fluid solver for networks of Equation-(3) flows;
//! * [`scenarios`] — the paper's evaluation scenarios (Figs. 6–17) as
//!   deterministic, seedable experiment runners;
//! * [`stats`] — box-whisker summaries matching the paper's reporting.
//!
//! # Examples
//!
//! Compare LIA and DTS on the paper's bursty two-path scenario:
//!
//! ```no_run
//! use mptcp_energy::scenarios::{run_two_path_bursty, BurstyOptions, CcChoice};
//! use congestion::AlgorithmKind;
//!
//! let opts = BurstyOptions { duration_s: 30.0, ..BurstyOptions::default() };
//! let lia = run_two_path_bursty(&CcChoice::Base(AlgorithmKind::Lia), &opts);
//! let dts = run_two_path_bursty(&CcChoice::dts(), &opts);
//! println!("LIA: {:.1} J, DTS: {:.1} J", lia.energy.joules, dts.energy.joules);
//! ```

pub mod conditions;
pub mod fluid;
pub mod hybrid;
pub mod path_select;
pub mod scenarios;
pub mod stats;

pub use conditions::{check_condition1, friendliness_ratio, pareto_efficiency};
pub use congestion::model;
pub use congestion::model::{
    epsilon_exact, epsilon_fixed_point, CcModel, DtsConfig, DtsPhiConfig, FlowView, Phi, Psi,
};
pub use fluid::{
    disjoint_paths_net, EquilibriumInfo, FluidFlow, FluidLink, FluidNet, FluidPath, FluidSolver,
};
pub use hybrid::{fluid_model_of, HybridConfig, HybridCounters, HybridEngine};
pub use path_select::{run_wireless_with_policy, select_paths, PathPolicy};
pub use scenarios::CcChoice;
pub use stats::{mean, std_dev, FiveNumber};
