//! # mptcp-energy — energy-efficient congestion control for Multipath TCP
//!
//! A full reproduction of Zhao, Liu & Wang, *On Energy-Efficient Congestion
//! Control for Multipath TCP* (IEEE ICDCS 2017), built over from-scratch
//! Rust substrates (packet-level simulator, MPTCP stack, power models,
//! datacenter topologies — see the `netsim`, `transport`, `congestion`,
//! `energy-model`, `topology` and `workload` crates).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`model`] — the general congestion-control model of Equation (3) and
//!   the §IV per-algorithm decompositions of the traffic-shifting parameter
//!   `ψ_r`;
//! * [`conditions`] — numeric checkers for Condition 1 (TCP-friendliness)
//!   and the Pareto-efficiency test behind Condition 2;
//! * [`dts`] — **DTS**, Delay-based Traffic Shifting, and **DTS-Φ**, its
//!   §V-C extension with the energy-proportional compensative price of
//!   Equations (6)–(9): one per-ACK controller that reads the Equation-(5)
//!   sigmoid and the price gradient from its [`model`] instance, with
//!   Algorithm 1's kernel fixed-point sigmoid as the one packet-only rule;
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
pub mod dts;
pub mod fluid;
pub mod hybrid;
pub mod model;
pub mod path_select;
pub mod scenarios;
pub mod stats;

pub use conditions::{check_condition1, friendliness_ratio, pareto_efficiency};
pub use dts::{epsilon_exact, epsilon_fixed_point, Dts, DtsConfig};
pub use fluid::{
    disjoint_paths_net, EquilibriumInfo, FluidFlow, FluidLink, FluidNet, FluidPath, FluidSolver,
};
pub use hybrid::{fluid_model_of, HybridConfig, HybridCounters, HybridEngine};
pub use model::{CcModel, DtsPhiConfig, FlowView, Phi, Psi};
pub use path_select::{run_wireless_with_policy, select_paths, PathPolicy};
pub use scenarios::CcChoice;
pub use stats::{mean, std_dev, FiveNumber};
