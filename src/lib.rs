//! # mptcp-energy-repro — umbrella crate
//!
//! Re-exports every layer of the reproduction of *On Energy-Efficient
//! Congestion Control for Multipath TCP* (ICDCS 2017): a library, with no
//! binary, for the runnable examples and cross-crate integration tests.
//!
//! * [`netsim`] — deterministic discrete-event network simulator;
//! * [`transport`] — packet-level TCP / MPTCP stack;
//! * [`congestion`] — LIA, OLIA, Balia, ecMTCP, wVegas, DWC, EWTCP,
//!   Coupled, Reno, DCTCP;
//! * [`energy`] — CPU and radio power models, energy integration;
//! * [`topology`] — FatTree, VL2, BCube, EC2 VPC, testbed scenarios;
//! * [`workload`] — Pareto bursts, CBR, permutation traffic;
//! * [`paper`] — the paper's contribution: the Equation-(3) model, DTS,
//!   DTS-Φ, fluid solver, conditions, scenario runners;
//! * [`obs`] — structured trace events, sinks (JSONL, ring, filter), and
//!   the counter registry (DESIGN.md §9).

pub use congestion;
pub use energy_model as energy;
pub use mptcp_energy as paper;
pub use netsim;
pub use obs;
pub use topology;
pub use transport;
pub use workload;
