//! # energy-model — power and energy accounting for multipath transport
//!
//! The measurement substrate of the reproduction. The paper reads Intel RAPL
//! counters and phone batteries; this crate provides parametric power models
//! whose *shapes* are calibrated to the paper's §III findings, plus the
//! integration machinery that turns transport telemetry into joules:
//!
//! * [`cpu::WiredCpuModel`] — concave CPU-power-vs-throughput with RTT and
//!   subflow-count sensitivity (Figs. 1, 3a, 4);
//! * [`radio::WifiModel`], [`radio::LteModel`], [`radio::PhoneModel`] —
//!   linear radio power with the LTE RRC promotion/tail machine
//!   (Figs. 2, 3b), after Huang et al. (MobiSys 2012);
//! * [`meter::energy_of_flow`] — integrates any [`PowerModel`] over a
//!   flow's load series, implementing the paper's Equation (2).
//!
//! # Examples
//!
//! ```
//! use energy_model::{PowerModel, WiredCpuModel};
//! use transport::SubflowSample;
//!
//! let mut cpu = WiredCpuModel::i7_3770();
//! let load = SubflowSample { throughput_bps: 200e6, srtt_s: 0.02, base_rtt_s: 0.02, active: true };
//! let one_path = cpu.power_w(0.0, &[load]);
//! let idle = cpu.power_w(0.0, &[]);
//! assert!(one_path > idle);
//! ```

pub mod cpu;
pub mod load;
pub mod meter;
pub mod radio;

pub use cpu::WiredCpuModel;
pub use load::PowerModel;
pub use meter::{energy_of_flow, EnergyReport};
pub use radio::{LteModel, PhoneModel, RrcState, WifiModel};
