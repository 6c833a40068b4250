//! # workload — traffic generation
//!
//! Background and foreground traffic patterns for the paper's scenarios:
//!
//! * [`cbr::CbrSource`] — constant-bit-rate filler (iperf-style);
//! * [`pareto::ParetoOnOff`] — the Fig. 5(b) bursty cross-traffic: Pareto
//!   bursts at 45 Mb/s, 5 s mean duration, 10 s mean gaps;
//! * [`permutation::permutation_pairs`] — random permutation traffic
//!   matrices for the datacenter experiments;
//! * [`shortflows`] — Poisson short-flow (mice) schedules, after the DC
//!   traffic characteristics of Benson et al. (IMC 2010);
//! * [`sink::Sink`] — terminal counter for raw traffic.
//!
//! Bulk and long-lived TCP/MPTCP flows come from the `transport` crate; this
//! crate only generates non-congestion-controlled load.
//!
//! # Examples
//!
//! ```
//! use netsim::prelude::*;
//! use workload::{attach_cbr, Sink};
//!
//! let mut sim = Simulator::new(1);
//! let l = sim.add_link(LinkConfig::new(10_000_000, SimDuration::ZERO));
//! let (_src, sink) = attach_cbr(&mut sim, vec![l], 1_000_000, 1250, SimDuration::ZERO);
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! assert!(sim.agent::<Sink>(sink).pkts > 90);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cbr;
pub mod pareto;
pub mod permutation;
pub mod shortflows;
pub mod sink;

pub use cbr::{attach_cbr, CbrSource};
pub use pareto::{
    attach_pareto_cross_traffic, exp_sample, pareto_sample, ParetoOnOff, ParetoOnOffConfig,
};
pub use permutation::permutation_pairs;
pub use shortflows::{short_flow_schedule, ShortFlow, ShortFlowConfig};
pub use sink::Sink;
