//! # transport — a packet-level TCP / Multipath TCP stack
//!
//! The protocol substrate for the MPTCP energy reproduction, built from
//! scratch over the [`netsim`] simulator (the paper used the MPTCP Linux
//! kernel v0.90; this crate reimplements the pieces of it the evaluation
//! exercises):
//!
//! * per-subflow TCP with slow start, congestion avoidance via a pluggable
//!   [`congestion::MultipathCongestionControl`], NewReno fast retransmit /
//!   fast recovery, and RFC 6298 RTO with exponential backoff
//!   ([`sender::MptcpSender`]);
//! * connection-level 64-bit data sequencing with a bounded reorder buffer
//!   and receive-window advertisement ([`receiver::MptcpReceiver`]);
//! * a lowest-SRTT packet scheduler (the kernel default);
//! * periodic per-subflow telemetry ([`sample::FlowSample`]) that the
//!   `energy-model` crate integrates into joules.
//!
//! Sequence numbers are in MSS-sized packets, as in `htsim`.
//!
//! # Examples
//!
//! Two hosts joined by one bidirectional path, transferring 1 MB under Reno:
//!
//! ```
//! use netsim::prelude::*;
//! use transport::{attach_flow, FlowConfig, PathSpec};
//! use congestion::AlgorithmKind;
//!
//! let mut sim = Simulator::new(1);
//! let fwd = sim.add_link(LinkConfig::new(10_000_000, SimDuration::from_millis(10)));
//! let rev = sim.add_link(LinkConfig::new(10_000_000, SimDuration::from_millis(10)));
//! let flow = attach_flow(
//!     &mut sim,
//!     FlowConfig::new(0).transfer_bytes(1_000_000),
//!     AlgorithmKind::Reno.build(1),
//!     &[PathSpec::new(vec![fwd], vec![rev])],
//!     SimDuration::ZERO,
//! );
//! sim.run_until(SimTime::from_secs_f64(30.0));
//! assert!(flow.is_finished(&sim));
//! ```

pub mod config;
pub mod flow;
pub mod receiver;
pub mod rtt;
pub mod sample;
pub mod sender;

pub use config::{AppRead, FlowConfig, DEFAULT_ACK_BYTES, DEFAULT_MSS_BYTES};
pub use flow::{attach_flow, ConnCounters, FlowHandle, PathSpec};
pub use receiver::MptcpReceiver;
pub use rtt::RttEstimator;
pub use sample::{FlowSample, PathHandoff, SubflowSample};
pub use sender::{MptcpSender, SubflowCounters};
