//! # netsim — deterministic discrete-event network simulator
//!
//! The substrate for the MPTCP energy-efficiency reproduction: a packet-level
//! network simulator in the style of `htsim` (the simulator the original
//! paper used for its datacenter experiments). It models:
//!
//! * unidirectional [`link::Link`]s with finite bandwidth, propagation delay,
//!   bounded DropTail queues, and optional DCTCP-style ECN marking;
//! * source-routed [`packet::Packet`]s that store-and-forward across
//!   multi-hop [`packet::Route`]s;
//! * [`sim::Agent`]s — protocol endpoints and traffic sources — driven by
//!   packet deliveries and timers;
//! * a strictly deterministic event loop ordered by `(time, insertion seq)`
//!   with a seeded RNG, so every experiment is exactly reproducible.
//!
//! Higher layers build on this: the `transport` crate implements TCP/MPTCP
//! endpoints as agents, `topology` builds link graphs and route sets, and
//! `workload` provides background-traffic agents.
//!
//! # Examples
//!
//! ```
//! use netsim::prelude::*;
//!
//! #[derive(Default)]
//! struct Counter { bytes: u64 }
//! impl Agent for Counter {
//!     fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
//!         self.bytes += u64::from(pkt.size_bytes);
//!     }
//!     fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
//! }
//!
//! let mut sim = Simulator::new(7);
//! let l = sim.add_link(LinkConfig::new(10_000_000, SimDuration::from_millis(1)));
//! let sink = sim.add_agent(Box::new(Counter::default()));
//! let route = Route::new(vec![l], sink);
//! sim.world_mut().send_packet(sink, route, 1500, Payload::Raw);
//! sim.run_until(SimTime::from_secs_f64(0.1));
//! assert_eq!(sim.agent::<Counter>(sink).bytes, 1500);
//! ```

#[cfg(feature = "check-invariants")]
pub mod check;
pub(crate) mod event;
pub mod faults;
pub mod link;
pub mod packet;
pub(crate) mod pool;
pub mod sim;
pub mod time;

/// Convenient glob import of the common simulator types.
pub mod prelude {
    pub use crate::faults::{
        FaultAction, FaultEvent, FaultScript, Impairment, LossModel, ReorderModel,
    };
    pub use crate::link::{Link, LinkConfig, LinkStats};
    pub use crate::packet::{AgentId, LinkId, Packet, Payload, Route};
    pub use crate::sim::{
        Agent, Ctx, EngineCounters, Simulator, StallReport, StalledFlow, TimerHandle, Watched,
        WheelCounters, World,
    };
    pub use crate::time::{SimDuration, SimTime};
}

#[cfg(feature = "check-invariants")]
pub use check::{install_default_invariants, InvariantCheck, InvariantViolation};
pub use faults::{
    is_exactly_zero, FaultAction, FaultEvent, FaultScript, Impairment, LossModel, ReorderModel,
};
pub use link::{Link, LinkConfig, LinkStats};
pub use packet::{AgentId, LinkId, Packet, Payload, Route};
pub use sim::{
    Agent, Ctx, EngineCounters, Simulator, StallReport, StalledFlow, TimerHandle, Watched,
    WheelCounters, World,
};
pub use time::{SimDuration, SimTime};
