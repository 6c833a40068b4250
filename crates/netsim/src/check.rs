//! Online invariant checker (compiled only with the `check-invariants`
//! feature).
//!
//! Each piece of state checks itself: an agent in
//! [`crate::Agent::check_invariants`], a link in `Link::check_invariants`,
//! and the simulator its clock. The
//! simulator lists the agents and links that changed: the agent an event
//! was dispatched to, the links it offered a packet to, transmitted on or
//! drained, and those reached from outside any event
//! ([`crate::Simulator::agent_mut`], [`crate::World::send_packet`],
//! [`crate::World::set_link_up`]). After each event,
//! [`crate::Simulator::step`] checks the clock and what the lists hold. A
//! check reads only its owner's state, which nothing else changes, so it
//! reports a violation at the same event as a check run after every event
//! would. Every 256th event, every agent also runs its deep audit. The
//! first violation halts every run loop. Checks take shared references
//! only, so a checked run is byte-identical to an unchecked one. DESIGN.md
//! §10.3 has the argument in full.

use crate::packet::{AgentId, LinkId};
use crate::time::SimTime;

/// Every this many events, every agent runs its deep audit.
pub(crate) const DEEP_EVERY: u64 = 256;

/// A failed invariant: when it was detected and what went wrong.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// Simulated time at which the violated state was observed.
    pub at: SimTime,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violated at t={:.6}s: {}", self.at.as_secs_f64(), self.message)
    }
}

/// The checker's state, kept in the [`crate::World`].
#[derive(Debug, Default)]
pub(crate) struct Checker {
    /// Events checked so far.
    pub(crate) events: u64,
    /// The clock at the previous check.
    last: SimTime,
    /// The agents and links changed since the previous check.
    pub(crate) agents: Vec<AgentId>,
    pub(crate) links: Vec<LinkId>,
    /// The first violation; run loops halt once it is set.
    pub(crate) violation: Option<InvariantViolation>,
}

impl Checker {
    /// Clock monotonicity: simulated time never decreases between events.
    pub(crate) fn clock(&mut self, now: SimTime) -> Result<(), String> {
        if now < self.last {
            return Err(format!("clock went backwards: {now} < {}", self.last));
        }
        self.last = now;
        Ok(())
    }
}
