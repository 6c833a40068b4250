//! Online invariant checker (compiled only with the `check-invariants`
//! feature).
//!
//! Checks are closures over `&Simulator` registered via
//! [`Simulator::add_invariant_check`]; the event loop runs every check after
//! each processed event and halts on the first `Err`. They are *observers*:
//! a check must not touch the RNG or the event queue, so a checked run is
//! byte-identical to an unchecked one (pinned by
//! `tests/invariants_online.rs`).
//!
//! [`install_default_invariants`] registers the simulator-level invariants
//! (per-link packet conservation, queue bounds, clock monotonicity);
//! transport-level invariants (exactly-once delivery, window bounds) are
//! registered by `transport::attach_flow` under the same feature.

use crate::sim::Simulator;
use crate::time::SimTime;

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

/// An online invariant check. `FnMut` so a check can carry state across
/// steps (e.g. the previous clock reading); `Send` because simulators move
/// across sweep-runner worker threads.
pub type InvariantCheck = Box<dyn FnMut(&Simulator) -> Result<(), String> + Send>;

/// Registers the simulator-level invariants:
///
/// - **Clock monotonicity** — simulated time never decreases between events.
/// - **Per-link packet conservation** — every packet offered to a link is
///   accounted for: `offered = tx + queued + in_service + drops_queue +
///   drops_fault + drops_blackout` at every event boundary.
/// - **Queue bound** — no link queue exceeds its configured DropTail limit.
pub fn install_default_invariants(sim: &mut Simulator) {
    let mut last = SimTime::ZERO;
    sim.add_invariant_check(Box::new(move |s: &Simulator| {
        let now = s.now();
        if now < last {
            return Err(format!("clock went backwards: {now} < {last}"));
        }
        last = now;
        Ok(())
    }));
    sim.add_invariant_check(Box::new(|s: &Simulator| {
        let w = s.world();
        for i in 0..w.link_count() {
            let l = w.link(i);
            let st = l.stats();
            let in_service = l.is_busy() as u64;
            let accounted = st.tx_pkts
                + l.queue_len() as u64
                + in_service
                + st.drops_queue
                + st.drops_fault
                + st.drops_blackout;
            if st.offered != accounted {
                return Err(format!(
                    "link {i} packet conservation broken: offered={} but \
                     tx={} + queued={} + in_service={in_service} + drops={} \
                     + losses={} + blackout={} = {accounted}",
                    st.offered,
                    st.tx_pkts,
                    l.queue_len(),
                    st.drops_queue,
                    st.drops_fault,
                    st.drops_blackout,
                ));
            }
            if l.queue_len() > l.config().queue_limit_pkts {
                return Err(format!(
                    "link {i} queue over limit: {} > {}",
                    l.queue_len(),
                    l.config().queue_limit_pkts
                ));
            }
        }
        Ok(())
    }));
}
