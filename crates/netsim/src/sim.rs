//! The discrete-event simulator core.
//!
//! A [`Simulator`] owns a set of [`Link`]s, a set of [`Agent`]s (protocol
//! endpoints and traffic sources), and a monotonic event queue. It is strictly
//! single-threaded and deterministic: given the same topology, agents, and
//! seed, two runs produce bit-identical results.
//!
//! # Examples
//!
//! ```
//! use netsim::prelude::*;
//!
//! /// An agent that counts delivered packets.
//! #[derive(Default)]
//! struct Counter { received: u64 }
//!
//! impl Agent for Counter {
//!     fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) { self.received += 1; }
//!     fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
//! }
//!
//! let mut sim = Simulator::new(42);
//! let link = sim.add_link(LinkConfig::new(1_000_000, SimDuration::from_millis(1)));
//! let sink = sim.add_agent(Box::new(Counter::default()));
//! let route = Route::new(vec![link], sink);
//! sim.world_mut().send_packet(sink, route, 125, Payload::Raw);
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! assert_eq!(sim.agent::<Counter>(sink).received, 1);
//! ```

pub use crate::event::WheelCounters;
use crate::event::{EventKind, EventQueue};
use crate::faults::FaultAction;
use crate::link::{Enqueue, Link, LinkConfig, LinkStats};
use crate::packet::{AgentId, LinkId, Packet, Payload, Route};
use crate::pool::{PacketPool, PacketSlot};
use crate::time::{SimDuration, SimTime};
use obs::{DropCause, ImpairKind, TraceEvent, TraceSink};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::sync::Arc;

/// A protocol endpoint or traffic source/sink driven by the simulator.
///
/// Agents receive packets addressed to them and timer callbacks they have
/// scheduled. All interaction with the network goes through the [`Ctx`]
/// passed to each callback.
///
/// Agents must be [`Send`]: a whole [`Simulator`] (with the agents it owns)
/// can be built on one thread and moved to another, which is what the sweep
/// runner's worker pool does to fan independent simulation cells across
/// cores. Each simulator is still strictly single-threaded while running —
/// `Send` only permits the hand-off, never sharing.
pub trait Agent: Any + Send {
    /// Called when a packet whose route terminates at this agent is delivered.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);
    /// Called when a timer scheduled by this agent fires. `token` is the value
    /// passed to [`Ctx::schedule_in`]; agents use it to distinguish and to
    /// invalidate stale timers.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>);
    /// Progress view for the stall watchdog ([`Simulator::enable_watchdog`]).
    /// Agents that represent monitorable flows return `Some`; the default is
    /// unmonitored.
    fn watched(&self) -> Option<&dyn Watched> {
        None
    }
}

/// The stall watchdog's view of a flow-like agent.
///
/// An agent is considered *stalled* when it reports itself mid-transfer
/// ([`Watched::in_flight`]) yet its [`Watched::progress`] counter has not
/// advanced across one whole watchdog interval.
pub trait Watched {
    /// A monotonic counter of forward progress (e.g. connection-level bytes
    /// or packets cumulatively acknowledged).
    fn progress(&self) -> u64;
    /// Whether the flow has started and not yet finished. Idle or completed
    /// flows are never reported as stalled.
    fn in_flight(&self) -> bool;
    /// A one-line diagnostic snapshot (cwnd / pipe / RTO state per subflow)
    /// embedded in [`StallReport`]s.
    fn diagnostics(&self) -> String;
}

/// Handle to a cancellable timer slot (see [`World::timer_slot`]).
///
/// Unlike fire-and-forget [`Ctx::schedule_in`] timers, a slot timer can be
/// re-armed and cancelled in O(1) without flooding the event queue: re-arming
/// to a *later* deadline (the common RTO-restart pattern) performs **zero**
/// queue operations — the already-queued wake event checks the slot's live
/// deadline when it fires and re-sleeps if the deadline moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle(u32);

/// Backing state for one cancellable timer (see [`TimerHandle`]).
#[derive(Debug)]
struct TimerSlot {
    agent: AgentId,
    token: u64,
    /// Current deadline; meaningful only while `armed`.
    deadline: SimTime,
    armed: bool,
    /// Whether a wake event for this slot is in the queue, and when. Stale
    /// wakes (generation mismatch) are discarded on pop.
    has_event: bool,
    event_at: SimTime,
    wake_gen: u32,
}

/// Deterministic engine telemetry: what the event loop did, as plain counts.
///
/// Always on, and a function of the simulation alone — no wall-clock enters
/// it — so two runs of one seed report the same numbers. Everything but
/// `wheel` describes the simulation and is the same on the engine and on the
/// reference heap. `wheel` is the measured answer to "how dense is this
/// workload's event population", which is what the wheel's dense/sparse
/// staging decides on (DESIGN.md §13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// `Deliver` events popped: packets handed to their destination agent.
    pub popped_deliver: u64,
    /// `LinkTxDone` events popped: packets that finished serializing.
    pub popped_link_tx_done: u64,
    /// `LinkEnqueue` events popped: packets offered to a link after a hop.
    pub popped_link_enqueue: u64,
    /// Fire-and-forget timer events popped.
    pub popped_timer: u64,
    /// Slot-timer wake events popped (fired, re-slept or stale).
    pub popped_timer_wake: u64,
    /// Events ever pushed.
    pub pushed: u64,
    /// What the timer wheel did; zero on the reference heap.
    pub wheel: WheelCounters,
    /// Most packets ever in flight at once (slab cells allocated).
    pub slab_high_water: u64,
}

/// The installed trace sink, if any. A newtype so [`World`] can keep its
/// `Debug` derive (sinks themselves need not be `Debug`).
struct TraceSlot(Option<Box<dyn TraceSink>>);

impl std::fmt::Debug for TraceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "TraceSlot(installed)" } else { "TraceSlot(none)" })
    }
}

/// Shared simulation state: links, clock, event queue, RNG.
///
/// Exposed to agents through [`Ctx`] and to experiment drivers through
/// [`Simulator::world`] / [`Simulator::world_mut`].
#[derive(Debug)]
pub struct World {
    now: SimTime,
    links: Vec<Link>,
    queue: EventQueue,
    rng: SmallRng,
    next_pkt_id: u64,
    trace: TraceSlot,
    pool: PacketPool,
    timers: Vec<TimerSlot>,
    armed_count: u64,
    /// Only the `popped_*` fields are kept here; the rest are read off the
    /// queue and the pool on demand ([`Simulator::engine_counters`]).
    popped: EngineCounters,
}

impl World {
    fn new(seed: u64, queue: EventQueue) -> Self {
        World {
            now: SimTime::ZERO,
            links: Vec::new(),
            queue,
            rng: SmallRng::seed_from_u64(seed),
            next_pkt_id: 0,
            trace: TraceSlot(None),
            pool: PacketPool::default(),
            timers: Vec::new(),
            armed_count: 0,
            popped: EngineCounters::default(),
        }
    }

    /// Installs a trace sink; subsequent simulation events are recorded to
    /// it. Sinks **observe only** — they never touch the RNG or the event
    /// queue, so a traced run is byte-identical to an untraced one
    /// (pinned by `tests/sweep_determinism.rs`).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = TraceSlot(Some(sink));
    }

    /// Detaches and returns the trace sink, flushing it first.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = std::mem::replace(&mut self.trace, TraceSlot(None)).0;
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
        sink
    }

    /// Whether a trace sink is installed. Instrumentation sites that would
    /// do extra work to *build* an event (beyond moving `Copy` fields) may
    /// gate on this.
    pub fn tracing(&self) -> bool {
        self.trace.0.is_some()
    }

    /// Records `ev` if a sink is installed. With no sink this is one branch
    /// on a niche — no allocation (pinned by `tests/trace_noalloc.rs`).
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace.0.as_mut() {
            sink.record(&ev);
        }
    }

    /// The `u64` link id carried by trace events. [`LinkId`] is a `usize`
    /// index, so the conversion is lossless on every supported target; the
    /// fallback only exists to keep the conversion total.
    #[inline]
    fn trace_link_id(link: LinkId) -> u64 {
        u64::try_from(link).unwrap_or(u64::MAX)
    }

    /// Every link's counters (drops by cause, queue high-water), in link-id
    /// order — available whether or not a trace sink was installed.
    pub fn link_counters(&self) -> Vec<LinkStats> {
        self.links.iter().map(|l| l.stats().clone()).collect()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Immutable access to a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id]
    }

    /// Mutable access to a link, for mid-run degradation or failure
    /// injection between [`crate::sim::Simulator::run_until`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id]
    }

    /// Number of registered links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Schedules `token` to fire at `agent` after `delay`.
    pub fn schedule_in(&mut self, agent: AgentId, delay: SimDuration, token: u64) {
        self.queue.push(self.now + delay, EventKind::Timer { agent, token });
    }

    /// Allocates a cancellable timer slot owned by `agent`. The handle stays
    /// valid for the life of the simulation; arm it with
    /// [`World::arm_timer`].
    pub fn timer_slot(&mut self, agent: AgentId) -> TimerHandle {
        let id = self.timers.len();
        self.timers.push(TimerSlot {
            agent,
            token: 0,
            deadline: SimTime::ZERO,
            armed: false,
            has_event: false,
            event_at: SimTime::ZERO,
            wake_gen: 0,
        });
        // simlint: allow(P001, documented panic: four billion live timer slots is out of scope by construction)
        TimerHandle(u32::try_from(id).expect("timer slot id overflow"))
    }

    /// (Re-)arms a slot timer to fire `token` at its owner after `delay`,
    /// replacing any previous arm. Re-arming to a later-or-equal deadline
    /// while a wake event is already pending costs zero queue operations:
    /// the pending wake consults the slot and re-sleeps.
    pub fn arm_timer(&mut self, h: TimerHandle, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        let s = &mut self.timers[h.0 as usize];
        s.token = token;
        s.deadline = at;
        if !s.armed {
            s.armed = true;
            self.armed_count += 1;
        }
        if s.has_event && s.event_at <= at {
            return;
        }
        // No wake pending, or it is too late: queue one for the new deadline
        // and invalidate any later wake via the generation counter.
        s.wake_gen = s.wake_gen.wrapping_add(1);
        s.has_event = true;
        s.event_at = at;
        let wake_gen = s.wake_gen;
        self.queue.push(at, EventKind::TimerWake { slot: h.0, wake_gen });
    }

    /// Cancels a slot timer. O(1): the slot is disarmed; any queued wake
    /// event becomes a no-op tombstone that drains with the clock.
    pub fn cancel_timer(&mut self, h: TimerHandle) {
        let s = &mut self.timers[h.0 as usize];
        if s.armed {
            s.armed = false;
            self.armed_count -= 1;
        }
    }

    /// Number of currently armed slot timers (diagnostics; lets tests pin
    /// that re-arming does not accumulate live timers).
    pub fn armed_timers(&self) -> u64 {
        self.armed_count
    }

    /// Injects a packet from `src` along `route` at the current time.
    /// Returns the assigned packet id.
    pub fn send_packet(
        &mut self,
        src: AgentId,
        route: Arc<Route>,
        size_bytes: u32,
        payload: Payload,
    ) -> u64 {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        let pkt = Packet {
            id,
            src,
            size_bytes,
            sent_at: self.now,
            ecn_ce: false,
            hop: 0,
            corrupted: false,
            route,
            payload,
        };
        // Stashed here, once; from now on links and events pass the handle
        // and the packet stays in its slab cell until it leaves the network.
        let first = pkt.route.links.first().copied();
        let agent = pkt.route.dst;
        let pkt = self.pool.stash(pkt);
        match first {
            Some(link) => self.offer_to_link(link, pkt),
            None => self.queue.push(self.now, EventKind::Deliver { agent, pkt }),
        }
        id
    }

    /// Frees a packet that leaves the network without being delivered, and
    /// traces why.
    fn drop_packet(&mut self, link: LinkId, pkt: PacketSlot, cause: DropCause) {
        let pkt_id = self.pool.unstash(pkt).id;
        self.emit(TraceEvent::Drop {
            t_ns: self.now.as_nanos(),
            link: World::trace_link_id(link),
            pkt_id,
            cause,
        });
    }

    fn offer_to_link(&mut self, link: LinkId, pkt: PacketSlot) {
        let l = &mut self.links[link];
        if let Some(cause) = l.admit(&mut self.rng) {
            return self.drop_packet(link, pkt, cause);
        }
        let (pkt_id, size_bytes) = {
            let p = self.pool.get(pkt);
            (p.id, p.size_bytes)
        };
        let outcome = l.enqueue(pkt, size_bytes, self.now);
        let qlen = l.queue_len();
        match outcome {
            Enqueue::StartTx(ser) => {
                self.queue.push(self.now + ser, EventKind::LinkTxDone { link });
            }
            Enqueue::Queued { ce } => {
                if ce {
                    self.pool.get_mut(pkt).ecn_ce = true;
                }
            }
            Enqueue::Dropped => {
                return self.drop_packet(link, pkt, DropCause::QueueOverflow);
            }
        }
        self.emit(TraceEvent::Enqueue {
            t_ns: self.now.as_nanos(),
            link: World::trace_link_id(link),
            pkt_id,
            qlen,
        });
    }

    /// Sets a link administratively up or down. Going down drains the link's
    /// queue (counted — and traced — as blackout drops, one per drained
    /// packet); a packet already in service completes its transmission and
    /// is forwarded.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered link.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let drained = self.links[id].set_up(up, self.now);
        for pkt in drained {
            self.drop_packet(id, pkt, DropCause::Blackout);
        }
    }

    /// Applies one scripted fault action at the current time. This is the
    /// single entry point used by [`crate::faults::FaultScript`] agents and
    /// by drivers injecting faults between run calls.
    ///
    /// # Panics
    ///
    /// Panics if the action names an unregistered link.
    pub fn apply_fault(&mut self, action: &FaultAction) {
        match action {
            FaultAction::SetLoss { link, model } => {
                self.links[*link].impairment_mut().set_loss(model.clone());
            }
            FaultAction::SetBandwidth { link, bps } => self.links[*link].set_bandwidth(*bps),
            FaultAction::SetPropagation { link, propagation } => {
                self.links[*link].set_propagation(*propagation);
            }
            FaultAction::LinkDown { link } => self.set_link_up(*link, false),
            FaultAction::LinkUp { link } => self.set_link_up(*link, true),
            FaultAction::SetReorder { link, model } => {
                self.links[*link].impairment_mut().set_reorder(model.clone());
            }
            FaultAction::SetDuplicate { link, p } => {
                self.links[*link].impairment_mut().set_duplicate(*p);
            }
            FaultAction::SetCorrupt { link, p } => {
                self.links[*link].impairment_mut().set_corrupt(*p);
            }
        }
        self.emit(TraceEvent::Fault {
            t_ns: self.now.as_nanos(),
            link: World::trace_link_id(action.link()),
            kind: action.kind(),
        });
    }

    fn forward_after_tx(&mut self, link: LinkId, pkt: PacketSlot) {
        // Delivery impairments roll in a fixed order — corrupt, duplicate,
        // jitter(original), jitter(duplicate) — so the RNG stream is a pure
        // function of the configured models; inactive models draw nothing,
        // which keeps fault-free runs byte-identical with or without this
        // machinery (pinned by faults::tests).
        let (prop, corrupt, duplicate, jitter, dup_jitter) = {
            let l = &mut self.links[link];
            let prop = l.config().propagation;
            let imp = l.impairment_mut();
            let corrupt = imp.roll_corrupt(&mut self.rng);
            let duplicate = imp.roll_duplicate(&mut self.rng);
            let jitter = imp.roll_reorder(&mut self.rng);
            let dup_jitter = if duplicate { imp.roll_reorder(&mut self.rng) } else { None };
            if corrupt {
                l.note_corrupted();
            }
            if duplicate {
                l.note_duplicated();
            }
            if jitter.is_some() {
                l.note_reordered();
            }
            if dup_jitter.is_some() {
                l.note_reordered();
            }
            (prop, corrupt, duplicate, jitter, dup_jitter)
        };
        let t_ns = self.now.as_nanos();
        let p = self.pool.get_mut(pkt);
        p.hop += 1;
        p.corrupted |= corrupt;
        let pkt_id = p.id;
        let impaired = [
            (corrupt, ImpairKind::Corrupt),
            (duplicate, ImpairKind::Duplicate),
            (jitter.is_some(), ImpairKind::Reorder),
            (dup_jitter.is_some(), ImpairKind::Reorder),
        ];
        for (_, kind) in impaired.into_iter().filter(|(hit, _)| *hit) {
            self.emit(TraceEvent::Impair { t_ns, link: World::trace_link_id(link), pkt_id, kind });
        }
        let base = self.now + prop;
        self.schedule_arrival(base + jitter.unwrap_or(SimDuration::ZERO), pkt);
        if duplicate {
            // The copy inherits corruption (same bits on the wire twice) and
            // rolls its own jitter, so the two arrivals can land in either
            // order. From here on it is a packet of its own, in its own cell.
            let copy = self.pool.get(pkt).clone();
            let copy = self.pool.stash(copy);
            self.schedule_arrival(base + dup_jitter.unwrap_or(SimDuration::ZERO), copy);
        }
    }

    /// Schedules one packet copy to arrive at `at`: delivered to the route's
    /// destination agent after the last hop, otherwise offered to the next
    /// link on the route.
    fn schedule_arrival(&mut self, at: SimTime, pkt: PacketSlot) {
        let p = self.pool.get(pkt);
        let kind = match p.route.links.get(p.hop) {
            Some(&link) => EventKind::LinkEnqueue { link, pkt },
            None => EventKind::Deliver { agent: p.route.dst, pkt },
        };
        self.queue.push(at, kind);
    }
}

/// The per-callback handle agents use to interact with the simulation.
#[derive(Debug)]
pub struct Ctx<'a> {
    world: &'a mut World,
    self_id: AgentId,
}

impl Ctx<'_> {
    /// The id of the agent being called.
    pub fn self_id(&self) -> AgentId {
        self.self_id
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.world.rng()
    }

    /// Sends a packet from this agent along `route`. Returns the packet id.
    pub fn send(&mut self, route: Arc<Route>, size_bytes: u32, payload: Payload) -> u64 {
        self.world.send_packet(self.self_id, route, size_bytes, payload)
    }

    /// Schedules `token` to fire back at this agent after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, token: u64) {
        self.world.schedule_in(self.self_id, delay, token);
    }

    /// Allocates a cancellable timer slot owned by this agent (see
    /// [`World::timer_slot`]).
    pub fn timer_slot(&mut self) -> TimerHandle {
        self.world.timer_slot(self.self_id)
    }

    /// (Re-)arms a slot timer (see [`World::arm_timer`]).
    pub fn arm_timer(&mut self, h: TimerHandle, delay: SimDuration, token: u64) {
        self.world.arm_timer(h, delay, token);
    }

    /// Cancels a slot timer (see [`World::cancel_timer`]).
    pub fn cancel_timer(&mut self, h: TimerHandle) {
        self.world.cancel_timer(h);
    }

    /// Read-only access to a link (e.g. to observe queue occupancy).
    pub fn link(&self, id: LinkId) -> &Link {
        self.world.link(id)
    }

    /// Applies one fault action at the current time (used by
    /// [`crate::faults::FaultScript`] agents).
    pub fn apply_fault(&mut self, action: &FaultAction) {
        self.world.apply_fault(action);
    }

    /// Records a trace event if a sink is installed (see [`World::emit`]).
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        self.world.emit(ev);
    }

    /// Whether a trace sink is installed (see [`World::tracing`]).
    pub fn tracing(&self) -> bool {
        self.world.tracing()
    }
}

/// A watched agent that made no forward progress over a watchdog interval.
#[derive(Clone, Debug)]
pub struct StalledFlow {
    /// The agent that stalled.
    pub agent: AgentId,
    /// Its progress counter, unchanged since the previous check.
    pub progress: u64,
    /// The agent's [`Watched::diagnostics`] snapshot at detection time.
    pub diagnostics: String,
}

/// Diagnostic produced when the stall watchdog fires.
///
/// Instead of letting a livelocked simulation spin (or CI hang on a
/// wall-clock timeout), run loops abort and leave this report on the
/// simulator ([`Simulator::stall_report`]).
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Simulated time of detection.
    pub at: SimTime,
    /// Every watched, in-flight agent whose progress did not advance.
    pub stalled: Vec<StalledFlow>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stall watchdog fired at t={:.3}s: {} flow(s) made no progress",
            self.at.as_secs_f64(),
            self.stalled.len()
        )?;
        for s in &self.stalled {
            writeln!(f, "  agent {} (progress={}): {}", s.agent, s.progress, s.diagnostics)?;
        }
        Ok(())
    }
}

/// Internal watchdog state (see [`Simulator::enable_watchdog`]).
#[derive(Debug)]
struct Watchdog {
    interval: SimDuration,
    next_check: SimTime,
    watched: Vec<AgentId>,
    /// Progress at the previous check, per watched agent; `None` when the
    /// agent was not in flight then (no stall comparison across idle spans).
    last: Vec<Option<u64>>,
    report: Option<StallReport>,
}

/// The simulator: links + agents + event loop.
pub struct Simulator {
    world: World,
    agents: Vec<Option<Box<dyn Agent>>>,
    watchdog: Option<Watchdog>,
    /// Online invariant checks, run after every processed event. Compiled
    /// out entirely without the `check-invariants` feature.
    #[cfg(feature = "check-invariants")]
    checks: Vec<crate::check::InvariantCheck>,
    /// First invariant violation observed; run loops halt once set.
    #[cfg(feature = "check-invariants")]
    violation: Option<crate::check::InvariantViolation>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.world.now)
            .field("links", &self.world.links.len())
            .field("agents", &self.agents.len())
            .field("pending_events", &self.world.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator::on_queue(seed, EventQueue::default())
    }

    /// [`Simulator::new`] on the binary-heap reference queue: the oracle the
    /// identity tests compare the engine against, byte for byte. Test-only —
    /// nothing outside `#[cfg(test)]` code and `tests/` may call it.
    #[doc(hidden)]
    pub fn with_reference_queue(seed: u64) -> Self {
        Simulator::on_queue(seed, EventQueue::reference_heap())
    }

    fn on_queue(seed: u64, queue: EventQueue) -> Self {
        Simulator {
            world: World::new(seed, queue),
            agents: Vec::new(),
            watchdog: None,
            #[cfg(feature = "check-invariants")]
            checks: Vec::new(),
            #[cfg(feature = "check-invariants")]
            violation: None,
        }
    }

    /// Registers a link and returns its id.
    pub fn add_link(&mut self, cfg: LinkConfig) -> LinkId {
        self.world.links.push(Link::new(cfg));
        self.world.links.len() - 1
    }

    /// Registers an agent and returns its id.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        self.agents.push(Some(agent));
        self.agents.len() - 1
    }

    /// Registers an agent built from its own id (for agents that must embed
    /// their address in packets they send).
    pub fn add_agent_with<F>(&mut self, build: F) -> AgentId
    where
        F: FnOnce(AgentId) -> Box<dyn Agent>,
    {
        let id = self.agents.len();
        self.agents.push(Some(build(id)));
        id
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Shared state (links, clock, RNG).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable shared state, for experiment setup (packet injection, timer
    /// kicks).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Typed access to an agent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown, the agent is mid-dispatch, or `T` is not its
    /// concrete type.
    pub fn agent<T: Agent>(&self, id: AgentId) -> &T {
        // simlint: allow(P001, documented panic: typed agent access is a test/setup API whose misuse is a caller bug, not a runtime condition)
        let a = self.agents[id].as_ref().expect("agent is mid-dispatch");
        // simlint: allow(P001, documented panic: see above — the downcast encodes the caller-supplied type)
        (&**a as &dyn Any).downcast_ref::<T>().expect("agent type mismatch")
    }

    /// Typed mutable access to an agent.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulator::agent`].
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> &mut T {
        // simlint: allow(P001, documented panic: typed agent access is a test/setup API whose misuse is a caller bug, not a runtime condition)
        let a = self.agents[id].as_mut().expect("agent is mid-dispatch");
        // simlint: allow(P001, documented panic: see above — the downcast encodes the caller-supplied type)
        (&mut **a as &mut dyn Any).downcast_mut::<T>().expect("agent type mismatch")
    }

    /// Schedules a timer for `agent` after `delay` from now. The conventional
    /// way to start protocol agents (token 0 as the "go" signal).
    pub fn kick(&mut self, agent: AgentId, delay: SimDuration, token: u64) {
        self.world.schedule_in(agent, delay, token);
    }

    /// Installs a trace sink (see [`World::set_trace_sink`]).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.world.set_trace_sink(sink);
    }

    /// Detaches and flushes the trace sink (see [`World::take_trace_sink`]).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.world.take_trace_sink()
    }

    fn dispatch(&mut self, agent: AgentId, f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>)) {
        // simlint: allow(P001, invariant: dispatch is never reentrant — the event loop is single-threaded and agents cannot trigger dispatch from within dispatch)
        let mut a = self.agents[agent].take().expect("reentrant agent dispatch");
        {
            let mut ctx = Ctx { world: &mut self.world, self_id: agent };
            f(a.as_mut(), &mut ctx);
        }
        self.agents[agent] = Some(a);
    }

    /// Enables the stall watchdog: every `interval` of simulated time, each
    /// agent registered with [`Simulator::watch`] is checked for forward
    /// progress. If any watched, in-flight agent's [`Watched::progress`] did
    /// not advance over a whole interval, run loops abort and
    /// [`Simulator::stall_report`] describes the stall. Pick an interval
    /// comfortably longer than the worst legitimate silence (backed-off RTOs,
    /// scripted blackouts).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_watchdog(&mut self, interval: SimDuration) {
        assert!(interval > SimDuration::ZERO, "watchdog interval must be positive");
        self.watchdog = Some(Watchdog {
            interval,
            next_check: self.world.now + interval,
            watched: Vec::new(),
            last: Vec::new(),
            report: None,
        });
    }

    /// Registers `agent` with the stall watchdog. The agent must implement
    /// [`Agent::watched`]; unmonitorable agents are ignored at check time.
    ///
    /// # Panics
    ///
    /// Panics if the watchdog is not enabled.
    pub fn watch(&mut self, agent: AgentId) {
        // simlint: allow(P001, documented panic: watch() without enable_watchdog() is a setup-order bug surfaced at configuration time)
        let wd = self.watchdog.as_mut().expect("enable_watchdog before watch");
        wd.watched.push(agent);
        wd.last.push(None);
    }

    /// The stall report, if the watchdog has fired.
    pub fn stall_report(&self) -> Option<&StallReport> {
        self.watchdog.as_ref().and_then(|wd| wd.report.as_ref())
    }

    /// Whether the watchdog has fired (run loops refuse to continue).
    pub fn stalled(&self) -> bool {
        self.stall_report().is_some()
    }

    /// Registers an online invariant check, run against the simulator after
    /// every processed event. The first check to return `Err` records an
    /// [`crate::check::InvariantViolation`] and halts all run loops.
    #[cfg(feature = "check-invariants")]
    pub fn add_invariant_check(&mut self, check: crate::check::InvariantCheck) {
        self.checks.push(check);
    }

    /// The recorded invariant violation, if any check has failed.
    #[cfg(feature = "check-invariants")]
    pub fn invariant_violation(&self) -> Option<&crate::check::InvariantViolation> {
        self.violation.as_ref()
    }

    /// Whether an invariant violation has halted the simulator. Always
    /// `false` without the `check-invariants` feature.
    pub fn invariant_halted(&self) -> bool {
        #[cfg(feature = "check-invariants")]
        {
            self.violation.is_some()
        }
        #[cfg(not(feature = "check-invariants"))]
        {
            false
        }
    }

    /// Runs every registered invariant check; records the first failure and
    /// returns `false` on (new or prior) violation. A no-op returning `true`
    /// without the feature.
    fn invariants_ok(&mut self) -> bool {
        #[cfg(feature = "check-invariants")]
        {
            if self.violation.is_some() {
                return false;
            }
            if self.checks.is_empty() {
                return true;
            }
            // Checks take `&Simulator`, so lift them out for the duration.
            let mut checks = std::mem::take(&mut self.checks);
            let mut failed = None;
            for c in &mut checks {
                if let Err(message) = c(self) {
                    failed = Some(message);
                    break;
                }
            }
            self.checks = checks;
            if let Some(message) = failed {
                self.violation =
                    Some(crate::check::InvariantViolation { at: self.world.now, message });
                return false;
            }
        }
        true
    }

    /// Runs one watchdog check at the current clock. Declares a stall when a
    /// watched agent was in flight at both this check and the previous one
    /// without its progress counter moving.
    fn watchdog_check(&mut self) {
        let Some(wd) = &mut self.watchdog else { return };
        let mut stalled = Vec::new();
        for (i, &id) in wd.watched.iter().enumerate() {
            let snapshot = self.agents[id]
                .as_ref()
                .and_then(|a| a.watched())
                .map(|w| (w.progress(), w.in_flight(), w.diagnostics()));
            let Some((progress, in_flight, diagnostics)) = snapshot else {
                wd.last[i] = None;
                continue;
            };
            if in_flight && wd.last[i] == Some(progress) {
                stalled.push(StalledFlow { agent: id, progress, diagnostics });
            }
            wd.last[i] = in_flight.then_some(progress);
        }
        if !stalled.is_empty() {
            wd.report = Some(StallReport { at: self.world.now, stalled });
        }
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty or the stall watchdog has fired.
    pub fn step(&mut self) -> bool {
        // Run any watchdog checks due before the next event, at their own
        // simulated times. Agent state only changes at events, so checking on
        // these boundaries observes exactly what a timer-driven check would.
        while let Some(check_at) = self.watchdog.as_ref().and_then(|wd| {
            let due_before_event = match self.world.queue.peek_time() {
                Some(t) => wd.next_check <= t,
                None => false,
            };
            (wd.report.is_none() && due_before_event).then_some(wd.next_check)
        }) {
            if check_at > self.world.now {
                self.world.now = check_at;
            }
            self.watchdog_check();
            // simlint: allow(P001, invariant: the loop condition just observed Some(watchdog) and nothing in between can clear it)
            let wd = self.watchdog.as_mut().expect("watchdog vanished mid-check");
            wd.next_check = check_at + wd.interval;
        }
        if self.stalled() || self.invariant_halted() {
            return false;
        }
        let Some(ev) = self.world.queue.pop() else { return false };
        debug_assert!(ev.at >= self.world.now, "event queue went backwards");
        self.world.now = ev.at;
        match ev.kind {
            EventKind::Deliver { agent, pkt } => {
                self.world.popped.popped_deliver += 1;
                let pkt = self.world.pool.unstash(pkt);
                self.dispatch(agent, |a, ctx| a.on_packet(pkt, ctx));
            }
            EventKind::Timer { agent, token } => {
                self.world.popped.popped_timer += 1;
                self.dispatch(agent, |a, ctx| a.on_timer(token, ctx));
            }
            EventKind::TimerWake { slot, wake_gen } => {
                self.world.popped.popped_timer_wake += 1;
                let s = &mut self.world.timers[slot as usize];
                if s.wake_gen == wake_gen {
                    s.has_event = false;
                    if s.armed && s.deadline <= self.world.now {
                        s.armed = false;
                        self.world.armed_count -= 1;
                        let (agent, token) = (s.agent, s.token);
                        self.dispatch(agent, |a, ctx| a.on_timer(token, ctx));
                    } else if s.armed {
                        // Deadline moved later since this wake was queued
                        // (deferred re-arm): sleep again until the live one.
                        s.wake_gen = s.wake_gen.wrapping_add(1);
                        s.has_event = true;
                        s.event_at = s.deadline;
                        let (at, wake_gen) = (s.deadline, s.wake_gen);
                        self.world.queue.push(at, EventKind::TimerWake { slot, wake_gen });
                    }
                }
            }
            EventKind::LinkTxDone { link } => {
                self.world.popped.popped_link_tx_done += 1;
                let (pkt, next) = self.world.links[link].tx_done(self.world.now);
                if let Some(ser) = next {
                    self.world.queue.push(self.world.now + ser, EventKind::LinkTxDone { link });
                }
                self.world.forward_after_tx(link, pkt);
            }
            EventKind::LinkEnqueue { link, pkt } => {
                self.world.popped.popped_link_enqueue += 1;
                self.world.offer_to_link(link, pkt);
            }
        }
        self.invariants_ok()
    }

    /// Runs until the event queue is exhausted, `deadline` is reached, or the
    /// stall watchdog fires, whichever comes first. The clock ends at exactly
    /// `deadline` if it was reached; on a stall it stays at detection time.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.world.queue.peek_time() {
            if t > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
        if self.world.now < deadline && !self.stalled() && !self.invariant_halted() {
            self.world.now = deadline;
        }
    }

    /// Runs for `dur` of simulated time from the current clock.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.world.now + dur;
        self.run_until(deadline);
    }

    /// Runs until no events remain or the stall watchdog fires (only safe for
    /// workloads that terminate).
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.world.queue.len()
    }

    /// Number of currently armed slot timers (see [`World::armed_timers`]).
    /// O(1); lets tests pin that re-arming is state mutation, not event
    /// traffic.
    pub fn armed_timers(&self) -> u64 {
        self.world.armed_timers()
    }

    /// What the event loop has done so far (see [`EngineCounters`]).
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters {
            pushed: self.world.queue.pushed(),
            wheel: self.world.queue.wheel_counters(),
            slab_high_water: self.world.pool.high_water() as u64,
            ..self.world.popped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Sink {
        received: Vec<(SimTime, u64)>,
        timers: Vec<u64>,
    }

    impl Sink {
        fn new() -> Self {
            Self::default()
        }
    }

    impl Agent for Sink {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.received.push((ctx.now(), pkt.id));
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
            self.timers.push(token);
        }
    }

    /// Echoes every packet straight back along a reverse route.
    struct Echo {
        reverse: Arc<Route>,
    }

    impl Agent for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            ctx.send(self.reverse.clone(), pkt.size_bytes, Payload::Raw);
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    }

    #[test]
    fn packet_delivery_timing_includes_serialization_and_propagation() {
        let mut sim = Simulator::new(1);
        // 1 Mb/s, 10 ms propagation: 1250 B => 10 ms serialization.
        let l = sim.add_link(LinkConfig::new(1_000_000, SimDuration::from_millis(10)));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let route = Route::new(vec![l], sink);
        sim.world_mut().send_packet(sink, route, 1250, Payload::Raw);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let got = &sim.agent::<Sink>(sink).received;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, ms(20));
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_nanos(v * 1_000_000)
    }

    #[test]
    fn two_hop_route_store_and_forward() {
        let mut sim = Simulator::new(1);
        let l1 = sim.add_link(LinkConfig::new(1_000_000, SimDuration::from_millis(5)));
        let l2 = sim.add_link(LinkConfig::new(1_000_000, SimDuration::from_millis(5)));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let route = Route::new(vec![l1, l2], sink);
        sim.world_mut().send_packet(sink, route, 1250, Payload::Raw);
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 10 ms ser + 5 ms prop + 10 ms ser + 5 ms prop = 30 ms.
        assert_eq!(sim.agent::<Sink>(sink).received[0].0, ms(30));
    }

    #[test]
    fn round_trip_through_echo_agent() {
        let mut sim = Simulator::new(1);
        let fwd = sim.add_link(LinkConfig::new(10_000_000, SimDuration::from_millis(1)));
        let back = sim.add_link(LinkConfig::new(10_000_000, SimDuration::from_millis(1)));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let echo = sim.add_agent(Box::new(Echo { reverse: Route::new(vec![back], sink) }));
        let route = Route::new(vec![fwd], echo);
        sim.world_mut().send_packet(sink, route, 125, Payload::Raw);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent::<Sink>(sink).received.len(), 1);
        // 0.1 ms ser + 1 ms prop each way = 2.2 ms total.
        let t = sim.agent::<Sink>(sink).received[0].0;
        assert_eq!(t, SimTime::from_nanos(2_200_000));
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_agent(Box::new(Sink::new()));
        sim.kick(sink, SimDuration::from_millis(2), 20);
        sim.kick(sink, SimDuration::from_millis(1), 10);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent::<Sink>(sink).timers, vec![10, 20]);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(1);
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn droptail_losses_are_counted_globally() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(1_000_000, SimDuration::ZERO).queue_limit(1));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let route = Route::new(vec![l], sink);
        for _ in 0..5 {
            sim.world_mut().send_packet(sink, route.clone(), 1250, Payload::Raw);
        }
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 1 in service + 1 queued survive; 3 dropped.
        assert_eq!(sim.world().link(l).stats().drops_queue, 3);
        assert_eq!(sim.agent::<Sink>(sink).received.len(), 2);
    }

    #[test]
    fn iid_loss_drops_packets_and_counts_them() {
        use crate::faults::LossModel;
        let mut sim = Simulator::new(11);
        let l = sim.add_link(LinkConfig::new(10_000_000, SimDuration::ZERO));
        sim.world_mut().link_mut(l).impairment_mut().set_loss(LossModel::iid(0.5));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let route = Route::new(vec![l], sink);
        for _ in 0..200 {
            sim.world_mut().send_packet(sink, route.clone(), 100, Payload::Raw);
        }
        sim.run_to_completion();
        let lost = sim.world().link(l).stats().drops_fault;
        let got = sim.agent::<Sink>(sink).received.len() as u64;
        assert_eq!(lost + got, 200);
        assert!((50..150).contains(&lost), "p=0.5 lost {lost}/200");
        // Random losses are not DropTail drops.
        assert_eq!(sim.world().link(l).stats().drops_queue, 0);
    }

    #[test]
    fn link_down_drains_queue_and_blocks_offers() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(1_000_000, SimDuration::ZERO));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let route = Route::new(vec![l], sink);
        // One in service + three queued.
        for _ in 0..4 {
            sim.world_mut().send_packet(sink, route.clone(), 1250, Payload::Raw);
        }
        sim.world_mut().set_link_up(l, false);
        let blackout = |sim: &Simulator| sim.world().link(l).stats().drops_blackout;
        assert_eq!(blackout(&sim), 3, "queue drained on going down");
        // Offers while down are swallowed.
        sim.world_mut().send_packet(sink, route.clone(), 1250, Payload::Raw);
        assert_eq!(blackout(&sim), 4);
        sim.run_to_completion();
        // Only the packet already in service got through.
        assert_eq!(sim.agent::<Sink>(sink).received.len(), 1);
        sim.world_mut().set_link_up(l, true);
        sim.world_mut().send_packet(sink, route, 1250, Payload::Raw);
        sim.run_to_completion();
        assert_eq!(sim.agent::<Sink>(sink).received.len(), 2);
        assert_eq!(blackout(&sim), 4);
    }

    #[test]
    fn trace_records_drops_with_causes() {
        use crate::faults::LossModel;
        use std::sync::{Arc, Mutex};
        let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulator::new(7);
        let l = sim.add_link(LinkConfig::new(1_000_000, SimDuration::ZERO).queue_limit(1));
        let sink = sim.add_agent(Box::new(Sink::new()));
        sim.set_trace_sink(Box::new(events.clone()));
        let route = Route::new(vec![l], sink);
        // 1 in service + 1 queued + 1 DropTail overflow.
        for _ in 0..3 {
            sim.world_mut().send_packet(sink, route.clone(), 1250, Payload::Raw);
        }
        // Going down drains the queued packet (blackout); an offer while down
        // is also a blackout drop.
        sim.world_mut().set_link_up(l, false);
        sim.world_mut().send_packet(sink, route.clone(), 1250, Payload::Raw);
        sim.world_mut().set_link_up(l, true);
        // Certain loss consumes the next offer as a fault loss.
        sim.world_mut().link_mut(l).impairment_mut().set_loss(LossModel::iid(1.0));
        sim.world_mut().send_packet(sink, route.clone(), 1250, Payload::Raw);
        sim.run_to_completion();
        let evs = events.lock().unwrap().clone();
        let drops = |cause: DropCause| {
            evs.iter()
                .filter(|e| matches!(e, TraceEvent::Drop { cause: c, .. } if *c == cause))
                .count()
        };
        assert_eq!(drops(DropCause::QueueOverflow), 1);
        assert_eq!(drops(DropCause::Blackout), 2);
        assert_eq!(drops(DropCause::FaultLoss), 1);
        let enqueues = evs.iter().filter(|e| matches!(e, TraceEvent::Enqueue { .. })).count();
        assert_eq!(enqueues, 2);
        // Counters agree with the trace without requiring it.
        let counters = sim.world().link_counters();
        assert_eq!(counters[l].drops_queue, 1);
        assert_eq!(counters[l].drops_blackout, 2);
        assert_eq!(counters[l].drops_fault, 1);
        assert_eq!(counters[l].drops(), 4);
        // The sink detaches cleanly.
        assert!(sim.take_trace_sink().is_some());
        assert!(!sim.world().tracing());
    }

    #[test]
    fn fault_script_applies_events_in_time_order() {
        use crate::faults::{FaultAction, FaultScript};
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(1_000_000, SimDuration::ZERO));
        // Deliberately inserted out of order.
        FaultScript::new()
            .at(SimTime::from_secs_f64(2.0), FaultAction::SetBandwidth { link: l, bps: 3_000_000 })
            .at(SimTime::from_secs_f64(1.0), FaultAction::SetBandwidth { link: l, bps: 2_000_000 })
            .blackout(l, SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(4.0))
            .install(&mut sim);
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert_eq!(sim.world().link(l).config().bandwidth_bps, 2_000_000);
        sim.run_until(SimTime::from_secs_f64(2.5));
        assert_eq!(sim.world().link(l).config().bandwidth_bps, 3_000_000);
        sim.run_until(SimTime::from_secs_f64(3.5));
        assert!(!sim.world().link(l).is_up());
        sim.run_until(SimTime::from_secs_f64(4.5));
        assert!(sim.world().link(l).is_up());
    }

    /// An agent that keeps rescheduling a timer but never makes progress.
    struct Livelock {
        progress: u64,
    }

    impl Agent for Livelock {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            ctx.schedule_in(SimDuration::from_millis(100), token);
        }
        fn watched(&self) -> Option<&dyn Watched> {
            Some(self)
        }
    }

    impl Watched for Livelock {
        fn progress(&self) -> u64 {
            self.progress
        }
        fn in_flight(&self) -> bool {
            true
        }
        fn diagnostics(&self) -> String {
            "livelocked test agent".into()
        }
    }

    #[test]
    fn watchdog_aborts_livelocked_run_with_report() {
        let mut sim = Simulator::new(1);
        let a = sim.add_agent(Box::new(Livelock { progress: 0 }));
        sim.enable_watchdog(SimDuration::from_secs_f64(1.0));
        sim.watch(a);
        sim.kick(a, SimDuration::from_millis(100), 0);
        // Without the watchdog this would loop for the full horizon.
        sim.run_until(SimTime::from_secs_f64(1_000_000.0));
        let report = sim.stall_report().expect("watchdog must fire");
        // First check (t=1s) primes the baseline; second (t=2s) detects.
        assert_eq!(report.at, SimTime::from_secs_f64(2.0));
        assert_eq!(report.stalled.len(), 1);
        assert_eq!(report.stalled[0].agent, a);
        assert!(report.to_string().contains("livelocked test agent"));
        assert!(sim.now() < SimTime::from_secs_f64(3.0), "run aborted at detection");
    }

    #[test]
    fn watchdog_stays_quiet_for_progressing_flows() {
        // A sender that drips packets to a sink forever: progress advances
        // every interval, so the watchdog must never fire.
        struct Dripper {
            sent: u64,
            route: Arc<Route>,
        }
        impl Agent for Dripper {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                self.sent += 1;
                ctx.send(self.route.clone(), 100, Payload::Raw);
                if self.sent < 50 {
                    ctx.schedule_in(SimDuration::from_millis(500), token);
                }
            }
            fn watched(&self) -> Option<&dyn Watched> {
                Some(self)
            }
        }
        impl Watched for Dripper {
            fn progress(&self) -> u64 {
                self.sent
            }
            fn in_flight(&self) -> bool {
                self.sent < 50
            }
            fn diagnostics(&self) -> String {
                format!("sent={}", self.sent)
            }
        }
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(1_000_000, SimDuration::ZERO));
        let sink = sim.add_agent(Box::new(Sink::new()));
        let route = Route::new(vec![l], sink);
        let d = sim.add_agent(Box::new(Dripper { sent: 0, route }));
        sim.enable_watchdog(SimDuration::from_secs_f64(2.0));
        sim.watch(d);
        sim.kick(d, SimDuration::ZERO, 0);
        sim.run_until(SimTime::from_secs_f64(60.0));
        assert!(sim.stall_report().is_none());
        assert_eq!(sim.agent::<Sink>(sink).received.len(), 50);
    }

    #[test]
    fn simulator_is_send() {
        // The sweep runner moves whole simulators across worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<Simulator>();
        assert_send::<World>();
    }

    /// An agent that re-arms a single cancellable timer on every packet, the
    /// way a transport re-arms its RTO on every ACK.
    struct Rearmer {
        handle: Option<TimerHandle>,
        rearms: u64,
        fired: Vec<u64>,
    }

    impl Agent for Rearmer {
        fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx<'_>) {
            let h = *self.handle.get_or_insert_with(|| ctx.timer_slot());
            self.rearms += 1;
            ctx.arm_timer(h, SimDuration::from_millis(300), self.rearms);
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
            self.fired.push(token);
        }
    }

    #[test]
    fn rearmed_1000_times_leaves_o1_live_timer_state() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(
            LinkConfig::new(1_000_000_000, SimDuration::from_micros(5)).queue_limit(1200),
        );
        let a = sim.add_agent(Box::new(Rearmer { handle: None, rearms: 0, fired: Vec::new() }));
        let route = Route::new(vec![l], a);
        for _ in 0..1000 {
            sim.world_mut().send_packet(a, route.clone(), 1500, Payload::Raw);
        }
        // Deliver all packets; each re-arms the RTO-style timer.
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(sim.agent::<Rearmer>(a).rearms, 1000);
        assert_eq!(sim.world().armed_timers(), 1, "exactly one live timer after 1000 re-arms");
        // The deferred-wake scheme leaves O(1) events, not one per re-arm.
        assert!(
            sim.pending_events() <= 2,
            "{} timer events accumulated in the queue",
            sim.pending_events()
        );
        // And the timer still fires exactly once, at the *last* armed
        // deadline, with the last token.
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent::<Rearmer>(a).fired, vec![1000]);
        assert_eq!(sim.world().armed_timers(), 0);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Canceller {
            handle: Option<TimerHandle>,
            fired: u64,
        }
        impl Agent for Canceller {
            fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx<'_>) {
                match self.handle {
                    None => {
                        let h = ctx.timer_slot();
                        self.handle = Some(h);
                        ctx.arm_timer(h, SimDuration::from_millis(10), 7);
                    }
                    Some(h) => ctx.cancel_timer(h),
                }
            }
            fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {
                self.fired += 1;
            }
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_agent(Box::new(Canceller { handle: None, fired: 0 }));
        let route = Route::direct(a);
        sim.world_mut().send_packet(a, route.clone(), 100, Payload::Raw); // arm
        sim.world_mut().send_packet(a, route.clone(), 100, Payload::Raw); // cancel
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.agent::<Canceller>(a).fired, 0);
        assert_eq!(sim.world().armed_timers(), 0);
        // Re-arming after a cancel works.
        sim.agent_mut::<Canceller>(a).handle = None;
        sim.world_mut().send_packet(a, route, 100, Payload::Raw);
        sim.run_to_completion();
        assert_eq!(sim.agent::<Canceller>(a).fired, 1);
    }

    /// The peek-ahead regression. `run_until` peeks at the next event — a
    /// timer a second away — to learn it is past the deadline, and that peek
    /// stages the timer's bucket and moves the wheel position there. Work
    /// scheduled afterwards, at or after `now` but a second *before* that
    /// bucket, used to land in a ring slot behind the wheel position: a
    /// release build fired `[1 s, 11 ms]` with the clock running backwards,
    /// a debug build panicked in `Wheel::push`.
    #[test]
    fn work_scheduled_between_two_runs_fires_in_time_order() {
        struct Stamp(Vec<(SimTime, u64)>);
        impl Agent for Stamp {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                self.0.push((ctx.now(), token));
            }
        }
        fn run(mut sim: Simulator) -> Vec<(SimTime, u64)> {
            let a = sim.add_agent(Box::new(Stamp(Vec::new())));
            sim.kick(a, SimDuration::from_millis(1000), 1);
            sim.run_until(ms(10));
            sim.kick(a, SimDuration::from_millis(1), 2);
            sim.run_until(ms(2000));
            sim.agent::<Stamp>(a).0.clone()
        }
        let fired = run(Simulator::new(1));
        assert_eq!(fired, vec![(ms(11), 2), (ms(1000), 1)]);
        assert_eq!(fired, run(Simulator::with_reference_queue(1)));
    }

    /// Sends `burst` packets every `every` until `bursts` are out.
    struct Burster {
        route: Arc<Route>,
        burst: u32,
        bursts: u32,
        every: SimDuration,
    }

    impl Agent for Burster {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            for _ in 0..self.burst {
                ctx.send(self.route.clone(), 1000, Payload::Raw);
            }
            self.bursts -= 1;
            if self.bursts > 0 {
                ctx.schedule_in(self.every, token);
            }
        }
    }

    /// Every way a packet can leave the network frees its slab cell. Until
    /// packets stayed in the slab across hops this could not fail — a cell
    /// lived from one event's push to its pop — so the drops are new places
    /// to leak from: DropTail overflow, iid loss, an offer to a down link, a
    /// link going down over a non-empty queue; duplication is a new place to
    /// allocate from. One run has all of them, and corruption and reordering.
    #[test]
    fn every_exit_from_the_network_frees_its_slab_cell() {
        use crate::faults::{FaultScript, LossModel, ReorderModel};
        fn run(mut sim: Simulator) -> (Vec<LinkStats>, EngineCounters, usize) {
            let us = SimDuration::from_micros;
            // A fast first hop bursts into a slow second one with a short
            // queue; the third hop duplicates, corrupts and reorders.
            let l0 = sim.add_link(LinkConfig::new(1_000_000_000, us(10)).queue_limit(64));
            let l1 = sim.add_link(LinkConfig::new(100_000_000, us(10)).queue_limit(8));
            let l2 = sim.add_link(LinkConfig::new(1_000_000_000, us(10)).queue_limit(64));
            sim.world_mut().link_mut(l1).impairment_mut().set_loss(LossModel::iid(0.05));
            let imp = sim.world_mut().link_mut(l2).impairment_mut();
            imp.set_duplicate(0.1);
            imp.set_corrupt(0.1);
            imp.set_reorder(ReorderModel::uniform(0.2, us(300)));
            let sink = sim.add_agent(Box::new(Sink::new()));
            let route = Route::new(vec![l0, l1, l2], sink);
            let src =
                sim.add_agent(Box::new(Burster { route, burst: 24, bursts: 40, every: us(1000) }));
            // Down in the middle of a burst's backlog, and across two more.
            let at = |t_us: u64| SimTime::from_nanos(t_us * 1_000);
            FaultScript::new().blackout(l1, at(10_300), at(12_500)).install(&mut sim);
            sim.kick(src, SimDuration::ZERO, 0);
            sim.run_to_completion();
            assert_eq!(sim.pending_events(), 0);
            assert_eq!(sim.world().pool.live(), 0, "slab cells leaked");
            let delivered = sim.agent::<Sink>(sink).received.len();
            (sim.world().link_counters(), sim.engine_counters(), delivered)
        }
        let (links, engine, delivered) = run(Simulator::new(5));
        for (i, l) in links.iter().enumerate() {
            assert_eq!(l.offered, l.tx_pkts + l.drops(), "link {i} lost count of a packet");
        }
        let [l0, l1, l2] = &links[..] else { panic!("three links") };
        assert_eq!(l0.offered, 24 * 40);
        assert!(l1.drops_queue > 0 && l1.drops_fault > 0, "{l1:?}");
        // More blackout drops than offers made while down: a queue was drained.
        assert!(l1.drops_blackout > 2 * 24 && l1.drops_blackout < 3 * 24, "{l1:?}");
        assert!(l2.duplicated > 0 && l2.corrupted > 0 && l2.reordered > 0, "{l2:?}");
        assert_eq!(delivered as u64, l2.tx_pkts + l2.duplicated);
        assert_eq!(engine.popped_deliver, delivered as u64);
        assert!(engine.slab_high_water >= 24 && engine.slab_high_water < 100, "{engine:?}");

        // The oracle sees the same run, down to what it popped.
        let (oracle_links, oracle_engine, oracle_delivered) =
            run(Simulator::with_reference_queue(5));
        assert_eq!(links, oracle_links);
        assert_eq!(delivered, oracle_delivered);
        assert!(engine.wheel.buckets_staged > 0);
        assert_eq!(oracle_engine.wheel, WheelCounters::default());
        assert_eq!(EngineCounters { wheel: oracle_engine.wheel, ..engine }, oracle_engine);
    }

    /// Same seed, same delivery schedule — run twice, and a third time on the
    /// heap oracle.
    #[test]
    fn same_seed_same_trace_on_engine_and_heap_oracle() {
        fn run(mut sim: Simulator) -> Vec<(SimTime, u64)> {
            let l = sim.add_link(LinkConfig::new(5_000_000, SimDuration::from_micros(100)));
            let sink = sim.add_agent(Box::new(Sink::new()));
            let route = Route::new(vec![l], sink);
            for _ in 0..50 {
                sim.world_mut().send_packet(sink, route.clone(), 1500, Payload::Raw);
            }
            sim.run_until(SimTime::from_secs_f64(1.0));
            sim.agent::<Sink>(sink).received.clone()
        }
        let first = run(Simulator::new(99));
        assert_eq!(first, run(Simulator::new(99)));
        assert_eq!(first, run(Simulator::with_reference_queue(99)), "engine diverged from oracle");
    }
}
