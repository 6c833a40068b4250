//! Connection wiring: attach a sender/receiver pair to a simulator.

use crate::config::FlowConfig;
use crate::receiver::MptcpReceiver;
use crate::sample::FlowSample;
use crate::sender::{MptcpSender, TK_START};
use congestion::MultipathCongestionControl;
use netsim::{AgentId, LinkId, Route, SimDuration, SimTime, Simulator};

/// One bidirectional path for a connection: the forward (data) link sequence
/// and the reverse (ACK) link sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSpec {
    /// Links from sender to receiver, in order.
    pub fwd: Vec<LinkId>,
    /// Links from receiver back to sender, in order.
    pub rev: Vec<LinkId>,
}

impl PathSpec {
    /// Creates a path from forward and reverse link sequences.
    pub fn new(fwd: Vec<LinkId>, rev: Vec<LinkId>) -> Self {
        PathSpec { fwd, rev }
    }
}

/// Handle to an attached connection: the sender/receiver agent ids plus
/// convenience accessors that read their state back out of the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowHandle {
    /// Agent id of the sender endpoint.
    pub sender: AgentId,
    /// Agent id of the receiver endpoint.
    pub receiver: AgentId,
    /// The connection id from the [`FlowConfig`].
    pub conn_id: u64,
}

impl FlowHandle {
    /// The sender endpoint.
    pub fn sender_ref<'a>(&self, sim: &'a Simulator) -> &'a MptcpSender {
        sim.agent::<MptcpSender>(self.sender)
    }

    /// The receiver endpoint.
    pub fn receiver_ref<'a>(&self, sim: &'a Simulator) -> &'a MptcpReceiver {
        sim.agent::<MptcpReceiver>(self.receiver)
    }

    /// Whether a finite transfer has been fully acknowledged.
    pub fn is_finished(&self, sim: &Simulator) -> bool {
        self.sender_ref(sim).is_finished()
    }

    /// Transfer completion time, if finished.
    pub fn finish_time(&self, sim: &Simulator) -> Option<SimTime> {
        self.sender_ref(sim).finished_at()
    }

    /// Mean goodput in bits/second (up to `sim.now()` for long-lived flows).
    pub fn goodput_bps(&self, sim: &Simulator) -> f64 {
        self.sender_ref(sim).goodput_bps(sim.now())
    }

    /// The recorded telemetry series.
    pub fn samples<'a>(&self, sim: &'a Simulator) -> &'a [FlowSample] {
        self.sender_ref(sim).samples()
    }

    /// Freezes the connection for handoff to the fluid regime; see
    /// [`MptcpSender::halt`].
    pub fn halt(&self, sim: &mut Simulator) {
        let now = sim.now();
        sim.agent_mut::<MptcpSender>(self.sender).halt(now);
    }

    /// Per-path measured state for the fluid handoff; see
    /// [`MptcpSender::handoff_state`].
    pub fn handoff_state(&self, sim: &Simulator) -> Vec<crate::sample::PathHandoff> {
        self.sender_ref(sim).handoff_state(sim.now())
    }

    /// Connection-level robustness counters (zero-window stalls, persist
    /// probes, corrupt/window/reassembly discards) assembled from both
    /// endpoints, for the observability registry.
    pub fn conn_counters(&self, sim: &Simulator) -> ConnCounters {
        let s = self.sender_ref(sim);
        let r = self.receiver_ref(sim);
        ConnCounters {
            conn: self.conn_id,
            zero_window_stalls: s.zero_window_stalls,
            persist_probes: s.persist_probes,
            corrupt_acks: s.corrupt_acks,
            corrupt_discards: r.corrupt_discards,
            rwnd_dropped: r.rwnd_dropped,
            ooo_dropped: r.ooo_dropped,
            duplicates: r.duplicates,
        }
    }
}

/// Per-connection counters spanning sender and receiver: flow-control stalls
/// and the receive-side discard accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConnCounters {
    /// Connection id.
    pub conn: u64,
    /// Times the sender parked behind the persist timer (advertised window
    /// zero with nothing outstanding).
    pub zero_window_stalls: u64,
    /// Persist-timer window probes sent.
    pub persist_probes: u64,
    /// Corrupted ACKs the sender discarded unparsed.
    pub corrupt_acks: u64,
    /// Corrupted data segments the receiver discarded unparsed.
    pub corrupt_discards: u64,
    /// Data segments refused because the receive buffer was full.
    pub rwnd_dropped: u64,
    /// Data segments refused by the subflow out-of-order buffer bound.
    pub ooo_dropped: u64,
    /// Duplicate data segments the receiver absorbed idempotently.
    pub duplicates: u64,
}

impl ConnCounters {
    /// True when nothing noteworthy happened on this connection.
    pub fn is_quiet(&self) -> bool {
        self.zero_window_stalls == 0
            && self.persist_probes == 0
            && self.corrupt_acks == 0
            && self.corrupt_discards == 0
            && self.rwnd_dropped == 0
            && self.ooo_dropped == 0
            && self.duplicates == 0
    }
}

/// Attaches a connection to `sim`: registers the two endpoint agents, wires
/// one subflow per [`PathSpec`], and schedules the sender to start after
/// `start_at`.
///
/// # Panics
///
/// Panics if `paths` is empty.
pub fn attach_flow(
    sim: &mut Simulator,
    cfg: FlowConfig,
    cc: Box<dyn MultipathCongestionControl>,
    paths: &[PathSpec],
    start_at: SimDuration,
) -> FlowHandle {
    assert!(!paths.is_empty(), "a connection needs at least one path");
    let conn_id = cfg.conn_id;
    let rcv_buf = cfg.rcv_buf_pkts;
    let app_read = cfg.app_read;
    let sender = sim.add_agent(Box::new(MptcpSender::new(cfg, cc)));
    let receiver = sim.add_agent(Box::new(MptcpReceiver::new(conn_id, rcv_buf)));
    sim.agent_mut::<MptcpReceiver>(receiver).set_app_read(app_read);
    for p in paths {
        sim.agent_mut::<MptcpSender>(sender).add_path(Route::new(p.fwd.clone(), receiver));
        sim.agent_mut::<MptcpReceiver>(receiver).add_path(Route::new(p.rev.clone(), sender));
    }
    sim.kick(sender, start_at, TK_START);
    FlowHandle { sender, receiver, conn_id }
}
