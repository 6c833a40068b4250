//! Packets, routes, and addressing.
//!
//! The simulator uses *source routing*: every [`Packet`] carries a shared
//! [`Route`] (the ordered list of links it will traverse plus the destination
//! agent), and a `hop` cursor. This sidesteps per-switch forwarding tables
//! while still modelling multi-hop store-and-forward behaviour exactly; the
//! topology crate is responsible for computing the available routes (e.g. the
//! ECMP path set of a FatTree).

use crate::time::SimTime;
use std::sync::Arc;

/// Identifier of an agent (protocol endpoint, traffic source/sink) registered
/// with the simulator.
pub type AgentId = usize;

/// Identifier of a unidirectional link registered with the simulator.
pub type LinkId = usize;

/// A source route: the ordered sequence of links a packet traverses, and the
/// agent that receives it at the end.
///
/// Routes are immutable once built and shared via [`Arc`], so cloning a packet
/// does not copy the path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Links traversed, in order.
    pub links: Vec<LinkId>,
    /// Agent delivered to after the last link.
    pub dst: AgentId,
}

impl Route {
    /// Creates a route over `links` terminating at agent `dst`.
    pub fn new(links: Vec<LinkId>, dst: AgentId) -> Arc<Self> {
        Arc::new(Route { links, dst })
    }

    /// A zero-hop route that delivers directly to `dst` (useful in tests).
    pub fn direct(dst: AgentId) -> Arc<Self> {
        Arc::new(Route { links: Vec::new(), dst })
    }
}

/// Transport-level content of a packet.
///
/// `netsim` itself never interprets these fields beyond `size_bytes`; they are
/// carried verbatim to the destination agent. Keeping the enum here (rather
/// than making packets generic) keeps the event queue monomorphic and fast.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// An MPTCP/TCP data segment.
    Data {
        /// Connection identifier (unique per [`crate::sim::Simulator`]).
        conn: u64,
        /// Index of the subflow within the connection.
        subflow: u32,
        /// Subflow-level sequence number, in MSS-sized packets.
        seq: u64,
        /// Connection-level data sequence number, in packets.
        data_seq: u64,
        /// Whether this segment is a retransmission.
        retransmit: bool,
    },
    /// An acknowledgement travelling back to the sender.
    Ack {
        /// Connection identifier.
        conn: u64,
        /// Index of the subflow within the connection.
        subflow: u32,
        /// Cumulative subflow-level ACK: next expected subflow sequence.
        cum_ack: u64,
        /// One past the highest subflow sequence received (SACK-style hint:
        /// everything ≥ 3 below it and unacked is presumed lost).
        sack_high: u64,
        /// The subflow sequence of the segment that triggered this ACK — the
        /// per-packet selective-acknowledgement signal the sender's
        /// scoreboard uses to mark individual deliveries. `None` when the
        /// ACK acknowledges no new segment (a pure window report, e.g. the
        /// reply to a discarded zero-window probe).
        for_seq: Option<u64>,
        /// Cumulative connection-level data ACK: next expected data sequence.
        data_ack: u64,
        /// Receive window in packets (connection level).
        rwnd_pkts: u64,
        /// ECN echo for the segment being acknowledged (DCTCP-style per-packet
        /// echo).
        ecn_echo: bool,
        /// `sent_at` timestamp of the data segment that triggered this ACK,
        /// echoed back for Karn-safe RTT sampling.
        ts_echo: SimTime,
    },
    /// Opaque cross-traffic (CBR/Pareto burst filler); only occupies capacity.
    Raw,
}

/// A packet in flight.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique packet id (assigned by the simulator).
    pub id: u64,
    /// Agent that sent the packet.
    pub src: AgentId,
    /// Wire size in bytes (headers included).
    pub size_bytes: u32,
    /// Time the packet was handed to the first link.
    pub sent_at: SimTime,
    /// ECN Congestion-Experienced mark, set by links over their marking
    /// threshold.
    pub ecn_ce: bool,
    /// Index into `route.links` of the next link to traverse.
    pub hop: usize,
    /// Poisoned by a corruption impairment: the payload must not be trusted,
    /// and the destination agent is expected to discard the packet
    /// (checksum-failure semantics).
    pub corrupted: bool,
    /// The source route.
    pub route: Arc<Route>,
    /// Transport payload.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_route_has_no_hops() {
        let r = Route::direct(7);
        assert!(r.links.is_empty());
        assert_eq!(r.dst, 7);
    }
}
