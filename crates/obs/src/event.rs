//! The typed trace-event taxonomy.
//!
//! Every event is a small all-`Copy` value: no strings, no heap. Emitting an
//! event with no sink installed must not allocate (pinned by
//! `netsim/tests/trace_noalloc.rs`), so the taxonomy carries numeric ids and
//! the `&'static str` names live in the enum discriminants, not the events.
//!
//! Timestamps are simulation nanoseconds (`SimTime::as_nanos`), not wall
//! clock, so a trace is as deterministic as the run that produced it.

/// Why a packet was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// The DropTail queue was full.
    QueueOverflow,
    /// An injected random/burst loss process consumed the packet.
    FaultLoss,
    /// The link was down (offer while dark, or queue drained on transition).
    Blackout,
}

impl DropCause {
    /// Stable lowercase name used in JSONL output and counter keys.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::QueueOverflow => "queue_overflow",
            DropCause::FaultLoss => "fault_loss",
            DropCause::Blackout => "blackout",
        }
    }
}

/// What pushed a subflow into fast recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryCause {
    /// SACK scoreboard declared losses (dupack path).
    FastRetransmit,
    /// Retransmission timer fired.
    Rto,
    /// A dead subflow was revived and restarts conservatively.
    Revival,
}

impl RecoveryCause {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryCause::FastRetransmit => "fast_retransmit",
            RecoveryCause::Rto => "rto",
            RecoveryCause::Revival => "revival",
        }
    }
}

/// Which adversarial impairment touched a packet in flight. Unlike a drop,
/// the packet is still delivered — late, twice, or poisoned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImpairKind {
    /// Extra per-packet delay jitter pushed this packet behind later ones.
    Reorder,
    /// A second copy of the packet was scheduled for delivery.
    Duplicate,
    /// The packet was poisoned; the endpoint must discard it on receipt.
    Corrupt,
}

impl ImpairKind {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            ImpairKind::Reorder => "reorder",
            ImpairKind::Duplicate => "duplicate",
            ImpairKind::Corrupt => "corrupt",
        }
    }
}

/// Why a transport endpoint refused a delivered packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscardCause {
    /// The packet arrived poisoned (checksum-failure semantics): no state
    /// change, no ACK.
    Corrupt,
    /// The receive buffer had no room for new connection-level data.
    WindowFull,
    /// The subflow out-of-order reassembly buffer was at its bound.
    OooLimit,
}

impl DiscardCause {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            DiscardCause::Corrupt => "corrupt",
            DiscardCause::WindowFull => "window_full",
            DiscardCause::OooLimit => "ooo_limit",
        }
    }
}

/// Which fault primitive a `Fault` event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Loss model replaced (iid / Gilbert-Elliott / off).
    SetLoss,
    /// Link bandwidth changed.
    SetBandwidth,
    /// Propagation delay changed.
    SetPropagation,
    /// Link blacked out.
    LinkDown,
    /// Link restored.
    LinkUp,
    /// Reorder (extra-delay jitter) model replaced.
    SetReorder,
    /// Duplication probability changed.
    SetDuplicate,
    /// Corruption probability changed.
    SetCorrupt,
}

impl FaultKind {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SetLoss => "set_loss",
            FaultKind::SetBandwidth => "set_bandwidth",
            FaultKind::SetPropagation => "set_propagation",
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkUp => "link_up",
            FaultKind::SetReorder => "set_reorder",
            FaultKind::SetDuplicate => "set_duplicate",
            FaultKind::SetCorrupt => "set_corrupt",
        }
    }
}

/// One structured trace event. `t_ns` is simulation time in nanoseconds;
/// `link` is a link id; `conn`/`subflow` identify an MPTCP connection and the
/// path index within it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A packet entered a link queue (or went straight to the wire).
    Enqueue { t_ns: u64, link: u64, pkt_id: u64, qlen: usize },
    /// A packet was dropped, with the cause.
    Drop { t_ns: u64, link: u64, pkt_id: u64, cause: DropCause },
    /// A scoreboard-driven (non-timeout) retransmission was sent.
    FastRexmit { t_ns: u64, conn: u64, subflow: usize, seq: u64 },
    /// The retransmission timer fired; `backoff` is the exponent applied.
    RtoFired { t_ns: u64, conn: u64, subflow: usize, backoff: u32 },
    /// An ACK arrived for a segment that had already been delivered but was
    /// retransmitted anyway — a spurious retransmission (lower bound).
    SpuriousRexmit { t_ns: u64, conn: u64, subflow: usize, seq: u64 },
    /// The subflow entered fast recovery; `recover` is the exit threshold.
    RecoveryEnter { t_ns: u64, conn: u64, subflow: usize, recover: u64, cause: RecoveryCause },
    /// The subflow left fast recovery at cumulative ack `cum_ack`.
    RecoveryExit { t_ns: u64, conn: u64, subflow: usize, cum_ack: u64 },
    /// The congestion window changed (emitted only on actual change).
    CwndChange { t_ns: u64, conn: u64, subflow: usize, cwnd_pkts: f64 },
    /// The subflow was declared dead after repeated RTO backoffs.
    SubflowDead { t_ns: u64, conn: u64, subflow: usize },
    /// A dead subflow came back (probe was acknowledged).
    SubflowRevived { t_ns: u64, conn: u64, subflow: usize },
    /// The scheduler picked this subflow for new data `data_seq`.
    SchedulerPick { t_ns: u64, conn: u64, subflow: usize, data_seq: u64 },
    /// A fault primitive was applied to a link.
    Fault { t_ns: u64, link: u64, kind: FaultKind },
    /// An impairment touched a packet that is still delivered (late, doubled,
    /// or poisoned).
    Impair { t_ns: u64, link: u64, pkt_id: u64, kind: ImpairKind },
    /// A transport endpoint discarded a delivered packet, with the cause.
    SegDiscard { t_ns: u64, conn: u64, pkt_id: u64, cause: DiscardCause },
    /// The sender ran out of send credit: advertised window is zero with
    /// nothing outstanding, so it parks behind the persist timer.
    ZeroWindowStall { t_ns: u64, conn: u64 },
    /// A persist-timer window probe was sent; `backoff` is the exponent.
    ZeroWindowProbe { t_ns: u64, conn: u64, subflow: usize, backoff: u32 },
    /// An ACK reopened the window and the sender resumed.
    ZeroWindowResume { t_ns: u64, conn: u64, rwnd_pkts: u64 },
}

impl TraceEvent {
    /// Stable event-kind name: the value of the `"ev"` field in JSONL.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::FastRexmit { .. } => "fast_rexmit",
            TraceEvent::RtoFired { .. } => "rto_fired",
            TraceEvent::SpuriousRexmit { .. } => "spurious_rexmit",
            TraceEvent::RecoveryEnter { .. } => "recovery_enter",
            TraceEvent::RecoveryExit { .. } => "recovery_exit",
            TraceEvent::CwndChange { .. } => "cwnd_change",
            TraceEvent::SubflowDead { .. } => "subflow_dead",
            TraceEvent::SubflowRevived { .. } => "subflow_revived",
            TraceEvent::SchedulerPick { .. } => "scheduler_pick",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Impair { .. } => "impair",
            TraceEvent::SegDiscard { .. } => "seg_discard",
            TraceEvent::ZeroWindowStall { .. } => "zero_window_stall",
            TraceEvent::ZeroWindowProbe { .. } => "zero_window_probe",
            TraceEvent::ZeroWindowResume { .. } => "zero_window_resume",
        }
    }

    /// The event's simulation timestamp in nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match *self {
            TraceEvent::Enqueue { t_ns, .. }
            | TraceEvent::Drop { t_ns, .. }
            | TraceEvent::FastRexmit { t_ns, .. }
            | TraceEvent::RtoFired { t_ns, .. }
            | TraceEvent::SpuriousRexmit { t_ns, .. }
            | TraceEvent::RecoveryEnter { t_ns, .. }
            | TraceEvent::RecoveryExit { t_ns, .. }
            | TraceEvent::CwndChange { t_ns, .. }
            | TraceEvent::SubflowDead { t_ns, .. }
            | TraceEvent::SubflowRevived { t_ns, .. }
            | TraceEvent::SchedulerPick { t_ns, .. }
            | TraceEvent::Fault { t_ns, .. }
            | TraceEvent::Impair { t_ns, .. }
            | TraceEvent::SegDiscard { t_ns, .. }
            | TraceEvent::ZeroWindowStall { t_ns, .. }
            | TraceEvent::ZeroWindowProbe { t_ns, .. }
            | TraceEvent::ZeroWindowResume { t_ns, .. } => t_ns,
        }
    }

    /// Appends the event as one flat record (no trailing newline) to `out`
    /// through [`crate::record`], without allocating.
    pub fn to_json(&self, out: &mut String) {
        let w = crate::record::line(out).str("ev", self.kind_name()).u64("t_ns", self.t_ns());
        match *self {
            TraceEvent::Enqueue { link, pkt_id, qlen, .. } => {
                w.u64("link", link).u64("pkt", pkt_id).u64("qlen", qlen as u64)
            }
            TraceEvent::Drop { link, pkt_id, cause, .. } => {
                w.u64("link", link).u64("pkt", pkt_id).str("cause", cause.name())
            }
            TraceEvent::FastRexmit { conn, subflow, seq, .. }
            | TraceEvent::SpuriousRexmit { conn, subflow, seq, .. } => {
                w.u64("conn", conn).u64("subflow", subflow as u64).u64("seq", seq)
            }
            TraceEvent::RtoFired { conn, subflow, backoff, .. }
            | TraceEvent::ZeroWindowProbe { conn, subflow, backoff, .. } => w
                .u64("conn", conn)
                .u64("subflow", subflow as u64)
                .u64("backoff", u64::from(backoff)),
            TraceEvent::RecoveryEnter { conn, subflow, recover, cause, .. } => w
                .u64("conn", conn)
                .u64("subflow", subflow as u64)
                .u64("recover", recover)
                .str("cause", cause.name()),
            TraceEvent::RecoveryExit { conn, subflow, cum_ack, .. } => {
                w.u64("conn", conn).u64("subflow", subflow as u64).u64("cum_ack", cum_ack)
            }
            TraceEvent::CwndChange { conn, subflow, cwnd_pkts, .. } => {
                w.u64("conn", conn).u64("subflow", subflow as u64).f64_dec("cwnd_pkts", cwnd_pkts)
            }
            TraceEvent::SubflowDead { conn, subflow, .. }
            | TraceEvent::SubflowRevived { conn, subflow, .. } => {
                w.u64("conn", conn).u64("subflow", subflow as u64)
            }
            TraceEvent::SchedulerPick { conn, subflow, data_seq, .. } => {
                w.u64("conn", conn).u64("subflow", subflow as u64).u64("data_seq", data_seq)
            }
            TraceEvent::Fault { link, kind, .. } => w.u64("link", link).str("kind", kind.name()),
            TraceEvent::Impair { link, pkt_id, kind, .. } => {
                w.u64("link", link).u64("pkt", pkt_id).str("kind", kind.name())
            }
            TraceEvent::SegDiscard { conn, pkt_id, cause, .. } => {
                w.u64("conn", conn).u64("pkt", pkt_id).str("cause", cause.name())
            }
            TraceEvent::ZeroWindowStall { conn, .. } => w.u64("conn", conn),
            TraceEvent::ZeroWindowResume { conn, rwnd_pkts, .. } => {
                w.u64("conn", conn).u64("rwnd_pkts", rwnd_pkts)
            }
        }
        .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_flat_and_carries_the_cause() {
        let mut s = String::new();
        TraceEvent::Drop { t_ns: 5, link: 2, pkt_id: 7, cause: DropCause::Blackout }
            .to_json(&mut s);
        assert_eq!(s, "{\"ev\":\"drop\",\"t_ns\":5,\"link\":2,\"pkt\":7,\"cause\":\"blackout\"}");
    }

    #[test]
    fn every_kind_serializes_with_its_name_and_time() {
        let evs = [
            TraceEvent::Enqueue { t_ns: 1, link: 0, pkt_id: 0, qlen: 3 },
            TraceEvent::Drop { t_ns: 2, link: 0, pkt_id: 1, cause: DropCause::QueueOverflow },
            TraceEvent::FastRexmit { t_ns: 3, conn: 9, subflow: 0, seq: 4 },
            TraceEvent::RtoFired { t_ns: 4, conn: 9, subflow: 1, backoff: 2 },
            TraceEvent::SpuriousRexmit { t_ns: 5, conn: 9, subflow: 0, seq: 4 },
            TraceEvent::RecoveryEnter {
                t_ns: 6,
                conn: 9,
                subflow: 0,
                recover: 40,
                cause: RecoveryCause::Rto,
            },
            TraceEvent::RecoveryExit { t_ns: 7, conn: 9, subflow: 0, cum_ack: 40 },
            TraceEvent::CwndChange { t_ns: 8, conn: 9, subflow: 0, cwnd_pkts: 2.5 },
            TraceEvent::SubflowDead { t_ns: 9, conn: 9, subflow: 1 },
            TraceEvent::SubflowRevived { t_ns: 10, conn: 9, subflow: 1 },
            TraceEvent::SchedulerPick { t_ns: 11, conn: 9, subflow: 0, data_seq: 12 },
            TraceEvent::Fault { t_ns: 12, link: 0, kind: FaultKind::LinkDown },
            TraceEvent::Impair { t_ns: 13, link: 0, pkt_id: 2, kind: ImpairKind::Reorder },
            TraceEvent::SegDiscard { t_ns: 14, conn: 9, pkt_id: 2, cause: DiscardCause::Corrupt },
            TraceEvent::ZeroWindowStall { t_ns: 15, conn: 9 },
            TraceEvent::ZeroWindowProbe { t_ns: 16, conn: 9, subflow: 0, backoff: 1 },
            TraceEvent::ZeroWindowResume { t_ns: 17, conn: 9, rwnd_pkts: 4 },
        ];
        for ev in evs {
            let mut s = String::new();
            ev.to_json(&mut s);
            assert!(s.starts_with(&format!("{{\"ev\":\"{}\"", ev.kind_name())), "{s}");
            assert!(s.contains(&format!("\"t_ns\":{}", ev.t_ns())), "{s}");
            assert!(s.ends_with('}'), "{s}");
        }
    }
}
