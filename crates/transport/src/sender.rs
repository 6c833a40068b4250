//! The MPTCP sender endpoint.
//!
//! One [`MptcpSender`] agent drives a whole connection: it owns every
//! subflow's sequence state, retransmission machinery, and the pluggable
//! [`MultipathCongestionControl`] algorithm.
//!
//! Loss recovery follows RFC 6675 (SACK-based): the receiver acknowledges
//! every segment individually (`for_seq` in the ACK), the sender keeps a
//! scoreboard of delivered / lost / in-flight segments, transmission is gated
//! on `pipe < cwnd`, and a segment is classified lost once the receiver has
//! seen `DupThresh` segments beyond it. This matches the SACK-enabled Linux
//! stack the paper instruments (the kernel's MPTCP v0.90 is SACK-based) and
//! avoids the RTO storms a plain NewReno model suffers after slow-start
//! overshoot. Data is striped over subflows by a lowest-SRTT-first scheduler,
//! the MPTCP kernel default; a subflow with no RTT sample yet gets new data
//! first. Failover reinjections and window probes go to the fastest *sampled*
//! subflow instead, trying unsampled ones last.

use crate::config::FlowConfig;
use crate::rtt::RttEstimator;
use crate::sample::{FlowSample, PathHandoff, SubflowSample};
use congestion::{MultipathCongestionControl, SubflowCc};
use netsim::{Agent, Ctx, Packet, Payload, Route, SimTime, TimerHandle, Watched};
use obs::{DiscardCause, RecoveryCause, TraceEvent};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Timer token: start the connection.
pub const TK_START: u64 = 1;
/// Timer token: telemetry sample tick.
const TK_SAMPLE: u64 = 2;
/// High bit marking an RTO token; subflow in bits 32..62, generation in low
/// 32 bits.
const TK_RTO_BIT: u64 = 1 << 63;
/// Bit marking a persist (zero-window probe) timer token; generation in the
/// low 32 bits. One persist timer serves the whole connection.
const TK_PERSIST_BIT: u64 = 1 << 62;

/// Duplicate threshold for loss classification (RFC 6675 DupThresh).
const DUP_THRESH: u64 = 3;

fn rto_token(subflow: usize, gen: u64) -> u64 {
    TK_RTO_BIT | ((subflow as u64) << 32) | (gen & 0xffff_ffff)
}

/// Scoreboard entry for one outstanding segment.
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    /// Connection-level data sequence carried by this subflow sequence.
    data_seq: u64,
    /// The receiver has explicitly acknowledged this segment.
    delivered: bool,
    /// This segment currently counts toward `pipe` (a copy is believed in
    /// flight).
    in_pipe: bool,
    /// Retransmission count.
    rexmits: u32,
    /// Already counted as a proven-spurious retransmission (dup-ACK
    /// discipline: duplicated ACKs must not inflate the counter).
    spurious_counted: bool,
    /// Last (re)transmission time, for lost-retransmission detection.
    last_tx: SimTime,
}

/// Scoreboard keyed by subflow sequence number.
///
/// Subflow sequences are dense: every insert happens at `snd_nxt` (one past
/// the current tail) and `slide` removes only from the front, so a ring
/// buffer plus a base offset replaces a `BTreeMap` — per-ACK lookup, append,
/// and cumulative slide are O(1) instead of O(log w) in the window size.
#[derive(Debug, Default)]
struct SegBoard {
    /// Sequence number of `ring[0]` (meaningless while empty).
    base: u64,
    ring: VecDeque<Seg>,
}

impl SegBoard {
    fn idx(&self, seq: u64) -> Option<usize> {
        let off = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (off < self.ring.len()).then_some(off)
    }

    /// Clamps `[from, to)` to occupied ring indices.
    fn bounds(&self, from: u64, to: u64) -> (usize, usize) {
        let len = self.ring.len();
        let lo = usize::try_from(from.saturating_sub(self.base)).unwrap_or(len).min(len);
        let hi = usize::try_from(to.saturating_sub(self.base)).unwrap_or(len).min(len);
        (lo, hi.max(lo))
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Seg> {
        let i = self.idx(seq)?;
        self.ring.get_mut(i)
    }

    /// Appends at the tail; `seq` must be exactly one past the current tail
    /// (callers insert at `snd_nxt` only).
    fn insert(&mut self, seq: u64, seg: Seg) {
        if self.ring.is_empty() {
            self.base = seq;
        }
        debug_assert_eq!(u64::try_from(self.ring.len()).ok().map(|n| self.base + n), Some(seq));
        self.ring.push_back(seg);
    }

    fn first(&self) -> Option<(u64, &Seg)> {
        self.ring.front().map(|s| (self.base, s))
    }

    /// Only the `check-invariants` scoreboard audit needs this.
    #[cfg_attr(not(feature = "check-invariants"), allow(dead_code))]
    fn last_seq(&self) -> Option<u64> {
        let n = u64::try_from(self.ring.len()).ok()?;
        n.checked_sub(1).map(|last| self.base + last)
    }

    fn pop_first(&mut self) {
        if self.ring.pop_front().is_some() {
            self.base += 1;
        }
    }

    fn range(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, &Seg)> {
        let (lo, hi) = self.bounds(from, to);
        let base = self.base;
        self.ring
            .range(lo..hi)
            .enumerate()
            .map(move |(i, s)| (base + u64::try_from(lo + i).unwrap_or(u64::MAX), s))
    }

    fn range_mut(&mut self, from: u64, to: u64) -> impl Iterator<Item = (u64, &mut Seg)> {
        let (lo, hi) = self.bounds(from, to);
        let base = self.base;
        self.ring
            .range_mut(lo..hi)
            .enumerate()
            .map(move |(i, s)| (base + u64::try_from(lo + i).unwrap_or(u64::MAX), s))
    }

    fn values(&self) -> impl Iterator<Item = &Seg> {
        self.ring.iter()
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut Seg> {
        self.ring.iter_mut()
    }

    /// Only the `check-invariants` scoreboard audit needs this.
    #[cfg_attr(not(feature = "check-invariants"), allow(dead_code))]
    fn len(&self) -> usize {
        self.ring.len()
    }
}

/// Per-subflow transport counters: the one record of what a subflow sent,
/// lost and survived. [`MptcpSender::subflow`] reads it in place and
/// [`MptcpSender::subflow_counters`] copies out every subflow's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubflowCounters {
    /// First transmissions (retransmissions count in `rexmits`).
    pub tx_pkts: u64,
    /// Fast (scoreboard) + RTO retransmissions.
    pub rexmits: u64,
    /// Scoreboard-driven (non-timeout) retransmissions only.
    pub fast_rexmits: u64,
    /// Retransmissions the receiver later proved unnecessary: an ACK arrived
    /// for an already-delivered, retransmitted segment. A lower bound —
    /// segments slid out by the cumulative ACK escape the check.
    pub spurious_rexmits: u64,
    /// Retransmission-timer firings.
    pub rtos: u64,
    /// Packets cumulatively acknowledged.
    pub acked_pkts: u64,
    /// Recovery episodes entered, by fast retransmit, RTO or revival (an
    /// RTO inside an open episode does not open another).
    pub recoveries: u64,
    /// Times this subflow was declared dead.
    pub deaths: u64,
    /// Times this subflow came back from the dead.
    pub revivals: u64,
    /// Revival probes sent while dead.
    pub probes: u64,
}

/// Per-subflow sender state.
#[derive(Debug)]
struct SubflowState {
    route: Arc<Route>,
    snd_nxt: u64,
    snd_una: u64,
    in_recovery: bool,
    recover: u64,
    /// Monotonic cursor over loss-classification (`sack_high` driven).
    loss_scan: u64,
    /// Cursor over retransmission candidates within the episode.
    rexmit_cursor: u64,
    /// One past the highest sequence the receiver reports having seen.
    sack_high: u64,
    /// Estimated packets in flight (RFC 6675 pipe).
    pipe: u64,
    rtt: RttEstimator,
    rto_gen: u64,
    /// Cancellable timer slot carrying this subflow's RTO (lazily allocated
    /// on first arm). Re-arming on every cumulative ACK is O(1) with no
    /// event-queue traffic; `rto_gen` stays as a second line of staleness
    /// defense in the token itself.
    rto_timer: Option<TimerHandle>,
    backoff: u32,
    /// Scoreboard: subflow sequence → segment state.
    segs: SegBoard,
    counters: SubflowCounters,
    sample_prev_acked: u64,
}

impl SubflowState {
    fn new(route: Arc<Route>, cfg: &FlowConfig) -> Self {
        SubflowState {
            route,
            snd_nxt: 0,
            snd_una: 0,
            in_recovery: false,
            recover: 0,
            loss_scan: 0,
            rexmit_cursor: 0,
            sack_high: 0,
            pipe: 0,
            rtt: RttEstimator::new(cfg.min_rto),
            rto_gen: 0,
            rto_timer: None,
            backoff: 0,
            segs: SegBoard::default(),
            counters: SubflowCounters::default(),
            sample_prev_acked: 0,
        }
    }

    /// Whether any data is outstanding.
    fn has_outstanding(&self) -> bool {
        self.snd_nxt > self.snd_una
    }

    /// Appends a fresh, unsent segment carrying `data_seq` at `snd_nxt` and
    /// returns its subflow sequence.
    fn push_seg(&mut self, data_seq: u64, now: SimTime) -> u64 {
        let seq = self.snd_nxt;
        self.segs.insert(seq, Seg { data_seq, last_tx: now, ..Seg::default() });
        self.snd_nxt += 1;
        seq
    }

    /// Opens a recovery episode covering everything sent so far.
    fn open_episode(&mut self) {
        self.in_recovery = true;
        self.recover = self.snd_nxt;
        self.rexmit_cursor = self.snd_una;
    }

    /// Opens an episode that may retransmit from the head even if the
    /// receiver never saw anything past it (RTO and revival).
    fn open_episode_from_head(&mut self) {
        self.open_episode();
        self.sack_high = self.sack_high.max(self.snd_nxt);
        self.loss_scan = self.snd_una;
    }

    /// Marks `seq` delivered on the scoreboard, adjusting `pipe`. Returns
    /// `true` when the segment was *already* delivered and had been
    /// retransmitted — i.e. this ACK proves a retransmission spurious.
    fn mark_delivered(&mut self, seq: u64) -> bool {
        if let Some(seg) = self.segs.get_mut(seq) {
            if !seg.delivered {
                seg.delivered = true;
                if seg.in_pipe {
                    seg.in_pipe = false;
                    self.pipe = self.pipe.saturating_sub(1);
                }
            } else if seg.rexmits > 0 && !seg.spurious_counted {
                seg.spurious_counted = true;
                return true;
            }
        }
        false
    }

    /// Classifies as lost every undelivered segment the receiver has seen
    /// `DupThresh` past (advances a monotonic cursor, so each segment is
    /// examined once). Returns how many segments were newly marked lost.
    fn advance_loss_scan(&mut self) -> u64 {
        let hi = self.sack_high.saturating_sub(DUP_THRESH);
        if hi <= self.loss_scan {
            return 0;
        }
        let mut newly_lost = 0;
        let from = self.loss_scan.max(self.snd_una);
        if from >= hi {
            self.loss_scan = hi;
            return 0;
        }
        for (_, seg) in self.segs.range_mut(from, hi) {
            if !seg.delivered && seg.in_pipe && seg.rexmits == 0 {
                seg.in_pipe = false;
                newly_lost += 1;
            }
        }
        self.pipe = self.pipe.saturating_sub(newly_lost);
        self.loss_scan = hi;
        newly_lost
    }

    /// Removes scoreboard entries below the cumulative ACK.
    fn slide(&mut self, cum_ack: u64) {
        while let Some((seq, seg)) = self.segs.first() {
            if seq >= cum_ack {
                break;
            }
            if seg.in_pipe {
                self.pipe = self.pipe.saturating_sub(1);
            }
            self.segs.pop_first();
        }
    }

    /// Finds the next retransmission candidate: a lost (classified,
    /// not-in-pipe) undelivered segment from the episode cursor, or — if none
    /// — an undelivered retransmission that has been in flight suspiciously
    /// long (a lost retransmission). `srtt` is the subflow's smoothed RTT.
    fn next_rexmit(&mut self, now: SimTime, srtt: f64) -> Option<u64> {
        let hi = self.sack_high.saturating_sub(DUP_THRESH).min(self.recover);
        let from = self.rexmit_cursor.max(self.snd_una);
        if from < hi {
            if let Some((seq, _)) =
                self.segs.range(from, hi).find(|(_, seg)| !seg.delivered && !seg.in_pipe)
            {
                self.rexmit_cursor = seq + 1;
                return Some(seq);
            }
        }
        if self.snd_una >= hi {
            return None;
        }
        // Lost-retransmission probe: an undelivered, already-retransmitted
        // segment that has been quiet for over 1.5 smoothed RTTs.
        let stale = if srtt > 0.0 { srtt } else { 0.2 } * 1.5;
        if let Some((seq, _)) = self.segs.range(self.snd_una, hi).find(|(_, seg)| {
            !seg.delivered
                && seg.rexmits > 0
                && now.saturating_since(seg.last_tx).as_secs_f64() > stale
        }) {
            return Some(seq);
        }
        None
    }
}

/// The sending endpoint of an (MP)TCP connection.
pub struct MptcpSender {
    cfg: FlowConfig,
    cc: Box<dyn MultipathCongestionControl>,
    subflows: Vec<SubflowState>,
    cc_states: Vec<SubflowCc>,
    data_next: u64,
    data_acked: u64,
    peer_rwnd: u64,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    samples: Vec<FlowSample>,
    last_sample_at: SimTime,
    /// Data sequences stranded on dead subflows, awaiting reinjection onto
    /// live ones (each hole queued at most once).
    reinject_queue: VecDeque<u64>,
    /// Segments reinjected because their subflow died.
    pub failover_reinjections: u64,
    /// The connection is stalled on a zero receive window: nothing
    /// outstanding, nothing sendable, persist timer armed.
    zero_window: bool,
    /// Persist-timer backoff exponent (reset on resume or data progress).
    persist_backoff: u32,
    /// Persist-timer generation (stale-fire rejection, like `rto_gen`).
    persist_gen: u64,
    /// Cancellable timer slot for the persist timer (lazily allocated).
    persist_timer: Option<TimerHandle>,
    /// The in-flight window probe, if one was materialized:
    /// `(subflow, subflow seq)`.
    probe: Option<(usize, u64)>,
    /// Times the connection entered a zero-window stall.
    pub zero_window_stalls: u64,
    /// Window probes sent by the persist timer.
    pub persist_probes: u64,
    /// Corrupted ACKs discarded unparsed.
    pub corrupt_acks: u64,
}

impl std::fmt::Debug for MptcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MptcpSender")
            .field("conn", &self.cfg.conn_id)
            .field("cc", &self.cc.name())
            .field("subflows", &self.subflows.len())
            .field("data_next", &self.data_next)
            .field("data_acked", &self.data_acked)
            .finish()
    }
}

impl MptcpSender {
    /// Creates a sender with no paths yet; add them with
    /// [`MptcpSender::add_path`] before the start timer fires.
    pub fn new(cfg: FlowConfig, cc: Box<dyn MultipathCongestionControl>) -> Self {
        let rwnd = cfg.rcv_buf_pkts;
        MptcpSender {
            cfg,
            cc,
            subflows: Vec::new(),
            cc_states: Vec::new(),
            data_next: 0,
            data_acked: 0,
            peer_rwnd: rwnd,
            started_at: None,
            finished_at: None,
            samples: Vec::new(),
            last_sample_at: SimTime::ZERO,
            reinject_queue: VecDeque::new(),
            failover_reinjections: 0,
            zero_window: false,
            persist_backoff: 0,
            persist_gen: 0,
            persist_timer: None,
            probe: None,
            zero_window_stalls: 0,
            persist_probes: 0,
            corrupt_acks: 0,
        }
    }

    /// Adds a subflow along `route` (which must terminate at the paired
    /// receiver).
    pub fn add_path(&mut self, route: Arc<Route>) {
        self.subflows.push(SubflowState::new(route, &self.cfg));
        self.cc_states.push(SubflowCc::new());
    }

    /// Connection configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// Number of subflows.
    pub fn subflow_count(&self) -> usize {
        self.subflows.len()
    }

    /// Telemetry samples recorded so far.
    pub fn samples(&self) -> &[FlowSample] {
        &self.samples
    }

    /// Per-subflow congestion state (read-only).
    pub fn cc_states(&self) -> &[SubflowCc] {
        &self.cc_states
    }

    /// Subflow `r`'s transport counters.
    pub fn subflow(&self, r: usize) -> &SubflowCounters {
        &self.subflows[r].counters
    }

    /// When the connection started sending, if it has.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// When the whole transfer was acknowledged, for finite flows.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Whether a finite transfer has completed.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Packets of new data handed to the network so far.
    pub fn data_sent(&self) -> u64 {
        self.data_next
    }

    /// Packets cumulatively acknowledged at the connection level.
    pub fn data_acked(&self) -> u64 {
        self.data_acked
    }

    /// Total retransmissions across subflows.
    pub fn total_rexmits(&self) -> u64 {
        self.subflows.iter().map(|s| s.counters.rexmits).sum()
    }

    /// Total RTO events across subflows.
    pub fn total_rtos(&self) -> u64 {
        self.subflows.iter().map(|s| s.counters.rtos).sum()
    }

    /// Every subflow's counters, in path order.
    pub fn subflow_counters(&self) -> Vec<SubflowCounters> {
        self.subflows.iter().map(|sf| sf.counters).collect()
    }

    /// Mean goodput in bits/second between start and finish (or `until` for
    /// long-lived flows).
    pub fn goodput_bps(&self, until: SimTime) -> f64 {
        let Some(start) = self.started_at else { return 0.0 };
        let end = self.finished_at.unwrap_or(until);
        let secs = end.saturating_since(start).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.data_acked as f64 * f64::from(self.cfg.mss_bytes) * 8.0 / secs
        }
    }

    /// Freezes the connection for handoff to the flow-level (fluid) regime:
    /// truncates the transfer at the data already handed to the network and
    /// marks it finished as of `now`, so every send, retransmit, persist and
    /// sampling path sees a completed flow and goes quiet. Timers already
    /// armed fire once and no-op on the finished guard, so the residual
    /// event-queue cost is bounded. Data still in flight is abandoned — the
    /// fluid regime models the flow from here on. Idempotent; a no-op on an
    /// already-finished flow.
    pub fn halt(&mut self, now: SimTime) {
        if self.finished_at.is_some() {
            return;
        }
        self.cfg.total_pkts = Some(self.data_next);
        self.finished_at = Some(now);
        self.record_sample(now);
    }

    /// Per-path measured state for the fluid handoff: lifetime-average
    /// delivery rate plus the smoothed and minimum RTT estimates. Rates use
    /// the window `[started_at, finished_at]` (or `now` while live), so call
    /// after [`MptcpSender::halt`] for a frozen measurement.
    pub fn handoff_state(&self, now: SimTime) -> Vec<PathHandoff> {
        let Some(start) = self.started_at else {
            return vec![
                PathHandoff { rate_pps: 0.0, srtt_s: 0.0, base_rtt_s: 0.0 };
                self.subflows.len()
            ];
        };
        let end = self.finished_at.unwrap_or(now);
        let secs = end.saturating_since(start).as_secs_f64();
        self.subflows
            .iter()
            .zip(&self.cc_states)
            .map(|(sf, st)| PathHandoff {
                rate_pps: if secs > 0.0 { sf.counters.acked_pkts as f64 / secs } else { 0.0 },
                srtt_s: st.srtt,
                base_rtt_s: if st.base_rtt.is_finite() { st.base_rtt } else { 0.0 },
            })
            .collect()
    }

    fn arm_rto(&mut self, r: usize, ctx: &mut Ctx<'_>) {
        let sf = &mut self.subflows[r];
        sf.rto_gen += 1;
        let delay = sf.rtt.rto_backed_off(self.cc_states[r].srtt, sf.backoff);
        let h = *sf.rto_timer.get_or_insert_with(|| ctx.timer_slot());
        ctx.arm_timer(h, delay, rto_token(r, sf.rto_gen));
    }

    /// Disarms subflow `r`'s RTO (nothing outstanding to cover).
    fn disarm_rto(&mut self, r: usize, ctx: &mut Ctx<'_>) {
        self.subflows[r].rto_gen += 1;
        if let Some(h) = self.subflows[r].rto_timer {
            ctx.cancel_timer(h);
        }
    }

    fn transmit(&mut self, r: usize, seq: u64, retransmit: bool, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let sf = &mut self.subflows[r];
        let Some(seg) = sf.segs.get_mut(seq) else { return };
        let data_seq = seg.data_seq;
        if retransmit {
            seg.rexmits += 1;
            sf.counters.rexmits += 1;
        } else {
            sf.counters.tx_pkts += 1;
        }
        if !seg.in_pipe {
            seg.in_pipe = true;
            sf.pipe += 1;
        }
        seg.last_tx = now;
        // Subflow counts are tiny (one per path); the saturating fallback
        // just makes the index→wire-id conversion total.
        let subflow = u32::try_from(r).unwrap_or(u32::MAX);
        let payload = Payload::Data { conn: self.cfg.conn_id, subflow, seq, data_seq, retransmit };
        let route = self.subflows[r].route.clone();
        ctx.send(route, self.cfg.mss_bytes, payload);
    }

    fn cwnd_floor(&self, r: usize) -> u64 {
        self.cc_states[r].cwnd.floor().max(1.0) as u64
    }

    fn conn_window_limit(&self) -> u64 {
        // No floor: a peer advertising zero means zero. Progress is then the
        // persist timer's responsibility, not a clamp's.
        self.peer_rwnd.min(self.cfg.rcv_buf_pkts)
    }

    /// Whether unsent data remains (for finite transfers).
    fn more_data_pending(&self) -> bool {
        self.cfg.total_pkts.is_none_or(|t| self.data_next < t)
    }

    /// Whether subflow `r` may take a segment now: live and `pipe < cwnd`.
    fn has_space(&self, r: usize) -> bool {
        self.cc_states[r].active && self.subflows[r].pipe < self.cwnd_floor(r)
    }

    /// The `eligible` subflow with the lowest smoothed RTT, ties to the
    /// lowest index; a subflow with no RTT sample yet counts as `unsampled`.
    fn fastest(&self, unsampled: f64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for r in (0..self.subflows.len()).filter(|&r| eligible(r)) {
            let st = &self.cc_states[r];
            let srtt = if st.has_rtt() { st.srtt } else { unsampled };
            if !best.is_some_and(|(_, s)| s <= srtt) {
                best = Some((r, srtt));
            }
        }
        best.map(|(r, _)| r)
    }

    /// The live subflow with the lowest smoothed RTT, unsampled ones last
    /// (falling back to 0) — where window probes go.
    fn probe_subflow(&self) -> usize {
        self.fastest(f64::MAX, |r| self.cc_states[r].active).unwrap_or(0)
    }

    /// Enters the zero-window stall state and arms the persist timer.
    fn enter_zero_window(&mut self, ctx: &mut Ctx<'_>) {
        self.zero_window = true;
        self.zero_window_stalls += 1;
        self.persist_backoff = 0;
        ctx.emit(TraceEvent::ZeroWindowStall {
            t_ns: ctx.now().as_nanos(),
            conn: self.cfg.conn_id,
        });
        self.arm_persist(ctx);
    }

    fn arm_persist(&mut self, ctx: &mut Ctx<'_>) {
        self.persist_gen += 1;
        let r = self.probe_subflow();
        let delay =
            self.subflows[r].rtt.rto_backed_off(self.cc_states[r].srtt, self.persist_backoff);
        let h = *self.persist_timer.get_or_insert_with(|| ctx.timer_slot());
        ctx.arm_timer(h, delay, TK_PERSIST_BIT | (self.persist_gen & 0xffff_ffff));
    }

    /// Leaves the zero-window stall: disarm the persist timer, restore RTO
    /// coverage for anything outstanding (the probe included — its loss must
    /// not deadlock the connection), and let `pump` resume.
    fn exit_zero_window(&mut self, ctx: &mut Ctx<'_>) {
        self.zero_window = false;
        self.persist_backoff = 0;
        self.persist_gen += 1; // any already-dispatched persist fire is stale
        if let Some(h) = self.persist_timer {
            ctx.cancel_timer(h);
        }
        self.probe = None;
        ctx.emit(TraceEvent::ZeroWindowResume {
            t_ns: ctx.now().as_nanos(),
            conn: self.cfg.conn_id,
            rwnd_pkts: self.peer_rwnd,
        });
        for r in 0..self.subflows.len() {
            if self.subflows[r].has_outstanding() && self.cc_states[r].active {
                self.arm_rto(r, ctx);
            }
        }
    }

    /// Persist timer fired: send (or re-send) a one-packet window probe and
    /// re-arm with exponential backoff. Probes ride the normal transmit path
    /// but are covered by the persist timer instead of the RTO — a discarded
    /// probe elicits a pure window report, not delivery.
    fn on_persist(&mut self, gen: u64, ctx: &mut Ctx<'_>) {
        if gen != self.persist_gen & 0xffff_ffff || !self.zero_window || self.finished_at.is_some()
        {
            return; // stale timer
        }
        let (r, seq, first_send) = match self.probe {
            Some((r, seq)) => (r, seq, false),
            None => {
                // Materialize the probe: the next new data packet, charged to
                // the scoreboard like any segment so a window that reopens
                // mid-probe accounts for it normally.
                let r = self.probe_subflow();
                let seq = self.subflows[r].push_seg(self.data_next, ctx.now());
                self.data_next += 1;
                self.probe = Some((r, seq));
                (r, seq, true)
            }
        };
        self.persist_probes += 1;
        ctx.emit(TraceEvent::ZeroWindowProbe {
            t_ns: ctx.now().as_nanos(),
            conn: self.cfg.conn_id,
            subflow: r,
            backoff: self.persist_backoff,
        });
        self.transmit(r, seq, !first_send, ctx);
        self.persist_backoff = (self.persist_backoff + 1).min(16);
        self.arm_persist(ctx);
    }

    /// The transmission pump: repair classified losses first, then stripe new
    /// data over subflows with pipe space, all gated on `pipe < cwnd` and the
    /// connection-level receive window.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.started_at.is_none() || self.finished_at.is_some() {
            return;
        }
        let now = ctx.now();
        // 1. Loss repair per subflow (dead subflows only probe; see on_rto).
        for r in 0..self.subflows.len() {
            if !self.subflows[r].in_recovery || !self.cc_states[r].active {
                continue;
            }
            let wnd = self.cwnd_floor(r);
            let srtt = self.cc_states[r].srtt;
            while self.subflows[r].pipe < wnd {
                match self.subflows[r].next_rexmit(now, srtt) {
                    Some(seq) => {
                        self.subflows[r].counters.fast_rexmits += 1;
                        ctx.emit(TraceEvent::FastRexmit {
                            t_ns: now.as_nanos(),
                            conn: self.cfg.conn_id,
                            subflow: r,
                            seq,
                        });
                        self.transmit(r, seq, true, ctx);
                        self.arm_rto(r, ctx);
                    }
                    None => break,
                }
            }
        }
        // 2. Failover: re-send data stranded on dead subflows over live ones.
        self.drain_reinject_queue(ctx);
        // 3. New data to the lowest-SRTT subflow with space.
        loop {
            let outstanding = self.data_next - self.data_acked;
            let limit = self.conn_window_limit();
            if outstanding >= limit {
                // True zero-window stall: the peer advertises nothing, we
                // have nothing in flight to elicit an ACK, yet data remains.
                // Without a probe the connection deadlocks — enter persist.
                if limit == 0 && outstanding == 0 && self.more_data_pending() && !self.zero_window {
                    self.enter_zero_window(ctx);
                }
                return;
            }
            if let Some(total) = self.cfg.total_pkts {
                if self.data_next >= total {
                    return;
                }
            }
            let Some(r) = self.fastest(0.0, |r| self.has_space(r)) else { return };
            let was_idle = !self.subflows[r].has_outstanding();
            let data_seq = self.data_next;
            let seq = self.subflows[r].push_seg(data_seq, now);
            self.data_next += 1;
            ctx.emit(TraceEvent::SchedulerPick {
                t_ns: now.as_nanos(),
                conn: self.cfg.conn_id,
                subflow: r,
                data_seq,
            });
            self.transmit(r, seq, false, ctx);
            if was_idle {
                self.arm_rto(r, ctx);
            }
        }
    }

    /// Re-sends `data_seq` on subflow `r` under a fresh subflow sequence
    /// number, covered by `r`'s RTO.
    fn reinject(&mut self, r: usize, data_seq: u64, ctx: &mut Ctx<'_>) {
        let seq = self.subflows[r].push_seg(data_seq, ctx.now());
        self.transmit(r, seq, false, ctx);
        self.arm_rto(r, ctx);
    }

    /// Re-sends data sequences stranded on dead subflows over live ones, as
    /// window space allows. Each hole leaves the queue exactly once; holes
    /// the connection has meanwhile acknowledged are discarded.
    fn drain_reinject_queue(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(&data_seq) = self.reinject_queue.front() {
            if data_seq < self.data_acked {
                self.reinject_queue.pop_front();
                continue;
            }
            let Some(r) = self.fastest(f64::MAX, |r| self.has_space(r)) else { return };
            self.reinject_queue.pop_front();
            self.reinject(r, data_seq, ctx);
            self.failover_reinjections += 1;
        }
    }

    /// Declares subflow `r` dead: the scheduler skips it, every undelivered
    /// data sequence it holds is queued for reinjection onto live subflows,
    /// and its subsequent RTOs send only revival probes.
    fn mark_dead(&mut self, r: usize) {
        let data_acked = self.data_acked;
        self.subflows[r].counters.deaths += 1;
        self.cc_states[r].active = false;
        // Data already reinjected onto (and still carried by) another live
        // subflow is NOT stranded — a flapping subflow (die → revive → die)
        // must not enqueue the same data_seq a second time while the first
        // reinjection is still in flight elsewhere.
        let mut held_live: BTreeSet<u64> = BTreeSet::new();
        for (i, (sf, st)) in self.subflows.iter().zip(&self.cc_states).enumerate() {
            if i == r || !st.active {
                continue;
            }
            held_live.extend(
                sf.segs
                    .values()
                    .filter(|seg| !seg.delivered && seg.data_seq >= data_acked)
                    .map(|seg| seg.data_seq),
            );
        }
        let stranded: BTreeSet<u64> = self.subflows[r]
            .segs
            .values()
            .filter(|seg| {
                !seg.delivered && seg.data_seq >= data_acked && !held_live.contains(&seg.data_seq)
            })
            .map(|seg| seg.data_seq)
            .collect();
        for d in stranded {
            if !self.reinject_queue.contains(&d) {
                self.reinject_queue.push_back(d);
            }
        }
    }

    /// Revives subflow `r` after a probe was acknowledged: fresh RTT
    /// estimator, fresh congestion state (slow start), and recovery armed so
    /// the subflow-level backlog retransmits under the new window.
    fn revive(&mut self, r: usize) {
        let min_rto = self.cfg.min_rto;
        let sf = &mut self.subflows[r];
        sf.counters.revivals += 1;
        sf.backoff = 0;
        sf.rtt = RttEstimator::new(min_rto);
        sf.open_episode_from_head();
        self.cc_states[r] = SubflowCc::new();
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ack(
        &mut self,
        r: usize,
        cum_ack: u64,
        sack_high: u64,
        for_seq: Option<u64>,
        data_ack: u64,
        rwnd_pkts: u64,
        ecn_echo: bool,
        ts_echo: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        if r >= self.subflows.len() {
            return; // stray ACK for an unknown subflow
        }
        self.peer_rwnd = rwnd_pkts;
        let data_ack_advanced = data_ack > self.data_acked;
        self.data_acked = self.data_acked.max(data_ack);
        if self.zero_window {
            if self.peer_rwnd > 0 {
                // The window reopened — every persist probe elicits a window
                // report, so this arrives even when the probe data itself
                // was discarded at the receiver.
                self.exit_zero_window(ctx);
            } else if data_ack_advanced {
                // Still closed but making progress: restart the backoff, and
                // if the probe itself was delivered let the next fire probe
                // with fresh data — one packet squeezes through per probe.
                self.persist_backoff = 0;
                if self.data_acked >= self.data_next {
                    self.probe = None;
                }
            }
        }

        // A dead subflow whose probe moved the cumulative ACK is reachable
        // again: revive it (slow start, fresh RTT state) before this ACK's
        // sample feeds the estimators.
        if !self.cc_states[r].active && cum_ack > self.subflows[r].snd_una {
            let was_in_recovery = self.subflows[r].in_recovery;
            self.revive(r);
            let t_ns = ctx.now().as_nanos();
            ctx.emit(TraceEvent::SubflowRevived { t_ns, conn: self.cfg.conn_id, subflow: r });
            if !was_in_recovery {
                self.enter_recovery(r, RecoveryCause::Revival, ctx);
            }
        }

        // RTT sample from the receiver's echo of the segment timestamp:
        // immune to retransmission ambiguity (Karn's rule). The variance
        // reads the smoothed RTT before this sample moves it.
        let rtt_s = ctx.now().saturating_since(ts_echo).as_secs_f64();
        if rtt_s > 0.0 {
            self.subflows[r].rtt.observe(self.cc_states[r].srtt, rtt_s);
            self.cc_states[r].observe_rtt(rtt_s);
        }

        // Scoreboard updates. `for_seq: None` is a pure window report (e.g.
        // the reply to a discarded probe): no segment was delivered.
        let spurious = {
            let sf = &mut self.subflows[r];
            sf.sack_high = sf.sack_high.max(sack_high);
            match for_seq {
                Some(seq) => sf.mark_delivered(seq),
                None => false,
            }
        };
        if spurious {
            self.subflows[r].counters.spurious_rexmits += 1;
            ctx.emit(TraceEvent::SpuriousRexmit {
                t_ns: ctx.now().as_nanos(),
                conn: self.cfg.conn_id,
                subflow: r,
                seq: for_seq.unwrap_or(0),
            });
        }
        let newly_lost = self.subflows[r].advance_loss_scan();

        let snd_una = self.subflows[r].snd_una;
        if cum_ack > snd_una {
            let newly = cum_ack - snd_una;
            {
                let sf = &mut self.subflows[r];
                sf.counters.acked_pkts += newly;
                sf.slide(cum_ack);
                sf.snd_una = cum_ack;
                sf.backoff = 0;
            }
            if self.subflows[r].in_recovery && cum_ack >= self.subflows[r].recover {
                self.subflows[r].in_recovery = false;
                ctx.emit(TraceEvent::RecoveryExit {
                    t_ns: ctx.now().as_nanos(),
                    conn: self.cfg.conn_id,
                    subflow: r,
                    cum_ack,
                });
            }
            if !self.subflows[r].in_recovery {
                let cwnd_before = self.cc_states[r].cwnd;
                self.cc.on_ack(r, &mut self.cc_states, newly, ecn_echo);
                self.emit_cwnd_change(r, cwnd_before, ctx);
            }
            if self.subflows[r].has_outstanding() {
                self.arm_rto(r, ctx);
            } else {
                // Nothing outstanding: cancel the timer slot (and bump the
                // generation so any already-dispatched fire is stale).
                self.disarm_rto(r, ctx);
            }
        }

        // Enter fast recovery when fresh losses are classified outside an
        // episode (the congestion response fires once per episode).
        if newly_lost > 0 && !self.subflows[r].in_recovery {
            self.subflows[r].open_episode();
            self.enter_recovery(r, RecoveryCause::FastRetransmit, ctx);
            let cwnd_before = self.cc_states[r].cwnd;
            self.cc.on_loss(r, &mut self.cc_states);
            self.emit_cwnd_change(r, cwnd_before, ctx);
        }

        if let Some(total) = self.cfg.total_pkts {
            if self.data_acked >= total && self.finished_at.is_none() {
                self.finished_at = Some(ctx.now());
                self.record_sample(ctx.now());
            }
        }
        self.pump(ctx);
    }

    fn on_rto(&mut self, r: usize, gen: u64, ctx: &mut Ctx<'_>) {
        let sf = &self.subflows[r];
        if gen != sf.rto_gen & 0xffff_ffff || !sf.has_outstanding() || self.finished_at.is_some() {
            return; // stale timer
        }
        if !self.cc_states[r].active {
            // Revival probe: retransmit the head at the frozen backed-off
            // RTO. An answering ACK revives the subflow (see on_ack); the
            // congestion response does not fire again for a dead path.
            self.subflows[r].counters.probes += 1;
            let head = self.subflows[r].snd_una;
            self.transmit(r, head, true, ctx);
            self.arm_rto(r, ctx);
            return;
        }
        let was_in_recovery = self.subflows[r].in_recovery;
        {
            let sf = &mut self.subflows[r];
            sf.counters.rtos += 1;
            sf.backoff = (sf.backoff + 1).min(16);
            // RTO: every outstanding segment is presumed lost; pipe resets.
            for seg in sf.segs.values_mut() {
                seg.in_pipe = false;
            }
            sf.pipe = 0;
            sf.open_episode_from_head();
        }
        ctx.emit(TraceEvent::RtoFired {
            t_ns: ctx.now().as_nanos(),
            conn: self.cfg.conn_id,
            subflow: r,
            backoff: self.subflows[r].backoff,
        });
        if !was_in_recovery {
            self.enter_recovery(r, RecoveryCause::Rto, ctx);
        }
        let cwnd_before = self.cc_states[r].cwnd;
        self.cc.on_timeout(r, &mut self.cc_states);
        self.emit_cwnd_change(r, cwnd_before, ctx);
        let head = self.subflows[r].snd_una;
        self.transmit(r, head, true, ctx);
        self.subflows[r].rexmit_cursor = head + 1;
        self.arm_rto(r, ctx);
        // Graceful degradation: enough consecutive backoffs without forward
        // progress and the subflow is declared dead — its stranded data moves
        // to live subflows right away (the head retransmit above doubles as
        // the first revival probe).
        if let Some(k) = self.cfg.dead_after_backoffs {
            if self.subflows[r].backoff >= k {
                self.mark_dead(r);
                ctx.emit(TraceEvent::SubflowDead {
                    t_ns: ctx.now().as_nanos(),
                    conn: self.cfg.conn_id,
                    subflow: r,
                });
                self.pump(ctx);
            }
        }
    }

    /// Counts the episode subflow `r` just opened and emits its
    /// `RecoveryEnter`, so the counter and the trace cannot disagree.
    fn enter_recovery(&mut self, r: usize, cause: RecoveryCause, ctx: &mut Ctx<'_>) {
        self.subflows[r].counters.recoveries += 1;
        ctx.emit(TraceEvent::RecoveryEnter {
            t_ns: ctx.now().as_nanos(),
            conn: self.cfg.conn_id,
            subflow: r,
            recover: self.subflows[r].recover,
            cause,
        });
    }

    /// Emits a `CwndChange` event when the algorithm actually moved subflow
    /// `r`'s window across the preceding call.
    fn emit_cwnd_change(&mut self, r: usize, cwnd_before: f64, ctx: &mut Ctx<'_>) {
        let cwnd_pkts = self.cc_states[r].cwnd;
        // Change detection, not numeric comparison: any bit-level movement of
        // the window must produce an event, so no epsilon applies.
        #[allow(clippy::float_cmp)]
        if cwnd_pkts != cwnd_before {
            ctx.emit(TraceEvent::CwndChange {
                t_ns: ctx.now().as_nanos(),
                conn: self.cfg.conn_id,
                subflow: r,
                cwnd_pkts,
            });
        }
    }

    fn record_sample(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_sample_at).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let mss_bits = f64::from(self.cfg.mss_bytes) * 8.0;
        let finished = self.finished_at.is_some();
        let subflows = self
            .subflows
            .iter_mut()
            .zip(&self.cc_states)
            .map(|(sf, st)| {
                let delta = sf.counters.acked_pkts - sf.sample_prev_acked;
                sf.sample_prev_acked = sf.counters.acked_pkts;
                SubflowSample {
                    throughput_bps: delta as f64 * mss_bits / dt,
                    srtt_s: st.srtt,
                    base_rtt_s: if st.base_rtt.is_finite() { st.base_rtt } else { 0.0 },
                    active: st.active && !finished,
                }
            })
            .collect();
        self.samples.push(FlowSample { at: now, interval_s: dt, subflows });
        self.last_sample_at = now;
    }

    /// Online self-check for the invariant checker: sequencing and window
    /// bounds every call, plus a full scoreboard recount when `deep` (the
    /// caller throttles deep passes — they are O(segs)).
    #[cfg(feature = "check-invariants")]
    pub fn check_invariants(&self, deep: bool) -> Result<(), String> {
        let conn = self.cfg.conn_id;
        if self.data_acked > self.data_next {
            return Err(format!(
                "conn {conn}: data_acked {} ran past data_next {}",
                self.data_acked, self.data_next
            ));
        }
        for (r, (sf, st)) in self.subflows.iter().zip(&self.cc_states).enumerate() {
            if !st.cwnd.is_finite() || st.cwnd <= 0.0 {
                return Err(format!("conn {conn} sf{r}: cwnd degenerate: {}", st.cwnd));
            }
            if sf.snd_una > sf.snd_nxt {
                return Err(format!(
                    "conn {conn} sf{r}: snd_una {} past snd_nxt {}",
                    sf.snd_una, sf.snd_nxt
                ));
            }
            if sf.pipe as usize > sf.segs.len() {
                return Err(format!(
                    "conn {conn} sf{r}: pipe {} exceeds scoreboard size {}",
                    sf.pipe,
                    sf.segs.len()
                ));
            }
            if deep {
                let in_pipe = sf.segs.values().filter(|s| s.in_pipe).count() as u64;
                if in_pipe != sf.pipe {
                    return Err(format!(
                        "conn {conn} sf{r}: pipe {} != scoreboard recount {in_pipe}",
                        sf.pipe
                    ));
                }
                if let Some(s) = sf.segs.values().find(|s| s.delivered && s.in_pipe) {
                    return Err(format!(
                        "conn {conn} sf{r}: delivered segment still in pipe: {s:?}"
                    ));
                }
                if let Some((first, _)) = sf.segs.first() {
                    if first < sf.snd_una {
                        return Err(format!(
                            "conn {conn} sf{r}: scoreboard entry {first} below snd_una {}",
                            sf.snd_una
                        ));
                    }
                }
                if let Some(last) = sf.segs.last_seq() {
                    if last >= sf.snd_nxt {
                        return Err(format!(
                            "conn {conn} sf{r}: scoreboard entry {last} at/past snd_nxt {}",
                            sf.snd_nxt
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Watched for MptcpSender {
    fn progress(&self) -> u64 {
        self.data_acked
    }

    fn in_flight(&self) -> bool {
        self.started_at.is_some() && self.finished_at.is_none()
    }

    fn diagnostics(&self) -> String {
        let subflows = self
            .subflows
            .iter()
            .zip(&self.cc_states)
            .enumerate()
            .map(|(i, (sf, st))| {
                format!(
                    "sf{i}[{}cwnd={:.1} pipe={} una={} nxt={} backoff={} rto={:.3}s]",
                    if st.active { "" } else { "DEAD " },
                    st.cwnd,
                    sf.pipe,
                    sf.snd_una,
                    sf.snd_nxt,
                    sf.backoff,
                    sf.rtt.rto_backed_off(st.srtt, sf.backoff).as_secs_f64(),
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "conn {} cc={} acked={}/{} {}",
            self.cfg.conn_id,
            self.cc.name(),
            self.data_acked,
            self.cfg.total_pkts.map_or_else(|| "∞".into(), |t| t.to_string()),
            subflows
        )
    }
}

impl Agent for MptcpSender {
    fn watched(&self) -> Option<&dyn Watched> {
        Some(self)
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.corrupted {
            // Checksum failure: the ACK's fields cannot be trusted, so it is
            // discarded unparsed.
            self.corrupt_acks += 1;
            ctx.emit(TraceEvent::SegDiscard {
                t_ns: ctx.now().as_nanos(),
                conn: self.cfg.conn_id,
                pkt_id: pkt.id,
                cause: DiscardCause::Corrupt,
            });
            return;
        }
        if let Payload::Ack {
            conn,
            subflow,
            cum_ack,
            sack_high,
            for_seq,
            data_ack,
            rwnd_pkts,
            ecn_echo,
            ts_echo,
        } = pkt.payload
        {
            if conn == self.cfg.conn_id {
                self.on_ack(
                    subflow as usize,
                    cum_ack,
                    sack_high,
                    for_seq,
                    data_ack,
                    rwnd_pkts,
                    ecn_echo,
                    ts_echo,
                    ctx,
                );
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token & TK_RTO_BIT != 0 {
            let r = ((token >> 32) & 0x3fff_ffff) as usize;
            let gen = token & 0xffff_ffff;
            if r < self.subflows.len() {
                self.on_rto(r, gen, ctx);
            }
        } else if token & TK_PERSIST_BIT != 0 {
            self.on_persist(token & 0xffff_ffff, ctx);
        } else if token == TK_START {
            if self.started_at.is_none() {
                assert!(!self.subflows.is_empty(), "sender started with no paths");
                self.started_at = Some(ctx.now());
                self.last_sample_at = ctx.now();
                self.pump(ctx);
                ctx.schedule_in(self.cfg.sample_every, TK_SAMPLE);
            }
        } else if token == TK_SAMPLE && self.finished_at.is_none() {
            self.record_sample(ctx.now());
            ctx.schedule_in(self.cfg.sample_every, TK_SAMPLE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::AlgorithmKind;
    use netsim::{AgentId, SimDuration, Simulator};

    fn two_path_sender() -> MptcpSender {
        let mut s = MptcpSender::new(FlowConfig::new(0), AlgorithmKind::Lia.build(2));
        s.add_path(Route::direct(1));
        s.add_path(Route::direct(1));
        s
    }

    /// A flapping subflow (die → revive → die) must not enqueue a data
    /// sequence for reinjection a second time while the first reinjection is
    /// still held, undelivered, by another live subflow.
    #[test]
    fn mark_dead_skips_data_already_reinjected_elsewhere() {
        let mut s = two_path_sender();
        // Subflow 1 carries data 5 and 6, both undelivered.
        s.subflows[1].push_seg(5, SimTime::ZERO);
        s.subflows[1].push_seg(6, SimTime::ZERO);

        s.mark_dead(1);
        assert_eq!(s.reinject_queue, [5, 6], "first death strands both sequences");

        // The failover drain moved 5 and 6 onto live subflow 0 (still in
        // flight there), and subflow 1 then revived with its scoreboard
        // intact — the classic flap.
        s.reinject_queue.clear();
        s.subflows[0].push_seg(5, SimTime::ZERO);
        s.subflows[0].push_seg(6, SimTime::ZERO);
        s.revive(1);

        s.mark_dead(1);
        assert!(
            s.reinject_queue.is_empty(),
            "second death must not re-strand data held live elsewhere: {:?}",
            s.reinject_queue
        );
    }

    /// Data the live copy already delivered (or that only the dead subflow
    /// holds) still strands normally on a re-death.
    #[test]
    fn mark_dead_still_strands_unprotected_data() {
        let mut s = two_path_sender();
        s.subflows[1].push_seg(5, SimTime::ZERO);
        s.subflows[1].push_seg(6, SimTime::ZERO);
        // Subflow 0 holds a copy of 5, but it was already delivered — it no
        // longer protects 5 from re-stranding. Nothing covers 6.
        s.subflows[0].push_seg(5, SimTime::ZERO);
        s.subflows[0].segs.get_mut(0).unwrap().delivered = true;

        s.mark_dead(1);
        assert_eq!(s.reinject_queue, [5, 6]);
    }

    /// Sequences below the connection-level cumulative ACK never strand.
    #[test]
    fn mark_dead_ignores_already_acked_data() {
        let mut s = two_path_sender();
        s.subflows[1].push_seg(5, SimTime::ZERO);
        s.subflows[1].push_seg(6, SimTime::ZERO);
        s.data_acked = 6;

        s.mark_dead(1);
        assert_eq!(s.reinject_queue, [6], "only data at/above the data ACK strands");
    }

    /// A three-path LIA sender whose subflows carry the given smoothed RTTs
    /// (`None`: no sample yet).
    fn three_path_sender(cfg: FlowConfig, srtts: [Option<f64>; 3]) -> MptcpSender {
        let mut s = MptcpSender::new(cfg, AlgorithmKind::Lia.build(3));
        for (r, srtt) in srtts.into_iter().enumerate() {
            s.add_path(Route::direct(0));
            if let Some(srtt) = srtt {
                s.cc_states[r].observe_rtt(srtt);
            }
        }
        s
    }

    /// Fires `s`'s start timer in a fresh simulator: exactly one `pump`.
    fn pump_once(s: MptcpSender) -> (Simulator, AgentId) {
        let mut sim = Simulator::new(1);
        let id = sim.add_agent(Box::new(s));
        sim.kick(id, SimDuration::ZERO, TK_START);
        assert!(sim.step());
        (sim, id)
    }

    /// Segments each subflow has been handed.
    fn pushed(s: &MptcpSender) -> Vec<u64> {
        s.subflows.iter().map(|sf| sf.snd_nxt).collect()
    }

    /// New data goes to the lowest-SRTT subflow with space, an unsampled
    /// subflow counting as the fastest; ties go to the lowest index.
    #[test]
    fn new_data_tries_an_unsampled_subflow_first() {
        for (srtts, want) in [
            ([Some(0.05), None, Some(0.01)], [0, 1, 0]),
            ([Some(0.02), Some(0.01), Some(0.01)], [0, 1, 0]),
            ([None, None, None], [1, 0, 0]),
        ] {
            let (sim, id) =
                pump_once(three_path_sender(FlowConfig::new(0).transfer_pkts(1), srtts));
            assert_eq!(pushed(sim.agent(id)), want, "srtts {srtts:?}");
        }
    }

    /// Failover reinjection tries an unsampled subflow last: a sampled one
    /// with space wins even with a larger SRTT.
    #[test]
    fn failover_reinjection_skips_an_unsampled_subflow() {
        let mut s =
            three_path_sender(FlowConfig::new(0).transfer_pkts(1), [Some(0.05), None, Some(0.01)]);
        s.data_next = 1;
        s.reinject_queue.push_back(0);
        s.subflows[2].pipe = s.cwnd_floor(2);
        let (sim, id) = pump_once(s);
        let s: &MptcpSender = sim.agent(id);
        assert_eq!(pushed(s), [1, 0, 0]);
        assert_eq!(s.failover_reinjections, 1);
    }

    /// Window probes go to the fastest live subflow, unsampled ones last,
    /// ties to the lowest index, and to subflow 0 when every one is dead.
    #[test]
    fn window_probes_pick_the_fastest_sampled_live_subflow() {
        let mut s = three_path_sender(FlowConfig::new(0), [Some(0.01), None, Some(0.01)]);
        assert_eq!(s.probe_subflow(), 0);
        s.mark_dead(0);
        assert_eq!(s.probe_subflow(), 2);
        s.mark_dead(2);
        assert_eq!(s.probe_subflow(), 1);
        s.mark_dead(1);
        assert_eq!(s.probe_subflow(), 0);
    }
}
