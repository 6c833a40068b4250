//! The MPTCP receiver endpoint.
//!
//! Acknowledges every data segment with a per-subflow cumulative ACK plus a
//! connection-level data ACK, echoes the segment timestamp (for Karn-safe RTT
//! sampling at the sender) and the ECN CE mark (DCTCP-style per-packet echo),
//! and advertises the remaining connection-level buffer space as the receive
//! window.
//!
//! The receive buffer is genuinely finite: in-order data not yet consumed by
//! the application ([`crate::config::AppRead`]) and out-of-order data held
//! for reassembly share `rcv_buf_pkts`. When it fills, the advertised window
//! drops to **zero** (no floor) and segments that would overflow are
//! discarded — acknowledged only with a pure window report (`for_seq: None`)
//! so the sender learns the window without mistaking the drop for delivery.
//! Corrupted segments are discarded without any ACK (checksum-failure
//! semantics). The receiver never sends gratuitous window updates when space
//! reopens; recovering from a zero window is the sender's persist machinery's
//! job, which models the lost-window-update worst case.

use crate::config::{AppRead, DEFAULT_ACK_BYTES};
use netsim::{Agent, Ctx, Packet, Payload, Route};
use obs::{DiscardCause, TraceEvent};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Timer token: application read tick.
const TK_APP_READ: u64 = 1;

/// Per-subflow receive state.
#[derive(Debug, Default)]
struct SubflowRecv {
    /// Next expected subflow sequence.
    rcv_nxt: u64,
    /// Out-of-order subflow sequences held for reassembly.
    ooo: BTreeSet<u64>,
    /// One past the highest sequence ever received (the SACK hint).
    sack_high: u64,
}

/// What [`MptcpReceiver::accept_data`] did with a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Accept {
    /// New data accepted (in order or buffered for reassembly).
    Ok,
    /// Already-seen data; discarded but acknowledged (dup-ACK discipline).
    Duplicate,
    /// New data rejected: the connection-level receive buffer is full.
    DroppedWindow,
    /// New data rejected: the subflow reassembly buffer is full.
    DroppedOoo,
}

/// The receiving endpoint of an (MP)TCP connection.
#[derive(Debug)]
pub struct MptcpReceiver {
    conn_id: u64,
    rcv_buf_pkts: u64,
    app_read: Option<AppRead>,
    /// Reverse (ACK) route per subflow.
    reverse: Vec<Arc<Route>>,
    subflows: Vec<SubflowRecv>,
    /// Next expected connection-level data sequence.
    data_rcv_nxt: u64,
    /// Out-of-order data sequences buffered at the connection level.
    data_ooo: BTreeSet<u64>,
    /// In-order packets delivered but not yet consumed by the application.
    app_buffered: u64,
    /// Packets the application has consumed (the exactly-once watermark).
    app_delivered: u64,
    app_timer_armed: bool,
    /// Duplicate segments discarded.
    pub duplicates: u64,
    /// Segments dropped because the connection-level buffer was full.
    pub rwnd_dropped: u64,
    /// Segments dropped because a subflow's reassembly buffer was full.
    pub ooo_dropped: u64,
    /// Corrupted segments discarded without acknowledgement.
    pub corrupt_discards: u64,
}

impl MptcpReceiver {
    /// Creates a receiver; wire subflow ACK routes with
    /// [`MptcpReceiver::add_path`].
    pub fn new(conn_id: u64, rcv_buf_pkts: u64) -> Self {
        MptcpReceiver {
            conn_id,
            rcv_buf_pkts: rcv_buf_pkts.max(2),
            app_read: None,
            reverse: Vec::new(),
            subflows: Vec::new(),
            data_rcv_nxt: 0,
            data_ooo: BTreeSet::new(),
            app_buffered: 0,
            app_delivered: 0,
            app_timer_armed: false,
            duplicates: 0,
            rwnd_dropped: 0,
            ooo_dropped: 0,
            corrupt_discards: 0,
        }
    }

    /// Installs an application read model (default: instant consumption).
    pub fn set_app_read(&mut self, app_read: Option<AppRead>) {
        self.app_read = app_read;
    }

    /// Adds the ACK route for the next subflow (must terminate at the paired
    /// sender).
    pub fn add_path(&mut self, reverse: Arc<Route>) {
        self.reverse.push(reverse);
        self.subflows.push(SubflowRecv::default());
    }

    /// Packets delivered in order at the connection level.
    pub fn data_delivered(&self) -> u64 {
        self.data_rcv_nxt
    }

    /// Packets the application has consumed. Equals
    /// [`MptcpReceiver::data_delivered`] unless an [`AppRead`] model lags
    /// behind; `app_delivered + app_buffered == data_rcv_nxt` always.
    pub fn app_delivered(&self) -> u64 {
        self.app_delivered
    }

    /// In-order packets awaiting application consumption.
    pub fn app_buffered(&self) -> u64 {
        self.app_buffered
    }

    /// Buffer occupancy: unconsumed in-order data plus reassembly holds.
    fn buffered_pkts(&self) -> u64 {
        self.app_buffered + self.data_ooo.len() as u64
    }

    /// Current advertised window in packets. Genuinely reaches zero when the
    /// buffer is full — the sender must handle it (persist probes), not rely
    /// on a floor.
    pub fn rwnd_pkts(&self) -> u64 {
        self.rcv_buf_pkts.saturating_sub(self.buffered_pkts())
    }

    fn accept_data(&mut self, r: usize, seq: u64, data_seq: u64) -> Accept {
        // Admission control *before* any state change: a segment that would
        // overflow the connection buffer or the subflow reassembly buffer is
        // rejected as if it never arrived (no SACK hint, no reassembly).
        let new_conn_data = data_seq >= self.data_rcv_nxt && !self.data_ooo.contains(&data_seq);
        if new_conn_data && self.buffered_pkts() >= self.rcv_buf_pkts {
            self.rwnd_dropped += 1;
            return Accept::DroppedWindow;
        }
        {
            let sf = &self.subflows[r];
            if seq > sf.rcv_nxt
                && !sf.ooo.contains(&seq)
                && sf.ooo.len() as u64 >= self.rcv_buf_pkts
            {
                self.ooo_dropped += 1;
                return Accept::DroppedOoo;
            }
        }
        // Subflow-level reassembly (drives cumulative ACK / dupACK signal).
        let mut duplicate = false;
        let sf = &mut self.subflows[r];
        sf.sack_high = sf.sack_high.max(seq + 1);
        if seq == sf.rcv_nxt {
            sf.rcv_nxt += 1;
            while sf.ooo.remove(&sf.rcv_nxt) {
                sf.rcv_nxt += 1;
            }
        } else if seq > sf.rcv_nxt {
            if !sf.ooo.insert(seq) {
                duplicate = true;
                self.duplicates += 1;
            }
        } else {
            duplicate = true;
            self.duplicates += 1;
        }
        // Connection-level reordering (drives the data ACK and rwnd).
        if data_seq == self.data_rcv_nxt {
            self.data_rcv_nxt += 1;
            self.app_buffered += 1;
            while self.data_ooo.remove(&self.data_rcv_nxt) {
                self.data_rcv_nxt += 1;
                self.app_buffered += 1;
            }
        } else if data_seq > self.data_rcv_nxt {
            self.data_ooo.insert(data_seq);
        }
        if duplicate {
            Accept::Duplicate
        } else {
            Accept::Ok
        }
    }

    /// Consumes buffered in-order data per the application model: instantly
    /// with no model, else by arming the read timer.
    fn drain_app(&mut self, ctx: &mut Ctx<'_>) {
        match self.app_read {
            None => {
                self.app_delivered += self.app_buffered;
                self.app_buffered = 0;
            }
            Some(ar) => {
                if self.app_buffered > 0 && !self.app_timer_armed {
                    self.app_timer_armed = true;
                    ctx.schedule_in(ar.interval, TK_APP_READ);
                }
            }
        }
    }
}

impl Agent for MptcpReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let Payload::Data { conn, subflow, seq, data_seq, .. } = pkt.payload else {
            return;
        };
        if conn != self.conn_id {
            return;
        }
        let r = subflow as usize;
        if r >= self.subflows.len() {
            return; // unknown subflow — wiring error upstream
        }
        if pkt.corrupted {
            // Checksum failure: drop silently, no ACK of any kind.
            self.corrupt_discards += 1;
            ctx.emit(TraceEvent::SegDiscard {
                t_ns: ctx.now().as_nanos(),
                conn: self.conn_id,
                pkt_id: pkt.id,
                cause: DiscardCause::Corrupt,
            });
            return;
        }
        let verdict = self.accept_data(r, seq, data_seq);
        self.drain_app(ctx);
        let for_seq = match verdict {
            Accept::Ok | Accept::Duplicate => Some(seq),
            Accept::DroppedWindow => {
                ctx.emit(TraceEvent::SegDiscard {
                    t_ns: ctx.now().as_nanos(),
                    conn: self.conn_id,
                    pkt_id: pkt.id,
                    cause: DiscardCause::WindowFull,
                });
                None
            }
            Accept::DroppedOoo => {
                ctx.emit(TraceEvent::SegDiscard {
                    t_ns: ctx.now().as_nanos(),
                    conn: self.conn_id,
                    pkt_id: pkt.id,
                    cause: DiscardCause::OooLimit,
                });
                None
            }
        };
        let ack = Payload::Ack {
            conn: self.conn_id,
            subflow,
            cum_ack: self.subflows[r].rcv_nxt,
            sack_high: self.subflows[r].sack_high,
            for_seq,
            data_ack: self.data_rcv_nxt,
            rwnd_pkts: self.rwnd_pkts(),
            ecn_echo: pkt.ecn_ce,
            ts_echo: pkt.sent_at,
        };
        let route = self.reverse[r].clone();
        ctx.send(route, DEFAULT_ACK_BYTES, ack);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token != TK_APP_READ {
            return;
        }
        let Some(ar) = self.app_read else { return };
        let n = ar.pkts.min(self.app_buffered);
        self.app_buffered -= n;
        self.app_delivered += n;
        // Deliberately no window-update ACK here: space reopening is
        // discovered by the sender's persist probes.
        if self.app_buffered > 0 {
            ctx.schedule_in(ar.interval, TK_APP_READ);
        } else {
            self.app_timer_armed = false;
        }
    }

    /// Exactly-once accounting, reassembly-buffer ordering, and buffer
    /// bounds.
    #[cfg(feature = "check-invariants")]
    fn check_invariants(&self, _sim: &netsim::Simulator, _deep: bool) -> Result<(), String> {
        let conn = self.conn_id;
        if self.app_delivered + self.app_buffered != self.data_rcv_nxt {
            return Err(format!(
                "conn {conn}: exactly-once broken: app_delivered {} + app_buffered {} != \
                 data_rcv_nxt {}",
                self.app_delivered, self.app_buffered, self.data_rcv_nxt
            ));
        }
        if let Some(&min) = self.data_ooo.first() {
            if min <= self.data_rcv_nxt {
                return Err(format!(
                    "conn {conn}: reassembly buffer holds already-delivered data {min} \
                     (data_rcv_nxt {})",
                    self.data_rcv_nxt
                ));
            }
        }
        if self.buffered_pkts() > self.rcv_buf_pkts {
            return Err(format!(
                "conn {conn}: receive buffer overfull: {} > {}",
                self.buffered_pkts(),
                self.rcv_buf_pkts
            ));
        }
        for (r, sf) in self.subflows.iter().enumerate() {
            if let Some(&min) = sf.ooo.first() {
                if min <= sf.rcv_nxt {
                    return Err(format!(
                        "conn {conn} sf{r}: subflow reassembly holds received seq {min} \
                         (rcv_nxt {})",
                        sf.rcv_nxt
                    ));
                }
            }
            if sf.ooo.len() as u64 > self.rcv_buf_pkts {
                return Err(format!(
                    "conn {conn} sf{r}: subflow reassembly overfull: {} > {}",
                    sf.ooo.len(),
                    self.rcv_buf_pkts
                ));
            }
            if sf.sack_high < sf.rcv_nxt {
                return Err(format!(
                    "conn {conn} sf{r}: sack_high {} below rcv_nxt {}",
                    sf.sack_high, sf.rcv_nxt
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv() -> MptcpReceiver {
        let mut r = MptcpReceiver::new(1, 16);
        r.add_path(Route::direct(0));
        r
    }

    #[test]
    fn in_order_advances_both_levels() {
        let mut r = recv();
        assert_eq!(r.accept_data(0, 0, 0), Accept::Ok);
        assert_eq!(r.accept_data(0, 1, 1), Accept::Ok);
        assert_eq!(r.subflows[0].rcv_nxt, 2);
        assert_eq!(r.data_delivered(), 2);
        // Nothing consumed yet (drain_app not called): 2 packets buffered.
        assert_eq!(r.rwnd_pkts(), 14);
        r.app_delivered += r.app_buffered;
        r.app_buffered = 0;
        assert_eq!(r.rwnd_pkts(), 16);
    }

    #[test]
    fn gap_is_held_then_released() {
        let mut r = recv();
        r.accept_data(0, 0, 0);
        r.app_buffered = 0; // app consumed
        r.accept_data(0, 2, 2); // hole at 1
        assert_eq!(r.subflows[0].rcv_nxt, 1);
        assert_eq!(r.data_delivered(), 1);
        assert_eq!(r.rwnd_pkts(), 15);
        r.accept_data(0, 1, 1);
        r.app_buffered = 0;
        assert_eq!(r.subflows[0].rcv_nxt, 3);
        assert_eq!(r.data_delivered(), 3);
        assert_eq!(r.rwnd_pkts(), 16);
    }

    #[test]
    fn duplicates_are_counted() {
        let mut r = recv();
        assert_eq!(r.accept_data(0, 0, 0), Accept::Ok);
        assert_eq!(r.accept_data(0, 0, 0), Accept::Duplicate);
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.data_delivered(), 1);
    }

    #[test]
    fn out_of_order_duplicates_are_counted_once_held() {
        let mut r = recv();
        assert_eq!(r.accept_data(0, 3, 3), Accept::Ok);
        assert_eq!(r.accept_data(0, 3, 3), Accept::Duplicate);
        assert_eq!(r.duplicates, 1);
    }

    #[test]
    fn connection_level_reorders_across_subflows() {
        let mut r = recv();
        r.add_path(Route::direct(0)); // second subflow
                                      // Data 0 on subflow 1, data 1 on subflow 0: both in subflow order.
        r.accept_data(1, 0, 1);
        assert_eq!(r.data_delivered(), 0); // waiting for data 0
        r.accept_data(0, 0, 0);
        assert_eq!(r.data_delivered(), 2);
    }

    #[test]
    fn full_buffer_advertises_a_zero_window_and_sheds_new_data() {
        let mut r = MptcpReceiver::new(1, 2);
        r.add_path(Route::direct(0));
        // Two reassembly holds fill the 2-packet buffer.
        assert_eq!(r.accept_data(0, 1, 1), Accept::Ok);
        assert_eq!(r.accept_data(0, 2, 2), Accept::Ok);
        assert_eq!(r.rwnd_pkts(), 0, "no floor: a full buffer advertises zero");
        // A third new segment — even the in-order one — is shed.
        assert_eq!(r.accept_data(0, 0, 0), Accept::DroppedWindow);
        assert_eq!(r.rwnd_dropped, 1);
        assert_eq!(r.data_delivered(), 0, "the shed segment left no trace");
        // A duplicate of held data is still acknowledged, not shed.
        assert_eq!(r.accept_data(0, 1, 1), Accept::Duplicate);
    }

    #[test]
    fn unconsumed_app_data_closes_the_window() {
        let mut r = MptcpReceiver::new(1, 2);
        r.add_path(Route::direct(0));
        assert_eq!(r.accept_data(0, 0, 0), Accept::Ok);
        assert_eq!(r.accept_data(0, 1, 1), Accept::Ok);
        // In-order, but the app has not read: buffer full, window zero.
        assert_eq!(r.app_buffered(), 2);
        assert_eq!(r.rwnd_pkts(), 0);
        assert_eq!(r.accept_data(0, 2, 2), Accept::DroppedWindow);
        // The app reads one packet: one slot reopens.
        r.app_buffered -= 1;
        r.app_delivered += 1;
        assert_eq!(r.rwnd_pkts(), 1);
        assert_eq!(r.accept_data(0, 2, 2), Accept::Ok);
    }

    #[test]
    fn subflow_reassembly_buffer_is_bounded() {
        let mut r = MptcpReceiver::new(1, 2);
        r.add_path(Route::direct(0));
        // Reinjection can resend one data sequence under many fresh subflow
        // sequences: the conn level sees a known hold (no window charge) but
        // the subflow reassembly set keeps growing — until its own cap.
        assert_eq!(r.accept_data(0, 5, 1), Accept::Ok);
        assert_eq!(r.accept_data(0, 7, 1), Accept::Ok);
        assert_eq!(r.subflows[0].ooo.len(), 2);
        assert_eq!(r.accept_data(0, 9, 1), Accept::DroppedOoo);
        assert_eq!(r.ooo_dropped, 1);
        assert_eq!(r.subflows[0].ooo.len(), 2, "the shed segment was not held");
    }

    #[test]
    fn exactly_once_accounting_holds() {
        let mut r = recv();
        for (seq, data_seq) in [(0, 0), (2, 2), (1, 1), (2, 2)] {
            r.accept_data(0, seq, data_seq);
        }
        assert_eq!(r.app_delivered + r.app_buffered, r.data_rcv_nxt);
        assert_eq!(r.data_delivered(), 3);
        assert_eq!(r.duplicates, 1);
    }
}
