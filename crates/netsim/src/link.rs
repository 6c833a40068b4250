//! Links: bandwidth, propagation delay, DropTail queues, ECN marking.
//!
//! A [`Link`] is a unidirectional store-and-forward pipe. Packets that arrive
//! while the link is transmitting join a FIFO queue bounded by
//! [`LinkConfig::queue_limit_pkts`]; arrivals beyond the bound are dropped
//! (DropTail). If an ECN threshold `K` is configured, an arriving packet is
//! marked Congestion-Experienced when the instantaneous occupancy it finds —
//! the packet in service plus the queued packets — is strictly greater than
//! `K`, which is DCTCP's marking discipline ("mark if queue occupancy > K
//! upon arrival", Alizadeh et al.).

use crate::faults::Impairment;
use crate::pool::PacketSlot;
use crate::time::{SimDuration, SimTime};
use obs::DropCause;
use std::collections::VecDeque;

/// Configuration of a unidirectional link.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkConfig {
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// DropTail queue bound, in packets (excluding the packet in service).
    pub queue_limit_pkts: usize,
    /// ECN marking threshold `K` in packets: an arriving packet is CE-marked
    /// when the occupancy it finds (in-service + queued packets) is strictly
    /// greater than `K`. `None` disables marking.
    pub ecn_threshold_pkts: Option<usize>,
}

impl LinkConfig {
    /// A link with the given rate (bits/s) and propagation delay and a default
    /// 100-packet DropTail queue, no ECN.
    pub fn new(bandwidth_bps: u64, propagation: SimDuration) -> Self {
        LinkConfig { bandwidth_bps, propagation, queue_limit_pkts: 100, ecn_threshold_pkts: None }
    }

    /// Sets the DropTail queue bound in packets.
    pub fn queue_limit(mut self, pkts: usize) -> Self {
        self.queue_limit_pkts = pkts;
        self
    }

    /// Enables ECN marking at threshold `k` packets.
    pub fn ecn_threshold(mut self, k: usize) -> Self {
        self.ecn_threshold_pkts = Some(k);
        self
    }

    /// Serialization delay of `bytes` at this link's rate.
    ///
    /// # Panics
    ///
    /// Panics if the configured bandwidth is zero.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        assert!(self.bandwidth_bps > 0, "link bandwidth must be positive");
        // `bytes·8·10⁹` fits a u64 below ~2.3 GB, every size ever sent, and
        // there the u64 quotient is the u128 one without the software
        // 128-bit division.
        if let Some(bit_ns) = u64::from(bytes).checked_mul(8 * 1_000_000_000) {
            return SimDuration::from_nanos(bit_ns / self.bandwidth_bps);
        }
        let ns = (u128::from(bytes) * 8 * 1_000_000_000) / u128::from(self.bandwidth_bps);
        // A bare `as u64` here used to truncate: u32::MAX bytes at 1 bit/s is
        // ~3.4e19 ns, past u64::MAX, and wrapped to a *shorter* delay.
        SimDuration::from_nanos_u128(ns)
    }
}

/// Counters accumulated by a link over a run: the one per-link record,
/// read through [`crate::World::link_counters`] or [`Link::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets fully transmitted.
    pub tx_pkts: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped because the DropTail queue was full.
    pub drops_queue: u64,
    /// Packets CE-marked by ECN.
    pub ecn_marks: u64,
    /// High-water mark of queue occupancy (packets, excluding in-service).
    pub queue_high_water: usize,
    /// Packets lost to the link's random-loss impairment
    /// ([`crate::faults::LossModel`]).
    pub drops_fault: u64,
    /// Packets dropped because the link was down, including queued packets
    /// drained when the link went down.
    pub drops_blackout: u64,
    /// Packets offered to the link (whether accepted, queued, or dropped).
    /// Conservation invariant: `offered = tx_pkts + queue_len + in_service +
    /// drops()` at any event boundary.
    pub offered: u64,
    /// Packet copies delayed by the reorder impairment after transmission.
    pub reordered: u64,
    /// Extra packet copies created by the duplication impairment.
    pub duplicated: u64,
    /// Packets poisoned by the corruption impairment (still delivered).
    pub corrupted: u64,
}

impl LinkStats {
    /// Total drops across all causes.
    pub fn drops(&self) -> u64 {
        self.drops_queue + self.drops_fault + self.drops_blackout
    }
}

/// Runtime state of a unidirectional link.
#[derive(Debug)]
pub struct Link {
    cfg: LinkConfig,
    impairment: Impairment,
    /// Waiting packets as `(handle, wire size)`: the packets themselves stay
    /// in the simulator's slab, and the size rides along so that starting
    /// the next transmission does not have to look it up there.
    queue: VecDeque<(PacketSlot, u32)>,
    in_flight: Option<(PacketSlot, u32)>,
    /// Memo of the last two `(size, serialization delay)` pairs, so the
    /// u128 multiply/divide in [`LinkConfig::serialization`] leaves the
    /// per-packet path (traffic is dominated by one data size and one ACK
    /// size). Invalidated by [`Link::set_bandwidth`] and
    /// [`Link::set_background_bps`].
    ser_cache: [Option<(u32, SimDuration)>; 2],
    /// Bits/second of capacity claimed by an external background load (the
    /// hybrid engine's fluid regime). Packets serialize at the residual
    /// rate; see [`Link::set_background_bps`].
    background_bps: u64,
    /// Integral of queue length over time (packet-seconds), for mean-queue
    /// telemetry used by energy-proportional pricing.
    qlen_integral: f64,
    last_q_change: SimTime,
    stats: LinkStats,
}

/// What happened when a packet was offered to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Enqueue {
    /// The link was idle; transmission starts now and completes after the
    /// contained serialization delay.
    StartTx(SimDuration),
    /// The packet joined the queue. With `ce`, it found the queue over the
    /// ECN threshold and the caller must set its Congestion-Experienced mark.
    Queued { ce: bool },
    /// The queue was full: the link did not keep the handle, and the caller
    /// must free the packet.
    Dropped,
}

impl Link {
    /// Creates an idle link.
    pub fn new(cfg: LinkConfig) -> Self {
        Link {
            cfg,
            impairment: Impairment::default(),
            queue: VecDeque::new(),
            in_flight: None,
            ser_cache: [None; 2],
            background_bps: 0,
            qlen_integral: 0.0,
            last_q_change: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Changes the link rate at runtime (failure injection / rate
    /// adaptation). The packet currently in service keeps its old
    /// serialization schedule; subsequent packets use the new rate.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn set_bandwidth(&mut self, bps: u64) {
        assert!(bps > 0, "bandwidth must be positive");
        self.cfg.bandwidth_bps = bps;
        self.ser_cache = [None; 2];
    }

    /// Declares that an external (flow-level) background load occupies `bps`
    /// of this link, so packet-level traffic serializes at the residual rate
    /// `bandwidth − bps`. The residual is floored at 1% of the nominal rate
    /// (never zero): the fluid regime may claim at most 99% of a shared
    /// link, which keeps the packet engine live and serialization delays
    /// finite. The nominal configuration is untouched and
    /// [`Link::utilization`] keeps measuring against nominal capacity.
    ///
    /// The packet currently in service keeps its old serialization schedule;
    /// subsequent packets use the residual rate.
    pub fn set_background_bps(&mut self, bps: u64) {
        if bps != self.background_bps {
            self.background_bps = bps;
            self.ser_cache = [None; 2];
        }
    }

    /// The background load installed by [`Link::set_background_bps`].
    pub fn background_bps(&self) -> u64 {
        self.background_bps
    }

    /// The residual rate packet traffic serializes at: nominal bandwidth
    /// minus background load, floored at 1% of nominal.
    pub fn effective_bandwidth_bps(&self) -> u64 {
        let floor = (self.cfg.bandwidth_bps / 100).max(1);
        self.cfg.bandwidth_bps.saturating_sub(self.background_bps).max(floor)
    }

    /// [`LinkConfig::serialization`] through the link's two-entry memo, at
    /// the residual (background-adjusted) rate.
    fn serialization_cached(&mut self, bytes: u32) -> SimDuration {
        if let Some((b, d)) = self.ser_cache[0] {
            if b == bytes {
                return d;
            }
        }
        if let Some((b, d)) = self.ser_cache[1] {
            if b == bytes {
                // Promote so the other hot size stays resident too.
                self.ser_cache.swap(0, 1);
                return d;
            }
        }
        let d = if self.background_bps == 0 {
            self.cfg.serialization(bytes)
        } else {
            LinkConfig { bandwidth_bps: self.effective_bandwidth_bps(), ..self.cfg.clone() }
                .serialization(bytes)
        };
        self.ser_cache[1] = self.ser_cache[0];
        self.ser_cache[0] = Some((bytes, d));
        d
    }

    /// Changes the propagation delay at runtime (mobility / path change
    /// injection). Applies to packets completing transmission afterwards.
    pub fn set_propagation(&mut self, propagation: SimDuration) {
        self.cfg.propagation = propagation;
    }

    /// The link's impairment state (loss model, up/down).
    pub fn impairment(&self) -> &Impairment {
        &self.impairment
    }

    /// Mutable impairment state, e.g. to install a loss model at setup time.
    pub fn impairment_mut(&mut self) -> &mut Impairment {
        &mut self.impairment
    }

    /// Whether the link is administratively up.
    pub fn is_up(&self) -> bool {
        self.impairment.is_up()
    }

    /// Counts a packet offered to the link and applies the impairments that
    /// act where the wire starts: a down link swallows it outright, then the
    /// loss process rolls. Returns the cause of a drop, counted here, or
    /// `None` if the packet goes on to the DropTail queue.
    pub(crate) fn admit(&mut self, rng: &mut rand::rngs::SmallRng) -> Option<DropCause> {
        self.stats.offered += 1;
        if !self.impairment.is_up() {
            self.stats.drops_blackout += 1;
            return Some(DropCause::Blackout);
        }
        if self.impairment.roll_loss(rng) {
            self.stats.drops_fault += 1;
            return Some(DropCause::FaultLoss);
        }
        None
    }

    /// Counts a packet copy delayed by the reorder impairment.
    pub(crate) fn note_reordered(&mut self) {
        self.stats.reordered += 1;
    }

    /// Counts an extra copy created by the duplication impairment.
    pub(crate) fn note_duplicated(&mut self) {
        self.stats.duplicated += 1;
    }

    /// Counts a packet poisoned by the corruption impairment.
    pub(crate) fn note_corrupted(&mut self) {
        self.stats.corrupted += 1;
    }

    /// Sets the link administratively up or down at time `now`. Going down
    /// drains the queue (each drained packet counts as a blackout drop) and
    /// returns the drained handles, which the caller must free (and trace);
    /// a packet already in service completes its transmission. Going up (or
    /// a no-op transition) returns an empty list without allocating.
    pub(crate) fn set_up(&mut self, up: bool, now: SimTime) -> Vec<PacketSlot> {
        let was_up = self.impairment.is_up();
        self.impairment.set_up(up);
        if up || !was_up {
            return Vec::new();
        }
        self.note_q_change(now);
        let drained: Vec<PacketSlot> = self.queue.drain(..).map(|(pkt, _)| pkt).collect();
        self.stats.drops_blackout += drained.len() as u64;
        drained
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Current queue occupancy in packets (excluding the packet in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the link is currently transmitting a packet.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Mean queue length in packets over `[0, now]`.
    pub fn mean_queue_len(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            let tail =
                self.queue.len() as f64 * (now.saturating_since(self.last_q_change)).as_secs_f64();
            (self.qlen_integral + tail) / secs
        }
    }

    /// Utilization of the link over `[0, now]`: transmitted bits divided by
    /// capacity-time.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.stats.tx_bytes as f64 * 8.0) / (self.cfg.bandwidth_bps as f64 * secs)
        }
    }

    fn note_q_change(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_q_change).as_secs_f64();
        self.qlen_integral += self.queue.len() as f64 * dt;
        self.last_q_change = now;
    }

    /// Offers the packet behind `pkt`, `size_bytes` on the wire, to the link
    /// at time `now`.
    ///
    /// The caller (the simulator) is responsible for scheduling the
    /// transmission-complete event when `StartTx` is returned.
    pub(crate) fn enqueue(&mut self, pkt: PacketSlot, size_bytes: u32, now: SimTime) -> Enqueue {
        if self.in_flight.is_none() {
            debug_assert!(self.queue.is_empty());
            let ser = self.serialization_cached(size_bytes);
            self.in_flight = Some((pkt, size_bytes));
            Enqueue::StartTx(ser)
        } else if self.queue.len() < self.cfg.queue_limit_pkts {
            // DCTCP: mark when arrival occupancy — the in-service packet
            // plus the queued ones — strictly exceeds K. (This used to be
            // `>=`, marking one packet early at the boundary.)
            let ce = self.cfg.ecn_threshold_pkts.is_some_and(|k| self.queue.len() + 1 > k);
            if ce {
                self.stats.ecn_marks += 1;
            }
            self.note_q_change(now);
            self.queue.push_back((pkt, size_bytes));
            self.stats.queue_high_water = self.stats.queue_high_water.max(self.queue.len());
            Enqueue::Queued { ce }
        } else {
            self.stats.drops_queue += 1;
            Enqueue::Dropped
        }
    }

    /// Completes the in-service transmission at time `now`, returning the
    /// transmitted packet's handle and, if the queue was non-empty, the next
    /// packet's serialization delay (its transmission starts immediately).
    ///
    /// # Panics
    ///
    /// Panics if the link was not transmitting.
    pub(crate) fn tx_done(&mut self, now: SimTime) -> (PacketSlot, Option<SimDuration>) {
        // simlint: allow(P001, documented panic: the simulator only schedules TxDone while a transmission is in service, so an idle link here is event-queue corruption)
        let (pkt, size_bytes) = self.in_flight.take().expect("tx_done on idle link");
        self.stats.tx_pkts += 1;
        self.stats.tx_bytes += u64::from(size_bytes);
        self.note_q_change(now);
        self.in_flight = self.queue.pop_front();
        let next = self.in_flight.map(|(_, next_size)| self.serialization_cached(next_size));
        (pkt, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Payload, Route};
    use crate::pool::PacketPool;

    /// Parks a fresh `size`-byte packet in `pool` and offers its handle to
    /// `l` at time zero, the way `World::offer_to_link` does.
    fn offer(l: &mut Link, pool: &mut PacketPool, size: u32) -> Enqueue {
        let slot = pool.stash(pkt(size));
        l.enqueue(slot, size, SimTime::ZERO)
    }

    fn pkt(size: u32) -> Packet {
        Packet {
            id: 0,
            src: 0,
            size_bytes: size,
            sent_at: SimTime::ZERO,
            ecn_ce: false,
            hop: 0,
            corrupted: false,
            route: Route::direct(0),
            payload: Payload::Raw,
        }
    }

    #[test]
    fn serialization_delay() {
        let cfg = LinkConfig::new(100_000_000, SimDuration::from_millis(1));
        // 1500 bytes at 100 Mb/s = 120 us.
        assert_eq!(cfg.serialization(1500), SimDuration::from_micros(120));
    }

    #[test]
    fn serialization_saturates_instead_of_wrapping() {
        // Regression: `ns as u64` truncated the u128 intermediate for a
        // u32::MAX-byte packet on a 1 bit/s link (~3.4e19 ns > u64::MAX),
        // silently *shortening* the delay. It must clamp to the maximum
        // representable duration instead.
        let cfg = LinkConfig::new(1, SimDuration::ZERO);
        assert_eq!(cfg.serialization(u32::MAX), SimDuration::from_nanos(u64::MAX));
        // Ordinary values are unchanged by the checked path.
        let fast = LinkConfig::new(100_000_000, SimDuration::ZERO);
        assert_eq!(fast.serialization(1500), SimDuration::from_micros(120));
    }

    #[test]
    fn serialization_u64_route_equals_the_u128_formula() {
        // The last size whose `bytes·8·10⁹` fits a u64, and the first that
        // does not, sit on either side of the u64 route's boundary.
        let last_u64 = u64::MAX / 8_000_000_000;
        let sizes = [0, 1, 40, 1500, 9000, last_u64, last_u64 + 1, u64::from(u32::MAX)];
        for bytes in sizes.map(|b| u32::try_from(b).expect("every size is a u32")) {
            for bps in [1, 8, 1_000_007, 100_000_000, 1_000_000_000, u64::MAX] {
                let u128_ns = u128::from(bytes) * 8 * 1_000_000_000 / u128::from(bps);
                assert_eq!(
                    LinkConfig::new(bps, SimDuration::ZERO).serialization(bytes),
                    SimDuration::from_nanos_u128(u128_ns),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
    }

    #[test]
    fn from_nanos_u128_roundtrips_in_range() {
        assert_eq!(SimDuration::from_nanos_u128(42), SimDuration::from_nanos(42));
        assert_eq!(
            SimDuration::from_nanos_u128(u128::from(u64::MAX) + 1),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn idle_link_starts_transmitting() {
        let mut l = Link::new(LinkConfig::new(8_000_000, SimDuration::ZERO));
        let mut pool = PacketPool::default();
        match offer(&mut l, &mut pool, 1000) {
            Enqueue::StartTx(d) => assert_eq!(d, SimDuration::from_millis(1)),
            other => panic!("expected StartTx, got {other:?}"),
        }
        assert!(l.is_busy());
    }

    #[test]
    fn droptail_drops_beyond_limit() {
        let cfg = LinkConfig::new(8_000_000, SimDuration::ZERO).queue_limit(2);
        let mut l = Link::new(cfg);
        let mut pool = PacketPool::default();
        assert!(matches!(offer(&mut l, &mut pool, 100), Enqueue::StartTx(_)));
        assert_eq!(offer(&mut l, &mut pool, 100), Enqueue::Queued { ce: false });
        assert_eq!(offer(&mut l, &mut pool, 100), Enqueue::Queued { ce: false });
        assert_eq!(offer(&mut l, &mut pool, 100), Enqueue::Dropped);
        assert_eq!(l.stats().drops_queue, 1);
        assert_eq!(l.queue_len(), 2);
    }

    #[test]
    fn tx_done_chains_queue() {
        let cfg = LinkConfig::new(8_000_000, SimDuration::ZERO);
        let mut l = Link::new(cfg);
        let mut pool = PacketPool::default();
        let _ = offer(&mut l, &mut pool, 1000);
        let _ = offer(&mut l, &mut pool, 500);
        let (done, next) = l.tx_done(SimTime::from_secs_f64(0.001));
        assert_eq!(pool.get(done).size_bytes, 1000);
        assert_eq!(next, Some(SimDuration::from_micros(500)));
        let (done2, next2) = l.tx_done(SimTime::from_secs_f64(0.0015));
        assert_eq!(pool.get(done2).size_bytes, 500);
        assert_eq!(next2, None);
        assert!(!l.is_busy());
        assert_eq!(l.stats().tx_pkts, 2);
        assert_eq!(l.stats().tx_bytes, 1500);
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let cfg = LinkConfig::new(8_000_000, SimDuration::ZERO).queue_limit(10).ecn_threshold(2);
        let mut l = Link::new(cfg);
        let mut pool = PacketPool::default();
        let _ = offer(&mut l, &mut pool, 100); // in service
        let _ = offer(&mut l, &mut pool, 100); // finds occupancy 1 <= K

        // Finds occupancy 2 <= K: queued unmarked.
        assert_eq!(offer(&mut l, &mut pool, 100), Enqueue::Queued { ce: false });
        // Finds occupancy 3 > K: the caller is told to mark it.
        assert_eq!(offer(&mut l, &mut pool, 100), Enqueue::Queued { ce: true });
        assert_eq!(l.stats().ecn_marks, 1);
    }

    /// Pins the DCTCP marking boundary: with threshold K, an arrival that
    /// finds occupancy (in-service + queued) of exactly K−1 or K is *not*
    /// marked; K+1 is. Regression for the `>=` off-by-one that marked the
    /// occupancy-K arrival.
    #[test]
    fn ecn_boundary_at_exactly_k() {
        let k = 3;
        for (occupancy_found, expect_mark) in [(k - 1, false), (k, false), (k + 1, true)] {
            let cfg =
                LinkConfig::new(8_000_000, SimDuration::ZERO).queue_limit(10).ecn_threshold(k);
            let mut l = Link::new(cfg);
            let mut pool = PacketPool::default();
            // Build up `occupancy_found` resident packets: one in service,
            // the rest queued.
            for _ in 0..occupancy_found {
                let _ = offer(&mut l, &mut pool, 100);
            }
            assert_eq!(l.queue_len() + usize::from(l.is_busy()), occupancy_found);
            let marks_before = l.stats().ecn_marks;
            let outcome = offer(&mut l, &mut pool, 100);
            assert_eq!(outcome, Enqueue::Queued { ce: expect_mark });
            assert_eq!(
                l.stats().ecn_marks - marks_before,
                u64::from(expect_mark),
                "arrival finding occupancy {occupancy_found} with K={k}"
            );
        }
    }

    #[test]
    fn serialization_cache_tracks_bandwidth_changes() {
        let mut l = Link::new(LinkConfig::new(8_000_000, SimDuration::ZERO));
        let mut pool = PacketPool::default();
        // Warm the cache via the in-service path.
        assert_eq!(offer(&mut l, &mut pool, 1000), Enqueue::StartTx(SimDuration::from_millis(1)));
        let _ = l.tx_done(SimTime::from_secs_f64(0.001));
        // Same size again: served from cache, same answer.
        assert_eq!(offer(&mut l, &mut pool, 1000), Enqueue::StartTx(SimDuration::from_millis(1)));
        let _ = l.tx_done(SimTime::from_secs_f64(0.002));
        // Rate change invalidates the memo.
        l.set_bandwidth(16_000_000);
        assert_eq!(offer(&mut l, &mut pool, 1000), Enqueue::StartTx(SimDuration::from_micros(500)));
        let _ = l.tx_done(SimTime::from_secs_f64(0.003));
        // A third distinct size evicts the oldest entry but keeps answers exact.
        assert_eq!(offer(&mut l, &mut pool, 500), Enqueue::StartTx(SimDuration::from_micros(250)));
        let _ = l.tx_done(SimTime::from_secs_f64(0.004));
        assert_eq!(offer(&mut l, &mut pool, 40), Enqueue::StartTx(SimDuration::from_micros(20)));
        let _ = l.tx_done(SimTime::from_secs_f64(0.005));
        assert_eq!(offer(&mut l, &mut pool, 1000), Enqueue::StartTx(SimDuration::from_micros(500)));
    }

    #[test]
    fn background_load_slows_serialization_and_invalidates_cache() {
        let mut l = Link::new(LinkConfig::new(8_000_000, SimDuration::ZERO));
        let mut pool = PacketPool::default();
        // Warm the cache at the nominal rate: 1000 B at 8 Mb/s = 1 ms.
        assert_eq!(offer(&mut l, &mut pool, 1000), Enqueue::StartTx(SimDuration::from_millis(1)));
        let _ = l.tx_done(SimTime::from_secs_f64(0.001));
        // Half the link is now fluid background: residual 4 Mb/s → 2 ms.
        l.set_background_bps(4_000_000);
        assert_eq!(l.effective_bandwidth_bps(), 4_000_000);
        assert_eq!(offer(&mut l, &mut pool, 1000), Enqueue::StartTx(SimDuration::from_millis(2)));
        let _ = l.tx_done(SimTime::from_secs_f64(0.003));
        // Clearing the background restores the nominal rate exactly.
        l.set_background_bps(0);
        assert_eq!(offer(&mut l, &mut pool, 1000), Enqueue::StartTx(SimDuration::from_millis(1)));
    }

    #[test]
    fn background_load_is_floored_at_one_percent_residual() {
        let mut l = Link::new(LinkConfig::new(8_000_000, SimDuration::ZERO));
        // Requesting the whole link (or more) leaves a 1% residual.
        l.set_background_bps(8_000_000);
        assert_eq!(l.effective_bandwidth_bps(), 80_000);
        l.set_background_bps(u64::MAX);
        assert_eq!(l.effective_bandwidth_bps(), 80_000);
        // The residual never hits zero even on a 1 bit/s link.
        let mut tiny = Link::new(LinkConfig::new(1, SimDuration::ZERO));
        tiny.set_background_bps(u64::MAX);
        assert_eq!(tiny.effective_bandwidth_bps(), 1);
    }

    #[test]
    fn utilization_measures_against_nominal_capacity_under_background() {
        let mut l = Link::new(LinkConfig::new(8_000_000, SimDuration::ZERO));
        let mut pool = PacketPool::default();
        l.set_background_bps(4_000_000);
        let _ = offer(&mut l, &mut pool, 1000);
        let _ = l.tx_done(SimTime::from_secs_f64(0.002));
        // 8000 bits over 2 ms against the *nominal* 8 Mb/s: 50%.
        let u = l.utilization(SimTime::from_secs_f64(0.002));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_and_mean_queue() {
        let cfg = LinkConfig::new(8_000_000, SimDuration::ZERO);
        let mut l = Link::new(cfg);
        let mut pool = PacketPool::default();
        let _ = offer(&mut l, &mut pool, 1000);
        let _ = l.tx_done(SimTime::from_secs_f64(0.001));
        // 8000 bits sent in 1 ms over an 8 Mb/s link => 100% busy for that ms.
        let u = l.utilization(SimTime::from_secs_f64(0.001));
        assert!((u - 1.0).abs() < 1e-9, "utilization {u}");
        assert!(l.mean_queue_len(SimTime::from_secs_f64(0.001)) < 1e-9);
    }

    #[test]
    #[should_panic]
    fn tx_done_on_idle_panics() {
        let mut l = Link::new(LinkConfig::new(1_000_000, SimDuration::ZERO));
        let _ = l.tx_done(SimTime::ZERO);
    }
}
