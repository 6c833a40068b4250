//! The event queue.
//!
//! Events are ordered by `(time, insertion sequence)` so that simultaneous
//! events fire in FIFO order, which makes runs deterministic regardless of
//! queue internals.
//!
//! The queue is a single-level calendar queue (timer wheel) of `NUM_BUCKETS`
//! buckets of `2^BUCKET_SHIFT` ns each (≈131 µs buckets, ≈134 ms horizon),
//! with an occupancy bitmap for O(words) next-bucket scans and a binary-heap
//! *far list* for events past the horizon (RTO timers, watchdog-scale timers).
//! Pushes are O(1); pops stage one bucket at a time, sorting its events once.
//! DESIGN.md §13 records why this is the one engine.
//!
//! A plain `BinaryHeap` over the same `(time, seq)` key survives as the test
//! oracle ([`EventQueue::reference_heap`]): both extract the exact global
//! minimum, so a run's event order — and therefore its entire evolution — is
//! identical on either, which the identity tests pin at the queue level
//! (below), the simulator level (`sim.rs`) and the scenario level
//! (`tests/sweep_determinism.rs`, `tests/chaos.rs`).

use crate::packet::{AgentId, LinkId};
use crate::pool::PacketSlot;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Log2 of the wheel bucket width in nanoseconds (2^17 ns ≈ 131 µs).
const BUCKET_SHIFT: u32 = 17;
/// Number of wheel buckets; the horizon is `NUM_BUCKETS << BUCKET_SHIFT` ns
/// (≈134 ms). Must be a power of two.
const NUM_BUCKETS: usize = 1024;
/// Words in the occupancy bitmap.
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// Initial capacity reserved per bucket, so steady-state operation does not
/// allocate (pinned by `tests/trace_noalloc.rs`).
const BUCKET_PREALLOC: usize = 4;
/// Largest drained staging buffer (in events) a slot gets back. Without the
/// cap every slot ratchets up to the largest burst it ever staged — at
/// ~1 700 events per bucket that was ~85 MB of cyclically touched buffers on
/// a FatTree run — so wheel memory is bounded by the pending population
/// plus `NUM_BUCKETS * BUCKET_RETAIN_MAX` events instead.
const BUCKET_RETAIN_MAX: usize = 64;

/// Kinds of scheduled work.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Deliver a packet to its destination agent.
    Deliver { agent: AgentId, pkt: PacketSlot },
    /// A link finished serializing its in-service packet.
    LinkTxDone { link: LinkId },
    /// A packet arrives at (is offered to) a link after propagation.
    LinkEnqueue { link: LinkId, pkt: PacketSlot },
    /// A timer registered by an agent fires.
    Timer { agent: AgentId, token: u64 },
    /// A cancellable timer slot wakes (see `sim::World::arm_timer`): the
    /// slot's current deadline/generation decide whether anything fires.
    TimerWake { slot: u32, wake_gen: u32 },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: SimTime,
    seq: u64,
    pub kind: EventKind,
}

impl Event {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other.key().cmp(&self.key())
    }
}

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// The calendar queue.
///
/// Invariants:
/// * every ring event's bucket lies in `[cur, cur + NUM_BUCKETS)`;
/// * every far-list event's bucket is `>= cur + NUM_BUCKETS`;
/// * `staged` holds (part of) bucket `staged_bucket == cur`, sorted
///   *ascending* by `(at, seq)` and drained from the front;
/// * pushes never predate the last popped event (the simulator only
///   schedules at or after `now`), so `bucket(at) >= cur` always holds.
///
/// `staged` is a `VecDeque` on purpose: a push into the mid-drain bucket
/// almost always carries the bucket's largest `(at, seq)` key (it is
/// scheduled after everything already there, and carries the globally
/// largest seq), so the hot insert is an O(1) `push_back` instead of a
/// front-biased `Vec::insert` memmove. When serialization time is shorter
/// than a bucket, nearly every `LinkTxDone` takes this path.
#[derive(Debug)]
struct Wheel {
    slots: Vec<Vec<Event>>,
    occ: [u64; OCC_WORDS],
    /// Absolute bucket index of the wheel position.
    cur: u64,
    /// The staged (current) bucket, sorted ascending; drained from the front.
    staged: VecDeque<Event>,
    staged_bucket: u64,
    /// Events beyond the wheel horizon.
    far: BinaryHeap<Event>,
    count: usize,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            slots: (0..NUM_BUCKETS).map(|_| Vec::with_capacity(BUCKET_PREALLOC)).collect(),
            occ: [0; OCC_WORDS],
            cur: 0,
            staged: VecDeque::with_capacity(BUCKET_PREALLOC),
            staged_bucket: 0,
            far: BinaryHeap::new(),
            count: 0,
        }
    }

    #[inline]
    fn slot_index(b: u64) -> usize {
        (b % NUM_BUCKETS as u64) as usize
    }

    #[inline]
    fn set_occ(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn clear_occ(&mut self, slot: usize) {
        self.occ[slot / 64] &= !(1u64 << (slot % 64));
    }

    fn push(&mut self, ev: Event) {
        // `cur` only advances on pops (it tracks the last popped bucket), so
        // after a long event-free stretch new pushes may land on the far
        // list even though they are near `now`; the next pop jumps the
        // window forward and migrates them back. Pushes can never land
        // *behind* `cur`: the simulator only schedules at or after `now`.
        let b = bucket_of(ev.at);
        debug_assert!(b >= self.cur, "event scheduled before the wheel position");
        self.count += 1;
        if !self.staged.is_empty() && b == self.staged_bucket {
            // The staged bucket is mid-drain: keep it sorted ascending. A
            // fresh event carries the largest seq, so unless it is scheduled
            // strictly earlier than something still staged it is the new
            // maximum and appends in O(1).
            let key = ev.key();
            if self.staged.back().is_some_and(|last| last.key() < key) {
                self.staged.push_back(ev);
            } else {
                let pos = self
                    .staged
                    .binary_search_by(|probe| probe.key().cmp(&key))
                    .unwrap_or_else(|p| p);
                self.staged.insert(pos, ev);
            }
        } else if b < self.cur + NUM_BUCKETS as u64 {
            let slot = Self::slot_index(b);
            self.slots[slot].push(ev);
            self.set_occ(slot);
        } else {
            self.far.push(ev);
        }
    }

    /// First occupied slot at or after `from` in ring order, as an offset in
    /// `0..NUM_BUCKETS`, scanning the bitmap a word at a time: `from..` to the
    /// end of the ring, then the wrapped `..from`.
    fn next_occupied_offset(&self, from: usize) -> Option<usize> {
        let first_word = from / 64;
        let below_from = !(!0u64 << (from % 64));
        let lowest_bit = |w: usize, mask: u64| {
            let word = self.occ[w] & mask;
            (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
        };
        let bit = lowest_bit(first_word, !below_from)
            .or_else(|| (first_word + 1..OCC_WORDS).find_map(|w| lowest_bit(w, !0)))
            .or_else(|| (0..first_word).find_map(|w| lowest_bit(w, !0)))
            .or_else(|| lowest_bit(first_word, below_from))?;
        Some((bit + NUM_BUCKETS - from) % NUM_BUCKETS)
    }

    /// Ensures the next event (if any) sits at the back of `staged`.
    fn ensure_staged(&mut self) -> bool {
        if !self.staged.is_empty() {
            return true;
        }
        if self.count == 0 {
            return false;
        }
        loop {
            // Pull far-list events that now fall inside the window.
            while let Some(top) = self.far.peek() {
                if bucket_of(top.at) >= self.cur + NUM_BUCKETS as u64 {
                    break;
                }
                // simlint: allow(P001, invariant: peek just returned Some on this non-empty heap)
                let ev = self.far.pop().expect("peeked far event vanished");
                let slot = Self::slot_index(bucket_of(ev.at));
                self.slots[slot].push(ev);
                self.set_occ(slot);
            }
            let cur_slot = Self::slot_index(self.cur);
            if let Some(offset) = self.next_occupied_offset(cur_slot) {
                let b = self.cur + offset as u64;
                let slot = Self::slot_index(b);
                debug_assert!(!self.slots[slot].is_empty());
                let mut bucket = std::mem::take(&mut self.slots[slot]);
                self.clear_occ(slot);
                // Ascending sort: the earliest (time, seq) pops from the
                // front. Vec -> VecDeque is O(1) and reuses the allocation.
                bucket.sort_unstable_by_key(Event::key);
                self.staged = VecDeque::from(bucket);
                self.staged_bucket = b;
                self.cur = b;
                return true;
            }
            // Ring empty; jump the window to the far list.
            match self.far.peek() {
                Some(top) => self.cur = bucket_of(top.at),
                None => {
                    debug_assert_eq!(self.count, 0);
                    return false;
                }
            }
        }
    }

    fn pop(&mut self) -> Option<Event> {
        if !self.ensure_staged() {
            return None;
        }
        let ev = self.staged.pop_front();
        if ev.is_some() {
            self.count -= 1;
            if self.staged.is_empty() {
                // Hand the drained buffer's capacity back to its slot so
                // steady-state cycling over buckets reuses allocations —
                // unless a burst grew it past `BUCKET_RETAIN_MAX`, in which
                // case it is freed. An empty VecDeque converts to a Vec in
                // O(1).
                let buf = std::mem::take(&mut self.staged);
                let slot = Self::slot_index(self.staged_bucket);
                let cap = buf.capacity();
                if cap <= BUCKET_RETAIN_MAX && cap > self.slots[slot].capacity() {
                    self.slots[slot] = Vec::from(buf);
                }
            }
        }
        ev
    }

    fn peek(&mut self) -> Option<&Event> {
        if self.ensure_staged() {
            self.staged.front()
        } else {
            None
        }
    }
}

#[derive(Debug)]
enum QueueImpl {
    Heap(BinaryHeap<Event>),
    Wheel(Box<Wheel>),
}

/// A monotonic priority queue of events.
#[derive(Debug)]
pub(crate) struct EventQueue {
    imp: QueueImpl,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue { imp: QueueImpl::Wheel(Box::new(Wheel::new())), next_seq: 0 }
    }
}

impl EventQueue {
    /// The test oracle: a plain binary heap over the same `(time, seq)` key.
    pub fn reference_heap() -> Self {
        EventQueue { imp: QueueImpl::Heap(BinaryHeap::new()), next_seq: 0 }
    }

    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event { at, seq, kind };
        match &mut self.imp {
            QueueImpl::Heap(h) => h.push(ev),
            QueueImpl::Wheel(w) => w.push(ev),
        }
    }

    pub fn pop(&mut self) -> Option<Event> {
        match &mut self.imp {
            QueueImpl::Heap(h) => h.pop(),
            QueueImpl::Wheel(w) => w.pop(),
        }
    }

    /// Time of the next event, without popping it. `&mut` because the wheel
    /// may have to stage its next bucket to know the answer.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.imp {
            QueueImpl::Heap(h) => h.peek().map(|e| e.at),
            QueueImpl::Wheel(w) => w.peek().map(|e| e.at),
        }
    }

    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Heap(h) => h.len(),
            QueueImpl::Wheel(w) => w.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn timer(token: u64) -> EventKind {
        EventKind::Timer { agent: 0, token }
    }

    fn both_kinds() -> [EventQueue; 2] {
        [EventQueue::default(), EventQueue::reference_heap()]
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        for mut q in both_kinds() {
            q.push(SimTime::from_nanos(20), timer(1));
            q.push(SimTime::from_nanos(10), timer(2));
            q.push(SimTime::from_nanos(10), timer(3));

            let first = q.pop().unwrap();
            assert_eq!(first.at, SimTime::from_nanos(10));
            match first.kind {
                EventKind::Timer { token, .. } => assert_eq!(token, 2),
                _ => panic!("wrong kind"),
            }
            let second = q.pop().unwrap();
            match second.kind {
                EventKind::Timer { token, .. } => assert_eq!(token, 3),
                _ => panic!("wrong kind"),
            }
            let third = q.pop().unwrap();
            assert_eq!(third.at, SimTime::from_nanos(20));
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn peek_time_reports_earliest() {
        for mut q in both_kinds() {
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_nanos(5), timer(0));
            q.push(SimTime::from_nanos(2), timer(0));
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
            assert_eq!(q.len(), 2);
        }
    }

    #[test]
    fn wheel_handles_far_future_and_bucket_wrap() {
        let mut q = EventQueue::default();
        // One event far past the wheel horizon, one close by.
        q.push(SimTime::from_secs_f64(10.0), timer(100));
        q.push(SimTime::from_nanos(50), timer(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
        match q.pop().unwrap().kind {
            EventKind::Timer { token, .. } => assert_eq!(token, 1),
            _ => panic!("wrong kind"),
        }
        // Queue jumps across the empty horizon to the far event.
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(10.0)));
        match q.pop().unwrap().kind {
            EventKind::Timer { token, .. } => assert_eq!(token, 100),
            _ => panic!("wrong kind"),
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_into_staged_bucket_keeps_fifo() {
        let mut q = EventQueue::default();
        let t = SimTime::from_nanos(1000);
        q.push(t, timer(1));
        q.push(t, timer(2));
        // Staging happens on peek; a push at the same time afterwards must
        // still pop last among its equals.
        assert_eq!(q.peek_time(), Some(t));
        q.push(t, timer(3));
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => panic!("wrong kind"),
            })
            .collect();
        assert_eq!(tokens, vec![1, 2, 3]);
    }

    /// The central equivalence pin at the queue level: a randomized
    /// push/pop workload (monotone non-decreasing push times, as the
    /// simulator guarantees) drains in the identical order from both
    /// backends.
    #[test]
    fn wheel_and_heap_drain_identically_under_random_workload() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut wheel = EventQueue::default();
        let mut heap = EventQueue::reference_heap();
        let mut now = 0u64;
        let mut token = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) {
                // Mixed horizons: same bucket, nearby buckets, far future.
                let delta: u64 = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..1_000),
                    1 => rng.gen_range(0..2_000_000),
                    2 => rng.gen_range(0..200_000_000),
                    _ => rng.gen_range(0..5_000_000_000),
                };
                token += 1;
                wheel.push(SimTime::from_nanos(now + delta), timer(token));
                heap.push(SimTime::from_nanos(now + delta), timer(token));
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                match (&a, &b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.at, y.at);
                        match (&x.kind, &y.kind) {
                            (
                                EventKind::Timer { token: ta, .. },
                                EventKind::Timer { token: tb, .. },
                            ) => assert_eq!(ta, tb),
                            _ => panic!("wrong kinds"),
                        }
                        now = now.max(x.at.as_nanos());
                    }
                    _ => panic!("one backend drained early: {a:?} vs {b:?}"),
                }
            }
        }
        // Drain the rest in lockstep.
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.at, y.at);
                }
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    /// The wrap-around scan against a naive linear one, for every `from`:
    /// empty, one-bit and two-bit bitmaps (word edges included) plus seeded
    /// random fills of every density.
    #[test]
    fn bitmap_scan_matches_linear_scan_from_every_start() {
        fn check(w: &Wheel) {
            for from in 0..NUM_BUCKETS {
                let naive = (0..NUM_BUCKETS).find(|off| {
                    let slot = (from + off) % NUM_BUCKETS;
                    w.occ[slot / 64] >> (slot % 64) & 1 == 1
                });
                assert_eq!(w.next_occupied_offset(from), naive, "from {from}, occ {:x?}", w.occ);
            }
        }
        let mut w = Wheel::new();
        check(&w);
        // Stride 7 is coprime to 64: every in-word bit position is hit.
        for a in (0..NUM_BUCKETS).step_by(7) {
            w.set_occ(a);
            check(&w);
            w.clear_occ(a);
        }
        let edges = [0, 1, 63, 64, 65, 127, 128, 500, 959, 960, 1022, 1023];
        for (i, &a) in edges.iter().enumerate() {
            for &b in &edges[i + 1..] {
                w.set_occ(a);
                w.set_occ(b);
                check(&w);
                w.occ = [0; OCC_WORDS];
            }
        }
        let mut rng = SmallRng::seed_from_u64(11);
        for fill in 0..32 {
            for slot in 0..NUM_BUCKETS {
                if rng.gen_bool(f64::from(fill) / 32.0) {
                    w.set_occ(slot);
                }
            }
            check(&w);
            w.occ = [0; OCC_WORDS];
        }
    }

    /// Dense bursts must not ratchet every slot they pass through up to the
    /// burst size: what the wheel retains stays within a small multiple of
    /// the most events that were ever live at once.
    #[test]
    fn dense_bursts_do_not_ratchet_bucket_capacity() {
        const BURST: u64 = 2_000;
        let mut q = Wheel::new();
        let mut seq = 0;
        for bucket in 0..64u64 {
            for i in 0..BURST {
                let at = SimTime::from_nanos((bucket << BUCKET_SHIFT) + i);
                q.push(Event { at, seq, kind: timer(seq) });
                seq += 1;
            }
            for _ in 0..BURST {
                assert_eq!(bucket_of(q.pop().unwrap().at), bucket);
            }
        }
        assert!(q.pop().is_none());
        let retained = q.slots.iter().map(Vec::capacity).sum::<usize>()
            + q.staged.capacity()
            + q.far.capacity();
        assert!(
            retained <= 4 * BURST as usize,
            "wheel retains room for {retained} events after bursts of {BURST}"
        );
    }
}
