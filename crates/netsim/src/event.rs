//! The event queue.
//!
//! Events are ordered by `(time, insertion sequence)` so that simultaneous
//! events fire in FIFO order, which makes runs deterministic regardless of
//! queue internals.
//!
//! The queue is a calendar queue (timer wheel) of `NUM_BUCKETS` buckets of
//! `2^BUCKET_SHIFT` ns each (≈131 µs buckets, ≈134 ms horizon), with an
//! occupancy bitmap for O(words) next-bucket scans and a binary-heap *far
//! list* for events past the horizon (RTO timers, watchdog-scale timers).
//! Pushes are O(1). Pops stage one bucket at a time, and how a bucket is
//! staged depends on its own length: a handful of events are sorted once and
//! drained; a dense bucket (a datacenter fabric puts ~650 events in one) is
//! split by finer time bits into `NUM_SUBS` sub-slots of `2^SUB_SHIFT` ns
//! (≈1 µs), each sorted only when the drain reaches it, so that an event
//! pushed into the bucket being drained — a third of all pushes there — is an
//! append to a later sub-slot instead of an insert into one long sorted run.
//! DESIGN.md §13 records the measurements behind both decisions.
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
/// Log2 of the sub-slot width in nanoseconds (2^10 ns ≈ 1 µs).
const SUB_SHIFT: u32 = 10;
/// Sub-slots a dense bucket is split into; their occupancy is one `u128`.
const NUM_SUBS: usize = 1 << (BUCKET_SHIFT - SUB_SHIFT);
/// A bucket staged with at least this many events is split into sub-slots;
/// a shorter one is sorted whole. Splitting costs each event one more move
/// and a scattered write, which a handful of events does not earn back.
const DENSE_BUCKET_MIN: usize = 32;
/// Initial capacity reserved per bucket, so steady-state operation does not
/// allocate (pinned by `tests/trace_noalloc.rs`).
const BUCKET_PREALLOC: usize = 4;
/// The same per sub-slot, for the dense steady state.
const SUB_PREALLOC: usize = 8;
/// Largest drained buffer (in events) a bucket or sub-slot gets back.
/// Without the cap every slot ratchets up to the largest burst it ever
/// staged — at ~1 700 events per bucket that was ~85 MB of cyclically touched
/// buffers on a FatTree run — so wheel memory is bounded by the pending
/// population plus `(NUM_BUCKETS + NUM_SUBS) * BUCKET_RETAIN_MAX` events
/// instead.
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

/// Absolute sub-slot index: the bucket index with the sub-slot bits appended.
#[inline]
fn sub_of(at: SimTime) -> u64 {
    at.as_nanos() >> SUB_SHIFT
}

/// What the timer wheel counts about itself (part of
/// [`crate::sim::EngineCounters`]); all zero on the reference heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WheelCounters {
    /// Buckets staged.
    pub buckets_staged: u64,
    /// Of those, buckets long enough to be split into sub-slots.
    pub dense_buckets_staged: u64,
    /// Events those dense buckets held when they were staged.
    pub dense_events_staged: u64,
    /// Most events any bucket held when it was staged.
    pub largest_bucket: u64,
    /// Pushes that landed in the bucket being drained.
    pub draining_pushes: u64,
    /// Pushes that landed behind the wheel position, because a peek had
    /// staged a bucket ahead of the clock.
    pub early_pushes: u64,
    /// Events that moved from the far list into the ring.
    pub far_migrations: u64,
}

/// The calendar queue.
///
/// Invariants:
/// * every ring event's bucket lies in `[cur, cur + NUM_BUCKETS)`;
/// * every far-list event's bucket is `>= cur + NUM_BUCKETS`;
/// * `staged` is the *run* being drained: sorted ascending by `(at, seq)`,
///   popped from the front, and earlier than everything else in the wheel.
///   It holds every pending event up to and including sub-slot
///   `run_last_sub` of bucket `cur` — the whole bucket when it was staged
///   sparse, one sub-slot when it was staged dense;
/// * `subs` holds the rest of a dense bucket `cur`, unsorted, one `Vec` per
///   sub-slot (allocated when the first dense bucket is staged), with
///   `sub_occ` as their occupancy; both are empty otherwise.
///
/// "Every pending event up to", not "of bucket `cur` up to", because of the
/// *peek-ahead* case. Staging happens on `peek` as well as on `pop`, and it
/// moves `cur` to the bucket of the next event, which may lie far beyond the
/// last popped one (`run_until` peeks, sees a timer past its deadline and
/// returns). A later push need only be at or after the last *popped* time, so
/// it may belong to a bucket behind `cur`, for which the ring has no slot. It
/// goes where a push ahead of the run's head in bucket `cur` goes: into the
/// run, by sorted insert. (Should a driver start a whole workload behind a
/// far-off peeked timer, the run is one long sorted `VecDeque` until the
/// clock reaches that timer: correct, and as fast as the wheel was when that
/// was its only way to stage a bucket.)
///
/// `staged` is a `VecDeque` so that the sorted insert costs the shorter of
/// the two shifts, and the append when the new event carries the run's
/// largest key (it always carries the largest seq) costs none.
#[derive(Debug)]
struct Wheel {
    slots: Vec<Vec<Event>>,
    occ: [u64; OCC_WORDS],
    /// Absolute bucket index of the wheel position.
    cur: u64,
    /// The run being drained, sorted ascending; drained from the front.
    staged: VecDeque<Event>,
    /// Last absolute sub-slot index whose events belong in `staged`.
    run_last_sub: u64,
    /// Whether bucket `cur` was split into `subs` when it was staged.
    dense: bool,
    subs: Vec<Vec<Event>>,
    sub_occ: u128,
    /// Events beyond the wheel horizon.
    far: BinaryHeap<Event>,
    count: usize,
    counters: WheelCounters,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            slots: (0..NUM_BUCKETS).map(|_| Vec::with_capacity(BUCKET_PREALLOC)).collect(),
            occ: [0; OCC_WORDS],
            cur: 0,
            staged: VecDeque::with_capacity(BUCKET_PREALLOC),
            run_last_sub: 0,
            dense: false,
            subs: Vec::new(),
            sub_occ: 0,
            far: BinaryHeap::new(),
            count: 0,
            counters: WheelCounters::default(),
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

    /// Appends to sub-slot `sub_of(ev.at)` of the bucket being drained.
    #[inline]
    fn push_sub(&mut self, ev: Event) {
        let s = (sub_of(ev.at) % NUM_SUBS as u64) as usize;
        self.subs[s].push(ev);
        self.sub_occ |= 1u128 << s;
    }

    fn push(&mut self, ev: Event) {
        // `cur` only advances when a bucket is staged, so after a long
        // event-free stretch new pushes may land on the far list even though
        // they are near `now`; the next pop jumps the window forward and
        // migrates them back.
        let b = bucket_of(ev.at);
        self.count += 1;
        let draining = !(self.staged.is_empty() && self.sub_occ == 0);
        if b > self.cur || (b == self.cur && !draining) {
            if b < self.cur + NUM_BUCKETS as u64 {
                let slot = Self::slot_index(b);
                self.slots[slot].push(ev);
                self.set_occ(slot);
            } else {
                self.far.push(ev);
            }
        } else if b == self.cur && (self.staged.is_empty() || sub_of(ev.at) > self.run_last_sub) {
            // Bucket `cur` is mid-drain, and this is for a later sub-slot.
            self.counters.draining_pushes += 1;
            self.push_sub(ev);
        } else {
            // It belongs in the run — or, behind a bucket that a peek
            // staged, before everything there is: keep the run sorted. A
            // fresh event carries the largest seq, so unless it is scheduled
            // strictly earlier than something still staged it is the new
            // maximum and appends.
            if b == self.cur {
                self.counters.draining_pushes += 1;
            } else {
                self.counters.early_pushes += 1;
            }
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

    /// Makes the earliest occupied sub-slot of the dense bucket `cur` the run.
    fn stage_next_sub(&mut self) {
        debug_assert!(self.staged.is_empty() && self.sub_occ != 0);
        let s = self.sub_occ.trailing_zeros();
        self.sub_occ &= self.sub_occ - 1;
        let mut run = std::mem::take(&mut self.subs[s as usize]);
        run.sort_unstable_by_key(Event::key);
        self.staged = VecDeque::from(run);
        self.run_last_sub = (self.cur << (BUCKET_SHIFT - SUB_SHIFT)) | u64::from(s);
    }

    /// Stages the next ring bucket, `b`, out of ring slot `slot`.
    fn stage_bucket(&mut self, b: u64, slot: usize) {
        debug_assert!(!self.slots[slot].is_empty());
        let mut bucket = std::mem::take(&mut self.slots[slot]);
        self.clear_occ(slot);
        self.cur = b;
        self.counters.buckets_staged += 1;
        self.counters.largest_bucket = self.counters.largest_bucket.max(bucket.len() as u64);
        self.dense = bucket.len() >= DENSE_BUCKET_MIN;
        if self.dense {
            if self.subs.is_empty() {
                // First dense bucket of the run: a simulation that never
                // stages one never pays for the sub-slots.
                self.subs = (0..NUM_SUBS).map(|_| Vec::with_capacity(SUB_PREALLOC)).collect();
            }
            self.counters.dense_buckets_staged += 1;
            self.counters.dense_events_staged += bucket.len() as u64;
            for ev in bucket.drain(..) {
                self.push_sub(ev);
            }
            if bucket.capacity() <= BUCKET_RETAIN_MAX {
                self.slots[slot] = bucket;
            }
            self.stage_next_sub();
        } else {
            // Ascending sort: the earliest (time, seq) pops from the front.
            // Vec -> VecDeque is O(1) and reuses the allocation.
            bucket.sort_unstable_by_key(Event::key);
            self.staged = VecDeque::from(bucket);
            self.run_last_sub = ((b + 1) << (BUCKET_SHIFT - SUB_SHIFT)) - 1;
        }
    }

    /// Ensures the next event (if any) sits at the front of `staged`.
    fn ensure_staged(&mut self) -> bool {
        if !self.staged.is_empty() {
            return true;
        }
        if self.sub_occ != 0 {
            self.stage_next_sub();
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
                self.counters.far_migrations += 1;
            }
            let cur_slot = Self::slot_index(self.cur);
            if let Some(offset) = self.next_occupied_offset(cur_slot) {
                let b = self.cur + offset as u64;
                self.stage_bucket(b, Self::slot_index(b));
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
        self.count -= 1;
        if self.staged.is_empty() {
            // Hand the drained buffer's capacity back to where the run came
            // from, so steady-state cycling reuses allocations — unless a
            // burst grew it past `BUCKET_RETAIN_MAX`, in which case it is
            // freed. An empty VecDeque converts to a Vec in O(1).
            let buf = Vec::from(std::mem::take(&mut self.staged));
            let home = if self.dense {
                &mut self.subs[(self.run_last_sub % NUM_SUBS as u64) as usize]
            } else {
                &mut self.slots[Self::slot_index(self.cur)]
            };
            if buf.capacity() <= BUCKET_RETAIN_MAX && buf.capacity() > home.capacity() {
                *home = buf;
            }
        }
        ev
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.ensure_staged() {
            self.staged.front().map(|ev| ev.at)
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
            QueueImpl::Wheel(w) => w.peek_time(),
        }
    }

    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Heap(h) => h.len(),
            QueueImpl::Wheel(w) => w.count,
        }
    }

    /// Events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// The wheel's own counters; all zero on the reference heap.
    pub fn wheel_counters(&self) -> WheelCounters {
        match &self.imp {
            QueueImpl::Heap(_) => WheelCounters::default(),
            QueueImpl::Wheel(w) => w.counters,
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

    fn token_of(ev: &Event) -> u64 {
        match ev.kind {
            EventKind::Timer { token, .. } => token,
            _ => panic!("wrong kind"),
        }
    }

    /// The peek-ahead regression at the queue level. `peek_time` stages the
    /// bucket of the only pending event, a second away; a push that is legal
    /// (nothing has been popped yet) but lands in an earlier bucket used to
    /// go into a ring slot *behind* the wheel position and pop second.
    #[test]
    fn push_behind_a_peeked_bucket_pops_first() {
        for mut q in both_kinds() {
            let late = SimTime::from_secs_f64(1.0);
            let early = SimTime::from_nanos(11_000_000);
            q.push(late, timer(1));
            assert_eq!(q.peek_time(), Some(late));
            q.push(early, timer(2));
            // Same bucket as the staged run, ahead of its head.
            q.push(SimTime::from_nanos(late.as_nanos() - 1), timer(3));
            assert_eq!(q.peek_time(), Some(early));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| token_of(&e)).collect();
            assert_eq!(order, vec![2, 3, 1]);
        }
    }

    /// The central equivalence pin at the queue level: a randomized
    /// push/pop/peek workload drains in the identical order from both
    /// backends. Push times are at or after the last *popped* time, as the
    /// simulator guarantees — not after the last peeked one, so pushes land
    /// behind buckets that a peek staged; bursts make buckets long enough to
    /// be split into sub-slots and then push into them mid-drain.
    #[test]
    fn wheel_and_heap_drain_identically_under_random_workload() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut wheel = EventQueue::default();
        let mut heap = EventQueue::reference_heap();
        let mut now = 0u64;
        let mut token = 0u64;
        let mut push = |wheel: &mut EventQueue, heap: &mut EventQueue, at: u64| {
            token += 1;
            wheel.push(SimTime::from_nanos(at), timer(token));
            heap.push(SimTime::from_nanos(at), timer(token));
        };
        for _ in 0..40_000 {
            match rng.gen_range(0..100u32) {
                0..=24 => {
                    // Mixed horizons: same bucket, nearby buckets, far future.
                    let delta: u64 = match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(0..1_000),
                        1 => rng.gen_range(0..2_000_000),
                        2 => rng.gen_range(0..200_000_000),
                        _ => rng.gen_range(0..5_000_000_000),
                    };
                    push(&mut wheel, &mut heap, now + delta);
                }
                25 => {
                    // A burst inside one or two buckets, some of it at
                    // exactly `now`.
                    for _ in 0..rng.gen_range(1..2 * DENSE_BUCKET_MIN) {
                        let delta = rng.gen_range(0..1u64 << BUCKET_SHIFT) & !0xff;
                        push(&mut wheel, &mut heap, now + delta);
                    }
                }
                26..=35 => assert_eq!(wheel.peek_time(), heap.peek_time()),
                _ => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    match (&a, &b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            assert_eq!((x.at, token_of(x)), (y.at, token_of(y)));
                            assert!(x.at.as_nanos() >= now, "the wheel went backwards");
                            now = x.at.as_nanos();
                        }
                        _ => panic!("one backend drained early: {a:?} vs {b:?}"),
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        let c = wheel.wheel_counters();
        assert!(
            c.dense_buckets_staged > 50
                && c.draining_pushes > 1_000
                && c.early_pushes > 100
                && c.far_migrations > 100,
            "the workload missed one of the wheel's paths: {c:?}"
        );
        // Drain the rest in lockstep.
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => assert_eq!((x.at, token_of(&x)), (y.at, token_of(&y))),
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
        assert!(q.counters.dense_buckets_staged == 64);
        let retained = q.slots.iter().chain(&q.subs).map(Vec::capacity).sum::<usize>()
            + q.staged.capacity()
            + q.far.capacity();
        assert!(
            retained <= 4 * BURST as usize,
            "wheel retains room for {retained} events after bursts of {BURST}"
        );
    }
}
