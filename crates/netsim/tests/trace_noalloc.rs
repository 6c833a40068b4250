//! Pins the tentpole's hot-path cost claim: with **no** trace sink
//! installed, running the simulator — event-queue pops, agent dispatch, link
//! enqueues, and the `World::emit` calls at every instrumentation site —
//! performs zero heap allocations once the steady state is reached.
//!
//! The counting allocator wraps `System`; each test runs a packet ping-pong
//! workload twice (the first pass warms `Vec`/`VecDeque` capacity inside the
//! event queue, the packet slab and link buffers) and asserts the second pass
//! allocates nothing. One workload is sparse — one packet in flight, a bucket
//! holds a handful of events — and one dense: a window of packets over a
//! chain of links, whose buckets the wheel splits into sub-slots and pushes
//! into while it drains them.

#![allow(
    unsafe_code,
    reason = "implementing `GlobalAlloc` to count allocations is inherently unsafe; the impl only delegates to `System` and bumps an atomic"
)]

use netsim::prelude::*;
use netsim::sim::{Agent, Ctx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread: the harness runs the two tests below
    /// on two threads at once, and each must count only its own.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator is also called while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Echoes each packet back until `remaining` hits zero: a self-sustaining
/// workload exercising send, enqueue, tx-done, forward, and deliver.
struct PingPong {
    reverse: Arc<Route>,
    remaining: u64,
}

impl Agent for PingPong {
    fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.reverse.clone(), 1500, Payload::Raw);
        }
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        ctx.send(self.reverse.clone(), 1500, Payload::Raw);
    }
}

/// Two `PingPong`s, `a` and `b`, joined by a chain of `hops` links each way.
/// `b` echoes (effectively) forever; `a`'s counter bounds each volley.
fn ping_pong_pair(sim: &mut Simulator, hops: usize, cfg: &LinkConfig) -> usize {
    let chain = |sim: &mut Simulator| (0..hops).map(|_| sim.add_link(*cfg)).collect();
    let (fwd, back): (Vec<_>, Vec<_>) = (chain(sim), chain(sim));
    let a =
        sim.add_agent_with(|id| Box::new(PingPong { reverse: Route::new(back, id), remaining: 0 }));
    let b = sim.add_agent(Box::new(PingPong {
        reverse: sim.agent::<PingPong>(a).reverse.clone(),
        remaining: u64::MAX,
    }));
    sim.agent_mut::<PingPong>(a).reverse = Route::new(fwd, b);
    a
}

/// `a` starts `window` packets, one after another, and echoes `rounds` more
/// before it lets the volley die out. Returns the allocations made and the
/// buckets staged, dense buckets staged and mid-drain pushes during it.
fn run_volley(sim: &mut Simulator, a: usize, window: u64, rounds: u64) -> (u64, [u64; 3]) {
    let wheel = |sim: &Simulator| {
        let w = sim.engine_counters().wheel;
        [w.buckets_staged, w.dense_buckets_staged, w.draining_pushes]
    };
    let (allocs_before, before) = (allocs(), wheel(sim));
    sim.agent_mut::<PingPong>(a).remaining = rounds;
    // One start per 30 µs, not a burst: what is measured is the steady state.
    for i in 0..window {
        sim.kick(a, SimDuration::from_micros(30 * i), 0);
    }
    sim.run_to_completion();
    let after = wheel(sim);
    (allocs() - allocs_before, [0, 1, 2].map(|i| after[i] - before[i]))
}

#[test]
fn disabled_tracing_adds_no_hot_path_allocations() {
    let mut sim = Simulator::new(3);
    let cfg = LinkConfig::new(10_000_000, SimDuration::from_micros(50));
    let a = ping_pong_pair(&mut sim, 1, &cfg);
    // Warm-up: grows the event queue and link ring buffers to capacity.
    run_volley(&mut sim, a, 1, 5_000);
    let (allocs, [_, dense, _]) = run_volley(&mut sim, a, 1, 5_000);
    assert_eq!(allocs, 0, "steady-state event loop with tracing disabled must not allocate");
    assert_eq!(dense, 0, "the ping-pong is the sparse workload");
}

/// The dense side of the wheel: 64 packets circulate over eight saturated
/// 500 Mb/s links, 150 µs apart — so a bucket is staged with the ≈50 arrivals
/// that earlier buckets scheduled into it, and takes as many transmission
/// completions from its own drain. Staging scatters it over sub-slot buffers
/// and the mid-drain pushes append to later sub-slots — all out of buffers
/// the first pass left behind. (What is pinned is the band between the wheel's dense
/// threshold and its 64-event retention cap. A bucket past the cap grows its
/// ring buffer afresh every cycle, by design: retaining those is the 85 MB
/// ratchet of DESIGN.md §13.)
#[test]
fn dense_buckets_add_no_hot_path_allocations() {
    let mut sim = Simulator::new(3);
    let cfg = LinkConfig::new(500_000_000, SimDuration::from_micros(150)).queue_limit(64);
    let a = ping_pong_pair(&mut sim, 4, &cfg);
    run_volley(&mut sim, a, 64, 20_000);
    let (allocs, [staged, dense, mid_drain]) = run_volley(&mut sim, a, 64, 20_000);
    assert!(
        dense * 10 > staged * 9 && mid_drain > 20_000,
        "the volley is not dense: {dense} of {staged} buckets, {mid_drain} mid-drain pushes"
    );
    assert_eq!(allocs, 0, "steady-state dense staging must not allocate");
}
