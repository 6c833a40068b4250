//! Pins that no controller's `on_ack` or `on_loss` allocates: every
//! `AlgorithmKind`, and the DTS, fixed-point DTS and DTS-Φ configs. The
//! model-backed controller reads its packet aggregates (`Σx`, `Σw`, `n`,
//! LIA's best path, ecMTCP's smallest RTT) from the subflows on every ACK,
//! and OLIA used to build five `Vec`s per ACK to read one α (the reason
//! `congestion.on_ack_ns.olia` once cost 2–4× LIA's).
//!
//! The counting allocator wraps `System` and counts per thread, as in
//! `crates/netsim/tests/trace_noalloc.rs`.

#![allow(
    unsafe_code,
    reason = "implementing `GlobalAlloc` to count allocations is inherently unsafe; the impl only delegates to `System` and bumps a thread-local"
)]

use congestion::{
    AlgorithmKind, DtsConfig, DtsPhiConfig, ModelCc, MultipathCongestionControl, SubflowCc,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator is also called while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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

#[test]
fn on_ack_and_on_loss_do_not_allocate() {
    let fixed_point = DtsConfig { fixed_point: true, ..DtsConfig::default() };
    let controllers = AlgorithmKind::ALL.into_iter().map(|kind| kind.build(4)).chain([
        Box::new(ModelCc::dts(DtsConfig::default())) as Box<dyn MultipathCongestionControl>,
        Box::new(ModelCc::dts(fixed_point)),
        Box::new(ModelCc::dts_phi(DtsPhiConfig::default())),
    ]);
    for mut cc in controllers {
        // Four subflows in congestion avoidance with unequal windows, RTTs
        // and (after the losses below) loss histories, so OLIA's α is
        // non-zero: the branch that used to build every set.
        let mut flows: Vec<SubflowCc> = (0..4u32)
            .map(|k| {
                let mut f = SubflowCc::new();
                f.cwnd = 10.0 + 7.0 * f64::from(k);
                f.ssthresh = 1.0;
                f.observe_rtt(0.01 * f64::from(k + 1));
                f
            })
            .collect();
        let before = ALLOCS.with(Cell::get);
        let mut moved = 0u32;
        for i in 0..10_000usize {
            let r = i % flows.len();
            let was = flows[r].cwnd;
            if i % 997 == 0 {
                cc.on_loss(r, &mut flows);
            } else {
                cc.on_ack(r, &mut flows, 1, false);
            }
            moved += u32::from(flows[r].cwnd.to_bits() != was.to_bits());
        }
        let after = ALLOCS.with(Cell::get);
        // wVegas steps once per RTT; every other controller on most ACKs.
        let floor = if cc.name() == "wvegas" { 100 } else { 9_000 };
        assert!(moved > floor, "{}: the windows did not move: {moved}", cc.name());
        assert_eq!(after - before, 0, "{}: on_ack / on_loss allocated", cc.name());
    }
}
