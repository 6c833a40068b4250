//! Pins the fluid solver's cost claim: everything a step needs — the CSR
//! index, the per-path kernel constants, the RK4 stage arrays — is built by
//! `FluidSolver::from_flat_state`, and stepping afterwards performs zero heap
//! allocations, for the model that reads the most (DTS-Φ: ψ's sigmoid and φ's
//! gradient are both per-path constants).

#![allow(
    unsafe_code,
    reason = "implementing `GlobalAlloc` to count allocations is inherently unsafe; the impl only delegates to `System` and bumps a counter"
)]

use mptcp_energy::fluid::{FluidFlow, FluidLink, FluidNet, FluidPath, FluidSolver};
use mptcp_energy::model::CcModel;
use mptcp_energy::DtsPhiConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread (the harness has threads of its own).
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
fn stepping_a_built_solver_allocates_nothing() {
    // 64 two-path DTS-Φ flows over 16 shared calibrated links, three links a
    // path, inflated RTTs so ψ's sigmoid and φ's excess term are both live.
    let mut net = FluidNet::new();
    for _ in 0..16 {
        net.add_link(FluidLink::calibrated(8000.0, 0.01, 0.9));
    }
    for f in 0..64 {
        let paths = (0..2)
            .map(|p| FluidPath {
                links: (0..3).map(|h| (f + 5 * p + 7 * h) % 16).collect(),
                rtt: 0.01 + 0.001 * (f % 9) as f64 + 0.008 * p as f64,
                base_rtt: 0.01,
            })
            .collect();
        net.add_flow(FluidFlow { model: CcModel::dts_phi(DtsPhiConfig::default()), paths });
    }
    let x0 = vec![100.0; 128];
    let mut solver = FluidSolver::from_flat_state(&net, &x0);

    let before = ALLOCS.with(Cell::get);
    for _ in 0..50 {
        solver.step(1e-4);
    }
    let allocated = ALLOCS.with(Cell::get) - before;

    assert_eq!(allocated, 0, "50 RK4 steps allocated {allocated} times");
    assert!(solver.x().iter().all(|v| v.is_finite()), "the run stayed finite");
    assert!(solver.x().iter().any(|&v| (v - 100.0).abs() > 1.0), "the state moved");
}
