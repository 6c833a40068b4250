//! Adversarial delivery impairments and zero-window flow control: run one
//! transfer through reordering, duplication, corruption, and loss on both
//! paths while a slow application read stalls the receiver window — then
//! show the impairment/robustness counters proving every packet was still
//! delivered exactly once, in order.
//!
//! ```sh
//! cargo run --release --example adversarial_impairments
//! ```
//!
//! Build with `--features check-invariants` to run the same transfer under
//! the online invariant checker (DESIGN.md §10.3); the output is identical
//! because the checks are observe-only.

use mptcp_energy_repro::congestion::AlgorithmKind;
use mptcp_energy_repro::netsim::{LossModel, ReorderModel, SimDuration, SimTime, Simulator};
use mptcp_energy_repro::paper::CcChoice;
use mptcp_energy_repro::topology::TwoPath;
use mptcp_energy_repro::transport::{attach_flow, FlowConfig};

const TRANSFER_PKTS: u64 = 20_000;

fn main() {
    let mut sim = Simulator::new(21);
    let tp = TwoPath::dual_nic(&mut sim, 10_000_000, SimDuration::from_millis(10));

    // Every data direction gets a different ailment; path 1's ACK channel
    // corrupts too, so the sender also has to discard poisoned ACKs.
    let w = sim.world_mut();
    let imp = w.link_mut(tp.p1.fwd).impairment_mut();
    imp.set_reorder(ReorderModel::uniform(0.3, SimDuration::from_millis(4)));
    imp.set_loss(LossModel::iid(0.02));
    let imp = w.link_mut(tp.p2.fwd).impairment_mut();
    imp.set_duplicate(0.1);
    imp.set_corrupt(0.02);
    w.link_mut(tp.p1.rev).impairment_mut().set_corrupt(0.01);

    // A 64-packet receive buffer drained 100 packets at a time every
    // 120 ms of simulated time: the window slams shut repeatedly
    // mid-transfer, so the sender must ride persist probes, not a pretend
    // 1-packet floor.
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0)
            .transfer_pkts(TRANSFER_PKTS)
            .dead_after_backoffs(None)
            .rcv_buf_pkts(64)
            .app_read(SimDuration::from_millis(120), 100),
        CcChoice::Base(AlgorithmKind::Lia).build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    #[cfg(feature = "check-invariants")]
    mptcp_energy_repro::netsim::install_default_invariants(&mut sim);

    sim.run_until(SimTime::from_secs_f64(600.0));
    assert!(flow.is_finished(&sim), "impaired transfer must still complete");

    println!("Adversarial two-path transfer, {TRANSFER_PKTS} packets over LIA:\n");
    println!("  link impairment effects (forward = data, reverse = ACKs):");
    for (label, id) in [
        ("path 1 fwd", tp.p1.fwd),
        ("path 2 fwd", tp.p2.fwd),
        ("path 1 rev", tp.p1.rev),
        ("path 2 rev", tp.p2.rev),
    ] {
        let st = sim.world().link(id).stats();
        println!(
            "    {label}: offered {:>6}, reordered {:>5}, duplicated {:>4}, corrupted {:>3}, lost {:>3}",
            st.offered, st.reordered, st.duplicated, st.corrupted, st.drops_fault
        );
    }

    let c = flow.conn_counters(&sim);
    println!("\n  endpoint robustness counters:");
    println!("    zero-window stalls   {:>6}", c.zero_window_stalls);
    println!("    persist probes       {:>6}", c.persist_probes);
    println!("    corrupt ACKs dropped {:>6}", c.corrupt_acks);
    println!("    corrupt segs dropped {:>6}", c.corrupt_discards);
    println!("    window-full drops    {:>6}", c.rwnd_dropped);
    println!("    reassembly drops     {:>6}", c.ooo_dropped);
    println!("    duplicate segments   {:>6}", c.duplicates);

    let r = flow.receiver_ref(&sim);
    println!(
        "\n  delivered in order: {} / {TRANSFER_PKTS}; drained by the app: {} (finished at {})",
        r.data_delivered(),
        r.app_delivered(),
        flow.finish_time(&sim).expect("finished")
    );
    assert_eq!(r.data_delivered(), TRANSFER_PKTS);
    assert_eq!(r.app_delivered(), TRANSFER_PKTS);
    #[cfg(feature = "check-invariants")]
    {
        assert!(sim.invariant_violation().is_none(), "checker must stay quiet on a healthy run");
        println!("  online invariant checker: active, no violations.");
    }
}
