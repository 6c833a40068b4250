//! Property: under arbitrary combinations of loss, reordering, duplication,
//! and corruption on both directions of both paths, an MPTCP transfer still
//! completes with exactly-once, in-order delivery into the application.
//!
//! This is the transport robustness contract: impairments may slow the
//! transfer down arbitrarily, but can never duplicate, drop, or reorder
//! what the application sees.

use congestion::AlgorithmKind;
use netsim::prelude::*;
use proptest::prelude::*;
use transport::{attach_flow, FlowConfig, PathSpec};

/// Builds a two-path topology where every one of the four links carries the
/// same adversarial impairment mix, runs a fixed-size transfer, and returns
/// `(finished, data_delivered, app_delivered, data_acked)`.
fn run_adversarial(
    seed: u64,
    pkts: u64,
    loss_p: f64,
    reorder_p: f64,
    reorder_max_us: u64,
    dup_p: f64,
    corrupt_p: f64,
) -> (bool, u64, u64, u64) {
    let mut sim = Simulator::new(seed);
    let mut links = Vec::new();
    for _ in 0..4 {
        let l =
            sim.add_link(LinkConfig::new(8_000_000, SimDuration::from_millis(5)).queue_limit(64));
        let imp = sim.world_mut().link_mut(l).impairment_mut();
        imp.set_loss(LossModel::iid(loss_p));
        imp.set_reorder(ReorderModel::uniform(reorder_p, SimDuration::from_micros(reorder_max_us)));
        imp.set_duplicate(dup_p);
        imp.set_corrupt(corrupt_p);
        links.push(l);
    }
    let paths = [
        PathSpec::new(vec![links[0]], vec![links[1]]),
        PathSpec::new(vec![links[2]], vec![links[3]]),
    ];
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0)
            .transfer_pkts(pkts)
            .rcv_buf_pkts(64)
            .min_rto(SimDuration::from_millis(30))
            .dead_after_backoffs(None),
        AlgorithmKind::Lia.build(2),
        &[paths[0].clone(), paths[1].clone()],
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(600.0));
    let r = flow.receiver_ref(&sim);
    (
        flow.is_finished(&sim),
        r.data_delivered(),
        r.app_delivered(),
        flow.sender_ref(&sim).data_acked(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exactly-once, in-order completion survives any mix of adversarial
    /// path impairments on every link.
    #[test]
    fn transfers_complete_exactly_once_under_adversarial_impairments(
        seed in 0u64..1000,
        pkts in 50u64..250,
        loss_p in 0.0f64..0.08,
        reorder_p in 0.0f64..0.5,
        reorder_max_us in 100u64..8_000,
        dup_p in 0.0f64..0.2,
        corrupt_p in 0.0f64..0.08,
    ) {
        let (finished, data_delivered, app_delivered, data_acked) =
            run_adversarial(seed, pkts, loss_p, reorder_p, reorder_max_us, dup_p, corrupt_p);
        prop_assert!(finished, "transfer did not finish under impairments");
        prop_assert_eq!(data_delivered, pkts, "in-order delivery count wrong");
        prop_assert_eq!(app_delivered, pkts, "app-level delivery count wrong");
        prop_assert_eq!(data_acked, pkts);
    }

    /// The worst case of every impairment at once — plus a tiny receive
    /// buffer so reassembly-bound drops trigger too — still converges.
    #[test]
    fn heavy_impairments_with_tiny_buffers_still_converge(seed in 0u64..500) {
        let mut sim = Simulator::new(seed);
        let mut links = Vec::new();
        for _ in 0..4 {
            let l = sim.add_link(
                LinkConfig::new(5_000_000, SimDuration::from_millis(8)).queue_limit(16),
            );
            let imp = sim.world_mut().link_mut(l).impairment_mut();
            imp.set_loss(LossModel::iid(0.05));
            imp.set_reorder(ReorderModel::uniform(0.4, SimDuration::from_millis(4)));
            imp.set_duplicate(0.15);
            imp.set_corrupt(0.05);
            links.push(l);
        }
        let flow = attach_flow(
            &mut sim,
            FlowConfig::new(0)
                .transfer_pkts(120)
                .rcv_buf_pkts(8)
                .min_rto(SimDuration::from_millis(30))
                .dead_after_backoffs(None),
            AlgorithmKind::Olia.build(2),
            &[
                PathSpec::new(vec![links[0]], vec![links[1]]),
                PathSpec::new(vec![links[2]], vec![links[3]]),
            ],
            SimDuration::ZERO,
        );
        sim.run_until(SimTime::from_secs_f64(600.0));
        let r = flow.receiver_ref(&sim);
        prop_assert!(flow.is_finished(&sim));
        prop_assert_eq!(r.data_delivered(), 120);
        prop_assert_eq!(r.app_delivered(), 120);
    }
}
