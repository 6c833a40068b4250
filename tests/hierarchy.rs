//! The §V-C hierarchical-Internet scenario: the compensative parameter φ
//! must relieve the backbone concentration point (shorter queues) without
//! giving up utilization — the design goal of Equations (6)–(9).

use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{run_hierarchy, CcChoice, HierarchyOptions};
use mptcp_energy::DtsPhiConfig;

fn opts() -> HierarchyOptions {
    HierarchyOptions { duration_s: 20.0, ..HierarchyOptions::default() }
}

#[test]
fn backbone_is_the_concentration_point_under_lia() {
    let lia = run_hierarchy(&CcChoice::Base(AlgorithmKind::Lia), &opts());
    assert!(lia.backbone_utilization > 0.7, "backbone should be hot: {}", lia.backbone_utilization);
    assert!(
        lia.backbone_mean_queue > 5.0,
        "backbone should be queueing: {}",
        lia.backbone_mean_queue
    );
}

#[test]
fn phi_drains_the_backbone_queue_without_losing_utilization() {
    let lia = run_hierarchy(&CcChoice::Base(AlgorithmKind::Lia), &opts());
    // κ_s and the delay target are per-user knobs in Equation (7); the WAN
    // hierarchy uses a tight 2 ms target so the backbone queue (≈ 0.08 ms
    // per packet) is visible against 40 ms propagation, and a strong κ so
    // the drain beats the loss-driven refill of an overloaded DropTail
    // queue.
    let phi_cfg = DtsPhiConfig { kappa: 8e-3, queue_target_s: 2e-3, ..DtsPhiConfig::default() };
    let phi = run_hierarchy(&CcChoice::DtsPhi(phi_cfg), &opts());
    assert!(
        phi.backbone_mean_queue < 0.8 * lia.backbone_mean_queue,
        "phi queue {} vs lia {}",
        phi.backbone_mean_queue,
        lia.backbone_mean_queue
    );
    assert!(
        phi.fleet.aggregate_goodput_bps > 0.85 * lia.fleet.aggregate_goodput_bps,
        "phi goodput {} vs lia {}",
        phi.fleet.aggregate_goodput_bps,
        lia.fleet.aggregate_goodput_bps
    );
    // Queue relief shows up as energy relief through the inflation charge.
    assert!(
        phi.fleet.total_energy_j < lia.fleet.total_energy_j * 1.02,
        "phi energy {} vs lia {}",
        phi.fleet.total_energy_j,
        lia.fleet.total_energy_j
    );
}

#[test]
#[allow(
    clippy::float_cmp,
    reason = "bit-reproducibility check: two identical runs must agree exactly, so the float comparison is deliberately strict"
)]
fn deterministic_per_seed() {
    let a = run_hierarchy(&CcChoice::dts(), &opts());
    let b = run_hierarchy(&CcChoice::dts(), &opts());
    assert_eq!(a.fleet.total_energy_j, b.fleet.total_energy_j);
    assert_eq!(a.backbone_mean_queue, b.backbone_mean_queue);
}
