//! Short-flow (mice) workload over a FatTree with elephant background
//! traffic: completion-time sanity across algorithms — the mixed traffic of
//! real fabrics that motivates the paper's burstiness concerns.

use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{run_short_flows, CcChoice, ShortFlowOptions};
use workload::ShortFlowConfig;

fn opts() -> ShortFlowOptions {
    ShortFlowOptions {
        mice: ShortFlowConfig { rate_per_s: 10.0, horizon_s: 5.0 },
        ..ShortFlowOptions::default()
    }
}

#[test]
fn mice_complete_under_elephant_pressure() {
    for cc in [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()] {
        let r = run_short_flows(&cc, &opts());
        assert!(r.completion_rate > 0.95, "{}: completion {}", r.label, r.completion_rate);
        assert!(!r.fct_s.is_empty());
        // Median mouse (≤ 1 MB on a 100 Mb/s fabric) finishes in well under
        // a second even with elephants around.
        assert!(r.fct_percentile(0.5) < 1.0, "{}: median fct {}", r.label, r.fct_percentile(0.5));
        // Percentiles are ordered.
        assert!(r.fct_percentile(0.5) <= r.fct_percentile(0.99));
    }
}

#[test]
fn dts_mice_latency_tradeoff_is_bounded() {
    let lia = run_short_flows(&CcChoice::Base(AlgorithmKind::Lia), &opts());
    let dts = run_short_flows(&CcChoice::dts(), &opts());
    // Measured tradeoff: DTS's delay-based caution slows tail mice when
    // elephants keep queues inflated (ε < 1 during their congestion-avoidance
    // ramp). The paper's responsiveness/energy tradeoff (§V-A) predicts
    // exactly this; the bound pins it from growing. The exact ratio is
    // sensitive to the seeded arrival/size stream (currently ~2.4× under the
    // vendored RNG), so the bound carries headroom above the measured point.
    assert!(
        dts.fct_percentile(0.9) <= lia.fct_percentile(0.9) * 3.0,
        "dts p90 {} vs lia p90 {}",
        dts.fct_percentile(0.9),
        lia.fct_percentile(0.9)
    );
    assert!(dts.completion_rate > 0.95);
}

#[test]
fn deterministic_per_seed() {
    let a = run_short_flows(&CcChoice::dts(), &opts());
    let b = run_short_flows(&CcChoice::dts(), &opts());
    assert_eq!(a.fct_s, b.fct_s);
}
