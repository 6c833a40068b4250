//! Reproduces the paper's §II critique of energy-aware *path selection*
//! (Pluntke et al.; eMPTCP): restricting MPTCP to the cheapest path saves
//! device energy but forfeits the aggregation benefit — the motivation for
//! doing energy awareness inside congestion control instead.

use congestion::AlgorithmKind;
use mptcp_energy::path_select::{run_wireless_with_policy, PathPolicy};
use mptcp_energy::scenarios::{run_wireless, CcChoice, FlowResult, WirelessOptions};

fn opts() -> WirelessOptions {
    WirelessOptions { duration_s: 40.0, ..WirelessOptions::default() }
}

#[test]
fn cheapest_only_selection_saves_energy_but_loses_aggregation() {
    let lia = CcChoice::Base(AlgorithmKind::Lia);
    let mptcp = run_wireless(&lia, &opts());
    let selected = run_wireless_with_policy(&lia, &opts(), PathPolicy::CheapestOnly);
    // The selector saves power (one radio instead of two)...
    assert!(
        selected.energy.mean_power_w < mptcp.energy.mean_power_w,
        "selector power {} should undercut MPTCP {}",
        selected.energy.mean_power_w,
        mptcp.energy.mean_power_w
    );
    // ...but throws away the second path's throughput (the paper's point).
    assert!(
        selected.goodput_bps < 0.85 * mptcp.goodput_bps,
        "selector goodput {} vs MPTCP {}",
        selected.goodput_bps,
        mptcp.goodput_bps
    );
}

/// Every field of a result but its label, floats as their bit patterns and
/// each trace prefixed by its length.
fn bits(r: &FlowResult) -> Vec<u64> {
    let e = &r.energy;
    let mut bits = vec![
        r.goodput_bps.to_bits(),
        e.joules.to_bits(),
        e.duration_s.to_bits(),
        e.mean_power_w.to_bits(),
        r.finish_s.map_or(u64::MAX, f64::to_bits),
        r.rexmits,
        r.rtos,
    ];
    for trace in [&e.trace, &r.tput_trace] {
        bits.push(trace.len() as u64);
        bits.extend(trace.iter().flat_map(|&(t, y)| [t.to_bits(), y.to_bits()]));
    }
    bits
}

#[test]
fn all_paths_policy_is_plain_mptcp() {
    let lia = CcChoice::Base(AlgorithmKind::Lia);
    let plain = run_wireless(&lia, &opts());
    let all = run_wireless_with_policy(&lia, &opts(), PathPolicy::AllPaths);
    assert_eq!(all.label, "lia+select");
    assert_eq!(bits(&all), bits(&plain), "admitting every path is the Fig. 17 run, bit for bit");
}

#[test]
fn dts_keeps_aggregation_while_approaching_selector_energy() {
    // The paper's pitch: congestion-control-level energy awareness (DTS-Φ)
    // should land between plain MPTCP and the path selector — most of the
    // selector's energy saving, much more of MPTCP's throughput.
    let lia = run_wireless(&CcChoice::Base(AlgorithmKind::Lia), &opts());
    let phi = run_wireless(&CcChoice::dts_phi(), &opts());
    let selector = run_wireless_with_policy(
        &CcChoice::Base(AlgorithmKind::Lia),
        &opts(),
        PathPolicy::CheapestOnly,
    );
    assert!(
        phi.goodput_bps > selector.goodput_bps,
        "DTS-Φ throughput {} must beat the selector's {}",
        phi.goodput_bps,
        selector.goodput_bps
    );
    // Energy-per-bit ordering: selector ≤ DTS-Φ ≤ LIA (tolerances for noise).
    let jpb = |r: &FlowResult| r.energy.joules / (r.goodput_bps + 1.0);
    assert!(jpb(&phi) <= jpb(&lia) * 1.05, "phi {} lia {}", jpb(&phi), jpb(&lia));
}
