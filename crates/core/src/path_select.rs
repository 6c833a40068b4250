//! Energy-aware *path selection* — the first class of related work the
//! paper's §II surveys (Pluntke et al. MobiArch 2011; Lim et al. eMPTCP,
//! CoNEXT 2015) and argues against.
//!
//! These schemes estimate a per-path energy cost from an interface energy
//! model and restrict MPTCP to the cheap path(s). The paper's critique,
//! which this module lets you reproduce: selecting only the cheapest path
//! "has the same performance as regular TCP over WiFi, thus losing MPTCP's
//! advantages such as throughput increment" — congestion-control-level
//! energy awareness (DTS) keeps the aggregation benefit instead.

use crate::scenarios::{run_wireless_on, CcChoice, FlowResult, WirelessOptions};
use energy_model::{LteModel, WifiModel};
use std::borrow::Cow;
use transport::{FlowSample, SubflowSample};

/// Which paths an energy-aware selector admits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PathPolicy {
    /// Plain MPTCP: use every path (no selection).
    AllPaths,
    /// The Pluntke-style scheduler: only the single cheapest path.
    CheapestOnly,
    /// eMPTCP-style thresholding: admit paths whose marginal energy cost is
    /// below `max_j_per_mbit` joules per megabit.
    BelowCost {
        /// Admission threshold, joules per megabit.
        max_j_per_mbit: f64,
    },
}

/// Marginal energy cost of moving one megabit over an interface running at
/// `at_mbps`, in joules: `(P(at) − P(idle-ish)) / rate`, i.e. slope plus the
/// amortized active base.
pub fn marginal_cost_j_per_mbit(base_w: f64, per_mbps_w: f64, at_mbps: f64) -> f64 {
    debug_assert!(at_mbps > 0.0);
    per_mbps_w + base_w / at_mbps
}

/// Estimated per-path costs for the WiFi+4G uplink scenario at the given
/// expected rates, using the Huang et al. uplink coefficients.
pub fn wireless_path_costs(wifi_mbps: f64, lte_mbps: f64) -> [f64; 2] {
    let wifi = WifiModel::mobisys2012_uplink();
    let lte = LteModel::mobisys2012_uplink();
    [
        marginal_cost_j_per_mbit(wifi.base_w, wifi.per_mbps_w, wifi_mbps),
        marginal_cost_j_per_mbit(lte.base_w, lte.per_mbps_w, lte_mbps),
    ]
}

/// Applies a policy to per-path costs, returning the admitted path indices
/// (never empty: the cheapest path is always admitted).
pub fn select_paths(costs: &[f64], policy: PathPolicy) -> Vec<usize> {
    assert!(!costs.is_empty(), "no paths to select from");
    // IEEE total order places NaN after every real cost, so a NaN entry can
    // never be chosen as cheapest; the assert above makes the iterator
    // non-empty, so the default index is unreachable.
    let cheapest = costs.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i);
    match policy {
        PathPolicy::AllPaths => (0..costs.len()).collect(),
        PathPolicy::CheapestOnly => vec![cheapest],
        PathPolicy::BelowCost { max_j_per_mbit } => {
            let mut out: Vec<usize> = costs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c <= max_j_per_mbit)
                .map(|(i, _)| i)
                .collect();
            if out.is_empty() {
                out.push(cheapest);
            }
            out
        }
    }
}

/// Runs the Fig. 17 wireless scenario with an energy-aware path selector in
/// front of the congestion controller.
pub fn run_wireless_with_policy(
    cc: &CcChoice,
    opts: &WirelessOptions,
    policy: PathPolicy,
) -> FlowResult {
    // Offline cost estimate at the nominal link rates, as the MDP/eMPTCP
    // schedulers do.
    let costs = wireless_path_costs(10.0, 20.0);
    let admitted = select_paths(&costs, policy);
    let label = format!("{}+select", cc.label());
    run_wireless_on(cc, opts, &admitted, label, |samples| match admitted[..] {
        [path] => Cow::Owned(onto_phone_slots(samples, path)),
        _ => Cow::Borrowed(samples),
    })
}

/// Lays a one-path connection's samples onto the phone's `(wifi, lte)`
/// interface slots: its one subflow keeps slot `path`, and the other slot
/// is an idle, closed interface.
pub fn onto_phone_slots(samples: &[FlowSample], path: usize) -> Vec<FlowSample> {
    let mut samples = samples.to_vec();
    for s in &mut samples {
        s.subflows.insert(1 - path, SubflowSample::IDLE);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lte_uplink_costs_more_per_bit_at_nominal_rates() {
        let [wifi, lte] = wireless_path_costs(10.0, 20.0);
        assert!(lte > wifi, "LTE uplink ({lte} J/Mb) should cost more than WiFi ({wifi} J/Mb)");
    }

    #[test]
    fn cheapest_only_picks_wifi() {
        let costs = wireless_path_costs(10.0, 20.0);
        assert_eq!(select_paths(&costs, PathPolicy::CheapestOnly), vec![0]);
    }

    #[test]
    fn all_paths_keeps_everything() {
        let costs = wireless_path_costs(10.0, 20.0);
        assert_eq!(select_paths(&costs, PathPolicy::AllPaths), vec![0, 1]);
    }

    #[test]
    fn below_cost_thresholds_and_never_returns_empty() {
        let costs = [0.3, 0.5, 0.9];
        let picked = select_paths(&costs, PathPolicy::BelowCost { max_j_per_mbit: 0.6 });
        assert_eq!(picked, vec![0, 1]);
        let none_qualify = select_paths(&costs, PathPolicy::BelowCost { max_j_per_mbit: 0.1 });
        assert_eq!(none_qualify, vec![0], "falls back to the cheapest path");
    }

    #[test]
    fn marginal_cost_amortizes_base_power() {
        // At higher rates the base power amortizes: cost per Mb falls.
        let slow = marginal_cost_j_per_mbit(1.0, 0.4, 2.0);
        let fast = marginal_cost_j_per_mbit(1.0, 0.4, 20.0);
        assert!(slow > fast);
        assert!((fast - (0.4 + 0.05)).abs() < 1e-12);
    }
}
