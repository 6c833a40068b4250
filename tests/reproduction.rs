//! The paper's headline claims as data: one row per checked claim, measured
//! on the simulations `figures_all --smoke` and the `figs_smoke` benchmark
//! render. A row reads its figure's own key list (`figs::figNN::keys` at
//! `Scale::Smoke`) from one shared `Sims`, so a run two rows read — Figs.
//! 12–14's and 16's FatTree 2-subflow LIA run, say — is simulated once. The
//! smoke simulations of Figs. 6, 9, 10, 12–14, 16 and 17, datacenter fabrics
//! included, run here at tier-1.
//!
//! A row asserts the *direction* of a published result against a bound;
//! EXPERIMENTS.md quotes the measured values. Each figure's test checks and
//! prints its rows (`-- --nocapture`); a failure lists every row, measured.

use bench_harness::figs::{fig06, fig09, fig10, fig12_14, fig16, fig17, fig_cells_only, Sims};
use bench_harness::{runner::default_jobs, Scale};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{FleetResult, FlowResult};
use std::sync::{Arc, OnceLock};

/// A row's bound on its measured value.
#[derive(Clone, Copy, Debug)]
enum Bound {
    Lt(f64),
    Le(f64),
    Gt(f64),
    Ge(f64),
    /// Exactly: a finished/total rate of 1 is the all-finished sentinel.
    Eq(f64),
    /// Half-open, `[lo, hi)`.
    In(f64, f64),
}
use Bound::{Eq, Ge, Gt, In, Le, Lt};

impl Bound {
    #[allow(clippy::float_cmp, reason = "`Eq` compares a sentinel exactly, on purpose")]
    fn holds(self, v: f64) -> bool {
        match self {
            Lt(b) => v < b,
            Le(b) => v <= b,
            Gt(b) => v > b,
            Ge(b) => v >= b,
            Eq(b) => v == b,
            In(lo, hi) => (lo..hi).contains(&v),
        }
    }
}

/// One checked paper claim.
struct Claim {
    /// `figNN.what`, unique; figure NN's test checks it.
    id: &'static str,
    /// The figure's `figures_all --only` key.
    fig: &'static str,
    bound: Bound,
    /// The paper's direction and value.
    paper: &'static str,
    /// The bound's derivation, or "not derived: <reason>".
    why: &'static str,
    measure: fn(&Sims) -> f64,
}

const S: Scale = Scale::Smoke;
const DIRECTION: &str = "derived: the claim's direction, no margin";
const STALL: &str = "not derived: a floor only a stalled connection misses";

#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    Claim { id: "fig06.users_finished", fig: "fig06", bound: Eq(1.0),
        paper: "every user's transfer completes",
        why: "derived: an unfinished user, or a non-finite or non-positive energy, is a broken run",
        measure: |s| fig06_runs(s).0 },
    Claim { id: "fig06.mean_energy_max_over_min", fig: "fig06", bound: Lt(1.4),
        paper: "OLIA lowest mean energy, increasingly so at large N",
        why: "not derived: one band for all four; OLIA's lead is inside the noise at this scale",
        measure: |s| fig06_runs(s).1 },
    Claim { id: "fig09.transfers_finished", fig: "fig09", bound: Eq(1.0),
        paper: "both transfers complete", why: "derived: Equation (2)'s energy needs the finish",
        measure: |s| { let r = s.bursty(&fig09::keys(S));
            r.iter().filter(|r| r.finish_s.is_some()).count() as f64 / r.len() as f64 } },
    Claim { id: "fig09.dts_energy_over_lia", fig: "fig09", bound: Lt(1.0),
        paper: "DTS uses up to 20 % less energy than LIA", why: DIRECTION,
        measure: |s| { let r = s.bursty(&fig09::keys(S)); r[1].energy.joules / r[0].energy.joules }
    },
    Claim { id: "fig09.dts_goodput_over_lia", fig: "fig09", bound: Ge(0.95),
        paper: "DTS does not degrade throughput (Fig. 8)", why: "not derived: 5 % for one seed",
        measure: |s| { let r = s.bursty(&fig09::keys(S)); r[1].goodput_bps / r[0].goodput_bps } },
    Claim { id: "fig10.tcp_and_lia_completion", fig: "fig10", bound: Eq(1.0),
        paper: "every transfer completes", why: "derived: below 1, a transfer hit the horizon",
        measure: |s| { let r = fig10_runs(s); r[0].completion_rate.min(r[2].completion_rate) } },
    Claim { id: "fig10.lia_energy_over_tcp", fig: "fig10", bound: Lt(0.6),
        paper: "multipath saves up to 70 % of single-path TCP's energy",
        why: "not derived: a 40 % saving floor under the paper's 70 %",
        measure: |s| { let r = fig10_runs(s); r[2].total_energy_j / r[0].total_energy_j } },
    Claim { id: "fig10.dts_energy_over_lia", fig: "fig10", bound: In(0.8, 1.2),
        paper: "DTS performs like LIA in this benign network", why: "not derived: ±20 % of parity",
        measure: |s| { let r = fig10_runs(s); r[3].total_energy_j / r[2].total_energy_j } },
    Claim { id: "fig12.bcube_jpg_more_over_one", fig: "fig12_14", bound: Lt(1.0),
        paper: "more subflows greatly reduce BCube's energy overhead", why: DIRECTION,
        measure: |s| more_over_one(&dc(s, "bcube"), |r| r.joules_per_gbit) },
    Claim { id: "fig12.bcube_goodput_more_over_one", fig: "fig12_14", bound: Gt(1.0),
        paper: "each BCube subflow leaves through a NIC of its own", why: DIRECTION,
        measure: |s| more_over_one(&dc(s, "bcube"), |r| r.aggregate_goodput_bps) },
    Claim { id: "fig13.fattree_goodput_bps", fig: "fig12_14", bound: Le(16.0 * 100e6 * 1.01),
        paper: "FatTree hosts have one NIC", why: "derived: 16 hosts' 100 Mb/s links, plus 1 %",
        measure: |s| dc(s, "fattree").iter().map(|r| r.aggregate_goodput_bps).fold(0.0, f64::max) },
    Claim { id: "fig13.fattree_goodput_gain", fig: "fig12_14", bound: Lt(2.5),
        paper: "more subflows fail to save energy in FatTree",
        why: "not derived: extra subflows only resolve ECMP collisions, by an unmeasured amount",
        measure: |s| more_over_one(&dc(s, "fattree"), |r| r.aggregate_goodput_bps) },
    Claim { id: "fig16.fattree_dts_goodput_over_lia", fig: "fig16", bound: Gt(0.9),
        paper: "DTS gets as good utilization as LIA", why: "not derived: a 10 % allowance",
        measure: |s| { let r = s.datacenter(&fig16::keys(S)[..2]);
            r[1].aggregate_goodput_bps / r[0].aggregate_goodput_bps } },
    Claim { id: "fig16.fattree_phi_goodput_over_lia", fig: "fig16", bound: Gt(0.9),
        paper: "DTS-Φ, Fig. 15's energy saver, gets as good utilization as LIA",
        why: "not derived: a 10 % allowance",
        measure: |s| { let r = s.datacenter(&fig16::keys(S)[..3]);
            r[2].aggregate_goodput_bps / r[0].aggregate_goodput_bps } },
    Claim { id: "fig17.lia_and_phi_goodput_bps", fig: "fig17", bound: Gt(1e6),
        paper: "both algorithms move traffic", why: STALL,
        measure: |s| { let r = fig17_runs(s); r[0].goodput_bps.min(r[1].goodput_bps) } },
    Claim { id: "fig17.phi_jpb_over_lia", fig: "fig17", bound: Lt(1.05),
        paper: "DTS-Φ saves up to 30 % of LIA's energy, trading throughput",
        why: "not derived: J/bit at most 5 % above LIA's, as total energy is noisy",
        measure: |s| { let r = fig17_runs(s);
            (r[1].energy.joules / r[1].goodput_bps) / (r[0].energy.joules / r[0].goodput_bps) } },
];

/// Fig. 6's share of users finished with finite, positive energy, and the
/// largest over the smallest mean energy of the four algorithms.
fn fig06_runs(s: &Sims) -> (f64, f64) {
    let keys = fig06::keys(S, &AlgorithmKind::PAPER_FOUR);
    let runs = s.shared(&keys);
    let ok = runs.iter().flat_map(|e| e.iter()).filter(|e| e.is_finite() && **e > 0.0).count();
    let users: usize = keys.iter().map(|(_, o)| o.n_users).sum();
    let means: Vec<f64> = runs.iter().map(|e| mptcp_energy::mean(e)).collect();
    let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = means.iter().copied().fold(0.0, f64::max);
    (ok as f64 / users as f64, hi / lo)
}

/// Fig. 10's TCP, DCTCP, LIA and DTS runs.
fn fig10_runs(s: &Sims) -> Vec<Arc<FleetResult>> {
    s.ec2(&fig10::keys(S))
}

/// Figs. 12–14's runs on one fabric, one subflow first.
fn dc(s: &Sims, fabric: &str) -> Vec<Arc<FleetResult>> {
    let keys: Vec<_> = fig12_14::keys(S).into_iter().filter(|(f, ..)| f.name() == fabric).collect();
    s.datacenter(&keys)
}

/// A figure of the run with the most subflows over that of the run with one.
fn more_over_one(r: &[Arc<FleetResult>], of: fn(&FleetResult) -> f64) -> f64 {
    of(&r[r.len() - 1]) / of(&r[0])
}

/// Fig. 17's LIA and DTS-Φ runs; its plain DTS run is not claimed.
fn fig17_runs(s: &Sims) -> Vec<Arc<FlowResult>> {
    let keys = fig17::keys(S);
    s.wireless(&[keys[0], keys[2]])
}

/// A row measured on the one smoke plan: whether it holds, and its line.
fn measure(c: &Claim) -> (bool, String) {
    // Shared by this file's tests on purpose: a simulation is a pure function
    // of its key and each key's slot is a `OnceLock`, so tests asking for one
    // key at once simulate it once (DESIGN.md §4b).
    static SIMS: OnceLock<Sims> = OnceLock::new();
    let Claim { id, bound, paper, why, measure, .. } = c;
    let value = measure(SIMS.get_or_init(|| Sims::new(default_jobs())));
    let holds = bound.holds(value);
    let verdict = if holds { "holds" } else { "FAILS" };
    (holds, format!("{id:<34} {value:>15.4} {bound:?} {verdict}; paper: {paper}; {why}"))
}

/// The one loop: checks and prints the rows whose id starts with `prefix`;
/// a failure's message lists every row.
fn check(prefix: &str) {
    let mut failed = Vec::new();
    for c in CLAIMS.iter().filter(|c| c.id.starts_with(prefix)) {
        let (holds, line) = measure(c);
        println!("{line}");
        if !holds {
            failed.push(c.id);
        }
    }
    if !failed.is_empty() {
        let all: Vec<String> = CLAIMS.iter().map(|c| measure(c).1).collect();
        panic!("{failed:?} miss their bounds; every row:\n{}", all.join("\n"));
    }
}

/// The tests' prefixes, in test order; every id starts with one.
const TESTED: [&str; 7] = ["fig06.", "fig09.", "fig10.", "fig12.", "fig13.", "fig16.", "fig17."];

#[test]
fn fig6_four_friendly_algorithms_complete_with_bounded_energy_spread() {
    check(TESTED[0]);
}

#[test]
fn fig9_dts_uses_less_energy_than_lia_on_bursty_paths() {
    check(TESTED[1]);
}

#[test]
fn fig10_multipath_saves_energy_over_single_path_on_ec2() {
    check(TESTED[2]);
}

#[test]
fn fig12_more_subflows_reduce_bcube_energy_overhead() {
    check(TESTED[3]);
}

#[test]
fn fig13_fattree_gains_little_from_extra_subflows() {
    check(TESTED[4]);
}

#[test]
fn fig16_dts_matches_lia_utilization_in_fattree() {
    check(TESTED[5]);
}

#[test]
fn fig17_wireless_runs_and_phi_trades_throughput_for_energy() {
    check(TESTED[6]);
}

#[test]
fn every_claim_names_a_smoke_figure_a_unique_id_and_a_test() {
    for (i, c) in CLAIMS.iter().enumerate() {
        assert!(fig_cells_only(S, c.fig).is_ok(), "{}: unknown figure {:?}", c.id, c.fig);
        assert!(CLAIMS[..i].iter().all(|d| d.id != c.id), "{} twice", c.id);
        assert!(TESTED.iter().any(|t| c.id.starts_with(t)), "{}: no test checks it", c.id);
    }
}
