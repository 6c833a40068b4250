//! The metric ledger: every name the benchmark prints, with unit and
//! direction, and the text of `BENCHMARK.json` derived from it.
//!
//! `BENCHMARK.json` at the repo root is the checked-in rendering of
//! [`benchmark_json`] (`--emit-spec` prints it); `--selftest` and the unit
//! tests fail if the file and this module disagree, so a metric cannot be
//! printed without being declared or declared without being printed.

use crate::pass::Layer;
use crate::probes::algo_key;
use crate::workloads::{figs_smoke::fig_key, wireless_lossy, Workload};

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// A declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The name printed.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric { name: name.into(), unit, better, bound: None }
}

/// The end-to-end ledger. Every workload reports every entry, with tracing
/// off, as defined in README.md.
///
/// Bounds are sized to what the sandbox resolves. In a quiet quarter of an
/// hour, ten runs with ten seeds spread (interquartile, as a share of the
/// median) by 0.2–7 % on the timing metrics; in a noisy one — the neighbours
/// come and go by the hour — by up to 20 %, and the median moves by
/// up to 15 %. The timing metrics therefore take the widest bound the contract
/// allows, so that a rejection means a regression and not the neighbours'
/// load; memory, which the neighbours do not move, takes less.
pub fn end_to_end() -> Vec<Metric> {
    let e =
        |name: &str, unit, better, bound| Metric { bound: Some(bound), ..m(name, unit, better) };
    vec![
        e("wall_s", "s", "lower", 0.25),
        e("cpu_s", "s", "lower", 0.25),
        e("setup_s", "s", "lower", 0.25),
        e("peak_rss_mb", "MB", "lower", 0.20),
        e("work_per_s", "1/s", "higher", 0.25),
        e("cell_ms_p50", "ms", "lower", 0.25),
        e("cell_ms_p90", "ms", "lower", 0.25),
    ]
}

/// The per-layer ledger, printed by the traced run. Unit costs come from the
/// probes and are the same on every workload; counts come from the
/// workload's own traced pass and read 0 where the workload does not cross
/// the layer observably.
pub fn per_layer() -> Vec<Metric> {
    let mut v = Vec::new();
    for exp in 1..=6 {
        v.push(m(format!("netsim.step_ns.p1e{exp}"), "ns", "lower"));
    }
    v.push(m("netsim.step_ns.far_p1e3", "ns", "lower"));
    v.push(m("netsim.link_hop_ns", "ns", "lower"));
    v.push(m("netsim.link_hop_impaired_ns", "ns", "lower"));
    v.push(m("netsim.run_s", "s", "lower"));
    v.push(m("netsim.link_tx_pkts", "count", "higher"));
    v.push(m("netsim.drops_queue", "count", "lower"));
    v.push(m("netsim.drops_fault", "count", "lower"));
    v.push(m("netsim.ecn_marks", "count", "lower"));
    v.push(m("netsim.pending_events_p50", "count", "lower"));
    v.push(m("netsim.pending_events_max", "count", "lower"));
    v.push(m("netsim.armed_timers_max", "count", "lower"));
    v.push(m("netsim.run_share_pct", "%", "lower"));

    v.push(m("transport.bulk_ns_per_pkt", "ns", "lower"));
    v.push(m("transport.self_ns_per_pkt", "ns", "lower"));
    v.push(m("transport.mptcp4_ns_per_pkt", "ns", "lower"));
    v.push(m("transport.lossy_ns_per_pkt", "ns", "lower"));
    v.push(m("transport.attach_us_per_subflow", "us", "lower"));
    v.push(m("transport.data_pkts_acked", "count", "higher"));
    v.push(m("transport.fast_rexmits", "count", "lower"));
    v.push(m("transport.rtos", "count", "lower"));
    v.push(m("transport.spurious_rexmits", "count", "lower"));
    v.push(m("transport.recoveries", "count", "lower"));
    v.push(m("transport.ooo_dropped", "count", "lower"));
    v.push(m("transport.goodput_ratio", "ratio", "higher"));
    v.push(m("transport.run_share_pct", "%", "lower"));

    for cc in wireless_lossy::algorithms() {
        v.push(m(format!("congestion.on_ack_ns.{}", algo_key(&cc)), "ns", "lower"));
    }
    v.push(m("congestion.on_ack_calls", "count", "lower"));
    v.push(m("congestion.on_loss_calls", "count", "lower"));
    v.push(m("congestion.run_share_pct", "%", "lower"));

    v.push(m("energy.wired_ns_per_sample", "ns", "lower"));
    v.push(m("energy.phone_ns_per_sample", "ns", "lower"));
    v.push(m("energy.samples", "count", "higher"));

    v.push(m("topology.fattree_k8_build_ms", "ms", "lower"));
    v.push(m("topology.sample_paths_us", "us", "lower"));
    v.push(m("topology.links", "count", "lower"));

    v.push(m("workload.pareto_ns_per_pkt", "ns", "lower"));

    for algo in ["lia", "olia", "dts", "dts_phi"] {
        v.push(m(format!("core.fluid_step_ns_per_path.{algo}"), "ns", "lower"));
    }
    v.push(m("core.advance_epoch_ms", "ms", "lower"));
    v.push(m("core.epoch_exchange_ms", "ms", "lower"));
    v.push(m("core.add_fluid_flow_us", "us", "lower"));
    v.push(m("core.fluid_steps", "count", "higher"));
    v.push(m("core.fluid_paths", "count", "higher"));
    v.push(m("core.handoffs", "count", "higher"));
    v.push(m("core.price_cap_hits", "count", "lower"));
    v.push(m("core.background_links", "count", "higher"));

    v.push(m("obs.events", "count", "higher"));
    v.push(m("obs.emit_ns", "ns", "lower"));
    v.push(m("obs.jsonl_ns_per_event", "ns", "lower"));

    for cell in bench_harness::figs::fig_cells(bench_harness::Scale::Smoke) {
        v.push(m(format!("bench.fig_s.{}", fig_key(&cell.label)), "s", "lower"));
    }
    v.push(m("bench.cell_overhead_us", "us", "lower"));
    v.push(m("bench.journal_append_us", "us", "lower"));
    v.push(m("bench.journal_replay_us", "us", "lower"));
    v.push(m("bench.journal_bytes_per_cell", "count", "lower"));
    v.push(m("bench.dist_round_ms", "ms", "lower"));
    v.push(m("bench.dist_fixed_ms", "ms", "lower"));
    v.push(m("bench.retries", "count", "lower"));
    v.push(m("bench.redispatches", "count", "lower"));
    v.push(m("bench.quarantined", "count", "lower"));
    v.push(m("bench.run_unattributed_pct", "%", "lower"));

    for layer in Layer::ALL {
        v.push(m(format!("{}.self_s", layer.name()), "s", "lower"));
    }
    v.push(m("trace_overhead_pct", "%", "lower"));
    v
}

/// One line on why a workload is in the benchmark (`why` in
/// `BENCHMARK.json`; the module docs and README.md say more).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::FigsSmoke => {
            "what people actually run: crosses every crate; transport-heavy, Fig. 6 is 80 % of it"
        }
        Workload::DcPacket => {
            "netsim-bound datacenter regime: 12 hops per packet, the largest pending-event population"
        }
        Workload::WirelessLossy => {
            "mobile regime: tiny far-future event queue, loss/reorder slow paths, LTE tail energy"
        }
        Workload::HybridFluid => {
            "core::fluid and core::hybrid do nearly all the work and netsim very little"
        }
        Workload::SweepFabric => {
            "the harness alone: journal, resume and two-worker dispatch on a real-sized 48-cell grid"
        }
    }
}

/// Whether `name` is a legal workload or metric name: starts with a letter
/// or digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metric = |x: &Metric| {
        let bound = x.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            x.name, x.unit, x.better
        )
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                crate::json::escape(why(w))
            )
        })
        .collect();
    let e2e: Vec<String> = end_to_end().iter().map(metric).collect();
    let layers: Vec<String> = per_layer().iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ledger_respects_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(Workload::ALL.len() <= 8);
        assert!(e2e.len() <= 16 && layers.len() <= 128, "{} {}", e2e.len(), layers.len());
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name().to_owned()));
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
        for x in e2e.iter().chain(&layers) {
            assert!(name_ok(&x.name), "{}", x.name);
            assert!(seen.insert(x.name.clone()), "{} is declared twice", x.name);
            assert!(x.unit.len() <= 16 && matches!(x.better, "lower" | "higher"));
        }
        assert!(e2e.iter().all(|x| x.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|x| x.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn name_rule_matches_the_contract() {
        assert!(name_ok("netsim.step_ns.p1e6") && name_ok("1x") && name_ok("a-b_c.d"));
        assert!(!name_ok("") && !name_ok(".a") && !name_ok("a b") && !name_ok("a/b"));
        assert!(!name_ok(&"a".repeat(65)) && name_ok(&"a".repeat(64)));
    }

    #[test]
    fn checked_in_benchmark_json_is_the_rendered_ledger() {
        let path = crate::repo_root().join("BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, benchmark_json(), "regenerate with --emit-spec > BENCHMARK.json");
        crate::json::parse(&on_disk).unwrap();
    }
}
