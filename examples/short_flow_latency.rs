//! Mice vs elephants: flow-completion-time percentiles for short transfers
//! racing long-lived background flows in a FatTree — the mixed datacenter
//! traffic the paper's burstiness discussion motivates, and the
//! responsiveness side of DTS's energy/responsiveness tradeoff (§V-A).
//!
//! ```sh
//! cargo run --release --example short_flow_latency
//! ```

use mptcp_energy_repro::congestion::AlgorithmKind;
use mptcp_energy_repro::paper::scenarios::{run_short_flows, CcChoice, ShortFlowOptions};
use mptcp_energy_repro::workload::ShortFlowConfig;

fn main() {
    let opts = ShortFlowOptions {
        mice: ShortFlowConfig { rate_per_s: 15.0, horizon_s: 8.0 },
        ..ShortFlowOptions::default()
    };
    println!("Poisson mice (10 KB – 1 MB) over FatTree(k=4) with 4 elephants:\n");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10}",
        "algo", "done", "p50 (ms)", "p90 (ms)", "p99 (ms)"
    );
    for cc in [
        CcChoice::Base(AlgorithmKind::Reno),
        CcChoice::Base(AlgorithmKind::Lia),
        CcChoice::Base(AlgorithmKind::Olia),
        CcChoice::dts(),
        CcChoice::dts_phi(),
    ] {
        let r = run_short_flows(&cc, &opts);
        println!(
            "{:<10} {:>7.0}% {:>10.1} {:>10.1} {:>10.1}",
            r.label,
            100.0 * r.completion_rate,
            1000.0 * r.fct_percentile(0.5),
            1000.0 * r.fct_percentile(0.9),
            1000.0 * r.fct_percentile(0.99),
        );
    }
    println!("\nDTS trades some tail latency for its energy savings when queues");
    println!("stay inflated — the paper's responsiveness tradeoff, quantified.");
}
