//! Hybrid fluid/packet engine: integrate long-lived flows as the paper's
//! Equation (3) ODEs while short transfers run packet-by-packet on the
//! same FatTree, coupled each epoch through background load and queueing
//! delay (DESIGN.md §14).
//!
//! ```sh
//! cargo run --release --example hybrid_engine
//! ```

use mptcp_energy_repro::congestion::AlgorithmKind;
use mptcp_energy_repro::energy::WiredCpuModel;
use mptcp_energy_repro::netsim::{LinkConfig, SimDuration, Simulator};
use mptcp_energy_repro::paper::hybrid::{fluid_model_of, HybridConfig, HybridEngine};
use mptcp_energy_repro::paper::scenarios::CcChoice;
use mptcp_energy_repro::topology::FatTree;
use mptcp_energy_repro::transport::{FlowConfig, DEFAULT_MSS_BYTES};
use mptcp_energy_repro::workload::permutation_pairs;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run(cc: &CcChoice) -> (f64, f64, u64) {
    const HOST_BPS: u64 = 100_000_000;
    let mut sim = Simulator::new(7);
    let params = LinkConfig::new(HOST_BPS, SimDuration::from_micros(100)).queue_limit(32);
    let ft = FatTree::build(&mut sim, 4, params);
    let hosts = ft.hosts();

    let cfg = HybridConfig {
        epoch_s: 0.1,
        fluid_dt: 1e-3,
        // Short transfers still running after two epochs cross into the
        // fluid regime — the packet→fluid handoff in miniature.
        handoff_age_s: 0.2,
        ..HybridConfig::default()
    };
    let model = fluid_model_of(cc).expect("every model below has a fluid form");
    let mut eng = HybridEngine::new(sim, hosts, WiredCpuModel::energy_proportional_server(), cfg);

    // 16 long-lived flows (fluid, two subflows each) + 8 short transfers
    // (packet-level) over permutation traffic.
    let mut rng = SmallRng::seed_from_u64(42);
    let pairs = permutation_pairs(hosts, &mut rng);
    let x0 = HOST_BPS as f64 / (8.0 * f64::from(DEFAULT_MSS_BYTES) * 4.0);
    for &(src, dst) in pairs.iter().take(16) {
        let paths = ft.sample_paths(src, dst, 2, &mut rng);
        eng.add_fluid_flow(model, &paths, x0, src);
    }
    let short_pairs = permutation_pairs(hosts, &mut rng);
    for (j, &(src, dst)) in short_pairs.iter().take(8).enumerate() {
        let paths = ft.sample_paths(src, dst, 2, &mut rng);
        let fc = FlowConfig::new(j as u64)
            .transfer_pkts(64 + 512 * j as u64)
            .min_rto(SimDuration::from_millis(10))
            .rcv_buf_pkts(512);
        eng.add_packet_flow_from(fc, cc, &paths, SimDuration::from_millis(5 * j as u64), src);
    }

    eng.run_epochs(4);
    (eng.joules_per_gbit(), eng.delivered_bits() / 0.4, eng.counters().handoffs)
}

fn main() {
    println!("Hybrid fluid/packet engine on FatTree(k=4), 16 fluid + 8 packet flows:\n");
    println!("{:<8} {:>10} {:>14} {:>9}", "algo", "J/Gbit", "goodput Mb/s", "handoffs");
    for cc in
        [CcChoice::Base(AlgorithmKind::Lia), CcChoice::Base(AlgorithmKind::Olia), CcChoice::dts()]
    {
        let (jpg, bps, handoffs) = run(&cc);
        println!("{:<8} {:>10.1} {:>14.1} {:>9}", cc.label(), jpg, bps / 1e6, handoffs);
    }
    println!("\nLong-lived flows advance as Equation-(3) ODEs (cheap at any");
    println!("scale); short transfers stay packet-accurate, and stragglers");
    println!("hand off to the fluid regime mid-run. The same engine drives");
    println!("the FatTree(k=32) / 100 000-flow study in `hybrid_scale`.");
}
