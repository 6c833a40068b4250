//! Datacenter-scale energy study on the hybrid fluid/packet engine
//! (FatTree, permutation traffic, per-CC-model J/Gbit and throughput
//! tables).
//!
//! This is the scale demonstration the pure packet stack cannot reach: at
//! `--full` the fabric is FatTree(k = 32) — 8192 hosts, 49 152 links — with
//! 100 000 long-lived two-subflow flows integrated as Equation-(3) fluids
//! plus a packet-level population of short transfers riding the same links
//! (fluid traffic installed as background load, stragglers handed off to
//! the fluid regime mid-run). One cell per congestion-control model.
//!
//! Runs through the crash-safe sweep fabric: `--journal PATH` checkpoints
//! each completed cell and resumes after a kill; `--smoke/--quick/--full`
//! select the scale tier; `--workers N` distributes the cells over N
//! worker processes with leases, heartbeats, and re-dispatch on worker
//! loss. Same seed + same tier → byte-identical stdout regardless of worker
//! count (all state derives from the simulator clock and seeded RNG;
//! outputs are journaled bit-exactly).

use bench_harness::fabric::journal::{JournalValue, ValueReader};
use bench_harness::fabric::{FabricCell, Fingerprint, JournalCodec};
use bench_harness::{Cli, Scale};
use congestion::AlgorithmKind;
use energy_model::WiredCpuModel;
use mptcp_energy::hybrid::{
    fluid_model_of, fluid_path, HybridConfig, HybridCounters, HybridEngine,
};
use mptcp_energy::scenarios::CcChoice;
use netsim::{LinkConfig, SimDuration, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::FatTree;
use transport::{FlowConfig, DEFAULT_MSS_BYTES};
use workload::permutation_pairs;

/// One scale tier of the study.
#[derive(Clone, Copy, Debug)]
struct Tier {
    /// FatTree arity (hosts = k³/4).
    k: usize,
    /// Long-lived fluid flows (two subflows each).
    long_flows: usize,
    /// Short packet-level transfers sharing the fabric.
    short_flows: usize,
    /// Coupling epochs to run.
    epochs: usize,
    /// Epoch length, seconds.
    epoch_s: f64,
    /// Fluid RK4 step, seconds.
    fluid_dt: f64,
}

fn tier(scale: Scale) -> Tier {
    match scale {
        Scale::Smoke => {
            Tier { k: 4, long_flows: 64, short_flows: 12, epochs: 4, epoch_s: 0.1, fluid_dt: 1e-3 }
        }
        Scale::Quick => Tier {
            k: 8,
            long_flows: 2_048,
            short_flows: 64,
            epochs: 6,
            epoch_s: 0.2,
            fluid_dt: 5e-4,
        },
        Scale::Full => Tier {
            k: 32,
            long_flows: 100_000,
            short_flows: 512,
            epochs: 8,
            epoch_s: 0.25,
            fluid_dt: 2e-4,
        },
    }
}

/// Per-cell output journaled bit-exactly.
#[derive(Clone, Debug, PartialEq)]
struct CellOut {
    energy_j: f64,
    delivered_bits: f64,
    joules_per_gbit: f64,
    goodput_bps: f64,
    hybrid: HybridCounters,
}

impl JournalCodec for CellOut {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        self.energy_j.encode(out);
        self.delivered_bits.encode(out);
        self.joules_per_gbit.encode(out);
        self.goodput_bps.encode(out);
        self.hybrid.encode(out);
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        Ok(CellOut {
            energy_j: f64::decode(r)?,
            delivered_bits: f64::decode(r)?,
            joules_per_gbit: f64::decode(r)?,
            goodput_bps: f64::decode(r)?,
            hybrid: HybridCounters::decode(r)?,
        })
    }
}

fn run_cell(seed: u64, t: Tier, cc: &CcChoice) -> CellOut {
    const HOST_BPS: u64 = 100_000_000;
    let mut sim = Simulator::new(seed);
    let params = LinkConfig::new(HOST_BPS, SimDuration::from_micros(100)).queue_limit(32);
    let ft = FatTree::build(&mut sim, t.k, params);
    let hosts = ft.hosts();
    // The fluid price curves are calibrated at the base RTT of an inter-pod
    // path (host 0 to the first host of pod 1), as the packet → fluid
    // mapping reads it from the links.
    let inter_pod = &ft.paths(0, t.k * t.k / 4)[0];

    let cfg = HybridConfig {
        epoch_s: t.epoch_s,
        fluid_dt: t.fluid_dt,
        // Short flows that have not finished after two epochs cross into
        // the fluid regime — the handoff path is exercised at scale.
        handoff_age_s: 2.0 * t.epoch_s,
        calib_rtt_s: fluid_path(&sim, inter_pod).base_rtt,
    };
    let Some(model) = fluid_model_of(cc) else {
        // The cell list below only contains algorithms with a §IV fluid
        // form, so this is unreachable by construction.
        return CellOut {
            energy_j: 0.0,
            delivered_bits: 0.0,
            joules_per_gbit: f64::INFINITY,
            goodput_bps: 0.0,
            hybrid: HybridCounters::default(),
        };
    };
    let mut eng = HybridEngine::new(sim, hosts, WiredCpuModel::energy_proportional_server(), cfg);

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0C5);
    // Long-lived fluid population: rounds of permutation traffic until the
    // target count is reached; every flow starts at a fair-share rate of
    // its host uplink.
    let cap_pps = HOST_BPS as f64 / (8.0 * f64::from(DEFAULT_MSS_BYTES));
    let per_host = t.long_flows.div_ceil(hosts).max(1);
    let x0 = (cap_pps / (2.0 * per_host as f64)).max(1.0);
    let mut placed = 0;
    while placed < t.long_flows {
        let pairs = permutation_pairs(hosts, &mut rng);
        for &(src, dst) in pairs.iter().take(t.long_flows - placed) {
            let paths = ft.sample_paths(src, dst, 2, &mut rng);
            eng.add_fluid_flow(model, &paths, x0, src);
            placed += 1;
        }
    }
    // Short packet transfers: staggered starts across the first epoch,
    // 48 KB – 384 KB each.
    let pairs = permutation_pairs(hosts, &mut rng);
    for j in 0..t.short_flows {
        let (src, dst) = pairs[j % pairs.len()];
        let paths = ft.sample_paths(src, dst, 2, &mut rng);
        let pkts = rng.gen_range(32..256u64);
        let fc = FlowConfig::new(j as u64)
            .transfer_pkts(pkts)
            .min_rto(SimDuration::from_millis(10))
            .rcv_buf_pkts(512);
        let jitter = SimDuration::from_millis((j as u64 * 7) % (t.epoch_s * 1e3) as u64);
        eng.add_packet_flow_from(fc, cc, &paths, jitter, src);
    }

    eng.run_epochs(t.epochs);
    CellOut {
        energy_j: eng.energy_joules(),
        delivered_bits: eng.delivered_bits(),
        joules_per_gbit: eng.joules_per_gbit(),
        goodput_bps: eng.delivered_bits() / (t.epochs as f64 * t.epoch_s),
        hybrid: eng.counters(),
    }
}

fn models() -> [CcChoice; 6] {
    [
        CcChoice::Base(AlgorithmKind::Olia),
        CcChoice::Base(AlgorithmKind::Lia),
        CcChoice::Base(AlgorithmKind::Ewtcp),
        CcChoice::Base(AlgorithmKind::Balia),
        CcChoice::dts(),
        CcChoice::dts_phi(),
    ]
}

fn main() {
    let cli = Cli::from_args();
    let t = tier(cli.scale);
    let cells: Vec<FabricCell<CellOut>> = models()
        .into_iter()
        .enumerate()
        .map(|(i, cc)| {
            let seed = 0x5CA1E + i as u64;
            FabricCell::new(cc.label(), seed, move || run_cell(seed, t, &cc)).config(
                Fingerprint::new()
                    .str("hybrid_scale")
                    .str(cli.scale.name())
                    .u64(t.k as u64)
                    .u64(t.long_flows as u64)
                    .u64(t.short_flows as u64)
                    .u64(t.epochs as u64),
            )
        })
        .collect();

    let report = cli.sweep("hybrid_scale", cells);

    println!(
        "# hybrid_scale {} — FatTree(k={}), {} fluid + {} packet flows, {} epochs x {}s",
        Scale::name(cli.scale),
        t.k,
        t.long_flows,
        t.short_flows,
        t.epochs,
        t.epoch_s
    );
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>14} {:>9} {:>9}",
        "model", "J/Gbit", "goodput Gbps", "energy kJ", "deliv. Gbit", "handoffs", "cap_hits"
    );
    for r in report.results() {
        let o = &r.output;
        println!(
            "{:<8} {:>12.3} {:>14.4} {:>12.3} {:>14.3} {:>9} {:>9}",
            r.label,
            o.joules_per_gbit,
            o.goodput_bps / 1e9,
            o.energy_j / 1e3,
            o.delivered_bits / 1e9,
            o.hybrid.handoffs,
            o.hybrid.price_cap_hits
        );
    }
    for r in report.results() {
        eprintln!("{}: {}", r.label, r.output.hybrid.render());
    }
    report.exit_if_partial();
}
