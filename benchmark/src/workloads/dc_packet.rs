//! `dc_packet` — packet-level FatTree(k=8): one 128-flow permutation, four
//! subflows per flow, 800 packets (1.2 MB) per flow, 100 Mb/s links, 100 µs
//! per hop, 32-packet queues; cells {LIA, DTS-Φ}, each run until every flow
//! has finished.
//!
//! Why: `netsim` does most of the work here — about twelve link hops per
//! acknowledged packet, the largest pending-event population and the largest
//! heap of any workload. It is the datacenter J/Gbit regime of the paper at
//! packet level, and the workload ROADMAP item 1 names for the
//! wheel-versus-heap decision.
//!
//! Composed from `FatTree::build` / `sample_paths`, `permutation_pairs`,
//! `attach_flow`, `Simulator::run_until` and `energy_of_flow`, so that
//! set-up (topology build, flow attach) is timed apart from the run.
//!
//! Transfers are finite and equal so that the work of a pass — 128 × 800
//! acknowledged packets per cell — is the same for every `--seed`; the seed
//! moves only the traffic matrix and the ECMP draw, and with them where the
//! packets queue. A fixed simulated duration instead would let the seed set
//! how much work a pass holds.

use super::{positive, CcCalls};
use crate::pass::{Layer, Pass};
use congestion::AlgorithmKind;
use energy_model::{energy_of_flow, WiredCpuModel};
use mptcp_energy::scenarios::CcChoice;
use netsim::{SimDuration, SimTime, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::{FatTree, LinkParams};
use transport::{attach_flow, FlowConfig, FlowHandle};
use workload::permutation_pairs;

const SUBFLOWS: usize = 4;
const HOST_BPS: u64 = 100_000_000;
/// Packets each flow transfers: ~0.15 s simulated at the rates this fabric
/// reaches, of which slow start is the first ~20 ms.
const TRANSFER_PKTS: u64 = 800;
/// A cell whose flows have not all finished by now has failed.
const HORIZON_S: f64 = 5.0;
/// The run advances in deadlines of this simulated length — one timed
/// segment each — checking for completion (and, traced, sampling the event
/// population) at every one.
const SLICE: SimDuration = SimDuration::from_millis(10);

/// What a finished cell reports.
struct CellOut {
    acked_pkts: u64,
    unfinished_flows: usize,
    energy_j: f64,
    goodput_bps: f64,
    joules_per_gbit: f64,
}

fn collect(sim: &Simulator, flows: &[FlowHandle], model: &WiredCpuModel) -> CellOut {
    let mut out = CellOut {
        acked_pkts: 0,
        unfinished_flows: 0,
        energy_j: 0.0,
        goodput_bps: 0.0,
        joules_per_gbit: f64::INFINITY,
    };
    let mut delivered_bits = 0.0;
    for f in flows {
        let s = f.sender_ref(sim);
        out.energy_j += energy_of_flow(&mut model.clone(), s.samples()).joules;
        out.acked_pkts += s.data_acked();
        out.unfinished_flows += usize::from(!s.is_finished());
        delivered_bits += s.data_acked() as f64 * f64::from(s.config().mss_bytes) * 8.0;
        out.goodput_bps += s.goodput_bps(sim.now());
    }
    if delivered_bits > 0.0 {
        out.joules_per_gbit = out.energy_j / (delivered_bits / 1e9);
    }
    out
}

/// Sums the public per-link and per-flow counters of a finished traced
/// simulation into the pass's per-layer ledger.
pub(super) fn count_layers(pass: &mut Pass, sim: &Simulator, flows: &[FlowHandle]) {
    for l in sim.world().link_counters() {
        pass.count("netsim.link_tx_pkts", l.tx_pkts as f64);
        pass.count("netsim.drops_queue", l.drops_queue as f64);
        pass.count("netsim.drops_fault", l.drops_fault as f64);
        pass.count("netsim.ecn_marks", l.ecn_marks as f64);
    }
    for f in flows {
        let s = f.sender_ref(sim);
        pass.count("transport.data_pkts_acked", s.data_acked() as f64);
        pass.count("transport.rexmits", s.total_rexmits() as f64);
        for sf in s.subflow_counters() {
            pass.count("transport.fast_rexmits", sf.fast_rexmits as f64);
            pass.count("transport.rtos", sf.rtos as f64);
            pass.count("transport.spurious_rexmits", sf.spurious_rexmits as f64);
            pass.count("transport.recoveries", sf.recoveries as f64);
        }
        pass.count("transport.ooo_dropped", f.conn_counters(sim).ooo_dropped as f64);
        pass.count("energy.samples", s.samples().len() as f64);
    }
}

pub(super) fn pass(rng: &mut SmallRng, pass: &mut Pass) -> Result<(), String> {
    let k = if pass.tiny { 4 } else { 8 };
    // Inputs, all from the benchmark's RNG: the simulator seed, the traffic
    // matrix, and the seed of the ECMP path draw (replayed per cell so both
    // algorithms see the same paths).
    let sim_seed: u64 = rng.gen();
    let path_seed: u64 = rng.gen();
    let pairs = pass
        .tracer
        .span("permutation_pairs", Layer::Workload, || permutation_pairs(k * k * k / 4, rng));
    let params = LinkParams::new(HOST_BPS, SimDuration::from_micros(100)).queue(32);
    let model = WiredCpuModel::energy_proportional_server();

    let mut pending: Vec<f64> = Vec::new();
    let mut armed_max = 0u64;
    let cells = [("lia", CcChoice::Base(AlgorithmKind::Lia)), ("dts-phi", CcChoice::dts_phi())];
    for (label, cc) in cells {
        let trace = pass.tracer.on();
        pass.tracer.enter(format!("cell {label}"), Layer::Bench);
        let mut sim = Simulator::new(sim_seed);
        let ft = pass
            .tracer
            .span("FatTree::build", Layer::Topology, || FatTree::build(&mut sim, k, params));
        let calls = CcCalls::new(trace);
        let mut path_rng = SmallRng::seed_from_u64(path_seed);
        let mut flows = Vec::with_capacity(pairs.len());
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let paths = pass.tracer.span("FatTree::sample_paths", Layer::Topology, || {
                ft.sample_paths(src, dst, SUBFLOWS, &mut path_rng)
            });
            let algo = calls.wrap(cc.build(paths.len()));
            let cfg = FlowConfig::new(i as u64)
                .transfer_pkts(TRANSFER_PKTS)
                .min_rto(SimDuration::from_millis(10))
                .rcv_buf_pkts(512)
                .sample_every(SimDuration::from_millis(10));
            let start = SimDuration::from_micros((i as u64 * 700) % 10_000);
            flows.push(pass.tracer.span("attach_flow", Layer::Transport, || {
                attach_flow(&mut sim, cfg, algo, &paths, start)
            }));
        }

        // One timed segment per 10 ms of simulated time, until every flow
        // has finished; a traced pass samples the event population at each.
        let horizon = SimTime::from_secs_f64(HORIZON_S);
        pass.tracer.enter("Simulator::run_until", Layer::Netsim);
        let mut ran = true;
        while ran && sim.now() < horizon && !flows.iter().all(|f| f.is_finished(&sim)) {
            let next = (sim.now() + SLICE).min(horizon);
            ran = pass.meter.timed(|| sim.run_until(next)).is_some();
            if trace {
                pending.push(sim.pending_events() as f64);
                armed_max = armed_max.max(sim.armed_timers());
            }
        }
        pass.tracer.exit();
        let tracer = &mut pass.tracer;
        let out = pass.meter.timed(|| {
            tracer.span("energy_of_flow", Layer::Energy, || collect(&sim, &flows, &model))
        });
        pass.tracer.exit();
        let Some(out) = out else { continue };

        if trace {
            count_layers(pass, &sim, &flows);
            calls.count_into(pass, label);
        }
        pass.work += out.acked_pkts;
        for v in [out.energy_j, out.goodput_bps, out.joules_per_gbit] {
            pass.digest.f64(v);
        }
        pass.digest.u64(out.acked_pkts);
        let check = positive("energy_j", out.energy_j)
            .and_then(|()| positive("goodput_bps", out.goodput_bps))
            .and_then(|()| positive("joules_per_gbit", out.joules_per_gbit))
            .and_then(|()| match out.unfinished_flows {
                0 => Ok(()),
                n => Err(format!("{n} flow(s) had not finished after {HORIZON_S} s simulated")),
            });
        pass.cell(label, check);
    }
    if pass.tracer.on() {
        pass.count("netsim.run_s", pass.tracer.total_s("Simulator::run_until"));
        pass.count("netsim.pending_events_p50", crate::stats::median(&pending).unwrap_or(0.0));
        pass.gauge_max("netsim.pending_events_max", pending.iter().copied().fold(0.0, f64::max));
        pass.gauge_max("netsim.armed_timers_max", armed_max as f64);
    }
    Ok(())
}
