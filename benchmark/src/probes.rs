//! Per-layer unit costs, measured from outside by timing calls into public
//! functions: host nanoseconds per event, per link hop, per acknowledged
//! packet, per `on_ack`, per fluid path-step, per journaled cell.
//!
//! Probes are workload-independent, so every traced run measures the same
//! set; what differs per workload are the *counts* its traced pass reads off
//! public counters. A count multiplied by the matching unit cost estimates a
//! layer's share of a run (see `run::derive`).
//!
//! Each probe does a fixed, seeded amount of work several times and reports
//! the fastest repetition: interference on the sandbox only ever adds time
//! (see `run`'s module docs).

use crate::pass::Pass;
use crate::stats::{least, median};
use crate::workloads::{hybrid_fluid, sweep_fabric, wireless_lossy, Workload};
use congestion::{AlgorithmKind, SubflowCc};
use energy_model::{energy_of_flow, PhoneModel, PowerModel, WiredCpuModel};
use mptcp_energy::fluid::FluidSolver;
use mptcp_energy::scenarios::{run_two_path_bursty_traced, BurstyOptions, CcChoice};
use netsim::{
    Agent, Ctx, LinkConfig, LossModel, Packet, Payload, ReorderModel, Route, SimDuration, SimTime,
    Simulator,
};
use obs::{JsonlSink, TraceEvent, TraceSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use topology::{FatTree, LinkParams, TwoPath};
use transport::{attach_flow, FlowConfig, PathSpec};
use workload::{attach_pareto_cross_traffic, ParetoOnOffConfig};

/// Repetitions per probe; the fastest is reported.
const REPS: usize = 5;

/// The least of `reps` evaluations of `f`.
fn best(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let xs = (0..reps).map(|_| f()).collect::<Result<Vec<f64>, String>>()?;
    Ok(least(&xs))
}

/// The hold model's agent: every timer that fires re-arms itself after a
/// seeded delay uniform in `(0, max]`, so the pending-event population never
/// changes.
struct Hold {
    rng: SmallRng,
    max_ns: u64,
}

impl Agent for Hold {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let delay = SimDuration::from_nanos(self.rng.gen_range(1..=self.max_ns));
        ctx.schedule_in(delay, token);
    }
}

/// Host nanoseconds per `Simulator::step` with exactly `population` events
/// pending and timer delays uniform in `(0, max_delay]`.
///
/// # Errors
///
/// If the pending population drifts from `population`: the hold model (or
/// the engine under it) would then be measuring something else.
pub fn hold_step_ns(
    seed: u64,
    population: usize,
    max_delay: SimDuration,
    steps: usize,
) -> Result<f64, String> {
    let max_ns = max_delay.as_nanos();
    let mut sim = Simulator::new(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x401d);
    let hold = sim.add_agent(Box::new(Hold { rng: SmallRng::seed_from_u64(seed), max_ns }));
    for token in 0..population {
        sim.kick(hold, SimDuration::from_nanos(rng.gen_range(1..=max_ns)), token as u64);
    }
    // Warm-up: let the queue reach its steady shape before timing.
    for _ in 0..steps.min(population) {
        sim.step();
    }
    let t0 = Instant::now();
    for _ in 0..steps {
        sim.step();
    }
    let step_ns = t0.elapsed().as_secs_f64() * 1e9 / steps as f64;
    if sim.pending_events() == population {
        Ok(step_ns)
    } else {
        Err(format!("hold model drifted: {} pending, want {population}", sim.pending_events()))
    }
}

/// Host nanoseconds per link hop: raw 1500 B packets over an 8-hop chain to
/// a `Sink`, optionally with loss, reorder, duplicate and corrupt models on.
fn link_hop_ns(seed: u64, impaired: bool, pkts: usize) -> f64 {
    let mut sim = Simulator::new(seed);
    let links: Vec<_> = (0..8)
        .map(|_| {
            let cfg = LinkConfig::new(1_000_000_000, SimDuration::from_micros(10));
            sim.add_link(cfg.queue_limit(2 * pkts))
        })
        .collect();
    if impaired {
        for &l in &links {
            let imp = sim.world_mut().link_mut(l).impairment_mut();
            imp.set_loss(LossModel::iid(0.01));
            imp.set_reorder(ReorderModel::uniform(0.02, SimDuration::from_micros(50)));
            imp.set_duplicate(0.005);
            imp.set_corrupt(0.005);
        }
    }
    let sink = sim.add_agent(Box::new(workload::Sink::new()));
    let route = Route::new(links, sink);
    for _ in 0..pkts {
        sim.world_mut().send_packet(sink, route.clone(), 1500, Payload::Raw);
    }
    let t0 = Instant::now();
    sim.run_to_completion();
    let wall_ns = t0.elapsed().as_secs_f64() * 1e9;
    let hops: u64 = sim.world().link_counters().iter().map(|l| l.tx_pkts).sum();
    wall_ns / hops.max(1) as f64
}

/// `n` disjoint one-hop paths, 100 Mb/s and 1 ms each way; with `lossy`,
/// 1 % iid loss and 2 % reordering on the data direction.
fn one_hop_paths(sim: &mut Simulator, n: usize, lossy: bool) -> Vec<PathSpec> {
    (0..n)
        .map(|_| {
            let fwd = sim.add_link(LinkConfig::new(100_000_000, SimDuration::from_millis(1)));
            let rev = sim.add_link(LinkConfig::new(100_000_000, SimDuration::from_millis(1)));
            if lossy {
                let imp = sim.world_mut().link_mut(fwd).impairment_mut();
                imp.set_loss(LossModel::iid(0.01));
                imp.set_reorder(ReorderModel::uniform(0.02, SimDuration::from_millis(2)));
            }
            PathSpec::new(vec![fwd], vec![rev])
        })
        .collect()
}

/// Whole-stack host nanoseconds per acknowledged packet of one finite
/// transfer over `n_paths` one-hop paths.
fn transfer_ns_per_pkt(
    seed: u64,
    kind: AlgorithmKind,
    n_paths: usize,
    lossy: bool,
    pkts: u64,
) -> Result<f64, String> {
    let mut sim = Simulator::new(seed);
    let paths = one_hop_paths(&mut sim, n_paths, lossy);
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_pkts(pkts),
        kind.build(n_paths),
        &paths,
        SimDuration::ZERO,
    );
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs_f64(120.0));
    let wall_ns = t0.elapsed().as_secs_f64() * 1e9;
    if flow.is_finished(&sim) {
        Ok(wall_ns / flow.sender_ref(&sim).data_acked().max(1) as f64)
    } else {
        Err(format!("{kind} transfer over {n_paths} path(s) did not finish"))
    }
}

/// Host microseconds per subflow of `attach_flow`: 64 four-subflow LIA
/// connections onto prebuilt links.
fn attach_us_per_subflow(seed: u64) -> f64 {
    let mut sim = Simulator::new(seed);
    let paths = one_hop_paths(&mut sim, 4, false);
    let t0 = Instant::now();
    for i in 0..64u64 {
        attach_flow(
            &mut sim,
            FlowConfig::new(i),
            AlgorithmKind::Lia.build(4),
            &paths,
            SimDuration::ZERO,
        );
    }
    t0.elapsed().as_secs_f64() * 1e6 / (64.0 * 4.0)
}

/// Host nanoseconds per `on_ack`: a tight loop over four subflows in
/// congestion avoidance, with an `on_loss` every 1000 ACKs so windows stay
/// near one operating point.
fn on_ack_ns(cc: &CcChoice, iters: usize) -> f64 {
    let mut algo = cc.build(4);
    let mut flows: Vec<SubflowCc> = (0..4)
        .map(|r| {
            let srtt = 0.01 * f64::from(r + 1);
            SubflowCc {
                cwnd: 20.0 + f64::from(r),
                ssthresh: 10.0,
                srtt,
                last_rtt: srtt * 1.1,
                base_rtt: srtt * 0.9,
                active: true,
            }
        })
        .collect();
    let t0 = Instant::now();
    for i in 0..iters {
        let r = i % 4;
        algo.on_ack(r, &mut flows, 1, false);
        if i % 1000 == 999 {
            algo.on_loss(r, &mut flows);
        }
    }
    black_box(&flows);
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The metric-name key of an algorithm label (`dts-phi` → `dts_phi`).
pub fn algo_key(cc: &CcChoice) -> String {
    cc.label().replace('-', "_")
}

/// Host nanoseconds per telemetry sample of `energy_of_flow` under `model`.
fn energy_ns_per_sample(model: &mut dyn PowerModel, samples: &[transport::FlowSample]) -> f64 {
    const ROUNDS: usize = 20;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        black_box(energy_of_flow(model, black_box(samples)));
    }
    t0.elapsed().as_secs_f64() * 1e9 / (ROUNDS * samples.len().max(1)) as f64
}

/// Counts events; the benchmark-owned sink behind `obs.emit_ns`.
struct CountingSink(Arc<AtomicU64>);

impl TraceSink for CountingSink {
    fn record(&mut self, _ev: &TraceEvent) {
        // Relaxed: a statistic read after the run.
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Host seconds of the 20 s two-path bursty run with `sink` installed.
fn bursty_wall_s(seed: u64, sink: Option<Box<dyn TraceSink>>) -> f64 {
    let opts = BurstyOptions { seed, duration_s: 20.0, ..BurstyOptions::default() };
    let t0 = Instant::now();
    black_box(run_two_path_bursty_traced(&CcChoice::Base(AlgorithmKind::Lia), &opts, sink));
    t0.elapsed().as_secs_f64()
}

/// Runs every probe. `tiny` (selftest) shrinks iteration and repetition
/// counts, not the set of metrics.
///
/// # Errors
///
/// If a probe's own output check fails (hold-model drift, an unfinished
/// transfer) or the fabric probe cannot use its scratch directory.
pub fn run(seed: u64, tiny: bool) -> Result<BTreeMap<String, f64>, String> {
    let (scale, reps) = if tiny { (10, 2) } else { (1, REPS) };
    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_owned(), v);
    };

    // netsim: the event queue swept over pending population, then links.
    let near = SimDuration::from_millis(1);
    let steps = 200_000 / scale;
    for exp in 1..=6u32 {
        let v = best(reps, || hold_step_ns(seed, 10usize.pow(exp), near, steps))?;
        put(&format!("netsim.step_ns.p1e{exp}"), v);
    }
    // Delays past the 134 ms timer-wheel horizon: the wireless regime.
    let far = SimDuration::from_millis(400);
    put("netsim.step_ns.far_p1e3", best(reps, || hold_step_ns(seed, 1000, far, steps))?);
    let hop_ns = best(reps, || Ok(link_hop_ns(seed, false, 20_000 / scale)))?;
    put("netsim.link_hop_ns", hop_ns);
    put("netsim.link_hop_impaired_ns", best(reps, || Ok(link_hop_ns(seed, true, 20_000 / scale)))?);

    // transport: whole-stack cost per acknowledged packet.
    let pkts = 6_000 / scale as u64;
    let bulk_ns = best(reps, || transfer_ns_per_pkt(seed, AlgorithmKind::Reno, 1, false, pkts))?;
    put("transport.bulk_ns_per_pkt", bulk_ns);
    // One data hop out and one ACK hop back belong to netsim.
    put("transport.self_ns_per_pkt", bulk_ns - 2.0 * hop_ns);
    put(
        "transport.mptcp4_ns_per_pkt",
        best(reps, || transfer_ns_per_pkt(seed, AlgorithmKind::Lia, 4, false, pkts))?,
    );
    put(
        "transport.lossy_ns_per_pkt",
        best(reps, || transfer_ns_per_pkt(seed, AlgorithmKind::Lia, 2, true, pkts))?,
    );
    put("transport.attach_us_per_subflow", best(reps, || Ok(attach_us_per_subflow(seed)))?);

    // congestion: per-call cost of each of the twelve algorithms.
    for cc in wireless_lossy::algorithms() {
        let v = best(reps, || Ok(on_ack_ns(&cc, 400_000 / scale)))?;
        put(&format!("congestion.on_ack_ns.{}", algo_key(&cc)), v);
    }

    // energy: both power models over one recorded telemetry series.
    {
        let mut sim = Simulator::new(seed);
        let tp = TwoPath::symmetric(
            &mut sim,
            LinkParams::new(100_000_000, SimDuration::from_millis(10)),
        );
        let cfg = FlowConfig::new(0).sample_every(SimDuration::from_millis(20));
        let flow =
            attach_flow(&mut sim, cfg, AlgorithmKind::Lia.build(2), &tp.both(), SimDuration::ZERO);
        sim.run_until(SimTime::from_secs_f64(if tiny { 2.0 } else { 20.0 }));
        let samples = flow.samples(&sim);
        let mut wired = WiredCpuModel::i7_3770();
        let mut phone = PhoneModel::nexus5_uplink();
        put(
            "energy.wired_ns_per_sample",
            best(reps, || Ok(energy_ns_per_sample(&mut wired, samples)))?,
        );
        put(
            "energy.phone_ns_per_sample",
            best(reps, || Ok(energy_ns_per_sample(&mut phone, samples)))?,
        );
    }

    // topology: the fabric dc_packet and hybrid_fluid set up on.
    {
        let params = LinkParams::new(100_000_000, SimDuration::from_micros(100)).queue(32);
        let mut links = 0usize;
        let build_ms = best(reps, || {
            let mut sim = Simulator::new(seed);
            let t0 = Instant::now();
            black_box(FatTree::build(&mut sim, 8, params));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            links = sim.world().link_count();
            Ok(ms)
        })?;
        put("topology.fattree_k8_build_ms", build_ms);
        put("topology.links", links as f64);
        let mut sim = Simulator::new(seed);
        let ft = FatTree::build(&mut sim, 8, params);
        let draws = 2_000 / scale;
        let sample_us = best(reps, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t0 = Instant::now();
            for i in 0..draws {
                black_box(ft.sample_paths(i % 64, 64 + i % 64, 4, &mut rng));
            }
            Ok(t0.elapsed().as_secs_f64() * 1e6 / draws as f64)
        })?;
        put("topology.sample_paths_us", sample_us);
    }

    // workload: a Pareto on/off source alone into a Sink over one link.
    put(
        "workload.pareto_ns_per_pkt",
        best(reps, || {
            let mut sim = Simulator::new(seed);
            let l = sim.add_link(LinkConfig::new(100_000_000, SimDuration::from_millis(1)));
            attach_pareto_cross_traffic(&mut sim, vec![l], ParetoOnOffConfig::paper_fig5b());
            let t0 = Instant::now();
            sim.run_until(SimTime::from_secs_f64(if tiny { 40.0 } else { 400.0 }));
            let wall_ns = t0.elapsed().as_secs_f64() * 1e9;
            let pkts = sim.world().link(l).stats().tx_pkts;
            if pkts > 0 {
                Ok(wall_ns / pkts as f64)
            } else {
                Err("the Pareto source sent nothing".to_owned())
            }
        })?,
    );

    // core: the fluid solver and one hybrid epoch on the hybrid_fluid net.
    {
        let tier = hybrid_fluid::Tier::of(tiny);
        for (label, cc) in hybrid_fluid::models() {
            if !matches!(label, "lia" | "olia" | "dts" | "dts-phi") {
                continue;
            }
            let mut scratch = Pass::new(Instant::now(), false, label == "lia", tiny);
            let mut eng = hybrid_fluid::build(tier, &cc, seed, seed ^ 0xf1, &mut scratch)?;
            let paths = eng.fluid_rates().len();
            let step_ns = best(reps, || {
                let mut solver = FluidSolver::from_flat_state(eng.net(), eng.fluid_rates());
                let t0 = Instant::now();
                solver.run(tier.fluid_dt, 20);
                black_box(solver.x());
                Ok(t0.elapsed().as_secs_f64() * 1e9 / (20 * paths.max(1)) as f64)
            })?;
            put(&format!("core.fluid_step_ns_per_path.{}", label.replace('-', "_")), step_ns);
            if label == "lia" {
                let add_s = scratch.tracer.total_s("HybridEngine::add_fluid_flow");
                put("core.add_fluid_flow_us", add_s * 1e6 / tier.long_flows as f64);
                let epochs: Vec<f64> = (0..tier.epochs)
                    .map(|_| {
                        let t0 = Instant::now();
                        eng.advance_epoch();
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                let epoch_ms = least(&epochs);
                put("core.advance_epoch_ms", epoch_ms);
                let solver_ms = tier.steps_per_epoch() as f64 * paths as f64 * step_ns / 1e6;
                put("core.epoch_exchange_ms", epoch_ms - solver_ms);
            }
        }
    }

    // obs: what an installed sink costs per event (no workload installs one).
    {
        let events = Arc::new(AtomicU64::new(0));
        let bare_s = best(reps, || Ok(bursty_wall_s(seed, None)))?;
        let counting_s = best(reps, || {
            events.store(0, Ordering::Relaxed);
            Ok(bursty_wall_s(seed, Some(Box::new(CountingSink(Arc::clone(&events))))))
        })?;
        let jsonl_s = best(reps, || {
            Ok(bursty_wall_s(seed, Some(Box::new(JsonlSink::new(std::io::sink())))))
        })?;
        let n = events.load(Ordering::Relaxed).max(1) as f64;
        put("obs.events", n);
        put("obs.emit_ns", (counting_s - bare_s) * 1e9 / n);
        put("obs.jsonl_ns_per_event", (jsonl_s - bare_s) * 1e9 / n);
    }

    // bench: the fabric's own costs, from `reps` sweep_fabric passes: host
    // microseconds per cell of each dispatch path. The three in-process
    // paths compute and are taken at their fastest; dist sleeps on poll and
    // heartbeat timers, is bimodal, and is taken at its median (see
    // `run::steady`).
    {
        let mut path_us: [Vec<f64>; 4] = Default::default();
        let mut cells = 1.0;
        let mut journal_bytes = 0.0;
        for _ in 0..reps {
            let mut pass = Pass::new(Instant::now(), false, true, tiny);
            Workload::SweepFabric.pass(seed, &mut pass)?;
            let mut segments = pass.meter.segments().iter();
            for (us, c) in path_us.iter_mut().zip(&pass.cells) {
                let wall_s: f64 = segments.by_ref().take(c.segments).map(|g| g.wall_s).sum();
                us.push(wall_s * 1e6 / c.ops.max(1) as f64);
            }
            cells = pass.cells.last().map_or(1, |c| c.ops) as f64;
            journal_bytes = pass.layer.get("bench.journal_bytes_per_cell").copied().unwrap_or(0.0);
        }
        let [in_process, journaled, resumed, dist] = &path_us;
        // The grid's own cells, boxed as the fabric boxes them, called bare.
        let bare: Vec<Box<dyn Fn() -> sweep_fabric::Out>> =
            sweep_fabric::cell_seeds(seed, sweep_fabric::CELLS)
                .into_iter()
                .map(|s| Box::new(move || bench_harness::fabric::demo::walk(s)) as Box<_>)
                .collect();
        let walk_us = best(8 * reps, || {
            let t0 = Instant::now();
            for cell in &bare {
                black_box(cell());
            }
            Ok(t0.elapsed().as_secs_f64() * 1e6 / bare.len() as f64)
        })?;
        put("bench.cell_overhead_us", least(in_process) - walk_us);
        put("bench.journal_append_us", least(journaled) - least(in_process));
        put("bench.journal_replay_us", least(resumed));
        put("bench.journal_bytes_per_cell", journal_bytes);
        put("bench.dist_round_ms", median(dist).unwrap_or(0.0) * cells / 1e3);
        // A 2-cell grid from spawn to merged report: what dist costs before
        // it does any work.
        let tmp = sweep_fabric::scratch_dir()?;
        let fixed_ms = (0..reps)
            .map(|_| {
                let grid = sweep_fabric::grid(seed, 2);
                let t0 = Instant::now();
                let report = sweep_fabric::run_over_workers(grid, seed, &tmp.join("spool"))?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if report.is_complete() {
                    Ok(ms)
                } else {
                    Err("the 2-cell dist probe did not complete".to_owned())
                }
            })
            .collect::<Result<Vec<f64>, String>>();
        let _ = std::fs::remove_dir_all(&tmp);
        put("bench.dist_fixed_ms", median(&fixed_ms?).unwrap_or(0.0));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_model_keeps_the_population_exact() {
        for (p, max) in [(10, 1), (1000, 1), (1000, 400)] {
            let ns = hold_step_ns(7, p, SimDuration::from_millis(max), 5_000).unwrap();
            assert!(ns > 0.0);
        }
    }

    #[test]
    fn link_probe_counts_hops_and_impairments_drop_some() {
        assert!(link_hop_ns(3, false, 200) > 0.0);
        assert!(link_hop_ns(3, true, 200) > 0.0);
    }

    #[test]
    fn on_ack_probe_covers_all_twelve_algorithms() {
        let keys: Vec<String> = wireless_lossy::algorithms().iter().map(algo_key).collect();
        assert_eq!(
            keys,
            [
                "reno", "dctcp", "ewtcp", "coupled", "lia", "olia", "balia", "ecmtcp", "wvegas",
                "dwc", "dts", "dts_phi"
            ]
        );
        for cc in wireless_lossy::algorithms() {
            assert!(on_ack_ns(&cc, 2_000) > 0.0);
        }
    }
}
