//! Pins the sweep runner's central guarantee: running the same cells with
//! `--jobs 1` and `--jobs 8` yields *byte-identical* summaries, including
//! their order. Each cell owns a whole `Simulator`, so thread scheduling can
//! decide only *when* a cell runs, never *what* it computes.
//!
//! Comparison is on `format!("{:?}")` of the full result vector: `f64`'s
//! `Debug` is the shortest round-trip representation, so two outputs render
//! identically iff every float is bit-equal.

use bench_harness::runner::{run_sweep_jobs, RunSummary, SweepCell};
use congestion::AlgorithmKind;
use energy_model::WiredCpuModel;
use mptcp_energy::scenarios::{
    counters_of, run_two_path_bursty, run_two_path_bursty_on, run_two_path_bursty_traced,
    BurstyOptions, CcChoice, FlowResult,
};
use netsim::{SimDuration, SimTime, Simulator};
use obs::TraceEvent;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use topology::{FatTree, LinkParams};
use transport::{attach_flow, FlowConfig, FlowHandle};
use workload::permutation_pairs;

/// A finite 2 MB transfer over the two bursty paths.
fn opts(seed: u64) -> BurstyOptions {
    BurstyOptions { seed, transfer_bytes: Some(2_000_000), duration_s: 60.0 }
}

fn cells(seeds: &[u64]) -> Vec<SweepCell<'static, FlowResult>> {
    let choices = [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()];
    seeds
        .iter()
        .flat_map(|&seed| {
            choices.into_iter().map(move |cc| {
                let opts = opts(seed);
                SweepCell::new(format!("{}-seed{}", cc.label(), seed), seed, move || {
                    run_two_path_bursty(&cc, &opts)
                })
            })
        })
        .collect()
}

fn render(results: &[RunSummary<FlowResult>]) -> String {
    format!("{results:?}")
}

#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    let seeds = [1u64, 2, 3];
    let serial = run_sweep_jobs(cells(&seeds), 1);
    let parallel = run_sweep_jobs(cells(&seeds), 8);
    assert_eq!(serial.len(), parallel.len());
    // Labels come back in input order under both job counts.
    let labels: Vec<&str> = serial.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, parallel.iter().map(|r| r.label.as_str()).collect::<Vec<_>>());
    assert_eq!(
        render(&serial),
        render(&parallel),
        "jobs=1 and jobs=8 sweeps must produce byte-identical summaries"
    );
    // And the runs themselves must have done real work.
    for r in &serial {
        assert!(r.output.finish_s.is_some(), "{}: transfer did not finish", r.label);
    }
}

/// The second half of the determinism contract: installing a trace sink must
/// not perturb the simulation. Sinks only observe — they never consume RNG
/// draws or schedule events — so a traced run's `FlowResult` renders
/// byte-identical to the untraced run's.
#[test]
fn tracing_on_and_off_are_byte_identical() {
    let opts = opts(11);
    for cc in [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()] {
        let untraced = run_two_path_bursty(&cc, &opts);
        let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let (traced, counters) =
            run_two_path_bursty_traced(&cc, &opts, Some(Box::new(events.clone())));
        assert_eq!(
            format!("{untraced:?}"),
            format!("{traced:?}"),
            "{}: tracing changed the simulation",
            cc.label()
        );
        // The comparison is meaningful only if the sink actually saw the run.
        let n = events.lock().unwrap().len();
        assert!(n > 1_000, "{}: trace sink saw only {n} events", cc.label());
        assert!(
            counters.links.iter().any(|l| l.tx_pkts > 0),
            "{}: counter snapshot is empty",
            cc.label()
        );
    }
}

/// The third leg of the determinism contract: the event engine (timer wheel
/// and packet slab) must produce a `FlowResult`, trace stream, and counter
/// snapshot byte-identical to the binary-heap oracle's, across seeds and
/// algorithms.
#[test]
fn all_engines_are_byte_identical_to_the_reference() {
    for seed in [5u64, 23] {
        for cc in [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()] {
            let run = |mut sim: Simulator| {
                let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
                sim.set_trace_sink(Box::new(events.clone()));
                let (result, counters) = run_two_path_bursty_on(sim, &cc, &opts(seed));
                let trace = std::mem::take(&mut *events.lock().unwrap());
                (format!("{result:?}"), format!("{counters:?}"), format!("{trace:?}"))
            };
            assert_eq!(
                run(Simulator::new(seed)),
                run(Simulator::with_reference_queue(seed)),
                "{}/seed {seed}: engine diverged from the heap oracle",
                cc.label()
            );
        }
    }
}

/// The same identity in the dense regime the two-path cells never reach: a
/// FatTree(k=4) permutation with four subflows per flow and 100 µs hops puts
/// up to ~2 000 events into one 131 µs wheel bucket, so mid-drain sorted
/// inserts and the capped buffer hand-back both run.
#[test]
fn dense_fattree_cell_is_byte_identical_to_the_reference() {
    let run = |mut sim: Simulator| {
        let params = LinkParams::new(1_000_000_000, SimDuration::from_micros(100)).queue(32);
        let ft = FatTree::build(&mut sim, 4, params);
        let mut rng = SmallRng::seed_from_u64(0xF47);
        let flows: Vec<FlowHandle> = permutation_pairs(ft.hosts(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| {
                let paths = ft.sample_paths(src, dst, 4, &mut rng);
                let cfg = FlowConfig::new(i as u64)
                    .transfer_pkts(2_000)
                    .min_rto(SimDuration::from_millis(10))
                    .sample_every(SimDuration::from_millis(1));
                let start = SimDuration::from_micros(i as u64 * 70);
                attach_flow(&mut sim, cfg, AlgorithmKind::Lia.build(paths.len()), &paths, start)
            })
            .collect();
        // One slice per 131 µs wheel bucket; each link transmission is two
        // events (arrival + end of serialization).
        let events = |sim: &Simulator| {
            2 * sim.world().link_counters().iter().map(|l| l.tx_pkts).sum::<u64>()
        };
        let (mut seen, mut densest) = (0, 0);
        while sim.now() < SimTime::from_secs_f64(2.0) && !flows.iter().all(|f| f.is_finished(&sim))
        {
            sim.run_for(SimDuration::from_nanos(1 << 17));
            let total = events(&sim);
            densest = densest.max(total - seen);
            seen = total;
        }
        assert!(flows.iter().all(|f| f.is_finished(&sim)), "transfers did not finish");
        assert!(densest > 1_500, "at most {densest} events per wheel bucket: not dense");
        let mut model = WiredCpuModel::energy_proportional_server();
        let results: Vec<FlowResult> = flows
            .iter()
            .map(|&f| FlowResult::collect(&sim, f, "lia".to_owned(), &mut model))
            .collect();
        (format!("{results:?}"), format!("{:?}", counters_of(&sim, &flows)))
    };
    assert_eq!(run(Simulator::new(3)), run(Simulator::with_reference_queue(3)));
}
