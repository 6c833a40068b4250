//! Chaos soak: many seeds, each driving a randomized `FaultScript` (loss,
//! bursty loss, bandwidth and delay changes, short blackouts) against a
//! two-path transfer. Every flow must complete, the stall watchdog must stay
//! quiet, and the same seed must reproduce byte-identical results.
//!
//! The seeds fan out across the deterministic sweep runner
//! (`bench_harness::runner`) — each soak owns its whole `Simulator`, so
//! parallel execution cannot perturb outcomes, and the reproducibility test
//! asserts exactly that by comparing a serial sweep against a parallel one.
//! The big ignored soak additionally runs under the crash-safe fabric
//! (`bench_harness::fabric`): a panicking or wedged seed is deadline-killed
//! and quarantined with a self-contained repro artifact (replayable via the
//! `replay` binary) instead of aborting the other 39 cells — retries are
//! disabled because every cell is deterministic, so a second attempt could
//! only reproduce the first.
//!
//! When the `SWEEP_TRACE` env var names a directory, every soak cell streams
//! its JSONL event trace to `<dir>/soak-<seed>.jsonl`; passing cells delete
//! their file afterwards, so on a failure only the offending traces remain
//! (CI uploads them as artifacts — see `.github/workflows/ci.yml`).

use bench_harness::fabric::{
    run_fabric_ephemeral, FabricCell, FabricOptions, Fingerprint, RetryPolicy,
};
use bench_harness::repro::ReproSpec;
use bench_harness::runner::{run_sweep_jobs, SweepCell};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{counters_of, CounterSnapshot};
use mptcp_energy::CcChoice;
use netsim::{FaultAction, FaultScript, LossModel, ReorderModel, SimDuration, SimTime, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::TwoPath;
use transport::{attach_flow, FlowConfig};

const SEEDS: u64 = 20;
// Big enough that the transfer is still in flight while the fault timeline
// (roughly t = 1 s .. 14 s) plays out, for every seed.
const TRANSFER_PKTS: u64 = 20_000;

/// Builds a randomized but per-seed deterministic fault timeline. Path 1
/// never goes down and never loses more than a few percent, so the transfer
/// is always completable; path 2 takes the heavier abuse, including short
/// blackouts.
fn random_script(tp: &TwoPath, rng: &mut SmallRng) -> FaultScript {
    let mut script = FaultScript::new();
    // Mild random loss on the "good" path, heavier (possibly bursty) loss on
    // the other, applied at staggered times.
    for burst in 0..3 {
        let at = SimTime::from_secs_f64(1.0 + burst as f64 * 4.0 + rng.gen_range(0.0..1.0));
        let model = if rng.gen_bool(0.5) {
            LossModel::iid(rng.gen_range(0.0..0.05))
        } else {
            LossModel::gilbert_elliott(0.05, 0.3, 0.0, rng.gen_range(0.1..0.4))
        };
        script = script.at(at, FaultAction::SetLoss { link: tp.p2.fwd, model }).at(
            at,
            FaultAction::SetLoss {
                link: tp.p1.fwd,
                model: LossModel::iid(rng.gen_range(0.0..0.02)),
            },
        );
    }
    // Bandwidth and delay wobble on both paths.
    for shake in 0..2 {
        let at = SimTime::from_secs_f64(2.0 + shake as f64 * 5.0 + rng.gen_range(0.0..1.0));
        script = script
            .at(
                at,
                FaultAction::SetBandwidth {
                    link: tp.p2.fwd,
                    bps: rng.gen_range(10u64..25) * 1_000_000,
                },
            )
            .at(
                at,
                FaultAction::SetPropagation {
                    link: tp.p1.fwd,
                    propagation: SimDuration::from_millis(rng.gen_range(5..30)),
                },
            );
    }
    // Two short blackouts on path 2 only (both directions, non-overlapping).
    for window in 0..2 {
        let from = SimTime::from_secs_f64(3.0 + window as f64 * 4.0 + rng.gen_range(0.0..1.0));
        let until = from + SimDuration::from_secs_f64(rng.gen_range(0.5..1.5));
        script = script.blackout(tp.p2.fwd, from, until).blackout(tp.p2.rev, from, until);
    }
    // Clear all loss near the end so the tail always drains.
    let heal = SimTime::from_secs_f64(14.0);
    script
        .at(heal, FaultAction::SetLoss { link: tp.p1.fwd, model: LossModel::None })
        .at(heal, FaultAction::SetLoss { link: tp.p2.fwd, model: LossModel::None })
}

/// Layers delivery impairments (reordering jitter, duplication, corrupted
/// ACKs) on top of the base fault timeline — the `soak-adv-*` cells. The
/// instants are distinct per wave, the action kinds are distinct per
/// instant, and everything heals by t = 14.5 s so the tail always drains.
fn adversarial_script(tp: &TwoPath, rng: &mut SmallRng) -> FaultScript {
    let mut script = random_script(tp, rng);
    for wave in 0..2 {
        let at = SimTime::from_secs_f64(1.5 + wave as f64 * 5.0 + rng.gen_range(0.0..1.0));
        script = script
            .at(
                at,
                FaultAction::SetReorder {
                    link: tp.p1.fwd,
                    model: ReorderModel::uniform(
                        rng.gen_range(0.05..0.4),
                        SimDuration::from_millis(rng.gen_range(1..6)),
                    ),
                },
            )
            .at(at, FaultAction::SetDuplicate { link: tp.p2.fwd, p: rng.gen_range(0.01..0.15) })
            .at(at, FaultAction::SetCorrupt { link: tp.p2.rev, p: rng.gen_range(0.005..0.05) });
    }
    let heal = SimTime::from_secs_f64(14.5);
    script
        .at(heal, FaultAction::SetReorder { link: tp.p1.fwd, model: ReorderModel::None })
        .at(heal, FaultAction::SetDuplicate { link: tp.p2.fwd, p: 0.0 })
        .at(heal, FaultAction::SetCorrupt { link: tp.p2.rev, p: 0.0 })
}

/// The `SWEEP_TRACE` trace directory, if tracing is requested.
fn trace_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("SWEEP_TRACE").map(Into::into)
}

/// One soak run; returns everything that must be bit-identical across reruns.
#[derive(Debug, PartialEq)]
struct SoakOutcome {
    finished: bool,
    stalled: bool,
    finish: Option<SimTime>,
    acked: u64,
    per_path: (u64, u64),
    failover_reinjections: u64,
    counters: CounterSnapshot,
}

fn soak_with(seed: u64, adversarial: bool) -> SoakOutcome {
    soak_on(Simulator::new(seed), seed, adversarial)
}

/// The soak on a caller-built simulator, fresh and seeded with `seed`.
fn soak_on(mut sim: Simulator, seed: u64, adversarial: bool) -> SoakOutcome {
    let label = if adversarial { format!("soak-adv-{seed}") } else { format!("soak-{seed}") };
    if let Some(dir) = trace_dir() {
        if let Some(sink) = obs::jsonl_sink_in(&dir, &label) {
            sim.set_trace_sink(sink);
        }
    }
    let tp = TwoPath::dual_nic(&mut sim, 20_000_000, SimDuration::from_millis(10));
    let spec = spec_for(seed, adversarial);
    spec.script.clone().install(&mut sim);
    #[cfg(feature = "check-invariants")]
    netsim::install_default_invariants(&mut sim);
    let cc =
        if seed.is_multiple_of(2) { CcChoice::Base(AlgorithmKind::Lia) } else { CcChoice::dts() };
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(seed).transfer_pkts(TRANSFER_PKTS).dead_after_backoffs(Some(4)),
        cc.build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    sim.enable_watchdog(SimDuration::from_secs_f64(10.0));
    sim.watch(flow.sender);
    sim.run_until(SimTime::from_secs_f64(120.0));
    drop(sim.take_trace_sink());
    // A halted invariant checker aborts the cell: dump the self-contained
    // repro artifact (spec + fault timeline + violation) first, then panic so
    // the sweep runner propagates the failure verbatim.
    #[cfg(feature = "check-invariants")]
    if let Some(v) = sim.invariant_violation() {
        use bench_harness::repro::{dump_artifact, ReproOutcome, ViolationRecord};
        let outcome = ReproOutcome {
            finished: flow.is_finished(&sim),
            acked: flow.sender_ref(&sim).data_acked(),
            violation: Some(ViolationRecord { at_ns: v.at.as_nanos(), message: v.message.clone() }),
            trace_tail: Vec::new(),
        };
        let dumped = bench_harness::repro::artifact_dir()
            .and_then(|dir| dump_artifact(&dir, &spec, &outcome).ok());
        panic!(
            "{label}: {v}{}",
            dumped.map_or(String::new(), |p| format!(" (repro artifact: {})", p.display()))
        );
    }
    let counters = counters_of(&sim, std::slice::from_ref(&flow));
    let s = flow.sender_ref(&sim);
    SoakOutcome {
        finished: flow.is_finished(&sim),
        stalled: sim.stalled(),
        finish: flow.finish_time(&sim),
        acked: s.data_acked(),
        per_path: (s.subflow(0).acked_pkts, s.subflow(1).acked_pkts),
        failover_reinjections: s.failover_reinjections,
        counters,
    }
}

/// One sweep cell per seed; labels carry the seed for failure messages.
fn soak_cells(seeds: impl IntoIterator<Item = u64>) -> Vec<SweepCell<'static, SoakOutcome>> {
    seeds
        .into_iter()
        .map(|seed| SweepCell::new(format!("soak-{seed}"), seed, move || soak_with(seed, false)))
        .collect()
}

/// The adversarial-impairment cells: same grid, plus reorder/dup/corrupt.
fn adv_cells(seeds: impl IntoIterator<Item = u64>) -> Vec<SweepCell<'static, SoakOutcome>> {
    seeds
        .into_iter()
        .map(|seed| SweepCell::new(format!("soak-adv-{seed}"), seed, move || soak_with(seed, true)))
        .collect()
}

/// The exact fault timeline a soak cell sees, as a self-contained repro
/// spec: `dual_nic` is the first deterministic thing `soak_on` does with its
/// fresh `Simulator`, so a scratch sim assigns identical link ids.
fn spec_for(seed: u64, adversarial: bool) -> ReproSpec {
    let mut sim = Simulator::new(seed);
    let tp = TwoPath::dual_nic(&mut sim, 20_000_000, SimDuration::from_millis(10));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A05);
    let script =
        if adversarial { adversarial_script(&tp, &mut rng) } else { random_script(&tp, &mut rng) };
    ReproSpec {
        seed,
        transfer_pkts: TRANSFER_PKTS,
        cc: if seed.is_multiple_of(2) { "lia".into() } else { "dts".into() },
        dead_after_backoffs: Some(4),
        horizon_s: 120.0,
        fail_at_s: None,
        script,
    }
}

/// The soak grid as crash-contained fabric cells. A cell whose invariant
/// checker halts dumps its own replayable artifact (see `soak_with`).
fn fabric_soak_cells(
    seeds: std::ops::Range<u64>,
    adversarial: bool,
) -> Vec<FabricCell<SoakOutcome>> {
    seeds
        .map(|seed| {
            let label =
                if adversarial { format!("soak-adv-{seed}") } else { format!("soak-{seed}") };
            FabricCell::new(label, seed, move || soak_with(seed, adversarial))
                .config(Fingerprint::new().str("chaos-soak").bool(adversarial).u64(seed))
        })
        .collect()
}

#[test]
#[ignore = "20-seed soak — run via `cargo test -- --ignored` (CI soak job)"]
fn chaos_soak_completes_under_randomized_faults() {
    let dir = trace_dir();
    let mut failures = Vec::new();
    let mut cells = fabric_soak_cells(0..SEEDS, false);
    cells.extend(fabric_soak_cells(0..SEEDS, true));
    // Crash containment, not masking: retries are off (the cells are
    // deterministic — a retry can only repeat the failure), the deadline is
    // far above any healthy soak, and quarantined seeds surface as failures
    // below with their repro artifact paths.
    let opts = FabricOptions {
        deadline: Some(std::time::Duration::from_secs(600)),
        retry: RetryPolicy::none(),
        ..FabricOptions::default()
    };
    let report = run_fabric_ephemeral(cells, &opts).expect("fabric sweep failed");
    eprintln!("{}", report.counters.render());
    for q in report.quarantined() {
        failures.push(format!("{q}"));
    }
    for r in report.results() {
        let (seed, out) = (r.seed, &r.output);
        let adversarial = r.label.starts_with("soak-adv-");
        let mut problems = Vec::new();
        if out.stalled {
            problems.push("watchdog fired");
        }
        if !out.finished {
            problems.push("transfer incomplete");
        }
        if out.acked != TRANSFER_PKTS {
            problems.push("acked != transfer size");
        }
        if out.counters.links.iter().all(|l| l.drops_fault + l.drops_blackout == 0) {
            problems.push("the fault script never bit — soak is vacuous");
        }
        if adversarial {
            let (reordered, duplicated, corrupted) =
                out.counters.links.iter().fold((0, 0, 0), |(r, d, c), l| {
                    (r + l.reordered, d + l.duplicated, c + l.corrupted)
                });
            if reordered == 0 || duplicated == 0 || corrupted == 0 {
                problems.push("an adversarial impairment never bit — adv soak is vacuous");
            }
        }
        if problems.is_empty() {
            // Passing cells clean up their trace, leaving only the traces
            // that explain a failure for the CI artifact upload.
            if let Some(dir) = dir.as_deref() {
                let _ = std::fs::remove_file(obs::trace_path(dir, &r.label));
            }
        } else {
            failures.push(format!("seed {seed}: {}: {out:?}", problems.join("; ")));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn chaos_runs_are_reproducible_per_seed() {
    // The same cells through a serial and an 8-way parallel sweep: outcomes
    // (and their order) must be identical — thread scheduling must never
    // leak into a simulation.
    let seeds = [0u64, 7, 13];
    let serial = run_sweep_jobs(soak_cells(seeds), 1);
    let parallel = run_sweep_jobs(soak_cells(seeds), 8);
    assert_eq!(serial, parallel, "serial vs parallel soak outcomes diverged");
    for r in &serial {
        assert!(r.output.finished, "{}: transfer incomplete: {:?}", r.label, r.output);
    }
}

#[test]
fn chaos_outcomes_identical_across_engines() {
    // The engine's contract under fire: with faults, blackouts, reordering,
    // duplication, and corruption all active, it still produces the same
    // `SoakOutcome` as the binary-heap oracle bit-for-bit. Seeds pick one
    // LIA (even) and one DTS (odd) cell, plain and adversarial.
    for seed in [4u64, 9] {
        for adversarial in [false, true] {
            let reference = soak_on(Simulator::with_reference_queue(seed), seed, adversarial);
            assert!(reference.finished, "seed {seed}: reference run incomplete");
            assert_eq!(
                soak_with(seed, adversarial),
                reference,
                "seed {seed} (adversarial={adversarial}): engine diverged from the heap oracle"
            );
        }
    }
}

#[test]
fn adversarial_chaos_runs_are_reproducible_per_seed() {
    // Same contract for the reorder/dup/corrupt cells: the impairment RNG
    // draws live inside each cell's own simulator, so thread scheduling must
    // not perturb them either — and the impairments must actually fire.
    let seeds = [2u64, 5];
    let serial = run_sweep_jobs(adv_cells(seeds), 1);
    let parallel = run_sweep_jobs(adv_cells(seeds), 8);
    assert_eq!(serial, parallel, "serial vs parallel adversarial outcomes diverged");
    for r in &serial {
        assert!(r.output.finished, "{}: transfer incomplete: {:?}", r.label, r.output);
        assert_eq!(r.output.acked, TRANSFER_PKTS, "{}: exactly-once broken", r.label);
        let touched: u64 =
            r.output.counters.links.iter().map(|l| l.reordered + l.duplicated + l.corrupted).sum();
        assert!(touched > 0, "{}: adversarial impairments never fired", r.label);
    }
}
