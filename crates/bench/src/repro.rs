//! Failure-repro artifacts for invariant violations.
//!
//! When the online invariant checker (the `check-invariants` cargo feature)
//! halts a sweep cell, the harness dumps a **self-contained repro artifact**:
//! one JSONL file holding the cell's full [`ReproSpec`] (seed, transfer
//! size, congestion control, horizon, fault timeline), the recorded
//! violation, and the trace tail leading up to it. The `replay` binary
//! (`cargo run --bin replay --features check-invariants -- <artifact>`)
//! re-executes the spec deterministically and checks that the same violation
//! recurs at the same simulated time.
//!
//! Artifact format — flat one-line records, written and read through
//! [`obs::record`] like every other JSONL file in the repo:
//!
//! ```text
//! {"repro":"spec","seed":7,"transfer_pkts":20000,"cc":"lia","horizon_ns":...}
//! {"repro":"fault","at_ns":1000000000,"action":"set_loss","link":0,"model":"iid","p_bits":...}
//! {"repro":"violation","at_ns":2345678901,"message":"..."}
//! {"ev":"impair", ...}   # trace tail, oldest first
//! ```
//!
//! Floating-point parameters are serialized as IEEE-754 bit patterns
//! (`f64::to_bits`), so a parsed spec is *bit-identical* to the original —
//! a decimal round-trip that lost one ulp of a loss probability would
//! change the RNG draw sequence and lose the repro.

use congestion::AlgorithmKind;
use mptcp_energy::CcChoice;
use netsim::{FaultAction, FaultScript, LossModel, ReorderModel, SimDuration, SimTime, Simulator};
use obs::record::{self, LineWriter, Record};
use obs::{RingSink, TraceEvent};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use topology::TwoPath;
use transport::{attach_flow, FlowConfig, FlowHandle};

/// How many trailing trace events an artifact retains.
const TRACE_TAIL: usize = 256;

/// Everything needed to re-execute one chaos/soak cell bit-for-bit: the
/// topology is fixed (two disjoint 20 Mb/s, 10 ms paths — the soak grid's),
/// everything else is data.
#[derive(Clone, Debug, PartialEq)]
pub struct ReproSpec {
    /// Simulator (and flow) seed.
    pub seed: u64,
    /// Transfer size in packets.
    pub transfer_pkts: u64,
    /// Congestion control: the [`CcChoice::label`] of a base algorithm, of
    /// `dts` or of `dts-phi` (the last two at their default parameters).
    pub cc: String,
    /// Subflow death threshold (`None` disables the failover watchdog).
    pub dead_after_backoffs: Option<u32>,
    /// Run horizon, seconds.
    pub horizon_s: f64,
    /// When set, a deliberately-seeded invariant violation fires at this
    /// simulated time — the self-test hook for the artifact/replay pipeline.
    pub fail_at_s: Option<f64>,
    /// The fault timeline to install.
    pub script: FaultScript,
}

impl ReproSpec {
    /// The [`CcChoice`] whose [`CcChoice::label`] is `cc`: a base algorithm,
    /// or DTS or DTS-Φ at their defaults.
    fn cc_choice(&self) -> Result<CcChoice, String> {
        let dts = [CcChoice::dts(), CcChoice::dts_phi()];
        AlgorithmKind::ALL
            .map(CcChoice::Base)
            .into_iter()
            .chain(dts)
            .find(|c| c.label() == self.cc)
            .ok_or_else(|| format!("repro spec: unknown congestion control {:?}", self.cc))
    }
}

/// A recorded (or replayed) invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationRecord {
    /// Simulated time of the violation, nanoseconds.
    pub at_ns: u64,
    /// The failed check's message.
    pub message: String,
}

/// The outcome of executing a [`ReproSpec`].
#[derive(Debug)]
pub struct ReproOutcome {
    /// Whether the transfer completed.
    pub finished: bool,
    /// Connection-level packets acknowledged.
    pub acked: u64,
    /// The first invariant violation, if the checker halted the run
    /// (always `None` without the `check-invariants` feature).
    pub violation: Option<ViolationRecord>,
    /// The last `TRACE_TAIL` trace events, oldest first.
    pub trace_tail: Vec<TraceEvent>,
}

/// Builds `spec`'s cell on `sim` (fresh, seeded with `spec.seed`), ready to
/// run: the soak and [`run_repro_cell`] both build here, so an artifact
/// replays the very cell that wrote it.
///
/// # Errors
///
/// When the spec names an unknown congestion control: artifacts are
/// hand-editable text, so a typo must surface as a message, not a panic.
pub fn build_cell(sim: &mut Simulator, spec: &ReproSpec) -> Result<FlowHandle, String> {
    let cc = spec.cc_choice()?;
    let tp = TwoPath::dual_nic(sim, 20_000_000, SimDuration::from_millis(10));
    spec.script.clone().install(sim);
    #[cfg(feature = "check-invariants")]
    {
        netsim::install_default_invariants(sim);
        if let Some(fail_at) = spec.fail_at_s {
            let at = SimTime::from_secs_f64(fail_at);
            sim.add_invariant_check(Box::new(move |s: &Simulator| {
                if s.now() >= at {
                    Err(format!("seeded repro-pipeline violation (fail_at_s = {fail_at})"))
                } else {
                    Ok(())
                }
            }));
        }
    }
    let flow = attach_flow(
        sim,
        FlowConfig::new(spec.seed)
            .transfer_pkts(spec.transfer_pkts)
            .dead_after_backoffs(spec.dead_after_backoffs),
        cc.build(2),
        &tp.both(),
        SimDuration::ZERO,
    );
    Ok(flow)
}

/// [`build_cell`] run to the horizon with the trace-tail ring attached.
pub fn run_repro_cell(spec: &ReproSpec) -> Result<ReproOutcome, String> {
    let mut sim = Simulator::new(spec.seed);
    let ring = Arc::new(Mutex::new(RingSink::new(TRACE_TAIL)));
    sim.set_trace_sink(Box::new(Arc::clone(&ring)));
    let flow = build_cell(&mut sim, spec)?;
    sim.run_until(SimTime::from_secs_f64(spec.horizon_s));
    drop(sim.take_trace_sink());
    #[cfg(feature = "check-invariants")]
    let violation = sim
        .invariant_violation()
        .map(|v| ViolationRecord { at_ns: v.at.as_nanos(), message: v.message.clone() });
    #[cfg(not(feature = "check-invariants"))]
    let violation = None;
    // The simulator ran on this thread, so the ring cannot be poisoned; the
    // recovery path keeps the tail readable even if that ever changes.
    let trace_tail = ring
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .events()
        .copied()
        .collect::<Vec<_>>();
    Ok(ReproOutcome {
        finished: flow.is_finished(&sim),
        acked: flow.sender_ref(&sim).data_acked(),
        violation,
        trace_tail,
    })
}

/// The artifact directory named by the `SWEEP_ARTIFACTS` env var, if set.
pub fn artifact_dir() -> Option<PathBuf> {
    crate::env_parsed("SWEEP_ARTIFACTS", "a directory", |_| true)
}

fn fault_fields<'a>(w: LineWriter<'a>, at: SimTime, action: &FaultAction) -> LineWriter<'a> {
    let w = w
        .str("repro", "fault")
        .u64("at_ns", at.as_nanos())
        .str("action", action.kind().name())
        .u64("link", action.link() as u64);
    match action {
        FaultAction::SetLoss { model, .. } => match model {
            LossModel::None => w.str("model", "none"),
            LossModel::Iid { p } => w.str("model", "iid").f64_bits("p_bits", *p),
            LossModel::GilbertElliott { p_good_bad, p_bad_good, loss_good, loss_bad } => w
                .str("model", "ge")
                .f64_bits("pgb_bits", *p_good_bad)
                .f64_bits("pbg_bits", *p_bad_good)
                .f64_bits("lg_bits", *loss_good)
                .f64_bits("lb_bits", *loss_bad),
        },
        FaultAction::SetBandwidth { bps, .. } => w.u64("bps", *bps),
        FaultAction::SetPropagation { propagation, .. } => w.u64("prop_ns", propagation.as_nanos()),
        FaultAction::LinkDown { .. } | FaultAction::LinkUp { .. } => w,
        FaultAction::SetReorder { model, .. } => match model {
            ReorderModel::None => w.str("model", "none"),
            ReorderModel::Uniform { p, max_extra } => w
                .str("model", "uniform")
                .f64_bits("p_bits", *p)
                .u64("max_extra_ns", max_extra.as_nanos()),
        },
        FaultAction::SetDuplicate { p, .. } | FaultAction::SetCorrupt { p, .. } => {
            w.f64_bits("p_bits", *p)
        }
    }
}

fn parse_fault(rec: &Record<'_>) -> Result<(SimTime, FaultAction), String> {
    let at = SimTime::from_nanos(rec.uint("at_ns")?);
    let link: netsim::LinkId = rec.uint("link")?;
    // The model constructors panic outside [0, 1]; artifacts are
    // hand-editable, so the range is checked here.
    let prob = |key: &str| -> Result<f64, String> {
        let p = f64::from_bits(rec.uint(key)?);
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(format!("{key} decodes to {p}, not a probability"))
        }
    };
    let action = match rec.str("action")? {
        "set_loss" => {
            let model = match rec.str("model")? {
                "none" => LossModel::None,
                "iid" => LossModel::iid(prob("p_bits")?),
                "ge" => LossModel::gilbert_elliott(
                    prob("pgb_bits")?,
                    prob("pbg_bits")?,
                    prob("lg_bits")?,
                    prob("lb_bits")?,
                ),
                other => return Err(format!("unknown loss model {other:?}")),
            };
            FaultAction::SetLoss { link, model }
        }
        "set_bandwidth" => FaultAction::SetBandwidth { link, bps: rec.uint("bps")? },
        "set_propagation" => FaultAction::SetPropagation {
            link,
            propagation: SimDuration::from_nanos(rec.uint("prop_ns")?),
        },
        "link_down" => FaultAction::LinkDown { link },
        "link_up" => FaultAction::LinkUp { link },
        "set_reorder" => {
            let model = match rec.str("model")? {
                "none" => ReorderModel::None,
                "uniform" => ReorderModel::uniform(
                    prob("p_bits")?,
                    SimDuration::from_nanos(rec.uint("max_extra_ns")?),
                ),
                other => return Err(format!("unknown reorder model {other:?}")),
            };
            FaultAction::SetReorder { link, model }
        }
        "set_duplicate" => FaultAction::SetDuplicate { link, p: prob("p_bits")? },
        "set_corrupt" => FaultAction::SetCorrupt { link, p: prob("p_bits")? },
        other => return Err(format!("unknown fault action {other:?}")),
    };
    Ok((at, action))
}

/// Renders the artifact for a violating run as a JSONL string.
pub fn render_artifact(spec: &ReproSpec, outcome: &ReproOutcome) -> String {
    let mut out = String::new();
    let mut w = record::line(&mut out)
        .str("repro", "spec")
        .u64("seed", spec.seed)
        .u64("transfer_pkts", spec.transfer_pkts)
        .str("cc", &spec.cc)
        .u64("horizon_ns", SimDuration::from_secs_f64(spec.horizon_s).as_nanos());
    if let Some(k) = spec.dead_after_backoffs {
        w = w.u64("dead_after_backoffs", u64::from(k));
    }
    if let Some(fail_at) = spec.fail_at_s {
        w = w.u64("fail_at_ns", SimDuration::from_secs_f64(fail_at).as_nanos());
    }
    w.end();
    out.push('\n');
    for ev in spec.script.events() {
        fault_fields(record::line(&mut out), ev.at, &ev.action).end();
        out.push('\n');
    }
    if let Some(v) = &outcome.violation {
        record::line(&mut out)
            .str("repro", "violation")
            .u64("at_ns", v.at_ns)
            .str("message", &v.message)
            .end();
        out.push('\n');
    }
    for ev in &outcome.trace_tail {
        ev.to_json(&mut out);
        out.push('\n');
    }
    out
}

/// Writes the artifact for a violating run to `<dir>/repro-<seed>.jsonl`,
/// creating `dir` if needed. Returns the artifact path. The seed-derived
/// name is safe because the invariant checker runs one spec per seed.
pub fn dump_artifact(
    dir: &Path,
    spec: &ReproSpec,
    outcome: &ReproOutcome,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{}.jsonl", spec.seed));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(render_artifact(spec, outcome).as_bytes())?;
    Ok(path)
}

/// Parses an artifact back into its spec and recorded violation.
///
/// # Errors
///
/// On a `{"repro":…` line that is not a whole record (artifacts are
/// evidence, and a silently skipped torn fault line would replay a different
/// scenario), on missing or out-of-range fields, and when there is no spec
/// line. Every other line is the trace tail — context, not config — and is
/// skipped even when it does not read: `dump_artifact` does not write
/// atomically, so a kill can tear the last tail line.
pub fn parse_artifact(text: &str) -> Result<(ReproSpec, Option<ViolationRecord>), String> {
    let mut spec: Option<ReproSpec> = None;
    let mut violation = None;
    for (i, line) in text.lines().enumerate() {
        let rec = match record::read(line) {
            Ok(rec) => rec,
            Err(e) if record::opens_with(line, "repro") => {
                return Err(format!("artifact line {}: {e}", i + 1));
            }
            Err(_) => continue,
        };
        match rec.str("repro") {
            Ok("spec") => {
                let tag = |e: String| format!("spec {e}");
                spec = Some(ReproSpec {
                    seed: rec.uint("seed").map_err(tag)?,
                    transfer_pkts: rec.uint("transfer_pkts").map_err(tag)?,
                    cc: rec.str("cc").map_err(tag)?.to_owned(),
                    dead_after_backoffs: rec.opt_uint("dead_after_backoffs").map_err(tag)?,
                    horizon_s: SimDuration::from_nanos(rec.uint("horizon_ns").map_err(tag)?)
                        .as_secs_f64(),
                    fail_at_s: rec
                        .opt_uint("fail_at_ns")
                        .map_err(tag)?
                        .map(|ns| SimDuration::from_nanos(ns).as_secs_f64()),
                    script: FaultScript::new(),
                });
            }
            Ok("fault") => {
                let spec = spec.as_mut().ok_or("fault line before spec line")?;
                let (at, action) =
                    parse_fault(&rec).map_err(|e| format!("fault line {e}: {line}"))?;
                spec.script = std::mem::take(&mut spec.script).at(at, action);
            }
            Ok("violation") => {
                let tag = |e: String| format!("violation {e}");
                violation = Some(ViolationRecord {
                    at_ns: rec.uint("at_ns").map_err(tag)?,
                    message: rec.str("message").map_err(tag)?.to_owned(),
                });
            }
            _ => {} // trace tail / unknown records — context, not config
        }
    }
    Ok((spec.ok_or("artifact has no spec line")?, violation))
}

/// The result of replaying an artifact.
#[derive(Debug)]
pub struct ReplayReport {
    /// The violation recorded in the artifact.
    pub original: Option<ViolationRecord>,
    /// The violation produced by re-executing the spec.
    pub replayed: Option<ViolationRecord>,
}

impl ReplayReport {
    /// True when the replay reproduced the recorded violation exactly
    /// (same message, same simulated nanosecond).
    pub fn reproduced(&self) -> bool {
        self.original.is_some() && self.original == self.replayed
    }
}

/// Re-executes the artifact at `path` and compares violations.
pub fn replay_artifact(path: &Path) -> Result<ReplayReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (spec, original) = parse_artifact(&text)?;
    let outcome = run_repro_cell(&spec)?;
    Ok(ReplayReport { original, replayed: outcome.violation })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ReproSpec {
        ReproSpec {
            seed: 9,
            transfer_pkts: 500,
            cc: "lia".into(),
            dead_after_backoffs: Some(4),
            horizon_s: 60.0,
            fail_at_s: None,
            script: FaultScript::new()
                .at(
                    SimTime::from_secs_f64(1.0),
                    FaultAction::SetLoss { link: 0, model: LossModel::iid(0.0123456789) },
                )
                .at(
                    SimTime::from_secs_f64(2.0),
                    FaultAction::SetReorder {
                        link: 1,
                        model: ReorderModel::uniform(0.25, SimDuration::from_millis(3)),
                    },
                )
                .at(SimTime::from_secs_f64(3.0), FaultAction::SetDuplicate { link: 2, p: 0.125 })
                .at(SimTime::from_secs_f64(4.0), FaultAction::SetCorrupt { link: 3, p: 0.0625 })
                .at(
                    SimTime::from_secs_f64(5.0),
                    FaultAction::SetLoss {
                        link: 2,
                        model: LossModel::gilbert_elliott(0.05, 0.3, 0.0, 0.37),
                    },
                )
                .at(
                    SimTime::from_secs_f64(6.0),
                    FaultAction::SetBandwidth { link: 0, bps: 12_500_000 },
                )
                .at(
                    SimTime::from_secs_f64(7.0),
                    FaultAction::SetPropagation {
                        link: 1,
                        propagation: SimDuration::from_millis(17),
                    },
                )
                .at(SimTime::from_secs_f64(8.0), FaultAction::LinkDown { link: 2 })
                .at(SimTime::from_secs_f64(9.0), FaultAction::LinkUp { link: 2 }),
        }
    }

    #[test]
    fn spec_roundtrips_bit_exactly_through_the_artifact_format() {
        let s = spec();
        let outcome = ReproOutcome {
            finished: false,
            acked: 123,
            violation: Some(ViolationRecord {
                at_ns: 2_345_678_901,
                message: "conn 9: \"quoted\"\nand a newline".into(),
            }),
            trace_tail: Vec::new(),
        };
        let text = render_artifact(&s, &outcome);
        let (parsed, violation) = parse_artifact(&text).expect("parse");
        assert_eq!(parsed, s, "spec did not round-trip bit-exactly");
        assert_eq!(violation, outcome.violation);
    }

    #[test]
    fn every_cc_label_resolves_back_to_its_choice() {
        let dts = [CcChoice::dts(), CcChoice::dts_phi()];
        for cc in AlgorithmKind::ALL.map(CcChoice::Base).into_iter().chain(dts) {
            assert_eq!(ReproSpec { cc: cc.label(), ..spec() }.cc_choice(), Ok(cc));
        }
        let err = ReproSpec { cc: "tcp".into(), ..spec() }.cc_choice().unwrap_err();
        assert!(err.contains("unknown congestion control \"tcp\""), "{err}");
    }

    #[test]
    fn artifacts_without_a_violation_parse_to_none() {
        let outcome =
            ReproOutcome { finished: true, acked: 500, violation: None, trace_tail: Vec::new() };
        let (_, violation) = parse_artifact(&render_artifact(&spec(), &outcome)).expect("parse");
        assert_eq!(violation, None);
    }

    #[test]
    fn repro_cells_execute_deterministically() {
        let mut s = spec();
        s.transfer_pkts = 300;
        let a = run_repro_cell(&s).expect("repro cell failed");
        let b = run_repro_cell(&s).expect("repro cell failed");
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.trace_tail, b.trace_tail);
        assert!(a.finished, "repro scenario should complete: {a:?}");
    }
}
