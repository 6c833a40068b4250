//! Tier-1's view of the record codec (`obs::record`) through the public API
//! of the crates that write and read it: a journal, a spool request and
//! response, a repro artifact and a trace each go out through their typed
//! writer and come back through their typed reader unchanged — so the root
//! `cargo test` cannot be green while `obs` or `bench-harness` mis-encode.
//!
//! The same lines are also the harness half of the golden corpus
//! (`crates/obs/tests/golden_lines.jsonl`, written by the commit before
//! `obs::record` existed): today's writers must reproduce it byte for byte.

use bench_harness::fabric::dist::wire::{
    self, RequestCell, RequestHeader, ResponseExpect, ResponseWriter, PROTOCOL_VERSION,
};
use bench_harness::fabric::journal::{encode_payload, load_journal, JournalValue};
use bench_harness::fabric::retry::AttemptStats;
use bench_harness::fabric::{
    run_fabric, CellId, FabricCell, FabricOptions, FailCause, Fingerprint, RetryPolicy,
};
use bench_harness::repro::{
    parse_artifact, render_artifact, replay_artifact, ReproOutcome, ReproSpec, ViolationRecord,
};
use netsim::{FaultAction, FaultScript, LossModel, ReorderModel, SimDuration, SimTime};
use obs::{DropCause, JsonlSink, RecoveryCause, TraceEvent, TraceSink};
use std::path::{Path, PathBuf};

/// A string that needs every escape the writer emits, plus the characters
/// that used to confuse the payload mini-parser.
const NASTY: &str = "a,b]c \"q\" \\ \n\t\u{1} 𝕏";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("record-codec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn lines_of(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .map(str::to_owned)
        .collect()
}

fn cell_id(n: u64) -> CellId {
    CellId::derive(&format!("c{n}"), n, Fingerprint::new().str("record-codec"))
}

/// One healthy cell and one that always panics, journaled with artifacts
/// on: the journal gets a `run`, a `done` and a `quarantined` line, the
/// artifact directory an identity-only quarantine stub.
fn journal_and_stub(dir: &Path) -> (PathBuf, PathBuf) {
    let journal = dir.join("journal.jsonl");
    let artifacts = dir.join("artifacts");
    let cells = vec![
        FabricCell::new(format!("good {NASTY}"), 7, || (1.5f64, NASTY.to_owned(), u64::MAX))
            .config(Fingerprint::new().str("record-codec").u64(0)),
        FabricCell::new("bad", 8, || -> (f64, String, u64) { panic!("boom {NASTY}") })
            .config(Fingerprint::new().str("record-codec").u64(1)),
    ];
    let opts = FabricOptions {
        jobs: 1,
        journal: Some(journal.clone()),
        deadline: None,
        retry: RetryPolicy::none(),
        artifacts: Some(artifacts.clone()),
    };
    let report = run_fabric(cells, &opts).expect("fabric run");
    assert_eq!(report.quarantined().count(), 1);
    let stub = std::fs::read_dir(&artifacts)
        .expect("artifact dir")
        .map(|e| e.expect("entry").path())
        .next()
        .expect("one quarantine stub");
    (journal, stub)
}

fn request() -> (RequestHeader, Vec<RequestCell>) {
    let cells = vec![
        RequestCell { id: cell_id(0), index: 0, label: "c0".into(), seed: 0 },
        RequestCell { id: cell_id(5), index: 5, label: NASTY.into(), seed: u64::MAX },
    ];
    let header = RequestHeader {
        version: PROTOCOL_VERSION,
        grid: 0x00ab_cdef_0123_4567,
        shard: 1,
        gen: 2,
        suite: "walk".into(),
        cells: cells.len(),
        deadline_ms: 1_500,
        max_attempts: 3,
        backoff_ms: 100,
        max_backoff_ms: 5_000,
        heartbeat_ms: 200,
    };
    (header, cells)
}

/// What the spool's `done` cell took before it succeeded and what its
/// `failed` cell did: three distinct numbers each, so a reader that dropped
/// or swapped one is caught.
const DONE_STATS: AttemptStats = AttemptStats { attempts: 4, panics: 1, deadline_kills: 2 };
const FAILED_STATS: AttemptStats = AttemptStats { attempts: 3, panics: 2, deadline_kills: 1 };

/// Exercises every spool writer once; returns the spool root.
fn spool(dir: &Path) -> PathBuf {
    let spool = dir.join("spool");
    let (header, cells) = request();
    wire::init_spool(&spool, header.grid, 48, 2, NASTY).expect("init");
    wire::write_request(&spool, &header, &cells).expect("request");
    let mut w = ResponseWriter::create(&spool, 1, 2, header.grid, "w1-g2", PROTOCOL_VERSION)
        .expect("response");
    let payload = encode_payload(&(0.1f64, NASTY.to_owned(), vec![1u64, 2]));
    w.record_done(cell_id(0), "c0", 0, DONE_STATS, &payload).expect("done");
    w.record_failed(cell_id(5), NASTY, u64::MAX, FAILED_STATS, FailCause::Deadline, NASTY)
        .expect("failed");
    w.finish().expect("finish");
    wire::append_heartbeat(&spool, "w1-g2", 1, 2, 41).expect("heartbeat");
    spool
}

/// Every `FaultAction`, and every loss and reorder model under it.
fn full_spec() -> ReproSpec {
    let t = SimTime::from_secs_f64;
    ReproSpec {
        seed: 9,
        transfer_pkts: 500,
        cc: "lia".into(),
        dead_after_backoffs: Some(4),
        horizon_s: 60.0,
        fail_at_s: Some(2.5),
        script: FaultScript::new()
            .at(t(1.0), FaultAction::SetLoss { link: 0, model: LossModel::None })
            .at(t(1.5), FaultAction::SetLoss { link: 0, model: LossModel::iid(0.012_345_678_9) })
            .at(
                t(2.0),
                FaultAction::SetLoss {
                    link: 2,
                    model: LossModel::gilbert_elliott(0.05, 0.3, 0.0, 0.37),
                },
            )
            .at(t(3.0), FaultAction::SetBandwidth { link: 0, bps: 12_500_000 })
            .at(
                t(4.0),
                FaultAction::SetPropagation { link: 1, propagation: SimDuration::from_millis(17) },
            )
            .at(t(5.0), FaultAction::LinkDown { link: 2 })
            .at(t(6.0), FaultAction::LinkUp { link: 2 })
            .at(t(7.0), FaultAction::SetReorder { link: 1, model: ReorderModel::None })
            .at(
                t(7.5),
                FaultAction::SetReorder {
                    link: 1,
                    model: ReorderModel::uniform(0.25, SimDuration::from_millis(3)),
                },
            )
            .at(t(8.0), FaultAction::SetDuplicate { link: 2, p: 0.125 })
            .at(t(9.0), FaultAction::SetCorrupt { link: 3, p: 0.0625 }),
    }
}

fn full_outcome() -> ReproOutcome {
    ReproOutcome {
        finished: false,
        acked: 123,
        violation: Some(ViolationRecord { at_ns: 2_345_678_901, message: NASTY.into() }),
        trace_tail: Vec::new(),
    }
}

/// The harness half of the golden corpus from today's writers, in corpus
/// order: journal `run`/`done`/`quarantined`, the quarantine stub, the
/// eight spool line kinds, then an artifact's spec, faults and violation.
fn harness_lines(dir: &Path) -> Vec<String> {
    let (journal, stub) = journal_and_stub(dir);
    let spool = spool(dir);
    let mut lines = lines_of(&journal);
    lines.extend(lines_of(&stub));
    lines.extend(lines_of(&wire::manifest_path(&spool)));
    lines.extend(lines_of(&wire::request_path(&spool, 1, 2)));
    lines.extend(lines_of(&wire::response_path(&spool, 1, 2)));
    lines.extend(lines_of(&wire::heartbeat_path(&spool, "w1-g2")));
    lines.extend(render_artifact(&full_spec(), &full_outcome()).lines().map(str::to_owned));
    lines
}

#[test]
fn todays_writers_reproduce_the_golden_corpus() {
    let dir = tmp("golden");
    let ours = harness_lines(&dir);
    let corpus: Vec<&str> =
        include_str!("../crates/obs/tests/golden_lines.jsonl").lines().collect();
    let theirs = &corpus[corpus.len() - ours.len()..];
    for (ours, theirs) in ours.iter().zip(theirs) {
        assert_eq!(ours, theirs);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_lines_replay_what_was_journaled() {
    let dir = tmp("journal");
    let (journal, _) = journal_and_stub(&dir);
    let replay = load_journal(&journal).expect("load");
    assert!(replay.torn_tail.is_none());
    let done = replay.done.values().next().expect("one done cell");
    assert_eq!(done.label, format!("good {NASTY}"));
    assert_eq!((done.seed, done.attempts), (7, 1));
    // The payload is the encoded output, whole.
    assert_eq!(done.payload, encode_payload(&(1.5f64, NASTY.to_owned(), u64::MAX)));
    assert_eq!(done.payload[0], JournalValue::U64(1.5f64.to_bits()));
    let q = &replay.quarantined[0];
    assert_eq!((q.label.as_str(), q.seed, q.attempts, q.cause.as_str()), ("bad", 8, 1, "panic"));
    assert!(q.message.contains(NASTY), "{:?}", q.message);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spool_lines_come_back_through_their_readers() {
    let dir = tmp("spool");
    let spool = spool(&dir);
    let (header, cells) = request();
    assert_eq!(wire::read_request(&wire::request_path(&spool, 1, 2)), Ok((header, cells)));
    let text = std::fs::read_to_string(wire::response_path(&spool, 1, 2)).expect("response");
    let parsed = wire::parse_response(
        &text,
        &ResponseExpect { grid: 0x00ab_cdef_0123_4567, shard: 1, gen: 2 },
    );
    assert!(parsed.complete && parsed.fault.is_none(), "{parsed:?}");
    assert_eq!(parsed.worker.as_deref(), Some("w1-g2"));
    let (done, done_stats) = &parsed.done[0];
    assert_eq!(done.payload, encode_payload(&(0.1f64, NASTY.to_owned(), vec![1u64, 2])));
    assert_eq!((done.attempts, *done_stats), (4, DONE_STATS));
    let failed = &parsed.failed[0];
    assert_eq!(
        (failed.label.as_str(), failed.seed, failed.message.as_str()),
        (NASTY, u64::MAX, NASTY)
    );
    assert_eq!((failed.stats, failed.cause), (FAILED_STATS, FailCause::Deadline));
    assert_eq!(wire::read_heartbeat_seq(&spool, "w1-g2", 1, 2), Some(41));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_round_trip_every_fault_action_bit_exactly() {
    let (spec, outcome) = (full_spec(), full_outcome());
    let text = render_artifact(&spec, &outcome);
    let (parsed, violation) = parse_artifact(&text).expect("parse");
    assert_eq!(parsed, spec);
    assert_eq!(violation, outcome.violation);
    assert_eq!(render_artifact(&parsed, &outcome), text);
    // Hand-edited artifacts: a count that does not fit and a bit pattern
    // that is no probability are errors, not truncation or a panic.
    let wide = text.replacen("\"dead_after_backoffs\":4", "\"dead_after_backoffs\":4294967296", 1);
    let err = parse_artifact(&wide).unwrap_err();
    assert!(err.contains("dead_after_backoffs") && err.contains("out of range"), "{err}");
    let nan = format!("\"p_bits\":{}", f64::NAN.to_bits());
    let bad = text.replacen(&format!("\"p_bits\":{}", 0.125f64.to_bits()), &nan, 1);
    let err = parse_artifact(&bad).unwrap_err();
    assert!(err.contains("not a probability"), "{err}");
}

/// The trace tail is context: the artifact of a "cwnd degenerate" violation
/// ends in the `cwnd_change` that recorded the NaN, and the dump is not
/// atomic, so a kill can tear the last tail line. Neither may cost the
/// evidence above it — while a torn `repro` line still must.
#[test]
fn an_artifact_survives_a_degenerate_or_torn_trace_tail() {
    let spec = ReproSpec { transfer_pkts: 50, fail_at_s: None, ..full_spec() };
    let mut outcome = full_outcome();
    outcome.trace_tail = [f64::NAN, f64::INFINITY, -1.0, 1e20]
        .map(|cwnd_pkts| TraceEvent::CwndChange { t_ns: 7, conn: 2, subflow: 1, cwnd_pkts })
        .to_vec();
    let text = render_artifact(&spec, &outcome);
    assert!(text.contains("\"cwnd_pkts\":NaN}\n") && text.contains("\"cwnd_pkts\":inf}\n"));
    let whole = parse_artifact(&text).expect("degenerate tail");
    assert_eq!(whole, (spec.clone(), outcome.violation.clone()));

    let tail_starts = text.rfind("{\"ev\":").expect("a tail line");
    for cut in tail_starts + 1..text.len() {
        assert_eq!(parse_artifact(&text[..cut]).as_ref(), Ok(&whole), "cut at {cut}");
    }
    let dir = tmp("artifact");
    let path = dir.join("torn.jsonl");
    std::fs::write(&path, &text[..text.len() - 9]).expect("write artifact");
    let report = replay_artifact(&path).expect("replay");
    assert_eq!(report.original, outcome.violation);

    let repro_ends = text.find("{\"ev\":").expect("a tail line") - 1;
    let err = parse_artifact(&text[..repro_ends - 1]).unwrap_err();
    assert!(err.contains("artifact line"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_lines_come_back_through_the_summarizer() {
    let dir = tmp("trace");
    let path = dir.join("t.jsonl");
    let mut sink = JsonlSink::create(&path).expect("trace file");
    sink.record(&TraceEvent::Drop { t_ns: 5, link: 3, pkt_id: 1, cause: DropCause::Blackout });
    sink.record(&TraceEvent::RecoveryEnter {
        t_ns: 9,
        conn: 2,
        subflow: 1,
        recover: 40,
        cause: RecoveryCause::Rto,
    });
    sink.record(&TraceEvent::CwndChange { t_ns: 7, conn: 2, subflow: 1, cwnd_pkts: 2.5 });
    sink.line(|w| w.str("ev", "custom").str("note", NASTY).f64_fixed("x", 0.5, 3));
    drop(sink); // flush
    let text = std::fs::read_to_string(&path).expect("trace");
    let summary = obs::summarize(text.as_bytes()).expect("summarize");
    assert_eq!((summary.events, summary.malformed_lines), (4, 0));
    assert_eq!(summary.drops_by_cause.get("blackout"), Some(&1));
    assert_eq!(summary.drops_by_link.get(&3), Some(&1));
    assert_eq!(summary.recoveries_by_subflow.get(&(2, 1)), Some(&1));
    assert_eq!(summary.by_kind.get("custom"), Some(&1));
    assert_eq!((summary.first_t_ns, summary.last_t_ns), (Some(5), Some(9)));
    let _ = std::fs::remove_dir_all(&dir);
}
