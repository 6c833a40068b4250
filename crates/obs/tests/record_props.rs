//! The record dialect's decoder is total, its writer and reader are
//! inverse, and a written line has no readable proper prefix — the
//! properties the journal's torn-tail rule and the spool's partial-harvest
//! rule rest on. Plus the golden corpus: one line per record kind, written
//! by the commit *before* `obs::record` existed, which today's reader and
//! writer must reproduce byte for byte.

use obs::record::{self, Record, Value, Word};
use obs::{DiscardCause, DropCause, FaultKind, ImpairKind, RecoveryCause, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;

/// Re-writes a parsed record field by field through the public writer.
fn rewrite(rec: &Record<'_>) -> String {
    let mut out = String::new();
    let mut w = record::line(&mut out);
    for (key, value) in rec.fields() {
        w = match value {
            Value::U64(n) => w.u64(key, *n),
            Value::Dec(raw) => w.f64_dec(key, raw.parse().expect("a number token parses as f64")),
            Value::Str(s) => w.str(key, s),
            Value::Words(words) => w.words(key, words),
        };
    }
    w.end();
    out
}

/// Characters chosen to collide with the dialect: every delimiter, every
/// control character, the escape introducer, DEL, and scalars on both
/// sides of the BMP boundary.
fn tricky_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control")),
        Just('"'),
        Just('\\'),
        Just(','),
        Just(']'),
        Just('['),
        Just('}'),
        Just('{'),
        Just(':'),
        Just('\u{7f}'),
        Just('\u{d7ff}'),
        Just('\u{e000}'),
        Just('\u{ffff}'),
        Just('𝕏'),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("non-BMP scalar")),
    ]
}

fn tricky_string() -> impl Strategy<Value = String> {
    vec(tricky_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Words that matter: the extremes, NaN payloads, negative zero.
fn tricky_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just((-0.0f64).to_bits()),
        Just(f64::NAN.to_bits()),
        Just(f64::NAN.to_bits() | 0xdead),
        Just(f64::NEG_INFINITY.to_bits()),
        any::<u64>(),
    ]
}

#[derive(Clone, Debug)]
enum Field {
    U64(u64),
    Str(String),
    Hex(u64),
    Bits(u64),
    Dec(u64),
    Words(Vec<Word>),
}

fn field() -> impl Strategy<Value = Field> {
    let word = prop_oneof![tricky_u64().prop_map(Word::U64), tricky_string().prop_map(Word::Str)];
    prop_oneof![
        tricky_u64().prop_map(Field::U64),
        tricky_string().prop_map(Field::Str),
        tricky_u64().prop_map(Field::Hex),
        tricky_u64().prop_map(Field::Bits),
        tricky_u64().prop_map(Field::Dec),
        vec(word, 0..8).prop_map(Field::Words),
    ]
}

fn write(fields: &[Field]) -> String {
    let mut out = String::new();
    let mut w = record::line(&mut out);
    for (i, f) in fields.iter().enumerate() {
        let key = format!("k{i}");
        w = match f {
            Field::U64(v) => w.u64(&key, *v),
            Field::Str(s) => w.str(&key, s),
            Field::Hex(v) => w.hex(&key, *v),
            Field::Bits(b) => w.f64_bits(&key, f64::from_bits(*b)),
            Field::Dec(b) => w.f64_dec(&key, f64::from_bits(*b)),
            Field::Words(ws) => w.words(&key, ws),
        };
    }
    w.end();
    out
}

/// Fragments of the dialect itself, so random concatenations constantly
/// open strings, arrays and escapes and never close them, or close ones
/// that were never opened.
fn fragment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("{"),
        Just("}"),
        Just("\"k\":"),
        Just("\"fabric\":\"done\""),
        Just("\""),
        Just("\\"),
        Just("\\u"),
        Just("d83d"),
        Just("\\udc00"),
        Just("\\\""),
        Just(","),
        Just(":"),
        Just("["),
        Just("]"),
        Just("0"),
        Just("18446744073709551615"),
        Just("18446744073709551616"),
        Just("-"),
        Just("."),
        Just("e+"),
        Just("2.5"),
        Just(" "),
        Just("\n"),
        Just("𝕏"),
        Just("\u{0}"),
        Just("true"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily decoded) never panic the reader, and what
    /// it does accept it accepts as a whole line.
    #[test]
    fn read_is_total_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..200)) {
        let s = String::from_utf8_lossy(&bytes);
        if record::read(&s).is_ok() {
            prop_assert!(s.starts_with('{') && s.ends_with('}'), "{s:?}");
        }
    }

    /// Fragment soup: the reader is total on near-miss lines too.
    #[test]
    fn read_is_total_on_fragment_soup(parts in vec(fragment(), 0..40)) {
        let s = parts.concat();
        if let Ok(rec) = record::read(&s) {
            prop_assert!(s.starts_with('{') && s.ends_with('}'), "{s:?}");
            let _ = rewrite(&rec);
        }
    }

    /// write → read returns every field bit for bit, and re-writing the
    /// parsed record reproduces the line.
    #[test]
    fn write_then_read_round_trips(fields in vec(field(), 0..10)) {
        let line = write(&fields);
        prop_assert!(!line.contains('\n'), "{line:?}");
        let mut rec = record::read(&line).expect("a written line reads");
        prop_assert_eq!(rewrite(&rec), line.clone());
        for (i, f) in fields.iter().enumerate() {
            let key = format!("k{i}");
            match f {
                Field::U64(v) => prop_assert_eq!(rec.uint(&key), Ok(*v)),
                Field::Str(s) => prop_assert_eq!(rec.str(&key), Ok(s.as_str())),
                Field::Hex(v) => prop_assert_eq!(rec.hex(&key), Ok(*v)),
                Field::Bits(b) => prop_assert_eq!(rec.uint(&key), Ok(*b)),
                // A decimal — NaN and the infinities included — only has to
                // read (`5.0` is written `5` and reads as an integer, which
                // is fine: nothing parses trace decimals back); `rewrite`
                // above checked its bytes.
                Field::Dec(_) => {}
                Field::Words(ws) => prop_assert_eq!(rec.take_words(&key), Ok(ws.clone())),
            }
        }
    }

    /// Prefix closure: no proper prefix of a written line reads `Ok`, cut
    /// at any byte (a kill does not respect char boundaries).
    #[test]
    fn no_proper_prefix_of_a_written_line_reads(fields in vec(field(), 0..6)) {
        let line = write(&fields);
        for cut in 0..line.len() {
            let prefix = String::from_utf8_lossy(&line.as_bytes()[..cut]);
            prop_assert!(record::read(&prefix).is_err(), "{prefix:?} of {line:?}");
        }
    }
}

/// The four mis-reads the substring scanners made before `obs::record`
/// (ISSUE 15), and the shapes next to them. Every one is a line a kill can
/// leave behind; every one must be an error, not a shorter record.
#[test]
fn regression_corpus_is_rejected() {
    const CORPUS: &[&str] = &[
        // A footer torn mid-number used to parse as a lying footer.
        "{\"dist\":\"end\",\"done\":10,\"failed\":1",
        // The same footer cut just before its brace used to be complete.
        "{\"dist\":\"end\",\"done\":10,\"failed\":12",
        // A heartbeat torn out of "seq":41} used to read seq 4.
        "{\"dist\":\"heartbeat\",\"worker\":\"w\",\"shard\":0,\"gen\":0,\"seq\":4",
        // A done line missing only its brace used to replay.
        "{\"fabric\":\"done\",\"id\":\"0000000000000001\",\"label\":\"a\",\"seed\":0,\"attempts\":1,\"payload\":[1]",
        // Two lines glued by a lost newline.
        "{\"dist\":\"end\",\"done\":1,\"failed\":0}{\"dist\":\"end\",\"done\":1,\"failed\":0}",
        // A key found inside a string value is not a field.
        "{\"message\":\"\\\"seed\\\":7\"",
        // The chaos drill's interior garbage.
        "{\"dist\":\"done\",CHAOS-INTERIOR-GARBAGE",
    ];
    for line in CORPUS {
        assert!(record::read(line).is_err(), "accepted {line:?}");
    }
}

/// The trace half of the golden corpus, from today's writer: one line per
/// [`TraceEvent`] kind, in the order the corpus file holds them. (The
/// supervisor's audit-log lines that follow are checked by their writer,
/// `bench_harness::fabric::dist::DistEvent`.)
fn obs_lines() -> Vec<String> {
    let big = u64::MAX - 1;
    let events = [
        TraceEvent::Enqueue { t_ns: 1, link: 0, pkt_id: big, qlen: 3 },
        TraceEvent::Drop { t_ns: 2, link: 7, pkt_id: 1, cause: DropCause::QueueOverflow },
        TraceEvent::FastRexmit { t_ns: 3, conn: 9, subflow: 0, seq: 4 },
        TraceEvent::RtoFired { t_ns: 4, conn: 9, subflow: 1, backoff: 2 },
        TraceEvent::SpuriousRexmit { t_ns: 5, conn: 9, subflow: 0, seq: 4 },
        TraceEvent::RecoveryEnter {
            t_ns: 6,
            conn: 9,
            subflow: 0,
            recover: 40,
            cause: RecoveryCause::FastRetransmit,
        },
        TraceEvent::RecoveryExit { t_ns: 7, conn: 9, subflow: 0, cum_ack: 40 },
        TraceEvent::CwndChange { t_ns: 8, conn: 9, subflow: 0, cwnd_pkts: 2.5 },
        TraceEvent::SubflowDead { t_ns: 9, conn: 9, subflow: 1 },
        TraceEvent::SubflowRevived { t_ns: 10, conn: 9, subflow: 1 },
        TraceEvent::SchedulerPick { t_ns: 11, conn: 9, subflow: 0, data_seq: 12 },
        TraceEvent::Fault { t_ns: 12, link: 0, kind: FaultKind::SetReorder },
        TraceEvent::Impair { t_ns: 13, link: 0, pkt_id: 2, kind: ImpairKind::Duplicate },
        TraceEvent::SegDiscard { t_ns: 14, conn: 9, pkt_id: 2, cause: DiscardCause::WindowFull },
        TraceEvent::ZeroWindowStall { t_ns: 15, conn: 9 },
        TraceEvent::ZeroWindowProbe { t_ns: 16, conn: 9, subflow: 0, backoff: 1 },
        TraceEvent::ZeroWindowResume { t_ns: big, conn: 9, rwnd_pkts: 4 },
    ];
    let mut lines = Vec::new();
    for ev in events {
        let mut s = String::new();
        ev.to_json(&mut s);
        lines.push(s);
    }
    lines
}

/// Bytes unchanged: `golden_lines.jsonl` was written by the parent
/// commit's hand-rolled templates. Every line reads, re-writes to itself,
/// and the `obs` half equals what today's typed writers produce. (The
/// harness half — journal, spool, artifact lines — is regenerated and
/// compared by the root `tests/record_codec.rs`.)
#[test]
fn golden_corpus_round_trips_byte_for_byte() {
    let corpus: Vec<&str> = include_str!("golden_lines.jsonl").lines().collect();
    assert!(corpus.len() >= 49, "one line per kind, got {}", corpus.len());
    for line in &corpus {
        let rec = record::read(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(rewrite(&rec), *line);
    }
    let ours = obs_lines();
    assert_eq!(corpus[..ours.len()], ours.iter().map(String::as_str).collect::<Vec<_>>()[..]);
}
