//! The result journal: an append-only JSONL checkpoint of completed cells.
//!
//! Every time a cell finishes, the fabric appends **one line** to the
//! journal and flushes it, so a `SIGKILL` at any instant loses at most the
//! line being written. Resuming is replaying: parse the journal, match
//! `done` lines against the freshly planned grid by [`CellId`], decode
//! their payloads, and run only the cells with no entry. The merged output
//! is byte-identical to an uninterrupted run because the payload codec
//! round-trips every value exactly — `f64`s travel as IEEE-754 bit
//! patterns, the same discipline as [`crate::repro`].
//!
//! Line formats (flat one-line records, written and read through
//! [`obs::record`] — a line is read whole or rejected, which is what makes
//! "the torn line is the last line" a safe rule):
//!
//! ```text
//! {"fabric":"run","version":2,"grid":"<16 hex>","cells":N}
//! {"fabric":"done","id":"<16 hex>","label":"...","seed":7,"attempts":1,"payload":[...]}
//! {"fabric":"quarantined","id":"<16 hex>","label":"...","seed":7,"attempts":3,"cause":"panic","message":"..."}
//! ```
//!
//! A `done` payload is the cell's encoded output and nothing else; a journal
//! of any other version (1 appended a counter snapshot to every payload) is
//! refused at its first header, not read around.
//!
//! A `run` header is appended each time a fabric run opens the journal; the
//! grid digest must match across every header, so a journal can never mix
//! cells from two different grids. A torn final line (the line a kill
//! interrupted) is tolerated and simply re-run; corruption anywhere else is
//! an error — the journal is evidence, and silently skipping mid-file
//! damage would hide it. Duplicate `done` records for the same cell —
//! possible once multiple writers exist (distributed supervisors harvesting
//! partial responses, or two crashed runs that both completed the cell) —
//! resolve **first-record-wins**: the payload checkpointed first is the one
//! every later resume replays, so a merged result can never silently change
//! identity across resumes.

use super::plan::CellId;
use mptcp_energy::HybridCounters;
use obs::record::{self, LineWriter, Record};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// The journal format version written in `run` headers.
pub const JOURNAL_VERSION: u64 = 2;

/// One token of an encoded payload: the record dialect's array word.
pub use obs::record::Word as JournalValue;

/// Sequential reader over a decoded payload.
#[derive(Debug)]
pub struct ValueReader<'a> {
    vals: &'a [JournalValue],
    pos: usize,
}

impl<'a> ValueReader<'a> {
    /// Wraps a payload slice.
    pub fn new(vals: &'a [JournalValue]) -> ValueReader<'a> {
        ValueReader { vals, pos: 0 }
    }

    /// Takes the next word.
    pub fn u64(&mut self) -> Result<u64, String> {
        match self.vals.get(self.pos) {
            Some(JournalValue::U64(v)) => {
                self.pos += 1;
                Ok(*v)
            }
            Some(JournalValue::Str(s)) => {
                Err(format!("payload word {}: expected number, found {s:?}", self.pos))
            }
            None => Err(format!("payload truncated at word {}", self.pos)),
        }
    }

    /// Takes the next string.
    pub fn str(&mut self) -> Result<String, String> {
        match self.vals.get(self.pos) {
            Some(JournalValue::Str(s)) => {
                self.pos += 1;
                Ok(s.clone())
            }
            Some(JournalValue::U64(v)) => {
                Err(format!("payload word {}: expected string, found {v}", self.pos))
            }
            None => Err(format!("payload truncated at word {}", self.pos)),
        }
    }

    /// True when every value has been consumed — decoders check this so a
    /// payload with trailing garbage is rejected, not silently accepted.
    pub fn exhausted(&self) -> bool {
        self.pos == self.vals.len()
    }
}

/// Exact, bit-faithful encode/decode of a cell output through the journal's
/// value stream. The round-trip law every implementation must obey (and the
/// resume guarantee rests on): `decode(encode(x)) == x`, bit-for-bit.
pub trait JournalCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<JournalValue>);
    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// On type/arity mismatch — the journal was written by different code
    /// or corrupted.
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String>;
}

impl JournalCodec for u64 {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        out.push(JournalValue::U64(*self));
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        r.u64()
    }
}

impl JournalCodec for u32 {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        out.push(JournalValue::U64(u64::from(*self)));
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        u32::try_from(r.u64()?).map_err(|e| format!("u32 out of range: {e}"))
    }
}

impl JournalCodec for usize {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        out.push(JournalValue::U64(*self as u64));
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        usize::try_from(r.u64()?).map_err(|e| format!("usize out of range: {e}"))
    }
}

impl JournalCodec for bool {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        out.push(JournalValue::U64(u64::from(*self)));
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        match r.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bool flag out of range: {other}")),
        }
    }
}

impl JournalCodec for f64 {
    /// Bit pattern, not decimal text: one lost ulp would break the
    /// byte-identical resume guarantee.
    fn encode(&self, out: &mut Vec<JournalValue>) {
        out.push(JournalValue::U64(self.to_bits()));
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl JournalCodec for String {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        out.push(JournalValue::Str(self.clone()));
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        r.str()
    }
}

impl<T: JournalCodec> JournalCodec for Option<T> {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        match self {
            None => out.push(JournalValue::U64(0)),
            Some(v) => {
                out.push(JournalValue::U64(1));
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        match r.u64()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(format!("Option flag out of range: {other}")),
        }
    }
}

impl<T: JournalCodec> JournalCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        out.push(JournalValue::U64(self.len() as u64));
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        let n = usize::try_from(r.u64()?).map_err(|e| format!("Vec length out of range: {e}"))?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: JournalCodec, B: JournalCodec> JournalCodec for (A, B) {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: JournalCodec, B: JournalCodec, C: JournalCodec> JournalCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: JournalCodec, B: JournalCodec, C: JournalCodec, D: JournalCodec> JournalCodec
    for (A, B, C, D)
{
    fn encode(&self, out: &mut Vec<JournalValue>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

impl JournalCodec for HybridCounters {
    fn encode(&self, out: &mut Vec<JournalValue>) {
        let HybridCounters {
            epochs,
            fluid_flows,
            packet_flows,
            handoffs,
            fluid_steps,
            price_cap_hits,
            background_links,
        } = self;
        for v in [
            epochs,
            fluid_flows,
            packet_flows,
            handoffs,
            fluid_steps,
            price_cap_hits,
            background_links,
        ] {
            v.encode(out);
        }
    }
    fn decode(r: &mut ValueReader<'_>) -> Result<Self, String> {
        Ok(HybridCounters {
            epochs: r.u64()?,
            fluid_flows: r.u64()?,
            packet_flows: r.u64()?,
            handoffs: r.u64()?,
            fluid_steps: r.u64()?,
            price_cap_hits: r.u64()?,
            background_links: r.u64()?,
        })
    }
}

/// Encodes a value to a standalone payload vector.
pub fn encode_payload<T: JournalCodec>(value: &T) -> Vec<JournalValue> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a full payload, rejecting trailing garbage.
///
/// # Errors
///
/// On any type/arity mismatch or leftover values.
pub fn decode_payload<T: JournalCodec>(vals: &[JournalValue]) -> Result<T, String> {
    let mut r = ValueReader::new(vals);
    let v = T::decode(&mut r)?;
    if !r.exhausted() {
        return Err("payload has trailing values".to_owned());
    }
    Ok(v)
}

/// A replayed `done` line: the cell's identity plus its still-encoded
/// payload (decoded against the concrete output type by the fabric core).
#[derive(Clone, Debug, PartialEq)]
pub struct DoneLine {
    /// The cell's content-addressed id.
    pub id: CellId,
    /// Label recorded at completion (informational).
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
    /// How many attempts the cell took.
    pub attempts: u32,
    /// The encoded output.
    pub payload: Vec<JournalValue>,
}

/// A replayed `quarantined` line. Quarantined cells are **re-run** on
/// resume — the journal remembers the failure for the report, but a fresh
/// process gets a fresh chance (the crash being resumed from may well have
/// been the quarantined cell's fault).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineLine {
    /// The cell's content-addressed id.
    pub id: CellId,
    /// Label recorded at quarantine.
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// `"panic"` or `"deadline"`.
    pub cause: String,
    /// The captured failure message.
    pub message: String,
}

/// A parsed journal: every `done` line keyed by cell id, plus history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalReplay {
    /// Grid digest from the `run` headers (`None` for an empty journal).
    pub grid: Option<u64>,
    /// Completed cells keyed by id (deterministic iteration: `BTreeMap`).
    pub done: BTreeMap<CellId, DoneLine>,
    /// Quarantine records, in journal order.
    pub quarantined: Vec<QuarantineLine>,
    /// A torn final line a kill interrupted, if one was found (tolerated;
    /// the affected cell simply re-runs).
    pub torn_tail: Option<String>,
}

/// One framed line: the record `fields` builds, then the newline.
pub(crate) fn framed(fields: impl FnOnce(LineWriter<'_>) -> LineWriter<'_>) -> String {
    let mut line = String::new();
    fields(record::line(&mut line)).end();
    line.push('\n');
    line
}

/// The identity prefix every per-cell line shares, journal (`"fabric"`) or
/// spool (`"dist"`): `{"<family>":"<kind>","id":…,"label":…,"seed":…`.
pub(crate) fn cell_fields<'a>(
    w: LineWriter<'a>,
    family: &str,
    kind: &str,
    id: CellId,
    label: &str,
    seed: u64,
) -> LineWriter<'a> {
    w.str(family, kind).hex("id", id.as_u64()).str("label", label).u64("seed", seed)
}

/// The fields of a journal `done` line.
pub(crate) fn done_fields<'a>(
    w: LineWriter<'a>,
    id: CellId,
    label: &str,
    seed: u64,
    attempts: u32,
    payload: &[JournalValue],
) -> LineWriter<'a> {
    cell_fields(w, "fabric", "done", id, label, seed)
        .u64("attempts", u64::from(attempts))
        .words("payload", payload)
}

pub(crate) fn read_id(rec: &Record<'_>) -> Result<CellId, String> {
    CellId::parse(rec.str("id")?)
}

/// Reads the fields both families' `done` lines share (the caller has
/// already matched the family tag).
pub(crate) fn read_done(rec: &mut Record<'_>) -> Result<DoneLine, String> {
    Ok(DoneLine {
        id: read_id(rec)?,
        label: rec.str("label")?.to_owned(),
        seed: rec.uint("seed")?,
        attempts: rec.uint("attempts")?,
        payload: rec.take_words("payload")?,
    })
}

fn parse_line(replay: &mut JournalReplay, line: &str) -> Result<(), String> {
    let mut rec = record::read(line)?;
    match rec.str("fabric")? {
        "run" => {
            let version: u64 = rec.uint("version")?;
            if version != JOURNAL_VERSION {
                return Err(format!(
                    "journal version {version} (this build reads {JOURNAL_VERSION})"
                ));
            }
            let grid = rec.hex("grid")?;
            if let Some(prior) = replay.grid {
                if prior != grid {
                    return Err(format!(
                        "journal mixes grids {prior:016x} and {grid:016x}; it was written for a different sweep"
                    ));
                }
            }
            replay.grid = Some(grid);
        }
        "done" => {
            let entry = read_done(&mut rec)?;
            // First record wins, pinned by test. A cell can be journaled
            // twice once multiple writers exist (a supervisor harvesting a
            // crashed worker's partial response while its re-dispatch also
            // completes the cell, or two crashed runs that both finished
            // it). For a deterministic cell both payloads are identical and
            // the choice is moot; for a *non*-deterministic cell,
            // first-record-wins means the payload that later readers see is
            // the one that was checkpointed first — resuming can never
            // silently swap an already-merged result for a different one.
            replay.done.entry(entry.id).or_insert(entry);
        }
        "quarantined" => {
            replay.quarantined.push(QuarantineLine {
                id: read_id(&rec)?,
                label: rec.str("label")?.to_owned(),
                seed: rec.uint("seed")?,
                attempts: rec.uint("attempts")?,
                cause: rec.str("cause")?.to_owned(),
                message: rec.str("message")?.to_owned(),
            });
        }
        other => return Err(format!("unknown journal line kind {other:?}")),
    }
    Ok(())
}

/// Parses a journal's full text.
///
/// # Errors
///
/// On mid-file corruption, version/grid mismatch, or malformed lines. The
/// **final** line is exempt: a process killed mid-append leaves a torn tail,
/// which is recorded in [`JournalReplay::torn_tail`] and otherwise ignored.
pub fn parse_journal(text: &str) -> Result<JournalReplay, String> {
    let mut replay = JournalReplay::default();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = parse_line(&mut replay, line) {
            let is_last = i + 1 == lines.len();
            if is_last {
                replay.torn_tail = Some((*line).to_owned());
            } else {
                return Err(format!("journal line {}: {e}", i + 1));
            }
        }
    }
    Ok(replay)
}

/// Reads and parses the journal at `path`; a missing file is an empty
/// journal (first run).
///
/// # Errors
///
/// On unreadable files or mid-file corruption (see [`parse_journal`]).
pub fn load_journal(path: &Path) -> Result<JournalReplay, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_journal(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(JournalReplay::default()),
        Err(e) => Err(format!("cannot read journal {}: {e}", path.display())),
    }
}

/// The append side: opens the journal for appending and writes one flushed
/// line per event. Shared across workers behind a `Mutex` by the fabric
/// core.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Opens (creating if needed) the journal at `path` in append mode and
    /// writes a `run` header for this grid.
    ///
    /// A torn tail left by a kill mid-write (a final line with no trailing
    /// newline) is truncated away first: the loader tolerates a torn line
    /// only at the very end of the file, so appending after one would turn
    /// it into mid-file corruption and poison every later resume. The torn
    /// line is by definition an incomplete checkpoint — dropping it just
    /// re-runs that one cell.
    ///
    /// # Errors
    ///
    /// On filesystem errors.
    pub fn append_to(path: &Path, grid: u64, cells: usize) -> Result<JournalWriter, String> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create journal dir {}: {e}", parent.display()))?;
        }
        match std::fs::read(path) {
            Ok(bytes) if !bytes.is_empty() && !bytes.ends_with(b"\n") => {
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
                f.set_len(keep as u64)
                    .map_err(|e| format!("cannot trim torn journal tail: {e}"))?;
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut w = JournalWriter { file };
        w.append(|w| {
            w.str("fabric", "run")
                .u64("version", JOURNAL_VERSION)
                .hex("grid", grid)
                .u64("cells", cells as u64)
        })?;
        Ok(w)
    }

    fn append(
        &mut self,
        fields: impl FnOnce(LineWriter<'_>) -> LineWriter<'_>,
    ) -> Result<(), String> {
        // One write_all + flush per line: after a kill, the journal holds
        // whole lines plus at most one torn tail.
        self.file
            .write_all(framed(fields).as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("journal write failed: {e}"))
    }

    /// Appends a `done` checkpoint for a completed cell.
    ///
    /// # Errors
    ///
    /// On filesystem errors.
    pub fn record_done(
        &mut self,
        id: CellId,
        label: &str,
        seed: u64,
        attempts: u32,
        payload: &[JournalValue],
    ) -> Result<(), String> {
        self.append(|w| done_fields(w, id, label, seed, attempts, payload))
    }

    /// Appends a `quarantined` record for an exhausted cell.
    ///
    /// # Errors
    ///
    /// On filesystem errors.
    pub fn record_quarantine(
        &mut self,
        id: CellId,
        label: &str,
        seed: u64,
        attempts: u32,
        cause: &str,
        message: &str,
    ) -> Result<(), String> {
        self.append(|w| {
            cell_fields(w, "fabric", "quarantined", id, label, seed)
                .u64("attempts", u64::from(attempts))
                .str("cause", cause)
                .str("message", message)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::plan::Fingerprint;

    fn roundtrip<T: JournalCodec + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode_payload(&v);
        let dec: T = decode_payload(&enc).expect("decode");
        assert_eq!(dec, v);
    }

    #[test]
    fn codec_roundtrips_primitives_bit_exactly() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(42u32);
        roundtrip(7usize);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("label \"quoted\"\nnewline"));
        roundtrip(String::new());
        for f in [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 0.1] {
            let enc = encode_payload(&f);
            let dec: f64 = decode_payload(&enc).expect("decode");
            assert_eq!(dec.to_bits(), f.to_bits(), "{f} lost bits");
        }
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip((1u64, 2.5f64, String::from("x")));
        roundtrip((1u64, 2u64, 3u64, 4u64));
    }

    /// The on-disk word order of the one counter struct the journal still
    /// carries (inside `hybrid_scale`'s output), pinned against a literal:
    /// each field holds its position in the struct's declaration.
    #[test]
    fn counter_word_order_is_pinned() {
        let hybrid = HybridCounters {
            epochs: 501,
            fluid_flows: 502,
            packet_flows: 503,
            handoffs: 504,
            fluid_steps: 505,
            price_cap_hits: 506,
            background_links: 507,
        };
        let literal = [501, 502, 503, 504, 505, 506, 507].map(JournalValue::U64).to_vec();
        assert_eq!(encode_payload(&hybrid), literal, "encoded word order moved");
        assert_eq!(decode_payload::<HybridCounters>(&literal).expect("decode"), hybrid);
    }

    #[test]
    fn codec_roundtrips_hybrid_counters() {
        roundtrip(HybridCounters {
            epochs: 12,
            fluid_flows: 100_000,
            packet_flows: 512,
            handoffs: 37,
            fluid_steps: 15_000,
            price_cap_hits: 4,
            background_links: 49_152,
        });
        roundtrip(HybridCounters::default());
    }

    #[test]
    fn codec_rejects_mismatch_and_trailing_garbage() {
        let enc = encode_payload(&(1u64, 2u64));
        assert!(decode_payload::<u64>(&enc).is_err(), "trailing garbage accepted");
        assert!(decode_payload::<(u64, u64, u64)>(&enc).is_err(), "truncation accepted");
        assert!(decode_payload::<String>(&encode_payload(&1u64)).is_err(), "type confusion");
        assert!(decode_payload::<bool>(&encode_payload(&9u64)).is_err(), "bad bool");
    }

    fn id(n: u64) -> CellId {
        CellId::derive("c", n, Fingerprint::new())
    }

    #[test]
    fn journal_roundtrips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("fabric-journal-test-{}", std::process::id()));
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);
        let payload = encode_payload(&(1.5f64, String::from("a\"b"), 7u64));
        {
            let mut w = JournalWriter::append_to(&path, 0xabcd, 3).expect("open");
            w.record_done(id(0), "cell \"zero\"", 0, 1, &payload).expect("done");
            w.record_quarantine(id(1), "cell-one", 1, 3, "panic", "boom\nline2").expect("q");
        }
        // A second run appends another header for the same grid.
        {
            let mut w = JournalWriter::append_to(&path, 0xabcd, 3).expect("reopen");
            w.record_done(id(2), "cell-two", 2, 2, &encode_payload(&0u64)).expect("done");
        }
        let replay = load_journal(&path).expect("parse");
        assert_eq!(replay.grid, Some(0xabcd));
        assert_eq!(replay.done.len(), 2);
        assert_eq!(replay.done[&id(0)].label, "cell \"zero\"");
        assert_eq!(replay.done[&id(0)].payload, payload);
        let q = &replay.quarantined[0];
        assert_eq!((q.cause.as_str(), q.attempts), ("panic", 3));
        assert_eq!(q.message, "boom\nline2");
        assert!(replay.torn_tail.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_tolerated_mid_file_corruption_is_not() {
        let mut good = String::new();
        good.push_str(
            "{\"fabric\":\"run\",\"version\":2,\"grid\":\"00000000000000ff\",\"cells\":2}\n",
        );
        good.push_str(&format!(
            "{{\"fabric\":\"done\",\"id\":\"{}\",\"label\":\"a\",\"seed\":0,\"attempts\":1,\"payload\":[1]}}\n",
            id(0)
        ));
        // Torn tail: the kill landed mid-append.
        let torn = format!("{good}{{\"fabric\":\"done\",\"id\":\"3333");
        let replay = parse_journal(&torn).expect("torn tail must parse");
        assert_eq!(replay.done.len(), 1);
        assert!(replay.torn_tail.is_some());
        // The same garbage mid-file is corruption.
        let corrupt = format!("{good}{{\"fabric\":\"done\",\"id\":\"3333\nmore\n");
        let err = parse_journal(&corrupt).unwrap_err();
        assert!(err.contains("journal line"), "{err}");
    }

    #[test]
    fn reopening_a_torn_journal_trims_the_tail_before_appending() {
        // A resume that appends after a torn tail would glue its run header
        // onto the torn line, turning a tolerated final-line tear into
        // mid-file corruption for every later resume. append_to must trim
        // the tear first.
        let dir = std::env::temp_dir().join(format!("fabric-torn-trim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("j.jsonl");
        let mut torn = String::new();
        torn.push_str(
            "{\"fabric\":\"run\",\"version\":2,\"grid\":\"00000000000000ff\",\"cells\":2}\n",
        );
        torn.push_str(&format!(
            "{{\"fabric\":\"done\",\"id\":\"{}\",\"label\":\"a\",\"seed\":0,\"attempts\":1,\"payload\":[1]}}\n",
            id(0)
        ));
        torn.push_str("{\"fabric\":\"done\",\"id\":\"3333"); // the kill landed here
        std::fs::write(&path, &torn).expect("write");
        {
            let mut w = JournalWriter::append_to(&path, 0xff, 2).expect("reopen");
            w.record_done(id(1), "b", 1, 1, &encode_payload(&2u64)).expect("done");
        }
        let replay = load_journal(&path).expect("a resumed journal must stay parseable");
        assert_eq!(replay.done.len(), 2, "trimmed tear must not cost completed cells");
        assert!(replay.torn_tail.is_none(), "the tear itself is gone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_done_records_resolve_first_record_wins() {
        // Two writers can both journal the same cell (a harvested partial
        // response racing its re-dispatch). The first checkpoint is the one
        // a resume must replay — pinned here so the policy is specified,
        // not incidental.
        let mut text = String::from(
            "{\"fabric\":\"run\",\"version\":2,\"grid\":\"00000000000000ff\",\"cells\":1}\n",
        );
        text.push_str(&format!(
            "{{\"fabric\":\"done\",\"id\":\"{}\",\"label\":\"first\",\"seed\":0,\"attempts\":1,\"payload\":[11]}}\n",
            id(0)
        ));
        text.push_str(&format!(
            "{{\"fabric\":\"done\",\"id\":\"{}\",\"label\":\"second\",\"seed\":0,\"attempts\":2,\"payload\":[22]}}\n",
            id(0)
        ));
        let replay = parse_journal(&text).expect("duplicates are not corruption");
        assert_eq!(replay.done.len(), 1);
        let entry = &replay.done[&id(0)];
        assert_eq!(entry.label, "first", "first record must win");
        assert_eq!(entry.attempts, 1);
        assert_eq!(entry.payload, vec![JournalValue::U64(11)]);
    }

    #[test]
    fn journal_refuses_grid_and_version_mismatches() {
        let a = "{\"fabric\":\"run\",\"version\":2,\"grid\":\"0000000000000001\",\"cells\":1}\n";
        let b = "{\"fabric\":\"run\",\"version\":2,\"grid\":\"0000000000000002\",\"cells\":1}\ntrailer-guard\n";
        let err = parse_journal(&format!("{a}{b}")).unwrap_err();
        assert!(err.contains("mixes grids"), "{err}");
        // Any other version is refused — the previous format's included.
        for v in [9, 1] {
            let header = a.replacen("\"version\":2", &format!("\"version\":{v}"), 1);
            let err = parse_journal(&format!("{header}trailer-guard\n")).unwrap_err();
            assert!(err.contains(&format!("journal version {v} (this build reads 2)")), "{err}");
        }
        // Missing file = empty journal, not an error.
        let empty =
            load_journal(Path::new("/nonexistent/fabric/journal.jsonl")).expect("missing file");
        assert_eq!(empty, JournalReplay::default());
    }

    #[test]
    fn payload_strings_survive_commas_brackets_and_escapes() {
        let payload = encode_payload(&vec![
            String::from("a,b"),
            String::from("c]d"),
            String::from("e\"f\\g"),
        ]);
        let one = CellId::parse("0000000000000001").expect("id");
        let line = framed(|w| done_fields(w, one, "x", 0, 1, &payload));
        assert_eq!(
            line,
            "{\"fabric\":\"done\",\"id\":\"0000000000000001\",\"label\":\"x\",\"seed\":0,\"attempts\":1,\"payload\":[3,\"a,b\",\"c]d\",\"e\\\"f\\\\g\"]}\n"
        );
        let parsed =
            read_done(&mut record::read(line.trim_end()).expect("read")).expect("done").payload;
        assert_eq!(parsed, payload);
        let decoded: Vec<String> = decode_payload(&parsed).expect("decode");
        assert_eq!(decoded, vec!["a,b", "c]d", "e\"f\\g"]);
    }

    /// Whole or rejected: a kill can cut a line anywhere, and every cut must
    /// read as torn — never as a shorter, valid-looking record.
    #[test]
    fn every_proper_prefix_of_a_done_line_is_torn_at_the_tail_and_corrupt_mid_file() {
        let head = "{\"fabric\":\"run\",\"version\":2,\"grid\":\"00000000000000ff\",\"cells\":2}\n";
        let payload = encode_payload(&(1.5f64, String::from("s")));
        let done = framed(|w| done_fields(w, id(0), "a \"q\" 𝕏", 7, 1, &payload));
        let done = done.trim_end();
        for cut in (1..done.len()).filter(|&i| done.is_char_boundary(i)) {
            let torn = &done[..cut];
            let replay = parse_journal(&format!("{head}{torn}")).expect("a torn tail is tolerated");
            assert_eq!(replay.torn_tail.as_deref(), Some(torn), "cut at {cut}");
            assert!(replay.done.is_empty(), "cut at {cut} replayed a cell: {torn}");
            let err = parse_journal(&format!("{head}{torn}\n{done}\n")).unwrap_err();
            assert!(err.contains("journal line 2"), "cut at {cut}: {err}");
        }
        let whole = parse_journal(&format!("{head}{done}")).expect("whole");
        assert!(whole.torn_tail.is_none() && whole.done.len() == 1);
    }
}
