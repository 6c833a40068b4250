//! The distributed fabric's wire contract: versioned JSONL files exchanged
//! through a spool directory.
//!
//! The supervisor and its workers share no memory and no sockets — only a
//! directory. Every artefact is a flat JSONL file in the journal's dialect
//! ([`obs::record`]: floats as IEEE-754 bit patterns, a line read whole or
//! rejected), so the same parsing discipline — and the same torn-tail
//! tolerance — applies end to end:
//!
//! ```text
//! spool/
//!   manifest.jsonl              supervisor: grid digest, cell/shard counts
//!   requests/shard-K.gG.jsonl   work order: header + one line per cell
//!   heartbeats/WORKER.jsonl     appended by the worker's heartbeat thread
//!   responses/shard-K.gG.jsonl  streamed results: header, done/failed, end
//!   events.jsonl                supervisor audit log (dist::DistEvent)
//! ```
//!
//! **Versioning and echo.** Every request and response header carries
//! [`PROTOCOL_VERSION`] and the grid digest. A worker refuses a request
//! whose version it does not speak; a supervisor rejects a response whose
//! version ([`ResponseFault::Stale`]) or grid/shard/generation echo
//! ([`ResponseFault::Invalid`]) does not match what it dispatched. The echo
//! is what makes re-dispatch safe: a revoked generation's late response can
//! never be confused with the replacement's.
//!
//! **Streaming and truncation.** Workers append one flushed line per
//! finished cell and an `end` footer with the final counts. A response
//! without a matching footer is a *partial* response: the parsed prefix is
//! still trustworthy (each line was flushed whole) and the supervisor
//! harvests it, so a worker crash wastes at most the cell in flight —
//! the spool-level analogue of the journal's torn-tail rule.
//!
//! Line formats:
//!
//! ```text
//! {"dist":"manifest","version":3,"grid":"<16 hex>","cells":N,"shards":K,"suite":"..."}
//! {"dist":"request","version":3,"grid":"<16 hex>","shard":K,"gen":G,"suite":"...",
//!  "cells":N,"deadline_ms":D,"max_attempts":A,"backoff_ms":B,"max_backoff_ms":C,
//!  "heartbeat_ms":H}
//! {"dist":"cell","id":"<16 hex>","index":I,"label":"...","seed":S}
//! {"dist":"heartbeat","worker":"...","shard":K,"gen":G,"seq":N}
//! {"dist":"response","version":3,"grid":"<16 hex>","shard":K,"gen":G,"worker":"..."}
//! {"dist":"done","id":"<16 hex>","label":"...","seed":S,"attempts":A,"panics":P,
//!  "deadline_kills":D,"payload":[...]}
//! {"dist":"failed","id":"<16 hex>","label":"...","seed":S,"attempts":A,"panics":P,
//!  "deadline_kills":D,"cause":"panic"|"deadline","message":"..."}
//! {"dist":"end","done":D,"failed":F}
//! ```
//!
//! Both per-cell lines carry the worker's whole [`AttemptStats`], so a cell
//! that panicked once and then succeeded is counted the same supervised or
//! in-process. (Version 1 sent `attempts` alone on `done` and appended a
//! counter snapshot to every payload; version 2 had a worker-written claim
//! line for workers the supervisor did not spawn. Either peer is refused at
//! the header.)

use crate::fabric::journal::{cell_fields, framed, read_done, read_id, DoneLine, JournalValue};
use crate::fabric::plan::CellId;
use crate::fabric::retry::{AttemptStats, FailCause};
use obs::record::{self, LineWriter, Record};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The wire protocol version; bumped on any incompatible change to the
/// line formats above. Echoed in every request and response header.
pub const PROTOCOL_VERSION: u64 = 3;

/// Path of the request file for `(shard, gen)`.
pub fn request_path(spool: &Path, shard: usize, gen: u64) -> PathBuf {
    spool.join("requests").join(format!("shard-{shard}.g{gen}.jsonl"))
}

/// Path of the response file for `(shard, gen)`.
pub fn response_path(spool: &Path, shard: usize, gen: u64) -> PathBuf {
    spool.join("responses").join(format!("shard-{shard}.g{gen}.jsonl"))
}

/// Path of `worker`'s heartbeat file.
pub fn heartbeat_path(spool: &Path, worker: &str) -> PathBuf {
    spool.join("heartbeats").join(format!("{worker}.jsonl"))
}

/// Path of the supervisor's manifest.
pub fn manifest_path(spool: &Path) -> PathBuf {
    spool.join("manifest.jsonl")
}

/// Path of the supervisor's audit event log.
pub fn events_path(spool: &Path) -> PathBuf {
    spool.join("events.jsonl")
}

/// Creates the spool directory tree and writes the manifest.
///
/// # Errors
///
/// On filesystem failures.
pub fn init_spool(
    spool: &Path,
    grid: u64,
    cells: usize,
    shards: usize,
    suite: &str,
) -> Result<(), String> {
    for sub in ["requests", "heartbeats", "responses"] {
        std::fs::create_dir_all(spool.join(sub))
            .map_err(|e| format!("cannot create spool dir {}/{sub}: {e}", spool.display()))?;
    }
    let line = framed(|w| {
        w.str("dist", "manifest")
            .u64("version", PROTOCOL_VERSION)
            .hex("grid", grid)
            .u64("cells", cells as u64)
            .u64("shards", shards as u64)
            .str("suite", suite)
    });
    std::fs::write(manifest_path(spool), line)
        .map_err(|e| format!("cannot write spool manifest: {e}"))
}

/// A work order's header: everything a worker needs to execute the shard
/// with the *same* containment policy the single-process fabric would use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestHeader {
    /// Protocol version of the writer.
    pub version: u64,
    /// Grid digest; the worker echoes it so the supervisor can reject
    /// responses from a different grid.
    pub grid: u64,
    /// Shard index.
    pub shard: usize,
    /// Dispatch generation.
    pub gen: u64,
    /// The run's name, for messages.
    pub suite: String,
    /// Number of cell lines that follow.
    pub cells: usize,
    /// Per-attempt wall-clock deadline in ms; 0 = none.
    pub deadline_ms: u64,
    /// Max attempts per cell (the single-process retry policy, mirrored).
    pub max_attempts: u32,
    /// Base backoff in ms.
    pub backoff_ms: u64,
    /// Backoff ceiling in ms.
    pub max_backoff_ms: u64,
    /// Interval the worker's heartbeat thread should append at, in ms.
    pub heartbeat_ms: u64,
}

/// One cell of a work order: identity only — the worker reconstructs the
/// runnable closure itself and matches it by [`CellId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestCell {
    /// Content-addressed identity (must match the worker's own derivation).
    pub id: CellId,
    /// Input position in the supervisor's grid.
    pub index: usize,
    /// Display label.
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
}

/// Writes the request file for a shard dispatch, atomically (temp file +
/// rename) so a worker never observes a half-written order.
///
/// # Errors
///
/// On filesystem failures.
pub fn write_request(
    spool: &Path,
    header: &RequestHeader,
    cells: &[RequestCell],
) -> Result<PathBuf, String> {
    let mut text = String::new();
    record::line(&mut text)
        .str("dist", "request")
        .u64("version", header.version)
        .hex("grid", header.grid)
        .u64("shard", header.shard as u64)
        .u64("gen", header.gen)
        .str("suite", &header.suite)
        .u64("cells", cells.len() as u64)
        .u64("deadline_ms", header.deadline_ms)
        .u64("max_attempts", u64::from(header.max_attempts))
        .u64("backoff_ms", header.backoff_ms)
        .u64("max_backoff_ms", header.max_backoff_ms)
        .u64("heartbeat_ms", header.heartbeat_ms)
        .end();
    text.push('\n');
    for c in cells {
        record::line(&mut text)
            .str("dist", "cell")
            .hex("id", c.id.as_u64())
            .u64("index", c.index as u64)
            .str("label", &c.label)
            .u64("seed", c.seed)
            .end();
        text.push('\n');
    }
    let path = request_path(spool, header.shard, header.gen);
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, text)
        .map_err(|e| format!("cannot write request {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| format!("cannot publish request {}: {e}", path.display()))?;
    Ok(path)
}

/// Parses a request file.
///
/// # Errors
///
/// On malformed headers/cell lines, an unsupported protocol version, or a
/// cell count that does not match the header (a torn request must never be
/// half-served — requests are published by atomic rename, so this is
/// corruption, not streaming).
pub fn read_request(path: &Path) -> Result<(RequestHeader, Vec<RequestCell>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read request {}: {e}", path.display()))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let head = lines.next().ok_or_else(|| format!("request {} is empty", path.display()))?;
    let head = record::read(head)?;
    if head.str("dist")? != "request" {
        return Err(format!("request {} does not start with a request header", path.display()));
    }
    let header = RequestHeader {
        version: head.uint("version")?,
        grid: head.hex("grid")?,
        shard: head.uint("shard")?,
        gen: head.uint("gen")?,
        suite: head.str("suite")?.to_owned(),
        cells: head.uint("cells")?,
        deadline_ms: head.uint("deadline_ms")?,
        max_attempts: head.uint("max_attempts")?,
        backoff_ms: head.uint("backoff_ms")?,
        max_backoff_ms: head.uint("max_backoff_ms")?,
        heartbeat_ms: head.uint("heartbeat_ms")?,
    };
    if header.version != PROTOCOL_VERSION {
        return Err(format!(
            "request {} speaks protocol v{}, this worker speaks v{PROTOCOL_VERSION}; \
             supervisor and worker binaries are out of step",
            path.display(),
            header.version
        ));
    }
    let mut cells = Vec::with_capacity(header.cells.min(1 << 16));
    for line in lines {
        let rec = record::read(line)?;
        if rec.str("dist")? != "cell" {
            return Err(format!("request {}: unexpected line {line:?}", path.display()));
        }
        cells.push(RequestCell {
            id: read_id(&rec)?,
            index: rec.uint("index")?,
            label: rec.str("label")?.to_owned(),
            seed: rec.uint("seed")?,
        });
    }
    if cells.len() != header.cells {
        return Err(format!(
            "request {} header promises {} cell(s), found {}",
            path.display(),
            header.cells,
            cells.len()
        ));
    }
    Ok((header, cells))
}

/// The worker side of a response file: header first, then one flushed line
/// per finished cell, then the `end` footer. Flushing per line is what
/// makes the supervisor's partial-harvest sound.
#[derive(Debug)]
pub struct ResponseWriter {
    file: File,
    done: usize,
    failed: usize,
}

impl ResponseWriter {
    /// Creates (truncating) the response file for `(shard, gen)` and writes
    /// the echo header.
    ///
    /// # Errors
    ///
    /// On filesystem failures.
    pub fn create(
        spool: &Path,
        shard: usize,
        gen: u64,
        grid: u64,
        worker: &str,
        version: u64,
    ) -> Result<ResponseWriter, String> {
        let path = response_path(spool, shard, gen);
        let mut file = File::create(&path)
            .map_err(|e| format!("cannot create response {}: {e}", path.display()))?;
        let head = framed(|w| {
            w.str("dist", "response")
                .u64("version", version)
                .hex("grid", grid)
                .u64("shard", shard as u64)
                .u64("gen", gen)
                .str("worker", worker)
        });
        file.write_all(head.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write response header: {e}"))?;
        Ok(ResponseWriter { file, done: 0, failed: 0 })
    }

    /// Raw line append — used by the chaos drill to plant interior garbage.
    pub(crate) fn append(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append response line: {e}"))
    }

    /// Streams one completed cell.
    ///
    /// # Errors
    ///
    /// On filesystem failures.
    pub fn record_done(
        &mut self,
        id: CellId,
        label: &str,
        seed: u64,
        stats: AttemptStats,
        payload: &[JournalValue],
    ) -> Result<(), String> {
        self.append(&framed(|w| {
            stats_fields(cell_fields(w, "dist", "done", id, label, seed), stats)
                .words("payload", payload)
        }))?;
        self.done += 1;
        Ok(())
    }

    /// Streams one exhausted (quarantine-bound) cell.
    ///
    /// # Errors
    ///
    /// On filesystem failures.
    pub fn record_failed(
        &mut self,
        id: CellId,
        label: &str,
        seed: u64,
        stats: AttemptStats,
        cause: FailCause,
        message: &str,
    ) -> Result<(), String> {
        self.append(&framed(|w| {
            stats_fields(cell_fields(w, "dist", "failed", id, label, seed), stats)
                .str("cause", cause.as_str())
                .str("message", message)
        }))?;
        self.failed += 1;
        Ok(())
    }

    /// Writes the `end` footer with the final counts. A response without
    /// this footer is partial by definition.
    ///
    /// # Errors
    ///
    /// On filesystem failures.
    pub fn finish(mut self) -> Result<(), String> {
        let (done, failed) = (self.done as u64, self.failed as u64);
        self.append(&framed(|w| w.str("dist", "end").u64("done", done).u64("failed", failed)))
    }
}

/// The attempt accounting both per-cell response lines carry, so the
/// supervisor's `FabricCounters` match a single-process run exactly.
fn stats_fields(w: LineWriter<'_>, stats: AttemptStats) -> LineWriter<'_> {
    w.u64("attempts", u64::from(stats.attempts))
        .u64("panics", u64::from(stats.panics))
        .u64("deadline_kills", u64::from(stats.deadline_kills))
}

fn read_stats(rec: &Record<'_>) -> Result<AttemptStats, String> {
    Ok(AttemptStats {
        attempts: rec.uint("attempts")?,
        panics: rec.uint("panics")?,
        deadline_kills: rec.uint("deadline_kills")?,
    })
}

/// One streamed `failed` line: a cell the worker exhausted its per-cell
/// retry policy on (the distributed analogue of a quarantine record).
#[derive(Clone, Debug, PartialEq)]
pub struct FailedLine {
    /// The cell's content-addressed id.
    pub id: CellId,
    /// Display label.
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
    /// Attempts consumed on the worker, by how each ended.
    pub stats: AttemptStats,
    /// Why the last attempt failed: a panic or the deadline, the two causes
    /// a worker can report.
    pub cause: FailCause,
    /// The last failure message.
    pub message: String,
}

/// What the supervisor expected the response to echo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseExpect {
    /// The dispatched grid digest.
    pub grid: u64,
    /// The dispatched shard.
    pub shard: usize,
    /// The dispatched generation.
    pub gen: u64,
}

/// Why a response was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseFault {
    /// The worker speaks a different protocol version — supervisor and
    /// worker binaries are out of step. Nothing in the file can be trusted.
    Stale(String),
    /// The response is corrupt, truncated mid-line in the interior, echoes
    /// the wrong grid/shard/generation, or its footer counts disagree with
    /// its lines.
    Invalid(String),
}

impl ResponseFault {
    /// The stable tag used in events.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResponseFault::Stale(_) => "stale_protocol",
            ResponseFault::Invalid(_) => "invalid_response",
        }
    }

    /// The human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            ResponseFault::Stale(d) | ResponseFault::Invalid(d) => d,
        }
    }
}

/// The supervisor's view of a (possibly still-growing) response file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParsedResponse {
    /// The worker id from the header, once the header exists.
    pub worker: Option<String>,
    /// Completed cells harvested from the valid prefix, each with the
    /// worker's attempt accounting.
    pub done: Vec<(DoneLine, AttemptStats)>,
    /// Exhausted cells from the valid prefix.
    pub failed: Vec<FailedLine>,
    /// True once the `end` footer is present with matching counts.
    pub complete: bool,
    /// A header/interior fault, if the response must be rejected.
    pub fault: Option<ResponseFault>,
}

/// Parses a response file's current contents against what the supervisor
/// dispatched. Never errors: a missing/empty file is simply "no response
/// yet", a torn *final* line is a worker mid-append (prefix harvested), and
/// header or interior damage is reported as a [`ResponseFault`] with the
/// valid prefix still available for harvesting (each earlier line was
/// flushed whole before the damage).
pub fn parse_response(text: &str, expect: &ResponseExpect) -> ParsedResponse {
    let mut out = ParsedResponse::default();
    let lines: Vec<&str> = text.lines().collect();
    let mut saw_header = false;
    let mut footer: Option<(u64, u64)> = None;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if footer.is_some() {
            out.fault = Some(ResponseFault::Invalid(format!("line {} after end footer", i + 1)));
            break;
        }
        let is_last = i + 1 == lines.len();
        let parsed: Result<(), LineIssue> = if saw_header {
            parse_body_line(line, &mut out, &mut footer)
        } else {
            saw_header = true;
            parse_header_line(line, expect, &mut out)
        };
        match parsed {
            Ok(()) => {}
            // Unparseable final line: the worker is (or was) mid-append —
            // streaming, not corruption. The harvested prefix stands.
            Err(LineIssue::Malformed(_)) if is_last => break,
            Err(LineIssue::Malformed(detail)) => {
                out.fault = Some(ResponseFault::Invalid(detail));
                break;
            }
            // A fully-parsed line that fails validation (version skew, echo
            // mismatch) poisons the file wherever it sits.
            Err(LineIssue::Reject(fault)) => {
                out.fault = Some(fault);
                break;
            }
        }
    }
    if let Some((d, f)) = footer {
        if d == out.done.len() as u64 && f == out.failed.len() as u64 {
            out.complete = true;
        } else if out.fault.is_none() {
            out.fault = Some(ResponseFault::Invalid(format!(
                "end footer promises done={d} failed={f}, file has done={} failed={}",
                out.done.len(),
                out.failed.len()
            )));
        }
    }
    out
}

/// How a single response line failed: unparseable (a torn tail if final,
/// corruption otherwise) vs parsed-but-rejected (always a fault).
enum LineIssue {
    Malformed(String),
    Reject(ResponseFault),
}

fn parse_header_line(
    line: &str,
    expect: &ResponseExpect,
    out: &mut ParsedResponse,
) -> Result<(), LineIssue> {
    let bad = |e: String| LineIssue::Malformed(format!("response header: {e}"));
    let rec = record::read(line).map_err(bad)?;
    if rec.str("dist").map_err(bad)? != "response" {
        return Err(LineIssue::Malformed("response does not start with a header".to_owned()));
    }
    let version: u64 = rec.uint("version").map_err(bad)?;
    if version != PROTOCOL_VERSION {
        return Err(LineIssue::Reject(ResponseFault::Stale(format!(
            "worker speaks protocol v{version}, supervisor speaks v{PROTOCOL_VERSION}"
        ))));
    }
    let grid = rec.hex("grid").map_err(bad)?;
    let shard: u64 = rec.uint("shard").map_err(bad)?;
    let gen: u64 = rec.uint("gen").map_err(bad)?;
    if grid != expect.grid || shard != expect.shard as u64 || gen != expect.gen {
        return Err(LineIssue::Reject(ResponseFault::Invalid(format!(
            "response echoes grid={grid:016x} shard={shard} gen={gen}, \
             dispatched grid={:016x} shard={} gen={}",
            expect.grid, expect.shard, expect.gen
        ))));
    }
    out.worker = Some(rec.str("worker").map_err(bad)?.to_owned());
    Ok(())
}

fn read_failed(rec: &Record<'_>, cause: FailCause) -> Result<FailedLine, String> {
    Ok(FailedLine {
        id: read_id(rec)?,
        label: rec.str("label")?.to_owned(),
        seed: rec.uint("seed")?,
        stats: read_stats(rec)?,
        cause,
        message: rec.str("message")?.to_owned(),
    })
}

fn parse_body_line(
    line: &str,
    out: &mut ParsedResponse,
    footer: &mut Option<(u64, u64)>,
) -> Result<(), LineIssue> {
    let bad = |e: String| LineIssue::Malformed(format!("response line: {e}"));
    let mut rec = record::read(line).map_err(bad)?;
    match rec.str("dist").map_err(bad)? {
        "done" => {
            let stats = read_stats(&rec).map_err(bad)?;
            out.done.push((read_done(&mut rec).map_err(bad)?, stats));
        }
        "failed" => {
            // A whole line naming a cause no worker mints is not a tear:
            // nothing else in the file can be trusted either.
            let tag = rec.str("cause").map_err(bad)?;
            let cause = FailCause::reported(tag).ok_or_else(|| {
                LineIssue::Reject(ResponseFault::Invalid(format!(
                    "response line: failed cell reports unknown cause {tag:?}"
                )))
            })?;
            out.failed.push(read_failed(&rec, cause).map_err(bad)?);
        }
        "end" => {
            *footer = Some((rec.uint("done").map_err(bad)?, rec.uint("failed").map_err(bad)?));
        }
        other => return Err(LineIssue::Malformed(format!("unknown response line kind {other:?}"))),
    }
    Ok(())
}

/// Appends one heartbeat line for `worker` and flushes it.
///
/// # Errors
///
/// On filesystem failures.
pub fn append_heartbeat(
    spool: &Path,
    worker: &str,
    shard: usize,
    gen: u64,
    seq: u64,
) -> Result<(), String> {
    let path = heartbeat_path(spool, worker);
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open heartbeat {}: {e}", path.display()))?;
    let line = framed(|w| {
        w.str("dist", "heartbeat")
            .str("worker", worker)
            .u64("shard", shard as u64)
            .u64("gen", gen)
            .u64("seq", seq)
    });
    f.write_all(line.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("cannot append heartbeat: {e}"))
}

/// Reads the highest heartbeat sequence `worker` has appended **for
/// `(shard, gen)`**, skipping any torn final line. `None` when the file
/// does not exist or holds no complete line for that dispatch yet.
///
/// Filtering by the shard/gen fields on each line matters: the supervisor
/// names a fresh file per dispatch, but a reused spool or a hostile writer
/// can leave one holding another dispatch's lines, and heartbeat threads
/// restart `seq` at 1. A file-wide maximum from some *other* dispatch would
/// mask fresh beats below it — a live worker revoked as a `heartbeat_lapse`.
pub fn read_heartbeat_seq(spool: &Path, worker: &str, shard: usize, gen: u64) -> Option<u64> {
    let text = std::fs::read_to_string(heartbeat_path(spool, worker)).ok()?;
    text.lines()
        .filter_map(|l| record::read(l).ok())
        .filter(|r| r.uint("shard") == Ok(shard as u64) && r.uint("gen") == Ok(gen))
        .filter_map(|r| r.uint("seq").ok())
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::plan::Fingerprint;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fabric-wire-{}-{name}", std::process::id()))
    }

    fn header(grid: u64, shard: usize, gen: u64) -> RequestHeader {
        RequestHeader {
            version: PROTOCOL_VERSION,
            grid,
            shard,
            gen,
            suite: "walk".to_owned(),
            cells: 0,
            deadline_ms: 0,
            max_attempts: 3,
            backoff_ms: 100,
            max_backoff_ms: 5000,
            heartbeat_ms: 200,
        }
    }

    fn cell(i: usize) -> RequestCell {
        RequestCell {
            id: CellId::derive(&format!("c{i}"), i as u64, Fingerprint::new()),
            index: i,
            label: format!("c{i}"),
            seed: i as u64,
        }
    }

    #[test]
    fn requests_roundtrip_and_reject_version_skew() {
        let spool = tmp("req");
        let _ = std::fs::remove_dir_all(&spool);
        init_spool(&spool, 0xabcd, 3, 2, "walk").expect("init");
        let cells = vec![cell(0), cell(2)];
        let mut h = header(0xabcd, 1, 0);
        h.cells = cells.len();
        let path = write_request(&spool, &h, &cells).expect("write");
        let (rh, rc) = read_request(&path).expect("read");
        assert_eq!(rh, h);
        assert_eq!(rc, cells);
        // Version skew is refused with both versions named.
        let skew =
            std::fs::read_to_string(&path).unwrap().replacen("\"version\":3", "\"version\":999", 1);
        std::fs::write(&path, skew).unwrap();
        let err = read_request(&path).unwrap_err();
        assert!(err.contains("v999") && err.contains("out of step"), "{err}");
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn responses_stream_and_parse_with_prefix_harvest() {
        let spool = tmp("resp");
        let _ = std::fs::remove_dir_all(&spool);
        init_spool(&spool, 0x11, 2, 1, "walk").expect("init");
        let expect = ResponseExpect { grid: 0x11, shard: 0, gen: 0 };
        let mut w =
            ResponseWriter::create(&spool, 0, 0, 0x11, "w0-g0", PROTOCOL_VERSION).expect("create");
        let id = CellId::derive("a", 1, Fingerprint::new());
        let flaky = AttemptStats { attempts: 2, panics: 1, deadline_kills: 0 };
        w.record_done(id, "a", 1, flaky, &[JournalValue::U64(42)]).expect("done");
        // Mid-stream: header + one done line, no footer → partial, harvestable.
        let text = std::fs::read_to_string(response_path(&spool, 0, 0)).unwrap();
        let p = parse_response(&text, &expect);
        assert_eq!(p.worker.as_deref(), Some("w0-g0"));
        assert_eq!(p.done.len(), 1);
        assert_eq!(p.done[0].0.payload, vec![JournalValue::U64(42)]);
        assert_eq!((p.done[0].0.attempts, p.done[0].1), (2, flaky));
        assert!(!p.complete && p.fault.is_none());
        // A torn final line is streaming, not a fault; the prefix survives.
        let torn = format!("{text}{{\"dist\":\"done\",\"id\":\"00");
        let p = parse_response(&torn, &expect);
        assert_eq!(p.done.len(), 1);
        assert!(!p.complete && p.fault.is_none(), "{:?}", p.fault);
        // Footer completes it.
        let stats = AttemptStats { attempts: 3, panics: 3, deadline_kills: 0 };
        let b = CellId::derive("b", 2, Fingerprint::new());
        w.record_failed(b, "b", 2, stats, FailCause::Panic, "boom").expect("failed");
        w.finish().expect("finish");
        let text = std::fs::read_to_string(response_path(&spool, 0, 0)).unwrap();
        let p = parse_response(&text, &expect);
        assert!(p.complete, "{p:?}");
        assert_eq!(p.failed.len(), 1);
        assert_eq!((p.failed[0].cause, p.failed[0].stats), (FailCause::Panic, stats));
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn responses_reject_version_skew_echo_mismatch_and_bad_footer() {
        let expect = ResponseExpect { grid: 0x11, shard: 0, gen: 1 };
        let header = "{\"dist\":\"response\",\"version\":3,\"grid\":\"0000000000000011\",\
                      \"shard\":0,\"gen\":1,\"worker\":\"w\"}\n";
        // The chaos drill's version 0 and the previous formats' 1 and 2.
        for v in [0, 1, 2] {
            let old = header.replacen("\"version\":3", &format!("\"version\":{v}"), 1);
            let p = parse_response(&old, &expect);
            assert!(matches!(p.fault, Some(ResponseFault::Stale(_))), "v{v}: {p:?}");
        }
        // A revoked generation's echo must not pass for the replacement's.
        let old_gen = header.replacen("\"gen\":1", "\"gen\":0", 1);
        let p = parse_response(&old_gen, &expect);
        match &p.fault {
            Some(ResponseFault::Invalid(d)) => assert!(d.contains("gen=0"), "{d}"),
            other => panic!("expected echo rejection, got {other:?}"),
        }
        // Footer counts must match the lines actually present.
        let lying = format!("{header}{{\"dist\":\"end\",\"done\":5,\"failed\":0}}\n");
        let p = parse_response(&lying, &expect);
        assert!(!p.complete);
        match &p.fault {
            Some(ResponseFault::Invalid(d)) => assert!(d.contains("promises"), "{d}"),
            other => panic!("expected footer rejection, got {other:?}"),
        }
        // Interior corruption faults the file but keeps the valid prefix.
        let id = CellId::derive("a", 1, Fingerprint::new());
        let done = format!(
            "{header}{{\"dist\":\"done\",\"id\":\"{id}\",\"label\":\"a\",\"seed\":1,\"attempts\":1,\
             \"panics\":0,\"deadline_kills\":0,\"payload\":[7]}}\n"
        );
        let corrupt = format!("{done}GARBAGE\n{{\"dist\":\"end\",\"done\":1,\"failed\":0}}\n");
        let p = parse_response(&corrupt, &expect);
        assert_eq!(p.done.len(), 1, "prefix before the damage is harvestable");
        assert!(matches!(p.fault, Some(ResponseFault::Invalid(_))), "{p:?}");
        assert!(!p.complete);
        // A whole `failed` line whose cause no worker can report — garbage,
        // or the supervisor-only "worker" — is a fault wherever it sits, the
        // final line included: it must never be read as a panic.
        for tag in ["bogus", "worker"] {
            let failed = format!(
                "{done}{{\"dist\":\"failed\",\"id\":\"{id}\",\"label\":\"b\",\"seed\":2,\"attempts\":1,\
                 \"panics\":1,\"deadline_kills\":0,\"cause\":\"{tag}\",\"message\":\"m\"}}\n"
            );
            let p = parse_response(&failed, &expect);
            assert_eq!((p.done.len(), p.failed.len()), (1, 0), "{tag}: {p:?}");
            match &p.fault {
                Some(ResponseFault::Invalid(d)) => assert!(d.contains(tag), "{d}"),
                other => panic!("expected an unknown-cause rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn heartbeats_roundtrip() {
        let spool = tmp("hb");
        let _ = std::fs::remove_dir_all(&spool);
        init_spool(&spool, 1, 1, 1, "walk").expect("init");
        assert_eq!(read_heartbeat_seq(&spool, "w0", 0, 0), None);
        append_heartbeat(&spool, "w0", 0, 0, 1).expect("hb1");
        append_heartbeat(&spool, "w0", 0, 0, 2).expect("hb2");
        assert_eq!(read_heartbeat_seq(&spool, "w0", 0, 0), Some(2));
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// A hostile or reused heartbeat file can hold several dispatches'
    /// lines, with `seq` restarting at 1 in each. The liveness read must see
    /// only the asked-for dispatch's lines: a later generation's fresh low
    /// seqs must not be shadowed by another dispatch's higher maximum.
    #[test]
    fn heartbeat_reads_are_scoped_to_shard_and_gen() {
        let spool = tmp("hb-scope");
        let _ = std::fs::remove_dir_all(&spool);
        init_spool(&spool, 1, 1, 1, "walk").expect("init");
        // A long dispatch on shard 1 drives seq far up…
        for seq in 1..=50 {
            append_heartbeat(&spool, "w", 1, 0, seq).expect("hb");
        }
        // …then the same file takes shard 0 gen 1's beats, seq restarting at 1.
        append_heartbeat(&spool, "w", 0, 1, 1).expect("hb");
        append_heartbeat(&spool, "w", 0, 1, 2).expect("hb");
        assert_eq!(read_heartbeat_seq(&spool, "w", 1, 0), Some(50));
        assert_eq!(
            read_heartbeat_seq(&spool, "w", 0, 1),
            Some(2),
            "fresh beats must not be masked by another dispatch's maximum"
        );
        assert_eq!(read_heartbeat_seq(&spool, "w", 2, 0), None, "no lines for that dispatch");
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// Whole or rejected: a worker killed mid-append can tear its footer at
    /// any byte. Every tear must read as "still streaming" with the whole
    /// prefix harvestable — never as a lying (or a complete) footer.
    #[test]
    fn every_proper_prefix_of_the_footer_is_streaming_not_a_fault() {
        let expect = ResponseExpect { grid: 0x11, shard: 0, gen: 0 };
        let mut body = framed(|w| {
            w.str("dist", "response")
                .u64("version", PROTOCOL_VERSION)
                .hex("grid", 0x11)
                .u64("shard", 0)
                .u64("gen", 0)
                .str("worker", "w")
        });
        for i in 0..10u64 {
            let id = CellId::derive("c", i, Fingerprint::new());
            body.push_str(&format!(
                "{{\"dist\":\"done\",\"id\":\"{id}\",\"label\":\"c\",\"seed\":{i},\"attempts\":1,\
                 \"panics\":0,\"deadline_kills\":0,\"payload\":[{i}]}}\n"
            ));
        }
        let footer = "{\"dist\":\"end\",\"done\":10,\"failed\":12}";
        for cut in 1..footer.len() {
            let p = parse_response(&format!("{body}{}", &footer[..cut]), &expect);
            assert!(!p.complete && p.fault.is_none(), "cut at {cut}: {p:?}");
            assert_eq!(p.done.len(), 10, "cut at {cut} lost harvested cells");
        }
        // The whole footer is a footer — and this one lies about `failed`.
        let p = parse_response(&format!("{body}{footer}\n"), &expect);
        assert!(!p.complete);
        match &p.fault {
            Some(ResponseFault::Invalid(d)) => assert!(d.contains("promises"), "{d}"),
            other => panic!("expected footer rejection, got {other:?}"),
        }
        assert_eq!(p.done.len(), 10);
    }

    /// `read_heartbeat_seq` skips a torn final beat instead of reading a
    /// shorter sequence number out of it (`"seq":4` torn from `"seq":41}`).
    #[test]
    fn a_torn_final_heartbeat_is_ignored() {
        let spool = tmp("hb-torn");
        let _ = std::fs::remove_dir_all(&spool);
        init_spool(&spool, 1, 1, 1, "walk").expect("init");
        append_heartbeat(&spool, "w", 0, 0, 3).expect("hb");
        let whole = "{\"dist\":\"heartbeat\",\"worker\":\"w\",\"shard\":0,\"gen\":0,\"seq\":41}";
        let path = heartbeat_path(&spool, "w");
        let before = std::fs::read_to_string(&path).expect("read");
        for cut in 1..whole.len() {
            std::fs::write(&path, format!("{before}{}", &whole[..cut])).expect("write");
            assert_eq!(read_heartbeat_seq(&spool, "w", 0, 0), Some(3), "cut at {cut}");
        }
        std::fs::write(&path, format!("{before}{whole}\n")).expect("write");
        assert_eq!(read_heartbeat_seq(&spool, "w", 0, 0), Some(41));
        let _ = std::fs::remove_dir_all(&spool);
    }
}
