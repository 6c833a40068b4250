//! Trace sinks: where emitted events go.
//!
//! The simulator holds an `Option<Box<dyn TraceSink>>`; `None` is the no-op
//! default and the only path the hot loop pays for (a branch on a niche —
//! no allocation, pinned by `netsim/tests/trace_noalloc.rs`).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;
use crate::record::LineWriter;

/// A consumer of trace events. `Send` because simulators (and the sinks they
/// own) move across sweep-runner worker threads.
pub trait TraceSink: Send {
    /// Records one event. Events arrive in simulation order.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes any buffered output; called when the sink is detached.
    fn flush(&mut self) {}
}

/// Collects every event in memory. Handy in tests.
impl TraceSink for Vec<TraceEvent> {
    fn record(&mut self, ev: &TraceEvent) {
        self.push(*ev);
    }
}

/// Shared handle: lets a test keep a reader side while the simulator owns
/// the writer side.
impl<S: TraceSink> TraceSink for Arc<Mutex<S>> {
    fn record(&mut self, ev: &TraceEvent) {
        // A poisoned lock means some other thread is already unwinding; the
        // sink holds plain data, and recording through it anyway preserves
        // the trace tail that explains that very panic.
        self.lock().unwrap_or_else(std::sync::PoisonError::into_inner).record(ev);
    }
    fn flush(&mut self) {
        self.lock().unwrap_or_else(std::sync::PoisonError::into_inner).flush();
    }
}

/// Keeps the most recent `cap` events in a ring; older events fall off the
/// front. Useful for "what led up to the failure" captures without unbounded
/// memory.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    /// Total events ever recorded (including evicted ones).
    pub total: u64,
}

impl RingSink {
    /// Creates a ring keeping at most `cap` events (`cap` clamped to ≥ 1).
    pub fn new(cap: usize) -> RingSink {
        let cap = cap.max(1);
        RingSink { cap, buf: VecDeque::with_capacity(cap), total: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(*ev);
        self.total += 1;
    }
}

/// Writes one flat JSON object per line to any `Write` target, reusing a
/// single line buffer.
pub struct JsonlSink<W: Write + Send> {
    out: W,
    buf: String,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out, buf: String::with_capacity(160) }
    }

    /// Writes one harness-defined record (cell-level results logged
    /// alongside simulator events): `fields` adds to the writer it is
    /// handed and returns it; the sink closes and frames the line.
    pub fn line(&mut self, fields: impl FnOnce(LineWriter<'_>) -> LineWriter<'_>) {
        self.buf.clear();
        fields(crate::record::line(&mut self.buf)).end();
        self.write_line();
    }

    fn write_line(&mut self) {
        self.buf.push('\n');
        let _ = self.out.write_all(self.buf.as_bytes());
    }
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        self.buf.clear();
        ev.to_json(&mut self.buf);
        self.write_line();
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Maps an arbitrary cell label to a filesystem-safe file stem.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(
            |c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' { c } else { '_' },
        )
        .collect()
}

/// The conventional per-cell trace path: `<dir>/<sanitized label>.jsonl`.
pub fn trace_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("{}.jsonl", sanitize_label(label)))
}

/// Creates `<dir>/<sanitized label>.jsonl` (and `dir` itself if missing),
/// returning a boxed sink ready to hand to a simulator. Errors are reported
/// on stderr and yield `None` — tracing is diagnostics, never a reason to
/// fail a run.
pub fn jsonl_sink_in(dir: &Path, label: &str) -> Option<Box<dyn TraceSink>> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create trace dir {}: {e}", dir.display());
        return None;
    }
    let path = trace_path(dir, label);
    match JsonlSink::create(&path) {
        Ok(sink) => Some(Box::new(sink)),
        Err(e) => {
            eprintln!("warning: cannot create trace file {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::Enqueue { t_ns: t, link: 0, pkt_id: t, qlen: 0 }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut ring = RingSink::new(3);
        for t in 0..10 {
            ring.record(&ev(t));
        }
        assert_eq!(ring.total, 10);
        assert_eq!(ring.len(), 3);
        let times: Vec<u64> = ring.events().map(TraceEvent::t_ns).collect();
        assert_eq!(times, vec![7, 8, 9]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1));
        sink.record(&ev(2));
        sink.line(|w| w.str("ev", "custom"));
        sink.flush();
        let text = String::from_utf8(sink.out.clone()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with("{\"ev\":\"")));
    }

    #[test]
    fn labels_sanitize_to_safe_stems() {
        assert_eq!(sanitize_label("slope=0.5 c/2"), "slope_0.5_c_2");
        assert_eq!(trace_path(Path::new("/tmp/t"), "a b").file_name().unwrap(), "a_b.jsonl");
    }
}
