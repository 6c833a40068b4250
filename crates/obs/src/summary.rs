//! JSONL trace summarizer: the library behind the `trace_dump` binary.
//!
//! Traces are flat one-line records emitted by
//! [`crate::event::TraceEvent::to_json`], read back with
//! [`crate::record::read`]: exact for our own output and gracefully lossy
//! for anything else — unknown `"ev"` values are still counted by kind, and
//! lines that are not whole records with an `"ev"` field are tallied as
//! malformed rather than aborting the summary.

use crate::record;
use std::collections::BTreeMap;
use std::io::BufRead;

/// Aggregates over one JSONL trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total well-formed event lines.
    pub events: u64,
    /// Lines that are not flat JSON objects with an `"ev"` field.
    pub malformed_lines: u64,
    /// Event counts by kind name.
    pub by_kind: BTreeMap<String, u64>,
    /// Drop counts by cause name.
    pub drops_by_cause: BTreeMap<String, u64>,
    /// Drop counts by link id.
    pub drops_by_link: BTreeMap<u64, u64>,
    /// Recovery-enter counts by (conn, subflow).
    pub recoveries_by_subflow: BTreeMap<(u64, u64), u64>,
    /// RTO counts by (conn, subflow).
    pub rtos_by_subflow: BTreeMap<(u64, u64), u64>,
    /// Earliest event timestamp seen (ns).
    pub first_t_ns: Option<u64>,
    /// Latest event timestamp seen (ns).
    pub last_t_ns: Option<u64>,
}

impl TraceSummary {
    fn note_time(&mut self, t: u64) {
        self.first_t_ns = Some(self.first_t_ns.map_or(t, |f| f.min(t)));
        self.last_t_ns = Some(self.last_t_ns.map_or(t, |l| l.max(t)));
    }

    /// Folds one line into the summary.
    pub fn add_line(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let Ok(rec) = record::read(line) else {
            self.malformed_lines += 1;
            return;
        };
        let Ok(ev) = rec.str("ev") else {
            self.malformed_lines += 1;
            return;
        };
        self.events += 1;
        *self.by_kind.entry(ev.to_string()).or_insert(0) += 1;
        if let Ok(t) = rec.uint("t_ns") {
            self.note_time(t);
        }
        match ev {
            "drop" => {
                let cause = rec.str("cause").unwrap_or("unknown").to_string();
                *self.drops_by_cause.entry(cause).or_insert(0) += 1;
                if let Ok(link) = rec.uint("link") {
                    *self.drops_by_link.entry(link).or_insert(0) += 1;
                }
            }
            "recovery_enter" | "rto_fired" => {
                let conn = rec.uint("conn").unwrap_or(0);
                let sf = rec.uint("subflow").unwrap_or(0);
                let map = if ev == "recovery_enter" {
                    &mut self.recoveries_by_subflow
                } else {
                    &mut self.rtos_by_subflow
                };
                *map.entry((conn, sf)).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Renders the summary as the human-readable report `trace_dump` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let span_ms = match (self.first_t_ns, self.last_t_ns) {
            (Some(a), Some(b)) => (b - a) as f64 / 1e6,
            _ => 0.0,
        };
        let _ = writeln!(
            out,
            "{} events over {span_ms:.3} ms sim time ({} malformed lines)",
            self.events, self.malformed_lines
        );
        if !self.by_kind.is_empty() {
            let _ = writeln!(out, "events by kind:");
            for (kind, n) in &self.by_kind {
                let _ = writeln!(out, "  {kind:<16} {n}");
            }
        }
        if !self.drops_by_cause.is_empty() {
            let _ = writeln!(out, "drops by cause:");
            for (cause, n) in &self.drops_by_cause {
                let _ = writeln!(out, "  {cause:<16} {n}");
            }
            let _ = writeln!(out, "drops by link:");
            for (link, n) in &self.drops_by_link {
                let _ = writeln!(out, "  link {link:<11} {n}");
            }
        }
        if !self.recoveries_by_subflow.is_empty() || !self.rtos_by_subflow.is_empty() {
            let _ = writeln!(out, "recovery episodes by (conn, subflow):");
            for (&(conn, sf), n) in &self.recoveries_by_subflow {
                let rtos = self.rtos_by_subflow.get(&(conn, sf)).copied().unwrap_or(0);
                let _ = writeln!(out, "  conn {conn} subflow {sf}: {n} recoveries, {rtos} rtos");
            }
            for (&(conn, sf), n) in &self.rtos_by_subflow {
                if !self.recoveries_by_subflow.contains_key(&(conn, sf)) {
                    let _ = writeln!(out, "  conn {conn} subflow {sf}: 0 recoveries, {n} rtos");
                }
            }
        }
        out
    }
}

/// Summarizes a whole JSONL stream.
pub fn summarize(reader: impl BufRead) -> std::io::Result<TraceSummary> {
    let mut summary = TraceSummary::default();
    for line in reader.lines() {
        summary.add_line(&line?);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, RecoveryCause, TraceEvent};

    fn line(ev: &TraceEvent) -> String {
        let mut s = String::new();
        ev.to_json(&mut s);
        s
    }

    #[test]
    fn summary_buckets_drops_and_recoveries() {
        let mut s = TraceSummary::default();
        s.add_line(&line(&TraceEvent::Drop {
            t_ns: 1,
            link: 0,
            pkt_id: 0,
            cause: DropCause::QueueOverflow,
        }));
        s.add_line(&line(&TraceEvent::Drop {
            t_ns: 2,
            link: 0,
            pkt_id: 1,
            cause: DropCause::Blackout,
        }));
        s.add_line(&line(&TraceEvent::RecoveryEnter {
            t_ns: 3,
            conn: 7,
            subflow: 1,
            recover: 40,
            cause: RecoveryCause::Rto,
        }));
        s.add_line(&line(&TraceEvent::RtoFired { t_ns: 4, conn: 7, subflow: 1, backoff: 0 }));
        s.add_line("{\"ev\":\"fluid_cell\",\"psi\":0.5}");
        // A degenerate window is still an event (the one worth finding).
        s.add_line(&line(&TraceEvent::CwndChange {
            t_ns: 4,
            conn: 7,
            subflow: 1,
            cwnd_pkts: f64::NAN,
        }));
        s.add_line("not json at all");
        s.add_line("");
        assert_eq!(s.events, 6);
        assert_eq!(s.by_kind.get("cwnd_change"), Some(&1));
        assert_eq!(s.malformed_lines, 1);
        assert_eq!(s.drops_by_cause.get("queue_overflow"), Some(&1));
        assert_eq!(s.drops_by_cause.get("blackout"), Some(&1));
        assert_eq!(s.drops_by_link.get(&0), Some(&2));
        assert_eq!(s.recoveries_by_subflow.get(&(7, 1)), Some(&1));
        assert_eq!(s.rtos_by_subflow.get(&(7, 1)), Some(&1));
        assert_eq!(s.by_kind.get("fluid_cell"), Some(&1));
        assert_eq!((s.first_t_ns, s.last_t_ns), (Some(1), Some(4)));
        let text = s.render();
        assert!(text.contains("drops by cause"), "{text}");
        assert!(text.contains("conn 7 subflow 1: 1 recoveries, 1 rtos"), "{text}");
    }
}
