//! The distributed-fabric event taxonomy: the supervisor's audit log.
//!
//! Unlike [`crate::event::TraceEvent`] — which lives on the simulation hot
//! path and must be all-`Copy`, no-alloc — these events narrate the
//! *supervisor's* decisions: leases granted, workers lost, responses
//! rejected, shards re-dispatched. They are emitted a handful of times per
//! shard, far from any hot path, so they carry owned strings and render
//! straight to JSONL (`spool/events.jsonl`). Together with
//! [`crate::counters::DistCounters`] they make every absorbed failure
//! visible: the counters say *how many*, the events say *which and why*.
//!
//! Timestamps are supervisor wall-clock milliseconds since the run started
//! (`t_ms`). The distributed layer is explicitly outside the deterministic
//! domain — only *whether/when* work re-runs depends on the clock, never
//! any cell's output — so relative wall time is the honest axis here.

/// One supervisor decision, rendered to the `events.jsonl` audit log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistEvent {
    /// A shard lease was granted to a worker (initial dispatch or
    /// re-dispatch generation).
    LeaseGranted {
        /// Shard index.
        shard: usize,
        /// Dispatch generation (0 for the first grant).
        gen: u64,
        /// Worker identity.
        worker: String,
        /// Cells assigned under this lease.
        cells: usize,
    },
    /// A complete, valid response was accepted for a lease.
    ResponseAccepted {
        /// Shard index.
        shard: usize,
        /// Dispatch generation.
        gen: u64,
        /// Cells completed in the response.
        done: usize,
        /// Cells the worker reported as failed (quarantine candidates).
        failed: usize,
    },
    /// A lease was revoked; the reason names the failure-matrix arm.
    LeaseRevoked {
        /// Shard index.
        shard: usize,
        /// Dispatch generation.
        gen: u64,
        /// `"crash"`, `"heartbeat_lapse"`, `"stall"`, `"invalid_response"`,
        /// or `"stale_protocol"`.
        reason: &'static str,
        /// Free-form detail (exit status, parse error, …).
        detail: String,
    },
    /// A cell result was salvaged from a revoked lease's partial response.
    CellHarvested {
        /// Shard index.
        shard: usize,
        /// Dispatch generation the cell was harvested from.
        gen: u64,
        /// The cell's content-addressed id (16 hex digits).
        cell: String,
    },
    /// A cell result was discarded because a valid result already won.
    DuplicateCell {
        /// Shard index of the losing response.
        shard: usize,
        /// Dispatch generation of the losing response.
        gen: u64,
        /// The cell's content-addressed id (16 hex digits).
        cell: String,
    },
    /// Response activity arrived for a lease that had already been revoked;
    /// it was ignored.
    LateResponse {
        /// Shard index.
        shard: usize,
        /// The revoked generation that kept writing.
        gen: u64,
    },
}

impl DistEvent {
    /// The stable event-kind tag used in JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            DistEvent::LeaseGranted { .. } => "lease_granted",
            DistEvent::ResponseAccepted { .. } => "response_accepted",
            DistEvent::LeaseRevoked { .. } => "lease_revoked",
            DistEvent::CellHarvested { .. } => "cell_harvested",
            DistEvent::DuplicateCell { .. } => "duplicate_cell",
            DistEvent::LateResponse { .. } => "late_response",
        }
    }

    /// Appends this event as one JSONL line (no trailing newline).
    /// `t_ms` is supervisor wall-clock milliseconds since the run began.
    pub fn to_json(&self, t_ms: u64, out: &mut String) {
        let w = crate::record::line(out).str("dist_ev", self.kind()).u64("t_ms", t_ms);
        let lease = |shard: usize, gen: u64| w.u64("shard", shard as u64).u64("gen", gen);
        match self {
            DistEvent::LeaseGranted { shard, gen, worker, cells } => {
                lease(*shard, *gen).str("worker", worker).u64("cells", *cells as u64)
            }
            DistEvent::ResponseAccepted { shard, gen, done, failed } => {
                lease(*shard, *gen).u64("done", *done as u64).u64("failed", *failed as u64)
            }
            DistEvent::LeaseRevoked { shard, gen, reason, detail } => {
                lease(*shard, *gen).str("reason", reason).str("detail", detail)
            }
            DistEvent::CellHarvested { shard, gen, cell }
            | DistEvent::DuplicateCell { shard, gen, cell } => {
                lease(*shard, *gen).str("cell", cell)
            }
            DistEvent::LateResponse { shard, gen } => lease(*shard, *gen),
        }
        .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn events_render_parseable_jsonl() {
        let ev = DistEvent::LeaseRevoked {
            shard: 2,
            gen: 1,
            reason: "stall",
            detail: "no progress for 3.0s, heartbeat seq 41 \"live\"".into(),
        };
        let mut out = String::new();
        ev.to_json(1234, &mut out);
        let rec = record::read(&out).expect("parseable");
        assert_eq!(rec.str("dist_ev"), Ok("lease_revoked"));
        assert_eq!(rec.uint("t_ms"), Ok(1234u64));
        assert_eq!(rec.uint("shard"), Ok(2u64));
        assert_eq!(rec.str("reason"), Ok("stall"));
        assert!(out.contains("\\\"live\\\""), "{out}");
        assert!(!out.contains('\n'));

        let ev = DistEvent::LeaseGranted { shard: 0, gen: 0, worker: "w0".into(), cells: 4 };
        let mut out = String::new();
        ev.to_json(0, &mut out);
        let rec = record::read(&out).expect("parseable");
        assert_eq!(rec.str("worker"), Ok("w0"));
        assert_eq!(rec.uint("cells"), Ok(4u64));
    }

    #[test]
    fn kinds_are_distinct_and_stable() {
        let kinds = [
            DistEvent::LeaseGranted { shard: 0, gen: 0, worker: String::new(), cells: 0 }.kind(),
            DistEvent::ResponseAccepted { shard: 0, gen: 0, done: 0, failed: 0 }.kind(),
            DistEvent::LeaseRevoked { shard: 0, gen: 0, reason: "crash", detail: String::new() }
                .kind(),
            DistEvent::CellHarvested { shard: 0, gen: 0, cell: String::new() }.kind(),
            DistEvent::DuplicateCell { shard: 0, gen: 0, cell: String::new() }.kind(),
            DistEvent::LateResponse { shard: 0, gen: 0 }.kind(),
        ];
        let unique: std::collections::BTreeSet<&str> = kinds.iter().copied().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
