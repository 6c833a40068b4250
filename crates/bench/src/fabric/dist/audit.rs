//! The supervisor's audit trail: [`DistCounters`] say *how many* of each
//! absorbed failure a run saw, [`DistEvent`]s say *which and why*.
//!
//! Unlike `obs::TraceEvent` — which lives on the simulation hot path and
//! must be all-`Copy`, no-alloc — these events narrate the *supervisor's*
//! decisions: leases granted, workers lost, responses rejected, shards
//! re-dispatched. They are emitted a handful of times per shard, far from
//! any hot path, so they carry owned strings and render straight to JSONL
//! (`spool/events.jsonl`).
//!
//! Timestamps are supervisor wall-clock milliseconds since the run started
//! (`t_ms`). The distributed layer is explicitly outside the deterministic
//! domain — only *whether/when* work re-runs depends on the clock, never
//! any cell's output — so relative wall time is the honest axis here.

/// Distributed-fabric accounting for one supervisor run: how shards moved
/// between workers, and how every injected or organic failure was absorbed.
/// Each field is one arm of the failure matrix drilled by `fabric_chaos` —
/// a loss that is not visible here is a loss the fabric cannot prove it
/// survived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistCounters {
    /// Shards the supervisor dispatched (zero for in-process runs).
    pub shards: u64,
    /// Worker processes spawned (initial dispatch + re-dispatches).
    pub workers_spawned: u64,
    /// Shard leases granted (one per dispatch generation).
    pub leases_granted: u64,
    /// Leases revoked and re-dispatched to a fresh generation.
    pub redispatches: u64,
    /// Workers that exited without a complete, valid response.
    pub worker_crashes: u64,
    /// Leases revoked because heartbeats stopped arriving.
    pub heartbeat_lapses: u64,
    /// Leases revoked because heartbeats continued but no cell completed
    /// before the lease deadline (the livelock arm).
    pub stalls: u64,
    /// Response files rejected for truncation, corruption, or undecodable
    /// payloads.
    pub invalid_responses: u64,
    /// Responses rejected for a protocol-version or grid-digest mismatch.
    pub stale_protocol: u64,
    /// Cell results discarded because an earlier valid result already won
    /// (first-valid-wins).
    pub duplicate_cells: u64,
    /// Responses (or response growth) ignored because their lease generation
    /// had already been revoked.
    pub late_responses: u64,
    /// Cells salvaged from the partial response of a crashed or revoked
    /// worker — completed work that re-dispatch did not repeat.
    pub harvested_cells: u64,
}

impl DistCounters {
    /// True when no distributed machinery ran (pure in-process sweep).
    pub fn is_idle(&self) -> bool {
        *self == DistCounters::default()
    }

    /// Renders the one-line digest the supervisor prints on stderr.
    pub fn render(&self) -> String {
        format!(
            "fabric-dist: shards={} workers_spawned={} leases_granted={} redispatches={} \
             worker_crashes={} heartbeat_lapses={} stalls={} invalid_responses={} \
             stale_protocol={} duplicate_cells={} late_responses={} harvested_cells={}",
            self.shards,
            self.workers_spawned,
            self.leases_granted,
            self.redispatches,
            self.worker_crashes,
            self.heartbeat_lapses,
            self.stalls,
            self.invalid_responses,
            self.stale_protocol,
            self.duplicate_cells,
            self.late_responses,
            self.harvested_cells
        )
    }
}

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
        let w = obs::record::line(out).str("dist_ev", self.kind()).u64("t_ms", t_ms);
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
    use obs::record;

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

    /// One line per kind, byte for byte as the golden corpus holds them
    /// (`crates/obs/tests/golden_lines.jsonl`, written before the record
    /// dialect had one writer).
    #[test]
    fn events_reproduce_the_golden_corpus() {
        let nasty = "exit \"status\" 1\\2\n\ttab \u{1} del\u{7f} 𝕏 é";
        let events = [
            DistEvent::LeaseGranted { shard: 2, gen: 0, worker: "w2-g0".into(), cells: 16 },
            DistEvent::ResponseAccepted { shard: 2, gen: 1, done: 15, failed: 1 },
            DistEvent::LeaseRevoked { shard: 0, gen: 0, reason: "crash", detail: nasty.into() },
            DistEvent::CellHarvested { shard: 0, gen: 0, cell: "00000000000000ff".into() },
            DistEvent::DuplicateCell { shard: 1, gen: 3, cell: "ffffffffffffffff".into() },
            DistEvent::LateResponse { shard: 1, gen: 2 },
        ];
        let ours: Vec<String> = events
            .iter()
            .enumerate()
            .map(|(i, ev)| {
                let mut s = String::new();
                ev.to_json(1_000 + i as u64, &mut s);
                s
            })
            .collect();
        let corpus = include_str!("../../../../obs/tests/golden_lines.jsonl");
        let theirs: Vec<&str> = corpus.lines().filter(|l| l.starts_with("{\"dist_ev\"")).collect();
        assert_eq!(ours, theirs);
    }
}
