//! The counter registry: cheap always-on aggregates, independent of whether
//! a trace sink is installed.
//!
//! Counters are assembled *after* a run from state the simulator and sender
//! already maintain (link stats, subflow counters), so the hot path pays
//! nothing for them. They are read off a finished simulator
//! (`scenarios::counters_of`); a sweep cell that wants them auditable next to
//! its numbers returns them in its own output type.

/// Per-link counters: drops split by cause, plus queue high-water.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkCounters {
    /// Link id.
    pub link: u64,
    /// Packets transmitted onto the wire.
    pub tx_pkts: u64,
    /// Drops because the DropTail queue was full.
    pub drops_queue: u64,
    /// Drops consumed by an injected loss process.
    pub drops_fault: u64,
    /// Drops because the link was down (offers while dark + drained queue).
    pub drops_blackout: u64,
    /// ECN marks applied.
    pub ecn_marks: u64,
    /// Maximum queue occupancy observed (packets).
    pub queue_high_water: usize,
    /// Packets offered to the link (accepted, queued, or dropped).
    pub offered: u64,
    /// Packet copies given extra reorder jitter after transmission.
    pub reordered: u64,
    /// Extra packet copies created by the duplication impairment.
    pub duplicated: u64,
    /// Packets poisoned by the corruption impairment (still delivered).
    pub corrupted: u64,
}

impl LinkCounters {
    /// Total drops across all causes.
    pub fn drops(&self) -> u64 {
        self.drops_queue + self.drops_fault + self.drops_blackout
    }
}

/// Per-subflow counters mirrored out of the sender's scoreboard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SubflowCounters {
    /// Connection id.
    pub conn: u64,
    /// Path index within the connection.
    pub subflow: usize,
    /// Retransmission-timer firings.
    pub rtos: u64,
    /// Scoreboard-driven (non-timeout) retransmissions.
    pub fast_rexmits: u64,
    /// Retransmissions later proven unnecessary (lower bound).
    pub spurious_rexmits: u64,
    /// Fast-recovery episodes entered.
    pub recoveries: u64,
    /// Times the subflow was declared dead.
    pub deaths: u64,
    /// Times a dead subflow was revived.
    pub revivals: u64,
    /// Revival probes sent while dead.
    pub probes: u64,
}

/// Per-connection counters spanning sender and receiver: flow-control stalls
/// and the receive-side discard accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConnCounters {
    /// Connection id.
    pub conn: u64,
    /// Times the sender parked behind the persist timer (advertised window
    /// zero with nothing outstanding).
    pub zero_window_stalls: u64,
    /// Persist-timer window probes sent.
    pub persist_probes: u64,
    /// Corrupted ACKs the sender discarded unparsed.
    pub corrupt_acks: u64,
    /// Corrupted data segments the receiver discarded unparsed.
    pub corrupt_discards: u64,
    /// Data segments refused because the receive buffer was full.
    pub rwnd_dropped: u64,
    /// Data segments refused by the subflow out-of-order buffer bound.
    pub ooo_dropped: u64,
    /// Duplicate data segments the receiver absorbed idempotently.
    pub duplicates: u64,
}

impl ConnCounters {
    /// True when nothing noteworthy happened on this connection.
    pub fn is_quiet(&self) -> bool {
        self.zero_window_stalls == 0
            && self.persist_probes == 0
            && self.corrupt_acks == 0
            && self.corrupt_discards == 0
            && self.rwnd_dropped == 0
            && self.ooo_dropped == 0
            && self.duplicates == 0
    }
}

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

/// Sweep-fabric accounting for one `bench_harness::fabric` run: how much
/// work the journal saved, how hard the retry layer worked, and what was
/// quarantined. Assembled by the fabric after the pool joins — like every
/// other counter here, the hot path pays nothing for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Cells in the planned grid.
    pub planned: u64,
    /// Cells satisfied by replaying the journal (not executed).
    pub replayed: u64,
    /// Cells executed this run (including ones later quarantined).
    pub executed: u64,
    /// Extra attempts beyond each cell's first (the retry bill).
    pub retries: u64,
    /// Attempts that ended in a caught panic.
    pub panics: u64,
    /// Attempts abandoned at their wall-clock deadline.
    pub deadline_kills: u64,
    /// Cells quarantined after retry exhaustion.
    pub quarantined: u64,
    /// Supervisor/worker accounting; all-zero for in-process runs.
    pub dist: DistCounters,
}

impl FabricCounters {
    /// Renders the one-line digest the fabric prints on stderr (two lines
    /// when the distributed layer ran).
    pub fn render(&self) -> String {
        let base = format!(
            "fabric: planned={} replayed={} executed={} retries={} panics={} \
             deadline_kills={} quarantined={}",
            self.planned,
            self.replayed,
            self.executed,
            self.retries,
            self.panics,
            self.deadline_kills,
            self.quarantined
        );
        if self.dist.is_idle() {
            base
        } else {
            format!("{base}\n{}", self.dist.render())
        }
    }
}

/// Accounting for one hybrid fluid/packet engine run: how flows were split
/// between the regimes, how often state crossed the boundary, and how hard
/// the fluid integrator worked. Assembled per epoch by the engine — the
/// integration hot path pays nothing for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridCounters {
    /// Coupling epochs advanced.
    pub epochs: u64,
    /// Flows currently integrated in the fluid regime.
    pub fluid_flows: u64,
    /// Flows attached to the packet engine over the run.
    pub packet_flows: u64,
    /// Packet flows that outlived the age threshold and were handed off to
    /// the fluid regime.
    pub handoffs: u64,
    /// RK4 steps integrated across all epochs.
    pub fluid_steps: u64,
    /// Times a fluid link price hit the loss-probability cap.
    pub price_cap_hits: u64,
    /// Packet links carrying a nonzero fluid background load after the last
    /// epoch.
    pub background_links: u64,
}

impl HybridCounters {
    /// Renders the one-line digest the hybrid harness prints on stderr.
    pub fn render(&self) -> String {
        format!(
            "hybrid: epochs={} fluid_flows={} packet_flows={} handoffs={} fluid_steps={} \
             price_cap_hits={} background_links={}",
            self.epochs,
            self.fluid_flows,
            self.packet_flows,
            self.handoffs,
            self.fluid_steps,
            self.price_cap_hits,
            self.background_links
        )
    }
}

/// A full counter snapshot for one run: the FlowSample-style view read off
/// a finished simulator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSnapshot {
    /// One entry per link, in link-id order.
    pub links: Vec<LinkCounters>,
    /// One entry per (connection, subflow).
    pub subflows: Vec<SubflowCounters>,
    /// One entry per connection.
    pub conns: Vec<ConnCounters>,
}

impl CounterSnapshot {
    /// Total drops across every link and cause.
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(LinkCounters::drops).sum()
    }

    /// Total fast-recovery episodes across every subflow.
    pub fn total_recoveries(&self) -> u64 {
        self.subflows.iter().map(|s| s.recoveries).sum()
    }

    /// Total RTO firings across every subflow.
    pub fn total_rtos(&self) -> u64 {
        self.subflows.iter().map(|s| s.rtos).sum()
    }

    /// Renders a compact human-readable digest (one line per non-idle link
    /// and subflow) for harness stdout.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for l in self.links.iter().filter(|l| {
            l.drops() > 0
                || l.queue_high_water > 0
                || l.reordered > 0
                || l.duplicated > 0
                || l.corrupted > 0
        }) {
            let _ = writeln!(
                out,
                "link {}: tx={} drops(queue={} fault={} blackout={}) ecn={} q_hwm={} \
                 reordered={} duplicated={} corrupted={}",
                l.link,
                l.tx_pkts,
                l.drops_queue,
                l.drops_fault,
                l.drops_blackout,
                l.ecn_marks,
                l.queue_high_water,
                l.reordered,
                l.duplicated,
                l.corrupted
            );
        }
        for s in &self.subflows {
            let _ = writeln!(
                out,
                "conn {} subflow {}: rtos={} fast_rexmits={} spurious={} recoveries={} \
                 deaths={} revivals={} probes={}",
                s.conn,
                s.subflow,
                s.rtos,
                s.fast_rexmits,
                s.spurious_rexmits,
                s.recoveries,
                s.deaths,
                s.revivals,
                s.probes
            );
        }
        for c in self.conns.iter().filter(|c| !c.is_quiet()) {
            let _ = writeln!(
                out,
                "conn {}: zw_stalls={} persist_probes={} corrupt(acks={} data={}) \
                 rwnd_dropped={} ooo_dropped={} duplicates={}",
                c.conn,
                c.zero_window_stalls,
                c.persist_probes,
                c.corrupt_acks,
                c.corrupt_discards,
                c.rwnd_dropped,
                c.ooo_dropped,
                c.duplicates
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_links_and_subflows() {
        let snap = CounterSnapshot {
            links: vec![
                LinkCounters { link: 0, drops_queue: 2, drops_blackout: 1, ..Default::default() },
                LinkCounters { link: 1, drops_fault: 4, ..Default::default() },
            ],
            subflows: vec![
                SubflowCounters { rtos: 3, recoveries: 2, ..Default::default() },
                SubflowCounters { subflow: 1, rtos: 1, recoveries: 1, ..Default::default() },
            ],
            conns: vec![
                ConnCounters { conn: 7, ..Default::default() },
                ConnCounters {
                    conn: 8,
                    zero_window_stalls: 1,
                    persist_probes: 4,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(snap.total_drops(), 7);
        assert_eq!(snap.total_recoveries(), 3);
        assert_eq!(snap.total_rtos(), 4);
        let text = snap.render();
        assert!(text.contains("blackout=1"), "{text}");
        assert!(text.contains("recoveries=2"), "{text}");
        // Quiet connections stay out of the digest; noisy ones show up.
        assert!(!text.contains("conn 7:"), "{text}");
        assert!(text.contains("conn 8: zw_stalls=1 persist_probes=4"), "{text}");
    }
}
