//! The lease state machine: who owns a shard, until when, and why it was
//! taken away.
//!
//! A lease is the supervisor's claim ledger for one `(shard, generation)`
//! dispatch: granted when the worker is spawned, renewed every time the
//! worker's streamed response file shows **progress** (a new completed
//! cell), and revoked when the deadline passes without progress. Liveness
//! and progress are deliberately separate signals:
//!
//! * **Heartbeats** prove the worker process is alive (its heartbeat thread
//!   still appends). A lapse means the process is gone or wedged solid —
//!   cause [`RevokeCause::HeartbeatLapse`].
//! * **Progress** proves the worker is doing useful work. A worker whose
//!   heartbeats keep arriving but whose response file stops growing past
//!   the lease deadline is *stalled* (livelocked cell, infinite loop below
//!   the per-attempt deadline radar) — cause [`RevokeCause::Stall`].
//! * A worker whose **process exits** without a complete response crashed —
//!   detected by the supervisor's `try_wait`, never by this module (like
//!   invalid responses, it is revoked where it is seen, under a plain
//!   reason tag).
//!
//! Everything here is pure: time enters only as caller-supplied millisecond
//! readings (the supervisor passes wall-clock milliseconds; tests pass
//! literals), so every edge — completion exactly at the deadline, a
//! heartbeat racing a revocation — is unit-testable without sleeping.
//! Boundary law: **completion at exactly the deadline wins**; expiry is
//! strictly after ([`Lease::assess`] fires only when `now > deadline`), and
//! the supervisor harvests any complete response before assessing, so a
//! worker that finishes on the stroke of its deadline is never revoked.

/// Why [`Lease::assess`] wants a lease revoked. Carried into
/// [`super::DistEvent::LeaseRevoked`] and the counter accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RevokeCause {
    /// No heartbeat inside the liveness window: the process is gone or
    /// wedged too hard to run its heartbeat thread.
    HeartbeatLapse,
    /// Heartbeats kept arriving but no new cell completed before the lease
    /// deadline: the worker is alive but not progressing.
    Stall,
}

impl RevokeCause {
    /// The stable tag used in events and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            RevokeCause::HeartbeatLapse => "heartbeat_lapse",
            RevokeCause::Stall => "stall",
        }
    }
}

/// One granted lease: a shard/generation owned by a named worker, with a
/// progress-renewed deadline and a liveness clock.
#[derive(Clone, Debug)]
pub struct Lease {
    /// The shard this lease covers.
    pub shard: usize,
    /// The dispatch generation (0 = first dispatch, +1 per re-dispatch).
    pub gen: u64,
    /// The worker id the supervisor assigned.
    pub worker: String,
    /// The lease expires strictly *after* this instant; renewed to
    /// `now + lease_ms` on every progress observation.
    pub deadline_ms: u64,
    /// Last instant a fresh heartbeat was observed (starts at grant).
    pub last_heartbeat_ms: u64,
    /// Highest heartbeat sequence number seen (monotone per worker file).
    pub heartbeat_seq: u64,
    /// Cells observed complete in the streamed response so far.
    pub progress: usize,
}

impl Lease {
    /// Grants a lease at `now_ms` running for `lease_ms`.
    pub fn grant(shard: usize, gen: u64, worker: String, now_ms: u64, lease_ms: u64) -> Lease {
        Lease {
            shard,
            gen,
            worker,
            deadline_ms: now_ms.saturating_add(lease_ms),
            last_heartbeat_ms: now_ms,
            heartbeat_seq: 0,
            progress: 0,
        }
    }

    /// Records a heartbeat observation: the worker's heartbeat file reached
    /// sequence `seq`. Only a *fresh* sequence advances the liveness clock —
    /// re-reading the same last line must not keep a dead worker alive.
    pub fn observe_heartbeat(&mut self, seq: u64, now_ms: u64) {
        if seq > self.heartbeat_seq {
            self.heartbeat_seq = seq;
            self.last_heartbeat_ms = now_ms;
        }
    }

    /// Records a progress observation: `cells_done` cells are now complete
    /// in the streamed response. New progress renews the deadline to
    /// `now + lease_ms` — a worker steadily finishing cells keeps its lease
    /// however long the whole shard takes.
    pub fn observe_progress(&mut self, cells_done: usize, now_ms: u64, lease_ms: u64) {
        if cells_done > self.progress {
            self.progress = cells_done;
            self.deadline_ms = now_ms.saturating_add(lease_ms);
        }
    }

    /// Assesses the lease at `now_ms`: `None` while healthy, or the cause
    /// the supervisor must revoke it for. Deadline expiry is **strictly
    /// after** `deadline_ms` — a worker observed complete at exactly the
    /// deadline wins, because the supervisor checks completion first.
    pub fn assess(&self, now_ms: u64, heartbeat_timeout_ms: u64) -> Option<RevokeCause> {
        let silent_for = now_ms.saturating_sub(self.last_heartbeat_ms);
        if silent_for > heartbeat_timeout_ms {
            return Some(RevokeCause::HeartbeatLapse);
        }
        if now_ms > self.deadline_ms {
            return Some(RevokeCause::Stall);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease() -> Lease {
        // Granted at t=1000ms, 500ms lease.
        Lease::grant(2, 0, "w2-g0".to_owned(), 1000, 500)
    }

    #[test]
    fn finishing_exactly_at_the_deadline_wins() {
        let mut l = lease();
        // Heartbeats stay fresh throughout.
        l.observe_heartbeat(1, 1400);
        // At exactly deadline_ms the lease is still healthy: the supervisor
        // checks response completeness before assessing, so a worker whose
        // final cell lands on the stroke of the deadline is harvested, not
        // revoked.
        assert_eq!(l.deadline_ms, 1500);
        assert_eq!(l.assess(1500, 10_000), None, "expiry is strictly after the deadline");
        assert_eq!(l.assess(1501, 10_000), Some(RevokeCause::Stall));
    }

    #[test]
    fn progress_renews_the_deadline_but_heartbeats_do_not() {
        let mut l = lease();
        l.observe_heartbeat(1, 1499);
        assert_eq!(l.deadline_ms, 1500, "liveness alone must not extend the lease");
        l.observe_progress(1, 1400, 500);
        assert_eq!(l.deadline_ms, 1900, "a completed cell renews the lease");
        // Re-observing the same progress count is not new progress.
        l.observe_progress(1, 1890, 500);
        assert_eq!(l.deadline_ms, 1900);
        assert_eq!(l.progress, 1);
    }

    #[test]
    fn stall_vs_heartbeat_lapse_are_distinguished() {
        let mut l = lease();
        // Case 1: heartbeats fresh, no progress past deadline → Stall.
        l.observe_heartbeat(3, 1600);
        assert_eq!(l.assess(1601, 10_000), Some(RevokeCause::Stall));
        // Case 2: heartbeats silent past the liveness window → lapse, even
        // before the lease deadline.
        let l2 = lease();
        assert_eq!(l2.assess(1400, 300), Some(RevokeCause::HeartbeatLapse));
        // Within the window and the deadline: healthy.
        assert_eq!(l2.assess(1200, 300), None);
    }

    #[test]
    fn stale_heartbeat_rereads_do_not_prove_liveness() {
        let mut l = lease();
        l.observe_heartbeat(5, 1100);
        // The same sequence re-read later must not advance the clock: the
        // file's last line does not change when the worker dies.
        l.observe_heartbeat(5, 1900);
        assert_eq!(l.last_heartbeat_ms, 1100);
        assert_eq!(l.assess(1900, 700), Some(RevokeCause::HeartbeatLapse));
    }
}
