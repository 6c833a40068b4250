//! Failure containment: panic capture, wall-clock deadlines, and bounded
//! exponential backoff.
//!
//! Each attempt runs the cell's closure under `catch_unwind`, optionally on
//! a dedicated thread so the claiming worker can give up at a wall-clock
//! deadline (the process-level analogue of the `netsim::sim` stall
//! watchdog, which can only see stalls *inside* a simulator that is still
//! stepping — a cell spinning in scenario setup, or a genuine livelock,
//! never reaches the watchdog). A timed-out attempt's thread cannot be
//! killed, so it is detached: it keeps running to completion on its own
//! private simulator and its result is discarded. That leaks CPU, not
//! correctness — cells share no state.
//!
//! Wall-clock note: deadlines and backoff sleeps are the fabric's sanctioned
//! wall-clock waits. They live here, outside the deterministic planning and
//! merge paths, and can never influence a cell's *output* — only whether the
//! fabric keeps waiting for it. They wait with `recv_timeout` and `sleep`
//! and never read the clock, which clippy's `disallowed-methods` bans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Bounded exponential retry: attempt `k` (1-based) is retried after
/// `base · 2^(k-1)`, capped at `max_backoff`, until `max_attempts` attempts
/// have failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell (clamped to ≥ 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 100 ms base, 5 s ceiling.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Attempts actually granted (≥ 1).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The `nth` backoff (1-based): `base · 2^(n-1)`, capped at the
    /// ceiling. Also paces the distributed supervisor's re-dispatches.
    pub fn backoff(&self, nth: u32) -> Duration {
        let exp = nth.saturating_sub(1).min(20);
        self.base_backoff.saturating_mul(1 << exp).min(self.max_backoff)
    }

    /// The backoff to sleep after failed attempt `attempt` (1-based), or
    /// `None` when the policy is exhausted and the cell must be
    /// quarantined.
    pub fn backoff_after(&self, attempt: u32) -> Option<Duration> {
        (attempt < self.attempts()).then(|| self.backoff(attempt))
    }
}

/// Why an attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailCause {
    /// The cell's closure panicked.
    Panic,
    /// The cell exceeded its wall-clock deadline.
    Deadline,
    /// The distributed fabric exhausted its shard re-dispatch budget for
    /// the worker(s) responsible for this cell (crashes, stalls, or invalid
    /// responses — the supervisor's events name which).
    Worker,
}

impl FailCause {
    /// The journal/report tag.
    pub fn as_str(self) -> &'static str {
        match self {
            FailCause::Panic => "panic",
            FailCause::Deadline => "deadline",
            FailCause::Worker => "worker",
        }
    }

    /// The inverse of [`Self::as_str`] for the causes a worker can report
    /// on a `failed` line. `"worker"` is minted by the supervisor alone, so
    /// on the wire it is as unknown as any other tag.
    pub fn reported(tag: &str) -> Option<FailCause> {
        [FailCause::Panic, FailCause::Deadline].into_iter().find(|c| c.as_str() == tag)
    }
}

/// The outcome of one attempt.
#[derive(Debug)]
pub enum Attempt<T> {
    /// The cell completed.
    Done(T),
    /// The cell failed with this cause and message.
    Failed(FailCause, String),
}

pub use crate::runner::panic_message;

/// The runnable side of a fabric cell: shared (`Arc`) so retries and
/// detached deadline threads can each hold an execution handle.
pub type CellFn<T> = Arc<dyn Fn() -> T + Send + Sync + 'static>;

/// Runs one attempt of `run`, catching panics; with a deadline, the attempt
/// runs on its own thread and is abandoned (detached, result discarded) if
/// the deadline passes first.
pub fn run_attempt<T: Send + 'static>(
    label: &str,
    run: &CellFn<T>,
    deadline: Option<Duration>,
) -> Attempt<T> {
    let Some(deadline) = deadline else {
        // No deadline: run on the claiming worker, no thread spawn.
        return match catch_unwind(AssertUnwindSafe(|| run())) {
            Ok(out) => Attempt::Done(out),
            Err(payload) => Attempt::Failed(FailCause::Panic, panic_message(payload.as_ref())),
        };
    };
    let (tx, rx) = mpsc::channel();
    let thread_run = Arc::clone(run);
    let spawned =
        std::thread::Builder::new().name(format!("fabric-cell-{label}")).spawn(move || {
            // Send failing means the claimer timed out and went away; the
            // result is discarded with the channel.
            let _ = tx.send(catch_unwind(AssertUnwindSafe(|| thread_run())));
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => {
            return Attempt::Failed(FailCause::Panic, format!("cannot spawn cell thread: {e}"))
        }
    };
    match rx.recv_timeout(deadline) {
        Ok(Ok(out)) => {
            let _ = handle.join();
            Attempt::Done(out)
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            Attempt::Failed(FailCause::Panic, panic_message(payload.as_ref()))
        }
        Err(_) => {
            // Deadline passed: detach the runaway thread and move on.
            drop(handle);
            Attempt::Failed(
                FailCause::Deadline,
                format!("exceeded wall-clock deadline of {:.3}s", deadline.as_secs_f64()),
            )
        }
    }
}

/// Per-cell attempt accounting, aggregated into [`super::FabricCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttemptStats {
    /// Attempts consumed, including the first.
    pub attempts: u32,
    /// Attempts that ended in a caught panic.
    pub panics: u32,
    /// Attempts abandoned at the wall-clock deadline.
    pub deadline_kills: u32,
}

/// A cell's final outcome: its output, or the last failure.
pub type CellResult<T> = Result<T, (FailCause, String)>;

/// Runs a cell to completion under `policy`: attempts with backoff until
/// success or exhaustion. Returns the successful output, or the **last**
/// failure, plus the per-cause attempt accounting.
pub fn run_with_retries<T: Send + 'static>(
    label: &str,
    run: &CellFn<T>,
    deadline: Option<Duration>,
    policy: &RetryPolicy,
) -> (CellResult<T>, AttemptStats) {
    let mut stats = AttemptStats::default();
    loop {
        stats.attempts += 1;
        match run_attempt(label, run, deadline) {
            Attempt::Done(out) => return (Ok(out), stats),
            Attempt::Failed(cause, message) => {
                match cause {
                    FailCause::Panic => stats.panics += 1,
                    FailCause::Deadline => stats.deadline_kills += 1,
                    // In-process attempts can only panic or time out; Worker
                    // is minted by the distributed supervisor, never here.
                    FailCause::Worker => {}
                }
                match policy.backoff_after(stats.attempts) {
                    Some(backoff) => std::thread::sleep(backoff),
                    None => return (Err((cause, message)), stats),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cell(f: impl Fn() -> u64 + Send + Sync + 'static) -> CellFn<u64> {
        Arc::new(f)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff_after(1), Some(Duration::from_millis(10)));
        assert_eq!(p.backoff_after(2), Some(Duration::from_millis(20)));
        assert_eq!(p.backoff_after(3), Some(Duration::from_millis(35)), "capped");
        assert_eq!(p.backoff_after(4), Some(Duration::from_millis(35)));
        assert_eq!(p.backoff_after(5), None, "exhausted after max_attempts");
        assert_eq!(RetryPolicy::none().backoff_after(1), None);
        // Degenerate max_attempts clamps to one attempt.
        let zero = RetryPolicy { max_attempts: 0, ..p };
        assert_eq!(zero.attempts(), 1);
        assert_eq!(zero.backoff_after(1), None);
        // The bare formula (what paces re-dispatches) never runs out.
        let ms = |nth| p.backoff(nth).as_millis();
        assert_eq!((ms(1), ms(2), ms(3), ms(21)), (10, 20, 35, 35));
    }

    #[test]
    fn attempts_catch_panics_with_messages() {
        let ok = run_attempt("ok", &cell(|| 7), None);
        assert!(matches!(ok, Attempt::Done(7)));
        let boom: CellFn<u64> = Arc::new(|| panic!("boom at seed 3"));
        match run_attempt("boom", &boom, None) {
            Attempt::Failed(FailCause::Panic, msg) => {
                assert!(msg.contains("boom at seed 3"), "{msg}");
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
        // Non-string payloads are named, not lost.
        let odd: CellFn<u64> = Arc::new(|| std::panic::panic_any(42u32));
        match run_attempt("odd", &odd, None) {
            Attempt::Failed(FailCause::Panic, msg) => {
                assert!(msg.contains("non-string"), "{msg}");
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
    }

    #[test]
    fn deadline_abandons_hung_cells() {
        let hung = cell(|| {
            std::thread::sleep(Duration::from_secs(2));
            1
        });
        match run_attempt("hung", &hung, Some(Duration::from_millis(30))) {
            Attempt::Failed(FailCause::Deadline, msg) => assert!(msg.contains("deadline"), "{msg}"),
            other => panic!("expected deadline failure, got {other:?}"),
        }
        // A fast cell under the same deadline completes normally.
        match run_attempt("fast", &cell(|| 9), Some(Duration::from_secs(10))) {
            Attempt::Done(9) => {}
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn retries_back_off_then_succeed_or_quarantine() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let flaky: CellFn<u64> = Arc::new(move || {
            let n = c.fetch_add(1, Ordering::Relaxed);
            assert!(n >= 2, "flaky failure #{n}");
            n.into()
        });
        let (out, stats) = run_with_retries("flaky", &flaky, None, &policy);
        assert_eq!(stats, AttemptStats { attempts: 3, panics: 2, deadline_kills: 0 });
        assert!(matches!(out, Ok(2)), "third attempt should succeed");
        // Exhaustion reports the last failure and the full attempt count.
        let always: CellFn<u64> = Arc::new(|| panic!("always"));
        let (out, stats) = run_with_retries("always", &always, None, &policy);
        assert_eq!(stats, AttemptStats { attempts: 3, panics: 3, deadline_kills: 0 });
        match out {
            Err((FailCause::Panic, msg)) => assert!(msg.contains("always"), "{msg}"),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
