//! # obs — structured trace observability layer
//!
//! The paper's energy claims rest on *why* traffic shifts between paths:
//! which drops, retransmissions, and recovery episodes drove each
//! algorithm's window evolution. This crate makes every simulation run
//! auditable without re-running it under a debugger:
//!
//! - [`event::TraceEvent`] — a typed, all-`Copy` event taxonomy (packet
//!   enqueue/drop with cause, fast retransmit vs RTO, recovery enter/exit,
//!   cwnd change, subflow death/revival, scheduler decision, fault
//!   transition);
//! - [`sink::TraceSink`] — the consumer trait, with JSONL
//!   ([`sink::JsonlSink`]), ring-buffer ([`sink::RingSink`]) and in-memory
//!   implementations; the no-op default is simply *no sink installed*,
//!   which costs one branch and zero allocations on the hot path;
//! - [`record`] — the one-line JSON dialect every trace, journal, spool
//!   and artifact line is written and read through;
//! - [`summary`] — the JSONL summarizer behind the `trace_dump` binary.
//!
//! Counters live in the crate that increments them (`netsim::LinkStats`,
//! `transport::SubflowCounters`, …); `tests/trace_roundtrip.rs` checks that
//! a trace and those counters agree.
//!
//! ## Determinism contract
//!
//! Sinks **observe**; they never consume simulator RNG, schedule events, or
//! otherwise feed back into the run. `tests/sweep_determinism.rs` pins that
//! a traced run and an untraced run of the same cell are byte-identical in
//! simulation results, and `netsim/tests/trace_noalloc.rs` pins that the
//! disabled path allocates nothing.

pub mod event;
pub mod record;
pub mod sink;
pub mod summary;

pub use event::{DiscardCause, DropCause, FaultKind, ImpairKind, RecoveryCause, TraceEvent};
pub use sink::{jsonl_sink_in, sanitize_label, trace_path, JsonlSink, RingSink, TraceSink};
pub use summary::{summarize, TraceSummary};
