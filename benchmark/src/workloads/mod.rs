//! The five workloads. Names and sizes are fixed here; the only input a
//! caller chooses is the seed (and `tiny`, which only `--selftest` sets).
//!
//! Every workload calls the program strictly through public, default-engine
//! API — `Simulator::new(seed)`, option structs completed with
//! `..Default::default()` — so that a later change which deletes an engine
//! or sweep knob cannot break the benchmark it is judged by. README.md lists
//! every entry point used.

pub mod dc_packet;
pub mod figs_smoke;
pub mod hybrid_fluid;
pub mod sweep_fabric;
pub mod wireless_lossy;

use crate::pass::Pass;
use congestion::{MultipathCongestionControl, SubflowCc};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 13 figure harnesses at smoke scale through the sweep fabric.
    FigsSmoke,
    /// Packet-level FatTree(k=8) permutation traffic.
    DcPacket,
    /// The lossy, impaired WiFi + LTE scenario over twelve algorithms.
    WirelessLossy,
    /// The hybrid fluid/packet engine on FatTree(k=8).
    HybridFluid,
    /// The sweep fabric itself over a trivial cell.
    SweepFabric,
}

impl Workload {
    /// Every workload, in the order a round interleaves them.
    pub const ALL: [Workload; 5] = [
        Workload::FigsSmoke,
        Workload::DcPacket,
        Workload::WirelessLossy,
        Workload::HybridFluid,
        Workload::SweepFabric,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigsSmoke => "figs_smoke",
            Workload::DcPacket => "dc_packet",
            Workload::WirelessLossy => "wireless_lossy",
            Workload::HybridFluid => "hybrid_fluid",
            Workload::SweepFabric => "sweep_fabric",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `work_per_s` counts for this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::FigsSmoke => "figures",
            Workload::DcPacket => "acked data packets",
            Workload::WirelessLossy => "simulator events",
            Workload::HybridFluid => "fluid path-steps",
            Workload::SweepFabric => "cells",
        }
    }

    /// Runs one pass. The benchmark's own RNG, seeded here, generates every
    /// input; the program under test receives only those inputs.
    ///
    /// # Errors
    ///
    /// On a harness-level failure (fabric planning, journal or spool IO).
    /// Failed *cells* are recorded in `pass`, not returned.
    pub fn pass(self, seed: u64, pass: &mut Pass) -> Result<(), String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            Workload::FigsSmoke => figs_smoke::pass(pass),
            Workload::DcPacket => dc_packet::pass(&mut rng, pass),
            Workload::WirelessLossy => wireless_lossy::pass(&mut rng, pass),
            Workload::HybridFluid => hybrid_fluid::pass(&mut rng, pass),
            Workload::SweepFabric => sweep_fabric::pass(seed, pass),
        }
    }
}

/// `on_ack` / `on_loss` call counts shared by every flow of a cell: the
/// benchmark-owned view of the `congestion` layer boundary. Counts only in
/// traced passes; untraced passes run the bare algorithm.
#[derive(Clone, Debug)]
pub(crate) struct CcCalls {
    on: bool,
    on_ack: Arc<AtomicU64>,
    on_loss: Arc<AtomicU64>,
}

impl CcCalls {
    pub(crate) fn new(on: bool) -> CcCalls {
        CcCalls { on, on_ack: Arc::default(), on_loss: Arc::default() }
    }

    /// `algo` itself, or (traced) `algo` behind a forwarding wrapper that
    /// counts calls.
    pub(crate) fn wrap(
        &self,
        algo: Box<dyn MultipathCongestionControl>,
    ) -> Box<dyn MultipathCongestionControl> {
        if self.on {
            Box::new(CountingCc { inner: algo, calls: self.clone() })
        } else {
            algo
        }
    }

    /// Adds the counts to the pass's ledger; the per-algorithm ACK count
    /// feeds the run-share estimate.
    pub(crate) fn count_into(&self, pass: &mut Pass, algo_label: &str) {
        let acks = self.on_ack.load(Ordering::Relaxed) as f64;
        pass.count("congestion.on_ack_calls", acks);
        pass.count("congestion.on_loss_calls", self.on_loss.load(Ordering::Relaxed) as f64);
        pass.count(&format!("congestion.on_ack_calls.{}", algo_label.replace('-', "_")), acks);
    }
}

#[derive(Debug)]
struct CountingCc {
    inner: Box<dyn MultipathCongestionControl>,
    calls: CcCalls,
}

impl MultipathCongestionControl for CountingCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, ecn_echo: bool) {
        // Relaxed: a statistic read after the simulator has stopped.
        self.calls.on_ack.fetch_add(1, Ordering::Relaxed);
        self.inner.on_ack(r, flows, newly_acked, ecn_echo);
    }
    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]) {
        self.calls.on_loss.fetch_add(1, Ordering::Relaxed);
        self.inner.on_loss(r, flows);
    }
    fn on_timeout(&mut self, r: usize, flows: &mut [SubflowCc]) {
        self.inner.on_timeout(r, flows);
    }
    fn wants_ecn(&self) -> bool {
        self.inner.wants_ecn()
    }
    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl> {
        Box::new(CountingCc { inner: self.inner.fresh_box(), calls: self.calls.clone() })
    }
}

/// `Err` unless `v` is finite and strictly positive — the sanity rule for
/// every energy, goodput and J/Gbit figure a cell reports.
pub(crate) fn positive(what: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(format!("{what} = {v} is not finite and positive"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn positive_rejects_degenerate_values() {
        assert!(positive("x", 1.0).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(positive("x", bad).is_err());
        }
    }
}
