//! Periodic per-flow telemetry used for energy accounting and traces.

use netsim::SimTime;

/// One subflow's load during a sampling interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubflowSample {
    /// Goodput over the interval, in bits/second (acked packets × MSS).
    pub throughput_bps: f64,
    /// Smoothed RTT at the sample instant, in seconds (0 before any sample).
    pub srtt_s: f64,
    /// Minimum RTT observed so far, in seconds (0 before any sample).
    pub base_rtt_s: f64,
    /// Whether the subflow is open: neither dead nor finished.
    ///
    /// An open-but-momentarily-idle subflow (`active` with zero throughput)
    /// stays `active`: the paper's measurement section attributes radio
    /// tail/idle energy to *open* subflows, and the LTE RRC model keeps a
    /// connected radio in its high-power tail state between bursts. Gating on
    /// `throughput_bps > 0.0` would zero out exactly that energy.
    pub active: bool,
}

impl SubflowSample {
    /// A closed, idle interface.
    pub const IDLE: SubflowSample =
        SubflowSample { throughput_bps: 0.0, srtt_s: 0.0, base_rtt_s: 0.0, active: false };
}

/// One path's measured state at the moment a packet-level connection is
/// frozen by [`crate::MptcpSender::halt`], used by the hybrid engine to seed
/// the fluid regime's initial conditions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathHandoff {
    /// Lifetime-average delivery rate on this path, packets/second.
    pub rate_pps: f64,
    /// Smoothed RTT at handoff, seconds (0 before any RTT sample).
    pub srtt_s: f64,
    /// Minimum RTT observed, seconds (0 before any RTT sample).
    pub base_rtt_s: f64,
}

/// A snapshot of a connection's per-subflow load at an instant.
///
/// The sender records one of these every [`crate::FlowConfig::sample_every`];
/// the energy crate integrates a power model over the resulting series.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowSample {
    /// Sample timestamp.
    pub at: SimTime,
    /// Interval covered by the sample, in seconds.
    pub interval_s: f64,
    /// Per-subflow loads, indexed by subflow.
    pub subflows: Vec<SubflowSample>,
}

impl FlowSample {
    /// Aggregate throughput across subflows, bits/second.
    pub fn total_throughput_bps(&self) -> f64 {
        self.subflows.iter().map(|s| s.throughput_bps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = FlowSample {
            at: SimTime::ZERO,
            interval_s: 0.01,
            subflows: vec![
                SubflowSample { throughput_bps: 1e6, srtt_s: 0.01, base_rtt_s: 0.01, active: true },
                SubflowSample {
                    throughput_bps: 2e6,
                    srtt_s: 0.02,
                    base_rtt_s: 0.01,
                    active: false,
                },
            ],
        };
        // 1e6 + 2e6 is exact in f64, so the sum must equal 3e6 bit-for-bit.
        #[allow(clippy::float_cmp)]
        {
            assert_eq!(s.total_throughput_bps(), 3e6);
        }
    }
}
