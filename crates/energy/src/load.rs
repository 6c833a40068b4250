//! The power-model trait: per-subflow load in, host watts out.

use transport::SubflowSample;

/// A power model: maps per-subflow load to host power in watts.
///
/// The load is the transport's own telemetry record, so a model reads
/// exactly what the sender sampled. Takes `&mut self` and the sample time
/// so stateful models (the LTE RRC tail-state machine) can be expressed
/// with the same trait as pure functions of load.
pub trait PowerModel {
    /// Power draw in watts at time `at_s` under the given per-subflow loads.
    fn power_w(&mut self, at_s: f64, paths: &[SubflowSample]) -> f64;

    /// Resets any internal state (RRC machines) for a fresh run.
    fn reset(&mut self) {}
}

/// An open subflow carrying `throughput_bps` at a steady `rtt_s` (base RTT
/// equal to the smoothed one): the load the model unit tests drive.
#[cfg(test)]
pub(crate) fn load(throughput_bps: f64, rtt_s: f64) -> SubflowSample {
    SubflowSample { throughput_bps, srtt_s: rtt_s, base_rtt_s: rtt_s, active: throughput_bps > 0.0 }
}
