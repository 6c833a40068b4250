//! Energy integration: turn transport telemetry into joules.
//!
//! The paper computes `E_total = (M/τ̄)·Σ_r P_r(τ_r, RTT_r)` (its Equation
//! (2)) by reading RAPL counters during a transfer. Here the transport layer
//! records per-subflow load samples and this module integrates a
//! [`PowerModel`] over them: `E = Σ_i P(t_i, loads_i)·Δt_i`.

use crate::load::PowerModel;
use transport::FlowSample;

/// The result of integrating a power model over a load series.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyReport {
    /// Total energy, joules.
    pub joules: f64,
    /// Series duration, seconds.
    pub duration_s: f64,
    /// Time-averaged power, watts.
    pub mean_power_w: f64,
    /// `(t, watts)` power trace for figures.
    pub trace: Vec<(f64, f64)>,
}

/// Integrates `model` over a flow's telemetry series.
///
/// The model is `reset` first, so stateful models start from idle.
pub fn energy_of_flow(model: &mut dyn PowerModel, samples: &[FlowSample]) -> EnergyReport {
    model.reset();
    let mut joules = 0.0;
    let mut duration = 0.0;
    let mut trace = Vec::with_capacity(samples.len());
    for s in samples {
        let at = s.at.as_secs_f64();
        let p = model.power_w(at, &s.subflows);
        joules += p * s.interval_s;
        duration += s.interval_s;
        trace.push((at, p));
    }
    EnergyReport {
        joules,
        duration_s: duration,
        mean_power_w: if duration > 0.0 { joules / duration } else { 0.0 },
        trace,
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin outputs that are copies of model constants (base/tail/idle watts, zero throughput) reached without arithmetic, so exact float comparison is the correct strictness"
)]
mod tests {
    use super::*;
    use crate::cpu::WiredCpuModel;
    use netsim::SimTime;
    use transport::SubflowSample;

    fn sample(at_s: f64, mbps: f64) -> FlowSample {
        FlowSample {
            at: SimTime::from_secs_f64(at_s),
            interval_s: 0.1,
            subflows: vec![SubflowSample {
                throughput_bps: mbps * 1e6,
                srtt_s: 0.02,
                base_rtt_s: 0.02,
                active: mbps > 0.0,
            }],
        }
    }

    #[test]
    fn constant_power_integrates_linearly() {
        let mut m = WiredCpuModel::i7_3770();
        let samples: Vec<_> = (0..10).map(|i| sample(i as f64 * 0.1, 100.0)).collect();
        let report = energy_of_flow(&mut m, &samples);
        assert!((report.duration_s - 1.0).abs() < 1e-9);
        assert!((report.joules - report.mean_power_w).abs() < 1e-9);
        assert_eq!(report.trace.len(), 10);
        // All samples identical → flat trace.
        let p0 = report.trace[0].1;
        assert!(report.trace.iter().all(|(_, p)| (p - p0).abs() < 1e-9));
    }

    fn sample_with(at_s: f64, mbps: f64, active: bool) -> FlowSample {
        FlowSample {
            at: SimTime::from_secs_f64(at_s),
            interval_s: 0.1,
            subflows: vec![SubflowSample {
                throughput_bps: mbps * 1e6,
                srtt_s: 0.05,
                base_rtt_s: 0.05,
                active,
            }],
        }
    }

    #[test]
    fn open_idle_subflow_still_charges_connected_radio_power() {
        use crate::radio::{LteModel, RrcState};
        // A burst, then the connection stays open but momentarily idle
        // (active subflow, zero throughput) for 3 s.
        let mut samples = vec![sample_with(0.0, 5.0, true), sample_with(0.5, 5.0, true)];
        for i in 1..=30 {
            samples.push(sample_with(0.5 + i as f64 * 0.1, 0.0, true));
        }
        let mut lte = LteModel::mobisys2012();
        let report = energy_of_flow(&mut lte, &samples);
        // The open subflow keeps the RRC machine in CONNECTED: mid-idle
        // power is the CONNECTED base, not the tail (1.060 W) or idle
        // (0.0594 W) power the old `throughput_bps > 0.0` gate produced.
        assert_eq!(lte.state(), RrcState::Connected);
        let (_, p_open_idle) = report.trace[20];
        assert!((p_open_idle - lte.base_w).abs() < 1e-9, "open-idle power {p_open_idle}");
        // A *closed* subflow still releases the radio into the tail.
        let mut closing = samples.clone();
        closing.push(sample_with(3.7, 0.0, false));
        let mut lte2 = LteModel::mobisys2012();
        let report2 = energy_of_flow(&mut lte2, &closing);
        assert_eq!(lte2.state(), RrcState::Tail);
        let (_, p_tail) = *report2.trace.last().unwrap();
        assert!((p_tail - lte2.tail_w).abs() < 1e-9, "tail power {p_tail}");
    }
}
