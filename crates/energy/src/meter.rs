//! Energy integration: turn transport telemetry into joules.
//!
//! The paper computes `E_total = (M/τ̄)·Σ_r P_r(τ_r, RTT_r)` (its Equation
//! (2)) by reading RAPL counters during a transfer. Here the transport layer
//! records per-subflow load samples and this module integrates a
//! [`PowerModel`] over them: `E = Σ_i P(t_i, loads_i)·Δt_i`.

use crate::load::{PathLoad, PowerModel};
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

impl EnergyReport {
    /// Energy per delivered bit, joules/bit, given total delivered bits.
    pub fn joules_per_bit(&self, delivered_bits: f64) -> f64 {
        if delivered_bits > 0.0 {
            self.joules / delivered_bits
        } else {
            f64::INFINITY
        }
    }
}

/// Converts one telemetry sample into per-path loads.
///
/// An open-but-momentarily-idle subflow (`active` with zero throughput)
/// stays `active`: the paper's measurement section attributes radio
/// tail/idle energy to *open* subflows, and the LTE RRC model keeps a
/// connected radio in its high-power tail state between bursts. Gating on
/// `throughput_bps > 0.0` here used to zero out exactly that energy.
pub fn loads_of(sample: &FlowSample) -> Vec<PathLoad> {
    sample
        .subflows
        .iter()
        .map(|s| PathLoad {
            throughput_bps: s.throughput_bps,
            rtt_s: s.srtt_s,
            base_rtt_s: s.base_rtt_s,
            active: s.active,
        })
        .collect()
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
        let loads = loads_of(s);
        let at = s.at.as_secs_f64();
        let p = model.power_w(at, &loads);
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

/// A host-level load series: per-interface loads on a fixed time grid,
/// aggregated across all flows originating at one host.
///
/// Used when several parallel connections share one host CPU (the paper's
/// Fig. 6 scenario runs N senders on one machine).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostLoadSeries {
    /// Grid step, seconds.
    pub bin_s: f64,
    /// `bins[t][iface]` load at grid point `t`.
    pub bins: Vec<Vec<PathLoad>>,
    /// Samples discarded by [`HostLoadSeries::add_flow`] because they fell
    /// past the horizon.
    pub dropped_samples: u64,
}

impl HostLoadSeries {
    /// Builds a grid of `n_ifaces` interfaces with `bin_s` resolution
    /// covering `horizon_s`.
    pub fn new(n_ifaces: usize, bin_s: f64, horizon_s: f64) -> Self {
        let n = (horizon_s / bin_s).ceil() as usize;
        HostLoadSeries { bin_s, bins: vec![vec![PathLoad::IDLE; n_ifaces]; n], dropped_samples: 0 }
    }

    /// The grid index of a sample at `at_s` seconds: `floor(at / bin)` with
    /// an epsilon so a sample landing on an exact bin edge deterministically
    /// bins *forward* rather than hinging on float rounding (a sample at
    /// `0.3 s` with 0.1 s bins is bin 3 even when `0.3 / 0.1` computes as
    /// `2.9999…`). `None` when past the horizon.
    fn bin_index(&self, at_s: f64) -> Option<usize> {
        let raw = at_s / self.bin_s;
        let idx = (raw + 1e-9).floor().max(0.0) as usize;
        (idx < self.bins.len()).then_some(idx)
    }

    /// Accumulates a flow's samples. `iface_of[subflow]` maps the flow's
    /// subflow index to the host interface it uses. Samples past the horizon
    /// are counted in [`HostLoadSeries::dropped_samples`] instead of being
    /// silently discarded.
    pub fn add_flow(&mut self, samples: &[FlowSample], iface_of: &[usize]) {
        for s in samples {
            let Some(idx) = self.bin_index(s.at.as_secs_f64()) else {
                self.dropped_samples += 1;
                continue;
            };
            let bin = &mut self.bins[idx];
            for (r, sub) in s.subflows.iter().enumerate() {
                let iface = iface_of.get(r).copied().unwrap_or(r);
                let Some(slot) = bin.get_mut(iface) else { continue };
                // Sum throughput; carry the worst RTT as the interface RTT
                // (the CPU cost term is driven by the flows still queuing).
                slot.throughput_bps += sub.throughput_bps;
                if sub.srtt_s > slot.rtt_s {
                    slot.rtt_s = sub.srtt_s;
                    slot.base_rtt_s = sub.base_rtt_s;
                }
                // Open subflows stay active even between bursts (tail/idle
                // energy accrues to open radios; see `loads_of`).
                slot.active |= sub.active;
            }
        }
    }

    /// Integrates a power model over the host series, stopping after
    /// `until_s` if given (e.g. the last flow's completion).
    pub fn energy(&self, model: &mut dyn PowerModel, until_s: Option<f64>) -> EnergyReport {
        model.reset();
        let mut joules = 0.0;
        let mut duration = 0.0;
        let mut trace = Vec::with_capacity(self.bins.len());
        for (i, bin) in self.bins.iter().enumerate() {
            let at = i as f64 * self.bin_s;
            if let Some(limit) = until_s {
                if at >= limit {
                    break;
                }
            }
            let p = model.power_w(at, bin);
            joules += p * self.bin_s;
            duration += self.bin_s;
            trace.push((at, p));
        }
        EnergyReport {
            joules,
            duration_s: duration,
            mean_power_w: if duration > 0.0 { joules / duration } else { 0.0 },
            trace,
        }
    }
}

#[cfg(test)]
// Tests pin outputs that are copies of model constants (base/tail/idle
// watts, zero throughput) reached without arithmetic, so exact float
// comparison is the correct strictness.
#[allow(clippy::float_cmp)]
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
                cwnd_pkts: 10.0,
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

    #[test]
    fn joules_per_bit_guards_zero() {
        let r = EnergyReport { joules: 10.0, duration_s: 1.0, mean_power_w: 10.0, trace: vec![] };
        assert!(r.joules_per_bit(0.0).is_infinite());
        assert!((r.joules_per_bit(100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn host_series_aggregates_two_flows() {
        let mut series = HostLoadSeries::new(1, 0.1, 1.0);
        let f1: Vec<_> = (0..10).map(|i| sample(i as f64 * 0.1, 10.0)).collect();
        let f2: Vec<_> = (0..10).map(|i| sample(i as f64 * 0.1, 20.0)).collect();
        series.add_flow(&f1, &[0]);
        series.add_flow(&f2, &[0]);
        assert!((series.bins[0][0].throughput_bps - 30e6).abs() < 1.0);
        let mut m = WiredCpuModel::i7_3770();
        let report = series.energy(&mut m, None);
        assert!(report.joules > 0.0);
    }

    fn sample_with(at_s: f64, mbps: f64, active: bool) -> FlowSample {
        FlowSample {
            at: SimTime::from_secs_f64(at_s),
            interval_s: 0.1,
            subflows: vec![SubflowSample {
                throughput_bps: mbps * 1e6,
                srtt_s: 0.05,
                base_rtt_s: 0.05,
                cwnd_pkts: 10.0,
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

    #[test]
    fn bin_edges_round_deterministically() {
        // 0.3 / 0.1 computes as 2.9999999999999996 in f64; a naive float
        // truncation files the sample one bin early. The epsilon-floored
        // index must land it in bin 3.
        let mut series = HostLoadSeries::new(1, 0.1, 1.0);
        series.add_flow(&[sample_with(0.3, 10.0, true)], &[0]);
        assert!((series.bins[3][0].throughput_bps - 10e6).abs() < 1.0);
        assert_eq!(series.bins[2][0].throughput_bps, 0.0);
        assert_eq!(series.dropped_samples, 0);
    }

    #[test]
    fn past_horizon_samples_are_counted_not_silent() {
        let mut series = HostLoadSeries::new(1, 0.1, 1.0);
        series.add_flow(
            &[
                sample_with(0.5, 10.0, true),
                sample_with(1.0, 10.0, true),
                sample_with(2.0, 1.0, true),
            ],
            &[0],
        );
        // The 0.5 s sample lands; 1.0 s is the exclusive horizon edge and
        // 2.0 s is far past it — both are dropped and counted.
        assert!((series.bins[5][0].throughput_bps - 10e6).abs() < 1.0);
        assert_eq!(series.dropped_samples, 2);
    }

    #[test]
    fn open_idle_subflow_marks_host_bin_active() {
        let mut series = HostLoadSeries::new(1, 0.1, 1.0);
        series.add_flow(&[sample_with(0.2, 0.0, true)], &[0]);
        assert!(series.bins[2][0].active, "open-but-idle subflow must keep the bin active");
        assert_eq!(series.bins[2][0].throughput_bps, 0.0);
    }

    #[test]
    fn until_limit_truncates() {
        let series = HostLoadSeries::new(1, 0.1, 2.0);
        let mut m = WiredCpuModel::i7_3770();
        let full = series.energy(&mut m, None);
        let half = series.energy(&mut m, Some(1.0));
        assert!((half.duration_s - 1.0).abs() < 1e-9);
        assert!(half.joules < full.joules);
    }
}
