//! Retransmission-timeout computation (RFC 6298).

use netsim::SimDuration;

/// RFC 6298's RTT variance and RTO clamp, over a smoothed RTT kept elsewhere.
///
/// The sender's one smoothed RTT is [`congestion::SubflowCc::srtt`]
/// (`srtt ← 7/8·srtt + 1/8·sample`, `0` before the first sample); this
/// keeps the rest of RFC 6298 §2: `rttvar ← 3/4·rttvar + 1/4·|srtt−sample|`
/// against the smoothed RTT *before* the sample, and
/// `rto = srtt + max(G, 4·rttvar)`, clamped to `[min_rto, max_rto]`, where
/// `G` is the clock granularity ([`RttEstimator::GRANULARITY`], one
/// simulator tick).
#[derive(Clone, Debug)]
pub struct RttEstimator {
    rttvar: f64,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RttEstimator {
    /// RFC 6298's clock granularity `G`: one simulator tick (1 ns). After a
    /// run of identical samples `rttvar` decays toward zero, and without
    /// this floor the computed RTO collapses onto `srtt` exactly — any
    /// timer-vs-ACK tie then depends on event-queue ordering instead of the
    /// estimator.
    pub const GRANULARITY: SimDuration = SimDuration::from_nanos(1);

    /// Creates an estimator with the given RTO floor. The ceiling is 60 s,
    /// raised to `min_rto` if the floor is larger (so the clamp is always
    /// well-formed).
    pub fn new(min_rto: SimDuration) -> Self {
        let max_rto = SimDuration::from_secs(60).max(min_rto);
        RttEstimator { rttvar: 0.0, min_rto, max_rto }
    }

    /// Feeds an RTT sample (seconds), given the smoothed RTT before it
    /// (`0` for the first sample).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `sample` is not positive.
    pub fn observe(&mut self, srtt: f64, sample: f64) {
        debug_assert!(sample > 0.0, "RTT sample must be positive");
        self.rttvar = if srtt > 0.0 {
            0.75 * self.rttvar + 0.25 * (srtt - sample).abs()
        } else {
            sample / 2.0
        };
    }

    /// The current retransmission timeout (before exponential backoff) for
    /// smoothed RTT `srtt`: `srtt + max(G, 4·rttvar)` per RFC 6298 §2.3,
    /// clamped to `[min_rto, max_rto]`; 1 s before the first sample.
    pub fn rto(&self, srtt: f64) -> SimDuration {
        let raw = if srtt > 0.0 {
            let var = (4.0 * self.rttvar).max(Self::GRANULARITY.as_secs_f64());
            SimDuration::from_secs_f64(srtt + var)
        } else {
            SimDuration::from_secs(1) // RFC 6298 initial RTO
        };
        raw.clamp(self.min_rto, self.max_rto)
    }

    /// The RTO after `backoff` doublings, capped at the ceiling. The
    /// multiply saturates (`SimDuration`'s `Mul` clamps at the nanosecond
    /// ceiling), so a base near `max_rto` doubled `2¹⁶` times caps cleanly
    /// instead of wrapping before the `min`.
    pub fn rto_backed_off(&self, srtt: f64, backoff: u32) -> SimDuration {
        let base = self.rto(srtt);
        let factor = 1u64 << backoff.min(16);
        (base * factor).min(self.max_rto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::SubflowCc;

    /// Feeds `sample` to the estimator and to the smoothed RTT it reads, in
    /// the sender's order: variance first, against the previous `srtt`.
    fn feed(e: &mut RttEstimator, cc: &mut SubflowCc, sample: f64) {
        e.observe(cc.srtt, sample);
        cc.observe_rtt(sample);
    }

    #[test]
    fn first_sample_initializes() {
        let (mut e, mut cc) = (RttEstimator::new(SimDuration::from_millis(200)), SubflowCc::new());
        assert_eq!(e.rto(cc.srtt), SimDuration::from_secs(1));
        feed(&mut e, &mut cc, 0.1);
        // rto = 0.1 + 4*0.05 = 0.3s
        assert_eq!(e.rto(cc.srtt), SimDuration::from_millis(300));
    }

    #[test]
    fn steady_samples_converge_to_min_variance() {
        let (mut e, mut cc) = (RttEstimator::new(SimDuration::from_millis(10)), SubflowCc::new());
        for _ in 0..200 {
            feed(&mut e, &mut cc, 0.05);
        }
        // Variance decays toward zero; RTO approaches srtt but respects floor.
        assert!(e.rto(cc.srtt) >= SimDuration::from_millis(10));
        assert!(e.rto(cc.srtt) <= SimDuration::from_millis(60));
    }

    #[test]
    fn rto_floor_applies() {
        let (mut e, mut cc) = (RttEstimator::new(SimDuration::from_millis(200)), SubflowCc::new());
        for _ in 0..100 {
            feed(&mut e, &mut cc, 0.001);
        }
        assert_eq!(e.rto(cc.srtt), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let (mut e, mut cc) = (RttEstimator::new(SimDuration::from_millis(200)), SubflowCc::new());
        feed(&mut e, &mut cc, 0.1);
        let base = e.rto(cc.srtt);
        assert_eq!(e.rto_backed_off(cc.srtt, 1), base * 2);
        assert_eq!(e.rto_backed_off(cc.srtt, 2), base * 4);
        assert_eq!(e.rto_backed_off(cc.srtt, 30), SimDuration::from_secs(60));
    }

    #[test]
    fn constant_samples_keep_rto_strictly_above_srtt() {
        // RFC 6298 regression: with the floor set far below srtt, a long run
        // of identical samples decays rttvar to zero; the granularity term
        // must keep RTO > srtt rather than letting the clamp do the work.
        let (mut e, mut cc) = (RttEstimator::new(SimDuration::from_nanos(1)), SubflowCc::new());
        for _ in 0..1000 {
            feed(&mut e, &mut cc, 0.05);
        }
        let srtt = SimDuration::from_secs_f64(cc.srtt);
        let rto = e.rto(cc.srtt);
        assert!(rto > srtt, "rto {rto:?} collapsed onto srtt {srtt:?}");
        assert_eq!(rto, srtt + RttEstimator::GRANULARITY);
    }

    #[test]
    fn large_min_rto_does_not_overflow_backoff() {
        // A floor above the 60 s default ceiling raises the ceiling with it;
        // 2^16 doublings of a base near the u64 nanosecond limit must
        // saturate and cap instead of wrapping.
        let huge = SimDuration::from_nanos(u64::MAX / 2);
        let e = RttEstimator::new(huge);
        assert_eq!(e.rto(0.0), huge, "clamp must stay well-formed for min_rto > 60s");
        for backoff in [16, 20, u32::MAX] {
            assert_eq!(e.rto_backed_off(0.0, backoff), huge);
        }
        // A merely-large floor (not overflow-prone) still caps at itself.
        let e = RttEstimator::new(SimDuration::from_secs(120));
        assert_eq!(e.rto_backed_off(0.0, 16), SimDuration::from_secs(120));
    }
}
