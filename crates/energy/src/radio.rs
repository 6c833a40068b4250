//! Mobile radio power models: WiFi and LTE with an RRC tail-state machine.
//!
//! Calibrated to the measurements of Huang et al., "A Close Examination of
//! Performance and Power Characteristics of 4G LTE Networks" (MobiSys 2012) —
//! the same model family the paper cites as [21] and that eMPTCP (its
//! reference [5]) uses:
//!
//! | Interface | base (mW) | per-Mb/s downlink (mW) | tail |
//! |---|---|---|---|
//! | WiFi | 132.86 | 137.01 | ≈ 0 (PSM) |
//! | LTE  | 1288.04 | 51.97 | 11.576 s at 1060 mW, 260 ms promotion at 1210.7 mW |
//!
//! WiFi power rises *steeply and linearly* with throughput (the paper's
//! Fig. 3b shows ≈ 90 % growth from 10 → 50 Mb/s), while LTE pays a huge
//! always-on base — exactly the asymmetry that makes MPTCP's extra radio
//! expensive on phones (Fig. 2).

use crate::load::PowerModel;
use transport::SubflowSample;

/// WiFi radio: `P = base + α·τ` while active, near-zero in power-save.
#[derive(Clone, Debug, PartialEq)]
pub struct WifiModel {
    /// Active base power, watts.
    pub base_w: f64,
    /// Per-Mb/s slope, watts.
    pub per_mbps_w: f64,
    /// Power-save (idle) power, watts.
    pub idle_w: f64,
}

impl WifiModel {
    /// Huang et al. MobiSys 2012 calibration (downlink slope).
    pub fn mobisys2012() -> Self {
        WifiModel { base_w: 0.13286, per_mbps_w: 0.13701, idle_w: 0.077 }
    }

    /// Uplink calibration (the sender-side scenario of the paper's Fig. 17):
    /// α_u = 283.17 mW per Mb/s.
    pub fn mobisys2012_uplink() -> Self {
        WifiModel { per_mbps_w: 0.28317, ..WifiModel::mobisys2012() }
    }

    /// Instantaneous power for a load on this interface.
    pub fn power(&self, load: &SubflowSample) -> f64 {
        if load.active {
            self.base_w + self.per_mbps_w * (load.throughput_bps / 1e6)
        } else {
            self.idle_w
        }
    }
}

impl PowerModel for WifiModel {
    fn power_w(&mut self, _at_s: f64, paths: &[SubflowSample]) -> f64 {
        paths.iter().map(|p| self.power(p)).sum()
    }
}

/// LTE RRC states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RrcState {
    /// Radio released; paging only.
    Idle,
    /// IDLE → CONNECTED promotion in progress.
    Promotion,
    /// Actively transferring.
    Connected,
    /// DRX tail after the last activity, still at high power.
    Tail,
}

/// LTE radio with the RRC promotion/tail state machine.
#[derive(Clone, Debug, PartialEq)]
pub struct LteModel {
    /// Active base power while CONNECTED, watts.
    pub base_w: f64,
    /// Per-Mb/s downlink slope, watts.
    pub per_mbps_w: f64,
    /// Idle (RRC_IDLE) power, watts.
    pub idle_w: f64,
    /// Tail power, watts.
    pub tail_w: f64,
    /// Tail duration, seconds.
    pub tail_s: f64,
    /// Promotion power, watts.
    pub promo_w: f64,
    /// Promotion duration, seconds.
    pub promo_s: f64,
    state: RrcState,
    state_since: f64,
    last_activity: f64,
}

impl LteModel {
    /// Huang et al. MobiSys 2012 calibration.
    pub fn mobisys2012() -> Self {
        LteModel {
            base_w: 1.28804,
            per_mbps_w: 0.05197,
            idle_w: 0.0594,
            tail_w: 1.060,
            tail_s: 11.576,
            promo_w: 1.2107,
            promo_s: 0.260,
            state: RrcState::Idle,
            state_since: 0.0,
            last_activity: f64::NEG_INFINITY,
        }
    }

    /// Uplink calibration: α_u = 438.39 mW per Mb/s — LTE transmission is
    /// far more expensive per bit than WiFi, the asymmetry DTS exploits.
    pub fn mobisys2012_uplink() -> Self {
        LteModel { per_mbps_w: 0.43839, ..LteModel::mobisys2012() }
    }

    /// The current RRC state.
    pub fn state(&self) -> RrcState {
        self.state
    }

    /// Advances the machine to `at_s` given whether the interface is active,
    /// returning the instantaneous power.
    pub fn advance(&mut self, at_s: f64, load: &SubflowSample) -> f64 {
        if load.active {
            match self.state {
                RrcState::Idle => {
                    self.state = RrcState::Promotion;
                    self.state_since = at_s;
                }
                RrcState::Promotion => {
                    if at_s - self.state_since >= self.promo_s {
                        self.state = RrcState::Connected;
                        self.state_since = at_s;
                    }
                }
                RrcState::Tail => {
                    self.state = RrcState::Connected;
                    self.state_since = at_s;
                }
                RrcState::Connected => {}
            }
            self.last_activity = at_s;
        } else {
            match self.state {
                RrcState::Connected => {
                    self.state = RrcState::Tail;
                    self.state_since = at_s;
                }
                RrcState::Tail => {
                    if at_s - self.state_since >= self.tail_s {
                        self.state = RrcState::Idle;
                        self.state_since = at_s;
                    }
                }
                RrcState::Promotion => {
                    if at_s - self.state_since >= self.promo_s {
                        self.state = RrcState::Tail;
                        self.state_since = at_s;
                    }
                }
                RrcState::Idle => {}
            }
        }
        match self.state {
            RrcState::Idle => self.idle_w,
            RrcState::Promotion => self.promo_w,
            RrcState::Connected => self.base_w + self.per_mbps_w * (load.throughput_bps / 1e6),
            RrcState::Tail => self.tail_w,
        }
    }
}

impl PowerModel for LteModel {
    fn power_w(&mut self, at_s: f64, paths: &[SubflowSample]) -> f64 {
        let load = paths.first().copied().unwrap_or(SubflowSample::IDLE);
        self.advance(at_s, &load)
    }

    fn reset(&mut self) {
        self.state = RrcState::Idle;
        self.state_since = 0.0;
        self.last_activity = f64::NEG_INFINITY;
    }
}

/// A multihomed phone: WiFi on path 0, LTE on path 1, plus a SoC floor.
///
/// This is the Nexus 5 stand-in for the paper's Fig. 2 experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct PhoneModel {
    /// WiFi interface model (path 0).
    pub wifi: WifiModel,
    /// LTE interface model (path 1).
    pub lte: LteModel,
    /// Rest-of-system power floor, watts.
    pub soc_w: f64,
}

impl PhoneModel {
    /// Nexus-5-like defaults (downlink slopes — the Fig. 2 download
    /// experiment).
    pub fn nexus5() -> Self {
        PhoneModel { wifi: WifiModel::mobisys2012(), lte: LteModel::mobisys2012(), soc_w: 0.45 }
    }

    /// Sender-side (uplink) variant for the Fig. 17 scenario, where the
    /// multihomed device transmits.
    pub fn nexus5_uplink() -> Self {
        PhoneModel {
            wifi: WifiModel::mobisys2012_uplink(),
            lte: LteModel::mobisys2012_uplink(),
            soc_w: 0.45,
        }
    }
}

impl PowerModel for PhoneModel {
    fn power_w(&mut self, at_s: f64, paths: &[SubflowSample]) -> f64 {
        let wifi_load = paths.first().copied().unwrap_or(SubflowSample::IDLE);
        let lte_load = paths.get(1).copied().unwrap_or(SubflowSample::IDLE);
        self.soc_w + self.wifi.power(&wifi_load) + self.lte.advance(at_s, &lte_load)
    }

    fn reset(&mut self) {
        self.lte.reset();
    }
}

#[cfg(test)]
// Tests pin outputs that are copies of model constants (base/tail/idle
// watts, zero throughput) reached without arithmetic, so exact float
// comparison is the correct strictness.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::load::load;

    #[test]
    fn wifi_power_is_steeply_linear() {
        // Paper Fig. 3b: ≈90% growth from 10 to 50 Mb/s... with these
        // coefficients growth is far above 90%; the anchor is "sharp rise".
        let m = WifiModel::mobisys2012();
        let p10 = m.power(&load(10e6, 0.02));
        let p50 = m.power(&load(50e6, 0.02));
        assert!(p50 / p10 > 1.9, "ratio {}", p50 / p10);
        // Linearity: equal increments.
        let p30 = m.power(&load(30e6, 0.02));
        assert!(((p30 - p10) - (p50 - p30)).abs() < 1e-9);
    }

    #[test]
    fn lte_promotion_then_connected() {
        let mut lte = LteModel::mobisys2012();
        let active = load(5e6, 0.05);
        let p0 = lte.advance(0.0, &active);
        assert_eq!(lte.state(), RrcState::Promotion);
        assert_eq!(p0, lte.promo_w);
        let p1 = lte.advance(0.3, &active);
        assert_eq!(lte.state(), RrcState::Connected);
        assert!(p1 > lte.base_w);
    }

    #[test]
    fn lte_tail_costs_energy_after_transfer() {
        let mut lte = LteModel::mobisys2012();
        let active = load(5e6, 0.05);
        lte.advance(0.0, &active);
        lte.advance(0.5, &active);
        // Transfer ends; tail holds high power for 11.576 s.
        let p_tail = lte.advance(1.0, &SubflowSample::IDLE);
        assert_eq!(lte.state(), RrcState::Tail);
        assert_eq!(p_tail, lte.tail_w);
        let p_mid_tail = lte.advance(10.0, &SubflowSample::IDLE);
        assert_eq!(p_mid_tail, lte.tail_w);
        // After the tail expires the radio idles. (The expiry is detected on
        // the first sample past the boundary.)
        lte.advance(13.0, &SubflowSample::IDLE);
        let p_idle = lte.advance(13.1, &SubflowSample::IDLE);
        assert_eq!(lte.state(), RrcState::Idle);
        assert_eq!(p_idle, lte.idle_w);
    }

    #[test]
    fn phone_with_both_radios_draws_more_than_wifi_only() {
        // Paper Fig. 2: at the same total throughput, MPTCP (WiFi+LTE)
        // draws more than TCP over WiFi alone, because the second radio
        // adds its large CONNECTED base power.
        let mut phone = PhoneModel::nexus5();
        let loads = [load(10e6, 0.02), load(10e6, 0.06)];
        phone.power_w(0.0, &loads); // promotion
        let both = phone.power_w(1.0, &loads); // connected
        phone.reset();
        let wifi_only = phone.power_w(1.0, &[load(20e6, 0.02), SubflowSample::IDLE]);
        assert!(both > wifi_only * 1.1, "both {both} wifi {wifi_only}");
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut lte = LteModel::mobisys2012();
        lte.advance(0.0, &load(1e6, 0.05));
        assert_ne!(lte.state(), RrcState::Idle);
        lte.reset();
        assert_eq!(lte.state(), RrcState::Idle);
    }
}
