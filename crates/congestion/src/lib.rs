//! # congestion — multipath congestion-control algorithms
//!
//! Implementations of every congestion-control algorithm the paper analyzes
//! (its §IV model decomposition and §VI evaluation):
//!
//! | Algorithm | Module | Reference |
//! |---|---|---|
//! | TCP Reno | [`reno`] | baseline single-path TCP |
//! | DCTCP | [`dctcp`] | Alizadeh et al., SIGCOMM 2010 |
//! | EWTCP | [`ewtcp`] | Honda et al., PFLDNeT 2009 |
//! | Coupled (Kelly/Voice) | [`coupled`] | Kelly & Voice, CCR 2005 |
//! | LIA | [`lia`] | Wischik et al., NSDI 2011 / RFC 6356 |
//! | OLIA | [`olia`] | Khalili et al., CoNEXT 2012 |
//! | Balia | [`balia`] | Peng, Walid & Low, SIGMETRICS 2013 |
//! | ecMTCP | [`ecmtcp`] | Le et al., IEEE Comm. Letters 2012 |
//! | wVegas | [`wvegas`] | Cao, Xu & Fu, ICNP 2012 |
//! | DWC | [`dwc`] | Hassayoun, Iyengar & Ros, ICNP 2011 |
//!
//! The paper's own algorithms, DTS and DTS-Φ, implement the same
//! [`MultipathCongestionControl`] trait from the `mptcp-energy` crate.
//!
//! All algorithms operate on a slice of [`SubflowCc`] states — MPTCP couples
//! windows *across* subflows, so every callback sees the whole connection.
//! Windows are `f64` packets; per-ACK fractional increments accumulate
//! exactly like the fluid models they discretize.
//!
//! # Examples
//!
//! ```
//! use congestion::{AlgorithmKind, SubflowCc};
//!
//! let mut cc = AlgorithmKind::Lia.build(2);
//! let mut flows = vec![SubflowCc::new(), SubflowCc::new()];
//! for f in &mut flows {
//!     f.observe_rtt(0.05);
//!     f.ssthresh = 1.0; // force congestion avoidance for the example
//! }
//! let before = flows[0].cwnd;
//! cc.on_ack(0, &mut flows, 1, false);
//! assert!(flows[0].cwnd > before);
//! ```

pub mod balia;
pub mod common;
pub mod coupled;
pub mod dctcp;
pub mod dwc;
pub mod ecmtcp;
pub mod ewtcp;
pub mod lia;
pub mod olia;
pub mod reno;
pub mod state;
pub mod wvegas;

pub use balia::Balia;
pub use coupled::CoupledKv;
pub use dctcp::Dctcp;
pub use dwc::Dwc;
pub use ecmtcp::EcMtcp;
pub use ewtcp::Ewtcp;
pub use lia::Lia;
pub use olia::Olia;
pub use reno::Reno;
pub use state::{
    active_count, total_cwnd, total_rate, SubflowCc, INITIAL_CWND, MAX_CWND, MIN_CWND,
};
pub use wvegas::WVegas;

use std::fmt;
use std::str::FromStr;

/// A window-based multipath congestion-control algorithm.
///
/// The transport layer drives this trait:
///
/// * slow start is handled *inside* `on_ack` implementations via
///   [`common::slow_start`] (the MPTCP kernel and the paper's ns-2 agent keep
///   regular TCP slow start and replace only congestion avoidance);
/// * `on_loss` fires once per fast-retransmit episode (triple-dupACK);
/// * `on_timeout` fires on RTO expiry;
/// * RTT samples arrive through the [`SubflowCc`] fields, which the transport
///   updates before invoking the callbacks.
pub trait MultipathCongestionControl: fmt::Debug + Send {
    /// Short identifier used in experiment tables (e.g. `"lia"`).
    fn name(&self) -> &'static str;

    /// An ACK for `newly_acked` packets arrived on subflow `r`.
    /// `ecn_echo` carries the DCTCP-style per-packet congestion echo.
    fn on_ack(&mut self, r: usize, flows: &mut [SubflowCc], newly_acked: u64, ecn_echo: bool);

    /// A loss was detected on subflow `r` by fast retransmit.
    fn on_loss(&mut self, r: usize, flows: &mut [SubflowCc]);

    /// The retransmission timer expired on subflow `r`.
    fn on_timeout(&mut self, r: usize, flows: &mut [SubflowCc]) {
        common::timeout(&mut flows[r]);
    }

    /// Whether the algorithm wants routers to ECN-mark its packets (DCTCP).
    fn wants_ecn(&self) -> bool {
        false
    }

    /// Clones the algorithm with its state reset, for running the same
    /// configuration across many connections.
    fn fresh_box(&self) -> Box<dyn MultipathCongestionControl>;
}

/// The algorithm families available in this crate, for configuration by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgorithmKind {
    /// Single-path TCP Reno (runs uncoupled per subflow).
    Reno,
    /// Data Center TCP (ECN-proportional backoff).
    Dctcp,
    /// Equally-Weighted TCP.
    Ewtcp,
    /// Fully coupled Kelly/Voice control.
    Coupled,
    /// Linked Increases Algorithm (RFC 6356).
    Lia,
    /// Opportunistic LIA.
    Olia,
    /// Balanced Linked Adaptation.
    Balia,
    /// Energy-aware coupled MPTCP.
    EcMtcp,
    /// Weighted Vegas (delay-based).
    WVegas,
    /// Dynamic Window Coupling (delay-signalled decrease).
    Dwc,
}

impl AlgorithmKind {
    /// All algorithm kinds, in evaluation order.
    pub const ALL: [AlgorithmKind; 10] = [
        AlgorithmKind::Reno,
        AlgorithmKind::Dctcp,
        AlgorithmKind::Ewtcp,
        AlgorithmKind::Coupled,
        AlgorithmKind::Lia,
        AlgorithmKind::Olia,
        AlgorithmKind::Balia,
        AlgorithmKind::EcMtcp,
        AlgorithmKind::WVegas,
        AlgorithmKind::Dwc,
    ];

    /// The four TCP-friendly algorithms compared in the paper's Fig. 6.
    pub const PAPER_FOUR: [AlgorithmKind; 4] =
        [AlgorithmKind::Lia, AlgorithmKind::Olia, AlgorithmKind::Balia, AlgorithmKind::EcMtcp];

    /// Instantiates the algorithm for a connection with `n_subflows` paths.
    pub fn build(self, n_subflows: usize) -> Box<dyn MultipathCongestionControl> {
        match self {
            AlgorithmKind::Reno => Box::new(Reno::new()),
            AlgorithmKind::Dctcp => Box::new(Dctcp::new(n_subflows)),
            AlgorithmKind::Ewtcp => Box::new(Ewtcp::new()),
            AlgorithmKind::Coupled => Box::new(CoupledKv::new()),
            AlgorithmKind::Lia => Box::new(Lia::new()),
            AlgorithmKind::Olia => Box::new(Olia::new(n_subflows)),
            AlgorithmKind::Balia => Box::new(Balia::new()),
            AlgorithmKind::EcMtcp => Box::new(EcMtcp::new()),
            AlgorithmKind::WVegas => Box::new(WVegas::new(n_subflows)),
            AlgorithmKind::Dwc => Box::new(Dwc::new(n_subflows)),
        }
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AlgorithmKind::Reno => "reno",
            AlgorithmKind::Dctcp => "dctcp",
            AlgorithmKind::Ewtcp => "ewtcp",
            AlgorithmKind::Coupled => "coupled",
            AlgorithmKind::Lia => "lia",
            AlgorithmKind::Olia => "olia",
            AlgorithmKind::Balia => "balia",
            AlgorithmKind::EcMtcp => "ecmtcp",
            AlgorithmKind::WVegas => "wvegas",
            AlgorithmKind::Dwc => "dwc",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing an unknown algorithm name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAlgorithmError(String);

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown congestion-control algorithm `{}`", self.0)
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl FromStr for AlgorithmKind {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reno" | "tcp" => Ok(AlgorithmKind::Reno),
            "dctcp" => Ok(AlgorithmKind::Dctcp),
            "ewtcp" => Ok(AlgorithmKind::Ewtcp),
            "coupled" => Ok(AlgorithmKind::Coupled),
            "lia" => Ok(AlgorithmKind::Lia),
            "olia" => Ok(AlgorithmKind::Olia),
            "balia" => Ok(AlgorithmKind::Balia),
            "ecmtcp" => Ok(AlgorithmKind::EcMtcp),
            "wvegas" => Ok(AlgorithmKind::WVegas),
            "dwc" => Ok(AlgorithmKind::Dwc),
            other => Err(ParseAlgorithmError(other.to_owned())),
        }
    }
}

#[cfg(test)]
// Tests drive window arithmetic whose operands (halving, +1 steps,
// literal initial values) are exact in f64, so strict comparison pins
// the algorithm without tolerance slop.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_through_strings() {
        for kind in AlgorithmKind::ALL {
            let parsed: AlgorithmKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<AlgorithmKind>().is_err());
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in AlgorithmKind::ALL {
            let cc = kind.build(2);
            assert_eq!(cc.name(), kind.to_string());
        }
    }

    #[test]
    fn fresh_box_preserves_name() {
        for kind in AlgorithmKind::ALL {
            let cc = kind.build(3);
            assert_eq!(cc.fresh_box().name(), cc.name());
        }
    }

    #[test]
    fn only_dctcp_wants_ecn() {
        for kind in AlgorithmKind::ALL {
            let cc = kind.build(2);
            assert_eq!(cc.wants_ecn(), kind == AlgorithmKind::Dctcp, "{kind}");
        }
    }
}
