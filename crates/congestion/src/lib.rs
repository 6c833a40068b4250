//! # congestion — multipath congestion-control algorithms
//!
//! Implementations of every congestion-control algorithm the paper analyzes
//! (its §IV model decomposition and §VI evaluation), and the model itself.
//! An algorithm that *is* its Equation-(3) row (its traffic-shifting
//! parameter `ψ_r` in [`model::Psi`]) runs as the one controller
//! [`ModelCc`], which reads `ψ_r` from the [`CcModel`] the fluid solver
//! integrates:
//!
//! | Algorithm | Module | Reference |
//! |---|---|---|
//! | TCP Reno | [`reno`] | baseline single-path TCP |
//! | DCTCP | [`dctcp`] | Alizadeh et al., SIGCOMM 2010 |
//! | EWTCP | [`model_cc`], row [`model::Psi::Ewtcp`] | Honda et al., PFLDNeT 2009 |
//! | Coupled (Kelly/Voice) | [`model_cc`], row [`model::Psi::Coupled`] | Kelly & Voice, CCR 2005 |
//! | LIA | [`model_cc`], row [`model::Psi::Lia`] | Wischik et al., NSDI 2011 / RFC 6356 |
//! | OLIA | [`olia`] (`ψ = 1` plus its own `α_r`) | Khalili et al., CoNEXT 2012 |
//! | Balia | [`model_cc`], row [`model::Psi::Balia`] | Peng, Walid & Low, SIGMETRICS 2013 |
//! | ecMTCP | [`model_cc`], row [`model::Psi::EcMtcp`] | Le et al., IEEE Comm. Letters 2012 |
//! | wVegas | [`wvegas`] | Cao, Xu & Fu, ICNP 2012 |
//! | DWC | [`dwc`] | Hassayoun, Iyengar & Ros, ICNP 2011 |
//! | DTS, DTS-Φ | [`model_cc`], row [`model::Psi::Dts`] (+ [`model::Phi::EnergyPrice`]) | this paper, §V |
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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod common;
pub mod dctcp;
pub mod dwc;
pub mod model;
pub mod model_cc;
pub mod olia;
pub mod reno;
pub mod state;
pub mod wvegas;

pub use dctcp::Dctcp;
pub use dwc::Dwc;
pub use model::{CcModel, DtsConfig, DtsPhiConfig};
pub use model_cc::ModelCc;
pub use olia::Olia;
pub use reno::Reno;
pub use state::{
    active_count, total_cwnd, total_rate, SubflowCc, INITIAL_CWND, MAX_CWND, MIN_CWND,
};
pub use wvegas::WVegas;

use model::Psi;
use std::fmt;

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

/// The algorithm families available in this crate, named by [`AlgorithmKind::name`].
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

    /// The one spelling of each name: `Display` writes it, each controller's `name` returns it.
    pub fn name(self) -> &'static str {
        match self {
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
        }
    }

    /// The algorithm's Equation-(3) row, or `None` for the algorithms the
    /// paper's §IV table does not decompose (DCTCP, wVegas, DWC). Reno maps
    /// to `ψ = 1`, which on a single path *is* Reno.
    pub fn model(self) -> Option<CcModel> {
        let psi = match self {
            AlgorithmKind::Reno | AlgorithmKind::Olia => Psi::Olia,
            AlgorithmKind::Ewtcp => Psi::Ewtcp,
            AlgorithmKind::Coupled => Psi::Coupled,
            AlgorithmKind::Lia => Psi::Lia,
            AlgorithmKind::Balia => Psi::Balia,
            AlgorithmKind::EcMtcp => Psi::EcMtcp,
            AlgorithmKind::Dctcp | AlgorithmKind::WVegas | AlgorithmKind::Dwc => return None,
        };
        Some(CcModel::loss_based(psi))
    }

    /// Instantiates the algorithm for a connection with `n_subflows` paths.
    pub fn build(self, n_subflows: usize) -> Box<dyn MultipathCongestionControl> {
        match self {
            AlgorithmKind::Reno => Box::new(Reno::new()),
            AlgorithmKind::Dctcp => Box::new(Dctcp::new(n_subflows)),
            AlgorithmKind::Olia => Box::new(Olia::new(n_subflows)),
            AlgorithmKind::WVegas => Box::new(WVegas::new(n_subflows)),
            AlgorithmKind::Dwc => Box::new(Dwc::new(n_subflows)),
            AlgorithmKind::Ewtcp
            | AlgorithmKind::Coupled
            | AlgorithmKind::Lia
            | AlgorithmKind::Balia
            | AlgorithmKind::EcMtcp => {
                let Some(model) = self.model() else {
                    unreachable!("{self} is a row of Equation (3)")
                };
                Box::new(ModelCc::new(self.name(), model))
            }
        }
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests drive window arithmetic whose operands (halving, +1 steps, literal initial values) are exact in f64, so strict comparison pins the algorithm without tolerance slop"
)]
mod tests {
    use super::*;

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
