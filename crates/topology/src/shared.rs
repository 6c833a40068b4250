//! The shared-bottleneck scenario of the paper's Fig. 5(a): N MPTCP users
//! spanning two bottlenecks that they share with 2N single-path TCP users
//! (N on each bottleneck).

use crate::duplex::{duplex, Duplex};
use netsim::{LinkConfig, Simulator};
use transport::PathSpec;

/// Two shared bottleneck links; MPTCP users stripe across both, TCP users
/// alternate between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedBottleneck {
    /// First bottleneck.
    pub b1: Duplex,
    /// Second bottleneck.
    pub b2: Duplex,
}

impl SharedBottleneck {
    /// Builds the two bottlenecks with identical parameters.
    pub fn new(sim: &mut Simulator, params: LinkConfig) -> Self {
        SharedBottleneck { b1: duplex(sim, params), b2: duplex(sim, params) }
    }

    /// An MPTCP user's two subflow paths (one across each bottleneck).
    pub fn mptcp_paths(&self) -> Vec<PathSpec> {
        vec![
            PathSpec::new(vec![self.b1.fwd], vec![self.b1.rev]),
            PathSpec::new(vec![self.b2.fwd], vec![self.b2.rev]),
        ]
    }

    /// The `i`-th TCP user's single path, alternating between bottlenecks so
    /// 2N TCP users place N on each.
    pub fn tcp_path(&self, i: usize) -> Vec<PathSpec> {
        let b = if i.is_multiple_of(2) { self.b1 } else { self.b2 };
        vec![PathSpec::new(vec![b.fwd], vec![b.rev])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    #[test]
    fn paths_cover_both_bottlenecks() {
        let mut sim = Simulator::new(1);
        let sb = SharedBottleneck::new(
            &mut sim,
            LinkConfig::new(100_000_000, SimDuration::from_millis(5)),
        );
        let mp = sb.mptcp_paths();
        assert_eq!(mp.len(), 2);
        assert_ne!(mp[0].fwd, mp[1].fwd);
        assert_eq!(sb.tcp_path(0)[0].fwd, vec![sb.b1.fwd]);
        assert_eq!(sb.tcp_path(1)[0].fwd, vec![sb.b2.fwd]);
        assert_eq!(sb.tcp_path(2)[0].fwd, vec![sb.b1.fwd]);
    }
}
