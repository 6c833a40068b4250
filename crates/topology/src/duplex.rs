//! Bidirectional link helper.

use netsim::{LinkConfig, LinkId, Simulator};

/// A pair of opposite-direction links between two points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Duplex {
    /// The A→B link.
    pub fwd: LinkId,
    /// The B→A link.
    pub rev: LinkId,
}

/// Registers a bidirectional link with identical parameters each way.
pub fn duplex(sim: &mut Simulator, params: LinkConfig) -> Duplex {
    let fwd = sim.add_link(params);
    let rev = sim.add_link(params);
    Duplex { fwd, rev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    #[test]
    fn duplex_registers_two_links() {
        let mut sim = Simulator::new(1);
        let d = duplex(&mut sim, LinkConfig::new(1_000_000, SimDuration::ZERO));
        assert_ne!(d.fwd, d.rev);
        assert_eq!(sim.world().link_count(), 2);
    }
}
