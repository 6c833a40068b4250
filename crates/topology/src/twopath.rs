//! Two-path topologies: the paper's Fig. 5(b) traffic-shifting scenario, the
//! dual-NIC testbed machines (Figs. 1, 3, 4), and the heterogeneous wireless
//! scenario (Fig. 17).

use crate::duplex::{duplex, Duplex};
use netsim::{LinkConfig, LinkId, SimDuration, Simulator};
use transport::PathSpec;

/// Two independent bidirectional paths between one sender and one receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoPath {
    /// First path.
    pub p1: Duplex,
    /// Second path.
    pub p2: Duplex,
}

impl TwoPath {
    /// Builds two paths with identical parameters (the dual-NIC testbed of
    /// the paper's §III: two equal NICs per machine).
    pub fn symmetric(sim: &mut Simulator, params: LinkConfig) -> Self {
        TwoPath { p1: duplex(sim, params), p2: duplex(sim, params) }
    }

    /// Builds two paths with different parameters.
    pub fn asymmetric(sim: &mut Simulator, a: LinkConfig, b: LinkConfig) -> Self {
        TwoPath { p1: duplex(sim, a), p2: duplex(sim, b) }
    }

    /// The paper's heterogeneous wireless scenario (§VI-C2, Fig. 17):
    /// WiFi 10 Mb/s with 40 ms one-way delay, 4G 20 Mb/s with 100 ms, both
    /// with DropTail queues of 50 packets (the ns-2 configuration).
    pub fn wireless(sim: &mut Simulator) -> Self {
        let wifi = LinkConfig::new(10_000_000, SimDuration::from_millis(40)).queue_limit(50);
        let lte = LinkConfig::new(20_000_000, SimDuration::from_millis(100)).queue_limit(50);
        TwoPath::asymmetric(sim, wifi, lte)
    }

    /// The dual-NIC wired testbed: two `bps` NICs, `delay` one-way.
    pub fn dual_nic(sim: &mut Simulator, bps: u64, delay: SimDuration) -> Self {
        TwoPath::symmetric(sim, LinkConfig::new(bps, delay))
    }

    /// Both paths as MPTCP subflow specs.
    pub fn both(&self) -> Vec<PathSpec> {
        vec![
            PathSpec::new(vec![self.p1.fwd], vec![self.p1.rev]),
            PathSpec::new(vec![self.p2.fwd], vec![self.p2.rev]),
        ]
    }

    /// Only the first path (single-path TCP baseline).
    pub fn first_only(&self) -> Vec<PathSpec> {
        vec![PathSpec::new(vec![self.p1.fwd], vec![self.p1.rev])]
    }

    /// Only the second path.
    pub fn second_only(&self) -> Vec<PathSpec> {
        vec![PathSpec::new(vec![self.p2.fwd], vec![self.p2.rev])]
    }

    /// The forward links, for injecting cross traffic (the Pareto bursts of
    /// Fig. 5(b) ride the same queues as the flow under test).
    pub fn forward_links(&self) -> [LinkId; 2] {
        [self.p1.fwd, self.p2.fwd]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_builds_four_links() {
        let mut sim = Simulator::new(1);
        let tp = TwoPath::dual_nic(&mut sim, 100_000_000, SimDuration::from_millis(1));
        assert_eq!(sim.world().link_count(), 4);
        assert_eq!(tp.both().len(), 2);
        assert_eq!(tp.first_only().len(), 1);
    }

    #[test]
    fn wireless_matches_ns2_parameters() {
        let mut sim = Simulator::new(1);
        let tp = TwoPath::wireless(&mut sim);
        let wifi = *sim.world().link(tp.p1.fwd).config();
        let lte = *sim.world().link(tp.p2.fwd).config();
        assert_eq!(wifi.bandwidth_bps, 10_000_000);
        assert_eq!(lte.bandwidth_bps, 20_000_000);
        assert_eq!(wifi.queue_limit_pkts, 50);
        assert_eq!(lte.queue_limit_pkts, 50);
        assert_eq!(wifi.propagation, SimDuration::from_millis(40));
        assert_eq!(lte.propagation, SimDuration::from_millis(100));
    }
}
