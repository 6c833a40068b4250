//! The EC2 VPC scenario of the paper's §VI-C1 (Fig. 10): multihomed cloud
//! instances with four Elastic Network Interfaces, each on its own subnet,
//! giving four disjoint routes between every pair of hosts.

use netsim::{LinkConfig, LinkId, SimDuration, Simulator};
use transport::PathSpec;

/// Number of ENIs (and subnets) per host, per the paper.
pub const ENIS_PER_HOST: usize = 4;

/// An EC2-style VPC: `hosts × 4` ENI links into four subnets.
#[derive(Clone, Debug)]
pub struct Ec2Vpc {
    n_hosts: usize,
    /// `eni_up[host][subnet]`: host ENI → subnet fabric.
    eni_up: Vec<Vec<LinkId>>,
    /// `eni_down[host][subnet]`: subnet fabric → host ENI.
    eni_down: Vec<Vec<LinkId>>,
}

impl Ec2Vpc {
    /// Builds a VPC with `n_hosts` instances whose ENIs use `params`
    /// (the paper caps each ENI at 256 Mb/s).
    pub fn build(sim: &mut Simulator, n_hosts: usize, params: LinkConfig) -> Self {
        assert!(n_hosts >= 2, "need at least two hosts");
        let eni_up = (0..n_hosts)
            .map(|_| (0..ENIS_PER_HOST).map(|_| sim.add_link(params)).collect())
            .collect();
        let eni_down = (0..n_hosts)
            .map(|_| (0..ENIS_PER_HOST).map(|_| sim.add_link(params)).collect())
            .collect();
        Ec2Vpc { n_hosts, eni_up, eni_down }
    }

    /// The paper's configuration: 256 Mb/s ENIs, ≈ 0.4 ms one-way
    /// intra-VPC latency.
    pub fn paper_scale(sim: &mut Simulator, n_hosts: usize) -> Self {
        let params = LinkConfig::new(256_000_000, SimDuration::from_micros(400)).queue_limit(100);
        Ec2Vpc::build(sim, n_hosts, params)
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.n_hosts
    }

    /// The four subnet-disjoint bidirectional routes between two hosts.
    /// Path `i` uses ENI `i` at both ends (both are on subnet `i`).
    pub fn paths(&self, src: usize, dst: usize) -> Vec<PathSpec> {
        assert_ne!(src, dst, "src and dst must differ");
        (0..ENIS_PER_HOST)
            .map(|s| {
                PathSpec::new(
                    vec![self.eni_up[src][s], self.eni_down[dst][s]],
                    vec![self.eni_up[dst][s], self.eni_down[src][s]],
                )
            })
            .collect()
    }

    /// A single-subnet path (the TCP / DCTCP baseline uses one ENI).
    pub fn single_path(&self, src: usize, dst: usize, subnet: usize) -> Vec<PathSpec> {
        vec![self.paths(src, dst).swap_remove(subnet)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_disjoint_routes() {
        let mut sim = Simulator::new(1);
        let vpc = Ec2Vpc::paper_scale(&mut sim, 4);
        assert_eq!(vpc.hosts(), 4);
        let p = vpc.paths(0, 3);
        assert_eq!(p.len(), 4);
        // Pairwise link-disjoint.
        for i in 0..4 {
            for j in i + 1..4 {
                assert!(p[i].fwd.iter().all(|l| !p[j].fwd.contains(l)));
            }
        }
    }

    #[test]
    fn single_path_selects_subnet() {
        let mut sim = Simulator::new(1);
        let vpc = Ec2Vpc::paper_scale(&mut sim, 2);
        let all = vpc.paths(0, 1);
        let one = vpc.single_path(0, 1, 2);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], all[2]);
    }

    #[test]
    fn eni_rate_matches_paper() {
        let mut sim = Simulator::new(1);
        let vpc = Ec2Vpc::paper_scale(&mut sim, 2);
        let p = vpc.paths(0, 1);
        assert_eq!(sim.world().link(p[0].fwd[0]).config().bandwidth_bps, 256_000_000);
    }
}
