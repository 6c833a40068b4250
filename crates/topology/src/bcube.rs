//! BCube topology (Guo et al., SIGCOMM 2009), as used by the paper's htsim
//! experiments (Fig. 12).
//!
//! `BCube(n, k)` is server-centric: `n^(k+1)` hosts, each with `k+1` NICs,
//! and `(k+1)·n^k` switches arranged in `k+1` levels. A host's address is its
//! base-`n` digit string `(d_k … d_0)`; the level-`l` switch it attaches to
//! connects all hosts that differ only in digit `l`. Routing corrects one
//! digit per hop, relaying through intermediate *hosts* — BCube's signature —
//! and the `k+1` digit-rotation orders give `k+1` NIC-disjoint parallel
//! paths.
//!
//! Relay hosts appear in our source routes as consecutive down/up link pairs;
//! their forwarding energy is attributed to the network, not the flow
//! endpoints (see DESIGN.md).

use netsim::{LinkConfig, LinkId, Simulator};
use rand::Rng;
use transport::PathSpec;

/// A `BCube(n, k)` network.
#[derive(Clone, Debug)]
pub struct BCube {
    /// Switch port count `n`.
    pub n: usize,
    /// Level count minus one (`k`); hosts have `k+1` NICs.
    pub k: usize,
    /// `nic_up[host][level]`: host NIC → its level-`level` switch.
    nic_up: Vec<Vec<LinkId>>,
    /// `nic_down[host][level]`: switch → host.
    nic_down: Vec<Vec<LinkId>>,
}

impl BCube {
    /// Builds a `BCube(n, k)` with all links using `params`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn build(sim: &mut Simulator, n: usize, k: usize, params: LinkConfig) -> Self {
        assert!(n >= 2, "BCube needs n >= 2");
        let hosts = n.pow(k as u32 + 1);
        let nic_up = (0..hosts).map(|_| (0..=k).map(|_| sim.add_link(params)).collect()).collect();
        let nic_down =
            (0..hosts).map(|_| (0..=k).map(|_| sim.add_link(params)).collect()).collect();
        BCube { n, k, nic_up, nic_down }
    }

    /// The paper-scale instance `BCube(8, 1)`: 64 hosts with 2 NICs each and
    /// 16 switches (the closest BCube to the paper's "128 hosts, 64
    /// switches" that keeps the structure exact; see EXPERIMENTS.md).
    pub fn paper_scale(sim: &mut Simulator, params: LinkConfig) -> Self {
        BCube::build(sim, 8, 1, params)
    }

    /// Number of hosts (`n^(k+1)`).
    pub fn hosts(&self) -> usize {
        self.n.pow(self.k as u32 + 1)
    }

    /// Number of switches (`(k+1)·n^k`).
    pub fn switches(&self) -> usize {
        (self.k + 1) * self.n.pow(self.k as u32)
    }

    fn digit(&self, host: usize, level: usize) -> usize {
        (host / self.n.pow(level as u32)) % self.n
    }

    fn with_digit(&self, host: usize, level: usize, d: usize) -> usize {
        let p = self.n.pow(level as u32) as i64;
        let old = self.digit(host, level) as i64;
        (host as i64 + (d as i64 - old) * p) as usize
    }

    /// The forward link path correcting digits in descending order starting
    /// at `start_level` (cyclically), one relay host per corrected digit.
    fn forward_path(&self, src: usize, dst: usize, start_level: usize) -> Vec<LinkId> {
        let mut links = Vec::new();
        let mut cur = src;
        for step in 0..=self.k {
            let level = (start_level + self.k + 1 - step) % (self.k + 1);
            let target = self.digit(dst, level);
            if self.digit(cur, level) == target {
                continue;
            }
            let next = self.with_digit(cur, level, target);
            links.push(self.nic_up[cur][level]);
            links.push(self.nic_down[next][level]);
            cur = next;
        }
        debug_assert_eq!(cur, dst);
        links
    }

    /// The `k+1` parallel (NIC-rotation) bidirectional paths between two
    /// hosts. Paths whose link sequences coincide (hosts differing in few
    /// digits) are deduplicated.
    pub fn paths(&self, src: usize, dst: usize) -> Vec<PathSpec> {
        assert_ne!(src, dst, "src and dst must differ");
        let mut out: Vec<PathSpec> = Vec::new();
        for start in 0..=self.k {
            let fwd = self.forward_path(src, dst, start);
            let rev = self.forward_path(dst, src, start);
            let spec = PathSpec::new(fwd, rev);
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
        out
    }

    /// Samples `n` paths for a connection's subflows.
    pub fn sample_paths<R: Rng>(
        &self,
        src: usize,
        dst: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<PathSpec> {
        let all = self.paths(src, dst);
        crate::sample_by_index(all.len(), n, rng, |i| all[i].clone())
    }

    /// Which host NIC (interface) each of `paths(src, dst)`'s entries leaves
    /// through — the energy model's subflow → interface mapping.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: passing a path that does not originate at src is a caller bug in experiment wiring, not a runtime condition"
    )]
    pub fn first_nic_of_path(&self, src: usize, spec: &PathSpec) -> usize {
        self.nic_up[src].iter().position(|&l| l == spec.fwd[0]).expect("path does not start at src")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    fn build(n: usize, k: usize) -> (Simulator, BCube) {
        let mut sim = Simulator::new(1);
        let b = BCube::build(
            &mut sim,
            n,
            k,
            LinkConfig::new(100_000_000, SimDuration::from_micros(100)),
        );
        (sim, b)
    }

    #[test]
    fn paper_scale_dimensions() {
        let (_, b) = build(8, 1);
        assert_eq!(b.hosts(), 64);
        assert_eq!(b.switches(), 16);
    }

    #[test]
    fn digit_arithmetic() {
        let (_, b) = build(4, 2);
        // host 27 in base 4 = (1, 2, 3).
        assert_eq!(b.digit(27, 0), 3);
        assert_eq!(b.digit(27, 1), 2);
        assert_eq!(b.digit(27, 2), 1);
        assert_eq!(b.with_digit(27, 0, 0), 24);
        assert_eq!(b.with_digit(27, 2, 3), 59);
    }

    #[test]
    fn two_digit_difference_gives_two_disjoint_paths() {
        let (_, b) = build(4, 1);
        // hosts 0 = (0,0) and 5 = (1,1): differ in both digits.
        let p = b.paths(0, 5);
        assert_eq!(p.len(), 2);
        // Each path: 2 corrections × 2 links = 4 links, one relay host.
        for spec in &p {
            assert_eq!(spec.fwd.len(), 4);
        }
        // NIC-disjoint first hops.
        assert_ne!(p[0].fwd[0], p[1].fwd[0]);
        assert_eq!(b.first_nic_of_path(0, &p[0]) + b.first_nic_of_path(0, &p[1]), 1);
    }

    #[test]
    fn one_digit_difference_dedups_to_single_path() {
        let (_, b) = build(4, 1);
        // hosts 0 = (0,0) and 1 = (0,1): differ only in digit 0.
        let p = b.paths(0, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].fwd.len(), 2); // one switch hop, no relay
    }

    #[test]
    fn sampler_keeps_the_enumerated_picks() {
        for (n, k) in [(4, 1), (4, 2), (8, 1)] {
            let (_, b) = build(n, k);
            crate::pin::assert_sampler_pinned(
                b.hosts(),
                |s, d| b.paths(s, d),
                |s, d, n, rng| b.sample_paths(s, d, n, rng),
            );
        }
    }

    #[test]
    fn bcube2_gives_three_paths() {
        let (_, b) = build(3, 2);
        // hosts 0=(0,0,0) and 26=(2,2,2) differ in all three digits.
        let p = b.paths(0, 26);
        assert_eq!(p.len(), 3);
        for spec in &p {
            assert_eq!(spec.fwd.len(), 6); // three corrections, two relays
        }
    }
}
