//! FatTree topology (Al-Fares et al., SIGCOMM 2008), as used by the paper's
//! htsim datacenter experiments (Figs. 13, 15, 16).
//!
//! A `k`-ary FatTree has `k` pods, each with `k/2` edge and `k/2` aggregation
//! switches, `(k/2)²` core switches, and `k³/4` hosts. Every inter-pod host
//! pair has `(k/2)²` equal-cost paths (one per core switch); MPTCP subflows
//! sample among them, the methodology of Raiciu et al. (SIGCOMM 2011).
//!
//! Switches are implicit: the simulator is source-routed, so a topology is
//! exactly its set of directed links plus the path enumeration.

use crate::duplex::LinkParams;
use netsim::{LinkId, Simulator};
use rand::Rng;
use transport::PathSpec;

/// A `k`-ary FatTree's links and path enumeration.
#[derive(Clone, Debug)]
pub struct FatTree {
    /// The arity `k` (even).
    pub k: usize,
    host_up: Vec<LinkId>,
    host_down: Vec<LinkId>,
    /// `e2a[edge_global][a_local]`: edge → agg within the pod.
    e2a: Vec<Vec<LinkId>>,
    /// `a2e[agg_global][e_local]`: agg → edge within the pod.
    a2e: Vec<Vec<LinkId>>,
    /// `a2c[agg_global][j]`: agg → core `(a_local, j)`.
    a2c: Vec<Vec<LinkId>>,
    /// `c2a[agg_global][j]`: core `(a_local, j)` → agg.
    c2a: Vec<Vec<LinkId>>,
}

impl FatTree {
    /// Builds a `k`-ary FatTree with every link using `params`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2.
    pub fn build(sim: &mut Simulator, k: usize, params: LinkParams) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "FatTree arity must be even, got {k}");
        let half = k / 2;
        let hosts = k * k * k / 4;
        let n_edge = k * half;
        let n_agg = k * half;
        let link = |sim: &mut Simulator| sim.add_link(params.to_config());

        let host_up = (0..hosts).map(|_| link(sim)).collect();
        let host_down = (0..hosts).map(|_| link(sim)).collect();
        let e2a = (0..n_edge).map(|_| (0..half).map(|_| link(sim)).collect()).collect();
        let a2e = (0..n_agg).map(|_| (0..half).map(|_| link(sim)).collect()).collect();
        let a2c = (0..n_agg).map(|_| (0..half).map(|_| link(sim)).collect()).collect();
        let c2a = (0..n_agg).map(|_| (0..half).map(|_| link(sim)).collect()).collect();
        FatTree { k, host_up, host_down, e2a, a2e, a2c, c2a }
    }

    /// Number of hosts (`k³/4`).
    pub fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Number of switches (`k²/4` core + `k²` pod switches = `5k²/4`).
    pub fn switches(&self) -> usize {
        5 * self.k * self.k / 4
    }

    fn half(&self) -> usize {
        self.k / 2
    }

    fn pod_of(&self, host: usize) -> usize {
        host / (self.k * self.k / 4)
    }

    fn edge_of(&self, host: usize) -> usize {
        // Global edge index.
        host / self.half()
    }

    fn agg_global(&self, pod: usize, a_local: usize) -> usize {
        pod * self.half() + a_local
    }

    /// The number of equal-cost paths from `src` to `dst`: one under a
    /// shared edge switch, one per aggregation switch within a pod, one per
    /// core switch between pods.
    fn path_count(&self, src: usize, dst: usize) -> usize {
        assert_ne!(src, dst, "src and dst must differ");
        if self.edge_of(src) == self.edge_of(dst) {
            1
        } else if self.pod_of(src) == self.pod_of(dst) {
            self.half()
        } else {
            self.half() * self.half()
        }
    }

    /// The `i`-th equal-cost forward link path from `src` to `dst`: within a
    /// pod via aggregation switch `i`, between pods via core
    /// `(i / (k/2), i % (k/2))`.
    fn forward_path(&self, src: usize, dst: usize, i: usize) -> Vec<LinkId> {
        let (ps, pd) = (self.pod_of(src), self.pod_of(dst));
        let (es, ed) = (self.edge_of(src), self.edge_of(dst));
        let ed_local = ed % self.half();
        if es == ed {
            vec![self.host_up[src], self.host_down[dst]]
        } else if ps == pd {
            let ag = self.agg_global(ps, i);
            vec![self.host_up[src], self.e2a[es][i], self.a2e[ag][ed_local], self.host_down[dst]]
        } else {
            let (a, j) = (i / self.half(), i % self.half());
            let (ags, agd) = (self.agg_global(ps, a), self.agg_global(pd, a));
            vec![
                self.host_up[src],
                self.e2a[es][a],
                self.a2c[ags][j],
                self.c2a[agd][j],
                self.a2e[agd][ed_local],
                self.host_down[dst],
            ]
        }
    }

    /// Path `i` between two hosts; the reverse takes the mirror route.
    fn path(&self, src: usize, dst: usize, i: usize) -> PathSpec {
        PathSpec::new(self.forward_path(src, dst, i), self.forward_path(dst, src, i))
    }

    /// All equal-cost bidirectional paths between two hosts.
    pub fn paths(&self, src: usize, dst: usize) -> Vec<PathSpec> {
        (0..self.path_count(src, dst)).map(|i| self.path(src, dst, i)).collect()
    }

    /// Samples `n` paths for a connection's subflows (without replacement
    /// while possible, as htsim's random path selection does).
    pub fn sample_paths<R: Rng>(
        &self,
        src: usize,
        dst: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<PathSpec> {
        crate::sample_by_index(self.path_count(src, dst), n, rng, |i| self.path(src, dst, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build(k: usize) -> (Simulator, FatTree) {
        let mut sim = Simulator::new(1);
        let ft = FatTree::build(
            &mut sim,
            k,
            LinkParams::new(100_000_000, SimDuration::from_micros(100)),
        );
        (sim, ft)
    }

    #[test]
    fn k4_counts() {
        let (sim, ft) = build(4);
        assert_eq!(ft.hosts(), 16);
        assert_eq!(ft.switches(), 20);
        // Links: 2*16 host + edge-agg 8*2*2 + agg-core 8*2*2 = 32+32+32 = 96.
        assert_eq!(sim.world().link_count(), 96);
    }

    #[test]
    fn k8_matches_paper_scale() {
        let (_, ft) = build(8);
        // The paper's FatTree: 128 hosts, 80 switches.
        assert_eq!(ft.hosts(), 128);
        assert_eq!(ft.switches(), 80);
    }

    #[test]
    fn same_edge_single_path() {
        let (_, ft) = build(4);
        // Hosts 0 and 1 share edge 0.
        let p = ft.paths(0, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].fwd.len(), 2);
    }

    #[test]
    fn same_pod_paths_use_each_agg() {
        let (_, ft) = build(4);
        // Hosts 0 and 2 are in pod 0, different edges.
        let p = ft.paths(0, 2);
        assert_eq!(p.len(), 2);
        for spec in &p {
            assert_eq!(spec.fwd.len(), 4);
            assert_eq!(spec.rev.len(), 4);
        }
    }

    #[test]
    fn inter_pod_paths_one_per_core() {
        let (_, ft) = build(4);
        let p = ft.paths(0, 15);
        assert_eq!(p.len(), 4); // (k/2)² = 4 cores
        for spec in &p {
            assert_eq!(spec.fwd.len(), 6);
        }
        // All paths distinct.
        for i in 0..p.len() {
            for j in i + 1..p.len() {
                assert_ne!(p[i].fwd, p[j].fwd);
            }
        }
    }

    #[test]
    fn paths_share_host_links_but_diverge_in_core() {
        let (_, ft) = build(4);
        let p = ft.paths(0, 15);
        for spec in &p {
            assert_eq!(spec.fwd[0], p[0].fwd[0], "same host uplink");
            assert_eq!(*spec.fwd.last().unwrap(), *p[0].fwd.last().unwrap());
        }
    }

    #[test]
    fn sampling_with_replacement_when_oversubscribed() {
        let (_, ft) = build(4);
        let mut rng = SmallRng::seed_from_u64(5);
        let p = ft.sample_paths(0, 1, 3, &mut rng); // only 1 distinct path
        assert_eq!(p.len(), 3);
        let p8 = ft.sample_paths(0, 15, 8, &mut rng);
        assert_eq!(p8.len(), 8);
    }

    #[test]
    #[should_panic]
    fn self_paths_panic() {
        let (_, ft) = build(4);
        let _ = ft.paths(3, 3);
    }

    /// The enumeration that built every path before sampling: the order
    /// path `i` must keep.
    fn enumerated_forward_paths(ft: &FatTree, src: usize, dst: usize) -> Vec<Vec<LinkId>> {
        assert_ne!(src, dst, "src and dst must differ");
        let (ps, pd) = (ft.pod_of(src), ft.pod_of(dst));
        let (es, ed) = (ft.edge_of(src), ft.edge_of(dst));
        let ed_local = ed % ft.half();
        let mut out = Vec::new();
        if es == ed {
            // Same edge switch.
            out.push(vec![ft.host_up[src], ft.host_down[dst]]);
        } else if ps == pd {
            // Same pod, via any aggregation switch.
            for a in 0..ft.half() {
                let ag = ft.agg_global(ps, a);
                out.push(vec![
                    ft.host_up[src],
                    ft.e2a[es][a],
                    ft.a2e[ag][ed_local],
                    ft.host_down[dst],
                ]);
            }
        } else {
            // Inter-pod, via core (i, j).
            for i in 0..ft.half() {
                for j in 0..ft.half() {
                    let ags = ft.agg_global(ps, i);
                    let agd = ft.agg_global(pd, i);
                    out.push(vec![
                        ft.host_up[src],
                        ft.e2a[es][i],
                        ft.a2c[ags][j],
                        ft.c2a[agd][j],
                        ft.a2e[agd][ed_local],
                        ft.host_down[dst],
                    ]);
                }
            }
        }
        out
    }

    #[test]
    fn sampler_keeps_the_enumerated_picks() {
        for k in [4, 8] {
            let (_, ft) = build(k);
            crate::pin::assert_sampler_pinned(
                ft.hosts(),
                |s, d| {
                    let rev = enumerated_forward_paths(&ft, d, s);
                    enumerated_forward_paths(&ft, s, d)
                        .into_iter()
                        .zip(rev)
                        .map(|(f, r)| PathSpec::new(f, r))
                        .collect()
                },
                |s, d, n, rng| ft.sample_paths(s, d, n, rng),
            );
        }
    }
}
