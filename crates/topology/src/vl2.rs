//! VL2 topology (Greenberg et al., SIGCOMM 2009), as used by the paper's
//! htsim experiments (Figs. 14, 15, 16).
//!
//! VL2 is a Clos: hosts hang off ToR switches; each ToR connects to two
//! aggregation switches; aggregation and intermediate switches form a
//! complete bipartite graph. Switch-to-switch links are faster than host
//! links (the paper uses 1 Gb/s switch links over 100 Mb/s host links).
//! Valiant load balancing gives each inter-ToR host pair
//! `2 × n_int × 2` equal-cost paths.

use netsim::{LinkConfig, LinkId, Simulator};
use rand::Rng;
use transport::PathSpec;

/// VL2 dimensioning and link parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vl2Config {
    /// Number of ToR switches.
    pub n_tor: usize,
    /// Number of aggregation switches.
    pub n_agg: usize,
    /// Number of intermediate switches.
    pub n_int: usize,
    /// Hosts per ToR.
    pub hosts_per_tor: usize,
    /// Host ↔ ToR link parameters.
    pub host_link: LinkConfig,
    /// Switch ↔ switch link parameters (faster, per the paper).
    pub switch_link: LinkConfig,
}

/// A VL2 network's links and path enumeration.
#[derive(Clone, Debug)]
pub struct Vl2 {
    cfg: Vl2Config,
    host_up: Vec<LinkId>,
    host_down: Vec<LinkId>,
    /// `t2a[tor][sel]`: ToR → its `sel`-th aggregation switch.
    t2a: Vec<[LinkId; 2]>,
    /// `a2t[tor][sel]`: that aggregation switch → ToR.
    a2t: Vec<[LinkId; 2]>,
    /// `a2i[agg][int]`, `i2a[agg][int]`.
    a2i: Vec<Vec<LinkId>>,
    i2a: Vec<Vec<LinkId>>,
}

impl Vl2 {
    /// Builds a VL2 network.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `n_agg < 2`.
    pub fn build(sim: &mut Simulator, cfg: Vl2Config) -> Self {
        assert!(cfg.n_tor > 0 && cfg.n_agg >= 2 && cfg.n_int > 0 && cfg.hosts_per_tor > 0);
        let hosts = cfg.n_tor * cfg.hosts_per_tor;
        let host_up = (0..hosts).map(|_| sim.add_link(cfg.host_link)).collect();
        let host_down = (0..hosts).map(|_| sim.add_link(cfg.host_link)).collect();
        let sw = |sim: &mut Simulator| sim.add_link(cfg.switch_link);
        let t2a = (0..cfg.n_tor).map(|_| [sw(sim), sw(sim)]).collect();
        let a2t = (0..cfg.n_tor).map(|_| [sw(sim), sw(sim)]).collect();
        let a2i = (0..cfg.n_agg).map(|_| (0..cfg.n_int).map(|_| sw(sim)).collect()).collect();
        let i2a = (0..cfg.n_agg).map(|_| (0..cfg.n_int).map(|_| sw(sim)).collect()).collect();
        Vl2 { cfg, host_up, host_down, t2a, a2t, a2i, i2a }
    }

    /// The paper-scale instance: 128 hosts (16 ToRs × 8), 8 aggregation and
    /// 4 intermediate switches, 100 Mb/s host links, 1 Gb/s switch links.
    pub fn paper_scale(
        sim: &mut Simulator,
        host_link: LinkConfig,
        switch_link: LinkConfig,
    ) -> Self {
        Vl2::build(
            sim,
            Vl2Config { n_tor: 16, n_agg: 8, n_int: 4, hosts_per_tor: 8, host_link, switch_link },
        )
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.cfg.n_tor * self.cfg.hosts_per_tor
    }

    fn tor_of(&self, host: usize) -> usize {
        host / self.cfg.hosts_per_tor
    }

    /// The aggregation switch index for `(tor, sel)`.
    fn agg_of(&self, tor: usize, sel: usize) -> usize {
        (2 * tor + sel) % self.cfg.n_agg
    }

    /// The number of equal-cost paths from `src` to `dst`: one under a
    /// shared ToR, else 2 source aggs × `n_int` intermediates × 2 dest aggs.
    fn path_count(&self, src: usize, dst: usize) -> usize {
        assert_ne!(src, dst, "src and dst must differ");
        if self.tor_of(src) == self.tor_of(dst) {
            1
        } else {
            2 * self.cfg.n_int * 2
        }
    }

    /// The `i`-th equal-cost forward link path from `src` to `dst`, with
    /// `i = (a_sel·n_int + int)·2 + b_sel` between ToRs.
    fn forward_path(&self, src: usize, dst: usize, i: usize) -> Vec<LinkId> {
        let (ts, td) = (self.tor_of(src), self.tor_of(dst));
        if ts == td {
            return vec![self.host_up[src], self.host_down[dst]];
        }
        let (a_sel, int, b_sel) = (i / 2 / self.cfg.n_int, i / 2 % self.cfg.n_int, i % 2);
        let (agg_a, agg_b) = (self.agg_of(ts, a_sel), self.agg_of(td, b_sel));
        vec![
            self.host_up[src],
            self.t2a[ts][a_sel],
            self.a2i[agg_a][int],
            self.i2a[agg_b][int],
            self.a2t[td][b_sel],
            self.host_down[dst],
        ]
    }

    /// Path `i` between two hosts; the reverse takes the mirror route.
    fn path(&self, src: usize, dst: usize, i: usize) -> PathSpec {
        PathSpec::new(self.forward_path(src, dst, i), self.forward_path(dst, src, i))
    }

    /// All equal-cost bidirectional paths between two hosts.
    pub fn paths(&self, src: usize, dst: usize) -> Vec<PathSpec> {
        (0..self.path_count(src, dst)).map(|i| self.path(src, dst, i)).collect()
    }

    /// Samples `n` paths for a connection's subflows.
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

    fn build() -> (Simulator, Vl2) {
        let mut sim = Simulator::new(1);
        let host = LinkConfig::new(100_000_000, SimDuration::from_micros(100));
        let sw = LinkConfig::new(1_000_000_000, SimDuration::from_micros(100));
        let v = Vl2::paper_scale(&mut sim, host, sw);
        (sim, v)
    }

    /// The enumeration that built every path before sampling: the order
    /// path `i` must keep.
    fn enumerated_forward_paths(v: &Vl2, src: usize, dst: usize) -> Vec<Vec<LinkId>> {
        assert_ne!(src, dst, "src and dst must differ");
        let (ts, td) = (v.tor_of(src), v.tor_of(dst));
        let mut out = Vec::new();
        if ts == td {
            out.push(vec![v.host_up[src], v.host_down[dst]]);
            return out;
        }
        for a_sel in 0..2 {
            for i in 0..v.cfg.n_int {
                for b_sel in 0..2 {
                    let agg_a = v.agg_of(ts, a_sel);
                    let agg_b = v.agg_of(td, b_sel);
                    out.push(vec![
                        v.host_up[src],
                        v.t2a[ts][a_sel],
                        v.a2i[agg_a][i],
                        v.i2a[agg_b][i],
                        v.a2t[td][b_sel],
                        v.host_down[dst],
                    ]);
                }
            }
        }
        out
    }

    #[test]
    fn sampler_keeps_the_enumerated_picks() {
        // The Figs. 14–15 smoke fabric (`DcKind::Vl2 { scale: 8 }`) and the
        // paper-scale one.
        let mut sim = Simulator::new(1);
        let host = LinkConfig::new(100_000_000, SimDuration::from_micros(100));
        let sw = LinkConfig::new(1_000_000_000, SimDuration::from_micros(100));
        let smoke = Vl2Config {
            n_tor: 2,
            n_agg: 2,
            n_int: 2,
            hosts_per_tor: 8,
            host_link: host,
            switch_link: sw,
        };
        for v in [Vl2::build(&mut sim, smoke), build().1] {
            crate::pin::assert_sampler_pinned(
                v.hosts(),
                |s, d| {
                    let rev = enumerated_forward_paths(&v, d, s);
                    enumerated_forward_paths(&v, s, d)
                        .into_iter()
                        .zip(rev)
                        .map(|(f, r)| PathSpec::new(f, r))
                        .collect()
                },
                |s, d, n, rng| v.sample_paths(s, d, n, rng),
            );
        }
    }

    #[test]
    fn paper_scale_dimensions() {
        let (_, v) = build();
        assert_eq!(v.hosts(), 128);
    }

    #[test]
    fn same_tor_single_path() {
        let (_, v) = build();
        let p = v.paths(0, 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].fwd.len(), 2);
    }

    #[test]
    fn inter_tor_valiant_path_count() {
        let (_, v) = build();
        // 2 src-agg × 4 intermediates × 2 dst-agg = 16.
        let p = v.paths(0, 127);
        assert_eq!(p.len(), 16);
        for spec in &p {
            assert_eq!(spec.fwd.len(), 6);
        }
    }

    #[test]
    fn switch_links_are_faster() {
        let (sim, v) = build();
        let p = v.paths(0, 127);
        let host_link = sim.world().link(p[0].fwd[0]).config().bandwidth_bps;
        let sw_link = sim.world().link(p[0].fwd[2]).config().bandwidth_bps;
        assert_eq!(host_link, 100_000_000);
        assert_eq!(sw_link, 1_000_000_000);
    }
}
