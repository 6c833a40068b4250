//! The general hierarchical Internet topology of the paper's §V-C: many end
//! devices behind local aggregation nodes, aggregation nodes behind a
//! backbone — the setting where MPTCP "may aggravate the traffic
//! concentration on both aggregated and core nodes" and where the
//! compensative parameter φ is designed to help.
//!
//! Structure: `n_users` dual-homed end hosts; host `i` connects to
//! aggregation nodes `i % n_agg` and `(i+1) % n_agg`; every aggregation node
//! connects to the single backbone node, behind which the servers sit. Each
//! user therefore has two partially-overlapping paths that share the
//! backbone — multipath pressure concentrates exactly where the paper says
//! it does.

use crate::duplex::LinkParams;
use netsim::{LinkId, Simulator};
use transport::PathSpec;

/// A two-tier aggregation/backbone hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    n_users: usize,
    n_agg: usize,
    /// `access_up[user][homing]`: host → its aggregation node.
    access_up: Vec<[LinkId; 2]>,
    access_down: Vec<[LinkId; 2]>,
    /// `agg_up[agg]`: aggregation node → backbone.
    agg_up: Vec<LinkId>,
    agg_down: Vec<LinkId>,
    /// Backbone → server-side egress (shared by everyone).
    core_up: LinkId,
    core_down: LinkId,
}

impl Hierarchy {
    /// Builds the hierarchy. Access links use `access`, aggregation uplinks
    /// `agg`, and the shared backbone egress `core`.
    ///
    /// # Panics
    ///
    /// Panics if `n_users == 0` or `n_agg < 2`.
    pub fn build(
        sim: &mut Simulator,
        n_users: usize,
        n_agg: usize,
        access: LinkParams,
        agg: LinkParams,
        core: LinkParams,
    ) -> Self {
        assert!(n_users > 0 && n_agg >= 2);
        let access_up = (0..n_users)
            .map(|_| [sim.add_link(access.to_config()), sim.add_link(access.to_config())])
            .collect();
        let access_down = (0..n_users)
            .map(|_| [sim.add_link(access.to_config()), sim.add_link(access.to_config())])
            .collect();
        let agg_up = (0..n_agg).map(|_| sim.add_link(agg.to_config())).collect();
        let agg_down = (0..n_agg).map(|_| sim.add_link(agg.to_config())).collect();
        let core_up = sim.add_link(core.to_config());
        let core_down = sim.add_link(core.to_config());
        Hierarchy { n_users, n_agg, access_up, access_down, agg_up, agg_down, core_up, core_down }
    }

    /// Number of end hosts.
    pub fn users(&self) -> usize {
        self.n_users
    }

    /// The aggregation node for `(user, homing)`.
    fn agg_of(&self, user: usize, homing: usize) -> usize {
        (user + homing) % self.n_agg
    }

    /// User `u`'s two paths to the server side. Both traverse the shared
    /// backbone; they differ in access and aggregation links.
    pub fn user_paths(&self, u: usize) -> Vec<PathSpec> {
        assert!(u < self.n_users, "user index out of range");
        (0..2)
            .map(|h| {
                let a = self.agg_of(u, h);
                PathSpec::new(
                    vec![self.access_up[u][h], self.agg_up[a], self.core_up],
                    vec![self.core_down, self.agg_down[a], self.access_down[u][h]],
                )
            })
            .collect()
    }

    /// The shared backbone uplink (the concentration point for telemetry).
    pub fn backbone(&self) -> LinkId {
        self.core_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    fn build(n_users: usize, n_agg: usize) -> (Simulator, Hierarchy) {
        let mut sim = Simulator::new(1);
        let access = LinkParams::new(20_000_000, SimDuration::from_millis(5));
        let agg = LinkParams::new(100_000_000, SimDuration::from_millis(5));
        let core = LinkParams::new(200_000_000, SimDuration::from_millis(10));
        let h = Hierarchy::build(&mut sim, n_users, n_agg, access, agg, core);
        (sim, h)
    }

    #[test]
    fn every_user_has_two_distinct_paths_sharing_the_backbone() {
        let (_, h) = build(8, 3);
        for u in 0..h.users() {
            let p = h.user_paths(u);
            assert_eq!(p.len(), 2);
            assert_ne!(p[0].fwd[0], p[1].fwd[0], "distinct access links");
            assert_ne!(p[0].fwd[1], p[1].fwd[1], "distinct aggregation links");
            assert_eq!(p[0].fwd[2], p[1].fwd[2], "shared backbone");
            assert_eq!(p[0].fwd[2], h.backbone());
        }
    }

    #[test]
    fn aggregation_fanout_wraps() {
        let (_, h) = build(5, 2);
        let p0 = h.user_paths(0);
        let p1 = h.user_paths(1);
        // User 0 homes to aggs {0,1}; user 1 to {1,0}: same agg links appear.
        assert_eq!(p0[0].fwd[1], p1[1].fwd[1]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_user_panics() {
        let (_, h) = build(2, 2);
        let _ = h.user_paths(5);
    }
}
