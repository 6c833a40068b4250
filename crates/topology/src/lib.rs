//! # topology — network topology builders
//!
//! Every network scenario the paper evaluates, as source-routed link graphs
//! plus path enumerations over the [`netsim`] simulator:
//!
//! * [`twopath::TwoPath`] — dual-NIC testbed machines (Figs. 1, 3, 4), the
//!   Fig. 5(b) traffic-shifting scenario (Figs. 7–9), and the heterogeneous
//!   WiFi + 4G wireless scenario (Fig. 17);
//! * [`shared::SharedBottleneck`] — the Fig. 5(a) scenario where N MPTCP
//!   users compete with 2N TCP users (Fig. 6);
//! * [`fattree::FatTree`] — k-ary FatTree (Fig. 13, 15, 16);
//! * [`vl2::Vl2`] — VL2 Clos with fast switch links (Fig. 14, 15, 16);
//! * [`bcube::BCube`] — server-centric BCube with host relaying (Fig. 12);
//! * [`ec2::Ec2Vpc`] — four-ENI multihomed cloud instances (Fig. 10);
//! * [`hierarchy::Hierarchy`] — the §V-C aggregation/backbone Internet
//!   hierarchy that motivates the compensative parameter φ.
//!
//! All builders return plain data (link ids + path enumerations); attach
//! flows with [`transport::attach_flow`].
//!
//! # Examples
//!
//! ```
//! use netsim::{LinkConfig, SimDuration, Simulator};
//! use topology::FatTree;
//!
//! let mut sim = Simulator::new(1);
//! let ft = FatTree::build(&mut sim, 4,
//!     LinkConfig::new(100_000_000, SimDuration::from_micros(100)));
//! assert_eq!(ft.hosts(), 16);
//! let paths = ft.paths(0, 15);
//! assert_eq!(paths.len(), 4); // one per core switch
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod bcube;
pub mod duplex;
pub mod ec2;
pub mod fattree;
pub mod hierarchy;
pub mod shared;
pub mod twopath;
pub mod vl2;

pub use bcube::BCube;
pub use duplex::{duplex, Duplex};
pub use ec2::{Ec2Vpc, ENIS_PER_HOST};
pub use fattree::FatTree;
pub use hierarchy::Hierarchy;
pub use shared::SharedBottleneck;
pub use twopath::TwoPath;
pub use vl2::{Vl2, Vl2Config};

/// The old name of [`netsim::LinkConfig`], kept only for the benchmark
/// package, which still names it.
#[doc(hidden)]
pub use netsim::LinkConfig as LinkParams;

use rand::seq::SliceRandom;
use rand::Rng;
use transport::PathSpec;

/// Samples `n` of a host pair's `count` equal-cost paths for a connection's
/// subflows — without replacement while possible, as htsim's random path
/// selection does, then cycling — and builds only the paths it keeps;
/// `path(i)` builds the pair's `i`-th path.
///
/// Shuffling the indices makes the same `count − 1` draws that shuffling the
/// built paths would (the draws depend on the length alone), so a seed picks
/// the same paths and leaves its RNG in the same state.
pub(crate) fn sample_by_index<R: Rng>(
    count: usize,
    n: usize,
    rng: &mut R,
    path: impl Fn(usize) -> PathSpec,
) -> Vec<PathSpec> {
    let mut order: Vec<usize> = (0..count).collect();
    order.shuffle(rng);
    order.iter().cycle().take(n).map(|&i| path(i)).collect()
}

#[cfg(test)]
pub(crate) mod pin {
    //! Pins [`sample_by_index`](super::sample_by_index) to the sampler it
    //! replaced: enumerate every path, shuffle them, truncate or cycle.

    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, RngCore, SeedableRng};
    use transport::PathSpec;

    /// The enumerate → shuffle → truncate/cycle sampler, verbatim, over a
    /// pair's enumerated paths.
    fn reference_sample<R: Rng>(mut all: Vec<PathSpec>, n: usize, rng: &mut R) -> Vec<PathSpec> {
        all.shuffle(rng);
        if n <= all.len() {
            all.truncate(n);
            all
        } else {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                out.extend(all.iter().take(n - out.len()).cloned());
            }
            out
        }
    }

    /// Asserts that `sample` picks what the reference sampler picks over
    /// `enumerate`'s paths from the same seed, and leaves the RNG where the
    /// reference leaves it, for n ∈ {1, 2, 3, 4, 8, count + 1}: on every
    /// ordered pair of up to 64 hosts, or 500 seeded pairs of a larger
    /// fabric.
    pub(crate) fn assert_sampler_pinned(
        hosts: usize,
        enumerate: impl Fn(usize, usize) -> Vec<PathSpec>,
        sample: impl Fn(usize, usize, usize, &mut SmallRng) -> Vec<PathSpec>,
    ) {
        let pairs: Vec<(usize, usize)> = if hosts <= 64 {
            (0..hosts)
                .flat_map(|s| (0..hosts).filter(move |&d| d != s).map(move |d| (s, d)))
                .collect()
        } else {
            let mut rng = SmallRng::seed_from_u64(hosts as u64);
            let mut pairs = Vec::new();
            while pairs.len() < 500 {
                let (s, d) = (rng.gen_range(0..hosts), rng.gen_range(0..hosts));
                if s != d {
                    pairs.push((s, d));
                }
            }
            pairs
        };
        for (case, &(src, dst)) in pairs.iter().enumerate() {
            let all = enumerate(src, dst);
            for n in [1, 2, 3, 4, 8, all.len() + 1] {
                let seed = (case * 64 + n) as u64;
                let mut ours = SmallRng::seed_from_u64(seed);
                let mut theirs = SmallRng::seed_from_u64(seed);
                assert_eq!(
                    sample(src, dst, n, &mut ours),
                    reference_sample(all.clone(), n, &mut theirs),
                    "{src}→{dst}, n = {n}: different picks"
                );
                assert_eq!(ours.next_u64(), theirs.next_u64(), "{src}→{dst}, n = {n}: RNG moved");
            }
        }
    }
}
