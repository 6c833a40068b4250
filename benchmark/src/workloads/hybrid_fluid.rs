//! `hybrid_fluid` — the `hybrid_scale --quick` tier rebuilt from public API:
//! FatTree(k=8), 2048 fluid flows × 2 subflows, 64 short packet flows, RK4
//! step 5e-4 s, six congestion-control models (olia, lia, ewtcp, balia, dts,
//! dts-phi), one cell per model.
//!
//! Why: `core::fluid` and `core::hybrid` do nearly all the work and `netsim`
//! very little — the Peng–Walid–Hwang–Low fluid regime that ROADMAP item 2
//! targets, and the only path to the paper's datacenter claims at scale.

use super::positive;
use crate::pass::{Layer, Pass};
use congestion::AlgorithmKind;
use energy_model::WiredCpuModel;
use mptcp_energy::hybrid::{fluid_model_of, HybridConfig, HybridEngine};
use mptcp_energy::scenarios::CcChoice;
use netsim::{SimDuration, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::{FatTree, LinkParams};
use transport::FlowConfig;
use workload::permutation_pairs;

const HOST_BPS: u64 = 100_000_000;

/// Sizes of one cell.
#[derive(Clone, Copy, Debug)]
pub struct Tier {
    /// FatTree arity.
    pub k: usize,
    /// Long-lived fluid flows (two subflows each).
    pub long_flows: usize,
    /// Short packet-level transfers sharing the fabric.
    pub short_flows: usize,
    /// Coupling epochs.
    pub epochs: usize,
    /// Epoch length, seconds.
    pub epoch_s: f64,
    /// Fluid RK4 step, seconds.
    pub fluid_dt: f64,
}

impl Tier {
    /// The measured tier; `tiny` is the selftest's.
    pub fn of(tiny: bool) -> Tier {
        if tiny {
            Tier { k: 4, long_flows: 64, short_flows: 8, epochs: 3, epoch_s: 0.05, fluid_dt: 1e-3 }
        } else {
            // Three 50 ms epochs: long enough that packet flows older than
            // one epoch are handed off to the fluid regime inside the run.
            Tier {
                k: 8,
                long_flows: 2_048,
                short_flows: 64,
                epochs: 3,
                epoch_s: 0.05,
                fluid_dt: 5e-4,
            }
        }
    }

    /// RK4 steps per epoch.
    pub fn steps_per_epoch(&self) -> u64 {
        (self.epoch_s / self.fluid_dt).round() as u64
    }
}

/// The six models with a §IV fluid form, in `hybrid_scale` order.
pub fn models() -> [(&'static str, CcChoice); 6] {
    [
        ("olia", CcChoice::Base(AlgorithmKind::Olia)),
        ("lia", CcChoice::Base(AlgorithmKind::Lia)),
        ("ewtcp", CcChoice::Base(AlgorithmKind::Ewtcp)),
        ("balia", CcChoice::Base(AlgorithmKind::Balia)),
        ("dts", CcChoice::dts()),
        ("dts-phi", CcChoice::dts_phi()),
    ]
}

/// The inter-pod path RTT of the fabric (6 links × (100 µs propagation +
/// serialization of a 1500 B segment) each way, ACKs back): the calibration
/// RTT of the fluid price curves, as in `hybrid_scale`.
fn calib_rtt_s() -> f64 {
    let ser_data_s = 1500.0 * 8.0 / HOST_BPS as f64;
    let ser_ack_s = 40.0 * 8.0 / HOST_BPS as f64;
    6.0 * (2.0 * 100e-6 + ser_data_s + ser_ack_s)
}

/// Builds the engine for one cell: topology, the fluid population (rounds of
/// permutation traffic at a fair-share start rate) and the short packet
/// transfers (32–255 packets each, starts staggered across the first epoch).
/// Returns the engine and the microseconds spent in `add_fluid_flow`.
///
/// # Errors
///
/// If `cc` has no fluid form.
pub fn build(
    t: Tier,
    cc: &CcChoice,
    sim_seed: u64,
    place_seed: u64,
    pass: &mut Pass,
) -> Result<HybridEngine, String> {
    let model = fluid_model_of(cc).ok_or_else(|| format!("{} has no fluid form", cc.label()))?;
    let mut sim = Simulator::new(sim_seed);
    let params = LinkParams::new(HOST_BPS, SimDuration::from_micros(100)).queue(32);
    let ft = pass
        .tracer
        .span("FatTree::build", Layer::Topology, || FatTree::build(&mut sim, t.k, params));
    let hosts = ft.hosts();
    let cfg = HybridConfig {
        epoch_s: t.epoch_s,
        fluid_dt: t.fluid_dt,
        handoff_age_s: t.epoch_s,
        calib_rtt_s: calib_rtt_s(),
        ..HybridConfig::default()
    };
    let mut eng = HybridEngine::new(sim, hosts, WiredCpuModel::energy_proportional_server(), cfg);

    let mut rng = SmallRng::seed_from_u64(place_seed);
    let cap_pps = HOST_BPS as f64 / (8.0 * 1500.0);
    let per_host = t.long_flows.div_ceil(hosts).max(1);
    let x0 = (cap_pps / (2.0 * per_host as f64)).max(1.0);
    let mut placed = 0;
    while placed < t.long_flows {
        let pairs = permutation_pairs(hosts, &mut rng);
        for &(src, dst) in pairs.iter().take(t.long_flows - placed) {
            let paths = ft.sample_paths(src, dst, 2, &mut rng);
            pass.tracer.span("HybridEngine::add_fluid_flow", Layer::Core, || {
                eng.add_fluid_flow(model, &paths, x0, src);
            });
            placed += 1;
        }
    }
    let pairs = permutation_pairs(hosts, &mut rng);
    for j in 0..t.short_flows {
        let (src, dst) = pairs[j % pairs.len()];
        let paths = ft.sample_paths(src, dst, 2, &mut rng);
        let fc = FlowConfig::new(j as u64)
            .transfer_pkts(rng.gen_range(32..256u64))
            .min_rto(SimDuration::from_millis(10))
            .rcv_buf_pkts(512);
        let jitter = SimDuration::from_micros((j as u64 * 7_000) % (t.epoch_s * 1e6) as u64);
        pass.tracer.span("HybridEngine::add_packet_flow_from", Layer::Core, || {
            eng.add_packet_flow_from(fc, cc, &paths, jitter, src);
        });
    }
    Ok(eng)
}

pub(super) fn pass(rng: &mut SmallRng, pass: &mut Pass) -> Result<(), String> {
    let t = Tier::of(pass.tiny);
    let sim_seed: u64 = rng.gen();
    let place_seed: u64 = rng.gen();
    for (label, cc) in models() {
        pass.tracer.enter(format!("cell {label}"), Layer::Bench);
        let mut eng = build(t, &cc, sim_seed, place_seed, pass)?;
        let paths = eng.fluid_rates().len() as u64;

        // One timed segment per epoch.
        let mut ran = true;
        for _ in 0..t.epochs {
            let tracer = &mut pass.tracer;
            ran &= pass
                .meter
                .timed(|| {
                    tracer.span("HybridEngine::advance_epoch", Layer::Core, || eng.advance_epoch());
                })
                .is_some();
        }
        pass.tracer.exit();
        if !ran {
            continue;
        }

        let c = eng.counters();
        // Handed-off packet flows add fluid paths mid-run; count the paths
        // integrated at the start, which is the configured population.
        pass.work += paths * c.fluid_steps;
        for v in [eng.energy_joules(), eng.delivered_bits(), eng.joules_per_gbit()] {
            pass.digest.f64(v);
        }
        for v in [c.fluid_steps, c.handoffs, c.price_cap_hits, c.background_links] {
            pass.digest.u64(v);
        }
        if pass.tracer.on() {
            pass.count("core.fluid_steps", c.fluid_steps as f64);
            pass.gauge_max("core.fluid_paths", eng.fluid_rates().len() as f64);
            pass.count("core.handoffs", c.handoffs as f64);
            pass.count("core.price_cap_hits", c.price_cap_hits as f64);
            pass.gauge_max("core.background_links", c.background_links as f64);
            for l in eng.sim().world().link_counters() {
                pass.count("netsim.link_tx_pkts", l.tx_pkts as f64);
                pass.count("netsim.drops_queue", l.drops_queue as f64);
            }
        }
        let want = t.steps_per_epoch() * t.epochs as u64;
        let goodput_bps = eng.delivered_bits() / (t.epochs as f64 * t.epoch_s);
        let check = positive("energy_j", eng.energy_joules())
            .and_then(|()| positive("goodput_bps", goodput_bps))
            .and_then(|()| positive("joules_per_gbit", eng.joules_per_gbit()))
            .and_then(|()| {
                if c.fluid_steps == want {
                    Ok(())
                } else {
                    Err(format!("fluid_steps {} differs from the configured {want}", c.fluid_steps))
                }
            });
        pass.cell(label, check);
    }
    Ok(())
}
