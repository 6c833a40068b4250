//! Hybrid fluid/packet simulation engine.
//!
//! The packet-level stack (`netsim` + `transport`) is exact but costs
//! O(packets); the Equation-(3) fluid solver ([`crate::fluid`]) is O(paths)
//! per RK4 step but only describes long-lived flows near their operating
//! point. Datacenter-scale energy studies (FatTree k = 32, 10⁵ concurrent
//! flows) need both: the long-lived elephants that dominate energy are
//! integrated as fluids, while short/transient flows — whose slow-start and
//! RTO dynamics the fluid model cannot see — run packet-by-packet.
//!
//! [`HybridEngine`] advances both regimes on one deterministic clock in
//! fixed *epochs* and exchanges state at the boundary each epoch:
//!
//! * **fluid → packet**: aggregate fluid link rates are installed as
//!   background load on the packet links ([`netsim::Link::set_background_bps`]),
//!   stretching packet serialization as if the fluid traffic shared the
//!   wire;
//! * **packet → fluid**: measured packet rates reduce the capacity the
//!   fluid links expose, and packet queueing inflates fluid path RTTs via an
//!   M/M/1 proxy; packet flows that outlive [`HybridConfig::handoff_age_s`]
//!   are frozen ([`transport::FlowHandle::halt`]) and re-born as fluid flows
//!   seeded with their measured rate and RTT
//!   ([`transport::MptcpSender::handoff_state`]).
//!
//! The coupling is explicit (each side sees the other's previous epoch), so
//! one epoch of lag is inherent; epochs should be a few RTTs long. All state
//! derives from the simulator clock and seeded RNG — same seed, same
//! topology, same call sequence gives bit-identical results.

use crate::fluid::{FluidFlow, FluidLink, FluidNet, FluidPath, FluidSolver, X_MIN};
use crate::scenarios::CcChoice;
use congestion::CcModel;
use energy_model::{PowerModel, WiredCpuModel};
use netsim::{SimDuration, SimTime, Simulator};
use transport::{
    attach_flow, FlowConfig, FlowHandle, PathSpec, SubflowSample, DEFAULT_ACK_BYTES,
    DEFAULT_MSS_BYTES,
};

/// Tuning knobs for the hybrid engine.
///
/// Fixed, not configurable: rates convert between packets and bits at
/// transport's [`DEFAULT_MSS_BYTES`], and path RTTs count
/// [`DEFAULT_ACK_BYTES`] ACKs; fluid link prices are calibrated for 90 %
/// utilization (Peng, Walid, Hwang & Low); fluid background load on a packet
/// link is capped at 95 % of its bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridConfig {
    /// Coupling epoch length, seconds. Boundary state (background load,
    /// residual capacity, handoffs) is exchanged once per epoch, so this
    /// should span a few RTTs of the topology.
    pub epoch_s: f64,
    /// RK4 step for the fluid integration, seconds.
    pub fluid_dt: f64,
    /// Packet flows older than this are handed off to the fluid regime
    /// (provided their algorithm has an Equation-(3) form).
    pub handoff_age_s: f64,
    /// RTT used for the price calibration — pick the typical path RTT of
    /// the topology so single-flow fluid equilibria land near 90 % of
    /// capacity.
    pub calib_rtt_s: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { epoch_s: 0.25, fluid_dt: 2e-4, handoff_age_s: 1.0, calib_rtt_s: 0.01 }
    }
}

/// Target utilization of the fluid link price calibration
/// ([`FluidLink::calibrated`]).
const TARGET_UTIL: f64 = 0.9;

/// Fluid background load installed on a packet link is capped at this
/// fraction of the link's nominal bandwidth, so packet flows always keep a
/// residual.
const BG_CAP_FRAC: f64 = 0.95;

/// The Equation-(3) form of an algorithm choice: [`AlgorithmKind::model`]
/// for a baseline (`None` for DCTCP, wVegas and DWC), the DTS or DTS-Φ
/// model otherwise.
///
/// [`AlgorithmKind::model`]: congestion::AlgorithmKind::model
pub fn fluid_model_of(cc: &CcChoice) -> Option<CcModel> {
    match cc {
        CcChoice::Base(kind) => kind.model(),
        CcChoice::Dts(cfg) => Some(CcModel::dts(*cfg)),
        CcChoice::DtsPhi(cfg) => Some(CcModel::dts_phi(*cfg)),
    }
}

/// The fluid form of netsim link `l`: its bandwidth in packets per second
/// at [`DEFAULT_MSS_BYTES`], priced by [`FluidLink::calibrated`] at
/// `calib_rtt` for 90 % utilization.
pub fn fluid_link(sim: &Simulator, l: usize, calib_rtt: f64) -> FluidLink {
    let bw_bps = sim.world().link(l).config().bandwidth_bps;
    let cap_pps = bw_bps as f64 / (8.0 * f64::from(DEFAULT_MSS_BYTES));
    FluidLink::calibrated(cap_pps, calib_rtt, TARGET_UTIL)
}

/// The fluid form of one [`PathSpec`]: its forward (data-direction) links,
/// at a base RTT of propagation plus serialization, [`DEFAULT_MSS_BYTES`]
/// segments forward and [`DEFAULT_ACK_BYTES`] ACKs back.
pub fn fluid_path(sim: &Simulator, path: &PathSpec) -> FluidPath {
    let w = sim.world();
    let mut rtt = 0.0;
    for &l in &path.fwd {
        let c = w.link(l).config();
        rtt += c.propagation.as_secs_f64() + c.serialization(DEFAULT_MSS_BYTES).as_secs_f64();
    }
    for &l in &path.rev {
        let c = w.link(l).config();
        rtt += c.propagation.as_secs_f64() + c.serialization(DEFAULT_ACK_BYTES).as_secs_f64();
    }
    FluidPath::new(path.fwd.clone(), rtt)
}

/// One flow attached to a packet scenario, as its fluid twin reads it.
pub type Attachment = (CcChoice, Vec<PathSpec>);

/// The fluid twin of a packet scenario: one fluid flow per attached
/// `(algorithm, paths)` that [`fluid_model_of`] has a form for, in
/// attachment order, over fluid links whose ids equal `sim`'s link ids.
/// Each link is priced ([`fluid_link`]) at the smallest base RTT among the
/// twin's paths that cross it; a link no path crosses carries no load and
/// gets price 0. Also returns the indices of the attachments left out,
/// which only the packet engine can run.
pub fn fluid_twin(sim: &Simulator, attachments: &[Attachment]) -> (FluidNet, Vec<usize>) {
    let (mut net, mut packet_only) = (FluidNet::new(), Vec::new());
    let mut calib_rtt = vec![f64::INFINITY; sim.world().link_count()];
    for (i, (cc, paths)) in attachments.iter().enumerate() {
        let Some(model) = fluid_model_of(cc) else {
            packet_only.push(i);
            continue;
        };
        let paths: Vec<_> = paths.iter().map(|p| fluid_path(sim, p)).collect();
        for p in &paths {
            p.links.iter().for_each(|&l| calib_rtt[l] = calib_rtt[l].min(p.base_rtt));
        }
        net.add_flow(FluidFlow { model, paths });
    }
    net.links = calib_rtt.iter().enumerate().map(|(l, &rtt)| fluid_link(sim, l, rtt)).collect();
    (net, packet_only)
}

/// Book-keeping for one packet-regime flow.
#[derive(Clone, Debug)]
struct PacketFlowMeta {
    handle: FlowHandle,
    src_host: usize,
    attached_at: SimTime,
    /// Fluid form of the flow's algorithm; `None` pins it to the packet
    /// regime forever.
    fluid_model: Option<CcModel>,
    /// Fluid form of each path ([`fluid_path`]): the fallback RTT when
    /// measurements are absent, and the links of the fluid re-birth.
    paths: Vec<FluidPath>,
    handed_off: bool,
    prev_acked: u64,
    prev_sub_acked: Vec<u64>,
}

/// Accounting for one hybrid engine run: how flows were split between the
/// regimes, how often state crossed the boundary, and how hard the fluid
/// integrator worked. Assembled per epoch by the engine — the integration
/// hot path pays nothing for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridCounters {
    /// Coupling epochs advanced.
    pub epochs: u64,
    /// Flows currently integrated in the fluid regime.
    pub fluid_flows: u64,
    /// Flows attached to the packet engine over the run.
    pub packet_flows: u64,
    /// Packet flows that outlived the age threshold and were handed off to
    /// the fluid regime.
    pub handoffs: u64,
    /// RK4 steps integrated across all epochs.
    pub fluid_steps: u64,
    /// Times a fluid link price hit the loss-probability cap.
    pub price_cap_hits: u64,
    /// Packet links carrying a nonzero fluid background load after the last
    /// epoch.
    pub background_links: u64,
}

impl HybridCounters {
    /// Renders the one-line digest the hybrid harness prints on stderr.
    pub fn render(&self) -> String {
        format!(
            "hybrid: epochs={} fluid_flows={} packet_flows={} handoffs={} fluid_steps={} \
             price_cap_hits={} background_links={}",
            self.epochs,
            self.fluid_flows,
            self.packet_flows,
            self.handoffs,
            self.fluid_steps,
            self.price_cap_hits,
            self.background_links
        )
    }
}

/// The hybrid fluid/packet engine: owns the packet simulator and the fluid
/// net, advances both in lock-step epochs, and accounts host energy and
/// delivered bits across the two regimes.
pub struct HybridEngine {
    cfg: HybridConfig,
    sim: Simulator,
    net: FluidNet,
    /// Flat per-path fluid rates, in the same order as `net`'s paths.
    x_flat: Vec<f64>,
    /// Nominal per-link capacity in packets/second, indexed by link id.
    nominal_cap_pps: Vec<f64>,
    link_queue_pkts: Vec<usize>,
    prev_tx_bytes: Vec<u64>,
    /// Packet-side rate per link measured over the previous epoch, pkts/s.
    pkt_rate_pps: Vec<f64>,
    /// Aggregate fluid rate per link after the last integration, pkts/s.
    fluid_y: Vec<f64>,
    /// Source host of each fluid flow. Recorded, not read: energy is
    /// charged per flow (see `account_epoch`).
    fluid_hosts: Vec<usize>,
    packet: Vec<PacketFlowMeta>,
    power: WiredCpuModel,
    n_hosts: usize,
    energy_j: f64,
    delivered_bits: f64,
    counters: HybridCounters,
    load_buf: Vec<SubflowSample>,
}

impl HybridEngine {
    /// Wraps a fully built simulator (topology attached, no flows yet).
    /// Every `netsim` link is mirrored by [`fluid_link`] at
    /// [`HybridConfig::calib_rtt_s`];
    /// `n_hosts` hosts are charged idle power whether or not they carry
    /// flows.
    pub fn new(sim: Simulator, n_hosts: usize, power: WiredCpuModel, cfg: HybridConfig) -> Self {
        let n_links = sim.world().link_count();
        let links: Vec<_> = (0..n_links).map(|l| fluid_link(&sim, l, cfg.calib_rtt_s)).collect();
        let nominal_cap_pps = links.iter().map(|l| l.capacity).collect();
        let w = sim.world();
        let link_queue_pkts = (0..n_links).map(|l| w.link(l).config().queue_limit_pkts).collect();
        let prev_tx_bytes = (0..n_links).map(|l| w.link(l).stats().tx_bytes).collect();
        HybridEngine {
            cfg,
            sim,
            net: FluidNet { links, flows: Vec::new() },
            x_flat: Vec::new(),
            nominal_cap_pps,
            link_queue_pkts,
            prev_tx_bytes,
            pkt_rate_pps: vec![0.0; n_links],
            fluid_y: vec![0.0; n_links],
            fluid_hosts: Vec::new(),
            packet: Vec::new(),
            power,
            n_hosts,
            energy_j: 0.0,
            delivered_bits: 0.0,
            counters: HybridCounters::default(),
            load_buf: Vec::new(),
        }
    }

    /// The packet simulator (read-only).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The fluid net (links mirror simulator link ids).
    pub fn net(&self) -> &FluidNet {
        &self.net
    }

    /// Flat per-path fluid rates, packets/second.
    pub fn fluid_rates(&self) -> &[f64] {
        &self.x_flat
    }

    /// Host energy accumulated so far, joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_j
    }

    /// Bits delivered across both regimes so far.
    pub fn delivered_bits(&self) -> f64 {
        self.delivered_bits
    }

    /// Energy efficiency so far, joules per gigabit (∞ before any delivery).
    pub fn joules_per_gbit(&self) -> f64 {
        if self.delivered_bits > 0.0 {
            self.energy_j / (self.delivered_bits / 1e9)
        } else {
            f64::INFINITY
        }
    }

    /// The observability counters.
    pub fn counters(&self) -> HybridCounters {
        self.counters
    }

    /// Adds a flow directly to the fluid regime with initial per-path rate
    /// `x0_pps`, returning the fluid flow index. Each path's fluid form is
    /// [`fluid_path`]'s.
    pub fn add_fluid_flow(
        &mut self,
        model: CcModel,
        paths: &[PathSpec],
        x0_pps: f64,
        src_host: usize,
    ) -> usize {
        assert!(!paths.is_empty(), "a fluid flow needs at least one path");
        let fps = paths.iter().map(|p| fluid_path(&self.sim, p)).collect();
        self.x_flat.extend(std::iter::repeat_n(x0_pps.max(X_MIN), paths.len()));
        self.fluid_hosts.push(src_host);
        self.net.add_flow(FluidFlow { model, paths: fps })
    }

    /// Attaches a flow from `src_host` to the packet simulator and registers
    /// it for epoch accounting and eventual handoff. `cc` both builds the
    /// per-ACK algorithm and determines the fluid form used if the flow
    /// outlives [`HybridConfig::handoff_age_s`].
    pub fn add_packet_flow_from(
        &mut self,
        cfg: FlowConfig,
        cc: &CcChoice,
        paths: &[PathSpec],
        start_after: SimDuration,
        src_host: usize,
    ) -> FlowHandle {
        let fluid_paths = paths.iter().map(|p| fluid_path(&self.sim, p)).collect();
        let n_paths = paths.len();
        let algo = cc.build(n_paths);
        let handle = attach_flow(&mut self.sim, cfg, algo, paths, start_after);
        self.packet.push(PacketFlowMeta {
            handle,
            src_host,
            attached_at: self.sim.now() + start_after,
            fluid_model: fluid_model_of(cc),
            paths: fluid_paths,
            handed_off: false,
            prev_acked: 0,
            prev_sub_acked: vec![0; n_paths],
        });
        self.counters.packet_flows += 1;
        handle
    }

    /// Advances both regimes by one epoch: recalibrates fluid links against
    /// measured packet load, integrates the fluid ODE, installs the fluid
    /// rates as packet background load, runs the packet simulator to the
    /// epoch boundary, accounts energy/delivery, and performs handoffs.
    pub fn advance_epoch(&mut self) {
        let epoch_s = self.cfg.epoch_s;
        let epoch_index = self.counters.epochs + 1;
        let end_s = epoch_s * epoch_index as f64;
        let epoch_end = SimTime::from_secs_f64(end_s);

        // (1) Fluid links see the capacity packet traffic left over last
        // epoch (explicit coupling: one epoch of lag), floored at 5 % so a
        // saturated packet link never erases the fluid regime entirely.
        for l in 0..self.net.links.len() {
            let nominal = self.nominal_cap_pps[l];
            let residual = (nominal - self.pkt_rate_pps[l]).max(0.05 * nominal);
            self.net.links[l] = FluidLink::calibrated(residual, self.cfg.calib_rtt_s, TARGET_UTIL);
        }

        // (2) Inflate fluid path RTTs with an M/M/1 queueing proxy driven by
        // the previous epoch's aggregate rates: wait ≈ ρ/(1−ρ) service
        // times, capped at a full queue.
        let qdelay: Vec<f64> = (0..self.net.links.len())
            .map(|l| {
                let cap = self.net.links[l].capacity;
                let rho = ((self.fluid_y[l] + self.pkt_rate_pps[l]) / cap).min(0.99);
                let wait = rho / (1.0 - rho) / cap;
                wait.min(self.link_queue_pkts[l] as f64 / self.nominal_cap_pps[l])
            })
            .collect();
        for flow in &mut self.net.flows {
            for p in &mut flow.paths {
                p.rtt = p.base_rtt + p.links.iter().map(|&l| qdelay[l]).sum::<f64>();
            }
        }

        // (3) Integrate the fluid regime across the epoch.
        let steps = (epoch_s / self.cfg.fluid_dt).round() as usize;
        if !self.x_flat.is_empty() {
            let mut solver = FluidSolver::from_flat_state(&self.net, &self.x_flat);
            solver.run(self.cfg.fluid_dt, steps);
            self.counters.fluid_steps += steps as u64;
            self.counters.price_cap_hits += solver.price_cap_hits();
            self.fluid_y.copy_from_slice(solver.link_rates());
            self.x_flat.copy_from_slice(solver.x());
        } else {
            self.fluid_y.iter_mut().for_each(|y| *y = 0.0);
        }

        // (4) Fluid traffic becomes background load on the packet links.
        let mut bg_links = 0u64;
        for l in 0..self.fluid_y.len() {
            let bw_bps = self.nominal_cap_pps[l] * 8.0 * f64::from(DEFAULT_MSS_BYTES);
            let bg =
                (self.fluid_y[l] * 8.0 * f64::from(DEFAULT_MSS_BYTES)).min(BG_CAP_FRAC * bw_bps);
            let bg_u = if bg > 0.0 { bg.round() as u64 } else { 0 };
            if bg_u > 0 {
                bg_links += 1;
            }
            self.sim.world_mut().link_mut(l).set_background_bps(bg_u);
        }
        self.counters.background_links = bg_links;

        // (5) Packet regime runs to the epoch boundary.
        self.sim.run_until(epoch_end);

        // (6) Energy and delivery accounting for this epoch.
        self.account_epoch(end_s);

        // (7) Handoffs: long-lived packet flows cross into the fluid regime.
        self.do_handoffs();

        // (8) Measure packet-side link rates for the next epoch's coupling.
        for l in 0..self.prev_tx_bytes.len() {
            let tx = self.sim.world().link(l).stats().tx_bytes;
            let delta = tx - self.prev_tx_bytes[l];
            self.prev_tx_bytes[l] = tx;
            self.pkt_rate_pps[l] = delta as f64 / (f64::from(DEFAULT_MSS_BYTES) * epoch_s);
        }

        self.counters.epochs = epoch_index;
        self.counters.fluid_flows = self.net.flows.len() as u64;
    }

    /// Advances `n` epochs.
    pub fn run_epochs(&mut self, n: usize) {
        for _ in 0..n {
            self.advance_epoch();
        }
    }

    /// Integrates host power over the epoch that just ran: every host pays
    /// idle; each flow pays the dynamic (above-idle) power of its own load,
    /// as if it were alone on its source host. With one flow per source host
    /// (permutation traffic) that is per-host accounting; with several, the
    /// power curve is applied per flow, not to the host's summed load
    /// (DESIGN.md §14).
    fn account_epoch(&mut self, at_s: f64) {
        let epoch_s = self.cfg.epoch_s;
        let mss_bits = 8.0 * f64::from(DEFAULT_MSS_BYTES);
        let idle_w = self.power.idle_w;
        let mut energy = idle_w * self.n_hosts as f64 * epoch_s;

        // Fluid flows: loads straight from the integrated rates.
        let mut off = 0;
        for flow in &self.net.flows {
            let k = flow.paths.len();
            let xs = &self.x_flat[off..off + k];
            off += k;
            self.load_buf.clear();
            for (r, p) in flow.paths.iter().enumerate() {
                let bps = xs[r] * mss_bits;
                self.load_buf.push(SubflowSample {
                    throughput_bps: bps,
                    srtt_s: p.rtt,
                    base_rtt_s: p.base_rtt,
                    active: true,
                });
                self.delivered_bits += bps * epoch_s;
            }
            energy += (self.power.power_w(at_s, &self.load_buf) - idle_w) * epoch_s;
        }

        // Packet flows: loads from per-subflow acked deltas over the epoch.
        for meta in &mut self.packet {
            if meta.handed_off {
                continue;
            }
            let snd = meta.handle.sender_ref(&self.sim);
            let acked = snd.data_acked();
            let delta = acked - meta.prev_acked;
            meta.prev_acked = acked;
            self.delivered_bits += delta as f64 * mss_bits;
            if delta == 0 {
                continue;
            }
            let states = snd.cc_states();
            self.load_buf.clear();
            for (r, prev) in meta.prev_sub_acked.iter_mut().enumerate() {
                let sub_acked = snd.subflow(r).acked_pkts;
                let sub_delta = sub_acked - *prev;
                *prev = sub_acked;
                let st = &states[r];
                let rtt = if st.srtt > 0.0 { st.srtt } else { meta.paths[r].rtt };
                let base =
                    if st.base_rtt.is_finite() { st.base_rtt } else { meta.paths[r].base_rtt };
                self.load_buf.push(SubflowSample {
                    throughput_bps: sub_delta as f64 * mss_bits / epoch_s,
                    srtt_s: rtt,
                    base_rtt_s: base,
                    active: st.active && sub_delta > 0,
                });
            }
            energy += (self.power.power_w(at_s, &self.load_buf) - idle_w) * epoch_s;
        }

        self.energy_j += energy;
    }

    /// Freezes packet flows older than the handoff threshold and re-creates
    /// them as fluid flows seeded with their measured per-path rate and RTT
    /// (falling back to the propagation RTT before the first sample).
    fn do_handoffs(&mut self) {
        let now = self.sim.now();
        for i in 0..self.packet.len() {
            let (ready, model) = {
                let meta = &self.packet[i];
                let age_s = now.saturating_since(meta.attached_at).as_secs_f64();
                let ready = !meta.handed_off
                    && meta.fluid_model.is_some()
                    && age_s >= self.cfg.handoff_age_s
                    && !meta.handle.is_finished(&self.sim);
                (ready, meta.fluid_model)
            };
            let Some(model) = model else { continue };
            if !ready {
                continue;
            }
            self.packet[i].handle.halt(&mut self.sim);
            let hs = self.packet[i].handle.handoff_state(&self.sim);
            let meta = &mut self.packet[i];
            // The packet paths, with the measured RTTs written over them.
            let mut fps = meta.paths.clone();
            for (p, h) in fps.iter_mut().zip(&hs) {
                if h.srtt_s > 0.0 {
                    p.rtt = h.srtt_s;
                }
                if h.base_rtt_s > 0.0 && h.base_rtt_s.is_finite() {
                    p.base_rtt = h.base_rtt_s;
                }
            }
            self.x_flat.extend(hs.iter().map(|h| h.rate_pps.max(X_MIN)));
            meta.handed_off = true;
            self.fluid_hosts.push(meta.src_host);
            self.net.add_flow(FluidFlow { model, paths: fps });
            self.counters.handoffs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::model::Psi;
    use congestion::AlgorithmKind;
    use netsim::LinkConfig;

    fn two_path_sim(seed: u64) -> Simulator {
        let mut sim = Simulator::new(seed);
        // Two disjoint bidirectional paths: links 0/1 (fwd/rev) and 2/3.
        for _ in 0..2 {
            for _ in 0..2 {
                sim.add_link(
                    LinkConfig::new(10_000_000, SimDuration::from_millis(5)).queue_limit(64),
                );
            }
        }
        sim
    }

    fn two_paths() -> Vec<PathSpec> {
        vec![PathSpec::new(vec![0], vec![1]), PathSpec::new(vec![2], vec![3])]
    }

    fn engine(seed: u64) -> HybridEngine {
        let cfg =
            HybridConfig { epoch_s: 0.1, fluid_dt: 1e-3, handoff_age_s: 0.25, calib_rtt_s: 0.012 };
        let sim = two_path_sim(seed);
        HybridEngine::new(sim, 2, WiredCpuModel::energy_proportional_server(), cfg)
    }

    #[test]
    fn fluid_model_mapping_matches_the_paper_table() {
        use AlgorithmKind as K;
        let psi = |k: K| fluid_model_of(&CcChoice::Base(k)).map(|m| m.psi);
        assert_eq!(psi(K::Olia), Some(Psi::Olia));
        assert_eq!(psi(K::Reno), Some(Psi::Olia));
        assert_eq!(psi(K::Lia), Some(Psi::Lia));
        assert_eq!(psi(K::Ewtcp), Some(Psi::Ewtcp));
        assert_eq!(psi(K::Coupled), Some(Psi::Coupled));
        assert_eq!(psi(K::Balia), Some(Psi::Balia));
        assert_eq!(psi(K::EcMtcp), Some(Psi::EcMtcp));
        assert_eq!(psi(K::Dctcp), None);
        assert_eq!(psi(K::WVegas), None);
        assert_eq!(psi(K::Dwc), None);
        assert!(matches!(fluid_model_of(&CcChoice::dts()), Some(CcModel { psi: Psi::Dts(_), .. })));
    }

    #[test]
    fn fluid_flow_installs_background_load_and_accumulates_energy() {
        let mut eng = engine(1);
        let model = CcModel::loss_based(Psi::Olia);
        eng.add_fluid_flow(model, &two_paths(), 50.0, 0);
        eng.run_epochs(10);
        let c = eng.counters();
        assert_eq!(c.epochs, 10);
        assert_eq!(c.fluid_flows, 1);
        assert_eq!(c.packet_flows, 0);
        assert!(c.fluid_steps >= 1000, "{c:?}");
        // The fluid flow grew toward its calibrated operating point…
        let total: f64 = eng.fluid_rates().iter().sum();
        assert!(total > 100.0, "fluid rates {:?}", eng.fluid_rates());
        // …and its rate shows up as background load on both forward links.
        assert!(eng.sim().world().link(0).background_bps() > 0);
        assert!(eng.sim().world().link(2).background_bps() > 0);
        assert_eq!(c.background_links, 2);
        assert!(eng.energy_joules() > 0.0);
        assert!(eng.delivered_bits() > 0.0);
        assert!(eng.joules_per_gbit().is_finite());
    }

    #[test]
    fn packet_flow_outliving_threshold_hands_off_to_fluid() {
        let mut eng = engine(7);
        let cfg = FlowConfig::new(0).min_rto(SimDuration::from_millis(10));
        eng.add_packet_flow_from(
            cfg,
            &CcChoice::Base(AlgorithmKind::Olia),
            &two_paths(),
            SimDuration::ZERO,
            0,
        );
        eng.run_epochs(8);
        let c = eng.counters();
        assert_eq!(c.handoffs, 1, "{c:?}");
        assert_eq!(c.fluid_flows, 1);
        assert_eq!(c.packet_flows, 1);
        // The sender was frozen and the event queue drains fully.
        assert!(eng.packet[0].handle.is_finished(eng.sim()));
        // The fluid continuation was seeded with the measured rate.
        assert_eq!(eng.fluid_rates().len(), 2);
        assert!(eng.fluid_rates().iter().sum::<f64>() > 2.0 * X_MIN, "{:?}", eng.fluid_rates());
        // …over the packet paths' forward links.
        let links: Vec<Vec<usize>> =
            eng.net().flows[0].paths.iter().map(|p| p.links.clone()).collect();
        assert_eq!(links, two_paths().into_iter().map(|p| p.fwd).collect::<Vec<_>>());
        // Delivery keeps accruing after the handoff (now via the fluid side).
        let before = eng.delivered_bits();
        eng.run_epochs(2);
        assert!(eng.delivered_bits() > before);
    }

    #[test]
    fn unfluid_algorithms_never_hand_off() {
        let mut eng = engine(3);
        // Unbounded, but DCTCP has no Equation-(3) form: it must never hand
        // off.
        eng.add_packet_flow_from(
            FlowConfig::new(0),
            &CcChoice::Base(AlgorithmKind::Dctcp),
            &two_paths(),
            SimDuration::ZERO,
            0,
        );
        eng.run_epochs(6);
        assert_eq!(eng.counters().handoffs, 0);
        assert_eq!(eng.counters().fluid_flows, 0);
        assert_eq!(eng.counters().packet_flows, 1);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let run = || {
            let mut eng = engine(42);
            eng.add_fluid_flow(CcModel::loss_based(Psi::Olia), &two_paths(), 10.0, 0);
            eng.add_packet_flow_from(
                FlowConfig::new(0).min_rto(SimDuration::from_millis(10)),
                &CcChoice::Base(AlgorithmKind::Lia),
                &two_paths(),
                SimDuration::ZERO,
                0,
            );
            eng.run_epochs(6);
            let bits: Vec<u64> = eng.fluid_rates().iter().map(|x| x.to_bits()).collect();
            (eng.energy_joules().to_bits(), eng.delivered_bits().to_bits(), bits, eng.counters())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
