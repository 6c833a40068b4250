//! Ready-made experiment scenarios matching the paper's evaluation setups.
//!
//! Each runner builds a deterministic simulation (topology + workload +
//! flows + energy model), runs it, and returns a plain result struct. The
//! figure harnesses in `bench-harness` and the runnable examples are thin
//! wrappers over these functions; see DESIGN.md for the figure-by-figure
//! mapping and EXPERIMENTS.md for the scaling notes.

use crate::dts::{Dts, DtsConfig};
use crate::model::DtsPhiConfig;
use congestion::{AlgorithmKind, MultipathCongestionControl};
use energy_model::{energy_of_flow, EnergyReport, PhoneModel, PowerModel, WiredCpuModel};
use netsim::{LinkConfig, LinkStats, LossModel, SimDuration, SimTime, Simulator};
use obs::TraceSink;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::borrow::Cow;
use topology::{BCube, Ec2Vpc, FatTree, Hierarchy, SharedBottleneck, TwoPath, Vl2};
use transport::{
    attach_flow, ConnCounters, FlowConfig, FlowHandle, FlowSample, PathSpec, SubflowCounters,
};
use workload::{
    attach_pareto_cross_traffic, permutation_pairs, short_flow_schedule, ParetoOnOffConfig,
    ShortFlowConfig,
};

/// A congestion-control configuration: a baseline algorithm, DTS, or DTS-Φ.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CcChoice {
    /// One of the literature baselines.
    Base(AlgorithmKind),
    /// The paper's Delay-based Traffic Shifting.
    Dts(DtsConfig),
    /// DTS extended with the energy-proportional price.
    DtsPhi(DtsPhiConfig),
}

impl CcChoice {
    /// DTS with default parameters.
    pub fn dts() -> Self {
        CcChoice::Dts(DtsConfig::default())
    }

    /// DTS-Φ with default parameters.
    pub fn dts_phi() -> Self {
        CcChoice::DtsPhi(DtsPhiConfig::default())
    }

    /// Instantiates the algorithm for `n_subflows` paths.
    pub fn build(&self, n_subflows: usize) -> Box<dyn MultipathCongestionControl> {
        match self {
            CcChoice::Base(kind) => kind.build(n_subflows),
            CcChoice::Dts(cfg) => Box::new(Dts::with_config(*cfg)),
            CcChoice::DtsPhi(cfg) => Box::new(Dts::with_price(*cfg)),
        }
    }

    /// The display label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            CcChoice::Base(kind) => kind.name(),
            CcChoice::Dts(_) | CcChoice::DtsPhi(_) => self.build(1).name(),
        }
        .to_owned()
    }
}

/// Result of a single-flow scenario.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Algorithm label.
    pub label: String,
    /// Mean goodput, bits/second.
    pub goodput_bps: f64,
    /// Host energy over the run, joules.
    pub energy: EnergyReport,
    /// Transfer completion time, if the flow was finite.
    pub finish_s: Option<f64>,
    /// Retransmissions.
    pub rexmits: u64,
    /// RTO events.
    pub rtos: u64,
    /// `(t, throughput_bps)` trace.
    pub tput_trace: Vec<(f64, f64)>,
}

impl FlowResult {
    /// Summarises one flow of a finished simulation under a power model.
    pub fn collect(
        sim: &Simulator,
        flow: FlowHandle,
        label: String,
        model: &mut dyn PowerModel,
    ) -> FlowResult {
        FlowResult::metered(sim, flow, label, model, flow.sender_ref(sim).samples())
    }

    /// [`FlowResult::collect`], with the energy integrated over `samples`: a
    /// slice of the sender's own series, or that series on other slots.
    pub fn metered(
        sim: &Simulator,
        flow: FlowHandle,
        label: String,
        model: &mut dyn PowerModel,
        samples: &[FlowSample],
    ) -> FlowResult {
        let sender = flow.sender_ref(sim);
        FlowResult {
            label,
            goodput_bps: sender.goodput_bps(sim.now()),
            energy: energy_of_flow(model, samples),
            finish_s: sender.finished_at().map(SimTime::as_secs_f64),
            rexmits: sender.total_rexmits(),
            rtos: sender.total_rtos(),
            tput_trace: sender
                .samples()
                .iter()
                .map(|s| (s.at.as_secs_f64(), s.total_throughput_bps()))
                .collect(),
        }
    }
}

/// Options for the Fig. 5(b) two-path bursty scenario (Figs. 7, 8, 9).
///
/// Fixed, as on the paper's testbed: both paths run at 100 Mb/s with 10 ms
/// one-way propagation and a 100-packet queue, each loaded by the paper's
/// Pareto bursts ([`ParetoOnOffConfig::paper_fig5b`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstyOptions {
    /// RNG seed.
    pub seed: u64,
    /// Run length, seconds. An upper bound when `transfer_bytes` is set:
    /// the run then ends within 100 ms of the transfer being acknowledged,
    /// and the link counters and traces cover that window.
    pub duration_s: f64,
    /// Finite transfer size; `None` = long-lived, which runs for exactly
    /// `duration_s`.
    pub transfer_bytes: Option<u64>,
}

impl Default for BurstyOptions {
    fn default() -> Self {
        BurstyOptions { seed: 1, duration_s: 120.0, transfer_bytes: None }
    }
}

/// The testbed NIC rate of Figs. 5(a) and 5(b), bits/second.
const TESTBED_BPS: u64 = 100_000_000;

/// One-way propagation of each Fig. 5(b) path.
const BURSTY_ONE_WAY: SimDuration = SimDuration::from_millis(10);

/// Widens a host/flow index to `u64` for flow ids and stagger arithmetic.
/// Lossless on every supported target (`usize` is at most 64 bits); the
/// saturating fallback only exists to make the conversion total.
fn idx_u64(i: usize) -> u64 {
    u64::try_from(i).unwrap_or(u64::MAX)
}

/// How often [`run_until_finished`] looks at the measured flows: the most
/// simulated time a run can spend past its last measured completion.
const FINISH_POLL: SimDuration = SimDuration::from_millis(100);

/// Advances `sim` until every flow in `measured` has finished or the clock
/// reaches `horizon`, whichever is first, in [`FINISH_POLL`] steps of
/// [`Simulator::run_until`].
///
/// A sender takes its last telemetry sample at `finished_at` and its
/// counters stop there, so nothing simulated after the last measured flow
/// finishes can reach a result: the competitors, cross traffic and elephants
/// that would fill the rest of the horizon are not simulated. A measured flow
/// that never finishes (long-lived, or cut off by faults) keeps the run going
/// to exactly `horizon`, event for event what one `run_until(horizon)` does.
/// If the stall watchdog or the invariant checker halts the simulator the
/// clock stays at the halt, as `run_until` leaves it.
fn run_until_finished(sim: &mut Simulator, measured: &[FlowHandle], horizon: SimTime) {
    while sim.now() < horizon && !measured.iter().all(|f| f.is_finished(sim)) {
        let target = (sim.now() + FINISH_POLL).min(horizon);
        sim.run_until(target);
        if sim.now() < target {
            return; // halted: further calls would not advance the clock
        }
    }
}

/// Runs the Fig. 5(b) scenario: one MPTCP connection over two 100 Mb/s paths
/// whose quality flips Bad/Good at random under Pareto cross-traffic bursts.
pub fn run_two_path_bursty(cc: &CcChoice, opts: &BurstyOptions) -> FlowResult {
    run_two_path_bursty_traced(cc, opts, None).0
}

/// [`run_two_path_bursty`] with an optional trace sink installed for the
/// duration of the run, additionally returning the per-link / per-subflow
/// counter snapshot. Sinks observe only — traced and untraced runs produce
/// byte-identical [`FlowResult`]s (pinned by `tests/sweep_determinism.rs`).
pub fn run_two_path_bursty_traced(
    cc: &CcChoice,
    opts: &BurstyOptions,
    sink: Option<Box<dyn TraceSink>>,
) -> (FlowResult, CounterSnapshot) {
    let mut sim = Simulator::new(opts.seed);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    run_two_path_bursty_on(sim, cc, opts)
}

/// The body of [`run_two_path_bursty_traced`] on a caller-built simulator,
/// which must be fresh and seeded with `opts.seed`. Exists so the identity
/// tests can run the scenario on the reference-queue oracle.
#[doc(hidden)]
pub fn run_two_path_bursty_on(
    mut sim: Simulator,
    cc: &CcChoice,
    opts: &BurstyOptions,
) -> (FlowResult, CounterSnapshot) {
    let flow = build_two_path_bursty(&mut sim, cc, opts);
    run_until_finished(&mut sim, &[flow], SimTime::from_secs_f64(opts.duration_s));
    let out = collect_two_path_bursty(&sim, flow, cc);
    // Detach (and thereby flush) the sink before the simulator is dropped.
    drop(sim.take_trace_sink());
    out
}

/// Builds the Fig. 5(b) topology, cross traffic and the measured connection
/// on a fresh `sim`.
fn build_two_path_bursty(sim: &mut Simulator, cc: &CcChoice, opts: &BurstyOptions) -> FlowHandle {
    let params = LinkConfig::new(TESTBED_BPS, BURSTY_ONE_WAY).queue_limit(100);
    let tp = TwoPath::symmetric(sim, params);
    for link in tp.forward_links() {
        attach_pareto_cross_traffic(sim, vec![link], ParetoOnOffConfig::paper_fig5b());
    }
    let mut cfg = FlowConfig::new(0).sample_every(SimDuration::from_millis(20));
    if let Some(bytes) = opts.transfer_bytes {
        cfg = cfg.transfer_bytes(bytes);
    }
    attach_flow(sim, cfg, cc.build(2), &tp.both(), SimDuration::ZERO)
}

fn collect_two_path_bursty(
    sim: &Simulator,
    flow: FlowHandle,
    cc: &CcChoice,
) -> (FlowResult, CounterSnapshot) {
    let mut model = WiredCpuModel::i7_3770();
    (FlowResult::collect(sim, flow, cc.label(), &mut model), counters_of(sim, &[flow]))
}

/// A full counter snapshot for one run, read off a finished simulator by
/// [`counters_of`]. A sweep cell that wants it next to its numbers returns
/// it in its own output type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSnapshot {
    /// One entry per link, in link-id order.
    pub links: Vec<LinkStats>,
    /// One entry per connection.
    pub conns: Vec<ConnCounters>,
    /// Each connection's subflow counters, in path order: `subflows[i]`
    /// belongs to `conns[i]`.
    pub subflows: Vec<Vec<SubflowCounters>>,
}

impl CounterSnapshot {
    /// Renders a compact human-readable digest (one line per non-idle link
    /// and subflow) for harness stdout.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, l) in self.links.iter().enumerate().filter(|(_, l)| {
            l.drops() > 0
                || l.queue_high_water > 0
                || l.reordered > 0
                || l.duplicated > 0
                || l.corrupted > 0
        }) {
            let _ = writeln!(
                out,
                "link {id}: tx={} drops(queue={} fault={} blackout={}) ecn={} q_hwm={} \
                 reordered={} duplicated={} corrupted={}",
                l.tx_pkts,
                l.drops_queue,
                l.drops_fault,
                l.drops_blackout,
                l.ecn_marks,
                l.queue_high_water,
                l.reordered,
                l.duplicated,
                l.corrupted
            );
        }
        for (c, subflows) in self.conns.iter().zip(&self.subflows) {
            for (r, s) in subflows.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "conn {} subflow {r}: rtos={} fast_rexmits={} spurious={} recoveries={} \
                     deaths={} revivals={} probes={}",
                    c.conn,
                    s.rtos,
                    s.fast_rexmits,
                    s.spurious_rexmits,
                    s.recoveries,
                    s.deaths,
                    s.revivals,
                    s.probes
                );
            }
        }
        for c in self.conns.iter().filter(|c| !c.is_quiet()) {
            let _ = writeln!(
                out,
                "conn {}: zw_stalls={} persist_probes={} corrupt(acks={} data={}) \
                 rwnd_dropped={} ooo_dropped={} duplicates={}",
                c.conn,
                c.zero_window_stalls,
                c.persist_probes,
                c.corrupt_acks,
                c.corrupt_discards,
                c.rwnd_dropped,
                c.ooo_dropped,
                c.duplicates
            );
        }
        out
    }
}

/// Assembles the observability counter snapshot for a finished simulation:
/// link counters from the world plus subflow counters from each sender and
/// connection-level robustness counters (zero-window stalls, persist
/// probes, corrupt/window discards) from each endpoint pair.
pub fn counters_of(sim: &Simulator, flows: &[FlowHandle]) -> CounterSnapshot {
    CounterSnapshot {
        links: sim.world().link_counters(),
        conns: flows.iter().map(|f| f.conn_counters(sim)).collect(),
        subflows: flows.iter().map(|f| f.sender_ref(sim).subflow_counters()).collect(),
    }
}

/// Options for the Fig. 5(a) shared-bottleneck scenario (Fig. 6).
///
/// Fixed, as on the paper's testbed: both bottlenecks run at 100 Mb/s with
/// 5 ms one-way propagation and a 100-packet queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharedOptions {
    /// RNG seed.
    pub seed: u64,
    /// Number of MPTCP users `N` (the paper runs 10–100); `2N` TCP users
    /// are added automatically.
    pub n_users: usize,
    /// Per-user transfer size, bytes (the paper: 16 MB).
    pub transfer_bytes: u64,
}

impl Default for SharedOptions {
    fn default() -> Self {
        SharedOptions { seed: 1, n_users: 10, transfer_bytes: 16 * 1024 * 1024 }
    }
}

/// One-way propagation of the Fig. 5(a) bottlenecks.
const SHARED_ONE_WAY: SimDuration = SimDuration::from_millis(5);

/// Safety horizon of the Fig. 5(a) run, seconds: an upper bound. Every
/// measured transfer is finite, so the run ends when the last user's
/// transfer is acknowledged; a user still unfinished at the horizon is
/// charged up to its last sample.
const SHARED_HORIZON_S: f64 = 600.0;

/// Per-user energies (joules) for the Fig. 5(a) scenario: N MPTCP users
/// (16 MB each) racing 2N long-lived TCP users over two shared bottlenecks.
/// The host's idle power is attributed evenly across the N users.
pub fn run_shared_bottleneck(cc: &CcChoice, opts: &SharedOptions) -> Vec<f64> {
    let (mut sim, users) = build_shared_bottleneck(cc, opts);
    run_until_finished(&mut sim, &users, SimTime::from_secs_f64(SHARED_HORIZON_S));
    shared_bottleneck_energies(&sim, &users)
}

/// Builds the Fig. 5(a) simulation; returns it with the N measured users.
fn build_shared_bottleneck(cc: &CcChoice, opts: &SharedOptions) -> (Simulator, Vec<FlowHandle>) {
    use rand::Rng;
    let mut sim = Simulator::new(opts.seed);
    let mut stagger_rng = SmallRng::seed_from_u64(opts.seed ^ 0x5A);
    let bottleneck = LinkConfig::new(TESTBED_BPS, SHARED_ONE_WAY).queue_limit(100);
    let sb = SharedBottleneck::new(&mut sim, bottleneck);
    // 2N competing TCP users, long-lived, randomly staggered starts.
    for i in 0..2 * opts.n_users {
        let start = SimDuration::from_millis(stagger_rng.gen_range(0..200));
        attach_flow(
            &mut sim,
            FlowConfig::new(1000 + idx_u64(i)).sample_every(SimDuration::from_millis(100)),
            AlgorithmKind::Reno.build(1),
            &sb.tcp_path(i),
            start,
        );
    }
    // N MPTCP users under test.
    let users = (0..opts.n_users)
        .map(|i| {
            let start = SimDuration::from_millis(stagger_rng.gen_range(0..200));
            attach_flow(
                &mut sim,
                FlowConfig::new(i as u64)
                    .transfer_bytes(opts.transfer_bytes)
                    .sample_every(SimDuration::from_millis(50)),
                cc.build(2),
                &sb.mptcp_paths(),
                start,
            )
        })
        .collect();
    (sim, users)
}

fn shared_bottleneck_energies(sim: &Simulator, users: &[FlowHandle]) -> Vec<f64> {
    let mut model = WiredCpuModel::i7_3770();
    model.idle_w /= users.len() as f64; // all N senders share one machine
    users.iter().map(|f| energy_of_flow(&mut model, f.sender_ref(sim).samples()).joules).collect()
}

/// Options for the EC2 scenario (Fig. 10).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ec2Options {
    /// RNG seed.
    pub seed: u64,
    /// Number of instances (the paper rents 40).
    pub n_hosts: usize,
    /// Per-connection transfer, bytes (the paper: 10 GB; scaled in the
    /// harness — see EXPERIMENTS.md).
    pub transfer_bytes: u64,
    /// Safety horizon, seconds.
    pub horizon_s: f64,
}

impl Default for Ec2Options {
    fn default() -> Self {
        Ec2Options { seed: 1, n_hosts: 10, transfer_bytes: 64 * 1024 * 1024, horizon_s: 600.0 }
    }
}

/// Result of a fleet scenario (EC2 / datacenter).
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Algorithm label.
    pub label: String,
    /// Total sender-host energy, joules.
    pub total_energy_j: f64,
    /// Aggregate goodput across connections, bits/second.
    pub aggregate_goodput_bps: f64,
    /// Total data delivered, bits.
    pub delivered_bits: f64,
    /// Energy per gigabit delivered, joules.
    pub joules_per_gbit: f64,
    /// Mean per-flow completion time (finite transfers), seconds.
    pub mean_finish_s: Option<f64>,
    /// Fraction of finite transfers that completed within the horizon.
    pub completion_rate: f64,
}

fn fleet_result(
    sim: &Simulator,
    flows: &[FlowHandle],
    label: String,
    model: &WiredCpuModel,
) -> FleetResult {
    let mut total_energy = 0.0;
    let mut delivered_bits = 0.0;
    let mut goodput = 0.0;
    let mut finishes = Vec::new();
    let mut finite = 0usize;
    let mut done = 0usize;
    for f in flows {
        let sender = f.sender_ref(sim);
        let mut m = model.clone();
        total_energy += energy_of_flow(&mut m, sender.samples()).joules;
        delivered_bits += sender.data_acked() as f64 * f64::from(sender.config().mss_bytes) * 8.0;
        goodput += sender.goodput_bps(sim.now());
        if sender.config().total_pkts.is_some() {
            finite += 1;
            if let Some(t) = sender.finished_at() {
                done += 1;
                let start = sender.started_at().unwrap_or(SimTime::ZERO);
                finishes.push(t.saturating_since(start).as_secs_f64());
            }
        }
    }
    FleetResult {
        label,
        total_energy_j: total_energy,
        aggregate_goodput_bps: goodput,
        delivered_bits,
        joules_per_gbit: if delivered_bits > 0.0 {
            total_energy / (delivered_bits / 1e9)
        } else {
            f64::INFINITY
        },
        mean_finish_s: if finishes.is_empty() {
            None
        } else {
            Some(finishes.iter().sum::<f64>() / finishes.len() as f64)
        },
        completion_rate: if finite == 0 { 1.0 } else { done as f64 / finite as f64 },
    }
}

/// Runs the EC2 scenario: permutation traffic between multihomed instances,
/// one finite transfer per pair. Single-path choices (TCP Reno, DCTCP) use
/// one ENI; multipath choices use all four.
pub fn run_ec2(cc: &CcChoice, opts: &Ec2Options) -> FleetResult {
    let mut sim = Simulator::new(opts.seed);
    let vpc = Ec2Vpc::paper_scale(&mut sim, opts.n_hosts);
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xEC2);
    let pairs = permutation_pairs(opts.n_hosts, &mut rng);
    let single_path = matches!(cc, CcChoice::Base(AlgorithmKind::Reno | AlgorithmKind::Dctcp));
    let flows: Vec<FlowHandle> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| {
            let paths: Vec<PathSpec> =
                if single_path { vpc.single_path(src, dst, 0) } else { vpc.paths(src, dst) };
            let n = paths.len();
            attach_flow(
                &mut sim,
                FlowConfig::new(i as u64)
                    .transfer_bytes(opts.transfer_bytes)
                    .rcv_buf_pkts(1024)
                    .min_rto(SimDuration::from_millis(20))
                    .sample_every(SimDuration::from_millis(50)),
                cc.build(n),
                &paths,
                SimDuration::from_millis(idx_u64(i) % 20),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs_f64(opts.horizon_s));
    fleet_result(&sim, &flows, cc.label(), &WiredCpuModel::xeon_e5())
}

/// Which datacenter fabric to build (Figs. 12–16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcKind {
    /// k-ary FatTree.
    FatTree {
        /// The arity (paper scale: 8 → 128 hosts).
        k: usize,
    },
    /// VL2 Clos at paper scale divided by `scale` (1 = 128 hosts).
    Vl2 {
        /// Divide the paper's host count by this factor.
        scale: usize,
    },
    /// BCube(n, k).
    BCube {
        /// Switch port count.
        n: usize,
        /// Level count minus one.
        k: usize,
    },
}

impl DcKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DcKind::FatTree { .. } => "fattree",
            DcKind::Vl2 { .. } => "vl2",
            DcKind::BCube { .. } => "bcube",
        }
    }
}

/// Options for the datacenter scenarios.
///
/// Fixed, as on the paper's htsim fabrics: hosts link at 100 Mb/s (VL2's
/// switch links at 1 Gb/s), every link has 100 µs one-way propagation and a
/// 32-packet DropTail queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcOptions {
    /// RNG seed.
    pub seed: u64,
    /// Subflows per connection.
    pub n_subflows: usize,
    /// Run length, seconds (the paper simulates 1000 s; scaled here).
    pub duration_s: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions { seed: 1, n_subflows: 2, duration_s: 10.0 }
    }
}

/// Host link rate of the datacenter fabrics, bits/second.
const DC_HOST_BPS: u64 = 100_000_000;

/// Per-link one-way propagation of the datacenter fabrics.
const DC_LINK_DELAY: SimDuration = SimDuration::from_micros(100);

/// DropTail queue bound per datacenter link, packets.
const DC_QUEUE_PKTS: usize = 32;

/// Runs a datacenter scenario: a random permutation of long-lived flows,
/// `n_subflows` sampled ECMP paths each.
pub fn run_datacenter(kind: DcKind, cc: &CcChoice, opts: &DcOptions) -> FleetResult {
    let mut sim = Simulator::new(opts.seed);
    let params = LinkConfig::new(DC_HOST_BPS, DC_LINK_DELAY).queue_limit(DC_QUEUE_PKTS);
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xDC);
    enum Fabric {
        Ft(FatTree),
        V(Vl2),
        B(BCube),
    }
    let fabric = match kind {
        DcKind::FatTree { k } => Fabric::Ft(FatTree::build(&mut sim, k, params)),
        DcKind::Vl2 { scale } => {
            let sw = LinkConfig::new(DC_HOST_BPS * 10, DC_LINK_DELAY).queue_limit(DC_QUEUE_PKTS);
            let cfg = topology::Vl2Config {
                n_tor: (16 / scale.max(1)).max(2),
                n_agg: (8 / scale.max(1)).max(2),
                n_int: (4 / scale.max(1)).max(2),
                hosts_per_tor: 8,
                host_link: params,
                switch_link: sw,
            };
            Fabric::V(Vl2::build(&mut sim, cfg))
        }
        DcKind::BCube { n, k } => Fabric::B(BCube::build(&mut sim, n, k, params)),
    };
    let hosts = match &fabric {
        Fabric::Ft(f) => f.hosts(),
        Fabric::V(v) => v.hosts(),
        Fabric::B(b) => b.hosts(),
    };
    let pairs = permutation_pairs(hosts, &mut rng);
    let min_rto = SimDuration::from_millis(10);
    let flows: Vec<FlowHandle> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| {
            let paths = match &fabric {
                Fabric::Ft(f) => f.sample_paths(src, dst, opts.n_subflows, &mut rng),
                Fabric::V(v) => v.sample_paths(src, dst, opts.n_subflows, &mut rng),
                Fabric::B(b) => b.sample_paths(src, dst, opts.n_subflows, &mut rng),
            };
            let n = paths.len();
            attach_flow(
                &mut sim,
                FlowConfig::new(i as u64)
                    .min_rto(min_rto)
                    .rcv_buf_pkts(512)
                    .sample_every(SimDuration::from_millis(100)),
                cc.build(n),
                &paths,
                SimDuration::from_millis((idx_u64(i) * 7) % 100),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs_f64(opts.duration_s));
    fleet_result(&sim, &flows, cc.label(), &WiredCpuModel::energy_proportional_server())
}

/// Options for the heterogeneous wireless scenario (Fig. 17).
///
/// Fixed: Pareto cross-traffic bursts ([`ParetoOnOffConfig::paper_fig5b`]
/// timing) at 8 Mb/s on the WiFi path and 16 Mb/s on the 4G path. The
/// uplinks carry no delivery impairments; to add reordering, duplication or
/// corruption, set them on the links through [`netsim::Impairment`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WirelessOptions {
    /// RNG seed.
    pub seed: u64,
    /// Run length, seconds (the paper simulates 200 s).
    pub duration_s: f64,
    /// Random (i.i.d.) uplink loss probability on the WiFi path, applied
    /// through the link impairment layer. The default, `0.0`, keeps the
    /// scenario lossless (and bit-identical to the pre-impairment runs).
    pub wifi_loss: f64,
    /// Random uplink loss probability on the 4G path.
    pub lte_loss: f64,
}

impl Default for WirelessOptions {
    fn default() -> Self {
        WirelessOptions { seed: 1, duration_s: 200.0, wifi_loss: 0.0, lte_loss: 0.0 }
    }
}

/// Fig. 17's receive buffer, bytes. The ns-2 default is 64 KB; 256 KB lets
/// the congestion window, not flow control, govern (see EXPERIMENTS.md).
const WIRELESS_RCV_BUF_BYTES: u64 = 256 * 1024;

/// Cross-traffic burst rate on the Fig. 17 WiFi path, bits/second.
const WIFI_CROSS_BPS: u64 = 8_000_000;

/// Cross-traffic burst rate on the Fig. 17 4G path, bits/second.
const LTE_CROSS_BPS: u64 = 16_000_000;

/// Installs the wireless scenario's random loss on the uplink
/// (data-direction) hops. `LossModel::iid(0.0)` is `LossModel::None`, so the
/// lossless defaults draw nothing from the RNG.
fn apply_wireless_loss(sim: &mut Simulator, tp: &TwoPath, opts: &WirelessOptions) {
    sim.world_mut().link_mut(tp.p1.fwd).impairment_mut().set_loss(LossModel::iid(opts.wifi_loss));
    sim.world_mut().link_mut(tp.p2.fwd).impairment_mut().set_loss(LossModel::iid(opts.lte_loss));
}

/// Runs the Fig. 17 scenario: an infinite MPTCP flow over WiFi (10 Mb/s,
/// 40 ms) + 4G (20 Mb/s, 100 ms) with bursty cross traffic on both links,
/// energy measured with the phone radio model.
pub fn run_wireless(cc: &CcChoice, opts: &WirelessOptions) -> FlowResult {
    run_wireless_on(cc, opts, &[0, 1], cc.label(), |samples| Cow::Borrowed(samples))
}

/// The Fig. 17 run behind [`run_wireless`] and
/// [`crate::path_select::run_wireless_with_policy`]: the connection uses
/// the `admitted` paths (indices into `[wifi, lte]`), and `phone_slots`
/// lays its samples onto the phone's `(wifi, lte)` interfaces before they
/// are metered.
pub(crate) fn run_wireless_on(
    cc: &CcChoice,
    opts: &WirelessOptions,
    admitted: &[usize],
    label: String,
    phone_slots: impl FnOnce(&[FlowSample]) -> Cow<'_, [FlowSample]>,
) -> FlowResult {
    let mut sim = Simulator::new(opts.seed);
    let tp = TwoPath::wireless(&mut sim);
    apply_wireless_loss(&mut sim, &tp, opts);
    let mut cross = ParetoOnOffConfig::paper_fig5b();
    cross.burst_rate_bps = WIFI_CROSS_BPS;
    attach_pareto_cross_traffic(&mut sim, vec![tp.p1.fwd], cross);
    cross.burst_rate_bps = LTE_CROSS_BPS;
    attach_pareto_cross_traffic(&mut sim, vec![tp.p2.fwd], cross);
    let all = tp.both();
    let paths: Vec<PathSpec> = admitted.iter().map(|&i| all[i].clone()).collect();
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0)
            .rcv_buf_bytes(WIRELESS_RCV_BUF_BYTES)
            .sample_every(SimDuration::from_millis(50)),
        cc.build(paths.len()),
        &paths,
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(opts.duration_s));
    let samples = phone_slots(flow.sender_ref(&sim).samples());
    FlowResult::metered(&sim, flow, label, &mut PhoneModel::nexus5_uplink(), &samples)
}

/// Options for the §V-C hierarchical-Internet scenario (the setting the
/// compensative parameter φ is designed for).
///
/// Fixed: 12 dual-homed users on 20 Mb/s access links, 3 aggregation nodes
/// with 60 Mb/s uplinks, and a 150 Mb/s shared backbone (the concentration
/// point).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HierarchyOptions {
    /// RNG seed.
    pub seed: u64,
    /// Run length, seconds.
    pub duration_s: f64,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        HierarchyOptions { seed: 1, duration_s: 30.0 }
    }
}

/// Number of dual-homed end hosts in the hierarchy scenario.
const HIERARCHY_USERS: usize = 12;

/// Number of aggregation nodes in the hierarchy scenario.
const HIERARCHY_AGGS: usize = 3;

/// Access link rate of the hierarchy scenario, bits/second.
const ACCESS_BPS: u64 = 20_000_000;

/// Aggregation uplink rate of the hierarchy scenario, bits/second.
const AGG_UPLINK_BPS: u64 = 60_000_000;

/// Shared backbone rate of the hierarchy scenario, bits/second.
const BACKBONE_BPS: u64 = 150_000_000;

/// Result of the hierarchy scenario: fleet metrics plus backbone telemetry.
#[derive(Clone, Debug)]
pub struct HierarchyResult {
    /// Fleet-level metrics (end-device energy, aggregate goodput).
    pub fleet: FleetResult,
    /// Mean backbone queue occupancy over the run, packets.
    pub backbone_mean_queue: f64,
    /// Backbone utilization over the run.
    pub backbone_utilization: f64,
}

/// Runs the hierarchical-Internet scenario: every dual-homed user uploads a
/// long-lived flow through the shared backbone.
pub fn run_hierarchy(cc: &CcChoice, opts: &HierarchyOptions) -> HierarchyResult {
    let mut sim = Simulator::new(opts.seed);
    let access = LinkConfig::new(ACCESS_BPS, SimDuration::from_millis(5)).queue_limit(64);
    let agg = LinkConfig::new(AGG_UPLINK_BPS, SimDuration::from_millis(5)).queue_limit(64);
    let core = LinkConfig::new(BACKBONE_BPS, SimDuration::from_millis(10)).queue_limit(128);
    let h = Hierarchy::build(&mut sim, HIERARCHY_USERS, HIERARCHY_AGGS, access, agg, core);
    let flows: Vec<FlowHandle> = (0..HIERARCHY_USERS)
        .map(|u| {
            attach_flow(
                &mut sim,
                FlowConfig::new(idx_u64(u)).sample_every(SimDuration::from_millis(50)),
                cc.build(2),
                &h.user_paths(u),
                SimDuration::from_millis((idx_u64(u) * 13) % 100),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs_f64(opts.duration_s));
    let fleet = fleet_result(&sim, &flows, cc.label(), &WiredCpuModel::i7_3770());
    HierarchyResult {
        fleet,
        backbone_mean_queue: sim.world().link(h.backbone()).mean_queue_len(sim.now()),
        backbone_utilization: sim.world().link(h.backbone()).utilization(sim.now()),
    }
}

/// Options for the short-flow (mice) datacenter experiment. Every mouse is a
/// finite transfer, so the run ends when the last one is acknowledged;
/// the mice horizon plus a 10 s drain is an upper bound.
///
/// Fixed: a FatTree(4) with the links of [`DcOptions`], 2 subflows per
/// flow, and 4 long-lived background elephants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShortFlowOptions {
    /// RNG seed.
    pub seed: u64,
    /// The mice process.
    pub mice: ShortFlowConfig,
}

impl Default for ShortFlowOptions {
    fn default() -> Self {
        ShortFlowOptions { seed: 1, mice: ShortFlowConfig::default() }
    }
}

/// Safety horizon past the mice horizon, seconds.
const SHORT_FLOW_DRAIN_S: f64 = 10.0;

/// FatTree arity of the short-flow experiment.
const SHORT_FLOW_FATTREE_K: usize = 4;

/// Subflows per flow (mouse or elephant) in the short-flow experiment.
const SHORT_FLOW_SUBFLOWS: usize = 2;

/// Long-lived background elephants in the short-flow experiment.
const ELEPHANTS: usize = 4;

/// Result of the short-flow experiment: flow-completion-time statistics.
#[derive(Clone, Debug)]
pub struct ShortFlowResult {
    /// Algorithm label.
    pub label: String,
    /// Completion times of finished mice, seconds (sorted).
    pub fct_s: Vec<f64>,
    /// Fraction of mice that completed.
    pub completion_rate: f64,
}

impl ShortFlowResult {
    /// FCT percentile (`p` in `[0, 1]`); NaN if nothing completed.
    pub fn fct_percentile(&self, p: f64) -> f64 {
        if self.fct_s.is_empty() {
            return f64::NAN;
        }
        let idx = ((self.fct_s.len() - 1) as f64 * p).round() as usize;
        self.fct_s[idx]
    }
}

/// Runs Poisson mice over a FatTree whose links are partly occupied by
/// long-lived elephants — the mixed workload of real fabrics (Benson et
/// al.), measuring mouse flow-completion times under each algorithm.
pub fn run_short_flows(cc: &CcChoice, opts: &ShortFlowOptions) -> ShortFlowResult {
    let (mut sim, mice) = build_short_flows(cc, opts);
    let horizon = SimTime::from_secs_f64(opts.mice.horizon_s + SHORT_FLOW_DRAIN_S);
    run_until_finished(&mut sim, &mice, horizon);
    short_flow_result(&sim, &mice, cc)
}

/// Builds the short-flow simulation; returns it with the measured mice.
fn build_short_flows(cc: &CcChoice, opts: &ShortFlowOptions) -> (Simulator, Vec<FlowHandle>) {
    use rand::Rng;
    let mut sim = Simulator::new(opts.seed);
    let params = LinkConfig::new(DC_HOST_BPS, DC_LINK_DELAY).queue_limit(DC_QUEUE_PKTS);
    let ft = FatTree::build(&mut sim, SHORT_FLOW_FATTREE_K, params);
    let hosts = ft.hosts();
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x517);
    // Background elephants.
    for e in 0..ELEPHANTS {
        let src = rng.gen_range(0..hosts);
        let mut dst = rng.gen_range(0..hosts);
        if dst == src {
            dst = (dst + 1) % hosts;
        }
        let paths = ft.sample_paths(src, dst, SHORT_FLOW_SUBFLOWS, &mut rng);
        let n = paths.len();
        attach_flow(
            &mut sim,
            FlowConfig::new(100_000 + e as u64)
                .min_rto(SimDuration::from_millis(10))
                .sample_every(SimDuration::from_millis(200)),
            cc.build(n),
            &paths,
            SimDuration::ZERO,
        );
    }
    // Mice.
    let schedule = short_flow_schedule(&opts.mice, &mut rng);
    let mice = schedule
        .iter()
        .enumerate()
        .map(|(i, sf)| {
            let src = rng.gen_range(0..hosts);
            let mut dst = rng.gen_range(0..hosts);
            if dst == src {
                dst = (dst + 1) % hosts;
            }
            let paths = ft.sample_paths(src, dst, SHORT_FLOW_SUBFLOWS, &mut rng);
            let n = paths.len();
            attach_flow(
                &mut sim,
                FlowConfig::new(i as u64)
                    .transfer_bytes(sf.bytes)
                    .min_rto(SimDuration::from_millis(10))
                    .sample_every(SimDuration::from_millis(200)),
                cc.build(n),
                &paths,
                sf.start,
            )
        })
        .collect();
    (sim, mice)
}

fn short_flow_result(sim: &Simulator, mice: &[FlowHandle], cc: &CcChoice) -> ShortFlowResult {
    let mut fct: Vec<f64> = mice
        .iter()
        .filter_map(|f| {
            let s = f.sender_ref(sim);
            match (s.started_at(), s.finished_at()) {
                (Some(a), Some(b)) => Some(b.saturating_since(a).as_secs_f64()),
                _ => None,
            }
        })
        .collect();
    fct.sort_by(f64::total_cmp);
    let completion_rate = if mice.is_empty() { 1.0 } else { fct.len() as f64 / mice.len() as f64 };
    ShortFlowResult { label: cc.label(), fct_s: fct, completion_rate }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FaultAction, FaultScript};

    /// Every number in a `FlowResult`, floats as their bit patterns.
    fn flow_bits(r: &FlowResult) -> Vec<u64> {
        let mut bits = vec![
            r.goodput_bps.to_bits(),
            r.energy.joules.to_bits(),
            r.energy.duration_s.to_bits(),
            r.energy.mean_power_w.to_bits(),
            r.finish_s.map_or(u64::MAX, f64::to_bits),
            r.rexmits,
            r.rtos,
        ];
        let points = r.energy.trace.iter().chain(&r.tput_trace);
        bits.extend(points.flat_map(|&(t, y)| [t.to_bits(), y.to_bits()]));
        bits
    }

    fn f64_bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The bound that is the optimisation: the clock stopped within one poll
    /// of the last measured completion, short of the horizon.
    fn assert_stopped_at_last_finish(sim: &Simulator, measured: &[FlowHandle], horizon: SimTime) {
        let last = measured.iter().map(|f| f.finish_time(sim).expect("every flow finished")).max();
        let last = last.expect("at least one measured flow");
        assert!(sim.now() <= last + FINISH_POLL, "ran to {} past last finish {last}", sim.now());
        assert!(sim.now() < horizon, "ran to the horizon");
    }

    fn finite_bursty(duration_s: f64) -> BurstyOptions {
        BurstyOptions { duration_s, transfer_bytes: Some(4 << 20), ..BurstyOptions::default() }
    }

    /// A bursty scenario on a fresh simulator; with `dark_from`, both paths
    /// go dark in both directions from then on.
    fn bursty(
        cc: &CcChoice,
        opts: &BurstyOptions,
        dark_from: Option<SimTime>,
    ) -> (Simulator, FlowHandle) {
        let mut sim = Simulator::new(opts.seed);
        let flow = build_two_path_bursty(&mut sim, cc, opts);
        if let Some(at) = dark_from {
            let links = 0..sim.world().link_count();
            links
                .fold(FaultScript::new(), |s, link| s.at(at, FaultAction::LinkDown { link }))
                .install(&mut sim);
        }
        (sim, flow)
    }

    /// The same bursty scenario driven to `duration_s` by plain `run_until`
    /// (first) and by `run_until_finished` (second).
    fn bursty_both_ways(
        cc: &CcChoice,
        opts: &BurstyOptions,
        dark_from: Option<SimTime>,
    ) -> [(Simulator, FlowHandle); 2] {
        let horizon = SimTime::from_secs_f64(opts.duration_s);
        let mut full = bursty(cc, opts, dark_from);
        full.0.run_until(horizon);
        let mut bounded = bursty(cc, opts, dark_from);
        run_until_finished(&mut bounded.0, &[bounded.1], horizon);
        [full, bounded]
    }

    #[test]
    fn shared_bottleneck_matches_full_horizon_run_and_stops_at_last_finish() {
        let opts =
            SharedOptions { n_users: 3, transfer_bytes: 256 * 1024, ..SharedOptions::default() };
        let horizon = SimTime::from_secs_f64(10.0);
        for kind in AlgorithmKind::PAPER_FOUR {
            let cc = CcChoice::Base(kind);
            let (mut full, full_users) = build_shared_bottleneck(&cc, &opts);
            full.run_until(horizon);
            let (mut sim, users) = build_shared_bottleneck(&cc, &opts);
            run_until_finished(&mut sim, &users, horizon);
            assert_eq!(
                f64_bits(&shared_bottleneck_energies(&sim, &users)),
                f64_bits(&shared_bottleneck_energies(&full, &full_users)),
                "{kind}"
            );
            assert_stopped_at_last_finish(&sim, &users, horizon);
        }
    }

    #[test]
    fn finite_bursty_matches_full_horizon_run_and_stops_at_finish() {
        let opts = finite_bursty(20.0);
        for cc in [CcChoice::Base(AlgorithmKind::Lia), CcChoice::dts()] {
            let [(full, full_flow), (sim, flow)] = bursty_both_ways(&cc, &opts, None);
            let (want, want_counters) = collect_two_path_bursty(&full, full_flow, &cc);
            let (got, counters) = collect_two_path_bursty(&sim, flow, &cc);
            assert_eq!(flow_bits(&got), flow_bits(&want), "{}", cc.label());
            // Link counters cover the shorter window; the sender's are frozen.
            assert_eq!(counters.subflows, want_counters.subflows);
            assert_eq!(counters.conns, want_counters.conns);
            assert_stopped_at_last_finish(&sim, &[flow], SimTime::from_secs_f64(opts.duration_s));
        }
    }

    #[test]
    fn short_flows_match_full_horizon_run_and_stop_at_last_mouse() {
        let opts = ShortFlowOptions {
            mice: ShortFlowConfig { horizon_s: 1.0, ..Default::default() },
            ..ShortFlowOptions::default()
        };
        let horizon = SimTime::from_secs_f64(opts.mice.horizon_s + SHORT_FLOW_DRAIN_S);
        let cc = CcChoice::dts();
        let (mut full, full_mice) = build_short_flows(&cc, &opts);
        full.run_until(horizon);
        let (mut sim, mice) = build_short_flows(&cc, &opts);
        run_until_finished(&mut sim, &mice, horizon);
        let want = short_flow_result(&full, &full_mice, &cc);
        let got = short_flow_result(&sim, &mice, &cc);
        assert!(mice.len() > 5 && got.fct_s.len() == mice.len());
        assert_eq!(f64_bits(&got.fct_s), f64_bits(&want.fct_s));
        assert_eq!(got.completion_rate.to_bits(), want.completion_rate.to_bits());
        assert_stopped_at_last_finish(&sim, &mice, horizon);
    }

    #[test]
    fn blacked_out_transfer_runs_to_exactly_the_horizon() {
        let opts = finite_bursty(5.0);
        let cc = CcChoice::dts();
        let dark_from = Some(SimTime::from_secs_f64(0.1));
        let [(full, full_flow), (sim, flow)] = bursty_both_ways(&cc, &opts, dark_from);
        assert!(!flow.is_finished(&sim));
        assert_eq!(sim.now(), SimTime::from_secs_f64(opts.duration_s));
        let (want, _) = collect_two_path_bursty(&full, full_flow, &cc);
        let (got, _) = collect_two_path_bursty(&sim, flow, &cc);
        assert_eq!(flow_bits(&got), flow_bits(&want));
    }

    #[test]
    fn stall_watchdog_ends_the_run_at_detection_time() {
        let opts = finite_bursty(60.0);
        let (mut sim, flow) = bursty(&CcChoice::dts(), &opts, Some(SimTime::from_secs_f64(0.1)));
        sim.enable_watchdog(SimDuration::from_secs_f64(1.0));
        sim.watch(flow.sender);
        run_until_finished(&mut sim, &[flow], SimTime::from_secs_f64(opts.duration_s));
        let report = sim.stall_report().expect("watchdog must fire");
        assert_eq!(sim.now(), report.at);
        assert!(sim.now() <= SimTime::from_secs_f64(3.0), "stalled only at {}", sim.now());
    }

    #[test]
    fn long_lived_flow_runs_to_exactly_the_horizon_unchanged() {
        let opts = BurstyOptions { duration_s: 3.0, ..BurstyOptions::default() };
        let cc = CcChoice::dts();
        let [(full, full_flow), (sim, flow)] = bursty_both_ways(&cc, &opts, None);
        assert_eq!(sim.now(), SimTime::from_secs_f64(opts.duration_s));
        let (want, want_counters) = collect_two_path_bursty(&full, full_flow, &cc);
        let (got, counters) = collect_two_path_bursty(&sim, flow, &cc);
        assert_eq!(flow_bits(&got), flow_bits(&want));
        assert_eq!(counters, want_counters);
    }

    #[test]
    fn render_lists_noisy_links_every_subflow_and_noisy_conns() {
        let snap = CounterSnapshot {
            links: vec![
                LinkStats { drops_queue: 2, drops_blackout: 1, ..LinkStats::default() },
                LinkStats { tx_pkts: 9, ..LinkStats::default() },
            ],
            conns: vec![
                ConnCounters { conn: 7, ..ConnCounters::default() },
                ConnCounters {
                    conn: 8,
                    zero_window_stalls: 1,
                    persist_probes: 4,
                    ..ConnCounters::default()
                },
            ],
            subflows: vec![
                vec![SubflowCounters { rtos: 3, recoveries: 2, ..SubflowCounters::default() }],
                vec![SubflowCounters::default(); 2],
            ],
        };
        let text = snap.render();
        assert!(text.contains("link 0: tx=0 drops(queue=2 fault=0 blackout=1)"), "{text}");
        assert!(!text.contains("link 1:"), "an idle link stays out: {text}");
        assert!(text.contains("conn 7 subflow 0: rtos=3 fast_rexmits=0 spurious=0 recoveries=2"));
        assert!(text.contains("conn 8 subflow 1: rtos=0"), "{text}");
        // Quiet connections stay out of the digest; noisy ones show up.
        assert!(!text.contains("conn 7:"), "{text}");
        assert!(text.contains("conn 8: zw_stalls=1 persist_probes=4"), "{text}");
    }
}
