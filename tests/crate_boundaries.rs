//! One smoke test per crate boundary that the root package's other tests
//! cross only implicitly: `energy` metering `transport` telemetry,
//! `transport` putting segments and ACKs on `netsim` links, `topology`
//! laying paths on `netsim` links, `workload` generating traffic for a
//! `netsim` world, and the paper's per-ACK controllers (run through
//! `congestion`'s interface) against their Equation-(3) fluid form in
//! `core::model`. Each is small enough for a debug build.

use congestion::{AlgorithmKind, MultipathCongestionControl, SubflowCc};
use energy_model::{energy_of_flow, PhoneModel, PowerModel, WiredCpuModel};
use mptcp_energy::{fluid_model_of, CcChoice, CcModel, FlowView, Phi};
use netsim::{LinkConfig, SimDuration, SimTime, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use topology::{BCube, FatTree, TwoPath, Vl2, Vl2Config};
use transport::{
    attach_flow, FlowConfig, FlowSample, PathSpec, DEFAULT_ACK_BYTES, DEFAULT_MSS_BYTES,
};
use workload::{attach_pareto_cross_traffic, permutation_pairs, ParetoOnOffConfig};

/// The Figs. 7–9 smoke transfer (8 MB over the Fig. 5(b) bursty two-path
/// network), run until it completes.
fn bursty_samples() -> Vec<FlowSample> {
    let mut sim = Simulator::new(1);
    let params = LinkConfig::new(100_000_000, SimDuration::from_millis(10)).queue_limit(100);
    let tp = TwoPath::symmetric(&mut sim, params);
    for link in tp.forward_links() {
        attach_pareto_cross_traffic(&mut sim, vec![link], ParetoOnOffConfig::paper_fig5b());
    }
    let cfg =
        FlowConfig::new(0).sample_every(SimDuration::from_millis(20)).transfer_bytes(8_000_000);
    let flow =
        attach_flow(&mut sim, cfg, AlgorithmKind::Lia.build(2), &tp.both(), SimDuration::ZERO);
    while !flow.is_finished(&sim) && sim.now() < SimTime::from_secs_f64(60.0) {
        sim.run_until(sim.now() + SimDuration::from_millis(100));
    }
    assert!(flow.is_finished(&sim), "the transfer completes");
    flow.sender_ref(&sim).samples().to_vec()
}

/// Three seconds of a long-lived DTS flow over the Fig. 17 WiFi + 4G pair.
fn wireless_samples() -> Vec<FlowSample> {
    let mut sim = Simulator::new(1);
    let tp = TwoPath::wireless(&mut sim);
    let cfg =
        FlowConfig::new(0).rcv_buf_bytes(256 * 1024).sample_every(SimDuration::from_millis(50));
    let cc = CcChoice::dts().build(2);
    let flow = attach_flow(&mut sim, cfg, cc, &tp.both(), SimDuration::ZERO);
    sim.run_until(SimTime::from_secs_f64(3.0));
    flow.sender_ref(&sim).samples().to_vec()
}

/// `energy_of_flow` is the plain rectangle rule over the samples: the same
/// additions, in the same order, as a left-to-right fold of
/// `power_w(at_i, &s_i.subflows) · interval_s_i` on a fresh model.
fn assert_metered_left_to_right<M: PowerModel>(make: impl Fn() -> M, samples: &[FlowSample]) {
    let report = energy_of_flow(&mut make(), samples);
    let mut model = make();
    model.reset();
    let (mut joules, mut duration) = (0.0f64, 0.0f64);
    for s in samples {
        joules += model.power_w(s.at.as_secs_f64(), &s.subflows) * s.interval_s;
        duration += s.interval_s;
    }
    assert_eq!(report.joules.to_bits(), joules.to_bits(), "{} vs {joules}", report.joules);
    assert_eq!(report.duration_s.to_bits(), duration.to_bits());
    assert!(report.joules > 0.0);
}

fn assert_telemetry_is_a_series(samples: &[FlowSample]) {
    assert!(samples.len() > 10, "{} samples", samples.len());
    assert!(samples.windows(2).all(|w| w[0].at < w[1].at), "sample times strictly increase");
    assert!(samples.iter().all(|s| s.interval_s > 0.0), "every sample covers time");
}

#[test]
fn energy_meters_transport_telemetry_left_to_right() {
    let bursty = bursty_samples();
    assert_telemetry_is_a_series(&bursty);
    assert_metered_left_to_right(WiredCpuModel::i7_3770, &bursty);

    let wireless = wireless_samples();
    assert_telemetry_is_a_series(&wireless);
    assert_metered_left_to_right(PhoneModel::nexus5_uplink, &wireless);
}

/// One Reno transfer over a duplex path whose 20-packet forward queue
/// overflows: every data segment on the forward link is
/// `DEFAULT_MSS_BYTES`, every ACK on the reverse link `DEFAULT_ACK_BYTES`,
/// and each segment that crossed the forward link drew exactly one ACK.
#[test]
fn transport_segments_and_acks_cross_netsim_links_one_for_one() {
    let mut sim = Simulator::new(3);
    let one_way = SimDuration::from_millis(10);
    let fwd = sim.add_link(LinkConfig::new(10_000_000, one_way).queue_limit(20));
    let rev = sim.add_link(LinkConfig::new(10_000_000, one_way));
    let flow = attach_flow(
        &mut sim,
        FlowConfig::new(0).transfer_pkts(2_000),
        AlgorithmKind::Reno.build(1),
        &[PathSpec::new(vec![fwd], vec![rev])],
        SimDuration::ZERO,
    );
    sim.run_until(SimTime::from_secs_f64(30.0));
    assert!(flow.is_finished(&sim), "the transfer completes");
    let (f, r) = (sim.world().link(fwd).stats(), sim.world().link(rev).stats());
    assert!(f.drops_queue > 0, "the forward queue overflows: {f:?}");
    assert!(f.tx_pkts >= 2_000, "every packet crossed at least once: {f:?}");
    assert_eq!(f.tx_bytes, f.tx_pkts * u64::from(DEFAULT_MSS_BYTES), "data segment size");
    assert_eq!(r.tx_bytes, r.tx_pkts * u64::from(DEFAULT_ACK_BYTES), "ACK size");
    assert_eq!(r.offered, f.tx_pkts, "one ACK per data segment that crossed: {r:?}");
}

/// Samples two paths for every ordered host pair and hands each to `check`
/// after asserting that it names only links `sim` has.
fn for_each_sampled_path(
    sim: &Simulator,
    hosts: usize,
    sample: impl Fn(usize, usize, &mut SmallRng) -> Vec<PathSpec>,
    check: impl Fn(usize, usize, &PathSpec),
) {
    let links = sim.world().link_count();
    let mut rng = SmallRng::seed_from_u64(7);
    for src in 0..hosts {
        for dst in (0..hosts).filter(|&d| d != src) {
            for path in sample(src, dst, &mut rng) {
                assert!(
                    path.fwd.iter().chain(&path.rev).all(|&l| l < links),
                    "{src}→{dst}: {path:?} names a link the world does not have ({links} links)"
                );
                check(src, dst, &path);
            }
        }
    }
}

/// Path `i`'s reverse route is the forward route of path `i` the other way.
fn assert_reverse_is_mirror(hosts: usize, paths: impl Fn(usize, usize) -> Vec<PathSpec>) {
    for src in 0..hosts {
        for dst in (0..hosts).filter(|&d| d != src) {
            let (there, back) = (paths(src, dst), paths(dst, src));
            assert_eq!(there.len(), back.len(), "{src}↔{dst}");
            for (i, (t, b)) in there.iter().zip(&back).enumerate() {
                assert_eq!(t.rev, b.fwd, "{src}→{dst}, path {i}");
            }
        }
    }
}

#[test]
fn fattree_paths_are_links_of_the_world() {
    let mut sim = Simulator::new(1);
    let ft =
        FatTree::build(&mut sim, 4, LinkConfig::new(100_000_000, SimDuration::from_micros(100)));
    let pod = |host: usize| host / 4; // k²/4 hosts per pod
    for_each_sampled_path(
        &sim,
        ft.hosts(),
        |s, d, rng| ft.sample_paths(s, d, 2, rng),
        |src, dst, path| {
            if pod(src) != pod(dst) {
                assert_eq!((path.fwd.len(), path.rev.len()), (6, 6), "{src}→{dst}: {path:?}");
            }
        },
    );
    assert_reverse_is_mirror(ft.hosts(), |s, d| ft.paths(s, d));
}

#[test]
fn vl2_and_bcube_paths_are_links_of_the_world() {
    // VL2 as the Figs. 14–15 smoke grid builds it (`DcKind::Vl2 { scale: 8 }`).
    let mut sim = Simulator::new(1);
    let host_link = LinkConfig::new(100_000_000, SimDuration::from_micros(100));
    let switch_link = LinkConfig::new(1_000_000_000, SimDuration::from_micros(100));
    let cfg = Vl2Config { n_tor: 2, n_agg: 2, n_int: 2, hosts_per_tor: 8, host_link, switch_link };
    let vl2 = Vl2::build(&mut sim, cfg);
    for_each_sampled_path(
        &sim,
        vl2.hosts(),
        |s, d, rng| vl2.sample_paths(s, d, 2, rng),
        |_, _, _| {},
    );
    assert_reverse_is_mirror(vl2.hosts(), |s, d| vl2.paths(s, d));

    // BCube(4, 1), Fig. 12's smoke fabric: a relayed path corrects one
    // digit per switch hop, so it is two or four links long.
    let mut sim = Simulator::new(1);
    let bcube = BCube::build(&mut sim, 4, 1, host_link);
    for_each_sampled_path(
        &sim,
        bcube.hosts(),
        |s, d, rng| bcube.sample_paths(s, d, 2, rng),
        |src, dst, path| assert!(matches!(path.fwd.len(), 2 | 4), "{src}→{dst}: {path:?}"),
    );
}

#[test]
fn workload_traffic_fits_the_world() {
    // Permutation traffic: every host sends once and receives once, never
    // to itself.
    let mut rng = SmallRng::seed_from_u64(11);
    for n in 2..=16 {
        let pairs = permutation_pairs(n, &mut rng);
        let mut dsts: Vec<usize> = pairs.iter().map(|&(_, d)| d).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, (0..n).collect::<Vec<_>>(), "n={n}: every host receives once");
        assert!(pairs.iter().enumerate().all(|(i, &(s, d))| s == i && s != d), "n={n}: {pairs:?}");
    }

    // Pareto cross traffic: 45 Mb/s bursts into a 20 Mb/s link, so the
    // link, not the source, sets the rate while a burst is on.
    let (link_bps, duration_s) = (20_000_000u64, 30.0);
    let mut sim = Simulator::new(3);
    let link = sim.add_link(LinkConfig::new(link_bps, SimDuration::from_millis(1)));
    attach_pareto_cross_traffic(&mut sim, vec![link], ParetoOnOffConfig::paper_fig5b());
    sim.run_until(SimTime::from_secs_f64(duration_s));
    let sent = sim.world().link(link).stats().tx_bytes;
    assert!(sent > 0, "at least one burst in {duration_s} s");
    let capacity = link_bps as f64 / 8.0 * duration_s;
    assert!((sent as f64) <= capacity, "{sent} bytes through a {capacity}-byte pipe");
}

/// `congestion/tests/model_consistency.rs`'s windows and RTTs, one row per
/// flow.
const STATES: &[(&[f64], &[f64])] = &[
    (&[10.0, 10.0], &[0.1, 0.1]),
    (&[30.0, 10.0], &[0.05, 0.2]),
    (&[5.0, 25.0, 40.0], &[0.02, 0.08, 0.3]),
    (&[100.0, 2.0], &[0.5, 0.01]),
];

/// `baseRTT_r / RTT_r` of path `r`, cycling: every ratio is off Equation
/// (5)'s midpoint, and the queueing delays it implies fall on both sides
/// of DTS-Φ's default 5 ms target.
const BASE_FRACTION: [f64; 3] = [0.9, 0.6, 0.3];

/// One flow's subflows in congestion avoidance with `srtt = last_rtt = rtt`
/// and `base_rtt < rtt`, plus the same state as a fluid [`FlowView`]'s
/// `x = w/rtt`, `rtt` and `base_rtt`.
fn cc_state(ws: &[f64], rtts: &[f64]) -> (Vec<SubflowCc>, [Vec<f64>; 3]) {
    let base: Vec<f64> = rtts.iter().enumerate().map(|(r, &t)| t * BASE_FRACTION[r % 3]).collect();
    let flows = ws
        .iter()
        .zip(rtts)
        .zip(&base)
        .map(|((&w, &rtt), &base_rtt)| {
            let mut f = SubflowCc::new();
            (f.cwnd, f.ssthresh) = (w, 1.0);
            (f.srtt, f.last_rtt, f.base_rtt) = (rtt, rtt, base_rtt);
            f
        })
        .collect();
    let x = ws.iter().zip(rtts).map(|(w, rtt)| w / rtt).collect();
    (flows, [x, rtts.to_vec(), base])
}

/// Subflow `r`'s window after one ACK under `cc`.
fn window_after_ack(cc: &mut dyn MultipathCongestionControl, r: usize, fs: &[SubflowCc]) -> f64 {
    let mut fs = fs.to_vec();
    cc.on_ack(r, &mut fs, 1, false);
    fs[r].cwnd
}

/// The packet controller and the fluid model one [`CcChoice`] builds.
fn engines(cc: CcChoice, n: usize) -> (Box<dyn MultipathCongestionControl>, CcModel) {
    let model = fluid_model_of(&cc).unwrap_or_else(|| panic!("{} has a fluid form", cc.label()));
    (cc.build(n), model)
}

#[test]
fn dts_and_dts_phi_per_ack_steps_are_their_equation_3_drift() {
    for (ws, rtts) in STATES {
        let (fs, [x, rtt, base_rtt]) = cc_state(ws, rtts);
        let view = FlowView { x: &x, rtt: &rtt, base_rtt: &base_rtt };
        let (mut dts, dts_model) = engines(CcChoice::dts(), fs.len());
        let (mut phi, phi_model) = engines(CcChoice::dts_phi(), fs.len());
        assert_eq!(phi_model.psi, dts_model.psi, "DTS-Φ's increase is default DTS");
        let Phi::EnergyPrice(price) = phi_model.phi else {
            panic!("DTS-Φ's model carries the energy price, not {:?}", phi_model.phi)
        };
        for r in 0..fs.len() {
            let w = fs[r].cwnd;
            // (a) One ACK every 1/x_r seconds moves the window by Δw, and
            // dx = dw/RTT: the per-ACK step is a drift of Δw·x_r/RTT_r.
            // Reading Δw back as w′ − w costs up to one ulp of w on top of
            // the 1e-12 the two evaluation orders may differ by.
            let w_dts = window_after_ack(dts.as_mut(), r, &fs);
            let dw = w_dts - w;
            let packet = dw * x[r] / rtt[r];
            let fluid = dts_model.dxdt(r, &view, 0.0);
            assert!(dw > 0.0, "state {ws:?}, r={r}: DTS grows the window");
            assert!(
                (packet - fluid).abs() <= (1e-12 + f64::EPSILON * w / dw) * fluid.abs(),
                "state {ws:?}, r={r}: DTS per-ACK drift {packet} vs Equation (3) {fluid}"
            );

            // (b) DTS-Φ takes DTS's step, then drains κ·w′·grad from the
            // window w′ that step left, with the model's gradient.
            let w_phi = window_after_ack(phi.as_mut(), r, &fs);
            let grad = phi_model.phi.grad(rtt[r], base_rtt[r]);
            let drained = w_dts - price.kappa * w_dts * grad;
            assert_eq!(w_phi.to_bits(), drained.to_bits(), "state {ws:?}, r={r}: {w_phi}");
            // The drain's drift is −κ·w′·grad·x_r/RTT_r; the fluid price is
            // −κ·x_r²·grad = −κ·w·grad·x_r/RTT_r. They differ by the factor
            // w′/w = 1 + Δw/w and nothing else. Reading the drain back as
            // w″ − w′ costs up to one ulp of w′, ε/(κ·grad) of the drain.
            let packet = (w_phi - w_dts) * x[r] / rtt[r];
            let fluid = phi_model.dxdt(r, &view, 0.0) - dts_model.dxdt(r, &view, 0.0);
            assert!(fluid < 0.0, "state {ws:?}, r={r}: the price drains");
            let tol = 1e-12 + f64::EPSILON / (price.kappa * grad);
            assert!(
                (packet - fluid * (w_dts / w)).abs() <= tol * fluid.abs(),
                "state {ws:?}, r={r}: DTS-Φ drain drift {packet} vs Equation (3) {fluid}·w′/w"
            );
        }
    }
}
