//! One smoke test per crate boundary that the root package's other tests
//! cross only implicitly: `energy` metering `transport` telemetry,
//! `transport` putting segments and ACKs on `netsim` links, `topology`
//! laying paths on `netsim` links, `workload` generating traffic for a
//! `netsim` world, every per-ACK controller with an Equation-(3) form (run
//! through `congestion`'s interface) against that form as the fluid solver
//! integrates it (`fluid_model_of`), and the Fig. 6 scenario against the
//! fluid twin `core` derives from its packet links. Each is small enough
//! for a debug build.

use congestion::{AlgorithmKind, Olia, SubflowCc, MIN_CWND};
use energy_model::{energy_of_flow, PhoneModel, PowerModel, WiredCpuModel};
use mptcp_energy::hybrid::fluid_twin;
use mptcp_energy::scenarios::{shared_bottleneck_twin, SharedOptions};
use mptcp_energy::{fluid_model_of, CcChoice, DtsConfig, FlowView, FluidSolver, Phi};
use netsim::{LinkConfig, SimDuration, SimTime, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use topology::{BCube, FatTree, SharedBottleneck, TwoPath, Vl2, Vl2Config};
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

/// Subflow `r`'s window after one ACK under a fresh `cc`.
fn window_after_ack(cc: &CcChoice, r: usize, fs: &[SubflowCc]) -> f64 {
    let mut fs = fs.to_vec();
    cc.build(fs.len()).on_ack(r, &mut fs, 1, false);
    fs[r].cwnd
}

/// Subflow `r`'s window after one fast-retransmit loss under a fresh `cc`.
fn window_after_loss(cc: &CcChoice, r: usize, fs: &[SubflowCc]) -> f64 {
    let mut fs = fs.to_vec();
    cc.build(fs.len()).on_loss(r, &mut fs);
    fs[r].cwnd
}

proptest::proptest! {
    /// The per-ACK and per-loss steps of every controller with an
    /// Equation-(3) form are that form's drift and decrease, at random
    /// operating points: 1–8 subflows in congestion avoidance, windows of
    /// 1–10⁴ packets, `srtt = last_rtt` log-uniform over 100 µs–500 ms and
    /// `base_rtt ≤ srtt`. What a packet controller adds to its row is
    /// labelled where it is checked: LIA's `1/w` cap, OLIA's `α_r/w_r`,
    /// Balia's loss-side `β_r` and DTS-Φ's per-ACK drain.
    #[test]
    fn every_modelled_controller_steps_its_equation_3_drift(
        paths in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..9),
    ) {
        let n = paths.len();
        let w: Vec<f64> = paths.iter().map(|p| 1e4f64.powf(p.0)).collect();
        let rtt: Vec<f64> = paths.iter().map(|p| 1e-4 * 5e3f64.powf(p.1)).collect();
        let base_rtt: Vec<f64> =
            paths.iter().zip(&rtt).map(|(p, t)| t * (1.0 - 0.95 * p.2)).collect();
        let fs: Vec<SubflowCc> = (0..n)
            .map(|r| {
                let mut f = SubflowCc::new();
                (f.cwnd, f.ssthresh) = (w[r], 1.0);
                (f.srtt, f.last_rtt, f.base_rtt) = (rtt[r], rtt[r], base_rtt[r]);
                f
            })
            .collect();
        let x: Vec<f64> = (0..n).map(|r| w[r] / rtt[r]).collect();
        let view = FlowView { x: &x, rtt: &rtt, base_rtt: &base_rtt };
        let max_x = x.iter().copied().fold(0.0f64, f64::max);
        let olia_alpha = Olia::new(n).alphas(&fs);
        let fixed_point = CcChoice::Dts(DtsConfig { fixed_point: true, ..DtsConfig::default() });
        let ccs = [
            CcChoice::Base(AlgorithmKind::Ewtcp),
            CcChoice::Base(AlgorithmKind::Coupled),
            CcChoice::Base(AlgorithmKind::Lia),
            CcChoice::Base(AlgorithmKind::Olia),
            CcChoice::Base(AlgorithmKind::Balia),
            CcChoice::Base(AlgorithmKind::EcMtcp),
            CcChoice::dts(),
            fixed_point,
            CcChoice::dts_phi(),
        ];
        for cc in ccs {
            let model = fluid_model_of(&cc).unwrap_or_else(|| panic!("{} has a form", cc.label()));
            for r in 0..n {
                let at = format!("{} at r={r} of w={w:?}, rtt={rtt:?}, base={base_rtt:?}", cc.label());
                // One ACK every 1/x_r seconds moves the window by Δw, and
                // dx = dw/RTT: the per-ACK step is a drift of Δw·x_r/RTT_r.
                let to_drift = x[r] / rtt[r];
                let (w0, w1) = (w[r], window_after_ack(&cc, r, &fs));
                let fluid = model.dxdt(r, &view, 0.0);
                let (expected, own) = match cc {
                    CcChoice::DtsPhi(_) => {
                        // DTS-Φ takes DTS's step, then drains κ·w′·grad from
                        // the window w′ that step left, with the model's
                        // gradient, to the bit.
                        let Phi::EnergyPrice(price) = model.phi else {
                            panic!("{at}: DTS-Φ's model carries the energy price")
                        };
                        let w_dts = window_after_ack(&CcChoice::Dts(price.dts), r, &fs);
                        let grad = model.phi.grad(rtt[r], base_rtt[r]);
                        let drained = w_dts - price.kappa * w_dts * grad;
                        assert_eq!(w1.to_bits(), drained.to_bits(), "{at}: {w1} vs {drained}");
                        // The drain's drift is −κ·w′·grad·x_r/RTT_r; the fluid
                        // price is −κ·x_r²·grad = −κ·w·grad·x_r/RTT_r. They
                        // differ by the factor w′/w and nothing else. Reading
                        // the drain back as w″ − w′ costs up to one ulp of
                        // w′, ε/(κ·grad) of the drain.
                        let dts_model = fluid_model_of(&CcChoice::Dts(price.dts)).unwrap();
                        let price_drift = fluid - dts_model.dxdt(r, &view, 0.0);
                        assert!(price_drift < 0.0, "{at}: the price drains");
                        let packet = (w1 - w_dts) * to_drift;
                        let tol = 1e-12 + f64::EPSILON / (price.kappa * grad);
                        assert!(
                            (packet - price_drift * (w_dts / w0)).abs() <= tol * price_drift.abs(),
                            "{at}: drain drift {packet} vs Equation (3) {price_drift}·w′/w"
                        );
                        continue;
                    }
                    // LIA caps each subflow at one TCP's increase, 1/w_r.
                    CcChoice::Base(AlgorithmKind::Lia) => (fluid.min(to_drift / w0), 0.0),
                    // OLIA adds its re-balancing term α_r/w_r to the ψ = 1 row.
                    CcChoice::Base(AlgorithmKind::Olia) => {
                        let own = olia_alpha[r] / w0 * to_drift;
                        (fluid + own, own)
                    }
                    _ => (fluid, 0.0),
                };
                // The two evaluation orders may differ by 1e-12 of the terms;
                // reading Δw back as w′ − w costs up to one ulp of w′.
                let packet = (w1 - w0) * to_drift;
                let tol = 1e-12 * (fluid.abs() + own.abs()) + f64::EPSILON * w1.max(w0) * to_drift;
                assert!(
                    (packet - expected).abs() <= tol,
                    "{at}: per-ACK drift {packet} vs Equation (3) {expected}"
                );
                // Alone on one path, every TCP-friendly row is Reno: Δw = 1/w.
                if n == 1 && matches!(cc, CcChoice::Base(_)) {
                    let reno = 1.0 / w0;
                    assert!(
                        (w1 - w0 - reno).abs() <= 1e-12 * reno + f64::EPSILON * w1,
                        "{at}: Δw {} vs Reno's {reno}",
                        w1 - w0
                    );
                }

                // A loss takes the window to (1 − β)·w, floored at one packet,
                // to the bit. Balia's packet form backs off by its published
                // min(α_r, 1.5)/2 with α_r = max_k x_k / x_r, not the model's
                // β = ½: at least as far, further on every slower path.
                let beta = match cc {
                    CcChoice::Base(AlgorithmKind::Balia) => (max_x / x[r]).clamp(1.0, 1.5) / 2.0,
                    _ => model.beta,
                };
                let w_loss = window_after_loss(&cc, r, &fs);
                let want = (w0 * (1.0 - beta)).max(MIN_CWND);
                assert_eq!(w_loss.to_bits(), want.to_bits(), "{at}: loss {w_loss} vs {want}");
                assert!(w_loss <= (w0 * (1.0 - model.beta)).max(MIN_CWND), "{at}: β {beta}");
            }
        }
    }
}

#[test]
fn dctcp_wvegas_and_dwc_alone_have_no_equation_3_form() {
    for kind in AlgorithmKind::ALL {
        let packet_only =
            matches!(kind, AlgorithmKind::Dctcp | AlgorithmKind::WVegas | AlgorithmKind::Dwc);
        assert_eq!(fluid_model_of(&CcChoice::Base(kind)).is_none(), packet_only, "{kind}");
    }
}

/// Fig. 6's fluid twin is the packet scenario's: one fluid link per netsim
/// link, the bottleneck capacity and every path's base RTT read from the
/// 100 Mb/s, 5 ms links, and OLIA's TCP-friendly fixed point.
#[test]
fn fig6_fluid_twin_carries_the_packet_links_and_rtts() {
    let olia = CcChoice::Base(AlgorithmKind::Olia);
    let opts = SharedOptions { n_users: 2, ..SharedOptions::default() };
    let (twin, packet_only) = shared_bottleneck_twin(&olia, &opts);
    assert!(packet_only.is_empty());

    // The same N = 2 scenario attached by hand, plus one DCTCP flow: the
    // twin leaves out exactly that flow and is otherwise the same.
    let mut sim = Simulator::new(1);
    let link = LinkConfig::new(100_000_000, SimDuration::from_millis(5)).queue_limit(100);
    let sb = SharedBottleneck::new(&mut sim, link);
    let reno = CcChoice::Base(AlgorithmKind::Reno);
    let mut flows: Vec<(CcChoice, Vec<PathSpec>)> =
        (0..4).map(|i| (reno, sb.tcp_path(i))).collect();
    flows.extend([(olia, sb.mptcp_paths()), (olia, sb.mptcp_paths())]);
    flows.push((CcChoice::Base(AlgorithmKind::Dctcp), sb.tcp_path(0)));
    let (by_hand, packet_only) = fluid_twin(&sim, &flows);
    assert_eq!(packet_only, [6]);
    assert_eq!(by_hand, twin);
    assert_eq!(twin.links.len(), sim.world().link_count());

    let cap = 100e6 / (8.0 * 1500.0);
    let base_rtt = 2.0 * 5e-3 + (1500.0 + 40.0) * 8.0 / 100e6;
    // Priced so that one Reno flow at that RTT settles at 90 % of capacity,
    // where 1/RTT² = ½·p·x².
    let x = 0.9 * cap;
    let reno_price = 2.0 / (base_rtt * base_rtt * x * x);
    for l in [sb.b1.fwd, sb.b2.fwd] {
        let link = &twin.links[l];
        assert!((link.capacity - cap).abs() < 1e-12 * cap, "{link:?}");
        assert!((link.price(x) / reno_price - 1.0).abs() < 1e-9, "{link:?}");
    }
    for p in twin.flows.iter().flat_map(|f| &f.paths) {
        assert!((p.base_rtt - base_rtt).abs() < 1e-15 && (p.rtt - base_rtt).abs() < 1e-15, "{p:?}");
    }

    let n_paths = twin.flows.iter().map(|f| f.paths.len()).sum();
    let mut solver = FluidSolver::from_flat_state(&twin, &vec![50.0; n_paths]);
    solver.solve_equilibrium(5e-4, 1e-7, 2_000_000).expect("the twin reaches equilibrium");
    let user = |f: usize| solver.rates_of(f).iter().sum::<f64>();
    let tcp = (0..4).map(user).sum::<f64>() / 4.0;
    let mptcp = (4..6).map(user).sum::<f64>() / 2.0;
    assert!((mptcp / tcp - 1.0).abs() < 1e-3, "OLIA mptcp/tcp {}", mptcp / tcp);
}
