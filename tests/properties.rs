//! Property-based tests (proptest) over the core data structures and
//! invariants: congestion-control window safety, the DTS sigmoid, summary
//! statistics, the fluid solver's floors, and workload samplers.

use congestion::{AlgorithmKind, SubflowCc, MAX_CWND, MIN_CWND};
use mptcp_energy::{epsilon_exact, epsilon_fixed_point, CcModel, FiveNumber, FlowView, Psi};
use proptest::prelude::*;

/// A random but valid subflow state.
fn subflow_strategy() -> impl Strategy<Value = SubflowCc> {
    (1.0f64..5000.0, 1e-4f64..2.0, 0.1f64..1.0).prop_map(|(cwnd, rtt, base_frac)| {
        let mut f = SubflowCc::new();
        f.cwnd = cwnd;
        f.ssthresh = (cwnd / 2.0).max(congestion::MIN_CWND); // congestion avoidance
        f.observe_rtt(rtt * base_frac);
        f.observe_rtt(rtt);
        f
    })
}

/// A random event script: per-subflow ack/loss/timeout choices.
#[derive(Clone, Debug)]
enum Event {
    Ack { r: usize, n: u64, ecn: bool },
    Loss { r: usize },
    Timeout { r: usize },
}

fn event_strategy(n_subflows: usize) -> impl Strategy<Value = Event> {
    prop_oneof![
        (0..n_subflows, 1u64..4, any::<bool>()).prop_map(|(r, n, ecn)| Event::Ack { r, n, ecn }),
        (0..n_subflows).prop_map(|r| Event::Loss { r }),
        (0..n_subflows).prop_map(|r| Event::Timeout { r }),
    ]
}

proptest! {
    /// No algorithm ever drives a window out of [MIN_CWND, MAX_CWND] or
    /// produces NaN, for any event sequence.
    #[test]
    fn windows_stay_valid_under_any_event_sequence(
        flows in proptest::collection::vec(subflow_strategy(), 2..5),
        seed_events in proptest::collection::vec(any::<u16>(), 1..200),
    ) {
        for kind in AlgorithmKind::ALL {
            let mut fs = flows.clone();
            let n = fs.len();
            let mut cc = kind.build(n);
            for (i, &e) in seed_events.iter().enumerate() {
                let r = (e as usize) % n;
                match e % 5 {
                    0..=2 => cc.on_ack(r, &mut fs, 1 + (i as u64 % 3), e % 7 == 0),
                    3 => cc.on_loss(r, &mut fs),
                    _ => cc.on_timeout(r, &mut fs),
                }
                for (j, f) in fs.iter().enumerate() {
                    prop_assert!(f.cwnd.is_finite(), "{kind} produced non-finite cwnd");
                    prop_assert!(
                        (MIN_CWND..=MAX_CWND).contains(&f.cwnd),
                        "{kind} subflow {j} cwnd {} out of range", f.cwnd
                    );
                    prop_assert!(f.ssthresh >= MIN_CWND || f.ssthresh.is_infinite());
                }
            }
        }
    }

    /// DTS and DTS-Φ obey the same window-safety invariant.
    #[test]
    fn dts_windows_stay_valid(
        flows in proptest::collection::vec(subflow_strategy(), 2..5),
        events in proptest::collection::vec(event_strategy(2), 1..200),
    ) {
        use mptcp_energy::scenarios::CcChoice;
        for choice in [CcChoice::dts(), CcChoice::dts_phi()] {
            let mut fs = flows.clone();
            let n = fs.len();
            let mut cc = choice.build(n);
            for ev in &events {
                match *ev {
                    Event::Ack { r, n: acked, ecn } if r < fs.len() =>
                        cc.on_ack(r % fs.len(), &mut fs, acked, ecn),
                    Event::Loss { r } => cc.on_loss(r % n.min(fs.len()), &mut fs),
                    Event::Timeout { r } => cc.on_timeout(r % fs.len(), &mut fs),
                    _ => {}
                }
                for f in &fs {
                    prop_assert!(f.cwnd.is_finite() && f.cwnd >= MIN_CWND && f.cwnd <= MAX_CWND);
                }
            }
        }
    }

    /// ε ∈ (0, 2) for every ratio, and it is monotone in the ratio.
    #[test]
    fn epsilon_bounded_and_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let e_lo = epsilon_exact(lo, 10.0, 0.5);
        let e_hi = epsilon_exact(hi, 10.0, 0.5);
        prop_assert!(e_lo > 0.0 && e_lo < 2.0);
        prop_assert!(e_hi > 0.0 && e_hi < 2.0);
        prop_assert!(e_lo <= e_hi + 1e-12);
        // The fixed-point port stays within [0, 2] everywhere.
        let fp = epsilon_fixed_point(a);
        prop_assert!((0.0..=2.0).contains(&fp));
    }

    /// Five-number summaries are ordered and fence outliers correctly.
    #[test]
    fn five_number_is_ordered(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let f = FiveNumber::of(&values);
        prop_assert!(f.min <= f.q1 + 1e-9);
        prop_assert!(f.q1 <= f.median + 1e-9);
        prop_assert!(f.median <= f.q3 + 1e-9);
        prop_assert!(f.q3 <= f.max + 1e-9);
        let iqr = f.q3 - f.q1;
        for o in &f.outliers {
            prop_assert!(*o < f.q1 - 1.5 * iqr || *o > f.q3 + 1.5 * iqr);
        }
    }

    /// Every ψ decomposition is positive on positive states, and every
    /// row's β is exactly ½ on the best path: Condition 1's β clause holds
    /// by construction.
    #[test]
    fn psi_decompositions_are_positive(
        x in proptest::collection::vec(1.0f64..1e5, 2..5),
        rtt_base in 1e-4f64..0.5,
    ) {
        let rtt: Vec<f64> = (0..x.len()).map(|i| rtt_base * (1.0 + i as f64 * 0.3)).collect();
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &rtt };
        let best = (0..x.len()).max_by(|&a, &b| x[a].total_cmp(&x[b])).unwrap();
        for psi in [Psi::Ewtcp, Psi::Coupled, Psi::Lia, Psi::Olia, Psi::Balia, Psi::EcMtcp] {
            for r in 0..x.len() {
                let (val, beta) = psi.eval(r, &v);
                prop_assert!(val.is_finite() && val > 0.0, "{psi:?} gave {val}");
                if r == best {
                    prop_assert_eq!(beta.to_bits(), 0.5f64.to_bits(), "{:?}: β {}", psi, beta);
                }
            }
        }
    }

    /// The fluid solver never lets a rate fall below its floor, whatever the
    /// capacities.
    #[test]
    fn fluid_rates_respect_floor(
        caps in proptest::collection::vec(10.0f64..10_000.0, 2..4),
        x0 in proptest::collection::vec(1.0f64..500.0, 2..4),
    ) {
        let n = caps.len().min(x0.len());
        let rtts = vec![0.05; n];
        let net = mptcp_energy::disjoint_paths_net(
            CcModel::loss_based(Psi::Olia), &caps[..n], &rtts);
        let mut solver = mptcp_energy::fluid::FluidSolver::from_flat_state(&net, &x0[..n]);
        solver.run(1e-3, 5_000);
        for rate in solver.x() {
            prop_assert!(*rate >= mptcp_energy::fluid::X_MIN);
            prop_assert!(rate.is_finite());
        }
    }

    /// Pareto samples never fall below the scale parameter and exponential
    /// samples are non-negative.
    #[test]
    fn workload_samplers_are_sane(seed in any::<u64>(), mean in 0.5f64..50.0) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = 1.5;
        let scale = mean * (shape - 1.0) / shape;
        for _ in 0..50 {
            let p = workload::pareto_sample(&mut rng, shape, mean);
            prop_assert!(p >= scale * (1.0 - 1e-12));
            prop_assert!(p.is_finite());
            let e = workload::exp_sample(&mut rng, mean);
            prop_assert!(e >= 0.0 && e.is_finite());
        }
    }

    /// Permutation pairs never map a host to itself and cover every source.
    #[test]
    fn permutations_have_no_fixed_points(seed in any::<u64>(), n in 2usize..200) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = workload::permutation_pairs(n, &mut rng);
        prop_assert_eq!(pairs.len(), n);
        for (s, d) in pairs {
            prop_assert!(s != d);
            prop_assert!(d < n);
        }
    }
}
