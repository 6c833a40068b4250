//! Fluid-model cross-check of the Fig. 6 scenario: the equilibrium of its
//! fluid twin (`shared_bottleneck_twin`) for every N that `figures_all`
//! runs at the chosen scale, N MPTCP users racing 2N Reno users over the
//! two 100 Mb/s bottlenecks. It predicts the per-user share each algorithm
//! extracts, and so the energy ordering of the packet-level Fig. 6
//! (energy ≈ M/τ̄·P, Equation (2)). `y/c` is the busiest bottleneck's fluid
//! load over its capacity; the calibrated price lets it exceed 1, so the
//! transfer times are faster than the wire allows (DESIGN.md §5).
//!
//! Flags: --smoke/--quick/--full, --jobs N, --workers N, --journal PATH.
//! Each solve is one cell of the crash-safe sweep fabric: a journaled run
//! resumes after a kill, and a solve that misses its tolerance (or
//! SWEEP_DEADLINE_S) is quarantined; the table prints the rest and exits 1.

use bench_harness::fabric::{CellOutcome, FabricCell, Fingerprint};
use bench_harness::{fig06, table, Cli};
use congestion::AlgorithmKind;
use mptcp_energy::scenarios::{shared_bottleneck_twin, CcChoice, SharedOptions};
use mptcp_energy::FluidSolver;
use transport::DEFAULT_MSS_BYTES;

/// The twin's equilibrium: mean MPTCP and mean TCP user rate (packets per
/// second) and the busiest link's load over its capacity.
fn solve(cc: &CcChoice, opts: &SharedOptions) -> (f64, f64, f64) {
    let (net, packet_only) = shared_bottleneck_twin(cc, opts);
    assert!(packet_only.is_empty(), "{} has no fluid form", cc.label());
    let n_paths = net.flows.iter().map(|f| f.paths.len()).sum();
    let mut solver = FluidSolver::from_flat_state(&net, &vec![50.0; n_paths]);
    if let Err(miss) = solver.solve_equilibrium(5e-4, 1e-7, 2_000_000) {
        panic!("{} did not reach equilibrium: {miss:?}", cc.label());
    }
    let n = opts.n_users;
    let total = |users: std::ops::Range<usize>| {
        users.map(|f| solver.rates_of(f).iter().sum::<f64>()).sum::<f64>()
    };
    let (tcp, mptcp) = (total(0..2 * n) / (2 * n) as f64, total(2 * n..3 * n) / n as f64);
    let load = solver.link_rates().iter().zip(&net.links).map(|(y, l)| y / l.capacity);
    (mptcp, tcp, load.fold(0.0, f64::max))
}

fn main() {
    let cli = Cli::from_args();
    let kinds =
        [AlgorithmKind::PAPER_FOUR.as_slice(), &[AlgorithmKind::Coupled, AlgorithmKind::Ewtcp]];
    let keys = fig06::keys(cli.scale, &kinds.concat());
    let cells: Vec<FabricCell<_>> = keys
        .iter()
        .map(|&(cc, opts)| {
            let label = cc.label();
            let config = Fingerprint::new().str("fluid_fig6").str(&label).u64(opts.n_users as u64);
            FabricCell::new(label, 0, move || solve(&cc, &opts)).config(config)
        })
        .collect();
    let report = cli.sweep("fluid_fig6", cells);
    let mut rows = Vec::new();
    for ((cc, opts), outcome) in keys.iter().zip(&report.outcomes) {
        let CellOutcome::Done { summary, .. } = outcome else { continue };
        let (mptcp, tcp, load) = summary.output;
        // Implied transfer time, the ∝1/τ̄ energy proxy.
        let seconds = opts.transfer_bytes as f64 / (mptcp * f64::from(DEFAULT_MSS_BYTES));
        rows.push(vec![
            opts.n_users.to_string(),
            cc.label(),
            format!("{mptcp:.0}"),
            format!("{tcp:.0}"),
            format!("{:.3}", mptcp / tcp),
            format!("{load:.2}"),
            format!("{seconds:.2}"),
        ]);
    }
    println!("Fluid twin of Fig. 6: N MPTCP + 2N TCP users, two shared bottlenecks, pkt/s:");
    let head = ["N", "algorithm", "mptcp x*", "tcp x*", "mptcp/tcp", "y/c", "transfer (s)"];
    print!("{}", table(&head, &rows));
    println!("\nmptcp/tcp near 1 = TCP-friendly; higher mptcp x* = shorter transfers = less energy (Eq. 2).");
    report.exit_if_partial();
}
