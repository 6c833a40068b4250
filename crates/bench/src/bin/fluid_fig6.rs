//! Fluid-model cross-check of the Fig. 6 scenario: N MPTCP users (one per
//! Equation-(3) model) race 2N Reno users over two shared bottlenecks, at
//! equilibrium. The fluid layer predicts the per-user throughput share each
//! algorithm extracts — and therefore the energy ordering the packet-level
//! Fig. 6 harness measures (energy ≈ M/τ̄·P, Equation (2)).
//!
//! Pass --smoke/--quick/--full (scales N) and optionally --jobs N. Each ψ's
//! equilibrium solve is an independent cell, fanned out by the crash-safe
//! sweep fabric: with --journal PATH completed solves checkpoint to an
//! append-only journal and a killed run resumes where it left off; a solve
//! that misses its tolerance fails its cell, and a diverging one can be
//! bounded with SWEEP_DEADLINE_S; either is quarantined instead of sinking
//! the table (exit 1, partial note on stderr);
//! --workers N spreads the solves over supervised worker processes with
//! identical output.
//!
//! With `--trace DIR` the equilibrium results are also appended to
//! `DIR/fluid_fig6.jsonl` as `{"ev":"fluid_cell",...}` lines — there is no
//! packet-level event stream here, but `trace_dump` tolerates the custom
//! event kind and the file slots into the same trace directory the
//! packet-level harnesses fill.

use bench_harness::fabric::{FabricCell, Fingerprint};
use bench_harness::{table, Cli, Scale};
use mptcp_energy::{CcModel, FluidFlow, FluidLink, FluidNet, FluidPath, FluidSolver, Psi};

fn scenario(psi: Psi, n_users: usize) -> (f64, f64) {
    let mut net = FluidNet::new();
    let cap = 10_000.0; // packets/second per bottleneck
    let l0 = net.add_link(FluidLink::new(cap));
    let l1 = net.add_link(FluidLink::new(cap));
    let rtt = 0.02;
    // N MPTCP users spanning both bottlenecks.
    for _ in 0..n_users {
        net.add_flow(FluidFlow {
            model: CcModel::loss_based(psi),
            paths: vec![FluidPath::new(vec![l0], rtt), FluidPath::new(vec![l1], rtt)],
        });
    }
    // 2N single-path Reno users, half per bottleneck.
    for i in 0..2 * n_users {
        let l = if i % 2 == 0 { l0 } else { l1 };
        net.add_flow(FluidFlow {
            model: CcModel::loss_based(Psi::Olia), // single path: ψ = 1 = Reno
            paths: vec![FluidPath::new(vec![l], rtt)],
        });
    }
    let n_paths = net.flows.iter().map(|f| f.paths.len()).sum();
    let mut solver = FluidSolver::from_flat_state(&net, &vec![50.0; n_paths]);
    if let Err(miss) = solver.solve_equilibrium(5e-4, 1e-7, 2_000_000) {
        panic!("{} did not reach equilibrium: {miss:?}", psi.name());
    }
    let user_total = |f: usize| solver.rates_of(f).iter().sum::<f64>();
    let mptcp_mean = (0..n_users).map(user_total).sum::<f64>() / n_users as f64;
    let tcp_mean = (n_users..3 * n_users).map(user_total).sum::<f64>() / (2 * n_users) as f64;
    (mptcp_mean, tcp_mean)
}

fn main() {
    let cli = Cli::from_args();
    let n_users = match cli.scale {
        Scale::Smoke => 4,
        Scale::Quick => 10,
        Scale::Full => 25,
    };
    let mss_bits = 1500.0 * 8.0;
    let transfer_bits = 16.0 * 1024.0 * 1024.0 * 8.0;
    let psis = [Psi::Lia, Psi::Olia, Psi::Balia, Psi::EcMtcp, Psi::Coupled, Psi::Ewtcp];
    let cells: Vec<FabricCell<_>> = psis
        .into_iter()
        .map(|psi| {
            FabricCell::new(psi.name(), 0, move || scenario(psi, n_users))
                .config(Fingerprint::new().str("fluid_fig6").str(psi.name()).u64(n_users as u64))
        })
        .collect();
    let mut sink = cli.trace.as_deref().and_then(|dir| {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create trace dir {}: {e}", dir.display());
            return None;
        }
        let path = obs::trace_path(dir, "fluid_fig6");
        match obs::JsonlSink::create(&path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("warning: cannot open trace file {}: {e}", path.display());
                None
            }
        }
    });
    let report = cli.sweep("fluid_fig6", cells);
    let mut rows = Vec::new();
    for r in report.results() {
        let (mptcp, tcp) = r.output;
        // Implied 16 MB transfer time and a simple ∝1/τ̄ energy proxy.
        let seconds = transfer_bits / (mptcp * mss_bits);
        if let Some(sink) = sink.as_mut() {
            sink.line(|w| {
                w.str("ev", "fluid_cell")
                    .str("psi", &r.label)
                    .u64("n_users", n_users as u64)
                    .f64_fixed("mptcp_pkts_s", mptcp, 3)
                    .f64_fixed("tcp_pkts_s", tcp, 3)
                    .f64_fixed("transfer_s", seconds, 3)
            });
        }
        rows.push(vec![
            r.label.clone(),
            format!("{mptcp:.0}"),
            format!("{tcp:.0}"),
            format!("{:.3}", mptcp / tcp),
            format!("{seconds:.1}"),
        ]);
    }
    println!(
        "Fluid equilibrium, {n_users} MPTCP + {} TCP users on two shared bottlenecks:",
        2 * n_users
    );
    print!(
        "{}",
        table(&["psi", "mptcp x* (pkt/s)", "tcp x* (pkt/s)", "mptcp/tcp", "16MB time (s)"], &rows)
    );
    println!("\nmptcp/tcp near 1 = TCP-friendly; higher mptcp x* = shorter transfers = less energy (Eq. 2).");
    report.exit_if_partial();
}
