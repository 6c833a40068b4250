//! Tournament: every congestion-control algorithm in the library, racing on
//! the same bursty two-path network — the comparison the paper's §IV model
//! analysis sets up.
//!
//! Also demonstrates the analytical layer: each algorithm's ψ decomposition
//! is checked against the paper's Condition 1 (TCP-friendliness) at a
//! symmetric equilibrium, and its fluid Pareto efficiency is reported.
//!
//! ```sh
//! cargo run --release --example algorithm_tournament
//! ```

use mptcp_energy_repro::congestion::AlgorithmKind;
use mptcp_energy_repro::paper::scenarios::{run_two_path_bursty, BurstyOptions, CcChoice};
use mptcp_energy_repro::paper::{
    check_condition1, fluid_model_of, pareto_efficiency, CcModel, DtsConfig, FlowView,
};

/// Fluid Pareto efficiency over two equal 500 pkt/s paths, three decimals,
/// or `unconverged` if a solve misses its tolerance.
fn efficiency(model: CcModel) -> String {
    match pareto_efficiency(model, &[500.0, 500.0], &[0.1, 0.1]) {
        Ok(eff) => format!("{eff:.3}"),
        Err(_) => "unconverged".to_owned(),
    }
}

fn main() {
    // Analytical pass: Condition 1 and fluid Pareto efficiency.
    let x = [100.0, 100.0];
    let rtt = [0.1, 0.1];
    let view = FlowView { x: &x, rtt: &rtt, base_rtt: &rtt };
    println!("{:<10} {:>18} {:>18}", "algo", "condition 1", "pareto efficiency");
    for kind in AlgorithmKind::ALL {
        // Reno's fluid form, ψ = 1, is Reno only on one path; this table
        // uses two.
        if kind == AlgorithmKind::Reno {
            continue;
        }
        let Some(model) = fluid_model_of(&CcChoice::Base(kind)) else { continue };
        let friendly = match check_condition1(&model, &view, 1e-6) {
            Ok(()) => "satisfied".to_owned(),
            Err(e) => match e {
                mptcp_energy_repro::paper::conditions::Condition1Violation::PsiTooLarge {
                    psi,
                    ..
                } => format!("violated (ψ={psi:.2})"),
                other => format!("violated ({other})"),
            },
        };
        let eff = efficiency(model);
        println!("{:<10} {:>18} {:>18}", kind.to_string(), friendly, eff);
    }
    {
        let model = CcModel::dts(DtsConfig::default());
        let base = [0.05, 0.05]; // design-point ratio 1/2 → ψ = 1
        let v = FlowView { x: &x, rtt: &rtt, base_rtt: &base };
        let friendly = match check_condition1(&model, &v, 1e-6) {
            Ok(()) => "satisfied".to_owned(),
            Err(e) => format!("violated ({e})"),
        };
        let eff = efficiency(model);
        println!("{:<10} {:>18} {:>18}", "dts", friendly, eff);
    }

    // Packet-level tournament.
    println!("\nPacket-level: 8 MB over two bursty 100 Mb/s paths:\n");
    println!("{:<10} {:>11} {:>9} {:>9} {:>9}", "algo", "energy (J)", "fct (s)", "Mb/s", "rexmits");
    let opts = BurstyOptions {
        transfer_bytes: Some(8_000_000),
        duration_s: 180.0,
        ..BurstyOptions::default()
    };
    let mut entries: Vec<CcChoice> =
        AlgorithmKind::ALL.iter().map(|k| CcChoice::Base(*k)).collect();
    entries.push(CcChoice::dts());
    // The φ delay target is a per-deployment knob (Equation (7)); on these
    // 20 ms-base WAN paths with 100-packet buffers a 20 ms target is the
    // sensible setting (the 5 ms default suits the wireless scenario).
    entries.push(CcChoice::DtsPhi(mptcp_energy_repro::paper::DtsPhiConfig {
        queue_target_s: 0.020,
        ..Default::default()
    }));
    for cc in entries {
        let r = run_two_path_bursty(&cc, &opts);
        println!(
            "{:<10} {:>11.1} {:>9.1} {:>9.2} {:>9}",
            r.label,
            r.energy.joules,
            r.finish_s.unwrap_or(f64::NAN),
            r.goodput_bps / 1e6,
            r.rexmits
        );
    }
}
