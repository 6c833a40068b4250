//! `figs_smoke` — the 13 figure harnesses at `Scale::Smoke`, each through
//! the sweep fabric with one job and no journal.
//!
//! Why: this is what people actually run (`figures_all --smoke`), and the
//! only workload that crosses every crate — the EC2/VL2/BCube/hierarchy
//! topologies and the Fig. 1–4 energy models included. It is transport-heavy:
//! Fig. 6 alone is ~80 % of it, pushing every packet over a single hop until
//! its 600 s horizon. The figure harnesses fix their own seeds, so this
//! workload ignores `--seed`.
//!
//! Each figure goes through `run_fabric` as a one-cell grid, so that the
//! benchmark can time figures individually from outside; the fabric's
//! per-call cost is microseconds against figures of 6 ms to 18 s.

use crate::pass::{Layer, Pass};
use bench_harness::fabric::{run_fabric, FabricOptions};
use bench_harness::{figs, Scale};

/// `"Fig 1"` → `"fig01"`, `"Fig 12-14"` → `"fig12_14"`: the key of the
/// figure's `bench.fig_s.*` metric.
pub fn fig_key(label: &str) -> String {
    let id = label.trim_start_matches("Fig ").replace('-', "_");
    format!("fig{id:0>2}")
}

pub(super) fn pass(pass: &mut Pass) -> Result<(), String> {
    let mut cells = figs::fig_cells(Scale::Smoke);
    if pass.tiny {
        // Figs. 1–4 are closed-form energy models: milliseconds in total.
        cells.truncate(4);
    }
    let opts =
        FabricOptions { jobs: 1, journal: None, artifacts: None, ..FabricOptions::default() };
    for cell in cells {
        let label = cell.label.clone();
        pass.tracer.enter(format!("figs::{}::run", fig_key(&label)), Layer::Bench);
        let report = pass.meter.timed(|| run_fabric(vec![cell], &opts));
        pass.tracer.exit();
        let Some(report) = report else { continue };
        let report = report?;
        let c = report.counters;
        let check = match report.results().next() {
            _ if c.retries + c.panics + c.deadline_kills + c.quarantined > 0 => {
                Err(format!("not clean on the first attempt: {}", c.render()))
            }
            None => Err("no result".to_owned()),
            Some(r) if r.output.trim().is_empty() => Err("empty table".to_owned()),
            Some(r) if r.output.split_whitespace().any(|t| t == "NaN" || t.ends_with("inf")) => {
                Err("table holds a non-finite value".to_owned())
            }
            Some(r) => {
                pass.digest.str(&r.label);
                pass.digest.str(&r.output);
                Ok(())
            }
        };
        if pass.tracer.on() {
            pass.count(&format!("bench.fig_s.{}", fig_key(&label)), pass.open_cell_s());
        }
        pass.work += 1;
        pass.cell(label, check);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_labels_map_to_metric_keys() {
        assert_eq!(fig_key("Fig 1"), "fig01");
        assert_eq!(fig_key("Fig 10"), "fig10");
        assert_eq!(fig_key("Fig 12-14"), "fig12_14");
        let keys: Vec<String> =
            figs::fig_cells(Scale::Smoke).iter().map(|c| fig_key(&c.label)).collect();
        assert_eq!(
            keys,
            [
                "fig01", "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10",
                "fig12_14", "fig15", "fig16", "fig17"
            ]
        );
    }
}
