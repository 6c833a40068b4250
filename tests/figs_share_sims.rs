//! A figure plan simulates each cell once, and nobody can tell
//! (`bench_harness::figs::Sims`, DESIGN.md "A plan simulates each cell
//! once"): Fig. 8's LIA run is Fig. 7's and Fig. 9's seed-1 pair is Fig. 8's,
//! so one plan holding the three figures asks for 11 simulations and runs 8
//! — and every table it renders equals, byte for byte, the table of a plan
//! holding that figure alone, whichever figure asks first.
//!
//! This test renders the bursty smoke figures, alone and in three shared
//! orders; CI's `fabric` job pins the same property for all thirteen figures
//! against the release binary. The datacenter smoke figures' simulations run
//! at tier-1 too, in `tests/reproduction.rs`, whose claim rows read one
//! shared plan.

use bench_harness::fabric::{run_fabric_ephemeral, FabricCell, FabricOptions, RetryPolicy};
use bench_harness::figs::{fig_cells_only, fig_cells_with, Sims};
use bench_harness::Scale;
use std::sync::Arc;

const FIGS: [&str; 3] = ["fig07", "fig08", "fig09"];

/// Runs one figure cell the way `figures_all` and the repo benchmark do —
/// through the fabric — and returns its table.
fn table_of(cell: FabricCell<String>) -> String {
    let opts = FabricOptions {
        jobs: 1,
        journal: None,
        deadline: None,
        retry: RetryPolicy::none(),
        artifacts: None,
    };
    let report = run_fabric_ephemeral(vec![cell], &opts).expect("a one-cell grid plans");
    assert!(report.is_complete(), "{}", report.partial_note());
    let mut tables: Vec<String> = report.results().map(|r| r.output.clone()).collect();
    tables.pop().expect("one cell, one result")
}

#[test]
fn a_shared_plan_renders_what_isolated_plans_render_and_simulates_less() {
    let isolated: Vec<String> = FIGS
        .iter()
        .map(|fig| {
            let mut plan = fig_cells_only(Scale::Smoke, fig).expect(fig);
            table_of(plan.pop().expect("one figure"))
        })
        .collect();
    assert!(isolated.iter().all(|t| t.lines().count() > 3), "{isolated:?}");

    // Report order, Fig. 8 before Fig. 7, and back to front; serial and pooled.
    for (order, jobs) in [([0, 1, 2], 1), ([1, 0, 2], 1), ([2, 1, 0], 4)] {
        let sims = Arc::new(Sims::new(jobs));
        let mut plan: Vec<Option<FabricCell<String>>> =
            fig_cells_with(Scale::Smoke, Some(&FIGS.join(",")), &sims)
                .expect("three known figures")
                .into_iter()
                .map(Some)
                .collect();
        for i in order {
            let cell = plan[i].take().expect("each figure once");
            assert_eq!(table_of(cell), isolated[i], "{} in order {order:?}", FIGS[i]);
        }
        for (family, requested_run) in sims.counts() {
            let want = if family == "bursty" { (11, 8) } else { (0, 0) };
            assert_eq!(requested_run, want, "{family} in order {order:?}");
        }
        assert!(sims.render().contains("; bursty 11/8;"), "{}", sims.render());
    }
}
