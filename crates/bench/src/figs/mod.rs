//! Figure harnesses, one module per paper figure.

pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig12_14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod sims;

pub use sims::Sims;

use crate::fabric::{FabricCell, Fingerprint};
use crate::Scale;
use std::sync::Arc;

/// A figure harness entry point: module name (the `--only` key), report
/// label, runner. A runner takes its simulations from the plan's [`Sims`],
/// except Figs. 2–4: they share nothing, so they ignore it and run their own
/// packet simulations (3, 10 and 2) one after another on the figure's
/// thread.
type FigRunner = (&'static str, &'static str, fn(Scale, &Sims) -> String);

/// Every figure harness, in report order.
const FIGS: &[FigRunner] = &[
    ("fig01", "Fig 1", fig01::run),
    ("fig02", "Fig 2", |scale, _| fig02::run(scale)),
    ("fig03", "Fig 3", |scale, _| fig03::run(scale)),
    ("fig04", "Fig 4", |scale, _| fig04::run(scale)),
    ("fig06", "Fig 6", fig06::run),
    ("fig07", "Fig 7", fig07::run),
    ("fig08", "Fig 8", fig08::run),
    ("fig09", "Fig 9", fig09::run),
    ("fig10", "Fig 10", fig10::run),
    ("fig12_14", "Fig 12-14", fig12_14::run),
    ("fig15", "Fig 15", fig15::run),
    ("fig16", "Fig 16", fig16::run),
    ("fig17", "Fig 17", fig17::run),
];

/// The harnesses as independent fabric cells (label = figure name, output =
/// the rendered section), for the crash-safe `figures_all` sweep: each
/// completed figure is journaled, a killed run resumes without regenerating
/// finished figures, and a panicking figure is quarantined instead of
/// sinking the whole report. The scale is part of each cell's config
/// fingerprint, so a journal written at one scale refuses to resume a sweep
/// at another. The cells are one plan: they share `sims`, so a simulation
/// two figures need runs once, whichever asks first. `only` restricts the
/// plan to a comma-separated list of module names (`fig06,fig12_14`), in
/// report order whatever order the list is in.
///
/// # Errors
///
/// On a name that is not a figure module; the message lists the names.
pub fn fig_cells_with(
    scale: Scale,
    only: Option<&str>,
    sims: &Arc<Sims>,
) -> Result<Vec<FabricCell<String>>, String> {
    let wanted: Option<Vec<&str>> = only.map(|list| list.split(',').collect());
    if let Some(bad) = wanted.iter().flatten().find(|w| !FIGS.iter().any(|(key, ..)| key == *w)) {
        let known: Vec<&str> = FIGS.iter().map(|&(key, ..)| key).collect();
        return Err(format!("--only: unknown figure {bad:?} (known: {})", known.join(", ")));
    }
    Ok(FIGS
        .iter()
        .filter(|(key, ..)| wanted.as_ref().is_none_or(|w| w.contains(key)))
        .map(|&(_, name, f)| {
            let sims = Arc::clone(sims);
            FabricCell::new(name, 0, move || f(scale, &sims))
                .config(Fingerprint::new().str("figs").str(scale.name()).str(name))
        })
        .collect())
}

/// A plan's own store, its simulations fanned out over
/// [`crate::runner::default_jobs`] workers.
fn own_sims() -> Arc<Sims> {
    Arc::new(Sims::new(crate::runner::default_jobs()))
}

/// Every figure as one plan ([`fig_cells_with`]) with a store of its own.
#[expect(
    clippy::expect_used,
    reason = "invariant: only a name in an --only list is rejected and there is no list"
)]
pub fn fig_cells(scale: Scale) -> Vec<FabricCell<String>> {
    fig_cells_with(scale, None, &own_sims()).expect("no selection to reject")
}

/// [`fig_cells`] restricted to a comma-separated list of module names.
///
/// # Errors
///
/// On a name that is not a figure module; the message lists the names.
pub fn fig_cells_only(scale: Scale, only: &str) -> Result<Vec<FabricCell<String>>, String> {
    fig_cells_with(scale, Some(only), &own_sims())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_selects_in_report_order_and_names_what_it_does_not_know() {
        let labels = |only: &str| -> Vec<String> {
            fig_cells_only(Scale::Smoke, only).expect(only).into_iter().map(|c| c.label).collect()
        };
        assert_eq!(labels("fig12_14,fig06"), ["Fig 6", "Fig 12-14"]);
        assert_eq!(labels("fig01"), ["Fig 1"]);
        // A selected cell is the same cell the full grid holds.
        let full = fig_cells(Scale::Smoke);
        let one = fig_cells_only(Scale::Smoke, "fig17").expect("fig17");
        assert_eq!(one[0].id(), full.last().expect("13 figures").id());
        for bad in ["fig05", "", "fig06,", "Fig 6"] {
            let err = fig_cells_only(Scale::Smoke, bad).map(|_| ()).unwrap_err();
            assert!(err.contains("fig12_14") && err.contains("unknown figure"), "{err}");
        }
    }

    #[test]
    fn the_datacenter_figures_read_one_grid() {
        use mptcp_energy::scenarios::CcChoice;
        let lia = CcChoice::Base(congestion::AlgorithmKind::Lia);
        for (scale, requested, run) in
            [(Scale::Smoke, 18, 10), (Scale::Quick, 21, 13), (Scale::Full, 24, 16)]
        {
            let (fig12_14, fig15) = (fig12_14::keys(scale), fig15::keys(scale));
            assert_eq!(fig16::keys(scale), fig15, "{scale:?}: Fig. 16 reads Fig. 15's runs");
            assert_eq!(fig15.iter().filter(|(_, cc, _)| *cc == lia).count(), 2, "{scale:?}");
            for key in fig15.iter().filter(|(_, cc, _)| *cc == lia) {
                assert!(fig12_14.contains(key), "{scale:?}: {key:?} is not a Figs. 12–14 run");
            }
            // Counted as `Sims` counts: list lengths summed, distinct keys.
            let plan = [fig12_14, fig15, fig16::keys(scale)].concat();
            let distinct = plan.iter().enumerate().filter(|(i, k)| !plan[..*i].contains(k)).count();
            assert_eq!((plan.len(), distinct), (requested, run), "{scale:?}");
        }
    }
}
