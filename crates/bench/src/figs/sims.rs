//! The simulations of one figure plan, each run once.
//!
//! Fig. 16 is Fig. 15's experiment read for throughput, Fig. 15's LIA rows
//! are points of Figs. 12–14, Fig. 8's LIA is Fig. 7's and Fig. 9's seed-1
//! pair is Fig. 8's. A simulation is a pure function of its options
//! (DESIGN.md §8), so one [`Sims`] — created per `fig_cells` call, shared by
//! that plan's figure closures, dropped with them — hands a figure the
//! results for the keys it lists and simulates only the keys nobody has
//! asked for yet, across `jobs` workers. It is the only caller of the
//! scenario runners and of the sweep pool under `figs/`.
//!
//! Keys are the option structs themselves, compared with `==`: a plan holds
//! a dozen, so a linear scan needs no float hashing and has no collision
//! case. Each key owns a `OnceLock` slot: a second asker blocks on the
//! first's run instead of repeating it, and a run that panics leaves its
//! slot empty for the next asker (a fabric retry of the figure) to fill.

use crate::runner::{run_sweep_jobs, SweepCell};
use mptcp_energy::scenarios::{
    run_datacenter, run_ec2, run_shared_bottleneck, run_two_path_bursty, run_wireless,
    BurstyOptions, CcChoice, DcKind, DcOptions, Ec2Options, FleetResult, FlowResult, SharedOptions,
    WirelessOptions,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// One scenario family's slots, and how many keys it has been asked for.
struct Memo<K, V> {
    slots: Mutex<Vec<(K, Slot<V>)>>,
    requested: AtomicUsize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo { slots: Mutex::default(), requested: AtomicUsize::new(0) }
    }
}

impl<K: Copy + PartialEq + Sync, V: Send + Sync> Memo<K, V> {
    /// The slot list. Held for a scan only, never across a simulation, so a
    /// poisoned lock guards a list that is whole.
    fn slots(&self) -> MutexGuard<'_, Vec<(K, Slot<V>)>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The results for `keys`, in key order. Keys whose slot is empty go
    /// through the sweep pool as cells named by `id` (label, seed); a panic
    /// in one is re-raised under that name once the others have finished.
    fn get(
        &self,
        jobs: usize,
        keys: &[K],
        id: impl Fn(&K) -> (String, u64),
        run: impl Fn(&K) -> V + Sync,
    ) -> Vec<Arc<V>> {
        self.requested.fetch_add(keys.len(), Ordering::Relaxed);
        let slots: Vec<Slot<V>> = {
            let mut all = self.slots();
            keys.iter()
                .map(|key| match all.iter().find(|(have, _)| have == key) {
                    Some((_, slot)) => Arc::clone(slot),
                    None => {
                        all.push((*key, Slot::default()));
                        Arc::clone(&all[all.len() - 1].1)
                    }
                })
                .collect()
        };
        let mut cells = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            // A key the list names twice is one slot: one cell.
            if slot.get().is_none() && !slots[..i].iter().any(|s| Arc::ptr_eq(s, slot)) {
                let (label, seed) = id(&keys[i]);
                let (key, run) = (&keys[i], &run);
                cells.push(SweepCell::new(label, seed, move || {
                    slot.get_or_init(|| Arc::new(run(key)));
                }));
            }
        }
        run_sweep_jobs(cells, jobs);
        // simlint: allow(P001, invariant: the sweep returns only if every cell did and a cell returns only with its slot full)
        slots.iter().map(|s| Arc::clone(s.get().expect("the sweep fills or re-raises"))).collect()
    }

    /// `(keys requested, simulations run)`: list lengths summed, slots filled.
    fn counts(&self) -> (usize, usize) {
        let run = self.slots().iter().filter(|(_, slot)| slot.get().is_some()).count();
        (self.requested.load(Ordering::Relaxed), run)
    }
}

/// Fig. 1's key: `(subflows, simulated seconds)`.
pub type TestbedKey = (usize, f64);
/// A datacenter key: fabric, algorithm, options (Figs. 12–16).
pub type DcKey = (DcKind, CcChoice, DcOptions);

/// The plan-scoped store: one per `fig_cells` call, see the module docs.
#[derive(Default)]
pub struct Sims {
    jobs: usize,
    testbed: Memo<TestbedKey, (f64, f64)>,
    shared: Memo<(CcChoice, SharedOptions), Vec<f64>>,
    bursty: Memo<(CcChoice, BurstyOptions), FlowResult>,
    ec2: Memo<(CcChoice, Ec2Options), FleetResult>,
    datacenter: Memo<DcKey, FleetResult>,
    wireless: Memo<(CcChoice, WirelessOptions), FlowResult>,
}

impl Sims {
    /// An empty store whose simulations fan out over `jobs` workers; 1 runs
    /// them on the asking thread.
    pub fn new(jobs: usize) -> Sims {
        Sims { jobs, ..Sims::default() }
    }

    /// Fig. 1's testbed runs: `(mean power W, goodput b/s)`.
    pub fn testbed(&self, keys: &[TestbedKey]) -> Vec<Arc<(f64, f64)>> {
        let id = |&(n, _): &TestbedKey| (format!("testbed/{n}"), super::fig01::SEED);
        self.testbed.get(self.jobs, keys, id, |&(n, secs)| super::fig01::mean_power(n, secs))
    }

    /// Fig. 6's shared-bottleneck runs: per-user energies, joules.
    pub fn shared(&self, keys: &[(CcChoice, SharedOptions)]) -> Vec<Arc<Vec<f64>>> {
        let id =
            |(cc, o): &(CcChoice, SharedOptions)| (format!("{}/{}", o.n_users, cc.label()), o.seed);
        self.shared.get(self.jobs, keys, id, |(cc, o)| run_shared_bottleneck(cc, o))
    }

    /// The Fig. 5(b) two-path bursty runs of Figs. 7–9.
    pub fn bursty(&self, keys: &[(CcChoice, BurstyOptions)]) -> Vec<Arc<FlowResult>> {
        let id = |(cc, o): &(CcChoice, BurstyOptions)| (cc.label(), o.seed);
        self.bursty.get(self.jobs, keys, id, |(cc, o)| run_two_path_bursty(cc, o))
    }

    /// Fig. 10's EC2 runs.
    pub fn ec2(&self, keys: &[(CcChoice, Ec2Options)]) -> Vec<Arc<FleetResult>> {
        let id = |(cc, o): &(CcChoice, Ec2Options)| (cc.label(), o.seed);
        self.ec2.get(self.jobs, keys, id, |(cc, o)| run_ec2(cc, o))
    }

    /// The datacenter runs of Figs. 12–16.
    pub fn datacenter(&self, keys: &[DcKey]) -> Vec<Arc<FleetResult>> {
        let id = |(fabric, cc, o): &DcKey| (format!("{}/{}", fabric.name(), cc.label()), o.seed);
        self.datacenter.get(self.jobs, keys, id, |(fabric, cc, o)| run_datacenter(*fabric, cc, o))
    }

    /// Fig. 17's wireless runs.
    pub fn wireless(&self, keys: &[(CcChoice, WirelessOptions)]) -> Vec<Arc<FlowResult>> {
        let id =
            |(cc, o): &(CcChoice, WirelessOptions)| (format!("{}/{}", o.seed, cc.label()), o.seed);
        self.wireless.get(self.jobs, keys, id, |(cc, o)| run_wireless(cc, o))
    }

    /// `(family, (keys requested, simulations run))` so far, the two
    /// families that share cells across figures first. Plain counts — no
    /// wall-clock — so a test can pin them.
    pub fn counts(&self) -> [(&'static str, (usize, usize)); 6] {
        [
            ("datacenter", self.datacenter.counts()),
            ("bursty", self.bursty.counts()),
            ("testbed", self.testbed.counts()),
            ("shared", self.shared.counts()),
            ("ec2", self.ec2.counts()),
            ("wireless", self.wireless.counts()),
        ]
    }

    /// The counts as `figures_all`'s stderr line:
    /// `sims: datacenter 18 requested, 12 run; bursty 11/8; testbed 4/4; …`.
    pub fn render(&self) -> String {
        let [(first, (requested, run)), rest @ ..] = self.counts();
        let mut out = format!("sims: {first} {requested} requested, {run} run");
        for (name, (requested, run)) in rest {
            out.push_str(&format!("; {name} {requested}/{run}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::panic_message;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::time::Duration;

    fn id(k: &u64) -> (String, u64) {
        (format!("k{k}"), *k)
    }

    #[test]
    fn results_come_back_in_key_order_and_a_repeated_key_runs_once() {
        for jobs in [1, 4] {
            let memo = Memo::<u64, u64>::default();
            let calls = AtomicUsize::new(0);
            let square = |k: &u64| {
                calls.fetch_add(1, Ordering::Relaxed);
                // Early keys finish last: key order must not be completion order.
                std::thread::sleep(Duration::from_millis(2 * (8 - k)));
                k * k
            };
            let got = memo.get(jobs, &[5, 3, 5, 7, 3], id, square);
            assert_eq!(got.iter().map(|v| **v).collect::<Vec<_>>(), [25, 9, 25, 49, 9]);
            assert!(Arc::ptr_eq(&got[0], &got[2]), "one key, one result");
            // A later list mixing old and new keys runs only the new one.
            let got = memo.get(jobs, &[2, 7], id, square);
            assert_eq!((*got[0], *got[1]), (4, 49));
            assert_eq!(calls.load(Ordering::Relaxed), 4, "jobs={jobs}");
            assert_eq!(memo.counts(), (7, 4), "jobs={jobs}");
        }
    }

    #[test]
    fn a_second_asker_waits_for_the_run_in_flight() {
        let memo = Arc::new(Memo::<u64, u64>::default());
        let calls = Arc::new(AtomicUsize::new(0));
        // The first asker's run holds its slot between the two barriers.
        let (started, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let ask = |gates: Option<(Arc<Barrier>, Arc<Barrier>)>| {
            let (memo, calls) = (Arc::clone(&memo), Arc::clone(&calls));
            std::thread::spawn(move || {
                memo.get(1, &[6], id, |k| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if let Some((started, release)) = &gates {
                        started.wait();
                        release.wait();
                    }
                    k * k
                })
            })
        };
        let first = ask(Some((Arc::clone(&started), Arc::clone(&release))));
        started.wait();
        let second = ask(None);
        while memo.counts().0 < 2 {
            std::thread::yield_now(); // until the second asker is inside `get`
        }
        release.wait();
        let (first, second) = (first.join().expect("first"), second.join().expect("second"));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "the second asker recomputed");
        assert!(Arc::ptr_eq(&first[0], &second[0]));
        assert_eq!((*second[0], memo.counts()), (36, (2, 1)));
    }

    #[test]
    fn a_panicking_run_leaves_its_slot_empty_and_the_retry_runs_only_it() {
        for jobs in [1, 3] {
            let memo = Arc::new(Memo::<u64, u64>::default());
            let calls = Mutex::new(Vec::new());
            let flaky = |k: &u64| {
                let mut calls = calls.lock().unwrap_or_else(PoisonError::into_inner);
                calls.push(*k);
                assert!(*k != 2 || calls.iter().filter(|c| **c == 2).count() > 1, "boom");
                k * k
            };
            let payload = catch_unwind(AssertUnwindSafe(|| memo.get(jobs, &[1, 2, 3], id, flaky)))
                .expect_err("the panic is re-raised");
            let msg = panic_message(payload.as_ref());
            assert_eq!(msg, "sweep cell \"k2\" (seed 2) panicked: boom", "jobs={jobs}");
            assert_eq!(memo.counts(), (3, 2), "the other two finished");
            // A thread that died holding the slot list must not wedge the plan.
            let poisoner = Arc::clone(&memo);
            let _ = std::thread::spawn(move || {
                let _held = poisoner.slots.lock();
                panic!("poison the slot list");
            })
            .join();
            assert!(memo.slots.is_poisoned());
            let got = memo.get(jobs, &[1, 2, 3], id, flaky);
            assert_eq!(got.iter().map(|v| **v).collect::<Vec<_>>(), [1, 4, 9]);
            let mut calls = calls.lock().unwrap_or_else(PoisonError::into_inner).clone();
            calls.sort_unstable();
            assert_eq!(calls, [1, 2, 2, 3], "jobs={jobs}: the retry re-ran only what was missing");
            assert_eq!(memo.counts(), (6, 3));
        }
    }
}
