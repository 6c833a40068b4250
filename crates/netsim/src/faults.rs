//! Fault injection: link impairments and declarative fault timelines.
//!
//! Two layers:
//!
//! * **[`Impairment`]** — per-link packet-loss models ([`LossModel::Iid`]
//!   random loss, [`LossModel::GilbertElliott`] bursty loss), an up/down
//!   state, and the adversarial delivery impairments: [`ReorderModel`]
//!   extra-delay jitter (breaks FIFO delivery), duplication (a packet is
//!   delivered twice), and corruption (a packet is delivered poisoned and
//!   must be discarded by the endpoint). Loss is consulted by the
//!   [`World`](crate::sim::World) when a packet is offered to a link,
//!   *before* the DropTail queue sees it; reorder/duplicate/corrupt are
//!   rolled once per transmitted packet, after serialization. All draws come
//!   from the simulation's seeded RNG — so faulty runs stay exactly
//!   reproducible — and every inactive model draws nothing, leaving the
//!   random stream of fault-free scenarios untouched.
//!
//! * **[`FaultScript`]** — a declarative timeline of [`FaultAction`]s
//!   (loss / bandwidth / propagation changes, blackouts) that installs
//!   itself as an ordinary simulator agent and applies each action at its
//!   scheduled time. This replaces the ad-hoc pattern of pausing the run
//!   loop to poke `world_mut().link_mut(..)` between `run_until` calls.
//!
//! # Examples
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut sim = Simulator::new(7);
//! let l = sim.add_link(LinkConfig::new(10_000_000, SimDuration::from_millis(5)));
//!
//! FaultScript::new()
//!     .at(SimTime::from_secs_f64(1.0), FaultAction::SetLoss { link: l, model: LossModel::iid(0.02) })
//!     .at(SimTime::from_secs_f64(2.0), FaultAction::LinkDown { link: l })
//!     .at(SimTime::from_secs_f64(4.0), FaultAction::LinkUp { link: l })
//!     .install(&mut sim);
//!
//! sim.run_until(SimTime::from_secs_f64(5.0));
//! assert!(sim.world().link(l).is_up());
//! ```

use crate::packet::{LinkId, Packet};
use crate::sim::{Agent, Ctx};
use crate::time::{SimDuration, SimTime};
use obs::FaultKind;
use rand::rngs::SmallRng;
use rand::Rng;

/// Validates one probability argument, rejecting NaN with a dedicated
/// message (the range check alone would report NaN with the generic
/// out-of-range text, hiding the real bug at the call site).
fn check_prob(name: &str, p: f64) -> f64 {
    assert!(!p.is_nan(), "{name} must not be NaN");
    assert!((0.0..=1.0).contains(&p), "{name} out of range: {p}");
    p
}

/// Exact-zero sentinel test for probabilities and rates.
///
/// This is the **canonical allowlisted F001 pattern** (see `DESIGN.md` §11):
/// a literal `0.0` probability is a sentinel meaning "feature disabled", and
/// the distinction matters for determinism — an exactly-zero model is
/// collapsed to its inert variant and draws *nothing* from the seeded RNG,
/// while any nonzero probability consumes draws and shifts the random
/// stream of every later event. An epsilon compare here would make runs with
/// `p = 1e-300` silently draw-free. Route every float sentinel check through
/// this helper so the exact-compare allowlist stays a single entry.
#[allow(clippy::float_cmp)]
pub fn is_exactly_zero(p: f64) -> bool {
    debug_assert!(!p.is_nan(), "sentinel test on NaN");
    p == 0.0 // simlint: allow(F001, canonical exact-zero sentinel; zero must mean draw-free, so no epsilon applies)
}

/// A per-packet loss process applied where a packet is offered to a link.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum LossModel {
    /// No random loss (the default; draws nothing from the RNG).
    #[default]
    None,
    /// Independent, identically distributed loss with probability `p`.
    Iid {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott two-state bursty loss. The channel alternates between
    /// a *good* and a *bad* state with the given per-packet transition
    /// probabilities; each state has its own loss probability. Mean burst
    /// length in packets is `1 / p_bad_good`.
    GilbertElliott {
        /// Per-packet probability of moving good → bad.
        p_good_bad: f64,
        /// Per-packet probability of moving bad → good.
        p_bad_good: f64,
        /// Loss probability while in the good state (often 0).
        loss_good: f64,
        /// Loss probability while in the bad state (often near 1).
        loss_bad: f64,
    },
}

impl LossModel {
    /// I.i.d. loss with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    pub fn iid(p: f64) -> Self {
        check_prob("loss probability", p);
        if is_exactly_zero(p) {
            LossModel::None
        } else {
            LossModel::Iid { p }
        }
    }

    /// Gilbert–Elliott bursty loss.
    ///
    /// # Panics
    ///
    /// Panics if any probability is NaN or outside `[0, 1]`.
    pub fn gilbert_elliott(
        p_good_bad: f64,
        p_bad_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        for (name, p) in [
            ("p_good_bad", p_good_bad),
            ("p_bad_good", p_bad_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            check_prob(name, p);
        }
        LossModel::GilbertElliott { p_good_bad, p_bad_good, loss_good, loss_bad }
    }
}

/// A per-packet extra-delay process applied after a packet finishes
/// serialization, before its propagation across the link. Jittered packets
/// arrive behind packets transmitted later, breaking FIFO delivery.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum ReorderModel {
    /// No reordering (the default; draws nothing from the RNG).
    #[default]
    None,
    /// With probability `p`, add extra delay drawn uniformly from
    /// `[1 ns, max_extra]`.
    Uniform {
        /// Per-packet jitter probability in `[0, 1]`.
        p: f64,
        /// Upper bound on the extra delay.
        max_extra: SimDuration,
    },
}

impl ReorderModel {
    /// Uniform jitter: with probability `p`, delay a packet by up to
    /// `max_extra`. A zero probability or zero bound collapses to
    /// [`ReorderModel::None`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    pub fn uniform(p: f64, max_extra: SimDuration) -> Self {
        check_prob("reorder probability", p);
        if is_exactly_zero(p) || max_extra.is_zero() {
            ReorderModel::None
        } else {
            ReorderModel::Uniform { p, max_extra }
        }
    }
}

/// Runtime impairment state of one link: loss process, up/down, and the
/// post-transmission delivery impairments (reorder / duplicate / corrupt).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Impairment {
    loss: LossModel,
    /// Gilbert–Elliott channel state (`true` = bad). Carried here so the
    /// burst process survives loss-model reconfiguration of *other* fields.
    ge_bad: bool,
    down: bool,
    reorder: ReorderModel,
    duplicate_p: f64,
    corrupt_p: f64,
}

impl Impairment {
    /// Replaces the loss model. Switching to [`LossModel::GilbertElliott`]
    /// starts the channel in the good state.
    pub fn set_loss(&mut self, model: LossModel) {
        self.ge_bad = false;
        self.loss = model;
    }

    /// Replaces the reorder (extra-delay jitter) model.
    pub fn set_reorder(&mut self, model: ReorderModel) {
        self.reorder = model;
    }

    /// The per-packet duplication probability.
    pub fn duplicate_p(&self) -> f64 {
        self.duplicate_p
    }

    /// Sets the probability that a transmitted packet is delivered twice.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    pub fn set_duplicate(&mut self, p: f64) {
        self.duplicate_p = check_prob("duplicate probability", p);
    }

    /// The per-packet corruption probability.
    pub fn corrupt_p(&self) -> f64 {
        self.corrupt_p
    }

    /// Sets the probability that a transmitted packet is delivered poisoned.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    pub fn set_corrupt(&mut self, p: f64) {
        self.corrupt_p = check_prob("corrupt probability", p);
    }

    /// Whether the link is administratively up.
    pub fn is_up(&self) -> bool {
        !self.down
    }

    pub(crate) fn set_up(&mut self, up: bool) {
        self.down = !up;
    }

    /// Rolls the loss process for one offered packet; `true` means the packet
    /// is lost. Consumes RNG draws only when a loss model is active.
    pub(crate) fn roll_loss(&mut self, rng: &mut SmallRng) -> bool {
        match self.loss.clone() {
            LossModel::None => false,
            LossModel::Iid { p } => rng.gen_bool(p),
            LossModel::GilbertElliott { p_good_bad, p_bad_good, loss_good, loss_bad } => {
                if self.ge_bad {
                    if rng.gen_bool(p_bad_good) {
                        self.ge_bad = false;
                    }
                } else if rng.gen_bool(p_good_bad) {
                    self.ge_bad = true;
                }
                let p = if self.ge_bad { loss_bad } else { loss_good };
                p > 0.0 && rng.gen_bool(p)
            }
        }
    }

    /// Rolls the reorder process for one transmitted packet copy, returning
    /// the extra delay to add (if any). Draws RNG only when a model is
    /// active.
    pub(crate) fn roll_reorder(&mut self, rng: &mut SmallRng) -> Option<SimDuration> {
        match self.reorder {
            ReorderModel::None => None,
            ReorderModel::Uniform { p, max_extra } => {
                if rng.gen_bool(p) {
                    Some(SimDuration::from_nanos(rng.gen_range(1..=max_extra.as_nanos())))
                } else {
                    None
                }
            }
        }
    }

    /// Rolls the duplication process; `true` means deliver a second copy.
    /// Draws RNG only when duplication is active.
    pub(crate) fn roll_duplicate(&mut self, rng: &mut SmallRng) -> bool {
        self.duplicate_p > 0.0 && rng.gen_bool(self.duplicate_p)
    }

    /// Rolls the corruption process; `true` means poison the packet. Draws
    /// RNG only when corruption is active.
    pub(crate) fn roll_corrupt(&mut self, rng: &mut SmallRng) -> bool {
        self.corrupt_p > 0.0 && rng.gen_bool(self.corrupt_p)
    }
}

/// One scripted change to the network.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Installs `model` as the link's loss process.
    SetLoss {
        /// Target link.
        link: LinkId,
        /// Loss model to install.
        model: LossModel,
    },
    /// Changes the link rate (packets already in service keep their old
    /// serialization schedule).
    SetBandwidth {
        /// Target link.
        link: LinkId,
        /// New rate in bits per second.
        bps: u64,
    },
    /// Changes the one-way propagation delay.
    SetPropagation {
        /// Target link.
        link: LinkId,
        /// New propagation delay.
        propagation: SimDuration,
    },
    /// Takes the link down: its queue is drained (counted as
    /// `drops_blackout`) and every packet offered while down is dropped. A
    /// packet already in service completes transmission.
    LinkDown {
        /// Target link.
        link: LinkId,
    },
    /// Brings the link back up; subsequent offers enqueue normally.
    LinkUp {
        /// Target link.
        link: LinkId,
    },
    /// Installs `model` as the link's reorder (extra-delay jitter) process.
    SetReorder {
        /// Target link.
        link: LinkId,
        /// Reorder model to install.
        model: ReorderModel,
    },
    /// Sets the per-packet duplication probability.
    SetDuplicate {
        /// Target link.
        link: LinkId,
        /// Probability in `[0, 1]` that a transmitted packet is delivered
        /// twice.
        p: f64,
    },
    /// Sets the per-packet corruption probability.
    SetCorrupt {
        /// Target link.
        link: LinkId,
        /// Probability in `[0, 1]` that a transmitted packet arrives
        /// poisoned.
        p: f64,
    },
}

impl FaultAction {
    /// The link this action targets.
    pub fn link(&self) -> LinkId {
        match *self {
            FaultAction::SetLoss { link, .. }
            | FaultAction::SetBandwidth { link, .. }
            | FaultAction::SetPropagation { link, .. }
            | FaultAction::LinkDown { link }
            | FaultAction::LinkUp { link }
            | FaultAction::SetReorder { link, .. }
            | FaultAction::SetDuplicate { link, .. }
            | FaultAction::SetCorrupt { link, .. } => link,
        }
    }

    /// The action's kind: what its `Fault` trace event records, and (by
    /// [`FaultKind::name`]) its name in validation messages and artifacts.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultAction::SetLoss { .. } => FaultKind::SetLoss,
            FaultAction::SetBandwidth { .. } => FaultKind::SetBandwidth,
            FaultAction::SetPropagation { .. } => FaultKind::SetPropagation,
            FaultAction::LinkDown { .. } => FaultKind::LinkDown,
            FaultAction::LinkUp { .. } => FaultKind::LinkUp,
            FaultAction::SetReorder { .. } => FaultKind::SetReorder,
            FaultAction::SetDuplicate { .. } => FaultKind::SetDuplicate,
            FaultAction::SetCorrupt { .. } => FaultKind::SetCorrupt,
        }
    }

    /// True when applying both actions at the same instant on the same link
    /// is ambiguous or contradictory.
    fn conflicts_with(&self, other: &FaultAction) -> bool {
        if self.link() != other.link() {
            return false;
        }
        let updown = |a: &FaultAction| {
            matches!(a, FaultAction::LinkDown { .. } | FaultAction::LinkUp { .. })
        };
        // Two knob writes of the same kind race (last-writer-wins by
        // insertion order, which the script author almost never intends),
        // and down+up at one instant is a contradiction either way round.
        self.kind() == other.kind() || (updown(self) && updown(other))
    }
}

/// A timestamped [`FaultAction`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulated time at which the action applies.
    pub at: SimTime,
    /// The change to apply.
    pub action: FaultAction,
}

/// A declarative timeline of network faults, installed as a simulator agent.
///
/// Build with [`FaultScript::at`] (events may be added in any order; they are
/// applied in time order, ties in insertion order) and activate with
/// [`FaultScript::install`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `action` at absolute time `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Adds a whole blackout window: down at `from`, back up at `until`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn blackout(self, link: LinkId, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "blackout window is empty");
        self.at(from, FaultAction::LinkDown { link }).at(until, FaultAction::LinkUp { link })
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Registers the script with `sim` as an agent and schedules every event.
    /// Events timed at or before the current clock apply at the current time.
    /// Returns the agent id (useful only for diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if the script is invalid: an action targets a link `sim` does
    /// not have, or two actions at the same instant on the same link
    /// conflict (down+up, or two writes of the same knob whose outcome would
    /// silently depend on insertion order).
    pub fn install(mut self, sim: &mut crate::sim::Simulator) -> crate::packet::AgentId {
        self.events.sort_by_key(|e| e.at);
        let links = sim.world().link_count();
        for ev in &self.events {
            let link = ev.action.link();
            assert!(
                link < links,
                "fault script targets link {link} but the simulator has only {links} links"
            );
        }
        for (i, a) in self.events.iter().enumerate() {
            for b in &self.events[i + 1..] {
                if b.at != a.at {
                    break; // sorted: later events cannot tie with `a`
                }
                assert!(
                    !a.action.conflicts_with(&b.action),
                    "conflicting fault actions at {}: {} and {} on link {}",
                    a.at,
                    a.action.kind().name(),
                    b.action.kind().name(),
                    a.action.link()
                );
            }
        }
        let now = sim.now();
        let delays: Vec<SimDuration> =
            self.events.iter().map(|e| e.at.saturating_since(now)).collect();
        let id = sim.add_agent(Box::new(FaultScriptAgent { events: self.events }));
        let world = sim.world_mut();
        for (i, delay) in delays.into_iter().enumerate() {
            world.schedule_in(id, delay, i as u64);
        }
        id
    }
}

/// The agent a [`FaultScript`] turns into once installed.
struct FaultScriptAgent {
    events: Vec<FaultEvent>,
}

impl Agent for FaultScriptAgent {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        // Fault scripts are not packet endpoints; routed packets are ignored.
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let ev = &self.events[token as usize];
        ctx.apply_fault(&ev.action);
    }
}

#[cfg(test)]
// Tests read back configured probabilities verbatim (no arithmetic), so
// exact float comparison is the intended strictness.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_model_draws_nothing_and_never_loses() {
        let mut imp = Impairment::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let witness = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!imp.roll_loss(&mut rng));
        }
        assert_eq!(rng, witness, "LossModel::None must not perturb the RNG stream");
    }

    #[test]
    fn iid_loss_rate_tracks_probability() {
        let mut imp = Impairment::default();
        imp.set_loss(LossModel::iid(0.3));
        let mut rng = SmallRng::seed_from_u64(2);
        let losses = (0..20_000).filter(|_| imp.roll_loss(&mut rng)).count();
        let rate = losses as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "iid loss rate {rate}");
    }

    #[test]
    fn iid_zero_probability_is_none() {
        assert_eq!(LossModel::iid(0.0), LossModel::None);
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same marginal loss rate (~10%) as an i.i.d. model, but losses
        // should arrive in runs: compare the number of loss *clusters*.
        let mut ge = Impairment::default();
        ge.set_loss(LossModel::gilbert_elliott(0.0111, 0.1, 0.0, 1.0));
        let mut iid = Impairment::default();
        iid.set_loss(LossModel::iid(0.1));

        fn clusters(imp: &mut Impairment, seed: u64, n: usize) -> (usize, usize) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut losses, mut clusters, mut prev) = (0usize, 0usize, false);
            for _ in 0..n {
                let lost = imp.roll_loss(&mut rng);
                if lost {
                    losses += 1;
                    if !prev {
                        clusters += 1;
                    }
                }
                prev = lost;
            }
            (losses, clusters)
        }

        let (ge_losses, ge_clusters) = clusters(&mut ge, 3, 50_000);
        let (iid_losses, iid_clusters) = clusters(&mut iid, 3, 50_000);
        let ge_rate = ge_losses as f64 / 50_000.0;
        assert!((0.05..0.2).contains(&ge_rate), "GE marginal loss rate {ge_rate}");
        // Bursts: far fewer clusters than an i.i.d. process at similar rate.
        assert!(
            (ge_clusters as f64) < 0.5 * iid_clusters as f64,
            "GE clusters {ge_clusters} vs iid clusters {iid_clusters}"
        );
        assert!(iid_losses > 0);
    }

    #[test]
    fn set_loss_resets_burst_state() {
        let mut imp = Impairment::default();
        imp.set_loss(LossModel::gilbert_elliott(1.0, 0.0, 0.0, 1.0));
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(imp.roll_loss(&mut rng), "deterministic transition to bad must lose");
        imp.set_loss(LossModel::gilbert_elliott(0.0, 0.0, 0.0, 1.0));
        assert!(!imp.roll_loss(&mut rng), "reconfigure must restart in the good state");
    }

    #[test]
    #[should_panic]
    fn iid_rejects_out_of_range() {
        let _ = LossModel::iid(1.5);
    }

    #[test]
    #[should_panic(expected = "loss probability must not be NaN")]
    fn iid_rejects_nan_with_a_clear_message() {
        let _ = LossModel::iid(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "p_bad_good must not be NaN")]
    fn gilbert_elliott_rejects_nan_with_a_clear_message() {
        let _ = LossModel::gilbert_elliott(0.1, f64::NAN, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate probability must not be NaN")]
    fn duplicate_rejects_nan_with_a_clear_message() {
        Impairment::default().set_duplicate(f64::NAN);
    }

    #[test]
    fn inactive_delivery_impairments_draw_nothing() {
        let mut imp = Impairment::default();
        let mut rng = SmallRng::seed_from_u64(9);
        let witness = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(imp.roll_reorder(&mut rng).is_none());
            assert!(!imp.roll_duplicate(&mut rng));
            assert!(!imp.roll_corrupt(&mut rng));
        }
        assert_eq!(rng, witness, "inactive impairments must not perturb the RNG stream");
    }

    #[test]
    fn reorder_jitter_is_bounded_and_tracks_probability() {
        let mut imp = Impairment::default();
        let max = SimDuration::from_millis(20);
        imp.set_reorder(ReorderModel::uniform(0.25, max));
        let mut rng = SmallRng::seed_from_u64(10);
        let mut hits = 0usize;
        for _ in 0..20_000 {
            if let Some(d) = imp.roll_reorder(&mut rng) {
                hits += 1;
                assert!(!d.is_zero() && d <= max, "jitter {d:?} out of bounds");
            }
        }
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "reorder rate {rate}");
    }

    #[test]
    fn reorder_uniform_collapses_to_none_when_inert() {
        assert_eq!(ReorderModel::uniform(0.0, SimDuration::from_millis(5)), ReorderModel::None);
        assert_eq!(ReorderModel::uniform(0.5, SimDuration::ZERO), ReorderModel::None);
    }

    #[test]
    fn duplicate_and_corrupt_rates_track_probability() {
        let mut imp = Impairment::default();
        imp.set_duplicate(0.1);
        imp.set_corrupt(0.05);
        let mut rng = SmallRng::seed_from_u64(11);
        let dups = (0..20_000).filter(|_| imp.roll_duplicate(&mut rng)).count();
        let corrupt = (0..20_000).filter(|_| imp.roll_corrupt(&mut rng)).count();
        assert!((dups as f64 / 20_000.0 - 0.1).abs() < 0.02, "dup rate {dups}");
        assert!((corrupt as f64 / 20_000.0 - 0.05).abs() < 0.02, "corrupt rate {corrupt}");
    }

    #[test]
    fn script_events_sort_on_install() {
        let s = FaultScript::new()
            .at(SimTime::from_secs_f64(2.0), FaultAction::LinkUp { link: 0 })
            .at(SimTime::from_secs_f64(1.0), FaultAction::LinkDown { link: 0 });
        assert_eq!(s.events().len(), 2);
        // Ordering is exercised end-to-end in sim-level tests; here we only
        // check the builder keeps both events.
        let s2 = s.clone().blackout(1, SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(4.0));
        assert_eq!(s2.events().len(), 4);
    }

    #[test]
    #[should_panic]
    fn blackout_rejects_empty_window() {
        let _ = FaultScript::new().blackout(
            0,
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(2.0),
        );
    }

    #[test]
    #[should_panic(expected = "targets link 3")]
    fn install_rejects_unknown_links() {
        let mut sim = crate::sim::Simulator::new(1);
        let _ = sim.add_link(crate::link::LinkConfig::new(1_000_000, SimDuration::from_millis(1)));
        FaultScript::new()
            .at(SimTime::from_secs_f64(1.0), FaultAction::LinkDown { link: 3 })
            .install(&mut sim);
    }

    #[test]
    #[should_panic(expected = "conflicting fault actions")]
    fn install_rejects_down_and_up_at_the_same_instant() {
        let mut sim = crate::sim::Simulator::new(1);
        let l = sim.add_link(crate::link::LinkConfig::new(1_000_000, SimDuration::from_millis(1)));
        let t = SimTime::from_secs_f64(2.0);
        FaultScript::new()
            .at(t, FaultAction::LinkDown { link: l })
            .at(t, FaultAction::LinkUp { link: l })
            .install(&mut sim);
    }

    #[test]
    #[should_panic(expected = "conflicting fault actions")]
    fn install_rejects_duplicate_knob_writes_at_the_same_instant() {
        let mut sim = crate::sim::Simulator::new(1);
        let l = sim.add_link(crate::link::LinkConfig::new(1_000_000, SimDuration::from_millis(1)));
        let t = SimTime::from_secs_f64(2.0);
        FaultScript::new()
            .at(t, FaultAction::SetLoss { link: l, model: LossModel::iid(0.1) })
            .at(t, FaultAction::SetLoss { link: l, model: LossModel::None })
            .install(&mut sim);
    }

    #[test]
    fn install_accepts_same_instant_actions_on_distinct_links() {
        let mut sim = crate::sim::Simulator::new(1);
        let a = sim.add_link(crate::link::LinkConfig::new(1_000_000, SimDuration::from_millis(1)));
        let b = sim.add_link(crate::link::LinkConfig::new(1_000_000, SimDuration::from_millis(1)));
        let t = SimTime::from_secs_f64(1.0);
        FaultScript::new()
            .at(t, FaultAction::SetLoss { link: a, model: LossModel::iid(0.1) })
            .at(t, FaultAction::SetLoss { link: b, model: LossModel::iid(0.2) })
            .at(t, FaultAction::SetCorrupt { link: a, p: 0.01 })
            .install(&mut sim);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sim.world().link(a).impairment().corrupt_p(), 0.01);
    }
}
