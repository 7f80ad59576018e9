//! The adversary engine: lying nodes and their containment accounting.
//!
//! The paper's adaptive diffusion is built for *unreliable* environments;
//! its distortion machinery
//! ([`Estimate::adopt_if_better`](diffuse_bayes::Estimate::adopt_if_better)'s
//! strict ranking, the heartbeat ack's fallback to whole, base-0 views) is
//! what is supposed to contain nodes that do worse than crash — nodes that **lie**. This
//! module makes such nodes constructible so the containment claims become
//! testable:
//!
//! * [`CorruptionMode`] names the lie families: understated distortion
//!   stamps, stale views re-stamped as fresh, and forged piggybacked
//!   acks.
//! * [`Adversary`] wraps any [`Protocol`] and, while a scripted
//!   corruption window is active, rewrites the wrapped protocol's
//!   outgoing heartbeats in place. An *inactive* adversary is
//!   bit-for-bit the inner protocol, so every node of a scenario can be
//!   wrapped and the fault script alone decides who lies — on all five
//!   executors alike (a UDP worker wraps whatever it runs).
//! * [`ProtocolAudit`] / [`SenderAudit`] are the receiver-side counters
//!   (entries offered vs. adopted per sender, future acks rejected) that
//!   [`Containment`] aggregates into scenario-level containment metrics.
//!
//! Corrupted offers are fabricated through [`Offer::forged`] — the
//! single constructor that can mint arbitrary distortion stamps — and the
//! workspace lint confines its callers to this module and tests. The
//! containment theorem this machinery checks is structural: honest stores
//! only ever ingest remote content through `adopt_if_better`/`adopt`,
//! which store it at `theirs.distortion + 1 ≥ 1`, so no lie can ever
//! occupy an honest store at distortion 0 — and first-hand (distortion-0)
//! honest knowledge can therefore never lose to a forgery under the
//! strict `<` ranking.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};
use std::str::FromStr;
use std::sync::Arc;

use diffuse_bayes::{Distortion, Offer};
use diffuse_model::ProcessId;
use diffuse_sim::SimTime;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::knowledge::View;
use crate::protocol::{Actions, BroadcastId, Event, HeartbeatMessage, Message, Payload, Protocol};
use crate::CoreError;

/// Golden-ratio odd multiplier (same family as the sharded executor's
/// seed spreading).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain-separation salt for lying-node streams: adversary draws must
/// ride their own seeded streams so adversary-free scenarios keep their
/// frozen kernel/fabric RNG streams bit-identical.
const LIAR_SALT: u64 = 0xAD5E_ECA7_5EED_0001;

/// SplitMix64 finalizer (Steele, Lea & Flood) — bijective mixer for seed
/// derivation only; the streams themselves are the workspace's frozen
/// `StdRng`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed for process `id`'s lying-node stream under run seed
/// `run_seed`.
///
/// Pure function of `(run_seed, id)` and domain-separated from both the
/// kernel's delivery stream and the message adversary's suppression
/// stream, so the same scripted liar draws the same corruption schedule
/// on every substrate.
fn adversary_seed(run_seed: u64, id: ProcessId) -> u64 {
    splitmix64(run_seed ^ LIAR_SALT ^ u64::from(id.index()).wrapping_mul(GOLDEN))
}

/// A lying-node corruption family (scripted via
/// `FaultAction::Corrupt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CorruptionMode {
    /// Re-stamp every outgoing link estimate at distortion 0 with a
    /// worsened posterior: the strongest possible claim ("first-hand
    /// knowledge, the link is bad") about links the liar has no business
    /// speaking for. Exercises `adopt_if_better`'s distortion bound.
    UnderstateDistortion,
    /// Cache the first view emitted inside the window and replay it on
    /// every later heartbeat with fresh sequence numbers — stale but
    /// fresh-stamped knowledge. Exercises idempotent re-application and
    /// the cumulative-delta base rules.
    StaleReplay,
    /// Inflate the piggybacked `ack` field — claim to have merged view
    /// generations the peer never emitted (or not yet). Exercises the
    /// receiver's future-ack rejection, which leaves its recorded ack at
    /// the first-contact value, so it keeps sending whole, base-0 views.
    ForgeAck,
}

impl CorruptionMode {
    /// Every mode, in a fixed order (test matrices iterate this).
    pub const ALL: [CorruptionMode; 3] = [
        CorruptionMode::UnderstateDistortion,
        CorruptionMode::StaleReplay,
        CorruptionMode::ForgeAck,
    ];
}

impl fmt::Display for CorruptionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CorruptionMode::UnderstateDistortion => "understate",
            CorruptionMode::StaleReplay => "stale",
            CorruptionMode::ForgeAck => "forge-ack",
        };
        f.write_str(s)
    }
}

impl FromStr for CorruptionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "understate" => Ok(CorruptionMode::UnderstateDistortion),
            "stale" => Ok(CorruptionMode::StaleReplay),
            "forge-ack" => Ok(CorruptionMode::ForgeAck),
            other => Err(format!(
                "unknown corruption mode `{other}` (expected understate|stale|forge-ack)"
            )),
        }
    }
}

/// Receiver-side counters about one heartbeat sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderAudit {
    /// Estimate entries (process + link) this sender's heartbeats
    /// offered us.
    pub offered: u64,
    /// Offered entries our store actually adopted (via
    /// `adopt_if_better`/`adopt`, including delta re-evaluations).
    pub adopted: u64,
    /// Adoptions that landed in our store at [`Distortion::ZERO`] —
    /// structurally impossible (adoption increments), so any nonzero
    /// count is a broken containment bound.
    pub bound_violations: u64,
}

impl SenderAudit {
    fn merge(&mut self, other: &SenderAudit) {
        self.offered += other.offered;
        self.adopted += other.adopted;
        self.bound_violations += other.bound_violations;
    }
}

/// One protocol instance's adversary-facing audit counters.
///
/// Every [`Protocol`] exposes these via [`Protocol::audit`]; the default
/// is all-zero, so protocols without audit bookkeeping (gossip, optimal)
/// participate in scenario reports for free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolAudit {
    /// Per-sender offer/adoption counters, keyed by the heartbeat
    /// sender.
    pub per_sender: BTreeMap<ProcessId, SenderAudit>,
    /// Heartbeats whose piggybacked ack named a view generation we have
    /// not emitted yet (rejected, ack state untouched).
    pub future_acks_rejected: u64,
    /// Heartbeats this node emitted while its corruption window was
    /// active (nonzero only on lying nodes).
    pub corrupt_emissions: u64,
}

impl ProtocolAudit {
    /// The audit row for one sender, creating it at zero on first use.
    pub fn sender(&mut self, from: ProcessId) -> &mut SenderAudit {
        self.per_sender.entry(from).or_default()
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &ProtocolAudit) {
        for (&from, audit) in &other.per_sender {
            self.per_sender.entry(from).or_default().merge(audit);
        }
        self.future_acks_rejected += other.future_acks_rejected;
        self.corrupt_emissions += other.corrupt_emissions;
    }
}

/// Scenario-level containment metrics: what the adversaries did, and how
/// far it got into honest stores.
///
/// Adversary-free scenarios report the all-zero value (the corrupt set
/// is empty and no suppression ran), so report-equality suites that
/// predate the adversary engine are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Containment {
    /// Heartbeats emitted by lying nodes inside their corruption
    /// windows.
    pub corrupt_emissions: u64,
    /// Estimate entries lying nodes offered to *correct* nodes.
    pub corrupt_offers: u64,
    /// Offered entries correct nodes adopted (at incremented
    /// distortion — the bounded, self-healing kind of damage).
    pub corrupt_adoptions: u64,
    /// Adoptions by correct nodes that landed at distortion 0. The
    /// containment theorem says this is always zero.
    pub bound_violations: u64,
    /// Emissions suppressed by the message adversary.
    pub suppressed_emissions: u64,
    /// Future-stamped acks correct nodes rejected.
    pub future_acks_rejected: u64,
}

impl Containment {
    /// Aggregates per-node audits into scenario containment metrics.
    ///
    /// `corrupt` is the set of scripted liars; offers/adoptions are
    /// counted only where a **correct** node's audit names a corrupt
    /// sender, and `corrupt_emissions` only from the liars' own
    /// counters, so honest gossip between honest nodes never shows up
    /// here.
    pub fn assemble(
        corrupt: &BTreeSet<ProcessId>,
        audits: &BTreeMap<ProcessId, ProtocolAudit>,
        suppressed_emissions: u64,
    ) -> Self {
        let mut c = Containment {
            suppressed_emissions,
            ..Containment::default()
        };
        for (node, audit) in audits {
            if corrupt.contains(node) {
                c.corrupt_emissions += audit.corrupt_emissions;
                continue;
            }
            c.future_acks_rejected += audit.future_acks_rejected;
            for (sender, sa) in &audit.per_sender {
                if corrupt.contains(sender) {
                    c.corrupt_offers += sa.offered;
                    c.corrupt_adoptions += sa.adopted;
                    c.bound_violations += sa.bound_violations;
                }
            }
        }
        c
    }

    /// `true` when nothing adversarial happened (the adversary-free
    /// report value).
    pub fn is_clean(&self) -> bool {
        *self == Containment::default()
    }
}

/// An active corruption window.
#[derive(Debug, Clone)]
struct ActiveWindow {
    mode: CorruptionMode,
    /// First tick at which the node is honest again.
    until: SimTime,
}

/// Wraps a [`Protocol`] with a scripted lying-node layer.
///
/// Outside a corruption window the wrapper is transparent: it delegates
/// every call and rewrites nothing, so a `Simulation<ProtocolActor<
/// Adversary<P>>>` with no `Corrupt` fault scripted is bit-identical to
/// one over plain `P`. [`Event::Corrupt`] (injected by the scenario
/// engine's fault scripts) opens a window during which every outgoing
/// [`Message::Heartbeat`] is rewritten per the scripted
/// [`CorruptionMode`], drawing from the node's private stream (a pure
/// function of the run seed and its id).
#[derive(Debug)]
pub struct Adversary<P> {
    inner: P,
    rng: StdRng,
    active: Option<ActiveWindow>,
    /// [`CorruptionMode::StaleReplay`]'s cached first-in-window view.
    stale: Option<Arc<View>>,
    corrupt_emissions: u64,
}

impl<P: Protocol> Adversary<P> {
    /// Wraps `inner`, seeding the corruption stream from the run seed
    /// and the node's identity.
    pub fn new(inner: P, run_seed: u64) -> Self {
        let seed = adversary_seed(run_seed, inner.id());
        Adversary {
            inner,
            rng: StdRng::seed_from_u64(seed),
            active: None,
            stale: None,
            corrupt_emissions: 0,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Heartbeats emitted inside corruption windows so far.
    pub fn corrupt_emissions(&self) -> u64 {
        self.corrupt_emissions
    }

    /// Whether a corruption window is open at `now`.
    pub fn is_lying(&self, now: SimTime) -> bool {
        self.active.as_ref().is_some_and(|w| now < w.until)
    }

    /// Rewrites in place, if a window is active, the heartbeats queued
    /// after the first `kept` sends — what the wrapped call appended —
    /// preserving send order. Earlier ones were rewritten when their own
    /// handler returned: a host may run several handlers into one
    /// [`Actions`] before it flushes ([`crate::SelfTimed::fire_due`]).
    fn rewrite(&mut self, now: SimTime, kept: usize, actions: &mut Actions) {
        let mode = match &self.active {
            Some(w) if now < w.until => w.mode,
            Some(_) => {
                // Window expired: drop the state so the node is honest
                // (and allocation-free) again.
                self.active = None;
                self.stale = None;
                return;
            }
            None => return,
        };
        if actions.sends().len() == kept {
            return;
        }
        for (i, (to, message)) in actions.take_sends().into_iter().enumerate() {
            let message = match message {
                Message::Heartbeat(hb) if i >= kept => {
                    self.corrupt_emissions += 1;
                    Message::Heartbeat(corrupt_heartbeat(mode, hb, &mut self.rng, &mut self.stale))
                }
                other => other,
            };
            actions.send(to, message);
        }
    }
}

impl<P: Protocol> Protocol for Adversary<P> {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
        let kept = actions.sends().len();
        self.inner.on_start(now, actions);
        self.rewrite(now, kept, actions);
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        if let Event::Corrupt { mode, window } = event {
            self.active = Some(ActiveWindow {
                mode,
                until: now + window,
            });
            self.stale = None;
            return;
        }
        let kept = actions.sends().len();
        self.inner.on_event(now, event, actions);
        self.rewrite(now, kept, actions);
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        let kept = actions.sends().len();
        let id = self.inner.broadcast(now, payload, actions)?;
        self.rewrite(now, kept, actions);
        Ok(id)
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        self.inner.delivered()
    }

    fn audit(&self) -> ProtocolAudit {
        let mut audit = self.inner.audit();
        audit.corrupt_emissions += self.corrupt_emissions;
        audit
    }
}

/// Rewrites one heartbeat per the scripted corruption mode.
///
/// Draw discipline (part of the cross-substrate determinism contract):
/// [`CorruptionMode::UnderstateDistortion`] and
/// [`CorruptionMode::ForgeAck`] consume exactly one `u64` draw per
/// heartbeat; [`CorruptionMode::StaleReplay`] consumes none.
fn corrupt_heartbeat(
    mode: CorruptionMode,
    mut hb: HeartbeatMessage,
    rng: &mut StdRng,
    stale: &mut Option<Arc<View>>,
) -> HeartbeatMessage {
    match mode {
        CorruptionMode::UnderstateDistortion => {
            // One worsening factor per heartbeat: every link estimate is
            // re-stamped first-hand ("I observed this") with a posterior
            // pushed toward unreliable.
            let k = 1 + (rng.next_u64() % 32) as u32;
            let mut poisoned = View::clone(&hb.view);
            poisoned.links = poison_links(&poisoned.links, k);
            hb.view = Arc::new(poisoned);
        }
        CorruptionMode::StaleReplay => match stale {
            Some(cached) => hb.view = cached.clone(),
            None => *stale = Some(hb.view.clone()),
        },
        CorruptionMode::ForgeAck => {
            // Claim to have merged a generation ahead of anything the
            // peer plausibly emitted. Small offsets land inside the
            // peer's emitted range (poisoning its ack bookkeeping until
            // an honest ack repairs it); larger ones trip the
            // future-ack rejection. Both containment paths get
            // exercised across a window.
            hb.ack = hb.ack.saturating_add(1 + rng.next_u64() % 64);
        }
    }
    hb
}

/// Re-stamps every link estimate as a distortion-0 forgery with the
/// posterior worsened by `k` silence periods (`k` more failures).
fn poison_links(
    links: &[(diffuse_model::LinkId, Offer)],
    k: u32,
) -> Vec<(diffuse_model::LinkId, Offer)> {
    links
        .iter()
        .map(|(id, offer)| {
            let failures = offer.failures().saturating_add(k);
            // lint:allow(adversary-forge): this *is* the adversary module.
            let forged = Offer::forged(failures, offer.successes(), Distortion::ZERO);
            (*id, forged)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_bayes::Estimate;
    use diffuse_model::LinkId;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample_heartbeat(view: Arc<View>) -> HeartbeatMessage {
        HeartbeatMessage {
            seq: 9,
            ack: 4,
            view,
        }
    }

    fn full_view() -> Arc<View> {
        Arc::new(View {
            generation: 3,
            base: 0,
            processes: vec![(p(0), Estimate::first_hand(10).offer())],
            links: vec![(
                LinkId::new(p(0), p(1)).unwrap(),
                Offer::new(0, 0, Distortion::finite(2)),
            )],
        })
    }

    #[test]
    fn corruption_mode_round_trips_through_strings() {
        for mode in CorruptionMode::ALL {
            assert_eq!(mode.to_string().parse::<CorruptionMode>(), Ok(mode));
        }
        assert!("nonsense".parse::<CorruptionMode>().is_err());
    }

    #[test]
    fn adversary_seed_is_domain_separated() {
        // Distinct per process, distinct per run seed, never the raw
        // run seed (which is the kernel delivery stream).
        assert_ne!(adversary_seed(7, p(0)), adversary_seed(7, p(1)));
        assert_ne!(adversary_seed(7, p(0)), adversary_seed(8, p(0)));
        assert_ne!(adversary_seed(7, p(0)), 7);
    }

    #[test]
    fn understate_forges_zero_distortion_links() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut stale = None;
        let hb = corrupt_heartbeat(
            CorruptionMode::UnderstateDistortion,
            sample_heartbeat(full_view()),
            &mut rng,
            &mut stale,
        );
        let view = hb.view;
        assert_eq!(view.base, 0, "mode must not change the view's base");
        for (_, est) in &view.links {
            assert_eq!(est.distortion(), Distortion::ZERO);
            assert!(est.tainted());
        }
        // Process entries are left alone.
        assert!(!view.processes[0].1.tainted());
        assert!(stale.is_none());
    }

    #[test]
    fn stale_replay_caches_then_replays() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut reference = StdRng::seed_from_u64(1);
        let mut stale = None;
        let first = corrupt_heartbeat(
            CorruptionMode::StaleReplay,
            sample_heartbeat(full_view()),
            &mut rng,
            &mut stale,
        );
        assert!(stale.is_some());

        let mut fresher = sample_heartbeat(full_view());
        fresher.seq = 10;
        let replayed =
            corrupt_heartbeat(CorruptionMode::StaleReplay, fresher, &mut rng, &mut stale);
        // Fresh stamp, stale body.
        assert_eq!(replayed.seq, 10);
        assert_eq!(replayed.view, first.view);
        // StaleReplay consumes no draws.
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn forge_ack_inflates_the_ack() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut stale = None;
        let hb = corrupt_heartbeat(
            CorruptionMode::ForgeAck,
            sample_heartbeat(full_view()),
            &mut rng,
            &mut stale,
        );
        assert!(hb.ack > 4 && hb.ack <= 4 + 64);
    }

    /// [`SelfTimed::fire_due`](crate::SelfTimed::fire_due) runs every due
    /// timer into one `Actions` before its host flushes; the engine's
    /// actor flushes after each. Either way a heartbeat is corrupted once:
    /// one emission counted, one draw taken, the same forged ack.
    #[test]
    fn one_fire_due_corrupts_each_heartbeat_once() {
        use crate::{AdaptiveBroadcast, AdaptiveParams, SelfTimed};
        let node = || {
            let adaptive = AdaptiveBroadcast::new(
                p(0),
                vec![p(0), p(1), p(2)],
                vec![p(1), p(2)],
                AdaptiveParams::default(),
            );
            Adversary::new(adaptive, 7)
        };
        let lie = Event::Corrupt {
            mode: CorruptionMode::ForgeAck,
            window: 100_000,
        };
        let forged_acks = |actions: &mut Actions| -> Vec<u64> {
            let heartbeat = |(_, message)| match message {
                Message::Heartbeat(hb) => Some(hb.ack),
                _ => None,
            };
            actions
                .take_sends()
                .into_iter()
                .filter_map(heartbeat)
                .collect()
        };

        // Flush per event, in the order `fire_due` fires: one pass,
        // ascending id.
        let mut flushed = node();
        let mut actions = Actions::new();
        flushed.on_start(SimTime::ZERO, &mut actions);
        let armed = actions.take_timer_ops();
        assert_eq!(armed.len(), 3, "heartbeat, suspicion, self-tick: {armed:?}");
        let all_due = armed.iter().filter_map(|&(_, at)| at).max().unwrap();
        flushed.on_event(SimTime::ZERO, lie.clone(), &mut actions);
        let mut expected = Vec::new();
        for timer in [
            AdaptiveBroadcast::HEARTBEAT,
            AdaptiveBroadcast::SUSPICION,
            AdaptiveBroadcast::SELF_TICK,
        ] {
            flushed.on_event(all_due, Event::Timer(timer), &mut actions);
            expected.extend(forged_acks(&mut actions));
        }

        // One `fire_due`, one flush, as the wall runtime does.
        let mut hosted = SelfTimed::new(node());
        hosted.on_event(SimTime::ZERO, lie, &mut actions);
        hosted.fire_due(all_due, &mut actions);
        let sent = forged_acks(&mut actions);
        assert_eq!(sent.len(), 2, "one heartbeat per neighbour");
        assert_eq!(hosted.protocol().corrupt_emissions(), 2);
        assert_eq!(sent, expected);
        assert!(sent.iter().all(|&ack| ack > 0), "both acks are forged");
    }

    #[test]
    fn containment_assembly_splits_corrupt_and_correct() {
        let corrupt: BTreeSet<ProcessId> = [p(1)].into_iter().collect();
        let mut audits: BTreeMap<ProcessId, ProtocolAudit> = BTreeMap::new();

        // Correct node 0 heard from liar 1 and honest 2.
        let mut a0 = ProtocolAudit::default();
        *a0.sender(p(1)) = SenderAudit {
            offered: 10,
            adopted: 3,
            bound_violations: 0,
        };
        *a0.sender(p(2)) = SenderAudit {
            offered: 50,
            adopted: 40,
            bound_violations: 0,
        };
        a0.future_acks_rejected = 2;
        audits.insert(p(0), a0);

        // The liar's own audit only contributes its emission count.
        let mut a1 = ProtocolAudit::default();
        *a1.sender(p(0)) = SenderAudit {
            offered: 99,
            adopted: 99,
            bound_violations: 99,
        };
        a1.corrupt_emissions = 7;
        a1.future_acks_rejected = 99;
        audits.insert(p(1), a1);

        let c = Containment::assemble(&corrupt, &audits, 5);
        assert_eq!(
            c,
            Containment {
                corrupt_emissions: 7,
                corrupt_offers: 10,
                corrupt_adoptions: 3,
                bound_violations: 0,
                suppressed_emissions: 5,
                future_acks_rejected: 2,
            }
        );
        assert!(!c.is_clean());
        assert!(Containment::default().is_clean());

        // Adversary-free: empty corrupt set, no suppression.
        let free = Containment::assemble(&BTreeSet::new(), &audits, 0);
        assert_eq!(free.corrupt_offers, 0);
        assert_eq!(free.corrupt_emissions, 0);
    }

    #[test]
    fn audit_merge_sums_fields() {
        let mut a = ProtocolAudit::default();
        *a.sender(p(1)) = SenderAudit {
            offered: 1,
            adopted: 1,
            bound_violations: 0,
        };
        a.future_acks_rejected = 1;
        let mut b = ProtocolAudit::default();
        *b.sender(p(1)) = SenderAudit {
            offered: 2,
            adopted: 0,
            bound_violations: 1,
        };
        b.corrupt_emissions = 3;
        a.merge(&b);
        assert_eq!(a.sender(p(1)).offered, 3);
        assert_eq!(a.sender(p(1)).adopted, 1);
        assert_eq!(a.sender(p(1)).bound_violations, 1);
        assert_eq!(a.future_acks_rejected, 1);
        assert_eq!(a.corrupt_emissions, 3);
    }
}
