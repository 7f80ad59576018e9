//! Transport-level chaos interposition: wraps any [`Transport`] with a
//! seeded, runtime-reconfigurable fault policy.
//!
//! The simulator injects faults by construction (it owns the network);
//! a real socket does not take orders. [`ChaosTransport`] closes that
//! gap: it sits between a node runtime and its real transport and
//! applies the paper's link model — per-link Bernoulli loss — plus the
//! faults only a real network exhibits:
//!
//! * **loss** — egress frames are dropped with a per-link probability
//!   (a partition is loss 1.0 on the cut links, exactly as
//!   [`FaultAction::Partition`](diffuse_core::FaultAction) computes it);
//! * **delay / reorder** — ingress frames are held back for a sampled
//!   duration before release, so two frames can swap order;
//! * **duplication** — egress frames are transmitted twice with a
//!   configured probability;
//! * **mute** — a wire-level crash window: everything in and out is
//!   dropped (the node-level cooperative crash in
//!   [`NodeHandle::inject_crash`](crate::NodeHandle::inject_crash)
//!   remains the scenario-faithful crash; mute is for soak-style
//!   blackouts);
//! * **corruption** — a lying-node window: egress heartbeats are
//!   decoded, rewritten through the shared corruption kernel
//!   ([`corrupt_heartbeat`]) and re-encoded, so a UDP worker lies on
//!   the wire exactly as an [`Adversary`](diffuse_core::Adversary)-
//!   wrapped protocol lies in process;
//! * **suppression** — the message adversary: up to *d* of this
//!   sender's emissions per window are destroyed before loss sampling,
//!   reusing the kernel's [`MessageAdversary`] policy with wall time
//!   mapped onto logical ticks.
//!
//! All randomness comes from one seeded [`StdRng`], so a chaos schedule
//! is reproducible given `(seed, traffic)`. The policy is shared behind
//! a [`ChaosControl`] handle and can be rewritten while the node runs —
//! that is how `FaultScript` actions land on a live UDP process.
//!
//! This module is wall-aware by design (hold-back deadlines are real
//! instants); it must never be used in a deterministic run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use diffuse_core::{corrupt_heartbeat, CorruptionMode, HeartbeatView, Message};
use diffuse_model::{LinkId, Probability, ProcessId};
use diffuse_sim::{LossBatcher, MessageAdversary, Metrics, SimTime};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::clock::monotonic_now;
use crate::codec::{decode_message, encode_message, frame_kind};
use crate::{NetError, Transport};

/// Caps a single receive budget so `Instant + Duration` arithmetic
/// cannot overflow on absurd inputs.
const MAX_RECV_BUDGET: Duration = Duration::from_secs(3600);

/// The chaos fault policy: what the wrapper does to traffic *right now*.
///
/// Reconfigured at runtime through [`ChaosControl`]; every field starts
/// benign (no loss, no delay, no duplication, not muted).
#[derive(Debug, Clone, Default)]
pub struct ChaosPolicy {
    /// Per-link egress loss probability; links without an entry use
    /// `default_loss`.
    link_loss: BTreeMap<LinkId, Probability>,
    /// Egress loss for links without an override.
    default_loss: Probability,
    /// Ingress hold-back sampled uniformly from this range; `None`
    /// releases frames immediately (and in arrival order).
    delay: Option<(Duration, Duration)>,
    /// Probability an egress frame is transmitted twice.
    duplicate: Probability,
    /// Wire-level blackout: drop everything in and out.
    mute: bool,
}

impl ChaosPolicy {
    fn loss_for(&self, link: LinkId) -> Probability {
        self.link_loss
            .get(&link)
            .copied()
            .unwrap_or(self.default_loss)
    }
}

/// Counters for the faults the chaos layer actually injected, alongside
/// the transient errors it absorbed. All monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Egress frames dropped by loss sampling.
    pub dropped: u64,
    /// Egress frames transmitted a second time.
    pub duplicated: u64,
    /// Ingress frames held back by a nonzero sampled delay.
    pub delayed: u64,
    /// Egress frames whose inner send failed transiently (counted as
    /// loss, per [`NetError::is_transient`]).
    pub transient_send_loss: u64,
    /// Transient inner receive errors absorbed as "no frame".
    pub transient_recv: u64,
    /// Frames dropped (either direction) inside a mute window.
    pub muted: u64,
    /// Egress heartbeats rewritten inside a lying-node window.
    pub corrupted: u64,
    /// Egress frames destroyed by the message adversary (counted as
    /// sent, like the kernel's suppression hook).
    pub suppressed: u64,
}

/// Shared state between a [`ChaosTransport`] and its [`ChaosControl`]s.
#[derive(Debug)]
struct ChaosShared {
    state: Mutex<ChaosState>,
}

#[derive(Debug)]
struct ChaosState {
    policy: ChaosPolicy,
    rng: StdRng,
    /// Batched per-(sender, destination) geometric loss runs, consuming
    /// draws from `rng` per [`LossBatcher`]'s documented total order.
    loss_runs: LossBatcher,
    counters: ChaosCounters,
    /// Wire-level sent accounting at (link, kind) granularity — finer
    /// than [`Metrics`] stores, so per-process counters survive a
    /// round-trip over the cluster control channel exactly.
    sent_cells: BTreeMap<(LinkId, &'static str), u64>,
    delivered_cells: BTreeMap<&'static str, u64>,
    lost: u64,
    /// Active lying-node window: the scripted mode and its wall-clock
    /// deadline.
    corrupt: Option<(CorruptionMode, Instant)>,
    /// The liar's private corruption stream (seeded per node via
    /// [`adversary_seed`](diffuse_core::adversary_seed) by the caller).
    liar_rng: StdRng,
    /// `StaleReplay`'s cached first-in-window view.
    stale: Option<HeartbeatView>,
    /// The message adversary's suppression policy; windows measured in
    /// ticks of `adversary_tick` since `adversary_epoch`.
    adversary: MessageAdversary,
    adversary_epoch: Instant,
    adversary_tick: Duration,
}

impl ChaosState {
    /// Applies an active lying-node window to one egress frame:
    /// heartbeats are decoded, corrupted through the shared kernel, and
    /// re-encoded; other frame kinds — and frames that fail to decode —
    /// pass through untouched.
    fn rewrite_egress(&mut self, kind: &str, frame: &[u8]) -> Option<Bytes> {
        let (mode, until) = self.corrupt?;
        if monotonic_now() >= until {
            // Window expired: honest (and allocation-free) again.
            self.corrupt = None;
            self.stale = None;
            return None;
        }
        if kind != "heartbeat" {
            return None;
        }
        let Ok(Message::Heartbeat(hb)) = decode_message(frame) else {
            return None;
        };
        let hb = corrupt_heartbeat(mode, hb, &mut self.liar_rng, &mut self.stale);
        self.counters.corrupted += 1;
        Some(encode_message(&Message::Heartbeat(hb)))
    }

    /// The current logical tick of the suppression clock.
    fn adversary_now(&self) -> SimTime {
        let elapsed = monotonic_now().saturating_duration_since(self.adversary_epoch);
        let tick = self.adversary_tick.as_micros().max(1);
        SimTime::new(u64::try_from(elapsed.as_micros() / tick).unwrap_or(u64::MAX))
    }
}

/// A handle that reconfigures a running [`ChaosTransport`]'s policy and
/// reads its counters. Cloneable and sendable across threads.
#[derive(Debug, Clone)]
pub struct ChaosControl {
    shared: Arc<ChaosShared>,
}

impl ChaosControl {
    /// Sets one link's egress loss probability (overrides the default).
    pub fn set_link_loss(&self, link: LinkId, p: Probability) {
        self.shared.state.lock().policy.link_loss.insert(link, p);
    }

    /// Sets the egress loss probability for links without an override.
    pub fn set_default_loss(&self, p: Probability) {
        self.shared.state.lock().policy.default_loss = p;
    }

    /// Sets (or clears) the ingress hold-back range. Frames are delayed
    /// by a uniform sample from `[min, max]`; overlapping hold-backs
    /// reorder. `None` restores immediate, ordered release.
    pub fn set_delay(&self, range: Option<(Duration, Duration)>) {
        let range = range.map(|(a, b)| (a.min(b), a.max(b)));
        self.shared.state.lock().policy.delay = range;
    }

    /// Sets the probability that an egress frame is sent twice.
    pub fn set_duplicate(&self, p: Probability) {
        self.shared.state.lock().policy.duplicate = p;
    }

    /// Enters or leaves a wire-level blackout window.
    pub fn set_mute(&self, mute: bool) {
        self.shared.state.lock().policy.mute = mute;
    }

    /// Opens a lying-node window: for the next `window` of wall time,
    /// egress heartbeats are rewritten per `mode`, drawing from a fresh
    /// corruption stream seeded with `seed` (callers derive it via
    /// [`adversary_seed`](diffuse_core::adversary_seed) so the same
    /// scripted liar draws the same schedule on every substrate).
    pub fn set_corrupt(&self, mode: CorruptionMode, window: Duration, seed: u64) {
        let mut state = self.shared.state.lock();
        state.liar_rng = StdRng::seed_from_u64(seed);
        state.stale = None;
        state.corrupt = Some((mode, monotonic_now() + window));
    }

    /// (Re)configures the message adversary: suppress up to `d` of this
    /// sender's emissions per `window_ticks` logical ticks of `tick`
    /// wall time each, starting now. `d == 0` deactivates.
    pub fn set_message_adversary(&self, d: u32, window_ticks: u64, tick: Duration) {
        let mut state = self.shared.state.lock();
        state.adversary_epoch = monotonic_now();
        state.adversary_tick = tick.max(Duration::from_micros(1));
        state.adversary.configure(d, window_ticks, SimTime::ZERO);
    }

    /// Egress frames destroyed by the message adversary so far.
    pub fn suppressed(&self) -> u64 {
        self.shared.state.lock().adversary.suppressed()
    }

    /// Egress heartbeats rewritten by lying-node windows so far.
    pub fn corrupted(&self) -> u64 {
        self.shared.state.lock().counters.corrupted
    }

    /// A snapshot of the injected-fault counters.
    pub fn counters(&self) -> ChaosCounters {
        self.shared.state.lock().counters
    }

    /// A best-effort [`Metrics`] snapshot of the wire traffic this
    /// endpoint produced and accepted: `sent` counts egress
    /// transmissions (duplicates included), `lost` counts chaos drops
    /// plus transient send losses, and `delivered` counts frames
    /// released to the node (before decoding).
    pub fn metrics(&self) -> Metrics {
        let state = self.shared.state.lock();
        let mut m = Metrics::new();
        for (&(link, kind), &n) in &state.sent_cells {
            m.record_sent_batch(link, kind, n);
        }
        for (&kind, &n) in &state.delivered_cells {
            m.record_delivered_batch(kind, n);
        }
        m.record_lost_batch(state.lost);
        m
    }

    /// The raw per-`(link, kind)` egress cells behind
    /// [`ChaosControl::metrics`] — the exact form the cluster worker
    /// serializes over its control channel.
    pub fn sent_cells(&self) -> Vec<(LinkId, &'static str, u64)> {
        let state = self.shared.state.lock();
        state
            .sent_cells
            .iter()
            .map(|(&(link, kind), &n)| (link, kind, n))
            .collect()
    }

    /// Ingress frames released to the node, per frame kind.
    pub fn delivered_cells(&self) -> Vec<(&'static str, u64)> {
        let state = self.shared.state.lock();
        state
            .delivered_cells
            .iter()
            .map(|(&k, &n)| (k, n))
            .collect()
    }

    /// Frames destroyed on egress (chaos loss + transient send loss).
    pub fn lost(&self) -> u64 {
        self.shared.state.lock().lost
    }
}

/// A [`Transport`] decorator injecting seeded wire-level faults; see
/// the `chaos` module docs for the fault menu and semantics.
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    shared: Arc<ChaosShared>,
    /// Delayed ingress frames keyed by `(release instant, arrival seq)`
    /// — the map order is the release order, and the sequence number
    /// keeps equal-release frames in arrival order.
    holdback: BTreeMap<(Instant, u64), (ProcessId, Vec<u8>)>,
    holdback_seq: u64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`, returning the transport and its control handle.
    /// All fault sampling draws from a [`StdRng`] seeded with `seed`.
    pub fn new(inner: T, seed: u64) -> (Self, ChaosControl) {
        let shared = Arc::new(ChaosShared {
            state: Mutex::new(ChaosState {
                policy: ChaosPolicy::default(),
                rng: StdRng::seed_from_u64(seed),
                loss_runs: LossBatcher::new(),
                counters: ChaosCounters::default(),
                sent_cells: BTreeMap::new(),
                delivered_cells: BTreeMap::new(),
                lost: 0,
                corrupt: None,
                liar_rng: StdRng::seed_from_u64(seed),
                stale: None,
                adversary: MessageAdversary::inactive(seed),
                adversary_epoch: monotonic_now(),
                adversary_tick: Duration::from_millis(1),
            }),
        });
        let control = ChaosControl {
            shared: Arc::clone(&shared),
        };
        (
            ChaosTransport {
                inner,
                shared,
                holdback: BTreeMap::new(),
                holdback_seq: 0,
            },
            control,
        )
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped transport (e.g. to register peers
    /// on an inner [`UdpTransport`](crate::UdpTransport)).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Moves an arrived frame into the hold-back queue with its sampled
    /// release instant.
    fn enqueue_arrival(&mut self, now: Instant, from: ProcessId, frame: Vec<u8>) {
        let delay = {
            let mut state = self.shared.state.lock();
            if state.policy.mute {
                state.counters.muted += 1;
                return;
            }
            match state.policy.delay {
                None => Duration::ZERO,
                Some((min, max)) => {
                    let lo = u64::try_from(min.as_micros()).unwrap_or(u64::MAX);
                    let hi = u64::try_from(max.as_micros()).unwrap_or(u64::MAX);
                    let sampled = Duration::from_micros(state.rng.gen_range(lo..=hi));
                    if !sampled.is_zero() {
                        state.counters.delayed += 1;
                    }
                    sampled
                }
            }
        };
        let key = (now + delay, self.holdback_seq);
        self.holdback_seq += 1;
        self.holdback.insert(key, (from, frame));
    }

    /// Pops the earliest held frame if its release instant has passed,
    /// recording it as delivered.
    fn release_due(&mut self, now: Instant) -> Option<(ProcessId, Vec<u8>)> {
        let (&key, _) = self.holdback.first_key_value()?;
        if key.0 > now {
            return None;
        }
        let (from, frame) = self.holdback.remove(&key).expect("first key exists");
        let kind = frame_kind(&frame);
        let mut state = self.shared.state.lock();
        *state.delivered_cells.entry(kind).or_insert(0) += 1;
        drop(state);
        Some((from, frame))
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn send(&self, to: ProcessId, frame: &[u8]) -> Result<(), NetError> {
        let kind = frame_kind(frame);
        let from = self.local_id();
        let link = LinkId::new(from, to).ok();
        // One state lock per send: sample every decision at once.
        let (copies, rewritten) = {
            let mut state = self.shared.state.lock();
            if state.policy.mute {
                state.counters.muted += 1;
                return Ok(());
            }
            let Some(link) = link else {
                // Self-sends and other un-linkable destinations are not
                // chaos material; let the inner transport judge them.
                drop(state);
                return self.inner.send(to, frame);
            };
            // Lying-node window first: the corruption stream advances
            // once per emitted heartbeat, exactly like the in-process
            // Adversary wrapper (which rewrites before any drop
            // decision is made).
            let rewritten = state.rewrite_egress(kind, frame);
            // Message adversary next: a suppressed emission counts as
            // sent (the node did emit it) but consumes no loss draws,
            // matching the kernel's suppression ordering.
            if state.adversary.is_active() {
                let tick = state.adversary_now();
                if state.adversary.should_suppress(from, tick) {
                    state.counters.suppressed += 1;
                    *state.sent_cells.entry((link, kind)).or_insert(0) += 1;
                    return Ok(());
                }
            }
            let loss = state.policy.loss_for(link);
            let lost = !loss.is_zero() && {
                let state = &mut *state;
                state
                    .loss_runs
                    .should_drop(from, to, loss.value(), &mut state.rng)
            };
            if lost {
                state.counters.dropped += 1;
                state.lost += 1;
                *state.sent_cells.entry((link, kind)).or_insert(0) += 1;
                return Ok(());
            }
            let dup = state.policy.duplicate;
            // lint:allow(batched-loss-draw): duplication is chaos injection, not delivery sampling; it has no frozen-stream twin to replay.
            let copies = if !dup.is_zero() && state.rng.gen_bool(dup.value()) {
                state.counters.duplicated += 1;
                2u64
            } else {
                1u64
            };
            *state.sent_cells.entry((link, kind)).or_insert(0) += copies;
            (copies, rewritten)
        };
        let frame: &[u8] = rewritten.as_deref().unwrap_or(frame);
        for _ in 0..copies {
            match self.inner.send(to, frame) {
                Ok(()) => {}
                Err(e) if e.is_transient() => {
                    // The wire ate it: that is loss, not failure.
                    let mut state = self.shared.state.lock();
                    state.counters.transient_send_loss += 1;
                    state.lost += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(ProcessId, Vec<u8>)>, NetError> {
        let deadline = monotonic_now() + timeout.min(MAX_RECV_BUDGET);
        loop {
            let now = monotonic_now();
            if let Some(released) = self.release_due(now) {
                return Ok(Some(released));
            }
            if now >= deadline {
                return Ok(None);
            }
            // Wait for the earlier of the caller's budget and the next
            // hold-back release.
            let mut budget = deadline.saturating_duration_since(now);
            if let Some((&(release, _), _)) = self.holdback.first_key_value() {
                budget = budget.min(release.saturating_duration_since(now));
            }
            match self.inner.recv_timeout(budget) {
                Ok(Some((from, frame))) => {
                    // Frames route through the hold-back queue even at
                    // zero delay, so a late frame can never overtake an
                    // earlier one already queued for release.
                    self.enqueue_arrival(monotonic_now(), from, frame);
                }
                Ok(None) => {}
                Err(e) if e.is_transient() => {
                    self.shared.state.lock().counters.transient_recv += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use diffuse_model::{Configuration, Topology};

    use super::*;
    use crate::Fabric;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn link(a: u32, b: u32) -> LinkId {
        LinkId::new(p(a), p(b)).unwrap()
    }

    /// A zero-loss fabric pair wrapped in chaos on the sending side.
    fn chaotic_pair(
        seed: u64,
    ) -> (
        ChaosTransport<crate::FabricTransport>,
        ChaosControl,
        crate::FabricTransport,
    ) {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let mut map = Fabric::build(&topology, Configuration::new(), 1);
        let b = map.remove(&p(1)).unwrap();
        let a = map.remove(&p(0)).unwrap();
        let (chaos, control) = ChaosTransport::new(a, seed);
        (chaos, control, b)
    }

    #[test]
    fn benign_policy_passes_frames_through() {
        let (a, control, mut b) = chaotic_pair(7);
        a.send(p(1), b"through").unwrap();
        let (from, frame) = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!((from, frame.as_slice()), (p(0), &b"through"[..]));
        assert_eq!(control.counters(), ChaosCounters::default());
        let m = control.metrics();
        assert_eq!(m.sent_total(), 1);
        assert_eq!(m.lost_in_link(), 0);
    }

    #[test]
    fn total_loss_drops_every_frame() {
        let (a, control, mut b) = chaotic_pair(7);
        control.set_link_loss(link(0, 1), Probability::ONE);
        for _ in 0..10 {
            a.send(p(1), b"gone").unwrap();
        }
        assert!(b.recv_timeout(Duration::from_millis(30)).unwrap().is_none());
        assert_eq!(control.counters().dropped, 10);
        assert_eq!(control.lost(), 10);
        assert_eq!(control.metrics().sent_total(), 10);

        // Heal: traffic flows again.
        control.set_link_loss(link(0, 1), Probability::ZERO);
        a.send(p(1), b"back").unwrap();
        let (_, frame) = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(frame, b"back");
    }

    #[test]
    fn default_loss_applies_without_override() {
        let (a, control, mut b) = chaotic_pair(3);
        control.set_default_loss(Probability::ONE);
        a.send(p(1), b"x").unwrap();
        assert!(b.recv_timeout(Duration::from_millis(30)).unwrap().is_none());
        // An explicit per-link zero overrides the default.
        control.set_link_loss(link(0, 1), Probability::ZERO);
        a.send(p(1), b"y").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(2)).unwrap().is_some());
    }

    #[test]
    fn duplication_doubles_frames() {
        let (a, control, mut b) = chaotic_pair(9);
        control.set_duplicate(Probability::ONE);
        a.send(p(1), b"twin").unwrap();
        let first = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        let second = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(first.1, b"twin");
        assert_eq!(second.1, b"twin");
        assert_eq!(control.counters().duplicated, 1);
        // Both wire copies count as sent.
        assert_eq!(control.metrics().sent_total(), 2);
    }

    #[test]
    fn delay_holds_frames_back_but_releases_them() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let mut map = Fabric::build(&topology, Configuration::new(), 1);
        let b = map.remove(&p(1)).unwrap();
        let a = map.remove(&p(0)).unwrap();
        // Chaos on the *receiving* side: ingress delay.
        let (mut chaos_b, control) = ChaosTransport::new(b, 11);
        let window = Duration::from_millis(40);
        control.set_delay(Some((window, window)));

        a.send(p(1), b"held").unwrap();
        // Well under the delay window: nothing released yet.
        assert!(chaos_b
            .recv_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        // Generous budget: the frame must come out the other side.
        let (_, frame) = chaos_b
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("delayed frame is released, not lost");
        assert_eq!(frame, b"held");
        assert_eq!(control.counters().delayed, 1);
        assert_eq!(control.metrics().delivered_total(), 1);
    }

    #[test]
    fn randomized_delay_can_reorder_frames() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let mut map = Fabric::build(&topology, Configuration::new(), 1);
        let b = map.remove(&p(1)).unwrap();
        let a = map.remove(&p(0)).unwrap();
        let (mut chaos_b, control) = ChaosTransport::new(b, 4242);
        control.set_delay(Some((Duration::ZERO, Duration::from_millis(30))));

        let n = 24u8;
        for i in 0..n {
            a.send(p(1), &[i]).unwrap();
        }
        let mut order = Vec::new();
        while order.len() < n as usize {
            if let Some((_, frame)) = chaos_b.recv_timeout(Duration::from_secs(5)).unwrap() {
                order.push(frame[0]);
            } else {
                panic!("frame lost under pure delay: got {order:?}");
            }
        }
        // Delivery is complete (delay never loses frames) …
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // … and with 24 frames spread over a 30 ms jitter window the
        // odds of preserving exact arrival order are negligible.
        assert_ne!(order, (0..n).collect::<Vec<_>>(), "expected reordering");
    }

    #[test]
    fn mute_blacks_out_both_directions() {
        let (a, control, mut b) = chaotic_pair(5);
        control.set_mute(true);
        a.send(p(1), b"out").unwrap();
        assert!(b.recv_timeout(Duration::from_millis(20)).unwrap().is_none());
        assert!(control.counters().muted >= 1);
        control.set_mute(false);
        a.send(p(1), b"audible").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(2)).unwrap().is_some());
    }

    /// An inner transport whose sends always fail transiently and whose
    /// receives report a transient kick once, then time out.
    #[derive(Debug)]
    struct FlakyTransport {
        kicked: bool,
    }
    impl Transport for FlakyTransport {
        fn local_id(&self) -> ProcessId {
            p(0)
        }
        fn send(&self, _to: ProcessId, _frame: &[u8]) -> Result<(), NetError> {
            Err(NetError::Io(std::io::Error::from(
                std::io::ErrorKind::ConnectionRefused,
            )))
        }
        fn recv_timeout(
            &mut self,
            _timeout: Duration,
        ) -> Result<Option<(ProcessId, Vec<u8>)>, NetError> {
            if !self.kicked {
                self.kicked = true;
                return Err(NetError::Io(std::io::Error::from(
                    std::io::ErrorKind::Interrupted,
                )));
            }
            Ok(None)
        }
    }

    #[test]
    fn transient_inner_errors_become_loss() {
        let (mut chaos, control) = ChaosTransport::new(FlakyTransport { kicked: false }, 1);
        // Transient send failure: absorbed, counted as loss.
        chaos.send(p(1), b"x").unwrap();
        assert_eq!(control.counters().transient_send_loss, 1);
        assert_eq!(control.lost(), 1);
        // Transient receive kick: absorbed, budget still honored.
        assert!(chaos
            .recv_timeout(Duration::from_millis(10))
            .unwrap()
            .is_none());
        assert_eq!(control.counters().transient_recv, 1);
    }

    fn heartbeat_frame() -> Bytes {
        let mut topo = diffuse_model::Topology::new();
        topo.add_link(p(0), p(1)).unwrap();
        let view = diffuse_core::View {
            generation: 1,
            topology_version: 1,
            topology: Arc::new(topo),
            processes: vec![(p(0), Arc::new(diffuse_bayes::Estimate::first_hand(5)))],
            links: vec![(
                link(0, 1),
                Arc::new(diffuse_bayes::Estimate::from_parts(
                    diffuse_bayes::BeliefEstimator::new(5),
                    diffuse_bayes::Distortion::finite(2),
                )),
            )],
        };
        encode_message(&Message::Heartbeat(diffuse_core::HeartbeatMessage {
            seq: 1,
            ack: 0,
            view: HeartbeatView::Full(Arc::new(view)),
        }))
    }

    #[test]
    fn corrupt_window_rewrites_heartbeats_on_the_wire() {
        let (a, control, mut b) = chaotic_pair(21);
        control.set_corrupt(
            CorruptionMode::UnderstateDistortion,
            Duration::from_secs(60),
            diffuse_core::adversary_seed(21, p(0)),
        );
        a.send(p(1), &heartbeat_frame()).unwrap();
        let (_, frame) = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        let Ok(Message::Heartbeat(hb)) = decode_message(&frame) else {
            panic!("rewritten frame must stay a decodable heartbeat");
        };
        let HeartbeatView::Full(view) = hb.view else {
            panic!("corruption must not change the view flavor");
        };
        // The taint marker is in-memory only (the wire format is
        // frozen), so assert the observable forgery: first-hand
        // stamping plus a posterior pushed toward failure (`mean()` is
        // the posterior mean of the *failure* probability).
        let honest = diffuse_bayes::BeliefEstimator::new(5);
        for (_, est) in &view.links {
            assert_eq!(est.distortion(), diffuse_bayes::Distortion::ZERO);
            assert!(est.beliefs().mean() > honest.mean());
        }
        assert_eq!(control.corrupted(), 1);

        // Non-heartbeat frames pass through unmodified.
        a.send(p(1), b"not a heartbeat").unwrap();
        let (_, raw) = b.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(raw, b"not a heartbeat");
        assert_eq!(control.corrupted(), 1);
    }

    #[test]
    fn message_adversary_is_bounded_and_counts_sends() {
        let (a, control, mut b) = chaotic_pair(33);
        // One long window with a budget of 4: across 64 sends the
        // adversary destroys at least one and at most 4 frames.
        control.set_message_adversary(4, 1_000_000, Duration::from_millis(1));
        for _ in 0..64 {
            a.send(p(1), b"s").unwrap();
        }
        let suppressed = control.suppressed();
        assert!(suppressed >= 1, "an active adversary should act");
        assert!(suppressed <= 4, "budget exceeded: {suppressed}");
        assert_eq!(control.counters().suppressed, suppressed);
        // Suppressed frames still count as sent, and are not loss.
        assert_eq!(control.metrics().sent_total(), 64);
        assert_eq!(control.lost(), 0);
        // The survivors all arrive.
        let mut got = 0u64;
        while b.recv_timeout(Duration::from_millis(50)).unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 64 - suppressed);

        // Deactivation restores pass-through.
        control.set_message_adversary(0, 1, Duration::from_millis(1));
        a.send(p(1), b"clear").unwrap();
        assert!(b.recv_timeout(Duration::from_secs(2)).unwrap().is_some());
    }

    #[test]
    fn same_seed_same_drop_pattern() {
        let pattern = |seed: u64| {
            let (a, control, _b) = chaotic_pair(seed);
            control.set_link_loss(link(0, 1), Probability::new(0.5).unwrap());
            (0..64)
                .map(|_| {
                    let before = control.counters().dropped;
                    a.send(p(1), b"s").unwrap();
                    control.counters().dropped > before
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(pattern(99), pattern(99));
        assert_ne!(pattern(99), pattern(100), "different seeds should differ");
    }
}
