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
//! * **suppression** — the message adversary: up to *d* of this
//!   sender's emissions per window are destroyed before loss sampling,
//!   reusing the kernel's [`MessageAdversary`] policy with wall time
//!   mapped onto logical ticks.
//!
//! It is the only faulty wire of the wall-clock executors: a thread of
//! the wall fabric and a UDP worker process run the same node,
//! `spawn_node(protocol, ChaosTransport::for_node(..))`, over a
//! [`FabricTransport`](crate::FabricTransport) or a
//! [`UdpTransport`](crate::UdpTransport) that injects nothing itself.
//! Frames pass through unread (only their kind is looked at, to count
//! them): a node that *lies* does so in its protocol stack
//! ([`NodeHandle::inject_corrupt`](crate::NodeHandle::inject_corrupt)),
//! and the scenario-faithful crash is
//! [`NodeHandle::inject_crash`](crate::NodeHandle::inject_crash).
//!
//! All randomness comes from one seeded [`StdRng`], so a chaos schedule
//! is reproducible given `(seed, traffic)`. The policy is shared behind
//! a [`ChaosControl`] handle and can be rewritten while the node runs —
//! that is how `FaultScript` actions land on a live node.
//!
//! This module is wall-aware by design (hold-back deadlines are real
//! instants); it must never be used in a deterministic run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{LossBatcher, MessageAdversary, Metrics, SimTime};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::clock::monotonic_now;
use crate::codec::frame_kind;
use crate::{NetError, Transport};

/// Caps a single receive budget so `Instant + Duration` arithmetic
/// cannot overflow on absurd inputs.
const MAX_RECV_BUDGET: Duration = Duration::from_secs(3600);

/// The chaos fault policy: what the wrapper does to traffic *right now*.
///
/// Reconfigured at runtime through [`ChaosControl`]; every field starts
/// benign (no loss, no delay, no duplication).
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
}

/// What a [`ChaosTransport`] shares with its [`ChaosControl`]s, behind
/// one lock.
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
    /// The message adversary's suppression policy; windows measured in
    /// ticks of `adversary_tick` since `adversary_epoch`.
    adversary: MessageAdversary,
    adversary_epoch: Instant,
    adversary_tick: Duration,
}

impl ChaosState {
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
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosControl {
    /// Sets one link's egress loss probability (overrides the default).
    pub fn set_link_loss(&self, link: LinkId, p: Probability) {
        self.state.lock().policy.link_loss.insert(link, p);
    }

    /// Sets the egress loss probability for links without an override.
    pub fn set_default_loss(&self, p: Probability) {
        self.state.lock().policy.default_loss = p;
    }

    /// Sets (or clears) the ingress hold-back range. Frames are delayed
    /// by a uniform sample from `[min, max]`; overlapping hold-backs
    /// reorder. `None` restores immediate, ordered release.
    pub fn set_delay(&self, range: Option<(Duration, Duration)>) {
        let range = range.map(|(a, b)| (a.min(b), a.max(b)));
        self.state.lock().policy.delay = range;
    }

    /// Sets the probability that an egress frame is sent twice.
    pub fn set_duplicate(&self, p: Probability) {
        self.state.lock().policy.duplicate = p;
    }

    /// (Re)configures the message adversary: suppress up to `d` of this
    /// sender's emissions per `window_ticks` logical ticks of `tick`
    /// wall time each, starting now. `d == 0` deactivates.
    pub fn set_message_adversary(&self, d: u32, window_ticks: u64, tick: Duration) {
        let mut state = self.state.lock();
        state.adversary_epoch = monotonic_now();
        state.adversary_tick = tick.max(Duration::from_micros(1));
        state.adversary.configure(d, window_ticks, SimTime::ZERO);
    }

    /// Egress frames destroyed by the message adversary so far (counted
    /// as sent, like the kernel's suppression hook).
    pub fn suppressed(&self) -> u64 {
        self.state.lock().adversary.suppressed()
    }

    /// A snapshot of the injected-fault counters.
    pub fn counters(&self) -> ChaosCounters {
        self.state.lock().counters
    }

    /// A best-effort [`Metrics`] snapshot of the wire traffic this
    /// endpoint produced and accepted: `sent` counts egress
    /// transmissions (duplicates included), `lost` counts chaos drops
    /// plus transient send losses, and `delivered` counts frames
    /// released to the node (before decoding).
    pub fn metrics(&self) -> Metrics {
        let state = self.state.lock();
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
        let state = self.state.lock();
        state
            .sent_cells
            .iter()
            .map(|(&(link, kind), &n)| (link, kind, n))
            .collect()
    }

    /// Ingress frames released to the node, per frame kind.
    pub fn delivered_cells(&self) -> Vec<(&'static str, u64)> {
        let state = self.state.lock();
        state
            .delivered_cells
            .iter()
            .map(|(&k, &n)| (k, n))
            .collect()
    }

    /// Frames destroyed on egress (chaos loss + transient send loss).
    pub fn lost(&self) -> u64 {
        self.state.lock().lost
    }
}

/// A [`Transport`] decorator injecting seeded wire-level faults; see
/// the `chaos` module docs for the fault menu and semantics.
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    state: Arc<Mutex<ChaosState>>,
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
        let state = Arc::new(Mutex::new(ChaosState {
            policy: ChaosPolicy::default(),
            rng: StdRng::seed_from_u64(seed),
            loss_runs: LossBatcher::new(),
            counters: ChaosCounters::default(),
            sent_cells: BTreeMap::new(),
            delivered_cells: BTreeMap::new(),
            lost: 0,
            adversary: MessageAdversary::inactive(seed),
            adversary_epoch: monotonic_now(),
            adversary_tick: Duration::from_millis(1),
        }));
        let control = ChaosControl {
            state: Arc::clone(&state),
        };
        (
            ChaosTransport {
                inner,
                state,
                holdback: BTreeMap::new(),
                holdback_seq: 0,
            },
            control,
        )
    }

    /// Wraps `inner` as one node of a run: the fault stream is a pure
    /// function of `(run_seed, id)`, decorrelated between nodes, and the
    /// node's links start at `config`'s loss — the paper's model,
    /// egress-side Bernoulli per transmission, from the first frame. What
    /// the wall fabric gives each thread and a UDP worker gives itself.
    pub fn for_node(
        inner: T,
        run_seed: u64,
        topology: &Topology,
        config: &Configuration,
    ) -> (Self, ChaosControl) {
        let id = inner.local_id();
        let seed = run_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(id.index()));
        let (chaos, control) = ChaosTransport::new(inner, seed);
        for link in topology.links().filter(|l| l.touches(id)) {
            control.set_link_loss(link, config.loss(link));
        }
        (chaos, control)
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
            let mut state = self.state.lock();
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
        let mut state = self.state.lock();
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
        let Ok(link) = LinkId::new(from, to) else {
            // A self-send is not chaos material; the inner transport
            // judges it.
            return self.inner.send(to, frame);
        };
        // One state lock per send: sample every decision at once.
        let copies = {
            let mut state = self.state.lock();
            // Message adversary first: a suppressed emission counts as
            // sent (the node did emit it) but consumes no loss draws,
            // matching the kernel's suppression ordering.
            if state.adversary.is_active() {
                let tick = state.adversary_now();
                if state.adversary.should_suppress(from, tick) {
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
            copies
        };
        for sent in 0..copies {
            match self.inner.send(to, frame) {
                Ok(()) => {}
                Err(e) if e.is_transient() => {
                    // The wire ate it: that is loss, not failure.
                    let mut state = self.state.lock();
                    state.counters.transient_send_loss += 1;
                    state.lost += 1;
                }
                Err(e) => {
                    // The wire refused it (unknown peer, oversized
                    // frame): what did not go out was never sent.
                    let mut state = self.state.lock();
                    *state.sent_cells.entry((link, kind)).or_insert(0) -= copies - sent;
                    return Err(e);
                }
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
                    self.state.lock().counters.transient_recv += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
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
        let mut map = Fabric::build(&topology);
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
    fn partial_loss_is_statistical() {
        let (a, control, mut b) = chaotic_pair(99);
        control.set_link_loss(link(0, 1), Probability::new(0.5).unwrap());
        for _ in 0..1000 {
            a.send(p(1), b"x").unwrap();
        }
        let mut got = 0;
        while b.recv_timeout(Duration::ZERO).unwrap().is_some() {
            got += 1;
        }
        assert!((350..=650).contains(&got), "received {got} of 1000");
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
        let mut map = Fabric::build(&topology);
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
        let mut map = Fabric::build(&topology);
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

    /// An inner transport whose sends always fail — transiently to
    /// every peer but `p(9)`, whom it does not know — and whose receives
    /// report a transient kick once, then time out.
    #[derive(Debug)]
    struct FlakyTransport {
        kicked: bool,
    }
    impl Transport for FlakyTransport {
        fn local_id(&self) -> ProcessId {
            p(0)
        }
        fn send(&self, to: ProcessId, _frame: &[u8]) -> Result<(), NetError> {
            if to == p(9) {
                return Err(NetError::UnknownPeer(to));
            }
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
        // Hard send failure: returned, and the frame the wire refused
        // was never sent — not even with a duplicate riding along.
        control.set_duplicate(Probability::ONE);
        let refused = chaos.send(p(9), b"x");
        assert!(matches!(refused, Err(NetError::UnknownPeer(_))));
        assert_eq!(control.metrics().sent_total(), 0);
        assert_eq!(control.lost(), 0);
        control.set_duplicate(Probability::ZERO);
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
