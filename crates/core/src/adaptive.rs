//! The adaptive probabilistic reliable broadcast (Section 4,
//! Algorithms 3–5).
//!
//! The protocol runs two activities side by side:
//!
//! * the **broadcast activity** — identical to the optimal Algorithm 1,
//!   but fed by the approximated knowledge below;
//! * the **approximation activity** (Algorithm 4) — periodic heartbeats
//!   carrying the local `(Λ_k, C_k)` view, Bayesian updates from observed
//!   receipts/timeouts, and distortion-ranked adoption of remote
//!   estimates (`selectBestEstimate`, Algorithm 3).
//!
//! If the system's topology and failure probabilities remain stable long
//! enough, every process's view converges to the real `(G, C)` and the
//! broadcast activity's message counts coincide with the optimal
//! algorithm's — the paper's Definition 2 of adaptiveness.
//!
//! # Delta heartbeats
//!
//! Algorithm 4 (line 17) has every heartbeat carry the sender's whole
//! `(Λ_k, C_k)` view. Here a heartbeat carries only the view entries
//! whose [`Estimate::version`] moved since the last generation the
//! receiver acknowledged (piggybacked on its own heartbeats back to us):
//! a [`View`] with that generation as its base. A neighbor that has
//! acknowledged nothing gets base 0 — every entry, the whole view. `Λ_k`
//! is the set of known link keys (plus this process), so a newly learned
//! link is an ordinary entry: stamped with the generation it was learned
//! in, it rides every frame whose base predates that. Frames are
//! *cumulative since their base*, so a lost heartbeat merely widens the
//! next one instead of wedging convergence.
//!
//! There is one merge. The receiver keeps a mirror of each neighbor's
//! view — each entry the offer itself, a 16-byte copy — plus a per-entry
//! evaluation memo; a base-0 frame empties the mirror first. The merge
//! walks the mirror against the frame, then resolves the frame's entries
//! the mirror lacks (at first contact, all of them). The memo is what
//! makes skipping unchanged entries an *exact* optimization: the
//! resulting estimates, broadcast plans and wire metrics are
//! bit-identical to a run in which every frame is replaced in flight by
//! the whole view it stands for ([`AdaptiveBroadcast::view`]) — asserted
//! by `tests/delta_equivalence.rs`.
//!
//! # Slots, not keys
//!
//! A heartbeat is handled without a map lookup. Estimates live in
//! vectors — processes by position in the fixed, sorted membership,
//! links append-only in the order they were learned, the direct links
//! first — and everything the heartbeat path touches holds the position
//! it needs: a peer record the slot of its direct link, a mirror entry
//! the slot of its local estimate, the emission cache the slot behind
//! each cached link. Keys are resolved once, where a key first arrives:
//! at construction, and for a frame entry its sender's mirror lacks —
//! every entry of a base-0 frame, a link the sender learned since. The
//! receiver's own entry is never mirrored and never resolved.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use diffuse_bayes::{Distortion, Estimate, Offer};
use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{SimTime, TimerId};

use crate::adversary::{ProtocolAudit, SenderAudit};
use crate::knowledge::View;
use crate::optimal::propagate;
use crate::params::AdaptiveParams;
use crate::protocol::{Actions, BroadcastId, Event, HeartbeatMessage, Message, Payload, Protocol};
use crate::{CoreError, NetworkKnowledge};

/// Per-process bookkeeping (`C_k[p_i]` plus its protocol fields).
#[derive(Debug, Clone)]
struct PeerRecord {
    /// The Bayesian estimate with its distortion factor.
    estimate: Estimate,
    /// Neighbors only: the slot of the direct link in `links`, which is
    /// also this neighbor's position in `neighbors` (and in every
    /// per-neighbor vector) — construction appends the direct links
    /// first, in neighbor order. A neighbor is a peer with this set.
    direct: Option<u32>,
    /// Sequence number of the last heartbeat received (neighbors only).
    last_seq: u64,
    /// Suspicions since the last heartbeat (neighbors only).
    suspected: u32,
    /// Suspicion timeout `∆_k[p_i]`, in ticks.
    timeout: u64,
    /// Next Event-2 check.
    deadline: SimTime,
    /// Ticks this process itself was down since the last heartbeat from
    /// this peer — misses that must not be blamed on the link.
    downtime_since_receipt: u64,
    /// Pending success observations for the direct link to this neighbor,
    /// not yet folded into the link estimator (see
    /// [`AdaptiveParams::evidence_batch`]).
    link_up: u32,
    /// Pending loss observations for the direct link to this neighbor.
    ///
    /// Keeping losses pending also makes over-suspicion corrections exact
    /// for free: `reconcile_link` cancels unfounded suspicions against this
    /// counter (integer arithmetic) before any estimator-level undo.
    link_down: u32,
}

impl PeerRecord {
    /// Restarts the Event-2 staleness clock: the next check is one
    /// timeout from `now`.
    fn restart_clock(&mut self, now: SimTime, deadlines: &mut DeadlineQueue) {
        let at = now + self.timeout;
        if self.deadline != at {
            self.deadline = at;
            deadlines.insert(at);
        }
    }
}

/// The suspicion-deadline schedule: the set of times at which an
/// Event-2 scan may be due.
///
/// Peer deadlines themselves live on the `PeerRecord`s; this is the
/// **insert-only** (lazy-deletion) index over them. Every deadline
/// assignment registers its time; nothing is ever removed when a
/// deadline moves — a superseded time simply fires a scan that finds
/// the peers not yet due and skips them, and expired times are dropped
/// as the scan consumes them. Arming the `SUSPICION` timer is a plain
/// `first()`. This replaces the eager remove+insert per deadline reset
/// (a `BTreeSet<(SimTime, ProcessId)>` rebalance, ~120 resets per node
/// per round at n = 30) that cost ~28% of `heartbeat/round_30_nodes`
/// after PR 3; times dedup in the set, so the steady state inserts
/// one sentinel per distinct deadline instead of two rebalances per
/// reset. A peer not yet due at a scan still holds the sentinel at its
/// own deadline, which is later than the scan, so it is processed at
/// exactly its deadline tick whatever its timeout.
#[derive(Debug, Default)]
struct DeadlineQueue {
    times: BTreeSet<SimTime>,
    /// The time of the most recent insert, skipping the set lookup for
    /// the common burst of same-deadline resets within one handler.
    /// Cleared on expiry (a cached time may otherwise refer to an
    /// already-consumed sentinel).
    last: Option<SimTime>,
}

impl DeadlineQueue {
    fn insert(&mut self, at: SimTime) {
        if self.last != Some(at) {
            self.times.insert(at);
            self.last = Some(at);
        }
    }

    /// The earliest scheduled scan time, if any.
    fn earliest(&self) -> Option<SimTime> {
        self.times.first().copied()
    }

    /// Drops every scan time due at or before `now`; returns `true` if
    /// there was any (i.e. a scan is warranted).
    fn expire(&mut self, now: SimTime) -> bool {
        self.last = None;
        let mut fired = false;
        while let Some(&at) = self.times.first() {
            if at > now {
                break;
            }
            self.times.pop_first();
            fired = true;
        }
        fired
    }
}

/// One mirrored view entry plus the evaluation memo against it.
#[derive(Debug)]
struct MirrorEntry<K> {
    key: K,
    /// Slot of our own estimate for `key` — in `peers` for processes, in
    /// `links` for links — resolved once, when the entry was learned.
    slot: u32,
    /// The neighbor's offer as last seen, copied in by every frame that
    /// carried the entry.
    value: Offer,
    /// Our own estimate's version when this entry was last evaluated.
    my_version: u64,
    /// Whether that evaluation adopted the neighbor's estimate.
    adopted: bool,
}

/// Receiver-side mirror of one neighbor's last-known view: every member
/// entry its frames offered since the last base-0 frame, ascending by
/// key, the receiver's own process entry excepted.
#[derive(Debug)]
struct NeighborMirror {
    /// Generation of the last merged frame — the value acknowledged back
    /// to this neighbor.
    generation: u64,
    processes: Vec<MirrorEntry<ProcessId>>,
    links: Vec<MirrorEntry<LinkId>>,
}

/// Algorithm 3 on one view entry: adopts `theirs` into `mine` if it is
/// less distorted, tallying the adoption. Returns whether it adopted.
fn evaluate(mine: &mut Estimate, theirs: &Offer, tally: &mut SenderAudit) -> bool {
    let adopted = mine.adopt_if_better(theirs);
    if adopted {
        count_adoption(tally, mine);
    }
    adopted
}

/// Tallies one adoption, and a broken containment bound if it landed at
/// distortion 0 (adoption increments distortion, so it never should).
fn count_adoption(tally: &mut SenderAudit, adopted: &Estimate) {
    tally.adopted += 1;
    if adopted.distortion() == Distortion::ZERO {
        tally.bound_violations += 1;
    }
}

/// Whether a frame's entry keys strictly ascend, as every conformant
/// sender writes them: no key twice, none out of order.
fn strictly_ascending<K: Ord>(entries: &[(K, Offer)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Sender-side emission state: the cached copy-on-write base-0 view and
/// the change bookkeeping that frames of a later base are assembled from.
#[derive(Debug)]
struct EmissionCache {
    /// Emission counter; stamped into every outgoing view frame.
    generation: u64,
    /// The cached base-0 view, rebuilt copy-on-write per emission for
    /// the entries whose version moved.
    view: Arc<View>,
    /// Per `view.processes` entry (that is, per peer slot): (estimate
    /// version at last sync, generation of the last sync that changed
    /// it).
    proc_sync: Vec<(u64, u64)>,
    /// Same, for `view.links`.
    link_sync: Vec<(u64, u64)>,
    /// Per `view.links` entry: its slot in `links`. `view.links`
    /// ascends by [`LinkId`]; `links` is in learning order.
    link_slots: Vec<u32>,
    /// Per neighbor, in `neighbors` order: the latest generation it
    /// acknowledged (0 = none yet, so it gets the base-0 view).
    acked: Vec<u64>,
}

impl EmissionCache {
    fn new(neighbors: usize) -> Self {
        EmissionCache {
            generation: 0,
            view: Arc::new(View {
                generation: 0,
                base: 0,
                processes: Vec::new(),
                links: Vec::new(),
            }),
            proc_sync: Vec::new(),
            link_sync: Vec::new(),
            link_slots: Vec::new(),
            acked: vec![0; neighbors],
        }
    }
}

/// The adaptive reliable broadcast protocol.
///
/// The protocol is event-driven: it schedules three named timers —
/// [`AdaptiveBroadcast::HEARTBEAT`] (emission, Algorithm 4 lines 14–17),
/// [`AdaptiveBroadcast::SUSPICION`] (Event 2 staleness checks, armed at
/// the earliest peer deadline) and [`AdaptiveBroadcast::SELF_TICK`]
/// (Event 3 self-monitoring) — instead of re-checking its deadlines on
/// every clock tick. Their ids are numbered in the legacy intra-tick
/// execution order, so firing due timers in id order reproduces the old
/// per-tick handler bit for bit.
///
/// # Example
///
/// Two neighbors exchanging heartbeats learn that their link is
/// reliable. [`SelfTimed`](crate::SelfTimed) keeps each one's timer
/// table, so a plain loop over time can drive both:
///
/// ```
/// use diffuse_core::{AdaptiveBroadcast, AdaptiveParams, Actions, SelfTimed};
/// use diffuse_model::{LinkId, ProcessId};
/// use diffuse_sim::SimTime;
///
/// let ids = vec![ProcessId::new(0), ProcessId::new(1)];
/// let mut a = SelfTimed::new(AdaptiveBroadcast::new(
///     ids[0], ids.clone(), vec![ids[1]], AdaptiveParams::default()));
/// let mut b = SelfTimed::new(AdaptiveBroadcast::new(
///     ids[1], ids.clone(), vec![ids[0]], AdaptiveParams::default()));
///
/// let mut actions = Actions::new();
/// for t in 1..50u64 {
///     let now = SimTime::new(t);
///     a.fire_due(now, &mut actions);
///     for (to, m) in actions.take_sends() {
///         assert_eq!(to, ids[1]);
///         b.handle_message(now, ids[0], m, &mut actions);
///     }
///     b.fire_due(now, &mut actions);
///     for (_, m) in actions.take_sends() {
///         a.handle_message(now, ids[1], m, &mut actions);
///     }
/// }
/// let link = LinkId::new(ids[0], ids[1]).unwrap();
/// let loss = a.protocol().estimated_loss(link).unwrap().value();
/// assert!(loss < 0.05, "estimated loss {loss} should approach 0");
/// ```
#[derive(Debug)]
pub struct AdaptiveBroadcast {
    id: ProcessId,
    params: AdaptiveParams,
    /// Distinct; heartbeats go out in this order.
    neighbors: Vec<ProcessId>,
    /// The membership `Π`, sorted; fixed for the node's lifetime.
    all_processes: Vec<ProcessId>,

    /// `Λ_k` — the known topology: this process and every known link,
    /// the keys of `link_index`.
    topology: Topology,

    /// `C_k` over processes: `peers[i]` belongs to `all_processes[i]`.
    peers: Vec<PeerRecord>,
    /// This process's slot in `peers`.
    self_slot: usize,
    /// `C_k` over links, append-only in the order they were learned:
    /// slots `0..neighbors.len()` are the direct links, in neighbor
    /// order.
    links: Vec<Estimate>,
    /// The slot in `links` of each known link. Consulted only where a
    /// link arrives by key — a frame link its sender's mirror lacks, the
    /// public accessors, snapshots, and the emission cache when links
    /// were learned.
    link_index: BTreeMap<LinkId, u32>,
    /// Insert-only schedule of Event-2 scan times (see
    /// [`DeadlineQueue`]).
    deadlines: DeadlineQueue,

    /// Sender-side delta emission state.
    emission: EmissionCache,
    /// Receiver-side mirror of each neighbor's view, in `neighbors`
    /// order: the base its frames apply to, absent until one of its
    /// frames was merged.
    mirrors: Vec<Option<NeighborMirror>>,
    /// Offers and adoptions per neighbor, in `neighbors` order; a
    /// neighbor has an audit row once its mirror exists.
    sender_audits: Vec<SenderAudit>,

    /// Pending self-uptime success observations (Event 3), folded into my
    /// own estimate once [`AdaptiveParams::evidence_batch`] accumulate.
    self_up: u32,

    my_seq: u64,
    next_heartbeat: SimTime,
    next_self_tick: SimTime,

    // Broadcast activity.
    next_bcast_seq: u64,
    seen: BTreeSet<BroadcastId>,
    delivered: Vec<(BroadcastId, Payload)>,
    errors: u64,
    heartbeats_sent: u64,
    /// Adversary-facing receiver counters other than the per-sender rows
    /// (`sender_audits`): future-stamped acks rejected.
    audit: ProtocolAudit,
}

impl AdaptiveBroadcast {
    /// Heartbeat emission (Algorithm 4, lines 14–17).
    pub const HEARTBEAT: TimerId = TimerId::new(0);
    /// Event-2 staleness checks, armed at the earliest peer deadline.
    pub const SUSPICION: TimerId = TimerId::new(1);
    /// Event-3 self-monitoring (`∆tick`).
    pub const SELF_TICK: TimerId = TimerId::new(2);

    /// Creates an adaptive node.
    ///
    /// `all_processes` is the system membership `Π` (the paper assumes it
    /// is known from the start — Section 4.2); `neighbors` are the
    /// processes connected to `id` by direct links, the only thing a
    /// process initially knows about `Λ`.
    ///
    /// `params` gets the builders' clamps whether or not it came through
    /// them: both periods at least 1 tick, `evidence_batch` in `1..=32`.
    ///
    /// # Panics
    ///
    /// Panics if `all_processes` lacks `id`, if `neighbors` contains `id`
    /// itself, a process twice or processes outside `all_processes`, or
    /// if `params.intervals == 0`.
    pub fn new(
        id: ProcessId,
        all_processes: Vec<ProcessId>,
        neighbors: Vec<ProcessId>,
        params: AdaptiveParams,
    ) -> Self {
        assert!(!neighbors.contains(&id), "a process cannot neighbor itself");
        assert!(
            neighbors.iter().all(|n| all_processes.contains(n)),
            "neighbors must be part of the system membership"
        );
        assert!(
            all_processes.contains(&id),
            "a process is part of the system membership"
        );
        let AdaptiveParams {
            intervals,
            heartbeat_period,
            self_tick_period,
            evidence_batch,
            ..
        } = params;
        let params = params
            .with_intervals(intervals)
            .with_heartbeat_period(heartbeat_period)
            .with_self_tick_period(self_tick_period)
            .with_evidence_batch(evidence_batch);
        let mut all = all_processes;
        all.sort_unstable();
        all.dedup();

        let u = params.intervals;
        let delta = params.heartbeat_period;
        let slot_of = |p: &ProcessId| all.binary_search(p).expect("validated above");
        let mut peers: Vec<PeerRecord> = all
            .iter()
            .map(|_| PeerRecord {
                // Lines 2–7: unknown estimates, ∞ distortion, timeout δ.
                estimate: Estimate::unknown(u),
                direct: None,
                last_seq: 0,
                suspected: 0,
                timeout: delta,
                // Grace period: no suspicions before the first
                // heartbeats can possibly arrive.
                deadline: SimTime::new(2 * delta + 1),
                downtime_since_receipt: 0,
                link_up: 0,
                link_down: 0,
            })
            .collect();
        // Line 8: p_k sees itself with no distortion.
        let self_slot = slot_of(&id);
        peers[self_slot].estimate = Estimate::first_hand(u);

        // Lines 9–12: Λ_k starts with the direct links, at distortion 0.
        let mut topology = Topology::new();
        topology.add_process(id);
        let mut links = Vec::with_capacity(neighbors.len());
        let mut link_index = BTreeMap::new();
        for (slot, n) in (0u32..).zip(&neighbors) {
            let link = topology.add_link(id, *n).expect("validated above");
            assert!(
                link_index.insert(link, slot).is_none(),
                "neighbors must be distinct"
            );
            links.push(Estimate::first_hand(u));
            peers[slot_of(n)].direct = Some(slot);
        }

        let mut deadlines = DeadlineQueue::default();
        for (slot, r) in peers.iter().enumerate() {
            if slot != self_slot {
                deadlines.insert(r.deadline);
            }
        }

        AdaptiveBroadcast {
            id,
            all_processes: all,
            topology,
            peers,
            self_slot,
            links,
            link_index,
            deadlines,
            emission: EmissionCache::new(neighbors.len()),
            mirrors: neighbors.iter().map(|_| None).collect(),
            sender_audits: vec![SenderAudit::default(); neighbors.len()],
            neighbors,
            self_up: 0,
            my_seq: 0,
            next_heartbeat: SimTime::ZERO,
            next_self_tick: SimTime::new(params.self_tick_period),
            next_bcast_seq: 0,
            seen: BTreeSet::new(),
            delivered: Vec::new(),
            errors: 0,
            heartbeats_sent: 0,
            audit: ProtocolAudit::default(),
            params,
        }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &AdaptiveParams {
        &self.params
    }

    /// The currently known topology `Λ_k`.
    pub fn known_topology(&self) -> &Topology {
        &self.topology
    }

    /// Current estimate of a process's crash probability (posterior
    /// mean), or `None` for unknown processes.
    pub fn estimated_crash(&self, p: ProcessId) -> Option<Probability> {
        self.process_estimate(p).map(|e| e.beliefs().mean())
    }

    /// Current estimate of a link's loss probability (posterior mean), or
    /// `None` for unknown links.
    pub fn estimated_loss(&self, l: LinkId) -> Option<Probability> {
        self.link_estimate(l).map(|e| e.beliefs().mean())
    }

    /// The full estimate (posterior + distortion) for a process.
    pub fn process_estimate(&self, p: ProcessId) -> Option<&Estimate> {
        let slot = self.all_processes.binary_search(&p).ok()?;
        Some(&self.peers[slot].estimate)
    }

    /// The full estimate for a link.
    pub fn link_estimate(&self, l: LinkId) -> Option<&Estimate> {
        let &slot = self.link_index.get(&l)?;
        Some(&self.links[slot as usize])
    }

    /// The known links in ascending [`LinkId`] order, with their slots'
    /// estimates.
    fn links_by_key(&self) -> impl Iterator<Item = (LinkId, &Estimate)> {
        self.link_index
            .iter()
            .map(|(&l, &slot)| (l, &self.links[slot as usize]))
    }

    /// Heartbeats sent so far.
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent
    }

    /// Malformed or un-forwardable messages ignored so far.
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// Returns `true` once `Λ_k` spans the whole membership `Π` — the
    /// precondition for building spanning trees.
    pub fn topology_complete(&self) -> bool {
        self.topology.process_count() == self.all_processes.len() && self.topology.is_connected()
    }

    /// Snapshot of the approximated knowledge `(Λ_k, C_k)` as scalar
    /// probabilities (posterior means), ready for MRT construction.
    pub fn knowledge_snapshot(&self) -> NetworkKnowledge {
        let mut config = Configuration::new();
        for (&p, record) in self.all_processes.iter().zip(&self.peers) {
            config.set_crash(p, record.estimate.beliefs().mean());
        }
        for (l, estimate) in self.links_by_key() {
            config.set_loss(l, estimate.beliefs().mean());
        }
        NetworkKnowledge::exact(self.topology.clone(), config)
    }

    /// The whole `(Λ_k, C_k)` view (Algorithm 4, line 17) as a base-0
    /// frame, stamped with the last emission's generation. `Λ_k` is its
    /// link keys.
    ///
    /// Built from the live estimates, sharing nothing with
    /// the copy-on-write cache heartbeats are emitted from — so right
    /// after an emission it is the independent statement of what each
    /// heartbeat stands for.
    pub fn view(&self) -> View {
        View {
            generation: self.emission.generation,
            base: 0,
            processes: self
                .all_processes
                .iter()
                .zip(&self.peers)
                .map(|(&p, r)| (p, r.estimate.offer()))
                .collect(),
            links: self.links_by_key().map(|(l, e)| (l, e.offer())).collect(),
        }
    }

    /// Brings the cached view up to date copy-on-write: only entries
    /// whose [`Estimate::version`] moved since the last sync are
    /// touched, and each such entry records the new generation as its
    /// last-change generation (the key deltas are filtered by).
    fn sync_view_cache(&mut self) {
        let cache = &mut self.emission;
        cache.generation += 1;
        let g = cache.generation;
        if cache.proc_sync.is_empty() {
            // First emission: build the cache outright.
            cache.proc_sync = self
                .peers
                .iter()
                .map(|r| (r.estimate.version(), g))
                .collect();
            cache.link_slots = self.link_index.values().copied().collect();
            cache.link_sync = cache
                .link_slots
                .iter()
                .map(|&slot| (self.links[slot as usize].version(), g))
                .collect();
            cache.view = Arc::new(View {
                generation: g,
                base: 0,
                processes: self
                    .all_processes
                    .iter()
                    .zip(&self.peers)
                    .map(|(&p, r)| (p, r.estimate.offer()))
                    .collect(),
                links: self
                    .link_index
                    .iter()
                    .map(|(&l, &slot)| (l, self.links[slot as usize].offer()))
                    .collect(),
            });
            return;
        }
        // `make_mut` clones the view only if a previous emission's frame
        // is still alive somewhere; entry clones are Arc-cheap either
        // way, and a refreshed entry is written in place.
        let view = Arc::make_mut(&mut cache.view);
        view.generation = g;
        // Processes: the membership is fixed, so the cache walks in
        // lockstep with the peer slots.
        for ((record, entry), sync) in self
            .peers
            .iter()
            .zip(view.processes.iter_mut())
            .zip(cache.proc_sync.iter_mut())
        {
            let v = record.estimate.version();
            if v != sync.0 {
                entry.1 = record.estimate.offer();
                *sync = (v, g);
            }
        }
        if cache.link_slots.len() != self.links.len() {
            // Links were learned since the last emission: walk the key
            // index, inserting each new link at its sorted position,
            // stamped with this generation — so every delta whose base
            // predates it carries the link.
            for (i, (&l, &slot)) in self.link_index.iter().enumerate() {
                if i == view.links.len() || view.links[i].0 != l {
                    let e = &self.links[slot as usize];
                    view.links.insert(i, (l, e.offer()));
                    cache.link_sync.insert(i, (e.version(), g));
                    cache.link_slots.insert(i, slot);
                }
            }
        }
        for ((&slot, entry), sync) in cache
            .link_slots
            .iter()
            .zip(view.links.iter_mut())
            .zip(cache.link_sync.iter_mut())
        {
            let e = &self.links[slot as usize];
            let v = e.version();
            if v != sync.0 {
                entry.1 = e.offer();
                *sync = (v, g);
            }
        }
    }

    /// Assembles the frame of entries changed since `base` from the
    /// (already synced) view cache, copying the changed offers.
    fn build_delta(&self, base: u64) -> Arc<View> {
        let view = &self.emission.view;
        Arc::new(View {
            generation: self.emission.generation,
            base,
            processes: view
                .processes
                .iter()
                .zip(&self.emission.proc_sync)
                .filter(|&(_, &(_, changed))| changed > base)
                .map(|((p, e), _)| (*p, *e))
                .collect(),
            links: view
                .links
                .iter()
                .zip(&self.emission.link_sync)
                .filter(|&(_, &(_, changed))| changed > base)
                .map(|((l, e), _)| (*l, *e))
                .collect(),
        })
    }

    /// The latest view generation we merged from neighbor `n` (a position
    /// in `neighbors`) — the ack we piggyback on heartbeats to it (0 =
    /// nothing merged yet).
    fn ack_for(&self, n: usize) -> u64 {
        self.mirrors[n].as_ref().map_or(0, |m| m.generation)
    }

    /// `from`'s slot in `peers` and position in `neighbors`, if it is a
    /// neighbor.
    fn neighbor_slot(&self, from: ProcessId) -> Option<(usize, usize)> {
        let slot = self.all_processes.binary_search(&from).ok()?;
        Some((slot, self.peers[slot].direct? as usize))
    }

    /// Folds pending link evidence into the estimator and clears the
    /// counters.
    fn flush_link_evidence(estimate: &mut Estimate, up: &mut u32, down: &mut u32) {
        if *up > 0 {
            estimate.beliefs_mut().increase_reliability(*up);
            *up = 0;
        }
        if *down > 0 {
            estimate.beliefs_mut().decrease_reliability(*down);
            *down = 0;
        }
    }

    /// Event 1 bookkeeping for the link to the heartbeat's sender.
    ///
    /// Link evidence (the receipt itself under
    /// [`AdaptiveParams::receipt_evidence`], proven gap losses, and
    /// over-suspicion corrections) accumulates in the peer's pending
    /// counters and is folded into the Bayesian estimator in batches of
    /// [`AdaptiveParams::evidence_batch`] observations — so in the
    /// steady state the link entry's version (and hence the delta view)
    /// only moves once per batch, not once per heartbeat. Reads of the
    /// link estimate lag the newest `evidence_batch - 1` observations by
    /// design.
    ///
    /// `slot` is a neighbor's peer slot and `seq` is fresh (above its
    /// `last_seq`).
    fn reconcile_link(&mut self, slot: usize, seq: u64, now: SimTime) {
        let record = &mut self.peers[slot];
        let estimate =
            &mut self.links[record.direct.expect("heartbeats come from neighbors") as usize];
        // `seq` is a raw wire value: a hostile gap saturates rather than
        // wrapping to a small count.
        let missed = u32::try_from(seq - record.last_seq - 1).unwrap_or(u32::MAX);

        let delta = self.params.heartbeat_period;
        // Misses during my own downtime are nobody's fault.
        let excused = u32::try_from(record.downtime_since_receipt / delta)
            .unwrap_or(u32::MAX)
            .min(missed);
        let blamable = missed - excused;
        // Suspicions already charged the link (line 39); settle the
        // difference.
        let over_suspected = record.suspected.saturating_sub(blamable);
        if over_suspected > 0 {
            // Unfounded suspicions that are still pending cancel in the
            // pending counter; those already folded into the estimator
            // are taken back out of its failure count.
            let cancel = over_suspected.min(record.link_down);
            record.link_down -= cancel;
            let undo = over_suspected - cancel;
            if undo > 0 {
                Self::flush_link_evidence(estimate, &mut record.link_up, &mut record.link_down);
                estimate.beliefs_mut().undo_decrease(undo);
            }
        }
        record.link_down = record
            .link_down
            .saturating_add(blamable.saturating_sub(record.suspected));
        if self.params.receipt_evidence {
            record.link_up = record.link_up.saturating_add(1);
        }
        if record.link_up.saturating_add(record.link_down) >= self.params.evidence_batch {
            Self::flush_link_evidence(estimate, &mut record.link_up, &mut record.link_down);
        }

        // Line 23: repeated over-suspicion means the timeout is too tight.
        if over_suspected > 1 {
            record.timeout += delta;
        }
        record.suspected = 0;
        record.last_seq = seq;
        record.downtime_since_receipt = 0;
        record.restart_clock(now, &mut self.deadlines);
    }

    /// Merges one process entry neighbor `n` offers, as Algorithm 4
    /// (lines 26–32) merges every view entry: evaluated against our
    /// estimate, restarting its Event-2 clock if adopted. Returns the
    /// mirror entry it leaves, or `None` — nothing merged — for our own
    /// entry (never evaluated) and for a process outside the membership
    /// (no estimate to evaluate against).
    fn merge_process(
        &mut self,
        n: usize,
        p: ProcessId,
        theirs: &Offer,
        now: SimTime,
    ) -> Option<MirrorEntry<ProcessId>> {
        let slot = self
            .all_processes
            .binary_search(&p)
            .ok()
            .filter(|&slot| slot != self.self_slot)?;
        let record = &mut self.peers[slot];
        let adopted = evaluate(&mut record.estimate, theirs, &mut self.sender_audits[n]);
        if adopted {
            record.restart_clock(now, &mut self.deadlines);
        }
        Some(MirrorEntry {
            key: p,
            slot: slot as u32,
            value: *theirs,
            my_version: record.estimate.version(),
            adopted,
        })
    }

    /// Merges one link neighbor `n` offers: evaluated against our
    /// estimate of a known link, or learned — a fresh estimate that
    /// adopts the offer, and a new link of `Λ_k`. Returns the mirror entry
    /// it leaves, or `None` for a link naming a process outside the
    /// membership: learned, that process could never be reached, so
    /// `topology_complete()` would stay false for good and our own views
    /// would spread it on.
    fn merge_link(&mut self, n: usize, l: LinkId, theirs: &Offer) -> Option<MirrorEntry<LinkId>> {
        let member = |p: ProcessId| self.all_processes.binary_search(&p).is_ok();
        if !member(l.lo()) || !member(l.hi()) {
            return None;
        }
        let tally = &mut self.sender_audits[n];
        let (slot, adopted) = match self.link_index.get(&l) {
            Some(&slot) => (
                slot,
                evaluate(&mut self.links[slot as usize], theirs, tally),
            ),
            None => {
                let mut fresh = Estimate::unknown(self.params.intervals);
                fresh.adopt(theirs);
                count_adoption(tally, &fresh);
                let slot = self.links.len() as u32;
                self.links.push(fresh);
                self.link_index.insert(l, slot);
                self.topology.insert_link(l);
                (slot, true)
            }
        };
        Some(MirrorEntry {
            key: l,
            slot,
            value: *theirs,
            my_version: self.links[slot as usize].version(),
            adopted,
        })
    }

    /// Merges a view from neighbor `n` — Algorithm 4, lines 26–32, for
    /// the entries changed since the view's base. A base-0 view is the
    /// sender's whole view, so it first empties the mirror: an entry
    /// missing from it is not in that view.
    ///
    /// The mirror walk evaluates the frame's entries, re-evaluates
    /// entries our own side touched since their last evaluation, and
    /// handles everything else with the exact fast paths (deadline
    /// restart for previously adopted entries, nothing for previously
    /// rejected ones). Entries the mirror lacks — every entry at first
    /// contact, a link the sender learned since — are then looked up by
    /// key and take their sorted places; that pass runs only when the
    /// walk left some entry other than our own unmatched, so the lookups
    /// stay off the steady-state path. See the module docs for why this
    /// is bit-identical to merging the sender's whole view.
    ///
    /// A view is refused — counted, and the ack does not move, so the
    /// sender's next frame still applies — if it extends a generation we
    /// never merged, or if its keys do not strictly ascend: a key listed
    /// twice would leave two mirror entries, and every later frame
    /// carrying it would be counted twice. A conformant sender does
    /// neither.
    fn merge_view(&mut self, n: usize, view: &View, now: SimTime) {
        if view.base > self.ack_for(n)
            || !strictly_ascending(&view.processes)
            || !strictly_ascending(&view.links)
        {
            self.errors += 1;
            return;
        }
        // A fresh mirror is sized to the frame, as the entries it learns
        // fill it: growing it by doubling cost 6 % of `peak_rss_mb` on
        // the whole-run `adaptive_churn_n100` workload.
        let mut mirror = self.mirrors[n]
            .take()
            .filter(|_| view.base > 0)
            .unwrap_or_else(|| NeighborMirror {
                generation: 0,
                processes: Vec::with_capacity(view.processes.len()),
                links: Vec::with_capacity(view.links.len()),
            });
        self.sender_audits[n].offered += (view.processes.len() + view.links.len()) as u64;
        let learn_processes = self.walk_processes(n, &mut mirror.processes, &view.processes, now);
        let learn_links = self.walk_links(n, &mut mirror.links, &view.links);
        if learn_processes {
            learn(&mut mirror.processes, &view.processes, |p, theirs| {
                self.merge_process(n, p, theirs, now)
            });
        }
        if learn_links {
            learn(&mut mirror.links, &view.links, |l, theirs| {
                self.merge_link(n, l, theirs)
            });
        }
        mirror.generation = view.generation;
        self.mirrors[n] = Some(mirror);
    }

    /// The mirror walk over neighbor `n`'s process entries. Returns
    /// whether the frame holds an entry the mirror lacks, other than our
    /// own.
    fn walk_processes(
        &mut self,
        n: usize,
        mirror: &mut [MirrorEntry<ProcessId>],
        frame: &[(ProcessId, Offer)],
        now: SimTime,
    ) -> bool {
        let tally = &mut self.sender_audits[n];
        let mut unmatched = false;
        let mut fi = 0usize; // cursor into the (sorted) frame entries
        for entry in mirror {
            while fi < frame.len() && frame[fi].0 < entry.key {
                unmatched |= frame[fi].0 != self.id;
                fi += 1;
            }
            let record = &mut self.peers[entry.slot as usize];
            if fi < frame.len() && frame[fi].0 == entry.key {
                // The sender's entry changed: evaluate, exactly as a
                // whole view would.
                entry.value = frame[fi].1;
                fi += 1;
            } else if record.estimate.version() == entry.my_version {
                if entry.adopted {
                    // Unchanged on both sides, last evaluation adopted: a
                    // whole view would re-adopt the identical value — a
                    // value no-op whose only effect is restarting the
                    // entry's Event-2 staleness clock.
                    record.restart_clock(now, &mut self.deadlines);
                }
                // Otherwise the last evaluation rejected, and a whole
                // view would reject again.
                continue;
            }
            // Otherwise our side changed since the last evaluation
            // (suspicion-scan distortion drift, adoption from another
            // neighbor, recovery): re-evaluate against the mirrored
            // value, as a whole view would.
            entry.adopted = evaluate(&mut record.estimate, &entry.value, tally);
            if entry.adopted {
                record.restart_clock(now, &mut self.deadlines);
            }
            entry.my_version = record.estimate.version();
        }
        unmatched || frame[fi..].iter().any(|(p, _)| *p != self.id)
    }

    /// The mirror walk over neighbor `n`'s link entries. Returns whether
    /// the frame holds a link the mirror lacks.
    fn walk_links(
        &mut self,
        n: usize,
        mirror: &mut [MirrorEntry<LinkId>],
        frame: &[(LinkId, Offer)],
    ) -> bool {
        let tally = &mut self.sender_audits[n];
        let mut unmatched = false;
        let mut fi = 0usize;
        for entry in mirror {
            while fi < frame.len() && frame[fi].0 < entry.key {
                unmatched = true;
                fi += 1;
            }
            let mine = &mut self.links[entry.slot as usize];
            if fi < frame.len() && frame[fi].0 == entry.key {
                entry.value = frame[fi].1;
                fi += 1;
            } else if mine.version() == entry.my_version {
                // Unchanged on both sides: links carry no Event-2 clock,
                // and re-adoption would be a value no-op, so
                // there is nothing to replay.
                continue;
            }
            entry.adopted = evaluate(mine, &entry.value, tally);
            entry.my_version = mine.version();
        }
        unmatched || fi < frame.len()
    }
}

/// The learn pass of a merge: each frame entry the mirror lacks is merged
/// by `merge` and takes its sorted place in the mirror, unless `merge`
/// skips it.
fn learn<K: Ord + Copy>(
    mirror: &mut Vec<MirrorEntry<K>>,
    frame: &[(K, Offer)],
    mut merge: impl FnMut(K, &Offer) -> Option<MirrorEntry<K>>,
) {
    for (key, theirs) in frame {
        if let Err(at) = mirror.binary_search_by_key(key, |e| e.key) {
            if let Some(entry) = merge(*key, theirs) {
                mirror.insert(at, entry);
            }
        }
    }
}

impl AdaptiveBroadcast {
    /// (Re)arms [`Self::SUSPICION`] at the earliest scheduled scan
    /// time. Superseded times fire scans that find nothing due — a
    /// no-op — so arming never needs to prune.
    fn arm_suspicion(&mut self, actions: &mut Actions) {
        if let Some(at) = self.deadlines.earliest() {
            actions.set_timer(Self::SUSPICION, at);
        }
    }

    /// Heartbeat emission (lines 14–17): one view snapshot, one sequenced
    /// heartbeat per neighbor, carrying the entries changed since the
    /// generation it last acknowledged — all of them, the cached view
    /// itself, to a neighbor that acknowledged none.
    fn emit_heartbeats(&mut self, now: SimTime, actions: &mut Actions) {
        if now < self.next_heartbeat {
            // Fired early (e.g. a stale deadline): keep the chain alive.
            actions.set_timer(Self::HEARTBEAT, self.next_heartbeat);
            return;
        }
        self.my_seq += 1;
        self.sync_view_cache();
        // Frames are cached per distinct base: in steady state every
        // neighbor acked the previous emission and one assembly serves
        // them all. Base 0 is the cached view itself.
        let mut frames = Vec::with_capacity(2);
        frames.push((0, Arc::clone(&self.emission.view)));
        for i in 0..self.neighbors.len() {
            let base = self.emission.acked[i];
            let view = match frames.iter().find(|(b, _)| *b == base) {
                Some((_, v)) => Arc::clone(v),
                None => {
                    let v = self.build_delta(base);
                    frames.push((base, Arc::clone(&v)));
                    v
                }
            };
            actions.send(
                self.neighbors[i],
                Message::Heartbeat(HeartbeatMessage {
                    seq: self.my_seq,
                    ack: self.ack_for(i),
                    view,
                }),
            );
            self.heartbeats_sent += 1;
        }
        self.next_heartbeat = now + self.params.heartbeat_period;
        actions.set_timer(Self::HEARTBEAT, self.next_heartbeat);
    }

    /// Event 2: per-peer staleness checks over every peer whose deadline
    /// has passed — one pass over the peer slots per scan (cheap: most
    /// peers fail the `now < deadline` test and are skipped; the deadline
    /// *schedule* only decides when this scan fires, see
    /// [`DeadlineQueue`]).
    fn run_suspicion_scan(&mut self, now: SimTime, actions: &mut Actions) {
        let batch = self.params.evidence_batch;

        self.deadlines.expire(now);
        for (slot, record) in self.peers.iter_mut().enumerate() {
            if slot == self.self_slot {
                continue;
            }
            if now < record.deadline {
                continue;
            }
            if let Some(direct) = record.direct {
                // Lines 36–38: suspect the neighbor and decrease its
                // reliability belief. The suspicion is *first-hand*
                // evidence observed at network distance 1, so the
                // estimate's distortion is pinned there — otherwise stale
                // pre-crash copies echoing back from third parties (with
                // lower distortion) would keep overwriting the fresh
                // negative evidence (adoption prefers lower distortion).
                record.suspected += 1;
                record.estimate.beliefs_mut().decrease_reliability(1);
                record.estimate.set_distortion(Distortion::finite(1));
                // Line 39: the link to the suspected neighbor is charged
                // as well — batched like every other link observation,
                // and settled when the next heartbeat arrives.
                record.link_down = record.link_down.saturating_add(1);
                if record.link_up.saturating_add(record.link_down) >= batch {
                    Self::flush_link_evidence(
                        &mut self.links[direct as usize],
                        &mut record.link_up,
                        &mut record.link_down,
                    );
                }
            } else {
                // Line 35: remote knowledge gets distorted with time.
                record
                    .estimate
                    .set_distortion(record.estimate.distortion().incremented());
            }
            record.restart_clock(now, &mut self.deadlines);
        }
        self.arm_suspicion(actions);
    }

    /// Event 3: my own uptime is evidence of my reliability — accumulated
    /// and folded in batches so the self entry (which every neighbor
    /// adopts and re-gossips) only changes once per
    /// [`AdaptiveParams::evidence_batch`] periods.
    fn self_tick(&mut self, now: SimTime, actions: &mut Actions) {
        if now < self.next_self_tick {
            actions.set_timer(Self::SELF_TICK, self.next_self_tick);
            return;
        }
        self.self_up = self.self_up.saturating_add(1);
        if self.self_up >= self.params.evidence_batch {
            let me = &mut self.peers[self.self_slot].estimate;
            me.beliefs_mut().increase_reliability(self.self_up);
            self.self_up = 0;
        }
        self.next_self_tick = now + self.params.self_tick_period;
        actions.set_timer(Self::SELF_TICK, self.next_self_tick);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ProcessId,
        message: Message,
        actions: &mut Actions,
    ) {
        match message {
            Message::Heartbeat(HeartbeatMessage { seq, ack, view }) => {
                let Some((slot, n)) = self.neighbor_slot(from) else {
                    self.errors += 1;
                    return;
                };
                let fresh = seq > self.peers[slot].last_seq;
                // The sender's ack of *our* emissions anchors the base of
                // our future deltas to it. Hardened against lying senders
                // two ways: acks naming a generation we never emitted are
                // rejected (and counted), and the freshest heartbeat's ack
                // is taken *verbatim* rather than max-merged — honest acks
                // are monotone in `seq`, so for conformant senders this is
                // the old behavior bit for bit, while a within-range forged
                // ack gets repaired by the liar's next honest heartbeat
                // instead of wedging delta emission to that neighbor
                // forever.
                if ack > self.emission.generation {
                    self.audit.future_acks_rejected += 1;
                } else if fresh {
                    self.emission.acked[n] = ack;
                }
                if !fresh {
                    // A duplicate, or a heartbeat a newer one overtook on
                    // a reordering wire: its view is older than what we
                    // merged, so merging it would roll estimates, the
                    // mirror and our next ack back.
                    return;
                }
                // Event 1: reconcile the direct link, then merge the view.
                self.reconcile_link(slot, seq, now);
                self.merge_view(n, &view, now);
                // Receipt and adoption push peer deadlines around; keep
                // the suspicion timer at the new earliest one.
                self.arm_suspicion(actions);
            }
            Message::Data(data) => {
                if !self.seen.insert(data.id) {
                    return;
                }
                self.delivered.push((data.id, data.payload.clone()));
                actions.deliver(data.id, data.payload.clone());
                if propagate(
                    self.id,
                    data.id,
                    &data.payload,
                    &data.tree,
                    self.params.target_reliability,
                    actions,
                )
                .is_err()
                {
                    self.errors += 1;
                }
            }
            _ => {}
        }
    }

    fn on_recovery(&mut self, now: SimTime, down_ticks: u64, actions: &mut Actions) {
        // Event 4: a crash lasting n × ∆tick is n failure observations.
        let n =
            u32::try_from((down_ticks / self.params.self_tick_period).max(1)).unwrap_or(u32::MAX);
        let me = &mut self.peers[self.self_slot].estimate;
        // Settle any pending uptime evidence first (canonical order:
        // successes precede failures), then charge the crash.
        if self.self_up > 0 {
            me.beliefs_mut().increase_reliability(self.self_up);
            self.self_up = 0;
        }
        me.beliefs_mut().decrease_reliability(n);
        // My silence was my fault, not my neighbors': excuse the misses I
        // caused and give everyone a fresh grace period.
        for (slot, record) in self.peers.iter_mut().enumerate() {
            if slot != self.self_slot {
                record.downtime_since_receipt += down_ticks;
                record.restart_clock(now, &mut self.deadlines);
            }
        }
        self.next_self_tick = now + self.params.self_tick_period;
        self.next_heartbeat = now; // announce recovery promptly
        actions.set_timer(Self::HEARTBEAT, self.next_heartbeat);
        actions.set_timer(Self::SELF_TICK, self.next_self_tick);
        self.arm_suspicion(actions);
    }
}

impl Protocol for AdaptiveBroadcast {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, _now: SimTime, actions: &mut Actions) {
        actions.set_timer(Self::HEARTBEAT, self.next_heartbeat);
        actions.set_timer(Self::SELF_TICK, self.next_self_tick);
        self.arm_suspicion(actions);
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        match event {
            Event::Message { from, message } => self.on_message(now, from, message, actions),
            Event::Timer(Self::HEARTBEAT) => self.emit_heartbeats(now, actions),
            Event::Timer(Self::SUSPICION) => self.run_suspicion_scan(now, actions),
            Event::Timer(Self::SELF_TICK) => self.self_tick(now, actions),
            Event::Timer(_) => {}
            Event::Recovery { down_ticks } => self.on_recovery(now, down_ticks, actions),
            Event::Broadcast(payload) => {
                if self.broadcast(now, payload, actions).is_err() {
                    self.errors += 1;
                }
            }
            // Corruption windows are consumed by the Adversary wrapper;
            // the honest protocol never lies.
            Event::Corrupt { .. } => {}
        }
    }

    fn broadcast(
        &mut self,
        _now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        if !self.topology_complete() {
            return Err(CoreError::KnowledgeIncomplete);
        }
        let knowledge = self.knowledge_snapshot();
        let wire = Arc::new(knowledge.reliability_tree(self.id)?);
        let k = self.params.target_reliability;
        let id = BroadcastId {
            origin: self.id,
            seq: self.next_bcast_seq,
        };
        // A believed λ of 1 (or an invalid target) fails here, before
        // the id is spent or marked seen.
        propagate(self.id, id, &payload, &wire, k, actions)?;
        self.next_bcast_seq += 1;
        self.seen.insert(id);
        self.delivered.push((id, payload.clone()));
        actions.deliver(id, payload);
        Ok(id)
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        &self.delivered
    }

    fn audit(&self) -> ProtocolAudit {
        let mut audit = self.audit.clone();
        for ((&n, mirror), sa) in self
            .neighbors
            .iter()
            .zip(&self.mirrors)
            .zip(&self.sender_audits)
        {
            if mirror.is_some() {
                audit.per_sender.insert(n, *sa);
            }
        }
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_bayes::Distortion;

    use crate::protocol::SelfTimed;

    type Timed = SelfTimed<AdaptiveBroadcast>;

    fn timed(node: AdaptiveBroadcast) -> Timed {
        SelfTimed::new(node)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn params() -> AdaptiveParams {
        AdaptiveParams::default()
    }

    fn line3() -> (Timed, Timed, Timed) {
        // 0 — 1 — 2.
        let all = vec![p(0), p(1), p(2)];
        (
            timed(AdaptiveBroadcast::new(
                p(0),
                all.clone(),
                vec![p(1)],
                params(),
            )),
            timed(AdaptiveBroadcast::new(
                p(1),
                all.clone(),
                vec![p(0), p(2)],
                params(),
            )),
            timed(AdaptiveBroadcast::new(p(2), all, vec![p(1)], params())),
        )
    }

    /// Runs one tick for every node, routing messages instantly.
    fn exchange(nodes: &mut [&mut Timed], now: SimTime) {
        let mut actions = Actions::new();
        let mut pending: Vec<(ProcessId, ProcessId, Message)> = Vec::new();
        for node in nodes.iter_mut() {
            node.fire_due(now, &mut actions);
            let from = node.protocol().id();
            for (to, m) in actions.take_sends() {
                pending.push((from, to, m));
            }
        }
        for (from, to, m) in pending {
            for node in nodes.iter_mut() {
                if node.protocol().id() == to {
                    node.handle_message(now, from, m.clone(), &mut actions);
                    actions.clear();
                }
            }
        }
    }

    /// `b`'s heartbeat at tick `t` — its one send, as `b` has one
    /// neighbor. Only `b`'s timers fire, so a receiver fed these never
    /// suspects: its link sees the receipts and nothing else.
    fn heartbeat_from(b: &mut Timed, t: u64) -> Message {
        let mut actions = Actions::new();
        b.fire_due(SimTime::new(t), &mut actions);
        let mut sends = actions.take_sends();
        assert_eq!(sends.len(), 1, "one heartbeat to the one neighbor");
        sends.pop().expect("just checked").1
    }

    /// A pair `0 — 1` under `pr`.
    fn pair(pr: AdaptiveParams) -> (Timed, Timed) {
        let all = vec![p(0), p(1)];
        (
            timed(AdaptiveBroadcast::new(
                p(0),
                all.clone(),
                vec![p(1)],
                pr.clone(),
            )),
            timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], pr)),
        )
    }

    #[test]
    fn link_evidence_flushes_in_batches() {
        let (mut a, mut b) = pair(params().with_evidence_batch(4));
        let link = LinkId::new(p(0), p(1)).unwrap();
        let initial = a.protocol().link_estimate(link).unwrap().clone();
        let mut actions = Actions::new();

        for t in 1..=3u64 {
            let heartbeat = heartbeat_from(&mut b, t);
            a.handle_message(SimTime::new(t), p(1), heartbeat, &mut actions);
        }
        // Three receipts are still pending: the estimator has not moved.
        assert_eq!(
            a.protocol().link_estimate(link).unwrap().beliefs(),
            initial.beliefs()
        );

        let heartbeat = heartbeat_from(&mut b, 4);
        a.handle_message(SimTime::new(4), p(1), heartbeat, &mut actions);
        // The fourth receipt fills the batch: exactly one batched
        // increase_reliability(4), bit-for-bit.
        let mut expected = *initial.beliefs();
        expected.increase_reliability(4);
        assert_eq!(
            a.protocol().link_estimate(link).unwrap().beliefs(),
            &expected
        );
    }

    #[test]
    fn without_receipt_evidence_only_proven_losses_reach_the_link() {
        let (mut a, mut b) = pair(params().with_receipt_evidence(false).with_evidence_batch(1));
        let link = LinkId::new(p(0), p(1)).unwrap();
        let initial = a.protocol().link_estimate(link).unwrap().clone();
        let mut actions = Actions::new();

        for t in 1..=10u64 {
            let heartbeat = heartbeat_from(&mut b, t);
            a.handle_message(SimTime::new(t), p(1), heartbeat, &mut actions);
        }
        // In-order heartbeats are no evidence at all.
        assert_eq!(
            a.protocol().link_estimate(link).unwrap().beliefs(),
            initial.beliefs()
        );

        // A gap of k = 5: four heartbeats lost on the wire, charged as
        // exactly four losses.
        for t in 11..=14u64 {
            heartbeat_from(&mut b, t);
        }
        let heartbeat = heartbeat_from(&mut b, 15);
        a.handle_message(SimTime::new(15), p(1), heartbeat, &mut actions);
        let mut expected = *initial.beliefs();
        expected.decrease_reliability(4);
        assert_eq!(
            a.protocol().link_estimate(link).unwrap().beliefs(),
            &expected
        );
    }

    #[test]
    fn a_hostile_seq_gap_saturates_instead_of_wrapping() {
        let (mut a, mut b) = pair(params());
        let link = LinkId::new(p(0), p(1)).unwrap();
        let mut actions = Actions::new();
        let heartbeat = heartbeat_from(&mut b, 1);
        a.handle_message(SimTime::new(1), p(1), heartbeat, &mut actions);

        // 2^32 heartbeats claimed missing: truncated to 32 bits, that
        // would be zero misses and a clean receipt.
        let Message::Heartbeat(mut heartbeat) = heartbeat_from(&mut b, 2) else {
            unreachable!("adaptive nodes only heartbeat")
        };
        heartbeat.seq += 1 << 32;
        a.handle_message(
            SimTime::new(2),
            p(1),
            Message::Heartbeat(heartbeat),
            &mut actions,
        );
        let loss = a.protocol().estimated_loss(link).unwrap().value();
        assert!(loss > 0.9, "a 2^32 gap must read as loss, got {loss}");
    }

    #[test]
    fn evidence_batch_one_reproduces_per_observation_updates() {
        let all = vec![p(0), p(1)];
        let pr = params().with_evidence_batch(1);
        let mut a = timed(AdaptiveBroadcast::new(
            p(0),
            all.clone(),
            vec![p(1)],
            pr.clone(),
        ));
        let mut b = timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], pr));
        let link = LinkId::new(p(0), p(1)).unwrap();
        let initial = a.protocol().link_estimate(link).unwrap().clone();

        exchange(&mut [&mut a, &mut b], SimTime::new(1));
        // Batch size 1 is the paper's per-receipt update, applied
        // immediately.
        let mut expected = *initial.beliefs();
        expected.increase_reliability(1);
        assert_eq!(
            a.protocol().link_estimate(link).unwrap().beliefs(),
            &expected
        );
    }

    #[test]
    fn self_uptime_evidence_flushes_in_batches() {
        let mut node = timed(AdaptiveBroadcast::new(
            p(0),
            vec![p(0)],
            vec![],
            params().with_evidence_batch(4),
        ));
        let mut actions = Actions::new();
        let initial = node.protocol().process_estimate(p(0)).unwrap().clone();
        for t in 1..=3u64 {
            node.fire_due(SimTime::new(t), &mut actions);
            actions.clear();
        }
        assert_eq!(
            node.protocol().process_estimate(p(0)).unwrap().beliefs(),
            initial.beliefs()
        );
        node.fire_due(SimTime::new(4), &mut actions);
        let mut expected = *initial.beliefs();
        expected.increase_reliability(4);
        assert_eq!(
            node.protocol().process_estimate(p(0)).unwrap().beliefs(),
            &expected
        );
    }

    #[test]
    fn initial_state_matches_algorithm4_initialization() {
        let node = AdaptiveBroadcast::new(p(0), vec![p(0), p(1), p(2)], vec![p(1)], params());
        // Own estimate: distortion 0. Remote: ∞.
        assert_eq!(
            node.process_estimate(p(0)).unwrap().distortion(),
            Distortion::ZERO
        );
        assert!(node
            .process_estimate(p(2))
            .unwrap()
            .distortion()
            .is_infinite());
        // Direct links at distortion 0; only those exist.
        let l01 = LinkId::new(p(0), p(1)).unwrap();
        assert_eq!(
            node.link_estimate(l01).unwrap().distortion(),
            Distortion::ZERO
        );
        assert!(node
            .link_estimate(LinkId::new(p(1), p(2)).unwrap())
            .is_none());
        assert!(!node.topology_complete());
    }

    #[test]
    fn start_arms_all_three_timers() {
        let mut node = AdaptiveBroadcast::new(p(0), vec![p(0), p(1)], vec![p(1)], params());
        let mut actions = Actions::new();
        node.on_start(SimTime::ZERO, &mut actions);
        let ops = actions.take_timer_ops();
        let armed: Vec<TimerId> = ops.iter().map(|&(t, _)| t).collect();
        assert!(armed.contains(&AdaptiveBroadcast::HEARTBEAT));
        assert!(armed.contains(&AdaptiveBroadcast::SUSPICION));
        assert!(armed.contains(&AdaptiveBroadcast::SELF_TICK));
        // The suspicion timer sits at the initial grace deadline 2δ + 1.
        let delta = params().heartbeat_period;
        assert!(ops
            .iter()
            .any(|&(t, at)| t == AdaptiveBroadcast::SUSPICION
                && at == Some(SimTime::new(2 * delta + 1))));
    }

    #[test]
    #[should_panic(expected = "neighbor")]
    fn self_neighbor_is_rejected() {
        let _ = AdaptiveBroadcast::new(p(0), vec![p(0)], vec![p(0)], params());
    }

    /// A neighbor listed twice would get two heartbeats per emission,
    /// and it has one direct link.
    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_neighbors_are_rejected() {
        let _ = AdaptiveBroadcast::new(p(0), vec![p(0), p(1)], vec![p(1), p(1)], params());
    }

    /// On a wire that reorders (chaos delay or duplication, UDP), a
    /// heartbeat can arrive after a newer one from the same sender. Its
    /// view is older than what was merged, and its entries are less
    /// distorted than the copies adopted from the newer one (d versus
    /// d + 1), so merging it would roll the receiver back. Here p0's t50
    /// and t52 heartbeats are held back and delivered newest first at
    /// t60: the late t50 frame must leave p1 exactly as the t52 frame
    /// left it — its estimate of p0 and the ack of its next heartbeat.
    #[test]
    fn a_stale_heartbeat_rolls_nothing_back() {
        let run = |deliver_stale: bool| {
            let all = vec![p(0), p(1)];
            // Batch 1: p0's self estimate moves every tick, so every
            // frame carries it.
            let pr = params().with_evidence_batch(1);
            let mut a = timed(AdaptiveBroadcast::new(
                p(0),
                all.clone(),
                vec![p(1)],
                pr.clone(),
            ));
            let mut b = timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], pr));
            let mut actions = Actions::new();
            let mut held = Vec::new();
            for t in 1..60u64 {
                let now = SimTime::new(t);
                a.fire_due(now, &mut actions);
                for (_, m) in actions.take_sends() {
                    match t {
                        50 | 52 => held.push(m),
                        51.. => {} // lost
                        _ => b.handle_message(now, p(0), m, &mut actions),
                    }
                }
                actions.clear();
                b.fire_due(now, &mut actions);
                for (_, m) in actions.take_sends() {
                    a.handle_message(now, p(1), m, &mut actions);
                }
                actions.clear();
            }
            let now = SimTime::new(60);
            let stale = held.remove(0);
            b.handle_message(now, p(0), held.remove(0), &mut actions);
            if deliver_stale {
                b.handle_message(now, p(0), stale, &mut actions);
            }
            actions.clear();
            b.fire_due(now, &mut actions);
            let Some((_, Message::Heartbeat(next))) = actions.take_sends().pop() else {
                panic!("p1 heartbeats at t60");
            };
            let e = b.protocol().process_estimate(p(0)).unwrap();
            (*e.beliefs(), e.distortion(), next.ack)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn topology_spreads_along_a_line() {
        let (mut a, mut b, mut c) = line3();
        // Two exchanges: a learns l12 via b's second heartbeat.
        for t in 1..=4u64 {
            exchange(&mut [&mut a, &mut b, &mut c], SimTime::new(t));
        }
        assert!(
            a.protocol().topology_complete(),
            "a's topology: {:?}",
            a.protocol().known_topology()
        );
        assert!(c.protocol().topology_complete());
        assert!(a
            .protocol()
            .known_topology()
            .contains_link(LinkId::new(p(1), p(2)).unwrap()));
    }

    #[test]
    fn reliable_heartbeats_drive_link_estimates_down() {
        let (mut a, mut b, mut c) = line3();
        let l01 = LinkId::new(p(0), p(1)).unwrap();
        let before = a.protocol().estimated_loss(l01).unwrap().value();
        for t in 1..=60u64 {
            exchange(&mut [&mut a, &mut b, &mut c], SimTime::new(t));
        }
        let after = a.protocol().estimated_loss(l01).unwrap().value();
        assert!(before > 0.4, "uniform prior mean should start near 0.5");
        assert!(after < 0.05, "estimated loss {after} should approach 0");
        // And remote link estimates were learned through b.
        let l12 = LinkId::new(p(1), p(2)).unwrap();
        assert!(a.protocol().estimated_loss(l12).unwrap().value() < 0.2);
    }

    #[test]
    fn sender_self_estimate_is_always_adopted() {
        let (mut a, mut b, mut c) = line3();
        for t in 1..=10u64 {
            exchange(&mut [&mut a, &mut b, &mut c], SimTime::new(t));
        }
        // a's estimate of b is second-hand: distortion exactly 1.
        assert_eq!(
            a.protocol().process_estimate(p(1)).unwrap().distortion(),
            Distortion::finite(1)
        );
        // a's estimate of c traveled two hops: distortion 2.
        assert_eq!(
            a.protocol().process_estimate(p(2)).unwrap().distortion(),
            Distortion::finite(2)
        );
    }

    #[test]
    fn silence_triggers_suspicions_and_decreases_beliefs() {
        let all = vec![p(0), p(1)];
        let mut a = timed(AdaptiveBroadcast::new(
            p(0),
            all.clone(),
            vec![p(1)],
            params(),
        ));
        let mut b = timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], params()));

        // Warm up with healthy exchanges.
        for t in 1..=20u64 {
            exchange(&mut [&mut a, &mut b], SimTime::new(t));
        }
        let healthy = a.protocol().estimated_crash(p(1)).unwrap().value();

        // Now b goes silent; a ticks alone.
        let mut actions = Actions::new();
        for t in 21..=40u64 {
            a.fire_due(SimTime::new(t), &mut actions);
            actions.clear();
        }
        let suspected = a.protocol().estimated_crash(p(1)).unwrap().value();
        assert!(
            suspected > healthy,
            "silence must increase the crash estimate ({healthy} → {suspected})"
        );
        // Default (paper) blame mode: total silence also degrades the
        // link estimate — a dead link and a dead peer are indistinguishable
        // until a sequence number proves otherwise.
        let l01 = LinkId::new(p(0), p(1)).unwrap();
        assert!(a.protocol().estimated_loss(l01).unwrap().value() > 0.1);
    }

    #[test]
    fn crash_only_silence_is_undone_on_the_link_after_reconcile() {
        // b never sends for a while (crashed — its seq does not advance),
        // then resumes: the link's timeout-time decreases are exactly
        // undone because no sequence gap appears.
        let all = vec![p(0), p(1)];
        let mut a = timed(AdaptiveBroadcast::new(
            p(0),
            all.clone(),
            vec![p(1)],
            params(),
        ));
        let mut b = timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], params()));
        let l01 = LinkId::new(p(0), p(1)).unwrap();
        let mut actions = Actions::new();

        // Healthy warm-up.
        for t in 1..=30u64 {
            let now = SimTime::new(t);
            a.fire_due(now, &mut actions);
            for (_, m) in actions.take_sends() {
                b.handle_message(now, p(0), m, &mut actions);
            }
            actions.clear();
            b.fire_due(now, &mut actions);
            for (_, m) in actions.take_sends() {
                a.handle_message(now, p(1), m, &mut actions);
            }
            actions.clear();
        }
        let healthy = a.protocol().estimated_loss(l01).unwrap().value();

        // b silent (crashed) for 15 periods: a suspects, link degrades.
        for t in 31..=45u64 {
            a.fire_due(SimTime::new(t), &mut actions);
            actions.clear();
        }
        let during = a.protocol().estimated_loss(l01).unwrap().value();
        assert!(during > healthy, "{healthy} → {during}");

        // b resumes; its seq advanced by 0 while down (it sent nothing).
        b.fire_due(SimTime::new(46), &mut actions);
        let now = SimTime::new(46);
        for (_, m) in actions.take_sends() {
            a.handle_message(now, p(1), m, &mut actions);
        }
        let after = a.protocol().estimated_loss(l01).unwrap().value();
        assert!(
            after < healthy + 0.02,
            "exact undo must clear crash-only suspicions ({healthy} → {during} → {after})"
        );
    }

    #[test]
    fn seq_gaps_blame_the_link() {
        let all = vec![p(0), p(1)];
        let mut a = timed(AdaptiveBroadcast::new(
            p(0),
            all.clone(),
            vec![p(1)],
            params(),
        ));
        let mut b = timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], params()));
        let l01 = LinkId::new(p(0), p(1)).unwrap();

        let mut actions = Actions::new();
        let mut drop_every = 3u64; // drop every third heartbeat b → a
        let mut dropped = 0u32;
        for t in 1..=90u64 {
            let now = SimTime::new(t);
            a.fire_due(now, &mut actions);
            for (_, m) in actions.take_sends() {
                b.handle_message(now, p(0), m, &mut actions);
                actions.clear();
            }
            b.fire_due(now, &mut actions);
            for (_, m) in actions.take_sends() {
                drop_every -= 1;
                if drop_every == 0 {
                    drop_every = 3;
                    dropped += 1;
                    continue; // lost on the wire
                }
                a.handle_message(now, p(1), m, &mut actions);
                actions.clear();
            }
        }
        assert!(dropped > 20);
        let estimated = a.protocol().estimated_loss(l01).unwrap().value();
        assert!(
            (estimated - 1.0 / 3.0).abs() < 0.12,
            "loss estimate {estimated} should approach 1/3"
        );
    }

    #[test]
    fn events_3_and_4_shape_self_estimate() {
        let all = vec![p(0), p(1)];
        let mut node = timed(AdaptiveBroadcast::new(p(0), all, vec![p(1)], params()));
        let mut actions = Actions::new();
        for t in 1..=50u64 {
            node.fire_due(SimTime::new(t), &mut actions);
            actions.clear();
        }
        let up_only = node.protocol().estimated_crash(p(0)).unwrap().value();
        assert!(up_only < 0.05, "all-up self estimate {up_only}");

        // A 50-tick outage halves the observed uptime.
        node.handle_recovery(SimTime::new(101), 50, &mut actions);
        let after_crash = node.protocol().estimated_crash(p(0)).unwrap().value();
        assert!(
            after_crash > up_only,
            "downtime must raise the crash estimate"
        );
        assert!((after_crash - 0.5).abs() < 0.15, "estimate {after_crash}");
    }

    #[test]
    fn broadcast_requires_complete_topology_then_works() {
        let (mut a, mut b, mut c) = line3();
        let mut actions = Actions::new();
        assert!(matches!(
            a.broadcast(SimTime::ZERO, Payload::from("x"), &mut actions),
            Err(CoreError::KnowledgeIncomplete)
        ));

        for t in 1..=30u64 {
            exchange(&mut [&mut a, &mut b, &mut c], SimTime::new(t));
        }
        let id = a
            .broadcast(SimTime::new(31), Payload::from("x"), &mut actions)
            .unwrap();
        assert_eq!(id.origin, p(0));
        // All copies go to the line's next hop.
        assert!(actions.sends().iter().all(|(to, _)| *to == p(1)));
        assert!(!actions.sends().is_empty());

        // Deliver one copy at b: it forwards toward c.
        let (_, m) = actions.take_sends()[0].clone();
        let mut b_actions = Actions::new();
        b.handle_message(SimTime::new(32), p(0), m, &mut b_actions);
        assert_eq!(b.protocol().delivered().len(), 1);
        assert!(b_actions.sends().iter().all(|(to, _)| *to == p(2)));
    }

    #[test]
    fn failed_broadcast_spends_no_id_and_marks_nothing_seen() {
        let (mut a, mut b, mut c) = line3();
        for t in 1..=30u64 {
            exchange(&mut [&mut a, &mut b, &mut c], SimTime::new(t));
        }
        // Belief means stay below 1, so the reachable failure past
        // `KnowledgeIncomplete` is the target itself: K = 1 is rejected
        // by `optimize` (as a believed λ = 1 would be), after the tree
        // is built.
        let k = a.protocol().params.target_reliability;
        a.protocol_mut().params.target_reliability = 1.0;
        let mut actions = Actions::new();
        assert!(matches!(
            a.broadcast(SimTime::new(31), Payload::from("x"), &mut actions),
            Err(CoreError::InvalidTarget(_))
        ));
        assert!(actions.is_empty());
        let first = BroadcastId {
            origin: p(0),
            seq: 0,
        };
        assert!(!a.protocol().seen.contains(&first));

        a.protocol_mut().params.target_reliability = k;
        let id = a
            .broadcast(SimTime::new(32), Payload::from("x"), &mut actions)
            .unwrap();
        assert_eq!(id, first);
    }

    #[test]
    fn broadcast_event_failures_are_counted_not_propagated() {
        // Event::Broadcast is fire-and-forget: with incomplete topology
        // knowledge the request fails into the error counter instead of
        // returning an error the (absent) caller could handle.
        let mut node = AdaptiveBroadcast::new(p(0), vec![p(0), p(1), p(2)], vec![p(1)], params());
        let mut actions = Actions::new();
        node.on_event(
            SimTime::new(1),
            Event::Broadcast(Payload::from("too early")),
            &mut actions,
        );
        assert_eq!(node.error_count(), 1);
        assert!(actions.deliveries().is_empty());
    }

    #[test]
    fn heartbeats_from_strangers_are_ignored() {
        let all = vec![p(0), p(1), p(2)];
        let mut node = AdaptiveBroadcast::new(all[0], all.clone(), vec![p(1)], params());
        let view = Arc::new(node.view());
        let mut actions = Actions::new();
        node.handle_message(
            SimTime::new(1),
            p(2), // not a neighbor
            Message::Heartbeat(HeartbeatMessage {
                seq: 1,
                ack: 0,
                view,
            }),
            &mut actions,
        );
        assert_eq!(node.error_count(), 1);
    }

    #[test]
    fn duplicate_heartbeat_seq_is_idempotent() {
        let all = vec![p(0), p(1)];
        let mut a = AdaptiveBroadcast::new(p(0), all.clone(), vec![p(1)], params());
        let b = AdaptiveBroadcast::new(p(1), all, vec![p(0)], params());
        let view = Arc::new(b.view());
        let mut actions = Actions::new();
        let hb = Message::Heartbeat(HeartbeatMessage {
            seq: 1,
            ack: 0,
            view,
        });
        a.handle_message(SimTime::new(1), p(1), hb.clone(), &mut actions);
        let after_first = a.estimated_loss(LinkId::new(p(0), p(1)).unwrap()).unwrap();
        a.handle_message(SimTime::new(1), p(1), hb, &mut actions);
        let after_second = a.estimated_loss(LinkId::new(p(0), p(1)).unwrap()).unwrap();
        assert_eq!(after_first, after_second);
    }

    #[test]
    fn recovery_excuses_missed_heartbeats() {
        let all = vec![p(0), p(1)];
        let mut a = timed(AdaptiveBroadcast::new(
            p(0),
            all.clone(),
            vec![p(1)],
            params(),
        ));
        let mut b = timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], params()));
        let l01 = LinkId::new(p(0), p(1)).unwrap();

        let mut actions = Actions::new();
        // Healthy warm-up.
        for t in 1..=30u64 {
            let now = SimTime::new(t);
            a.fire_due(now, &mut actions);
            for (_, m) in actions.take_sends() {
                b.handle_message(now, p(0), m, &mut actions);
            }
            actions.clear();
            b.fire_due(now, &mut actions);
            for (_, m) in actions.take_sends() {
                a.handle_message(now, p(1), m, &mut actions);
            }
            actions.clear();
        }
        let healthy = a.protocol().estimated_loss(l01).unwrap().value();

        // a is down for ticks 31–50: b keeps sending (messages vanish),
        // b's seq advances by 20.
        for t in 31..=50u64 {
            b.fire_due(SimTime::new(t), &mut actions);
            actions.clear();
        }
        a.handle_recovery(SimTime::new(51), 20, &mut actions);
        actions.clear();
        // Next heartbeat from b arrives with a 20-gap; all excused.
        b.fire_due(SimTime::new(51), &mut actions);
        let sends = actions.take_sends();
        let now = SimTime::new(51);
        for (_, m) in sends {
            a.handle_message(now, p(1), m, &mut actions);
        }
        let after = a.protocol().estimated_loss(l01).unwrap().value();
        assert!(
            after <= healthy + 0.02,
            "own downtime must not poison the link estimate ({healthy} → {after})"
        );
    }

    /// First contact is the whole view (base 0), and the sender keeps
    /// sending base 0 only until the receiver's first ack comes back:
    /// from then on every emission is a delta, also while `Λ_k` grows. On the line
    /// `0 — 1 — 2 — 3`, p0 learns link 1–2 at t1 and link 2–3 at t2, and
    /// p1's first ack reaches it at t2.
    #[test]
    fn first_contact_is_full_then_deltas() {
        let all: Vec<ProcessId> = (0..4).map(p).collect();
        let mut nodes: Vec<Timed> = (0..4u32)
            .map(|i| {
                let neighbors = [i.checked_sub(1), (i < 3).then_some(i + 1)];
                let neighbors = neighbors.into_iter().flatten().map(p).collect();
                timed(AdaptiveBroadcast::new(
                    p(i),
                    all.clone(),
                    neighbors,
                    params(),
                ))
            })
            .collect();
        let mut actions = Actions::new();
        let mut link_counts = Vec::new();
        for t in 1..=8u64 {
            let now = SimTime::new(t);
            let mut pending = Vec::new();
            for node in nodes.iter_mut() {
                node.fire_due(now, &mut actions);
                let from = node.protocol().id();
                pending.extend(
                    actions
                        .take_sends()
                        .into_iter()
                        .map(|(to, m)| (from, to, m)),
                );
                actions.clear();
            }
            for (from, to, m) in pending {
                if (from, to) == (p(0), p(1)) {
                    let Message::Heartbeat(hb) = &m else {
                        panic!("adaptive nodes only heartbeat")
                    };
                    let full = hb.view.base == 0;
                    assert_eq!(full, t <= 2, "tick {t}: full {full}");
                    if t == 3 {
                        let l23 = LinkId::new(p(2), p(3)).unwrap();
                        assert!(hb.view.link_offer(l23).is_some(), "the new link rides");
                    }
                }
                let node = nodes.iter_mut().find(|n| n.protocol().id() == to);
                node.unwrap().handle_message(now, from, m, &mut actions);
                actions.clear();
            }
            link_counts.push(nodes[0].protocol().known_topology().link_count());
        }
        // Not vacuous: p0's Λ_k grew after p1's first ack came back.
        assert_eq!(link_counts[..3], [2, 3, 3]);
        assert!(nodes[0].protocol().topology_complete());
        assert!(nodes.iter().all(|n| n.protocol().error_count() == 0));
    }

    /// A link the sender learned after first contact reaches the receiver
    /// in a delta and is learned there as a whole view would learn it:
    /// added to `Λ_k`, adopted at the offered distortion + 1, and
    /// counted once. On the line `0 — 1 — 2` every view p1 sends carries
    /// link 1–2, its own direct link; so here p0's first contact is p1's
    /// full view with that entry cut, standing for a sender that learned
    /// the link later.
    #[test]
    fn a_new_link_rides_a_delta() {
        let (mut a, mut b, mut c) = line3();
        // Batch 1: every heartbeat from p2 moves p1's estimate of link
        // 1–2, so every delta p1 cuts carries it.
        let pr = params().with_evidence_batch(1);
        b.protocol_mut().params = pr.clone();
        c.protocol_mut().params = pr;
        let l12 = LinkId::new(p(1), p(2)).unwrap();
        // p1's heartbeat to p0 at tick `t`, after p2's has reached p1.
        let from_b = |b: &mut Timed, c: &mut Timed, t: u64| {
            let now = SimTime::new(t);
            let mut actions = Actions::new();
            c.fire_due(now, &mut actions);
            for (_, m) in actions.take_sends() {
                b.handle_message(now, p(2), m, &mut actions);
            }
            actions.clear();
            b.fire_due(now, &mut actions);
            let sends = actions.take_sends();
            let (_, Message::Heartbeat(hb)) =
                sends.into_iter().find(|(to, _)| *to == p(0)).unwrap()
            else {
                panic!("adaptive nodes only heartbeat")
            };
            hb
        };
        let mut actions = Actions::new();

        let mut first = from_b(&mut b, &mut c, 1);
        assert_eq!(first.view.base, 0, "first contact is the whole view");
        let mut cut = View::clone(&first.view);
        cut.links.retain(|(l, _)| *l != l12);
        first.view = Arc::new(cut);
        a.handle_message(
            SimTime::new(1),
            p(1),
            Message::Heartbeat(first),
            &mut actions,
        );
        assert!(a.protocol().link_estimate(l12).is_none());
        // p0's ack of that view reaches p1.
        let ack = heartbeat_from(&mut a, 1);
        b.handle_message(SimTime::new(1), p(0), ack, &mut actions);
        actions.clear();

        let mut next = from_b(&mut b, &mut c, 2);
        assert!(next.view.base > 0, "after the ack, p1 sends deltas");
        let offered = *next
            .view
            .link_offer(l12)
            .expect("the delta carries link 1–2");
        // Only the new link, so the tally moves for it alone.
        let mut only = View::clone(&next.view);
        only.processes.clear();
        only.links.retain(|(l, _)| *l == l12);
        next.view = Arc::new(only);
        let before = a.protocol().audit().per_sender[&p(1)];
        a.handle_message(
            SimTime::new(2),
            p(1),
            Message::Heartbeat(next),
            &mut actions,
        );

        let node = a.protocol();
        assert_eq!(node.error_count(), 0);
        assert!(node.known_topology().contains_link(l12));
        assert!(node.topology_complete());
        let learned = node.link_estimate(l12).expect("learned from the delta");
        assert_eq!(learned.distortion(), offered.distortion().incremented());
        assert_eq!(
            (learned.beliefs().failures(), learned.beliefs().successes()),
            (offered.failures(), offered.successes())
        );
        let after = node.audit().per_sender[&p(1)];
        assert_eq!(after.offered, before.offered + 1);
        assert_eq!(after.adopted, before.adopted + 1);
    }

    /// Frame entries and mirror entries are held by value, one per view
    /// entry per neighbor, so their size is memory: whole `Estimate`s in
    /// frames (48 bytes) measured +24 % `peak_rss_mb` on the whole-run
    /// `adaptive_churn_n100` workload, whose bound is 10 %. A mirror
    /// entry is also the stride of every delta merge's walk: 24-byte
    /// offers made converged heartbeat rounds slower than the 16-byte
    /// `Arc` handles they replaced.
    #[test]
    fn offers_fit_in_16_bytes_and_link_mirror_entries_in_40() {
        assert!(std::mem::size_of::<Offer>() <= 16);
        assert!(std::mem::size_of::<MirrorEntry<LinkId>>() <= 40);
    }

    /// The mirror copies a delta's offers out: once merged, the frame is
    /// held by nobody but its sender.
    #[test]
    fn a_merged_delta_keeps_no_reference_to_its_frame() {
        let (mut a, mut b) = pair(params());
        for t in 1..=5u64 {
            exchange(&mut [&mut a, &mut b], SimTime::new(t));
        }
        let heartbeat = heartbeat_from(&mut a, 6);
        let Message::Heartbeat(HeartbeatMessage { view: delta, .. }) = &heartbeat else {
            panic!("adaptive nodes only heartbeat")
        };
        assert!(delta.base > 0, "steady state rides deltas");
        let held = Arc::clone(delta);
        let mut actions = Actions::new();
        b.handle_message(SimTime::new(6), p(0), heartbeat, &mut actions);
        assert_eq!(b.protocol().error_count(), 0, "the delta was merged");
        assert_eq!(Arc::strong_count(&held), 1);
    }

    /// A frame naming a process outside the membership — as a process
    /// key, as one link endpoint or as both — is merged without those
    /// entries, whatever its base: skipped, not counted as an error.
    /// Learned, such a link would make the topology incomplete for good
    /// and every later broadcast fail.
    #[test]
    fn a_frame_naming_a_foreign_process_skips_the_entry() {
        let (mut a, mut b) = pair(params());
        for t in 1..=5u64 {
            exchange(&mut [&mut a, &mut b], SimTime::new(t));
        }
        let errors = b.protocol().error_count();
        let mut actions = Actions::new();
        for (t, whole) in [(6, true), (7, false)] {
            let mut view = a.protocol().view();
            view.generation += 100;
            if !whole {
                view.base = b.protocol().ack_for(0);
                assert!(view.base > 0);
            }
            let offer = Estimate::first_hand(100).offer();
            view.processes.push((p(99), offer));
            for (lo, hi) in [(1, 99), (98, 99)] {
                view.links.push((LinkId::new(p(lo), p(hi)).unwrap(), offer));
            }
            let generation = view.generation;
            let Message::Heartbeat(mut hostile) = heartbeat_from(&mut a, t) else {
                panic!("expected heartbeat")
            };
            hostile.view = Arc::new(view);
            b.handle_message(
                SimTime::new(t),
                p(0),
                Message::Heartbeat(hostile),
                &mut actions,
            );
            actions.clear();
            let node = b.protocol();
            assert_eq!(node.error_count(), errors, "base 0: {whole}");
            assert_eq!(node.ack_for(0), generation, "the frame was merged");
            assert_eq!(node.known_topology().process_count(), 2);
            assert_eq!(node.known_topology().link_count(), 1);
            assert!(node.topology_complete());
        }
        b.broadcast(SimTime::new(8), Payload::from("x"), &mut actions)
            .expect("a foreign process cannot block broadcasting");
    }

    /// A base-0 frame is the sender's whole view, so a link it lacks is
    /// dropped from the mirror, not kept from the frames before. On the
    /// line `0 — 1 — 2`, p0's mirror of p1 holds link 1–2 until p1's
    /// base-0 frame without it arrives; then p0's estimate of the link
    /// moves (here: its distortion is lost), and the next delta from p1,
    /// which carries nothing, re-evaluates nothing — a kept entry would
    /// have been re-evaluated and re-adopted.
    #[test]
    fn a_whole_view_drops_the_links_it_lacks_from_the_mirror() {
        let l12 = LinkId::new(p(1), p(2)).unwrap();
        let run = |cut: bool| {
            let (mut a, mut b, mut c) = line3();
            for t in 1..=10u64 {
                exchange(&mut [&mut a, &mut b, &mut c], SimTime::new(t));
            }
            let sender = b.protocol();
            let (seq, generation) = (sender.my_seq, sender.emission.generation);
            let mut whole = sender.view();
            if cut {
                whole.links.retain(|(l, _)| *l != l12);
            }
            let empty = View {
                generation: generation + 1,
                base: generation,
                processes: Vec::new(),
                links: Vec::new(),
            };
            let node = a.protocol_mut();
            let mut actions = Actions::new();
            for (i, view) in [whole, empty].into_iter().enumerate() {
                let heartbeat = HeartbeatMessage {
                    seq: seq + 1 + i as u64,
                    ack: 0,
                    view: Arc::new(view),
                };
                node.handle_message(
                    SimTime::new(11),
                    p(1),
                    Message::Heartbeat(heartbeat),
                    &mut actions,
                );
                if i == 0 {
                    let mirror = node.mirrors[0].as_ref().expect("merged");
                    let held = mirror.links.iter().any(|e| e.key == l12);
                    assert_eq!(held, !cut);
                    let slot = node.link_index[&l12] as usize;
                    node.links[slot].set_distortion(Distortion::Infinite);
                }
            }
            assert_eq!(node.error_count(), 0);
            node.link_estimate(l12).unwrap().distortion()
        };
        assert_eq!(run(false), Distortion::finite(1), "a kept entry re-adopts");
        assert!(run(true).is_infinite(), "a dropped entry is not evaluated");
    }

    /// After every merge a mirror is the view its sender emitted at the
    /// mirrored generation, entry for entry, less the receiver's own
    /// process entry — on a relabelled line (slot ≠ id, links learned out
    /// of key order) and on a ring, with a third of the heartbeats lost.
    /// This pins the walk and the learn pass on their own, without the
    /// whole-view twin run that shares the merge with them.
    #[test]
    fn a_mirror_is_the_view_it_acknowledged() {
        use rand::{Rng, SeedableRng};

        let line: Vec<u32> = vec![7, 22, 13, 4, 19, 10];
        let ring: Vec<u32> = (0..6).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for (ids, closed) in [(line, false), (ring, true)] {
            let k = ids.len();
            let all: Vec<ProcessId> = ids.iter().copied().map(p).collect();
            let mut nodes: Vec<AdaptiveBroadcast> = (0..k)
                .map(|i| {
                    let mut neighbors = Vec::new();
                    if i > 0 || closed {
                        neighbors.push(all[(i + k - 1) % k]);
                    }
                    if i + 1 < k || closed {
                        neighbors.push(all[(i + 1) % k]);
                    }
                    AdaptiveBroadcast::new(all[i], all.clone(), neighbors, params())
                })
                .collect();
            let mut emitted: BTreeMap<(ProcessId, u64), View> = BTreeMap::new();
            let mut checked = 0;
            let mut actions = Actions::new();
            for t in 1..=60u64 {
                let now = SimTime::new(t);
                let mut pending = Vec::new();
                for node in nodes.iter_mut() {
                    for timer in [
                        AdaptiveBroadcast::HEARTBEAT,
                        AdaptiveBroadcast::SUSPICION,
                        AdaptiveBroadcast::SELF_TICK,
                    ] {
                        node.on_event(now, Event::Timer(timer), &mut actions);
                        if timer == AdaptiveBroadcast::HEARTBEAT {
                            emitted.insert((node.id, node.emission.generation), node.view());
                        }
                    }
                    let from = node.id;
                    pending.extend(
                        actions
                            .take_sends()
                            .into_iter()
                            .map(|(to, m)| (from, to, m)),
                    );
                    actions.clear();
                }
                for (from, to, m) in pending {
                    if rng.gen_bool(1.0 / 3.0) {
                        continue;
                    }
                    let node = nodes.iter_mut().find(|n| n.id == to).unwrap();
                    node.handle_message(now, from, m, &mut actions);
                    actions.clear();
                    let n = node.neighbors.iter().position(|&q| q == from).unwrap();
                    let Some(mirror) = &node.mirrors[n] else {
                        continue;
                    };
                    let view = &emitted[&(from, mirror.generation)];
                    let mirrored = mirror.processes.iter().map(|e| (e.key, e.value));
                    let expected = view.processes.iter().filter(|(q, _)| *q != to);
                    assert!(mirrored.eq(expected.copied()), "t{t}: {from:?} → {to:?}");
                    let mirrored = mirror.links.iter().map(|e| (e.key, e.value));
                    assert!(
                        mirrored.eq(view.links.iter().copied()),
                        "t{t}: {from:?} → {to:?}"
                    );
                    checked += 1;
                }
            }
            assert!(checked > 300, "{checked} merges checked");
            assert!(nodes
                .iter()
                .all(|n| n.topology_complete() && n.error_count() == 0));
        }
    }

    /// A delta whose base the receiver never reached is dropped without
    /// corrupting state, and a subsequent whole view recovers.
    #[test]
    fn inapplicable_delta_is_dropped_and_full_view_recovers() {
        let all = vec![p(0), p(1)];
        let a = AdaptiveBroadcast::new(p(0), all.clone(), vec![p(1)], params());
        let mut b = AdaptiveBroadcast::new(p(1), all, vec![p(0)], params());
        let mut actions = Actions::new();

        // A hand-crafted delta with an impossible base: b has no mirror
        // of a at all yet.
        let bogus = Message::Heartbeat(HeartbeatMessage {
            seq: 1,
            ack: 0,
            view: Arc::new(View {
                generation: 9,
                base: 7,
                processes: vec![(p(0), Estimate::first_hand(100).offer())],
                links: Vec::new(),
            }),
        });
        b.handle_message(SimTime::new(1), p(0), bogus, &mut actions);
        actions.clear();
        assert_eq!(b.error_count(), 1, "delta without a mirror is dropped");
        // The estimate merge was skipped: a's self-estimate is still
        // unknown to b.
        assert!(b.process_estimate(p(0)).unwrap().distortion().is_infinite());

        // A whole view (what a conformant sender falls back to) heals it.
        let view = Arc::new(a.view());
        b.handle_message(
            SimTime::new(2),
            p(0),
            Message::Heartbeat(HeartbeatMessage {
                seq: 2,
                ack: 0,
                view,
            }),
            &mut actions,
        );
        assert_eq!(
            b.process_estimate(p(0)).unwrap().distortion(),
            Distortion::finite(1)
        );
    }

    /// Right after an emission, the naively built `view()` and the
    /// copy-on-write cache the heartbeats were cut from are the same
    /// view, its links ascending by id — every round of a run where both
    /// keep moving. On the relabelled line `7 — 2 — 0`, p7 learns link
    /// `0–2` after its direct link `2–7`: slot order is not key order,
    /// and the cache inserts in front of an entry it already holds.
    #[test]
    fn view_equals_the_emission_cache_right_after_an_emission() {
        let (a, b, c) = line3();
        let relabelled =
            [(7, vec![p(2)]), (2, vec![p(7), p(0)]), (0, vec![p(2)])].map(|(id, n)| {
                timed(AdaptiveBroadcast::new(
                    p(id),
                    vec![p(7), p(2), p(0)],
                    n,
                    params(),
                ))
            });
        // Per run: node 0's link slots, in ascending link id order.
        for (mut nodes, slots) in [([a, b, c], [0, 1]), (relabelled, [1, 0])] {
            let mut actions = Actions::new();
            for t in 1..=40u64 {
                let now = SimTime::new(t);
                let mut pending = Vec::new();
                for node in nodes.iter_mut() {
                    let node = node.protocol_mut();
                    for timer in [
                        AdaptiveBroadcast::HEARTBEAT,
                        AdaptiveBroadcast::SUSPICION,
                        AdaptiveBroadcast::SELF_TICK,
                    ] {
                        node.on_event(now, Event::Timer(timer), &mut actions);
                        if timer == AdaptiveBroadcast::HEARTBEAT {
                            let cached = &node.emission.view;
                            assert_eq!(node.emission.generation, t);
                            assert_eq!(node.view(), **cached, "tick {t}");
                            assert!(cached.links.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                    }
                    let from = node.id();
                    pending.extend(
                        actions
                            .take_sends()
                            .into_iter()
                            .map(|(to, m)| (from, to, m)),
                    );
                    actions.clear();
                }
                for (from, to, m) in pending {
                    let to = nodes.iter_mut().find(|n| n.protocol().id() == to);
                    to.unwrap().handle_message(now, from, m, &mut actions);
                    actions.clear();
                }
            }
            // Not vacuous: the views grew past first contact.
            let learned = nodes[0].protocol().link_index.values().copied();
            assert!(learned.eq(slots));
        }
    }

    /// `AdaptiveParams`' fields are public, so a struct literal skips the
    /// builders' clamps; the node applies them itself. Zero periods and
    /// an over-wide batch behave exactly as the builders would have
    /// made them — through a recovery, which used to divide by the
    /// self-tick period.
    #[test]
    fn struct_literal_params_get_the_builders_clamps() {
        let literal = AdaptiveParams {
            heartbeat_period: 0,
            self_tick_period: 0,
            evidence_batch: 64,
            ..params()
        };
        let built = params()
            .with_heartbeat_period(0)
            .with_self_tick_period(0)
            .with_evidence_batch(64);
        let run = |pr: AdaptiveParams| {
            let all = vec![p(0), p(1)];
            let mut a = timed(AdaptiveBroadcast::new(
                p(0),
                all.clone(),
                vec![p(1)],
                pr.clone(),
            ));
            let mut b = timed(AdaptiveBroadcast::new(p(1), all, vec![p(0)], pr));
            for t in 1..=40u64 {
                exchange(&mut [&mut a, &mut b], SimTime::new(t));
            }
            a.handle_recovery(SimTime::new(50), 9, &mut Actions::new());
            for t in 50..=90u64 {
                exchange(&mut [&mut a, &mut b], SimTime::new(t));
            }
            [a, b].map(|node| {
                let node = node.protocol();
                let state = |e: &Estimate| (*e.beliefs(), e.distortion());
                let processes = node.peers.iter().map(|r| state(&r.estimate));
                let links = node.links_by_key().map(|(_, e)| state(e));
                (
                    node.params().clone(),
                    node.heartbeats_sent(),
                    processes.chain(links).collect::<Vec<_>>(),
                )
            })
        };
        assert_eq!(run(literal), run(built));
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_intervals_are_rejected_at_construction() {
        let pr = AdaptiveParams {
            intervals: 0,
            ..params()
        };
        let _ = AdaptiveBroadcast::new(p(0), vec![p(0)], vec![], pr);
    }

    /// The scan-time schedule is insert-only: superseded times stay
    /// until they expire, times dedup, and arming reads the earliest
    /// scheduled time.
    #[test]
    fn deadline_schedule_is_insert_only_and_self_expiring() {
        let mut queue = DeadlineQueue::default();
        queue.insert(SimTime::new(5));
        queue.insert(SimTime::new(5)); // dedup
        queue.insert(SimTime::new(10));
        assert_eq!(queue.earliest(), Some(SimTime::new(5)));
        // Expiring at 7 consumes the (possibly superseded) time 5 and
        // reports that a scan is warranted; 10 remains scheduled.
        assert!(queue.expire(SimTime::new(7)));
        assert!(!queue.expire(SimTime::new(7)));
        assert_eq!(queue.earliest(), Some(SimTime::new(10)));
        assert!(queue.expire(SimTime::new(10)));
        assert_eq!(queue.earliest(), None);
    }
}
