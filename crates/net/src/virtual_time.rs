//! The virtual-time authority: deterministic execution of the fabric.
//!
//! Under a [`VirtualClock`], node threads do not sleep on their
//! transports. Each thread parks on a shared [`VirtualNet`] — a
//! barrier-style time authority — and executes *turns* the authority
//! grants one at a time: deliver this frame, fire this timer, recover
//! from this crash, issue this broadcast. Virtual time only advances
//! when every runtime is quiescent (parked with an empty inbox, waiting
//! for its next turn), and within a tick the authority grants turns in
//! exactly the simulation kernel's phase order:
//!
//! 1. crash/recovery transitions, in process-id order;
//! 2. deliveries due this tick, in global send order;
//! 3. due timers, in `(process, timer)` order (looping, so timers armed
//!    for the current tick still fire on it);
//! 4. loss-sampling of new sends at send time, in handler order.
//!
//! Because the authority owns the loss RNG and consumes it in the same
//! order the kernel does — batched geometric run-length draws per lossy
//! `(from, to)` cell, consumed at send time per
//! [`diffuse_sim::LossBatcher`]'s documented total order — a fabric run
//! under virtual time is *bit-identical* to the same scenario on
//! [`diffuse_sim::Simulation`]: same per-process delivery counts, same
//! wire [`Metrics`], same everything. That is what
//! `tests/fabric_conformance.rs` asserts.
//!
//! Eventless stretches fast-forward exactly like the kernel: when no
//! delivery or timer is due and no forced outage is counting down, the
//! clock jumps — node threads are never woken, which the idle-runtime
//! test asserts as *zero* wakeups over an idle stretch.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use diffuse_core::{CorruptionMode, Payload, ProtocolAudit, TimerOp};
use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{
    CrashModel, CrashState, LossBatcher, MessageAdversary, Metrics, SimTime, TimerId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use diffuse_core::scenario::Scenario;

use crate::codec::frame_kind;

/// One instruction handed to a parked node thread by the authority.
#[derive(Debug)]
pub(crate) enum Turn {
    /// Run the protocol's `on_start` handler.
    Start,
    /// Deliver one frame (decode it and run the message handler).
    Deliver {
        /// The sending process.
        from: ProcessId,
        /// The encoded frame.
        frame: Vec<u8>,
    },
    /// Fire one due timer.
    Timer(TimerId),
    /// Report recovery from a crash that lasted `down_ticks` ticks.
    Recover {
        /// Length of the outage, in ticks.
        down_ticks: u64,
    },
    /// Attempt to issue a broadcast.
    Broadcast(Payload),
    /// Open a corruption window on the node's protocol stack (the
    /// fabric's `FaultAction::Corrupt` hook).
    Corrupt {
        /// How outgoing heartbeats are rewritten.
        mode: CorruptionMode,
        /// Window length in ticks.
        window: u64,
    },
    /// Report the protocol's audit counters back to the authority
    /// (granted once per node at collection time; runs no handler and
    /// draws no randomness).
    Audit,
}

/// What a broadcast turn produced (see [`VirtualNet::broadcast`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastOutcome {
    /// The broadcast issued; its sends are on the (virtual) wire.
    Issued,
    /// The broadcast could not issue yet for a retryable reason — the
    /// origin is down, unknown, or its topology knowledge is still
    /// incomplete. Scenario drivers retry one tick later, exactly like
    /// the kernel's `ScenarioSim`.
    Deferred,
    /// The broadcast failed non-retryably.
    Failed,
}

/// A frame in virtual flight, ordered by `(arrival time, sequence)` —
/// the kernel's `Flight` on encoded bytes.
#[derive(Debug)]
struct Flight {
    at: SimTime,
    seq: u64,
    from: ProcessId,
    to: ProcessId,
    kind: &'static str,
    frame: Vec<u8>,
}

impl PartialEq for Flight {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Flight {}

impl PartialOrd for Flight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Flight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Per-node scheduling state.
#[derive(Debug)]
struct NodeSlot {
    crash: CrashState,
    /// A granted turn awaiting pickup by the node thread.
    turn: Option<Turn>,
    /// Set by the node thread when the granted turn completed.
    done: bool,
    /// The node thread exited (shutdown, handle drop, or panic); the
    /// authority skips it from now on.
    retired: bool,
    /// Outcome reported by the last broadcast turn.
    outcome: Option<BroadcastOutcome>,
    /// Audit reported by the last audit turn.
    audit: Option<ProtocolAudit>,
}

impl NodeSlot {
    fn new() -> Self {
        NodeSlot {
            crash: CrashState::new(),
            turn: None,
            done: false,
            retired: false,
            outcome: None,
            audit: None,
        }
    }
}

/// The mutable state behind the authority's mutex.
struct VState {
    now: SimTime,
    topology: Topology,
    loss: Configuration,
    link_delay: u64,
    crash_model: CrashModel,
    rng: StdRng,
    /// Batched loss sampling over the authority's stream — the same
    /// cells, same draw order as the kernel's `flush_outbox`.
    loss_runs: LossBatcher,
    /// Scheduled message adversary on its own seeded stream, mirroring
    /// the kernel's field (inactive by default: adversary-free runs
    /// draw nothing from it).
    adversary: MessageAdversary,
    next_seq: u64,
    in_flight: BinaryHeap<Reverse<Flight>>,
    /// Pending timer deadlines, one per `(process, timer)` pair …
    timers: BTreeMap<(ProcessId, TimerId), SimTime>,
    /// … mirrored as a deadline-ordered queue (the kernel's layout).
    timer_queue: BTreeSet<(SimTime, ProcessId, TimerId)>,
    nodes: BTreeMap<ProcessId, NodeSlot>,
    forced_outages: usize,
    metrics: Metrics,
    /// The node currently holding a turn (sends are only legal from it).
    turn_holder: Option<ProcessId>,
    /// Per-destination count of messages scheduled by the current turn:
    /// same-destination bursts within one handler invocation are
    /// staggered one tick apart, as in the kernel.
    stagger: Vec<(ProcessId, u64)>,
    started: bool,
    shutdown: bool,
}

pub(crate) struct VirtualCore {
    state: Mutex<VState>,
    cv: Condvar,
}

impl fmt::Debug for VirtualCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualCore").finish_non_exhaustive()
    }
}

impl VirtualCore {
    fn lock(&self) -> MutexGuard<'_, VState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Sends one encoded frame into the virtual network: link
    /// validation, sent accounting, loss sampling, burst staggering and
    /// arrival scheduling — the kernel's `flush_outbox`, one message at
    /// a time, executed while the sending node holds its turn.
    pub(crate) fn send(&self, from: ProcessId, to: ProcessId, frame: &[u8]) {
        let mut s = self.lock();
        debug_assert_eq!(
            s.turn_holder,
            Some(from),
            "virtual sends must come from the node holding the turn"
        );
        let link = LinkId::new(from, to)
            .ok()
            .filter(|&l| s.topology.contains_link(l));
        let Some(link) = link else {
            s.metrics.record_invalid_batch(1);
            return;
        };
        let kind = frame_kind(frame);
        s.metrics.record_sent_batch(link, kind, 1);
        // The message adversary acts before link loss and consumes no
        // loss draws (it has its own stream), so surviving frames see
        // the exact loss schedule of an adversary-free run — the
        // kernel's flush_outbox order.
        let now = s.now;
        {
            let state = &mut *s;
            if state.adversary.should_suppress(from, now) {
                state.metrics.record_suppressed();
                return;
            }
        }
        let loss = s.loss.loss(link).value();
        if loss > 0.0 {
            // Reborrow the guard so the sampler and generator (disjoint
            // fields) can be borrowed together.
            let state = &mut *s;
            if state.loss_runs.should_drop(from, to, loss, &mut state.rng) {
                state.metrics.record_lost();
                return;
            }
        }
        let stagger = match s.stagger.iter_mut().find(|(p, _)| *p == to) {
            Some((_, n)) => {
                let current = *n;
                *n += 1;
                current
            }
            None => {
                s.stagger.push((to, 1));
                0
            }
        };
        let at = s.now + s.link_delay + stagger;
        let seq = s.next_seq;
        s.next_seq += 1;
        s.in_flight.push(Reverse(Flight {
            at,
            seq,
            from,
            to,
            kind,
            frame: frame.to_vec(),
        }));
    }
}

/// Options for a virtual-time fabric (mirrors the kernel's
/// `SimOptions` minus the seed, which the fabric builder takes
/// directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualOptions {
    /// Message latency in ticks (clamped to at least 1).
    pub link_delay: u64,
    /// How processes crash and recover. Anything but
    /// [`CrashModel::AlwaysUp`] draws per-tick randomness and therefore
    /// disables fast-forwarding, exactly as in the kernel.
    pub crash_model: CrashModel,
}

impl Default for VirtualOptions {
    fn default() -> Self {
        VirtualOptions {
            link_delay: 1,
            crash_model: CrashModel::AlwaysUp,
        }
    }
}

impl VirtualOptions {
    /// The options a [`Scenario`] implies (same fields
    /// `Scenario::sim_options` feeds the kernel).
    pub fn for_scenario(scenario: &Scenario) -> Self {
        VirtualOptions {
            link_delay: scenario.link_delay,
            crash_model: scenario.crash_model,
        }
    }
}

/// The virtual-time authority over one fabric: the driver half.
///
/// Obtained from [`Fabric::build_virtual`](crate::Fabric::build_virtual)
/// together with the per-node transports. The owner of this handle *is*
/// the scheduler: [`VirtualNet::run_ticks`] advances virtual time
/// through the kernel's phase order, [`VirtualNet::broadcast`] issues
/// commands, [`VirtualNet::set_loss`] / [`VirtualNet::force_down`]
/// inject faults. Drive it from a single thread.
///
/// Node threads must be spawned (via
/// [`spawn_node_with_clock`](crate::spawn_node_with_clock) with
/// [`Clock::Virtual`](crate::Clock::Virtual)) before time is advanced —
/// a granted turn blocks until its node picks it up.
#[derive(Debug, Clone)]
pub struct VirtualNet {
    core: Arc<VirtualCore>,
}

impl VirtualNet {
    pub(crate) fn new(
        topology: Topology,
        loss: Configuration,
        seed: u64,
        options: VirtualOptions,
    ) -> Self {
        let nodes = topology
            .processes()
            .map(|id| (id, NodeSlot::new()))
            .collect();
        VirtualNet {
            core: Arc::new(VirtualCore {
                state: Mutex::new(VState {
                    now: SimTime::ZERO,
                    topology,
                    loss,
                    link_delay: options.link_delay.max(1),
                    crash_model: options.crash_model,
                    rng: StdRng::seed_from_u64(seed),
                    loss_runs: LossBatcher::new(),
                    adversary: MessageAdversary::inactive(seed),
                    next_seq: 0,
                    in_flight: BinaryHeap::new(),
                    timers: BTreeMap::new(),
                    timer_queue: BTreeSet::new(),
                    nodes,
                    forced_outages: 0,
                    metrics: Metrics::new(),
                    turn_holder: None,
                    stagger: Vec::new(),
                    started: false,
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    pub(crate) fn core(&self) -> Arc<VirtualCore> {
        Arc::clone(&self.core)
    }

    /// The per-node clock handle to spawn `id`'s runtime with.
    pub fn clock(&self, id: ProcessId) -> VirtualClock {
        VirtualClock {
            core: Arc::clone(&self.core),
            id,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.lock().now
    }

    /// Wire-level metrics so far — the same counters, with the same
    /// values, a kernel run of the same scenario produces.
    pub fn metrics(&self) -> Metrics {
        self.core.lock().metrics.clone()
    }

    /// Returns `true` iff the process is currently up (unknown processes
    /// are down, as in the kernel).
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.core.lock().nodes.get(&id).is_some_and(|n| n.crash.up)
    }

    /// Overrides one link's loss probability for all future sends.
    pub fn set_loss(&self, link: LinkId, p: Probability) {
        self.core.lock().loss.set_loss(link, p);
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection),
    /// with the kernel's exact semantics: commands are refused
    /// immediately, deliveries drop until the recovery tick, timers fire
    /// on it right after the recovery event.
    pub fn force_down(&self, id: ProcessId, ticks: u64) {
        if ticks == 0 {
            return;
        }
        let mut s = self.core.lock();
        let state = &mut *s;
        if let Some(node) = state.nodes.get_mut(&id) {
            if node.crash.forced_down_remaining == 0 {
                state.forced_outages += 1;
            }
            node.crash.force_down(ticks);
        }
    }

    /// (Re)configures the scheduled message adversary — the kernel's
    /// `Simulation::set_message_adversary` with the same private
    /// stream seeding, so adversarial runs stay bit-identical to the
    /// kernel. `d == 0` deactivates it.
    pub fn set_message_adversary(&self, d: u32, window: u64) {
        let mut s = self.core.lock();
        let now = s.now;
        s.adversary.configure(d, window, now);
    }

    /// Emissions destroyed by the message adversary so far.
    pub fn suppressed_by_adversary(&self) -> u64 {
        self.core.lock().adversary.suppressed()
    }

    /// Opens a corruption window on `id`'s protocol stack by granting
    /// it a `Turn::Corrupt` — the fabric's hook for
    /// `FaultAction::Corrupt`. Mirrors the kernel's `Simulation::command`
    /// semantics: starts the net if needed and refuses (returns
    /// `false`, running no handler) when the process is unknown, down,
    /// or retired.
    pub fn inject_corrupt(&self, id: ProcessId, mode: CorruptionMode, window: u64) -> bool {
        self.start();
        {
            let s = self.core.lock();
            match s.nodes.get(&id) {
                None => return false,
                Some(node) if !node.crash.up || node.retired => return false,
                Some(_) => {}
            }
        }
        self.run_turn(id, Turn::Corrupt { mode, window });
        true
    }

    /// Collects `id`'s protocol audit counters by granting an audit
    /// turn (no handler runs, no randomness is drawn). Returns the
    /// all-zero audit for unknown or retired nodes. Call after the run
    /// horizon and before [`VirtualNet::shutdown`].
    pub fn audit(&self, id: ProcessId) -> ProtocolAudit {
        {
            let s = self.core.lock();
            match s.nodes.get(&id) {
                None => return ProtocolAudit::default(),
                Some(node) if node.retired => return ProtocolAudit::default(),
                Some(_) => {}
            }
        }
        self.run_turn(id, Turn::Audit);
        self.core
            .lock()
            .nodes
            .get_mut(&id)
            .and_then(|node| node.audit.take())
            .unwrap_or_default()
    }

    /// Runs every node's `on_start` handler, in process-id order.
    /// Idempotent; [`VirtualNet::run_ticks`] and
    /// [`VirtualNet::broadcast`] call it implicitly, mirroring the
    /// kernel's lazy `ensure_started`.
    pub fn start(&self) {
        let ids: Vec<ProcessId> = {
            let mut s = self.core.lock();
            if s.started {
                return;
            }
            s.started = true;
            s.nodes.keys().copied().collect()
        };
        for id in ids {
            self.run_turn(id, Turn::Start);
        }
    }

    /// Asks `origin` to broadcast `payload` at the current virtual time.
    ///
    /// Returns [`BroadcastOutcome::Deferred`] without running any
    /// handler when the origin is unknown or down (the kernel refuses
    /// commands to down processes the same way).
    pub fn broadcast(&self, origin: ProcessId, payload: Payload) -> BroadcastOutcome {
        self.start();
        {
            let s = self.core.lock();
            match s.nodes.get(&origin) {
                None => return BroadcastOutcome::Deferred,
                Some(node) if !node.crash.up => return BroadcastOutcome::Deferred,
                Some(_) => {}
            }
        }
        self.run_turn(origin, Turn::Broadcast(payload))
            .unwrap_or(BroadcastOutcome::Deferred)
    }

    /// Advances virtual time by `n` ticks, executing the kernel's phase
    /// order at every busy tick and fast-forwarding over eventless
    /// stretches when nothing can observe the difference.
    pub fn run_ticks(&self, n: u64) {
        self.start();
        let end = self.core.lock().now + n;
        loop {
            {
                let mut s = self.core.lock();
                if s.now >= end {
                    break;
                }
                let can_fast_forward =
                    s.forced_outages == 0 && s.crash_model == CrashModel::AlwaysUp;
                if can_fast_forward {
                    let flight = s.in_flight.peek().map(|Reverse(f)| f.at);
                    let timer = s.timer_queue.first().map(|&(at, _, _)| at);
                    let wake = match (flight, timer) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    match wake {
                        Some(at) if at <= end => {
                            if at > s.now + 1 {
                                s.now = SimTime::new(at.ticks() - 1);
                            }
                        }
                        _ => {
                            // Nothing due before the horizon.
                            s.now = end;
                            break;
                        }
                    }
                }
            }
            self.step();
        }
    }

    /// Releases every parked node thread; they exit their turn loops.
    /// Call before joining node handles.
    pub fn shutdown(&self) {
        let mut s = self.core.lock();
        s.shutdown = true;
        self.core.cv.notify_all();
    }

    /// Executes one virtual tick: crash transitions, deliveries in send
    /// order, timers in `(process, timer)` order.
    fn step(&self) {
        // Phase 1: crash/recovery transitions, id order.
        let recovered: Vec<(ProcessId, u64)> = {
            let mut s = self.core.lock();
            s.now += 1;
            let model = s.crash_model;
            let state = &mut *s;
            let mut recovered = Vec::new();
            for (&id, node) in state.nodes.iter_mut() {
                let was_forced = node.crash.forced_down_remaining > 0;
                if let Some(downtime) = node.crash.advance(&model, &mut state.rng) {
                    recovered.push((id, downtime));
                }
                if was_forced && node.crash.forced_down_remaining == 0 {
                    state.forced_outages -= 1;
                }
            }
            recovered
        };
        for (id, down_ticks) in recovered {
            self.run_turn(id, Turn::Recover { down_ticks });
        }

        // Phase 2: deliveries due this tick, in send order.
        loop {
            enum Next {
                Deliver(Flight),
                Dropped,
                Quiet,
            }
            let next = {
                let mut s = self.core.lock();
                let now = s.now;
                match s.in_flight.peek() {
                    Some(Reverse(flight)) if flight.at <= now => {
                        let Reverse(flight) = s.in_flight.pop().expect("peeked");
                        let up = s.nodes.get(&flight.to).is_some_and(|n| n.crash.up);
                        if up {
                            s.metrics.record_delivered(flight.kind);
                            Next::Deliver(flight)
                        } else {
                            s.metrics.record_dropped_receiver_down();
                            Next::Dropped
                        }
                    }
                    _ => Next::Quiet,
                }
            };
            match next {
                Next::Deliver(flight) => {
                    self.run_turn(
                        flight.to,
                        Turn::Deliver {
                            from: flight.from,
                            frame: flight.frame,
                        },
                    );
                }
                Next::Dropped => continue,
                Next::Quiet => break,
            }
        }

        // Phase 3: timers due this tick, in (process, timer) order,
        // looping so timers armed for the current tick still fire on it.
        loop {
            let mut due: Vec<(ProcessId, TimerId)> = {
                let s = self.core.lock();
                let now = s.now;
                let mut due = Vec::new();
                for &(at, id, timer) in s.timer_queue.iter() {
                    if at > now {
                        break;
                    }
                    if s.nodes.get(&id).is_some_and(|n| n.crash.up) {
                        due.push((id, timer));
                    }
                }
                due
            };
            if due.is_empty() {
                return;
            }
            due.sort_unstable();
            for (id, timer) in due {
                // An earlier handler in this pass may have cancelled or
                // re-armed the timer; fire only if it is still due.
                let still_due = {
                    let mut s = self.core.lock();
                    match s.timers.get(&(id, timer)) {
                        Some(&at) if at <= s.now => {
                            s.timers.remove(&(id, timer));
                            s.timer_queue.remove(&(at, id, timer));
                            true
                        }
                        _ => false,
                    }
                };
                if still_due {
                    self.run_turn(id, Turn::Timer(timer));
                }
            }
        }
    }

    /// Grants `turn` to `id` and blocks until the node thread completed
    /// it (or retired). Returns the broadcast outcome, if any.
    fn run_turn(&self, id: ProcessId, turn: Turn) -> Option<BroadcastOutcome> {
        let mut s = self.core.lock();
        {
            let node = s.nodes.get_mut(&id)?;
            if node.retired {
                return None;
            }
            debug_assert!(node.turn.is_none() && !node.done, "one turn at a time");
            node.turn = Some(turn);
            node.outcome = None;
        }
        s.turn_holder = Some(id);
        s.stagger.clear();
        self.core.cv.notify_all();
        loop {
            {
                let node = s.nodes.get(&id).expect("registered above");
                if node.done || node.retired {
                    break;
                }
            }
            s = self
                .core
                .cv
                .wait(s)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        s.turn_holder = None;
        let node = s.nodes.get_mut(&id).expect("registered above");
        node.done = false;
        node.turn = None; // a retired node may never have picked it up
        node.outcome.take()
    }
}

/// A node's handle onto the virtual-time authority — the
/// [`Clock::Virtual`](crate::Clock::Virtual) payload.
///
/// Cheap to clone; all clones refer to the same [`VirtualNet`].
#[derive(Debug, Clone)]
pub struct VirtualClock {
    core: Arc<VirtualCore>,
    id: ProcessId,
}

impl VirtualClock {
    /// The process this clock belongs to.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.lock().now
    }

    /// Parks until the authority grants this node a turn. Returns `None`
    /// on shutdown or retirement — the runtime exits its loop.
    pub(crate) fn next_turn(&self) -> Option<Turn> {
        let mut s = self.core.lock();
        loop {
            if s.shutdown {
                return None;
            }
            let node = s.nodes.get_mut(&self.id)?;
            if node.retired {
                return None;
            }
            if let Some(turn) = node.turn.take() {
                return Some(turn);
            }
            s = self
                .core
                .cv
                .wait(s)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Reports the granted turn as finished, publishing the timer
    /// operations the handler emitted (applied in emission order, as the
    /// kernel's `apply_timer_ops` does) and, for audit turns, the
    /// protocol's audit counters.
    pub(crate) fn complete_turn(
        &self,
        timer_ops: Vec<TimerOp>,
        outcome: Option<BroadcastOutcome>,
        audit: Option<ProtocolAudit>,
    ) {
        let mut s = self.core.lock();
        for (timer, op) in timer_ops {
            let key = (self.id, timer);
            if let Some(old) = s.timers.remove(&key) {
                s.timer_queue.remove(&(old, self.id, timer));
            }
            if let Some(at) = op {
                s.timers.insert(key, at);
                s.timer_queue.insert((at, self.id, timer));
            }
        }
        if let Some(node) = s.nodes.get_mut(&self.id) {
            node.outcome = outcome;
            if audit.is_some() {
                node.audit = audit;
            }
            node.done = true;
        }
        self.core.cv.notify_all();
    }

    /// Permanently removes this node from scheduling (thread exit or
    /// handle drop). Idempotent.
    pub(crate) fn retire(&self) {
        let mut s = self.core.lock();
        if let Some(node) = s.nodes.get_mut(&self.id) {
            node.retired = true;
        }
        self.core.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn two_node_net() -> VirtualNet {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        VirtualNet::new(topology, Configuration::new(), 7, VirtualOptions::default())
    }

    /// The authority alone (no node threads): time advances, fast
    /// forward lands exactly on the horizon, faults mutate crash state.
    #[test]
    fn time_advances_without_events() {
        let net = two_node_net();
        // Mark nodes retired so start() does not block waiting for
        // threads that were never spawned.
        net.clock(p(0)).retire();
        net.clock(p(1)).retire();
        net.run_ticks(1000);
        assert_eq!(net.now(), SimTime::new(1000));
        assert_eq!(net.metrics(), Metrics::new());
    }

    #[test]
    fn forced_outage_counts_down_with_kernel_semantics() {
        let net = two_node_net();
        net.clock(p(0)).retire();
        net.clock(p(1)).retire();
        net.run_ticks(1); // start + move off tick zero
        net.force_down(p(1), 5);
        assert!(!net.is_up(p(1)));
        net.run_ticks(4);
        assert!(!net.is_up(p(1)), "down through tick 4 of the outage");
        net.run_ticks(1);
        assert!(net.is_up(p(1)), "recovered in tick 5's crash phase");
        assert!(net.is_up(p(0)));
        assert!(!net.is_up(p(9)), "unknown processes report down");
    }

    #[test]
    fn broadcast_to_down_or_unknown_origin_is_deferred_without_a_turn() {
        let net = two_node_net();
        net.clock(p(0)).retire();
        net.clock(p(1)).retire();
        net.force_down(p(0), 3);
        assert_eq!(
            net.broadcast(p(0), Payload::from("x")),
            BroadcastOutcome::Deferred
        );
        assert_eq!(
            net.broadcast(p(9), Payload::from("x")),
            BroadcastOutcome::Deferred
        );
    }
}
