//! The virtual-time authority: deterministic execution of the fabric.
//!
//! Under a [`VirtualClock`], node threads do not sleep on their
//! transports. Each thread parks on a shared [`VirtualNet`] — a
//! barrier-style time authority — and executes *turns* the authority
//! grants one at a time: deliver this frame, fire this timer, recover
//! from this crash, issue this broadcast. Virtual time only advances
//! when every runtime is quiescent (parked, waiting for its next turn).
//!
//! The authority is a driver of the simulation's tick engine: it steps
//! one [`diffuse_sim::Lane`] over encoded frames, and its
//! [`Handler`] — the only thing a lane takes from its driver — grants
//! the turn to the parked node thread and collects the sends and timer
//! operations that turn produced. Phase order, loss sampling, burst
//! staggering, the timer table and fast-forwarding are the lane's, i.e.
//! the very code [`diffuse_sim::Simulation`] runs; node runtimes buffer
//! their sends and flush them after the handler, so sampling loss when
//! the turn completes consumes the RNG in the kernel's order. A fabric
//! run under virtual time is therefore *bit-identical* to the same
//! scenario on the kernel — same per-process delivery counts, same wire
//! [`Metrics`] — and `tests/fabric_conformance.rs` asserts it, which now
//! checks this turn driver (plus codec and runtime) against the inline
//! one rather than one hand-written tick against another.
//!
//! Two locks, never nested the wrong way round: the lane and its
//! environment sit behind the *driver's* lock, taken only by the thread
//! driving the [`VirtualNet`]; the turn hand-off board sits behind its
//! own lock and condition variable, the only state node threads touch.
//!
//! Eventless stretches fast-forward exactly like the kernel: when no
//! delivery or timer is due and no forced outage is counting down, the
//! clock jumps — node threads are never woken, which the idle-runtime
//! test asserts as *zero* wakeups over an idle stretch.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use diffuse_core::{BroadcastOutcome, CorruptionMode, Payload, TimerOp};
use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{
    Effects, Handler, Input, Lane, LaneEnv, Metrics, SimMessage, SimOptions, SimTime, Site, TimerId,
};

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
}

/// An encoded frame on the virtual wire: the lane's message type.
#[derive(Debug, Clone)]
struct Frame(Vec<u8>);

impl SimMessage for Frame {
    fn kind(&self) -> &'static str {
        frame_kind(&self.0)
    }
}

/// Per-node hand-off state.
#[derive(Debug, Default)]
struct NodeSlot {
    /// A granted turn awaiting pickup by the node thread.
    turn: Option<Turn>,
    /// Set by the node thread when the granted turn completed.
    done: bool,
    /// The node thread exited (shutdown, handle drop, or panic); the
    /// authority skips it from now on.
    retired: bool,
    /// Frames the node sent during its current turn, in send order.
    sends: Vec<(ProcessId, Frame)>,
    /// Timer operations reported by the last completed turn.
    timer_ops: Vec<TimerOp>,
    /// Outcome reported by the last broadcast turn.
    outcome: Option<BroadcastOutcome>,
}

/// The turn hand-off board: everything node threads read or write.
struct Board {
    /// Virtual time as of the last granted turn (or finished run).
    now: SimTime,
    /// The node currently holding a turn (sends are only legal from it).
    holder: Option<ProcessId>,
    nodes: BTreeMap<ProcessId, NodeSlot>,
    shutdown: bool,
}

/// The engine state: one lane over frames plus its environment.
struct Driver {
    env: LaneEnv,
    lane: Lane<Frame>,
}

pub(crate) struct VirtualCore {
    driver: Mutex<Driver>,
    board: Mutex<Board>,
    cv: Condvar,
}

impl fmt::Debug for VirtualCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualCore").finish_non_exhaustive()
    }
}

impl VirtualCore {
    fn driver(&self) -> MutexGuard<'_, Driver> {
        self.driver
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn board(&self) -> MutexGuard<'_, Board> {
        self.board
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Buffers one encoded frame sent by the node holding the turn; the
    /// lane validates, loss-samples and schedules it when the turn
    /// completes.
    pub(crate) fn send(&self, from: ProcessId, to: ProcessId, frame: &[u8]) {
        let mut board = self.board();
        debug_assert_eq!(
            board.holder,
            Some(from),
            "virtual sends must come from the node holding the turn"
        );
        if let Some(node) = board.nodes.get_mut(&from) {
            node.sends.push((to, Frame(frame.to_vec())));
        }
    }

    /// Grants `turn` to node `id` at virtual time `now`, blocks until
    /// the node thread completed it (or retired), and moves what the turn
    /// produced into `fx`. Returns the broadcast outcome, if any.
    fn grant(
        &self,
        id: ProcessId,
        now: SimTime,
        turn: Turn,
        fx: &mut Effects<Frame>,
    ) -> Option<BroadcastOutcome> {
        let mut board = self.board();
        {
            let node = board.nodes.get_mut(&id)?;
            if node.retired {
                return None;
            }
            debug_assert!(node.turn.is_none() && !node.done, "one turn at a time");
            node.turn = Some(turn);
            node.outcome = None;
        }
        board.now = now;
        board.holder = Some(id);
        self.cv.notify_all();
        loop {
            let node = &board.nodes[&id];
            if node.done || node.retired {
                break;
            }
            board = self
                .cv
                .wait(board)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        board.holder = None;
        let node = board.nodes.get_mut(&id).expect("registered above");
        node.done = false;
        node.turn = None; // a retired node may never have picked it up
        fx.outbox.append(&mut node.sends);
        fx.timer_ops.append(&mut node.timer_ops);
        node.outcome.take()
    }
}

/// How the authority runs a handler: as a turn on the node's own thread.
struct Turns<'a>(&'a VirtualCore);

impl Handler<Frame> for Turns<'_> {
    fn handle(&mut self, site: Site, input: Input<Frame>, fx: &mut Effects<Frame>) {
        let turn = match input {
            Input::Start => Turn::Start,
            Input::Message { from, message } => Turn::Deliver {
                from,
                frame: message.0,
            },
            Input::Timer(timer) => Turn::Timer(timer),
            Input::Recover { down_ticks } => Turn::Recover { down_ticks },
            // Protocols on the fabric are event-driven; the lane never
            // polls them.
            Input::Tick => return,
        };
        self.0.grant(site.id, site.now, turn, fx);
    }
}

/// The virtual-time authority over one fabric: the driver half.
///
/// Obtained from [`Fabric::build_virtual`](crate::Fabric::build_virtual)
/// together with the per-node transports. The owner of this handle *is*
/// the scheduler: [`VirtualNet::run_ticks`] advances virtual time
/// through the engine's phase order, [`VirtualNet::broadcast`] issues
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
    /// `options` are the engine's own: the seed of its one RNG stream,
    /// the link delay, and the crash model (anything but `AlwaysUp`
    /// draws per-tick randomness and so disables fast-forwarding,
    /// exactly as in the kernel).
    pub(crate) fn new(topology: Topology, loss: Configuration, options: SimOptions) -> Self {
        let ids: Vec<ProcessId> = topology.processes().collect();
        let nodes = ids.iter().map(|&id| (id, NodeSlot::default())).collect();
        VirtualNet {
            core: Arc::new(VirtualCore {
                driver: Mutex::new(Driver {
                    env: LaneEnv {
                        topology,
                        loss,
                        link_delay: options.link_delay.max(1),
                        crash_model: options.crash_model,
                        event_driven: true,
                        boundaries: Vec::new(),
                    },
                    lane: Lane::new(0, 1, ids, options.seed),
                }),
                board: Mutex::new(Board {
                    now: SimTime::ZERO,
                    holder: None,
                    nodes,
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
        self.core.driver().lane.now()
    }

    /// Wire-level metrics so far — the same counters, with the same
    /// values, a kernel run of the same scenario produces.
    pub fn metrics(&self) -> Metrics {
        self.core.driver().lane.metrics().clone()
    }

    /// Returns `true` iff the process is currently up (unknown processes
    /// are down, as in the kernel).
    pub fn is_up(&self, id: ProcessId) -> bool {
        self.core.driver().lane.is_up(id)
    }

    /// Overrides one link's loss probability for all future sends.
    pub fn set_loss(&self, link: LinkId, p: Probability) {
        self.core.driver().env.loss.set_loss(link, p);
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection),
    /// with the kernel's exact semantics: commands are refused
    /// immediately, deliveries drop until the recovery tick, timers fire
    /// on it right after the recovery event.
    pub fn force_down(&self, id: ProcessId, ticks: u64) {
        self.core.driver().lane.force_down(id, ticks);
    }

    /// (Re)configures the scheduled message adversary — the kernel's
    /// `Simulation::set_message_adversary` with the same private
    /// stream seeding, so adversarial runs stay bit-identical to the
    /// kernel. `d == 0` deactivates it.
    pub fn set_message_adversary(&self, d: u32, window: u64) {
        self.core.driver().lane.set_message_adversary(d, window);
    }

    /// Grants `turn` to `id` as an external command, with the kernel's
    /// `Simulation::command` semantics: starts the net if needed and
    /// returns `None` — running no handler — when the process is
    /// unknown, down or retired. Otherwise the turn's sends and timer
    /// operations are applied like any handler's.
    fn command(&self, id: ProcessId, turn: Turn) -> Option<Option<BroadcastOutcome>> {
        self.start();
        if self.core.board().nodes.get(&id).is_some_and(|n| n.retired) {
            return None;
        }
        let mut driver = self.core.driver();
        let Driver { env, lane } = &mut *driver;
        let mut outcome = None;
        lane.command(env, id, |site, fx| {
            outcome = self.core.grant(site.id, site.now, turn, fx);
        })
        .then_some(outcome)
    }

    /// Opens a corruption window on `id`'s protocol stack by granting
    /// it a `Turn::Corrupt` — the fabric's hook for
    /// `FaultAction::Corrupt`. Refuses (returns `false`, running no
    /// handler) when the process is unknown, down, or retired.
    pub fn inject_corrupt(&self, id: ProcessId, mode: CorruptionMode, window: u64) -> bool {
        self.command(id, Turn::Corrupt { mode, window }).is_some()
    }

    /// Runs every node's `on_start` handler, in process-id order.
    /// Idempotent; [`VirtualNet::run_ticks`] and
    /// [`VirtualNet::broadcast`] call it implicitly, mirroring the
    /// kernel's lazy start.
    pub fn start(&self) {
        let mut driver = self.core.driver();
        let Driver { env, lane } = &mut *driver;
        lane.start(env, &mut Turns(&self.core));
    }

    /// Asks `origin` to broadcast `payload` at the current virtual time.
    ///
    /// Returns [`BroadcastOutcome::Deferred`] without running any
    /// handler when the origin is unknown or down (the kernel refuses
    /// commands to down processes the same way).
    pub fn broadcast(&self, origin: ProcessId, payload: Payload) -> BroadcastOutcome {
        self.command(origin, Turn::Broadcast(payload))
            .flatten()
            .unwrap_or(BroadcastOutcome::Deferred)
    }

    /// Advances virtual time by `n` ticks, executing the engine's phase
    /// order at every busy tick and fast-forwarding over eventless
    /// stretches when nothing can observe the difference.
    pub fn run_ticks(&self, n: u64) {
        let mut driver = self.core.driver();
        let Driver { env, lane } = &mut *driver;
        let end = lane.now() + n;
        lane.run_to(env, end, &mut Turns(&self.core));
        self.core.board().now = end;
    }

    /// Releases every parked node thread; they exit their turn loops.
    /// Call before joining node handles.
    pub fn shutdown(&self) {
        self.core.board().shutdown = true;
        self.core.cv.notify_all();
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

    /// Current virtual time: the tick of the turn being executed (or,
    /// between runs, the tick the last run ended on).
    pub fn now(&self) -> SimTime {
        self.core.board().now
    }

    /// Parks until the authority grants this node a turn. Returns `None`
    /// on shutdown or retirement — the runtime exits its loop.
    pub(crate) fn next_turn(&self) -> Option<Turn> {
        let mut board = self.core.board();
        loop {
            if board.shutdown {
                return None;
            }
            let node = board.nodes.get_mut(&self.id)?;
            if node.retired {
                return None;
            }
            if let Some(turn) = node.turn.take() {
                return Some(turn);
            }
            board = self
                .core
                .cv
                .wait(board)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Reports the granted turn as finished, publishing the timer
    /// operations the handler emitted (the lane applies them in emission
    /// order) and, for broadcast turns, the outcome.
    pub(crate) fn complete_turn(&self, timer_ops: Vec<TimerOp>, outcome: Option<BroadcastOutcome>) {
        let mut board = self.core.board();
        if let Some(node) = board.nodes.get_mut(&self.id) {
            node.timer_ops = timer_ops;
            node.outcome = outcome;
            node.done = true;
        }
        self.core.cv.notify_all();
    }

    /// Permanently removes this node from scheduling (thread exit or
    /// handle drop). Idempotent.
    pub(crate) fn retire(&self) {
        let mut board = self.core.board();
        if let Some(node) = board.nodes.get_mut(&self.id) {
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
        VirtualNet::new(
            topology,
            Configuration::new(),
            SimOptions::default().with_seed(7),
        )
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
