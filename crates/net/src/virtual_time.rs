//! The virtual-time authority: deterministic execution of the fabric.
//!
//! Under a [`VirtualClock`] a node has no thread. Its runtime — protocol,
//! transport, counters — is installed on a shared [`VirtualNet`], the
//! time authority, and executes *turns* the authority runs one at a
//! time on the thread that drives it: deliver this frame, fire this
//! timer, recover from this crash, issue this broadcast. Exactly one
//! node runs at any moment by construction, so every node is quiescent
//! whenever virtual time advances.
//!
//! The authority is a driver of the simulation's tick engine: it steps
//! one [`diffuse_sim::Lane`] over encoded frames, and its
//! [`Handler`] — the only thing a lane takes from its driver — runs the
//! turn on the node's installed runtime and collects the sends and timer
//! operations that turn produced. Phase order, loss sampling, burst
//! staggering, the timer table and fast-forwarding are the lane's, i.e.
//! the very code [`diffuse_sim::Simulation`] runs; node runtimes buffer
//! their sends and flush them after the handler, so sampling loss when
//! the turn completes consumes the RNG in the kernel's order. A fabric
//! run under virtual time is therefore *bit-identical* to the same
//! scenario on the kernel — same per-process delivery counts, same wire
//! [`Metrics`] — and `tests/fabric_conformance.rs` asserts it, which
//! checks this turn driver (plus codec and runtime) against the inline
//! one rather than one hand-written tick against another.
//!
//! Locks exist only so the handles are `Send + Sync`; driven from one
//! thread, nothing ever waits on one. The lane and its environment sit
//! behind the *driver's* lock, held for a whole `run_ticks`; each node's
//! runtime sits behind its own, held for the turn it runs; the wire —
//! the clock reading and the send buffer of the one node holding a turn
//! — behind a third, taken per send. A handler that panics unwinds
//! through all three to the caller of `run_ticks`/`broadcast` and takes
//! its runtime with it; the authority stays readable
//! ([`VirtualNet::now`], [`VirtualNet::metrics`]).
//!
//! Eventless stretches fast-forward exactly like the kernel: when no
//! delivery or timer is due and no forced outage is counting down, the
//! clock jumps — no turn runs, which the idle-runtime test asserts as
//! *zero* wakeups over an idle stretch.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use diffuse_core::{BroadcastOutcome, CorruptionMode, Payload, TimerOp};
use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{
    Effects, Handler, Input, Lane, LaneEnv, Metrics, SimMessage, SimOptions, SimTime, Site, TimerId,
};

use crate::codec::frame_kind;

/// One instruction the authority runs on a node's installed runtime.
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

/// A node runtime installed on the authority (see
/// [`spawn_node_with_clock`](crate::spawn_node_with_clock)).
pub(crate) trait TurnRunner: Send {
    /// Runs one turn at virtual time `now`: the handler, then the flush
    /// of its sends through the node's transport (which buffers them on
    /// the authority). Appends the handler's timer operations to
    /// `timer_ops` and returns the outcome of a broadcast turn.
    fn run(
        &mut self,
        now: SimTime,
        turn: Turn,
        timer_ops: &mut Vec<TimerOp>,
    ) -> Option<BroadcastOutcome>;

    /// The node leaves the authority for good: records its protocol's
    /// final audit where its handle will look for it.
    fn retire(self: Box<Self>);
}

/// An encoded frame on the virtual wire: the lane's message type.
#[derive(Debug, Clone)]
struct Frame(Vec<u8>);

impl SimMessage for Frame {
    fn kind(&self) -> &'static str {
        frame_kind(&self.0)
    }
}

/// What the node holding a turn reads and writes through its clock and
/// transport.
struct Wire {
    /// Virtual time as of the last turn run (or finished run).
    now: SimTime,
    /// The node currently holding a turn (sends are only legal from it).
    holder: Option<ProcessId>,
    /// Frames the holder sent during its turn, in send order.
    sends: Vec<(ProcessId, Frame)>,
}

/// The engine state: one lane over frames plus its environment.
struct Driver {
    env: LaneEnv,
    lane: Lane<Frame>,
}

pub(crate) struct VirtualCore {
    driver: Mutex<Driver>,
    wire: Mutex<Wire>,
    /// Every process of the topology; `None` until its runtime is
    /// installed and again once it retired (or panicked) — either way the
    /// authority skips the node.
    nodes: BTreeMap<ProcessId, Mutex<Option<Box<dyn TurnRunner>>>>,
}

impl fmt::Debug for VirtualCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualCore").finish_non_exhaustive()
    }
}

/// Locks through poisoning: a panicking handler unwinds while all three
/// locks are held, and each guards data that is valid at every step (a
/// runtime taken out for its turn is simply gone).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl VirtualCore {
    /// Buffers one encoded frame sent by the node holding the turn; the
    /// lane validates, loss-samples and schedules it when the turn
    /// completes.
    pub(crate) fn send(&self, from: ProcessId, to: ProcessId, frame: &[u8]) {
        let mut wire = lock(&self.wire);
        debug_assert_eq!(
            wire.holder,
            Some(from),
            "virtual sends must come from the node holding the turn"
        );
        wire.sends.push((to, Frame(frame.to_vec())));
    }

    /// Runs `turn` on node `id`'s runtime at virtual time `now`, here and
    /// now, and moves what the turn produced into `fx`. Returns `None`,
    /// having run nothing, for a node without a runtime; otherwise the
    /// outcome of a broadcast turn.
    fn grant(
        &self,
        id: ProcessId,
        now: SimTime,
        turn: Turn,
        fx: &mut Effects<Frame>,
    ) -> Option<Option<BroadcastOutcome>> {
        let mut node = lock(self.nodes.get(&id)?);
        // Out of its slot for the turn, so a panicking handler drops it
        // on the way up instead of leaving a half-run protocol installed.
        let mut runner = node.take()?;
        {
            let mut wire = lock(&self.wire);
            wire.now = now;
            wire.holder = Some(id);
        }
        let outcome = runner.run(now, turn, &mut fx.timer_ops);
        *node = Some(runner);
        let mut wire = lock(&self.wire);
        wire.holder = None;
        fx.outbox.append(&mut wire.sends);
        Some(outcome)
    }

    /// Permanently removes `id` from scheduling. Idempotent.
    fn retire(&self, id: ProcessId) {
        let runner = self.nodes.get(&id).and_then(|node| lock(node).take());
        if let Some(runner) = runner {
            runner.retire();
        }
    }
}

/// How the authority runs a handler: as a turn on the node's runtime.
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
/// inject faults. Drive it from a single thread: every node's handlers
/// run on it, and a protocol panic unwinds out of the call that ran the
/// turn.
///
/// Node runtimes are installed with
/// [`spawn_node_with_clock`](crate::spawn_node_with_clock) and
/// [`Clock::Virtual`](crate::Clock::Virtual). A process whose runtime
/// was never installed is skipped exactly like a retired one: it holds
/// its place in the topology, its inbound frames count as delivered on
/// the wire, and no handler runs.
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
        let nodes = ids.iter().map(|&id| (id, Mutex::new(None))).collect();
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
                wire: Mutex::new(Wire {
                    now: SimTime::ZERO,
                    holder: None,
                    sends: Vec::new(),
                }),
                nodes,
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
        lock(&self.core.driver).lane.now()
    }

    /// Wire-level metrics so far — the same counters, with the same
    /// values, a kernel run of the same scenario produces.
    pub fn metrics(&self) -> Metrics {
        lock(&self.core.driver).lane.metrics().clone()
    }

    /// Returns `true` iff the process is currently up (unknown processes
    /// are down, as in the kernel).
    pub fn is_up(&self, id: ProcessId) -> bool {
        lock(&self.core.driver).lane.is_up(id)
    }

    /// Overrides one link's loss probability for all future sends.
    pub fn set_loss(&self, link: LinkId, p: Probability) {
        lock(&self.core.driver).env.loss.set_loss(link, p);
    }

    /// Forces `id` down for the next `ticks` ticks (failure injection),
    /// with the kernel's exact semantics: commands are refused
    /// immediately, deliveries drop until the recovery tick, timers fire
    /// on it right after the recovery event.
    pub fn force_down(&self, id: ProcessId, ticks: u64) {
        lock(&self.core.driver).lane.force_down(id, ticks);
    }

    /// (Re)configures the scheduled message adversary — the kernel's
    /// `Simulation::set_message_adversary` with the same private
    /// stream seeding, so adversarial runs stay bit-identical to the
    /// kernel. `d == 0` deactivates it.
    pub fn set_message_adversary(&self, d: u32, window: u64) {
        lock(&self.core.driver)
            .lane
            .set_message_adversary(d, window);
    }

    /// Runs `turn` on `id` as an external command, with the kernel's
    /// `Simulation::command` semantics: starts the net if needed and
    /// returns `None` — running no handler — when the process is
    /// unknown, down or without a runtime. Otherwise the turn's sends
    /// and timer operations are applied like any handler's.
    fn command(&self, id: ProcessId, turn: Turn) -> Option<Option<BroadcastOutcome>> {
        self.start();
        let mut driver = lock(&self.core.driver);
        let Driver { env, lane } = &mut *driver;
        let mut ran = None;
        lane.command(env, id, |site, fx| {
            ran = self.core.grant(site.id, site.now, turn, fx);
        });
        ran
    }

    /// Opens a corruption window on `id`'s protocol stack by running a
    /// `Turn::Corrupt` on it — the fabric's hook for
    /// `FaultAction::Corrupt`. Refuses (returns `false`, running no
    /// handler) when the process is unknown, down, or without a runtime.
    pub fn inject_corrupt(&self, id: ProcessId, mode: CorruptionMode, window: u64) -> bool {
        self.command(id, Turn::Corrupt { mode, window }).is_some()
    }

    /// Runs every node's `on_start` handler, in process-id order.
    /// Idempotent; [`VirtualNet::run_ticks`] and
    /// [`VirtualNet::broadcast`] call it implicitly, mirroring the
    /// kernel's lazy start.
    pub fn start(&self) {
        let mut driver = lock(&self.core.driver);
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
        let mut driver = lock(&self.core.driver);
        let Driver { env, lane } = &mut *driver;
        let end = lane.now() + n;
        lane.run_to(env, end, &mut Turns(&self.core));
        lock(&self.core.wire).now = end;
    }

    /// Retires every node: each runtime records its final audit and no
    /// further turn runs. Node handles may be shut down before or after.
    pub fn shutdown(&self) {
        for &id in self.core.nodes.keys() {
            self.core.retire(id);
        }
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
        lock(&self.core.wire).now
    }

    /// Installs this node's runtime on the authority, which runs its
    /// turns from now on. (A clock for a process outside the topology
    /// installs nothing.)
    pub(crate) fn install(&self, runner: Box<dyn TurnRunner>) {
        if let Some(node) = self.core.nodes.get(&self.id) {
            *lock(node) = Some(runner);
        }
    }

    /// Permanently removes this node from scheduling (handle shutdown or
    /// drop). Idempotent.
    pub(crate) fn retire(&self) {
        self.core.retire(self.id);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use diffuse_core::{
        Actions, AdaptiveBroadcast, AdaptiveParams, BroadcastId, CoreError, Event, Protocol,
    };

    use super::*;
    use crate::{spawn_node_with_clock, Clock, Fabric};

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

    /// The authority alone (no runtime installed): time advances, fast
    /// forward lands exactly on the horizon, faults mutate crash state.
    #[test]
    fn time_advances_without_events() {
        let net = two_node_net();
        net.run_ticks(1000);
        assert_eq!(net.now(), SimTime::new(1000));
        assert_eq!(net.metrics(), Metrics::new());
    }

    #[test]
    fn forced_outage_counts_down_with_kernel_semantics() {
        let net = two_node_net();
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

    /// A registered process whose runtime was never spawned is skipped
    /// exactly like a retired one: its neighbours' frames and its own
    /// start turn go nowhere, and time advances past them instead of
    /// waiting for a node that is not there.
    #[test]
    fn a_node_without_a_runtime_is_skipped() {
        // 0 — 1 — 2, with runtimes on 0 and 1 only.
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        topology.add_link(p(1), p(2)).unwrap();
        let (mut transports, net) = Fabric::build_virtual(
            &topology,
            Configuration::new(),
            SimOptions::default().with_seed(7),
        );
        let handles: Vec<_> = [p(0), p(1)]
            .into_iter()
            .map(|id| {
                spawn_node_with_clock(
                    AdaptiveBroadcast::new(
                        id,
                        vec![p(0), p(1), p(2)],
                        topology.neighbors(id).collect(),
                        AdaptiveParams::default(),
                    ),
                    transports.remove(&id).unwrap(),
                    Clock::Virtual(net.clock(id)),
                )
            })
            .collect();

        net.run_ticks(200);
        assert_eq!(net.now(), SimTime::new(200));
        assert!(handles.iter().all(|h| h.wakeups() > 1), "the others ran");
        let to_absent = LinkId::new(p(1), p(2)).unwrap();
        assert!(
            net.metrics().sent_over(to_absent) > 0,
            "p1 heartbeats its absent neighbour across the wire"
        );
        // Commands to it are refused like commands to a retired node.
        assert_eq!(
            net.broadcast(p(2), Payload::from("x")),
            BroadcastOutcome::Deferred
        );
        assert!(!net.inject_corrupt(p(2), CorruptionMode::UnderstateDistortion, 5));
    }

    /// Arms one periodic timer and panics the second time it fires.
    struct PanicsOnSecondHeartbeat {
        id: ProcessId,
        beats: u32,
    }

    impl Protocol for PanicsOnSecondHeartbeat {
        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
            actions.set_timer(TimerId::new(0), now + 10);
        }

        fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
            if let Event::Timer(timer) = event {
                self.beats += 1;
                assert!(self.beats < 2, "second heartbeat");
                actions.set_timer(timer, now + 10);
            }
        }

        fn broadcast(
            &mut self,
            _: SimTime,
            _: Payload,
            _: &mut Actions,
        ) -> Result<BroadcastId, CoreError> {
            unreachable!("the test issues no broadcast")
        }

        fn delivered(&self) -> &[(BroadcastId, Payload)] {
            &[]
        }
    }

    /// A protocol panic inside a turn is the driver's panic: it unwinds
    /// out of `run_ticks` — no thread dies quietly, no node goes mute —
    /// and the authority can still be read afterwards.
    #[test]
    fn a_protocol_panic_unwinds_to_the_driver() {
        let (mut transports, net) = {
            let mut topology = Topology::new();
            topology.add_link(p(0), p(1)).unwrap();
            Fabric::build_virtual(&topology, Configuration::new(), SimOptions::default())
        };
        let handle = spawn_node_with_clock(
            PanicsOnSecondHeartbeat { id: p(0), beats: 0 },
            transports.remove(&p(0)).unwrap(),
            Clock::Virtual(net.clock(p(0))),
        );
        net.run_ticks(15);
        assert_eq!(handle.wakeups(), 2, "start, then the first heartbeat");

        let panic = catch_unwind(AssertUnwindSafe(|| net.run_ticks(15)))
            .expect_err("the second heartbeat's panic must reach run_ticks' caller");
        assert_eq!(
            panic.downcast_ref::<&str>().copied(),
            Some("second heartbeat")
        );

        assert_eq!(
            net.now(),
            SimTime::new(20),
            "stopped in the tick that panicked"
        );
        assert_eq!(net.metrics(), Metrics::new());
        assert_eq!(handle.wakeups(), 3);
        // The runtime went down with its handler; the node is skipped.
        assert_eq!(
            net.broadcast(p(0), Payload::from("x")),
            BroadcastOutcome::Deferred
        );
        handle.shutdown();
    }
}
