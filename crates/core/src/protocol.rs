//! The sans-io protocol interface shared by all broadcast algorithms.
//!
//! Protocols are pure state machines: they consume [`Event`]s — messages,
//! named timers, recoveries, broadcast requests — through a single
//! [`Protocol::on_event`] entry point and emit [`Actions`] — sends, local
//! deliveries, and timer (re)schedules — without touching any transport.
//! The same protocol instance therefore runs unchanged on the
//! deterministic simulator (via [`ProtocolActor`], its messages handed
//! over in memory or crossing a [`Wire`] as encoded frames) and wherever
//! no timer service exists (via [`SelfTimed`], which holds the protocol's
//! timers itself: `diffuse-net`'s runtime on real sockets, tests stepping
//! a protocol by hand).
//!
//! Time wakes a protocol through timers only: it schedules a named
//! [`TimerId`] at an absolute [`SimTime`] with [`Actions::set_timer`] and
//! is woken exactly there. Drivers that know every deadline can sleep or
//! fast-forward through the idle time in between.

use core::fmt;
use core::marker::PhantomData;
use std::sync::Arc;

use diffuse_model::ProcessId;
use diffuse_sim::{Actor, Context, SimMessage, SimTime, TimerId, TimerOp, TimerTable};

use crate::adversary::{CorruptionMode, ProtocolAudit};
use crate::knowledge::View;
use crate::tree::SharedWireTree;

/// An immutable, cheaply clonable application payload.
///
/// # Example
///
/// ```
/// use diffuse_core::Payload;
///
/// let p = Payload::from("hello");
/// assert_eq!(p.as_bytes(), b"hello");
/// assert_eq!(p.len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Creates an empty payload.
    pub fn empty() -> Self {
        Payload::default()
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Self {
        Payload(Arc::from(s.as_bytes()))
    }
}

impl From<&[u8]> for Payload {
    fn from(b: &[u8]) -> Self {
        Payload(Arc::from(b))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(Arc::from(v.into_boxed_slice()))
    }
}

/// Globally unique identity of one broadcast: the originating process and
/// its local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BroadcastId {
    /// The process that called `broadcast`.
    pub origin: ProcessId,
    /// Origin-local sequence number.
    pub seq: u64,
}

impl fmt::Display for BroadcastId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// A data message of the tree-based (optimal/adaptive) algorithms:
/// the payload plus the maximum reliability tree it must follow
/// (Algorithm 1 sends `(m, mrt_j)`).
#[derive(Debug, Clone, PartialEq)]
pub struct DataMessage {
    /// Broadcast identity, for duplicate suppression.
    pub id: BroadcastId,
    /// Application payload.
    pub payload: Payload,
    /// The tree to forward along, with the sender's λ labels.
    pub tree: SharedWireTree,
}

/// A data message of the reference gossip algorithm (no tree attached).
#[derive(Debug, Clone, PartialEq)]
pub struct GossipMessage {
    /// Broadcast identity.
    pub id: BroadcastId,
    /// Application payload.
    pub payload: Payload,
    /// Remaining forwarding steps: the paper's execution runs for a fixed
    /// global number of steps, so each copy carries how many are left.
    pub ttl: u32,
}

/// A heartbeat of the adaptive protocol's approximation activity:
/// the sender's sequence number and its `(Λ, C)` view (Algorithm 4,
/// line 17) — the entries changed since the generation the destination
/// last acknowledged, all of them (base 0) to a destination that
/// acknowledged none. The view is behind an [`Arc`], so one frame per
/// period and base serves every neighbor it applies to.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatMessage {
    /// Sender's heartbeat sequence number (`C_j[p_j].seq`).
    pub seq: u64,
    /// The latest view generation the sender has merged *from the
    /// destination* (0 = none yet). This piggybacked acknowledgement is
    /// what anchors the base of the destination's future heartbeats back
    /// to us.
    pub ack: u64,
    /// Sender's topology and reliability view since the view's base.
    pub view: Arc<View>,
}

/// Every message exchanged by the protocols in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Tree-routed data (optimal and adaptive algorithms).
    Data(DataMessage),
    /// Flooded data (reference gossip algorithm).
    Gossip(GossipMessage),
    /// Receipt acknowledgement (reference gossip optimization, §5).
    Ack {
        /// The acknowledged broadcast.
        id: BroadcastId,
    },
    /// Approximation-activity heartbeat (adaptive algorithm).
    Heartbeat(HeartbeatMessage),
}

impl SimMessage for Message {
    fn kind(&self) -> &'static str {
        match self {
            Message::Data(_) | Message::Gossip(_) => "data",
            Message::Ack { .. } => "ack",
            Message::Heartbeat(_) => "heartbeat",
        }
    }
}

/// An input to a protocol state machine (see [`Protocol::on_event`]).
///
/// Every stimulus a protocol can react to travels through this one type:
/// network messages, the protocol's own named timers, crash recoveries,
/// and fire-and-forget broadcast requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A message arrived from a neighbor.
    Message {
        /// The sending process.
        from: ProcessId,
        /// The message itself.
        message: Message,
    },
    /// A timer previously scheduled with [`Actions::set_timer`] reached
    /// its deadline.
    Timer(TimerId),
    /// The process recovered from a crash that lasted `down_ticks` ticks
    /// (the input to the paper's Event 4).
    Recovery {
        /// Length of the outage, in ticks.
        down_ticks: u64,
    },
    /// A fire-and-forget broadcast request. Failures (e.g. incomplete
    /// knowledge) are recorded in the protocol's error counter; drivers
    /// that need the [`BroadcastId`] or retryable errors call
    /// [`Protocol::broadcast`] directly.
    Broadcast(Payload),
    /// Opens a lying-node corruption window: for the next `window` ticks
    /// the process emits heartbeats corrupted per `mode` (scripted via
    /// `FaultAction::Corrupt`). Honest protocols ignore this event — it
    /// is consumed by the [`Adversary`](crate::Adversary) wrapper.
    Corrupt {
        /// What kind of lie to tell.
        mode: CorruptionMode,
        /// Window length in ticks, starting now.
        window: u64,
    },
}

/// The outputs of one protocol step.
#[derive(Debug, Clone, Default)]
pub struct Actions {
    sends: Vec<(ProcessId, Message)>,
    deliveries: Vec<(BroadcastId, Payload)>,
    timer_ops: Vec<TimerOp>,
}

impl Actions {
    /// Creates an empty action set.
    pub fn new() -> Self {
        Actions::default()
    }

    /// Queues a message for a neighbor.
    pub fn send(&mut self, to: ProcessId, message: Message) {
        self.sends.push((to, message));
    }

    /// Reports a local delivery of a broadcast payload.
    pub fn deliver(&mut self, id: BroadcastId, payload: Payload) {
        self.deliveries.push((id, payload));
    }

    /// Queued sends.
    pub fn sends(&self) -> &[(ProcessId, Message)] {
        &self.sends
    }

    /// Queued deliveries.
    pub fn deliveries(&self) -> &[(BroadcastId, Payload)] {
        &self.deliveries
    }

    /// Schedules (or re-schedules) the named timer to fire at the
    /// absolute time `at`. Each [`TimerId`] names at most one pending
    /// deadline per protocol instance.
    pub fn set_timer(&mut self, timer: TimerId, at: SimTime) {
        self.timer_ops.push((timer, Some(at)));
    }

    /// Cancels the named timer if it is pending.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.timer_ops.push((timer, None));
    }

    /// Returns `true` when nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.deliveries.is_empty() && self.timer_ops.is_empty()
    }

    /// Removes and returns all queued sends.
    pub fn take_sends(&mut self) -> Vec<(ProcessId, Message)> {
        std::mem::take(&mut self.sends)
    }

    /// Removes and returns all queued deliveries.
    pub fn take_deliveries(&mut self) -> Vec<(BroadcastId, Payload)> {
        std::mem::take(&mut self.deliveries)
    }

    /// Removes and returns all buffered timer operations.
    pub fn take_timer_ops(&mut self) -> Vec<TimerOp> {
        std::mem::take(&mut self.timer_ops)
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.deliveries.clear();
        self.timer_ops.clear();
    }
}

/// A broadcast protocol as a pure, event-driven state machine.
///
/// Time is carried as [`SimTime`] ticks; on a real deployment the runtime
/// supplies a monotonic tick counter. All outputs — sends, deliveries,
/// timer schedules — go through [`Actions`].
///
/// Drivers must:
///
/// 1. call [`Protocol::on_start`] once before any other event, so the
///    protocol can arm its initial timers;
/// 2. honor the timer operations left in [`Actions`] after every call,
///    delivering [`Event::Timer`] when a scheduled deadline is reached
///    (timers that come due during a crash fire right after the
///    [`Event::Recovery`]).
///
/// A driver with no timer service of its own gets both from
/// [`SelfTimed`].
pub trait Protocol {
    /// This process's identity.
    fn id(&self) -> ProcessId;

    /// Called once before any other event; protocols arm their initial
    /// timers here.
    fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
        let _ = (now, actions);
    }

    /// Handles one event — a message, a due timer, a recovery, or a
    /// broadcast request.
    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions);

    /// Initiates a broadcast of `payload`.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError`](crate::CoreError) when a
    /// broadcast cannot be initiated (e.g. the local topology view does
    /// not yet span the system).
    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, crate::CoreError>;

    /// Broadcast payloads delivered so far, in delivery order.
    fn delivered(&self) -> &[(BroadcastId, Payload)];

    /// Adversary-facing audit counters (entries offered vs. adopted per
    /// sender, rejected future acks, corrupt emissions). The default is
    /// all-zero — protocols without audit bookkeeping participate in
    /// scenario containment reports for free.
    fn audit(&self) -> ProtocolAudit {
        ProtocolAudit::default()
    }

    /// Convenience wrapper: feeds an [`Event::Message`] to
    /// [`Protocol::on_event`].
    fn handle_message(
        &mut self,
        now: SimTime,
        from: ProcessId,
        message: Message,
        actions: &mut Actions,
    ) {
        self.on_event(now, Event::Message { from, message }, actions);
    }

    /// Convenience wrapper: feeds an [`Event::Recovery`] to
    /// [`Protocol::on_event`].
    fn handle_recovery(&mut self, now: SimTime, down_ticks: u64, actions: &mut Actions) {
        self.on_event(now, Event::Recovery { down_ticks }, actions);
    }
}

/// How a [`ProtocolActor`]'s messages travel between processes: what the
/// simulated network carries in place of the [`Message`] itself.
///
/// The kernel runners use [`InProcess`]; `diffuse-net`'s virtual-time
/// fabric puts encoded frames in flight, which is all that sets it apart
/// from the kernel.
pub trait Wire {
    /// What is in flight (`Send`, so the sharded executor can move it
    /// between worker threads).
    type Frame: SimMessage + Send;

    /// Called on every message the actor sends — lost ones included.
    fn pack(message: Message) -> Self::Frame;

    /// Called on every frame delivered to the actor, before its protocol
    /// sees the message.
    fn unpack(frame: Self::Frame) -> Message;
}

/// The identity [`Wire`]: messages are handed over in memory, their
/// `Arc`-shared bodies included.
#[derive(Debug)]
pub struct InProcess;

impl Wire for InProcess {
    type Frame = Message;

    fn pack(message: Message) -> Message {
        message
    }

    fn unpack(frame: Message) -> Message {
        frame
    }
}

/// Adapter running any [`Protocol`] inside the deterministic simulator,
/// its messages travelling as `W` says (see [`Wire`]).
///
/// Deliveries are accumulated on the protocol itself (see
/// [`Protocol::delivered`]); sends are forwarded to the simulated
/// network.
#[derive(Debug)]
pub struct ProtocolActor<P, W = InProcess> {
    protocol: P,
    actions: Actions,
    wire: PhantomData<fn() -> W>,
}

impl<P: Protocol> ProtocolActor<P> {
    /// Wraps a protocol for simulation, messages handed over in memory.
    pub fn new(protocol: P) -> Self {
        ProtocolActor::over(protocol)
    }
}

impl<P: Protocol, W: Wire> ProtocolActor<P, W> {
    /// Wraps a protocol for simulation over the wire `W`.
    pub fn over(protocol: P) -> Self {
        ProtocolActor {
            protocol,
            actions: Actions::new(),
            wire: PhantomData,
        }
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the wrapped protocol (e.g. to trigger a
    /// broadcast from a simulation command).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Runs a broadcast through the protocol and flushes the resulting
    /// sends into the simulation context.
    ///
    /// # Errors
    ///
    /// Propagates the protocol's broadcast error.
    pub fn broadcast_now(
        &mut self,
        ctx: &mut Context<'_, W::Frame>,
        payload: Payload,
    ) -> Result<BroadcastId, crate::CoreError> {
        let id = self
            .protocol
            .broadcast(ctx.now(), payload, &mut self.actions)?;
        self.flush(ctx);
        Ok(id)
    }

    /// Feeds an out-of-band event (e.g. [`Event::Corrupt`] from a fault
    /// script) to the protocol and flushes the resulting sends into the
    /// simulation context.
    pub fn inject_event(&mut self, ctx: &mut Context<'_, W::Frame>, event: Event) {
        self.protocol.on_event(ctx.now(), event, &mut self.actions);
        self.flush(ctx);
    }

    fn flush(&mut self, ctx: &mut Context<'_, W::Frame>) {
        for (to, message) in self.actions.take_sends() {
            ctx.send(to, W::pack(message));
        }
        for (timer, op) in self.actions.timer_ops.drain(..) {
            match op {
                Some(at) => ctx.set_timer(timer, at),
                None => ctx.cancel_timer(timer),
            }
        }
        // Deliveries stay recorded inside the protocol; nothing to do.
        self.actions.take_deliveries();
    }
}

impl<P: Protocol, W: Wire> Actor for ProtocolActor<P, W> {
    type Message = W::Frame;

    fn on_start(&mut self, ctx: &mut Context<'_, W::Frame>) {
        self.protocol.on_start(ctx.now(), &mut self.actions);
        self.flush(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, W::Frame>, from: ProcessId, frame: W::Frame) {
        let message = W::unpack(frame);
        self.inject_event(ctx, Event::Message { from, message });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, W::Frame>, timer: TimerId) {
        self.inject_event(ctx, Event::Timer(timer));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, W::Frame>, down_ticks: u64) {
        self.inject_event(ctx, Event::Recovery { down_ticks });
    }
}

/// A [`Protocol`] plus the timers a host without a timer service must
/// keep for it: `diffuse-net`'s wall-clock node loop, a test stepping a
/// protocol by hand. Every call moves the timer operations the protocol
/// left in [`Actions`] into a one-slot [`TimerTable`] (callers see only
/// sends and deliveries), [`SelfTimed::fire_due`] fires what has come due
/// by the engine's rule, and [`SelfTimed::next_deadline`] says how long
/// the host may sleep.
#[derive(Debug)]
pub struct SelfTimed<P> {
    protocol: P,
    timers: TimerTable,
    started: bool,
}

impl<P: Protocol> SelfTimed<P> {
    /// Wraps a protocol that has not started yet.
    pub fn new(protocol: P) -> Self {
        SelfTimed {
            protocol,
            timers: TimerTable::new(1),
            started: false,
        }
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the wrapped protocol. Timer operations it emits
    /// when called directly stay in the caller's [`Actions`].
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// The earliest pending timer deadline, if any timer is armed.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.earliest()
    }

    /// Runs [`Protocol::on_start`] unless it already ran. Every other
    /// entry point calls this first, so the protocol starts exactly once,
    /// before its first event of any kind.
    pub fn start(&mut self, now: SimTime, actions: &mut Actions) {
        if !self.started {
            self.started = true;
            self.protocol.on_start(now, actions);
            self.timers.apply(0, actions.timer_ops.drain(..));
        }
    }

    /// Feeds one event to the protocol.
    pub fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        self.start(now, actions);
        self.protocol.on_event(now, event, actions);
        self.timers.apply(0, actions.timer_ops.drain(..));
    }

    /// Convenience wrapper: feeds an [`Event::Message`].
    pub fn handle_message(
        &mut self,
        now: SimTime,
        from: ProcessId,
        message: Message,
        actions: &mut Actions,
    ) {
        self.on_event(now, Event::Message { from, message }, actions);
    }

    /// Convenience wrapper: feeds an [`Event::Recovery`].
    pub fn handle_recovery(&mut self, now: SimTime, down_ticks: u64, actions: &mut Actions) {
        self.on_event(now, Event::Recovery { down_ticks }, actions);
    }

    /// Fires every timer due at or before `now` by the engine's rule,
    /// [`TimerTable::fire_due`].
    pub fn fire_due(&mut self, now: SimTime, actions: &mut Actions) {
        self.start(now, actions);
        let protocol = &mut self.protocol;
        self.timers.fire_due(
            now,
            |_| true,
            |timers, slot, timer| {
                protocol.on_event(now, Event::Timer(timer), actions);
                timers.apply(slot, actions.timer_ops.drain(..));
            },
        );
    }

    /// Initiates a broadcast.
    ///
    /// # Errors
    ///
    /// Propagates the protocol's broadcast error.
    pub fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, crate::CoreError> {
        self.start(now, actions);
        let result = self.protocol.broadcast(now, payload, actions);
        self.timers.apply(0, actions.timer_ops.drain(..));
        result
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// Logs every call it receives and answers each with the next
    /// scripted batch of timer operations.
    #[derive(Default)]
    struct Scripted {
        replies: VecDeque<Vec<TimerOp>>,
        log: Vec<String>,
    }

    impl Scripted {
        fn answer(&mut self, call: String, actions: &mut Actions) {
            self.log.push(call);
            for (timer, op) in self.replies.pop_front().unwrap_or_default() {
                match op {
                    Some(at) => actions.set_timer(timer, at),
                    None => actions.cancel_timer(timer),
                }
            }
        }
    }

    impl Protocol for Scripted {
        fn id(&self) -> ProcessId {
            ProcessId::new(0)
        }

        fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
            self.answer(format!("start@{}", now.ticks()), actions);
        }

        fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
            let what = match event {
                Event::Message { .. } => "message".to_string(),
                Event::Timer(timer) => timer.to_string(),
                Event::Recovery { .. } => "recovery".to_string(),
                Event::Broadcast(_) => "broadcast event".to_string(),
                Event::Corrupt { .. } => "corrupt".to_string(),
            };
            self.answer(format!("{what}@{}", now.ticks()), actions);
        }

        fn broadcast(
            &mut self,
            now: SimTime,
            _payload: Payload,
            actions: &mut Actions,
        ) -> Result<BroadcastId, crate::CoreError> {
            self.answer(format!("broadcast@{}", now.ticks()), actions);
            Err(crate::CoreError::KnowledgeIncomplete)
        }

        fn delivered(&self) -> &[(BroadcastId, Payload)] {
            &[]
        }
    }

    fn scripted(replies: Vec<Vec<TimerOp>>) -> SelfTimed<Scripted> {
        SelfTimed::new(Scripted {
            replies: replies.into(),
            log: Vec::new(),
        })
    }

    fn t(id: u32) -> TimerId {
        TimerId::new(id)
    }

    fn at(ticks: u64) -> Option<SimTime> {
        Some(SimTime::new(ticks))
    }

    fn ack() -> Message {
        let id = BroadcastId {
            origin: ProcessId::new(1),
            seq: 0,
        };
        Message::Ack { id }
    }

    #[test]
    fn self_timed_fires_timers_armed_for_now_in_the_next_pass() {
        let mut node = scripted(vec![
            // on_start: three timers due at 5 (armed out of id order),
            // one later.
            vec![(t(3), at(5)), (t(1), at(5)), (t(4), at(5)), (t(2), at(9))],
            // timer#1, the first to fire: arms a lower id for the current
            // tick, which waits for the next pass, and cancels a due one.
            vec![(t(0), at(5)), (t(4), None)],
        ]);
        let mut actions = Actions::new();
        node.fire_due(SimTime::new(4), &mut actions);
        assert_eq!(node.protocol().log, ["start@4"]);
        node.fire_due(SimTime::new(5), &mut actions);
        assert_eq!(
            node.protocol().log,
            ["start@4", "timer#1@5", "timer#3@5", "timer#0@5"]
        );
        assert_eq!(node.next_deadline(), at(9));
        // An overdue timer fires at the time of the call.
        node.fire_due(SimTime::new(12), &mut actions);
        assert_eq!(node.protocol().log.last().unwrap(), "timer#2@12");
        assert_eq!(node.next_deadline(), None);
        // Callers see sends and deliveries only, never timer operations.
        assert!(actions.is_empty());
    }

    #[test]
    fn self_timed_fires_same_tick_timers_in_the_kernels_order() {
        // Three processes whose timer handlers arm timers for the
        // current tick.
        let scripts: Vec<Vec<Vec<TimerOp>>> = vec![
            // p0: timer#1 arms timer#0 for now and cancels timer#4.
            vec![
                vec![(t(3), at(5)), (t(1), at(5)), (t(4), at(5)), (t(2), at(9))],
                vec![(t(0), at(5)), (t(4), None)],
            ],
            // p1: timer#0 arms timer#1 for now, after the due timer#2.
            vec![vec![(t(2), at(3)), (t(0), at(3))], vec![(t(1), at(3))]],
            // p2: timer#1 pulls timer#0 forward to now; timer#0 re-arms
            // timer#1 for later.
            vec![
                vec![(t(1), at(4)), (t(0), at(6))],
                vec![(t(0), at(4))],
                vec![(t(1), at(8))],
            ],
        ];
        let mut topology = diffuse_model::Topology::new();
        for i in 0..scripts.len() as u32 {
            topology.add_process(ProcessId::new(i));
        }
        let mut sim = diffuse_sim::Simulation::new(
            &topology,
            &diffuse_model::Configuration::new(),
            |id| ProtocolActor::new(scripted(scripts[id.as_usize()].clone()).protocol),
            diffuse_sim::SimOptions::default(),
        );
        sim.run_ticks(12);
        let kernel: Vec<Vec<String>> = sim
            .nodes()
            .map(|(_, actor)| actor.protocol().log.clone())
            .collect();
        let self_timed: Vec<Vec<String>> = scripts
            .into_iter()
            .map(|script| {
                let mut node = scripted(script);
                let mut actions = Actions::new();
                for now in 0..=12 {
                    node.fire_due(SimTime::new(now), &mut actions);
                }
                node.protocol.log
            })
            .collect();
        assert_eq!(self_timed, kernel);
        assert_eq!(
            kernel,
            [
                vec![
                    "start@0",
                    "timer#1@5",
                    "timer#3@5",
                    "timer#0@5",
                    "timer#2@9"
                ],
                vec!["start@0", "timer#0@3", "timer#2@3", "timer#1@3"],
                vec!["start@0", "timer#1@4", "timer#0@4", "timer#1@8"],
            ]
        );
    }

    #[test]
    fn self_timed_next_deadline_tracks_set_reset_cancel_and_fire() {
        let mut node = scripted(vec![
            vec![],                               // on_start: nothing armed
            vec![(t(7), at(30)), (t(2), at(20))], // message: set two
            vec![(t(2), at(40))],                 // recovery: re-set the earlier one
            vec![(t(7), None)],                   // broadcast: cancel the other
            vec![(t(2), at(50)), (t(2), at(45))], // timer#2: re-arms itself, twice
        ]);
        let mut actions = Actions::new();
        let now = SimTime::new(1);
        node.start(now, &mut actions);
        assert_eq!(node.next_deadline(), None);
        node.handle_message(now, ProcessId::new(1), ack(), &mut actions);
        assert_eq!(node.next_deadline(), at(20));
        node.handle_recovery(now, 3, &mut actions);
        assert_eq!(node.next_deadline(), at(30));
        assert!(node.broadcast(now, Payload::empty(), &mut actions).is_err());
        assert_eq!(node.next_deadline(), at(40));
        // Not yet due: nothing fires, nothing moves.
        node.fire_due(SimTime::new(39), &mut actions);
        assert_eq!(node.next_deadline(), at(40));
        // Firing clears the deadline; the last operation of the handler
        // decides the new one.
        node.fire_due(SimTime::new(40), &mut actions);
        assert_eq!(node.next_deadline(), at(45));
        assert_eq!(node.protocol().log.last().unwrap(), "timer#2@40");
        assert!(actions.is_empty());
    }

    #[test]
    fn self_timed_starts_once_before_the_first_event_of_any_kind() {
        type Entry = fn(&mut SelfTimed<Scripted>, SimTime, &mut Actions);
        let entries: [(&str, Entry); 6] = [
            ("start@3", |n, now, a| n.start(now, a)),
            ("timer#0@3", |n, now, a| n.fire_due(now, a)),
            ("recovery@3", |n, now, a| n.handle_recovery(now, 1, a)),
            ("broadcast@3", |n, now, a| {
                let _ = n.broadcast(now, Payload::empty(), a);
            }),
            ("broadcast event@3", |n, now, a| {
                n.on_event(now, Event::Broadcast(Payload::empty()), a);
            }),
            ("message@3", |n, now, a| {
                n.handle_message(now, ProcessId::new(1), ack(), a);
            }),
        ];
        for (first, entry) in entries {
            // on_start arms a timer that is already due, so `fire_due`
            // as the first call has something to fire.
            let mut node = scripted(vec![vec![(t(0), at(0))]]);
            let mut actions = Actions::new();
            entry(&mut node, SimTime::new(3), &mut actions);
            let mut expected = vec!["start@3".to_string()];
            if first != "start@3" {
                expected.push(first.to_string());
            }
            assert_eq!(node.protocol().log, expected);
            // Later calls, `start` included, never start it again.
            node.start(SimTime::new(4), &mut actions);
            node.handle_recovery(SimTime::new(4), 1, &mut actions);
            expected.push("recovery@4".to_string());
            assert_eq!(node.protocol().log, expected, "{first}");
        }
    }

    #[test]
    fn payload_conversions() {
        let a = Payload::from("abc");
        let b = Payload::from(&b"abc"[..]);
        let c = Payload::from(vec![b'a', b'b', b'c']);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn broadcast_id_display() {
        let id = BroadcastId {
            origin: ProcessId::new(3),
            seq: 7,
        };
        assert_eq!(id.to_string(), "p3#7");
    }

    #[test]
    fn message_kinds_label_metrics() {
        let id = BroadcastId {
            origin: ProcessId::new(0),
            seq: 0,
        };
        let gossip = Message::Gossip(GossipMessage {
            id,
            payload: Payload::empty(),
            ttl: 3,
        });
        assert_eq!(gossip.kind(), "data");
        assert_eq!(Message::Ack { id }.kind(), "ack");
    }

    #[test]
    fn actions_accumulate_and_drain() {
        let mut a = Actions::new();
        assert!(a.is_empty());
        let id = BroadcastId {
            origin: ProcessId::new(0),
            seq: 1,
        };
        a.send(ProcessId::new(1), Message::Ack { id });
        a.deliver(id, Payload::from("x"));
        assert_eq!(a.sends().len(), 1);
        assert_eq!(a.deliveries().len(), 1);
        assert!(!a.is_empty());

        let sends = a.take_sends();
        assert_eq!(sends.len(), 1);
        assert!(a.sends().is_empty());
        a.clear();
        assert!(a.is_empty());
    }
}
