//! The node runtime: a sans-io [`Protocol`] driven over a real
//! [`Transport`] on a thread of its own, under the wall clock.
//!
//! The node's loop is event-driven: it sleeps on the transport until
//! either a frame arrives or the protocol's next timer deadline is
//! reached — there is no fixed per-tick wakeup. `tick_interval` only
//! defines the wall-clock length of one logical [`SimTime`] tick (the
//! unit in which protocols express their deadlines), so a protocol whose
//! next heartbeat is 100 ticks away leaves the thread asleep for 100 tick
//! intervals instead of being polled 100 times. The deadlines live in
//! [`SelfTimed`]'s `TimerTable`, so timers fire in the kernel's order.
//!
//! Frames here come from a network: one that does not decode is counted
//! and dropped. (Deterministic runs do not pass through this module —
//! see [`run_scenario_on_fabric_virtual`](crate::run_scenario_on_fabric_virtual).)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use diffuse_core::{
    Actions, BroadcastId, BroadcastOutcome, CorruptionMode, Event, Payload, Protocol,
    ProtocolAudit, SelfTimed,
};
use diffuse_sim::SimTime;
use parking_lot::Mutex;

use crate::clock::{WallClock, WallSession};
use crate::codec::{decode_message, encode_message};
use crate::{NetError, Transport};

/// Commands accepted by a running node.
#[derive(Debug)]
enum Command {
    Broadcast(Payload),
    Crash { down_ticks: u64 },
    Corrupt { mode: CorruptionMode, window: u64 },
    Shutdown,
}

/// How long the loop will sleep at most before re-checking its command
/// queue, when no timer deadline comes sooner. Bounds the latency of
/// [`NodeHandle::broadcast`] and [`NodeHandle::shutdown`] without
/// per-tick polling.
const COMMAND_POLL: Duration = Duration::from_millis(25);

/// Handle to a running node thread.
///
/// Dropping the handle without calling [`NodeHandle::shutdown`] performs
/// the same orderly shutdown: the node thread is asked to stop, given
/// the chance to issue any still-queued broadcasts and transmit their
/// sends, and then joined — an in-progress send is never aborted
/// mid-frame. The only difference is that pending *deliveries* can no
/// longer be read, because the receiving end goes away with the handle.
///
/// One exception to the drain: a node shut down *inside* a cooperative
/// crash window (see [`NodeHandle::inject_crash`]) stays crashed — its
/// queued broadcasts are discarded rather than issued by a process that
/// is, by scenario semantics, down.
#[derive(Debug)]
pub struct NodeHandle {
    commands: Sender<Command>,
    deliveries: Receiver<(BroadcastId, Payload)>,
    wakeups: Arc<AtomicU64>,
    malformed: Arc<AtomicU64>,
    /// The protocol's final [`ProtocolAudit`], written by the node as it
    /// exits its thread.
    final_audit: Arc<Mutex<Option<ProtocolAudit>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NodeHandle {
    /// Asks the node to broadcast `payload` on its next wakeup.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the node has shut down. Broadcast
    /// errors inside the node (e.g. incomplete knowledge) are retried on
    /// subsequent wakeups until they succeed.
    pub fn broadcast(&self, payload: Payload) -> Result<(), NetError> {
        self.commands
            .send(Command::Broadcast(payload))
            .map_err(|_| NetError::Closed)
    }

    /// Injects a cooperative crash: from its next wakeup the node drops
    /// inbound traffic and suppresses timers and broadcasts for
    /// `down_ticks` logical ticks, then fires
    /// [`Event::Recovery`] — the fabric analogue of the kernel's forced
    /// outage, used by fault scripts.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the node has shut down.
    pub fn inject_crash(&self, down_ticks: u64) -> Result<(), NetError> {
        // A zero-length outage is a no-op on every substrate (the
        // kernel's force_down early-returns); installing an empty
        // window would still suppress one loop iteration and fire a
        // spurious recovery event.
        if down_ticks == 0 {
            return Ok(());
        }
        self.commands
            .send(Command::Crash { down_ticks })
            .map_err(|_| NetError::Closed)
    }

    /// Opens a corruption window: from its next wakeup the node's
    /// protocol stack sees [`Event::Corrupt`] — an
    /// [`Adversary`](diffuse_core::Adversary)-wrapped protocol starts
    /// rewriting its heartbeats for `window` logical ticks. How a
    /// scripted `FaultAction::Corrupt` lands on a wall-clock node, be it
    /// a fabric thread or a UDP worker process.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the node has shut down.
    pub fn inject_corrupt(&self, mode: CorruptionMode, window: u64) -> Result<(), NetError> {
        self.commands
            .send(Command::Corrupt { mode, window })
            .map_err(|_| NetError::Closed)
    }

    /// Receives the next delivered broadcast, waiting up to `timeout`.
    ///
    /// Returns `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] if the node has shut down.
    pub fn next_delivery(
        &self,
        timeout: Duration,
    ) -> Result<Option<(BroadcastId, Payload)>, NetError> {
        match self.deliveries.recv_timeout(timeout) {
            Ok(d) => Ok(Some(d)),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// How many times the node's event loop has woken up so far:
    /// received a frame, fired a timer, or polled for commands — an idle
    /// node with no pending timers wakes only at the command-poll cadence
    /// (tens of milliseconds), not once per tick.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// How many inbound frames failed to decode and were dropped.
    ///
    /// Malformed or truncated wire data is never an error and never a
    /// panic — the frame is counted here and the loop moves on. A nonzero
    /// count against a well-behaved fabric indicates frame corruption or
    /// a version skew.
    pub fn malformed_frames(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Requests shutdown and joins the node thread (see the type-level
    /// docs for the drop equivalent).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Like [`NodeHandle::shutdown`], but returns the protocol's final
    /// [`ProtocolAudit`] — the adversary-containment counters the
    /// wall-clock fabric's scenario runner collects this way, and the UDP
    /// cluster worker ships back over its control channel.
    pub fn shutdown_with_audit(mut self) -> ProtocolAudit {
        self.shutdown_in_place();
        self.final_audit.lock().take().unwrap_or_default()
    }

    fn shutdown_in_place(&mut self) {
        let _ = self.commands.send(Command::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Spawns `protocol` on a dedicated thread, driven by `transport`; one
/// logical [`SimTime`] tick corresponds to `tick_interval` of wall time
/// (clamped to at least one millisecond).
///
/// The runtime decodes incoming frames, routes them to the protocol,
/// fires the protocol's timers at their deadlines, encodes and transmits
/// outgoing messages, surfaces deliveries through the returned handle,
/// and retries pending broadcasts whose knowledge was still incomplete.
///
/// Between events the thread sleeps until
/// `min(next timer deadline, command poll)` — it does not busy-wake once
/// per tick.
pub fn spawn_node<P, T>(protocol: P, transport: T, tick_interval: Duration) -> NodeHandle
where
    P: Protocol + Send + 'static,
    T: Transport + 'static,
{
    let (commands, command_rx) = unbounded::<Command>();
    let (delivery_tx, deliveries) = unbounded::<(BroadcastId, Payload)>();
    let wakeups = Arc::new(AtomicU64::new(0));
    let malformed = Arc::new(AtomicU64::new(0));
    let final_audit = Arc::new(Mutex::new(None));
    let node = Node {
        protocol,
        transport,
        actions: Actions::new(),
        delivery_tx,
        wakeup_counter: Arc::clone(&wakeups),
        malformed_counter: Arc::clone(&malformed),
        audit_slot: Arc::clone(&final_audit),
    };
    let clock = WallClock::new(tick_interval);
    let thread = std::thread::spawn(move || run_wall_node(node, clock, command_rx));
    NodeHandle {
        commands,
        deliveries,
        wakeups,
        malformed,
        final_audit,
        thread: Some(thread),
    }
}

/// The state a node's thread takes with it.
struct Node<P, T> {
    protocol: P,
    transport: T,
    actions: Actions,
    delivery_tx: Sender<(BroadcastId, Payload)>,
    wakeup_counter: Arc<AtomicU64>,
    malformed_counter: Arc<AtomicU64>,
    audit_slot: Arc<Mutex<Option<ProtocolAudit>>>,
}

/// A cooperative crash window on the wall clock: down from `started`
/// until `until`. Recovery reports the whole episode
/// (`until − started`), so overlapping crash commands that extend or
/// shorten the window still yield one episode-length recovery — the
/// kernel's accumulated `down_ticks` semantics.
struct CrashWindow {
    started: SimTime,
    until: SimTime,
}

/// The wall-clock event loop.
fn run_wall_node<P, T>(node: Node<P, T>, clock: WallClock, command_rx: Receiver<Command>)
where
    P: Protocol,
    T: Transport,
{
    let Node {
        protocol,
        mut transport,
        mut actions,
        delivery_tx,
        wakeup_counter,
        malformed_counter,
        audit_slot,
    } = node;
    let session: WallSession = clock.begin();
    let mut protocol = SelfTimed::new(protocol);
    let mut pending_broadcasts: Vec<Payload> = Vec::new();
    let mut crash: Option<CrashWindow> = None;

    let mut now = SimTime::ZERO;
    protocol.start(now, &mut actions);
    flush(&mut actions, &transport, &delivery_tx);

    let mut shutting_down = false;
    'run: loop {
        wakeup_counter.fetch_add(1, Ordering::Relaxed);
        now = session.now();

        // 0. Crash recovery: the outage window elapsed — report the
        //    recovery first, so timers deferred by the crash fire after
        //    it (the kernel's phase order).
        if crash.as_ref().is_some_and(|w| now >= w.until) {
            let window = crash.take().expect("checked above");
            protocol.on_event(
                now,
                Event::Recovery {
                    down_ticks: window.until.saturating_since(window.started),
                },
                &mut actions,
            );
            flush(&mut actions, &transport, &delivery_tx);
        }

        // 1. External commands.
        loop {
            match command_rx.try_recv() {
                Ok(Command::Broadcast(payload)) => pending_broadcasts.push(payload),
                Ok(Command::Crash { down_ticks }) => {
                    // A new deadline overrides a running one (the
                    // kernel's force_down replaces the remaining count),
                    // but the episode keeps its original start so the
                    // recovery event reports the full outage.
                    let started = crash.as_ref().map_or(now, |w| w.started);
                    crash = Some(CrashWindow {
                        started,
                        until: now + down_ticks,
                    });
                }
                Ok(Command::Corrupt { mode, window }) => {
                    protocol.on_event(now, Event::Corrupt { mode, window }, &mut actions);
                    flush(&mut actions, &transport, &delivery_tx);
                }
                Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => {
                    shutting_down = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
        }

        let down = crash.is_some();

        // 2. Pending broadcasts (retried until knowledge suffices).
        //    While down, broadcasts stay queued — the kernel defers
        //    commands to down processes the same way.
        if !down {
            pending_broadcasts.retain(|payload| {
                let result = protocol.broadcast(now, payload.clone(), &mut actions);
                BroadcastOutcome::of(&result) == BroadcastOutcome::Deferred && !shutting_down
            });
            flush(&mut actions, &transport, &delivery_tx);
        }

        // On shutdown, the queued work above was drained and its sends
        // transmitted before the thread exits — unless the node is
        // inside a crash window, in which case its queue dies with it
        // (a down process cannot issue broadcasts; see the NodeHandle
        // docs).
        if shutting_down {
            break 'run;
        }

        // 3. Fire timers that are due at the current logical tick
        //    (suppressed while down; they fire on the recovery wakeup).
        if !down {
            protocol.fire_due(now, &mut actions);
            flush(&mut actions, &transport, &delivery_tx);
        }

        // 4. Sleep until the next deadline (or the command-poll cap),
        //    waking early for incoming frames. While down, the next
        //    deadline is the recovery tick.
        let next_deadline = match &crash {
            Some(window) => Some(window.until),
            None => protocol.next_deadline(),
        };
        let budget = next_deadline
            .map(|at| session.until(at))
            .unwrap_or(COMMAND_POLL)
            .min(COMMAND_POLL);
        match transport.recv_timeout(budget) {
            Ok(Some((from, frame))) => {
                now = session.now();
                if crash.is_some() {
                    // Down: inbound traffic is dropped on the floor,
                    // mirroring the kernel's receiver-down drops.
                } else {
                    match decode_message(&frame) {
                        Ok(message) => {
                            protocol.on_event(now, Event::Message { from, message }, &mut actions);
                            flush(&mut actions, &transport, &delivery_tx);
                        }
                        // Malformed frames from the network are
                        // counted and dropped, never a panic.
                        Err(_) => {
                            malformed_counter.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Ok(None) => {}
            Err(_) => break 'run,
        }
    }
    *audit_slot.lock() = Some(protocol.protocol().audit());
}

/// Transmits queued sends and surfaces deliveries.
fn flush<T: Transport>(
    actions: &mut Actions,
    transport: &T,
    deliveries: &Sender<(BroadcastId, Payload)>,
) {
    for (to, message) in actions.take_sends() {
        let frame = encode_message(&message);
        // Losing frames is part of the model; losing *errors* is not.
        // Unknown peers can legitimately occur while topology knowledge
        // is still spreading, so send failures are ignored here.
        let _ = transport.send(to, &frame);
    }
    for (id, payload) in actions.take_deliveries() {
        let _ = deliveries.send((id, payload));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use diffuse_core::{NetworkKnowledge, OptimalBroadcast};
    use diffuse_model::{Configuration, ProcessId, Topology};

    use super::*;
    use crate::Fabric;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// 0 — 1 — 2 line with perfect links: an end-to-end optimal
    /// broadcast across three real threads.
    #[test]
    fn optimal_broadcast_over_fabric_threads() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        topology.add_link(p(1), p(2)).unwrap();
        let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());

        let mut transports = Fabric::build(&topology);
        let mut handles: BTreeMap<ProcessId, NodeHandle> = BTreeMap::new();
        for id in [p(0), p(1), p(2)] {
            let transport = transports.remove(&id).unwrap();
            let protocol = OptimalBroadcast::new(id, knowledge.clone(), 0.99);
            handles.insert(
                id,
                spawn_node(protocol, transport, Duration::from_millis(5)),
            );
        }

        handles[&p(0)]
            .broadcast(Payload::from("over the wire"))
            .unwrap();

        for id in [p(0), p(1), p(2)] {
            let delivery = handles[&id]
                .next_delivery(Duration::from_secs(5))
                .unwrap()
                .unwrap_or_else(|| panic!("{id} should deliver"));
            assert_eq!(delivery.1.as_bytes(), b"over the wire");
            assert_eq!(delivery.0.origin, p(0));
        }

        for (_, handle) in handles {
            handle.shutdown();
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());
        let mut transports = Fabric::build(&topology);
        let handle = spawn_node(
            OptimalBroadcast::new(p(0), knowledge, 0.99),
            transports.remove(&p(0)).unwrap(),
            Duration::from_millis(5),
        );
        handle.shutdown();
        // Second node dropped without explicit shutdown.
        let handle2 = spawn_node(
            OptimalBroadcast::new(
                p(1),
                NetworkKnowledge::exact(topology, Configuration::new()),
                0.99,
            ),
            transports.remove(&p(1)).unwrap(),
            Duration::from_millis(5),
        );
        drop(handle2);
    }

    /// Dropping a handle right after `broadcast` must not abort the
    /// node mid-send: the queued broadcast is issued and transmitted
    /// before the thread is joined, so the peer still delivers it.
    #[test]
    fn drop_without_shutdown_drains_pending_broadcasts() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());
        let mut transports = Fabric::build(&topology);
        let t1 = transports.remove(&p(1)).unwrap();
        let t0 = transports.remove(&p(0)).unwrap();

        let h1 = spawn_node(
            OptimalBroadcast::new(p(1), knowledge.clone(), 0.99),
            t1,
            Duration::from_millis(2),
        );
        let h0 = spawn_node(
            OptimalBroadcast::new(p(0), knowledge, 0.99),
            t0,
            Duration::from_millis(2),
        );
        h0.broadcast(Payload::from("dropped, not aborted")).unwrap();
        drop(h0); // no shutdown() — Drop must still drain and join

        let got = h1
            .next_delivery(Duration::from_secs(5))
            .unwrap()
            .expect("the broadcast queued before the drop must cross");
        assert_eq!(got.1.as_bytes(), b"dropped, not aborted");
        h1.shutdown();
    }

    /// A cooperative crash makes the node deaf for its window: frames
    /// sent during the outage are dropped, frames after recovery land.
    #[test]
    #[allow(clippy::disallowed_methods)] // real-thread test sleeps on wall time
    fn cooperative_crash_drops_traffic_then_recovers() {
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());
        let mut transports = Fabric::build(&topology);
        let t1 = transports.remove(&p(1)).unwrap();
        let t0 = transports.remove(&p(0)).unwrap();
        let tick = Duration::from_millis(2);

        let h1 = spawn_node(
            OptimalBroadcast::new(p(1), knowledge.clone(), 0.99),
            t1,
            tick,
        );
        let h0 = spawn_node(OptimalBroadcast::new(p(0), knowledge, 0.99), t0, tick);

        // Crash p1 for a long window, then broadcast while it is down.
        h1.inject_crash(200).unwrap();
        // lint:allow(no-wall-clock): real-thread test; waits for the crash command to land.
        std::thread::sleep(Duration::from_millis(60));
        h0.broadcast(Payload::from("into the void")).unwrap();
        let during = h1.next_delivery(Duration::from_millis(120)).unwrap();
        assert!(during.is_none(), "a crashed node must not deliver");

        // After the 200-tick (400 ms) window the node recovers and
        // subsequent broadcasts land again.
        // lint:allow(no-wall-clock): real-thread test; must wait out the crash window.
        std::thread::sleep(Duration::from_millis(400));
        h0.broadcast(Payload::from("back online")).unwrap();
        let after = h1
            .next_delivery(Duration::from_secs(5))
            .unwrap()
            .expect("recovered node delivers again");
        assert_eq!(after.1.as_bytes(), b"back online");

        h0.shutdown();
        h1.shutdown();
    }
}
