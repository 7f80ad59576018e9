//! The reference gossip algorithm (Section 5).
//!
//! "Our results were compared to a reference algorithm, implementing a
//! typical gossip-based reliable broadcast. The execution proceeds in
//! steps, and in each step processes forward data messages to their
//! neighbors. […] As a simple optimization, processes acknowledge the
//! receipt of data messages. Thus, when choosing the neighbors to which
//! some data message m will be forwarded, each process p never forwards m
//! to its neighbor q if (a) it has previously received m from q, or (b) it
//! has received an acknowledgment message from q for m."

use std::collections::BTreeSet;

use diffuse_model::ProcessId;
use diffuse_sim::{SimTime, TimerId};

use crate::protocol::{Actions, BroadcastId, Event, GossipMessage, Message, Payload, Protocol};
use crate::CoreError;

/// A set of neighbors, one bit per position in the node's neighbor list.
///
/// The per-tick forwarding loop is the Monte-Carlo hot path: every active
/// broadcast scans every neighbor on every step. Word-level bit tests
/// replace the `BTreeSet` lookups of the naive transcription, and the
/// combined exclusion mask (`received | acked`) lets the scan skip whole
/// words of suppressed neighbors at once.
#[derive(Debug, Clone, Default)]
struct NeighborBits(Vec<u64>);

impl NeighborBits {
    fn for_neighbors(count: usize) -> Self {
        NeighborBits(vec![0; count.div_ceil(64)])
    }

    fn insert(&mut self, position: usize) {
        self.0[position / 64] |= 1 << (position % 64);
    }
}

/// Per-broadcast forwarding state.
#[derive(Debug, Clone)]
struct GossipState {
    payload: Payload,
    /// Neighbors this message was received from (exclusion rule a).
    received_from: NeighborBits,
    /// Neighbors that acknowledged this message (exclusion rule b).
    acked_by: NeighborBits,
    /// Forwarding steps left before this entry goes quiet.
    remaining_steps: u32,
}

/// The reference gossip protocol: step-based flooding with ACK
/// suppression.
///
/// `steps` bounds how many ticks each process keeps forwarding a message
/// after first receiving it; the paper chose it "interactively" so that
/// all processes are reached with probability 0.9999 — the experiment
/// harness calibrates it by Monte-Carlo search
/// (`diffuse-experiments::calibrate_gossip_steps`).
#[derive(Debug)]
pub struct ReferenceGossip {
    id: ProcessId,
    neighbors: Vec<ProcessId>,
    /// `(neighbor, position)` sorted by neighbor id, for O(log n)
    /// sender-to-bit-position lookups on receipt.
    neighbor_positions: Vec<(ProcessId, u32)>,
    steps: u32,
    /// Ticks per forwarding step (see [`ReferenceGossip::with_step_period`]).
    step_period: u64,
    next_seq: u64,
    /// Broadcasts still forwarding, sorted by id: sized to what is live.
    active: Vec<(BroadcastId, GossipState)>,
    delivered: Vec<(BroadcastId, Payload)>,
    /// Ids in `delivered`, for O(log n) duplicate checks. A tree, not a
    /// sorted vector: it grows with every broadcast this process ever
    /// saw, so inserting at sorted positions would be quadratic.
    delivered_ids: BTreeSet<BroadcastId>,
    /// Data copies this process has pushed to the network.
    data_sent: u64,
    /// ACKs this process has pushed to the network.
    acks_sent: u64,
    /// Deadline of the pending [`ReferenceGossip::STEP`] timer, if any —
    /// armed only while `active` is non-empty, so an idle gossip node
    /// costs its driver nothing.
    step_timer_at: Option<SimTime>,
}

impl ReferenceGossip {
    /// The forwarding-round timer: armed at the next step-aligned tick
    /// whenever broadcasts are active, silent otherwise.
    pub const STEP: TimerId = TimerId::new(0);

    /// Creates a gossip node with the given direct neighbors and
    /// forwarding step budget.
    pub fn new(id: ProcessId, neighbors: Vec<ProcessId>, steps: u32) -> Self {
        let mut neighbor_positions: Vec<(ProcessId, u32)> = neighbors
            .iter()
            .enumerate()
            .map(|(position, &q)| (q, position as u32))
            .collect();
        neighbor_positions.sort_unstable();
        ReferenceGossip {
            id,
            neighbors,
            neighbor_positions,
            steps,
            step_period: 1,
            next_seq: 0,
            active: Vec::new(),
            delivered: Vec::new(),
            delivered_ids: BTreeSet::new(),
            data_sent: 0,
            acks_sent: 0,
            step_timer_at: None,
        }
    }

    /// The forwarding state of an active broadcast.
    fn active_mut(&mut self, id: BroadcastId) -> Option<&mut GossipState> {
        let index = self.active.binary_search_by_key(&id, |&(a, _)| a).ok()?;
        Some(&mut self.active[index].1)
    }

    /// Bit position of a neighbor, or `None` for a non-neighbor sender
    /// (nothing is ever forwarded to those, so no bit is needed).
    fn neighbor_position(&self, q: ProcessId) -> Option<usize> {
        self.neighbor_positions
            .binary_search_by_key(&q, |&(id, _)| id)
            .ok()
            .map(|i| self.neighbor_positions[i].1 as usize)
    }

    /// The forwarding step budget per message.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Stretches one forwarding step over `ticks` clock ticks (clamped to
    /// at least 1).
    ///
    /// With a one-tick message latency, a period of 2 lets data *and* its
    /// acknowledgement land between forwarding rounds — the paper's notion
    /// of a step (forward, receive, acknowledge) — so senders do not
    /// retransmit while an ACK is still in flight.
    #[must_use]
    pub fn with_step_period(mut self, ticks: u64) -> Self {
        self.step_period = ticks.max(1);
        self
    }

    /// Data copies sent so far by this process.
    pub fn data_sent(&self) -> u64 {
        self.data_sent
    }

    /// Acknowledgements sent so far by this process.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// Returns `true` iff this process delivered the given broadcast.
    pub fn has_delivered(&self, id: BroadcastId) -> bool {
        self.delivered_ids.contains(&id)
    }

    fn start_state(
        &mut self,
        id: BroadcastId,
        payload: Payload,
        remaining_steps: u32,
    ) -> &mut GossipState {
        let index = match self.active.binary_search_by_key(&id, |&(a, _)| a) {
            Ok(index) => index,
            Err(index) => {
                let state = GossipState {
                    payload,
                    received_from: NeighborBits::for_neighbors(self.neighbors.len()),
                    acked_by: NeighborBits::for_neighbors(self.neighbors.len()),
                    remaining_steps,
                };
                self.active.insert(index, (id, state));
                index
            }
        };
        &mut self.active[index].1
    }

    fn record_delivery(&mut self, id: BroadcastId, payload: Payload) {
        self.delivered.push((id, payload));
        self.delivered_ids.insert(id);
    }

    /// Arms [`Self::STEP`] at the next step-aligned tick (at or after
    /// `now`) if broadcasts are active and no earlier wake is pending.
    fn arm_step(&mut self, now: SimTime, actions: &mut Actions) {
        if self.active.is_empty() {
            return;
        }
        let at = SimTime::new(now.ticks().div_ceil(self.step_period) * self.step_period);
        if self.step_timer_at.is_some_and(|pending| pending <= at) {
            return;
        }
        self.step_timer_at = Some(at);
        actions.set_timer(Self::STEP, at);
    }

    /// One forwarding round (the body of the legacy per-tick handler):
    /// every active broadcast pushes a copy to each un-suppressed
    /// neighbor and burns one step; exhausted entries are retired.
    fn forward_round(&mut self, actions: &mut Actions) {
        self.active.retain_mut(|(id, state)| {
            if state.remaining_steps == 0 {
                return false;
            }
            state.remaining_steps -= 1;
            // Walk the un-suppressed frontier word by word; ascending bit
            // positions preserve the neighbor-list send order (and with
            // it the deterministic simulation streams).
            for (word_index, (&received, &acked)) in state
                .received_from
                .0
                .iter()
                .zip(state.acked_by.0.iter())
                .enumerate()
            {
                let mut free = !(received | acked);
                if word_index == self.neighbors.len() / 64 {
                    // Mask the padding bits past the last neighbor.
                    free &= (1u64 << (self.neighbors.len() % 64)) - 1;
                }
                while free != 0 {
                    let position = word_index * 64 + free.trailing_zeros() as usize;
                    free &= free - 1;
                    actions.send(
                        self.neighbors[position],
                        Message::Gossip(GossipMessage {
                            id: *id,
                            payload: state.payload.clone(),
                            ttl: state.remaining_steps,
                        }),
                    );
                    self.data_sent += 1;
                }
            }
            true
        });
    }

    /// [`Self::STEP`] handler: forward on step-aligned ticks, otherwise
    /// (woken off-phase, e.g. deferred across an outage) re-align.
    fn on_step_timer(&mut self, now: SimTime, actions: &mut Actions) {
        self.step_timer_at = None;
        if now.ticks() % self.step_period == 0 {
            self.forward_round(actions);
            if !self.active.is_empty() {
                let next = now + self.step_period;
                self.step_timer_at = Some(next);
                actions.set_timer(Self::STEP, next);
            }
        } else {
            self.arm_step(now, actions);
        }
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ProcessId,
        message: Message,
        actions: &mut Actions,
    ) {
        match message {
            Message::Gossip(data) => {
                // Acknowledge every received copy; with lossy links a
                // single ACK could vanish and stall suppression forever.
                actions.send(from, Message::Ack { id: data.id });
                self.acks_sent += 1;
                let position = self.neighbor_position(from);
                match self.active_mut(data.id) {
                    Some(state) => {
                        if let Some(position) = position {
                            state.received_from.insert(position);
                        }
                    }
                    None => {
                        if self.has_delivered(data.id) {
                            return; // already completed its step budget
                        }
                        self.record_delivery(data.id, data.payload.clone());
                        actions.deliver(data.id, data.payload.clone());
                        // The copy's TTL says how many global steps remain.
                        let state = self.start_state(data.id, data.payload, data.ttl);
                        if let Some(position) = position {
                            state.received_from.insert(position);
                        }
                    }
                }
            }
            Message::Ack { id } => {
                let position = self.neighbor_position(from);
                if let (Some(position), Some(state)) = (position, self.active_mut(id)) {
                    state.acked_by.insert(position);
                }
            }
            _ => {}
        }
        // A first receipt may have activated a broadcast: make sure a
        // forwarding round is scheduled.
        self.arm_step(now, actions);
    }
}

impl Protocol for ReferenceGossip {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        match event {
            Event::Message { from, message } => self.on_message(now, from, message, actions),
            Event::Timer(Self::STEP) => self.on_step_timer(now, actions),
            Event::Timer(_) | Event::Recovery { .. } | Event::Corrupt { .. } => {}
            Event::Broadcast(payload) => {
                let _ = self.broadcast(now, payload, actions);
            }
        }
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        let id = BroadcastId {
            origin: self.id,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.record_delivery(id, payload.clone());
        actions.deliver(id, payload.clone());
        let steps = self.steps;
        self.start_state(id, payload, steps);
        self.arm_step(now, actions);
        Ok(id)
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        &self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::protocol::SelfTimed;

    fn timed(node: ReferenceGossip) -> SelfTimed<ReferenceGossip> {
        SelfTimed::new(node)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn data(id: BroadcastId) -> Message {
        data_with_ttl(id, 3)
    }

    fn data_with_ttl(id: BroadcastId, ttl: u32) -> Message {
        Message::Gossip(GossipMessage {
            id,
            payload: Payload::from("x"),
            ttl,
        })
    }

    #[test]
    fn broadcast_floods_on_following_ticks() {
        let mut node = timed(ReferenceGossip::new(p(0), vec![p(1), p(2)], 2));
        let mut actions = Actions::new();
        let id = node
            .broadcast(SimTime::ZERO, Payload::from("x"), &mut actions)
            .unwrap();
        // Broadcast itself sends nothing; forwarding happens on ticks.
        assert!(actions.sends().is_empty());
        assert_eq!(actions.deliveries().len(), 1);

        let mut tick1 = Actions::new();
        node.fire_due(SimTime::new(1), &mut tick1);
        assert_eq!(tick1.sends().len(), 2); // both neighbors

        let mut tick2 = Actions::new();
        node.fire_due(SimTime::new(2), &mut tick2);
        assert_eq!(tick2.sends().len(), 2); // no acks yet → keep pushing

        // Step budget exhausted.
        let mut tick3 = Actions::new();
        node.fire_due(SimTime::new(3), &mut tick3);
        assert!(tick3.sends().is_empty());
        assert_eq!(node.protocol().data_sent(), 4);
        assert!(node.protocol().has_delivered(id));
    }

    #[test]
    fn receipt_triggers_ack_delivery_and_forwarding() {
        let mut node = timed(ReferenceGossip::new(p(1), vec![p(0), p(2)], 3));
        let id = BroadcastId {
            origin: p(0),
            seq: 0,
        };
        let mut actions = Actions::new();
        node.handle_message(SimTime::new(1), p(0), data(id), &mut actions);
        // ACK back to the sender, delivery, no immediate forward.
        assert_eq!(actions.sends().len(), 1);
        assert!(matches!(actions.sends()[0], (to, Message::Ack { .. }) if to == p(0)));
        assert_eq!(node.protocol().delivered().len(), 1);
        assert_eq!(node.protocol().acks_sent(), 1);

        // Next tick: forwards only to p2 (rule a excludes p0).
        let mut tick = Actions::new();
        node.fire_due(SimTime::new(2), &mut tick);
        let targets: Vec<ProcessId> = tick.sends().iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![p(2)]);
    }

    #[test]
    fn duplicate_receipt_is_acked_but_not_redelivered() {
        let mut node = timed(ReferenceGossip::new(p(1), vec![p(0), p(2)], 3));
        let id = BroadcastId {
            origin: p(0),
            seq: 0,
        };
        let mut a1 = Actions::new();
        node.handle_message(SimTime::new(1), p(0), data(id), &mut a1);
        let mut a2 = Actions::new();
        node.handle_message(SimTime::new(1), p(2), data(id), &mut a2);
        assert_eq!(node.protocol().delivered().len(), 1);
        assert_eq!(a2.sends().len(), 1); // the ack
        assert!(a2.deliveries().is_empty());

        // Both neighbors are now sources → nothing left to forward to.
        let mut tick = Actions::new();
        node.fire_due(SimTime::new(2), &mut tick);
        assert!(tick.sends().is_empty());
    }

    #[test]
    fn acks_suppress_forwarding() {
        let mut node = timed(ReferenceGossip::new(p(0), vec![p(1), p(2)], 5));
        let mut actions = Actions::new();
        let id = node
            .broadcast(SimTime::ZERO, Payload::from("x"), &mut actions)
            .unwrap();
        node.handle_message(SimTime::new(1), p(1), Message::Ack { id }, &mut actions);

        let mut tick = Actions::new();
        node.fire_due(SimTime::new(1), &mut tick);
        let targets: Vec<ProcessId> = tick.sends().iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![p(2)]); // p1 suppressed by its ack
    }

    #[test]
    fn received_ttl_bounds_forwarding() {
        // A copy arriving with ttl = 0 is delivered but never forwarded:
        // the global step budget is exhausted.
        let mut node = timed(ReferenceGossip::new(p(1), vec![p(0), p(2)], 9));
        let id = BroadcastId {
            origin: p(0),
            seq: 0,
        };
        let mut a = Actions::new();
        node.handle_message(SimTime::new(1), p(0), data_with_ttl(id, 0), &mut a);
        assert_eq!(node.protocol().delivered().len(), 1);
        let mut tick = Actions::new();
        node.fire_due(SimTime::new(2), &mut tick);
        assert!(tick.sends().is_empty());
    }

    #[test]
    fn late_duplicates_after_completion_do_not_restart() {
        let mut node = timed(ReferenceGossip::new(p(1), vec![p(0)], 1));
        let id = BroadcastId {
            origin: p(0),
            seq: 0,
        };
        let mut a = Actions::new();
        node.handle_message(SimTime::new(1), p(0), data_with_ttl(id, 1), &mut a);
        node.fire_due(SimTime::new(2), &mut a); // consumes the only step
        node.fire_due(SimTime::new(3), &mut a); // cleans up state

        let mut late = Actions::new();
        node.handle_message(SimTime::new(4), p(0), data(id), &mut late);
        // Acked, but not redelivered and not reactivated.
        assert_eq!(late.sends().len(), 1);
        assert!(late.deliveries().is_empty());
        let mut tick = Actions::new();
        node.fire_due(SimTime::new(5), &mut tick);
        assert!(tick.sends().is_empty());
    }

    #[test]
    fn broadcast_event_behaves_like_broadcast_call() {
        // Event::Broadcast is the fire-and-forget entry point drivers
        // without a return channel use; it must match broadcast().
        let mut node = timed(ReferenceGossip::new(p(0), vec![p(1)], 2));
        let mut actions = Actions::new();
        node.protocol_mut().on_event(
            SimTime::ZERO,
            Event::Broadcast(Payload::from("fire-and-forget")),
            &mut actions,
        );
        assert_eq!(actions.deliveries().len(), 1);
        assert_eq!(node.protocol().delivered().len(), 1);
        // The step timer was armed through the same path.
        assert!(actions
            .take_timer_ops()
            .iter()
            .any(|&(t, at)| t == ReferenceGossip::STEP && at.is_some()));
    }

    #[test]
    fn overlapping_broadcasts_forward_in_id_order_and_retire_independently() {
        let mut node = timed(ReferenceGossip::new(p(1), vec![p(0), p(2)], 9));
        let low = BroadcastId {
            origin: p(0),
            seq: 1,
        };
        let high = BroadcastId {
            origin: p(3),
            seq: 0,
        };
        // Received out of id order, from a non-neighbor, so both
        // neighbors stay unsuppressed.
        let mut a = Actions::new();
        node.handle_message(SimTime::new(1), p(9), data_with_ttl(high, 3), &mut a);
        node.handle_message(SimTime::new(1), p(9), data_with_ttl(low, 1), &mut a);
        let active = |node: &SelfTimed<ReferenceGossip>| -> Vec<BroadcastId> {
            node.protocol().active.iter().map(|&(id, _)| id).collect()
        };
        assert_eq!(active(&node), vec![low, high]);

        let round = |node: &mut SelfTimed<ReferenceGossip>, at| -> Vec<(ProcessId, BroadcastId)> {
            let mut tick = Actions::new();
            node.fire_due(SimTime::new(at), &mut tick);
            tick.sends()
                .iter()
                .map(|(to, message)| match message {
                    Message::Gossip(data) => (*to, data.id),
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        // Ascending id order, each broadcast in neighbor-list order.
        assert_eq!(
            round(&mut node, 2),
            vec![(p(0), low), (p(2), low), (p(0), high), (p(2), high)]
        );
        // `low` spent its one step and retires; `high` forwards on.
        assert_eq!(round(&mut node, 3), vec![(p(0), high), (p(2), high)]);
        assert_eq!(active(&node), vec![high]);
        assert_eq!(round(&mut node, 4), vec![(p(0), high), (p(2), high)]);
        assert!(round(&mut node, 5).is_empty());
        assert!(active(&node).is_empty());
        assert_eq!(node.protocol().delivered().len(), 2);
    }

    #[test]
    fn ack_for_unknown_broadcast_is_ignored() {
        let mut node = ReferenceGossip::new(p(0), vec![p(1)], 2);
        let mut actions = Actions::new();
        node.handle_message(
            SimTime::new(1),
            p(1),
            Message::Ack {
                id: BroadcastId {
                    origin: p(9),
                    seq: 3,
                },
            },
            &mut actions,
        );
        assert!(actions.is_empty());
    }
}
