//! The optimal probabilistic reliable broadcast (Algorithm 1).

use std::collections::BTreeSet;
use std::sync::Arc;

use diffuse_model::ProcessId;
use diffuse_sim::SimTime;

use crate::protocol::{Actions, BroadcastId, DataMessage, Event, Message, Payload, Protocol};
use crate::tree::SharedWireTree;
use crate::{CoreError, NetworkKnowledge};

/// Forwards a data message to the executing process's children in the
/// shipped tree, sending the per-link counts computed by `optimize`
/// (Algorithm 1's `propagate`). Shared by the optimal and adaptive
/// protocols. Nothing is sent when it fails.
///
/// # Errors
///
/// * [`CoreError::NotInTree`] if `self_id` does not appear in the tree;
/// * any [`optimize`](crate::optimize) error.
pub(crate) fn propagate(
    self_id: ProcessId,
    id: BroadcastId,
    payload: &Payload,
    wire: &SharedWireTree,
    k: f64,
    actions: &mut Actions,
) -> Result<(), CoreError> {
    for (child, copies) in wire.forwards(self_id, k)? {
        for _ in 0..copies {
            actions.send(
                child,
                Message::Data(DataMessage {
                    id,
                    payload: payload.clone(),
                    tree: Arc::clone(wire),
                }),
            );
        }
    }
    Ok(())
}

/// The paper's optimal algorithm (Algorithm 1): reliable broadcast with
/// *exact* knowledge of the topology and failure configuration.
///
/// On `broadcast`, the sender builds the maximum reliability tree rooted
/// at itself, computes the optimal per-link message counts with
/// `optimize()` (Algorithm 2), ships the tree with every copy, and
/// delivers locally. On first receipt of a data message, a process
/// delivers it and propagates it to its own children *in the sender's
/// tree*, re-deriving the same counts deterministically.
///
/// This protocol is mostly of theoretical interest (perfect knowledge is
/// unobtainable); it is the yardstick the adaptive algorithm converges to
/// (Definition 2) and the "optimal" curve in the paper's figures.
#[derive(Debug)]
pub struct OptimalBroadcast {
    id: ProcessId,
    knowledge: NetworkKnowledge,
    target: f64,
    next_seq: u64,
    seen: BTreeSet<BroadcastId>,
    delivered: Vec<(BroadcastId, Payload)>,
    /// Cached wire tree rooted at this process (knowledge never changes).
    cached_tree: Option<SharedWireTree>,
    errors: u64,
}

impl OptimalBroadcast {
    /// Creates an optimal broadcaster with exact `knowledge` and target
    /// reliability `k` (the paper's `K`, e.g. `0.9999`). Every process of
    /// a run may take a clone of one `knowledge`: clones share its
    /// `(G, C)`, so the run holds it once.
    pub fn new(id: ProcessId, knowledge: NetworkKnowledge, k: f64) -> Self {
        OptimalBroadcast {
            id,
            knowledge,
            target: k,
            next_seq: 0,
            seen: BTreeSet::new(),
            delivered: Vec::new(),
            cached_tree: None,
            errors: 0,
        }
    }

    /// The target reliability `K`.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// The exact knowledge this process operates on.
    pub fn knowledge(&self) -> &NetworkKnowledge {
        &self.knowledge
    }

    /// Number of malformed or un-forwardable messages ignored so far.
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// Returns `true` iff this broadcast has been seen (delivered).
    pub fn has_seen(&self, id: BroadcastId) -> bool {
        self.seen.contains(&id)
    }

    fn tree_for_self(&mut self) -> Result<SharedWireTree, CoreError> {
        if let Some(tree) = &self.cached_tree {
            return Ok(Arc::clone(tree));
        }
        let wire: SharedWireTree = Arc::new(self.knowledge.reliability_tree(self.id)?);
        self.cached_tree = Some(Arc::clone(&wire));
        Ok(wire)
    }
}

impl Protocol for OptimalBroadcast {
    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        match event {
            Event::Message { message, .. } => {
                let Message::Data(data) = message else {
                    return; // optimal nodes exchange only data messages
                };
                // "when receive (m, mrt_j) for the first time" —
                // duplicates are counted on the wire but ignored here.
                if !self.seen.insert(data.id) {
                    return;
                }
                self.delivered.push((data.id, data.payload.clone()));
                actions.deliver(data.id, data.payload.clone());
                if let Err(_e) = propagate(
                    self.id,
                    data.id,
                    &data.payload,
                    &data.tree,
                    self.target,
                    actions,
                ) {
                    self.errors += 1;
                }
            }
            // Perfect knowledge needs no timers and survives crashes
            // statelessly (stable storage holds `seen`). Corruption
            // windows are consumed by the Adversary wrapper.
            Event::Timer(_) | Event::Recovery { .. } | Event::Corrupt { .. } => {}
            Event::Broadcast(payload) => {
                if self.broadcast(now, payload, actions).is_err() {
                    self.errors += 1;
                }
            }
        }
    }

    fn broadcast(
        &mut self,
        _now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        let wire = self.tree_for_self()?;
        let id = BroadcastId {
            origin: self.id,
            seq: self.next_seq,
        };
        // An unreachable or invalid target fails here, before the id is
        // spent or marked seen.
        propagate(self.id, id, &payload, &wire, self.target, actions)?;
        self.next_seq += 1;
        self.seen.insert(id);
        self.delivered.push((id, payload.clone()));
        actions.deliver(id, payload);
        Ok(id)
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        &self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_model::{Configuration, Probability, Topology};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Line 0-1-2 with 10% loss per link.
    fn line_knowledge() -> NetworkKnowledge {
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_link(p(1), p(2)).unwrap();
        let c = Configuration::uniform(&g, Probability::ZERO, Probability::new(0.1).unwrap());
        NetworkKnowledge::exact(g, c)
    }

    #[test]
    fn broadcast_sends_planned_copies_and_delivers_locally() {
        let mut node = OptimalBroadcast::new(p(0), line_knowledge(), 0.999);
        let mut actions = Actions::new();
        let id = node
            .broadcast(SimTime::ZERO, Payload::from("m"), &mut actions)
            .unwrap();

        // λ = 0.1 on each of the two links: reaching both processes with
        // probability 0.999 needs (1 - λ^m)² ≥ 0.999 → 4 copies per link.
        // The root only sends to its child p1.
        assert_eq!(actions.sends().len(), 4);
        assert!(actions.sends().iter().all(|(to, _)| *to == p(1)));
        assert_eq!(actions.deliveries().len(), 1);
        assert_eq!(node.delivered().len(), 1);
        assert!(node.has_seen(id));
        assert_eq!(id.origin, p(0));
    }

    #[test]
    fn receiver_delivers_once_and_forwards_downstream() {
        let mut sender = OptimalBroadcast::new(p(0), line_knowledge(), 0.999);
        let mut relay = OptimalBroadcast::new(p(1), line_knowledge(), 0.999);

        let mut actions = Actions::new();
        sender
            .broadcast(SimTime::ZERO, Payload::from("m"), &mut actions)
            .unwrap();
        let sends = actions.take_sends();
        let (_, first_copy) = sends[0].clone();

        // First copy: deliver + forward 4 copies to p2 (same plan as the
        // sender derived — see broadcast_sends_planned_copies).
        let mut relay_actions = Actions::new();
        relay.handle_message(
            SimTime::new(1),
            p(0),
            first_copy.clone(),
            &mut relay_actions,
        );
        assert_eq!(relay.delivered().len(), 1);
        assert_eq!(relay_actions.sends().len(), 4);
        assert!(relay_actions.sends().iter().all(|(to, _)| *to == p(2)));

        // Duplicate: ignored entirely.
        let mut dup_actions = Actions::new();
        relay.handle_message(SimTime::new(2), p(0), first_copy, &mut dup_actions);
        assert!(dup_actions.is_empty());
        assert_eq!(relay.delivered().len(), 1);
    }

    #[test]
    fn leaf_forwards_nothing() {
        let mut sender = OptimalBroadcast::new(p(0), line_knowledge(), 0.999);
        let mut leaf = OptimalBroadcast::new(p(2), line_knowledge(), 0.999);
        let mut actions = Actions::new();
        sender
            .broadcast(SimTime::ZERO, Payload::from("m"), &mut actions)
            .unwrap();
        let (_, copy) = actions.take_sends()[0].clone();
        let mut leaf_actions = Actions::new();
        leaf.handle_message(SimTime::new(1), p(1), copy, &mut leaf_actions);
        assert!(leaf_actions.sends().is_empty());
        assert_eq!(leaf.delivered().len(), 1);
    }

    #[test]
    fn broadcast_event_sends_the_planned_copies() {
        let mut node = OptimalBroadcast::new(p(0), line_knowledge(), 0.999);
        let mut actions = Actions::new();
        node.on_event(
            SimTime::ZERO,
            Event::Broadcast(Payload::from("m")),
            &mut actions,
        );
        // Same plan as the direct broadcast() call: 4 copies to p1.
        assert_eq!(actions.sends().len(), 4);
        assert_eq!(node.delivered().len(), 1);
        assert_eq!(node.error_count(), 0);
    }

    #[test]
    fn non_data_messages_are_ignored() {
        let mut node = OptimalBroadcast::new(p(0), line_knowledge(), 0.999);
        let mut actions = Actions::new();
        node.handle_message(
            SimTime::ZERO,
            p(1),
            Message::Ack {
                id: BroadcastId {
                    origin: p(1),
                    seq: 0,
                },
            },
            &mut actions,
        );
        assert!(actions.is_empty());
        assert_eq!(node.error_count(), 0);
    }

    /// Processes handed clones of one knowledge build their trees on one
    /// index: the second broadcaster finds the first one's.
    #[test]
    fn broadcasters_share_one_index() {
        let knowledge = line_knowledge();
        let mut first = OptimalBroadcast::new(p(0), knowledge.clone(), 0.999);
        let mut second = OptimalBroadcast::new(p(2), knowledge.clone(), 0.999);
        let mut actions = Actions::new();
        first
            .broadcast(SimTime::ZERO, Payload::from("a"), &mut actions)
            .unwrap();
        let built = first.knowledge().index() as *const _;
        second
            .broadcast(SimTime::ZERO, Payload::from("b"), &mut actions)
            .unwrap();
        assert!(std::ptr::eq(second.knowledge().index(), built));
        assert!(std::ptr::eq(knowledge.index(), built));
    }

    #[test]
    fn broadcast_fails_on_disconnected_knowledge() {
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_process(p(2));
        let knowledge = NetworkKnowledge::exact(g, Configuration::new());
        let mut node = OptimalBroadcast::new(p(0), knowledge, 0.99);
        let mut actions = Actions::new();
        assert!(matches!(
            node.broadcast(SimTime::ZERO, Payload::empty(), &mut actions),
            Err(CoreError::KnowledgeIncomplete)
        ));
    }

    #[test]
    fn failed_broadcast_spends_no_id_and_marks_nothing_seen() {
        // Line 0-1-2 whose second link loses everything: λ = 1, so no
        // number of copies reaches the target.
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        let dead = g.add_link(p(1), p(2)).unwrap();
        let mut c = Configuration::uniform(&g, Probability::ZERO, Probability::new(0.1).unwrap());
        c.set_loss(dead, Probability::ONE);
        let mut node = OptimalBroadcast::new(p(0), NetworkKnowledge::exact(g, c), 0.999);

        let mut actions = Actions::new();
        assert!(matches!(
            node.broadcast(SimTime::ZERO, Payload::from("m"), &mut actions),
            Err(CoreError::TargetUnreachable { .. })
        ));
        assert!(actions.is_empty());
        let first = BroadcastId {
            origin: p(0),
            seq: 0,
        };
        assert!(!node.has_seen(first));
        assert!(node.delivered().is_empty());

        // The link heals (exact knowledge is replaced wholesale): the
        // next broadcast is the node's first.
        node.knowledge = line_knowledge();
        node.cached_tree = None;
        let id = node
            .broadcast(SimTime::new(1), Payload::from("m"), &mut actions)
            .unwrap();
        assert_eq!(id, first);
        assert!(node.has_seen(first));
    }

    #[test]
    fn tree_cache_is_reused_across_broadcasts() {
        let mut node = OptimalBroadcast::new(p(0), line_knowledge(), 0.999);
        let mut actions = Actions::new();
        node.broadcast(SimTime::ZERO, Payload::from("a"), &mut actions)
            .unwrap();
        node.broadcast(SimTime::ZERO, Payload::from("b"), &mut actions)
            .unwrap();
        let trees: Vec<_> = actions
            .sends()
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Data(d) => Some(Arc::as_ptr(&d.tree)),
                _ => None,
            })
            .collect();
        assert!(trees.windows(2).all(|w| w[0] == w[1]));
    }

    mod plan_memo {
        use super::*;
        use crate::{optimize, ReliabilityTree};
        use diffuse_graph::SpanningTree;
        use proptest::prelude::*;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        const STRANGER: u32 = 10_000;

        /// The tree a wire's parent positions span, whatever the order of
        /// its positions (parents must precede children).
        fn rebuild(nodes: &[ProcessId], parent: &[u32]) -> SpanningTree {
            let parents = nodes[1..]
                .iter()
                .zip(parent)
                .map(|(&q, &par)| (q, nodes[par as usize]));
            SpanningTree::from_parents(nodes[0], parents.collect()).expect("parents precede")
        }

        /// `propagate` as it was before the labelled tree was its own
        /// wire form: rebuild the tree, re-index λ by the rebuilt tree's
        /// BFS order, optimize on every call, forward to the rebuilt
        /// tree's children.
        fn reference(
            me: ProcessId,
            wire: &ReliabilityTree,
            k: f64,
        ) -> Result<Vec<ProcessId>, CoreError> {
            let (root, nodes, parent, lambda) = wire.parts();
            let tree = rebuild(nodes, parent);
            if !tree.contains(me) {
                return Err(CoreError::NotInTree(me));
            }
            let order: Vec<ProcessId> = tree.processes().collect();
            let at = |order: &[ProcessId], q| order.iter().position(|&o| o == q).unwrap();
            let reindexed = ReliabilityTree::from_parts(
                root,
                order.clone(),
                tree.edges()
                    .map(|(par, _)| at(&order, par) as u32)
                    .collect(),
                order[1..]
                    .iter()
                    .map(|&q| lambda[at(nodes, q) - 1])
                    .collect(),
            )?;
            let plan = optimize(&reindexed, k)?;
            let mut sends = Vec::new();
            for &child in tree.children(me) {
                let j = at(&order, child) - 1;
                sends.extend((0..plan.count(j)).map(|_| child));
            }
            Ok(sends)
        }

        fn destinations(
            me: ProcessId,
            wire: &SharedWireTree,
            k: f64,
        ) -> Result<Vec<ProcessId>, CoreError> {
            let id = BroadcastId {
                origin: wire.root(),
                seq: 7,
            };
            let mut actions = Actions::new();
            let sent = propagate(me, id, &Payload::from("m"), wire, k, &mut actions);
            if sent.is_err() {
                assert!(actions.is_empty(), "a failed propagate sent something");
            }
            sent.map(|()| actions.sends().iter().map(|(to, _)| *to).collect())
        }

        /// Forwarding from `shared` — memo filled by the first member —
        /// and from private, memo-empty copies equals the reference for
        /// every member and a stranger, with `k` and with another `K`.
        fn check_forwarding(shared: &SharedWireTree, k: f64, other_k: f64) {
            let (_, nodes, _, _) = shared.parts();
            let mut receivers = nodes.to_vec();
            receivers.push(ProcessId::new(STRANGER));
            for &me in &receivers {
                let fresh = Arc::new(shared.to_wire());
                assert!(!fresh.is_planned());
                let expected = reference(me, &fresh, k);
                assert_eq!(&destinations(me, &fresh, k), &expected);
                assert_eq!(&destinations(me, shared, k), &expected);
                assert!(shared.is_planned());
                // Another K is served without disturbing the memo.
                assert_eq!(
                    destinations(me, shared, other_k),
                    reference(me, &fresh, other_k)
                );
                assert_eq!(&destinations(me, shared, k), &expected);
            }
        }

        proptest! {
            /// Forwarding from a shared, memo-filled instance is
            /// forwarding from a private, memo-empty one, and both are
            /// the per-call rebuild-and-reindex derivation: same
            /// destinations, order and counts — or same error — for every
            /// member and a stranger, for a receiver with another `K`. A
            /// tree out of canonical order, or otherwise malformed, is
            /// refused by `from_parts`, as every decoded frame is.
            #[test]
            fn prop_memoised_forwarding_equals_per_call_derivation(
                lambdas in proptest::collection::vec(0.0f64..0.99, 1..10),
                seed in any::<u64>(),
                k_pick in 0usize..3,
                hostile in 0usize..8,
            ) {
                const KS: [f64; 3] = [0.9, 0.999, 0.999999];
                let (k, other_k) = (KS[k_pick], KS[(k_pick + 1) % 3]);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let n = lambdas.len();
                // Ids land on positions at random; sorted parent draws and
                // ascending sibling runs make the order canonical.
                let mut nodes: Vec<ProcessId> = (0..=n as u32).map(ProcessId::new).collect();
                nodes.shuffle(&mut rng);
                let mut parent: Vec<u32> = (0..n as u32).map(|i| rng.gen_range(0..=i)).collect();
                parent.sort_unstable();
                let mut run = 0;
                while run < n {
                    let end = run + parent[run..].partition_point(|&q| q == parent[run]);
                    nodes[run + 1..end + 1].sort_unstable();
                    run = end;
                }
                let mut lambda = lambdas;
                match hostile {
                    1 => parent[0] = 1,        // forward parent
                    2 => nodes[n] = nodes[0],  // duplicate node
                    3 => lambda[n - 1] = 1.5,  // λ out of range
                    4 => lambda[0] = 1.0,      // well-formed, target unreachable
                    5 if n >= 2 => {
                        // descending siblings
                        parent[1] = 0;
                        if nodes[1] < nodes[2] {
                            nodes.swap(1, 2);
                        }
                    }
                    6 if n >= 3 => {
                        // a parent before a smaller one
                        parent[n - 2] = parent[n - 2].max(1);
                        parent[n - 1] = 0;
                    }
                    7 => {
                        // shuffled positions, parents anywhere earlier
                        nodes[1..].shuffle(&mut rng);
                        for (i, q) in parent.iter_mut().enumerate() {
                            *q = rng.gen_range(0..=i as u32);
                        }
                    }
                    _ => {}
                }
                // Canonical iff the positions are the BFS order of the
                // tree the parents span.
                let malformed = match hostile {
                    1..=3 => true,
                    _ => !rebuild(&nodes, &parent).processes().eq(nodes.iter().copied()),
                };
                prop_assert!(
                    malformed || !matches!((hostile, n), (5, 2..) | (6, 3..)),
                    "case {} left the order canonical",
                    hostile
                );
                let built = ReliabilityTree::from_parts(nodes[0], nodes, parent, lambda);
                if malformed {
                    prop_assert!(matches!(built, Err(CoreError::MalformedWireTree(_))));
                } else {
                    check_forwarding(&Arc::new(built.unwrap()), k, other_k);
                }
            }
        }
    }
}
