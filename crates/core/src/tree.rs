//! Reliability-labelled trees and their wire representation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use diffuse_graph::SpanningTree;
use diffuse_model::{Configuration, ProcessId};

use crate::{optimize, CoreError};

/// A spanning tree labelled for the optimization problem of Section 3.2.
///
/// Every non-root process `p_i` is assigned a dense *link index*
/// (breadth-first order) addressing the tree link `l_i` that leads to it,
/// and every link carries its single-transmission failure probability
/// `λ_i = 1 - (1 - P_{pred(i)})(1 - L_i)(1 - P_i)` (Eq. 1).
///
/// The λ labels are *baked in* at construction: Algorithm 1 ships the tree
/// together with data messages, and every receiver must re-derive exactly
/// the same per-link message counts, so all of them must work from the
/// sender's reliability view rather than their own.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityTree {
    tree: SpanningTree,
    /// `index_of[p]` is the link index of the link leading to `p`.
    index_of: BTreeMap<ProcessId, usize>,
    /// `process_at[i]` is the process reached through link index `i`.
    process_at: Vec<ProcessId>,
    /// `lambda[i]` is λ of link index `i`.
    lambda: Vec<f64>,
}

impl ReliabilityTree {
    /// Labels `tree` with λ values computed from `config`.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` reserves room for future
    /// validation and keeps call sites uniform with
    /// [`ReliabilityTree::from_wire`].
    pub fn from_spanning_tree(
        tree: &SpanningTree,
        config: &Configuration,
    ) -> Result<Self, CoreError> {
        let mut index_of = BTreeMap::new();
        let mut process_at = Vec::with_capacity(tree.link_count());
        let mut lambda = Vec::with_capacity(tree.link_count());
        for (parent, child) in tree.edges() {
            index_of.insert(child, process_at.len());
            process_at.push(child);
            lambda.push(config.lambda(parent, child).value());
        }
        Ok(ReliabilityTree {
            tree: tree.clone(),
            index_of,
            process_at,
            lambda,
        })
    }

    /// Reconstructs a labelled tree from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedWireTree`] if the wire data is
    /// inconsistent (see [`WireTree`] invariants).
    pub fn from_wire(wire: &WireTree) -> Result<Self, CoreError> {
        wire.validate()?;
        let mut parents = BTreeMap::new();
        for (i, &p) in wire.nodes.iter().enumerate().skip(1) {
            let parent = wire.nodes[wire.parent[i - 1] as usize];
            parents.insert(p, parent);
        }
        let tree = SpanningTree::from_parents(wire.root, parents)
            .map_err(|_| CoreError::MalformedWireTree("parent indices do not form a tree"))?;

        // Re-index in the *tree's* BFS order; λ values come from the wire.
        let wire_index: BTreeMap<ProcessId, usize> = wire
            .nodes
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &p)| (p, i - 1))
            .collect();
        let mut index_of = BTreeMap::new();
        let mut process_at = Vec::with_capacity(tree.link_count());
        let mut lambda = Vec::with_capacity(tree.link_count());
        for (_, child) in tree.edges() {
            index_of.insert(child, process_at.len());
            process_at.push(child);
            lambda.push(wire.lambda[wire_index[&child]]);
        }
        Ok(ReliabilityTree {
            tree,
            index_of,
            process_at,
            lambda,
        })
    }

    /// The underlying rooted tree.
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// The root (broadcasting) process.
    pub fn root(&self) -> ProcessId {
        self.tree.root()
    }

    /// Number of tree links (`|Π| - 1`).
    pub fn link_count(&self) -> usize {
        self.lambda.len()
    }

    /// λ of the link with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lambda(&self, i: usize) -> f64 {
        self.lambda[i]
    }

    /// All λ values, indexed by link index.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambda
    }

    /// Link index of the link leading to `p`; `None` for the root or
    /// unknown processes.
    pub fn index_of(&self, p: ProcessId) -> Option<usize> {
        self.index_of.get(&p).copied()
    }

    /// The process reached through link index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn process_at(&self, i: usize) -> ProcessId {
        self.process_at[i]
    }

    /// Children of `p` in the tree (its direct subtrees `S_p`).
    pub fn children(&self, p: ProcessId) -> &[ProcessId] {
        self.tree.children(p)
    }

    /// Serializes into the wire form shipped with data messages.
    pub fn to_wire(&self) -> WireTree {
        let mut nodes = Vec::with_capacity(self.tree.process_count());
        nodes.push(self.root());
        let mut node_index: BTreeMap<ProcessId, u32> = BTreeMap::new();
        node_index.insert(self.root(), 0);
        let mut parent = Vec::with_capacity(self.link_count());
        let mut lambda = Vec::with_capacity(self.link_count());
        for (par, child) in self.tree.edges() {
            parent.push(node_index[&par]);
            node_index.insert(child, nodes.len() as u32);
            nodes.push(child);
            lambda.push(self.lambda[self.index_of[&child]]);
        }
        WireTree {
            root: self.root(),
            nodes,
            parent,
            lambda,
            plan: OnceLock::new(),
        }
    }

    /// [`to_wire`](Self::to_wire) with the forwarding plan for target
    /// `k` already derived from `self`: the origin holds the labelled
    /// tree, so it skips the `from_wire` round trip (which rebuilds
    /// exactly `self`) that its receivers would otherwise start from.
    pub(crate) fn to_planned_wire(&self, k: f64) -> WireTree {
        let mut wire = self.to_wire();
        wire.plan = OnceLock::from(PlanMemo {
            k_bits: k.to_bits(),
            counts: wire.counts_from(self, k),
        });
        wire
    }
}

/// What forwarding needs from one `from_wire` + `optimize` derivation.
#[derive(Clone)]
struct PlanMemo {
    /// Bits of the target `K` the derivation ran with.
    k_bits: u64,
    /// Copies per link — `counts[i]` for the link into `nodes[i + 1]` —
    /// or the error the derivation ended in.
    counts: Result<Vec<u32>, CoreError>,
}

/// The serializable tree representation attached to data messages.
///
/// Algorithm 1 sends `(m, mrt_j)` — the message together with the tree it
/// must follow. `WireTree` is that `mrt_j`: a compact, position-indexed
/// encoding with the sender's λ per link, so every receiver re-derives
/// the same [`MessagePlan`](crate::MessagePlan) deterministically.
///
/// Invariants (checked by [`ReliabilityTree::from_wire`]):
///
/// * `nodes` is non-empty and duplicate-free, `nodes[0]` is `root`;
/// * `parent.len() == lambda.len() == nodes.len() - 1`;
/// * `parent[i] < i + 1` (parents precede children — BFS order);
/// * every λ is a finite value in `[0, 1]`.
///
/// Every receiver of one instance derives the same plan from it, so the
/// first derivation is kept in a write-once memo. The memo is no part of
/// the value: equality, `Debug`, [`parts`](WireTree::parts) and the
/// codec ignore it, and a tree built by [`from_parts`](WireTree::from_parts)
/// — every decoded frame — starts without one and is validated by its
/// own receiver.
#[derive(Clone)]
pub struct WireTree {
    root: ProcessId,
    nodes: Vec<ProcessId>,
    parent: Vec<u32>,
    lambda: Vec<f64>,
    plan: OnceLock<PlanMemo>,
}

impl PartialEq for WireTree {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl fmt::Debug for WireTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireTree")
            .field("root", &self.root)
            .field("nodes", &self.nodes)
            .field("parent", &self.parent)
            .field("lambda", &self.lambda)
            .finish()
    }
}

impl WireTree {
    /// The tree's root process.
    pub fn root(&self) -> ProcessId {
        self.root
    }

    /// Number of processes in the tree.
    pub fn process_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` iff `p` appears in the tree.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.nodes.contains(&p)
    }

    /// Raw field access for codecs: `(root, nodes, parent, lambda)`.
    pub fn parts(&self) -> (ProcessId, &[ProcessId], &[u32], &[f64]) {
        (self.root, &self.nodes, &self.parent, &self.lambda)
    }

    /// Rebuilds a wire tree from raw parts (the codec's inverse of
    /// [`WireTree::parts`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedWireTree`] on inconsistent input.
    pub fn from_parts(
        root: ProcessId,
        nodes: Vec<ProcessId>,
        parent: Vec<u32>,
        lambda: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let wire = WireTree {
            root,
            nodes,
            parent,
            lambda,
            plan: OnceLock::new(),
        };
        wire.validate()?;
        Ok(wire)
    }

    /// Approximate encoded size in bytes (for bandwidth accounting).
    pub fn wire_size(&self) -> usize {
        4 + self.nodes.len() * 4 + self.parent.len() * 4 + self.lambda.len() * 8
    }

    /// The copies `self_id` sends to each of its children to meet target
    /// `k`, children in ascending id order (the
    /// [`SpanningTree::children`] order).
    ///
    /// The first call derives the whole tree's counts through
    /// [`ReliabilityTree::from_wire`] and [`optimize`] and keeps them;
    /// later calls with the same `k` — every other receiver of this
    /// instance — only look their children up. A differing `k` derives
    /// afresh and keeps nothing.
    ///
    /// # Errors
    ///
    /// * [`CoreError::MalformedWireTree`] if the tree is inconsistent;
    /// * [`CoreError::NotInTree`] if `self_id` does not appear in it;
    /// * any [`optimize`] error.
    pub(crate) fn forwards(
        &self,
        self_id: ProcessId,
        k: f64,
    ) -> Result<Vec<(ProcessId, u32)>, CoreError> {
        let memo = self.plan.get_or_init(|| PlanMemo {
            k_bits: k.to_bits(),
            counts: self.derive_counts(k),
        });
        let fresh;
        let counts = if memo.k_bits == k.to_bits() {
            &memo.counts
        } else {
            fresh = self.derive_counts(k);
            &fresh
        };
        // As without the memo: a malformed tree is that to everyone,
        // and a well-formed one misses a stranger before it is optimized.
        let me = self.nodes.iter().position(|&p| p == self_id);
        let (counts, me) = match (counts, me) {
            (Err(e @ CoreError::MalformedWireTree(_)), _) => return Err(e.clone()),
            (_, None) => return Err(CoreError::NotInTree(self_id)),
            (Err(e), _) => return Err(e.clone()),
            (Ok(counts), Some(me)) => (counts, me),
        };
        let mut forwards: Vec<_> = (0..counts.len())
            .filter(|&i| self.parent[i] as usize == me)
            .map(|i| (self.nodes[i + 1], counts[i]))
            .collect();
        forwards.sort_unstable();
        Ok(forwards)
    }

    fn derive_counts(&self, k: f64) -> Result<Vec<u32>, CoreError> {
        self.counts_from(&ReliabilityTree::from_wire(self)?, k)
    }

    /// `optimize(tree, k)` re-indexed by wire position; `tree` is
    /// `from_wire(self)`.
    fn counts_from(&self, tree: &ReliabilityTree, k: f64) -> Result<Vec<u32>, CoreError> {
        let plan = optimize(tree, k)?;
        let link = |p| tree.index_of(p).expect("every non-root node has a link");
        Ok(self.nodes[1..]
            .iter()
            .map(|&p| plan.count(link(p)))
            .collect())
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.nodes.is_empty() {
            return Err(CoreError::MalformedWireTree("empty node list"));
        }
        if self.nodes[0] != self.root {
            return Err(CoreError::MalformedWireTree("nodes[0] must be the root"));
        }
        if self.parent.len() != self.nodes.len() - 1 || self.lambda.len() != self.parent.len() {
            return Err(CoreError::MalformedWireTree("length mismatch"));
        }
        for (i, &par) in self.parent.iter().enumerate() {
            if par as usize > i {
                return Err(CoreError::MalformedWireTree(
                    "parent index must precede child (BFS order)",
                ));
            }
        }
        let mut sorted = self.nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != self.nodes.len() {
            return Err(CoreError::MalformedWireTree("duplicate process in tree"));
        }
        if self
            .lambda
            .iter()
            .any(|l| !l.is_finite() || !(0.0..=1.0).contains(l))
        {
            return Err(CoreError::MalformedWireTree("lambda out of range"));
        }
        Ok(())
    }
}

/// A shared, immutable wire tree as carried inside data messages.
pub type SharedWireTree = Arc<WireTree>;

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_model::{LinkId, Probability, Topology};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Test access for this crate's suites (private fields are in
    /// reach of this module only).
    impl WireTree {
        /// A tree that skipped validation, as no decoder or constructor
        /// yields one: the input `from_wire`'s own checks exist for.
        pub(crate) fn unchecked(nodes: Vec<ProcessId>, parent: Vec<u32>, lambda: Vec<f64>) -> Self {
            WireTree {
                root: nodes[0],
                nodes,
                parent,
                lambda,
                plan: OnceLock::new(),
            }
        }

        /// Whether the plan memo is filled.
        pub(crate) fn is_planned(&self) -> bool {
            self.plan.get().is_some()
        }
    }

    fn sample_tree() -> (SpanningTree, Configuration) {
        // 0 → {1, 2}; 1 → {3}.
        let parents: BTreeMap<ProcessId, ProcessId> = [(p(1), p(0)), (p(2), p(0)), (p(3), p(1))]
            .into_iter()
            .collect();
        let tree = SpanningTree::from_parents(p(0), parents).unwrap();
        let mut topo = Topology::new();
        for (a, b) in tree.edges() {
            topo.add_link(a, b).unwrap();
        }
        let mut config = Configuration::uniform(
            &topo,
            Probability::new(0.1).unwrap(),
            Probability::new(0.2).unwrap(),
        );
        config.set_crash(p(3), Probability::new(0.5).unwrap());
        (tree, config)
    }

    #[test]
    fn labels_follow_bfs_order() {
        let (tree, config) = sample_tree();
        let rt = ReliabilityTree::from_spanning_tree(&tree, &config).unwrap();
        assert_eq!(rt.link_count(), 3);
        assert_eq!(rt.process_at(0), p(1));
        assert_eq!(rt.process_at(1), p(2));
        assert_eq!(rt.process_at(2), p(3));
        assert_eq!(rt.index_of(p(3)), Some(2));
        assert_eq!(rt.index_of(p(0)), None);
        assert_eq!(rt.index_of(p(42)), None);
    }

    #[test]
    fn lambda_matches_formula() {
        let (tree, config) = sample_tree();
        let rt = ReliabilityTree::from_spanning_tree(&tree, &config).unwrap();
        // λ for link 0→1: 1 - 0.9 * 0.8 * 0.9.
        assert!((rt.lambda(0) - (1.0 - 0.9 * 0.8 * 0.9)).abs() < 1e-12);
        // λ for link 1→3: 1 - 0.9 * 0.8 * 0.5 (p3 crashes half the time).
        assert!((rt.lambda(2) - (1.0 - 0.9 * 0.8 * 0.5)).abs() < 1e-12);
        assert_eq!(rt.lambdas().len(), 3);
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let (tree, config) = sample_tree();
        let rt = ReliabilityTree::from_spanning_tree(&tree, &config).unwrap();
        let wire = rt.to_wire();
        assert_eq!(wire.root(), p(0));
        assert_eq!(wire.process_count(), 4);
        assert!(wire.contains(p(3)));
        assert!(!wire.contains(p(9)));
        assert!(wire.wire_size() > 0);

        let back = ReliabilityTree::from_wire(&wire).unwrap();
        assert_eq!(back.root(), rt.root());
        assert_eq!(back.link_count(), rt.link_count());
        for i in 0..rt.link_count() {
            assert_eq!(back.process_at(i), rt.process_at(i));
            assert!((back.lambda(i) - rt.lambda(i)).abs() < 1e-15);
        }
        assert_eq!(back.children(p(0)), rt.children(p(0)));
    }

    #[test]
    fn relabelled_tree_round_trips_the_wire() {
        // sample_tree with every id i relabelled 7 + 3·π(i), π = (2 0 3 1):
        // the root p13 is neither the smallest id nor at its own position.
        let relabel = |i: u32| p(7 + 3 * [2, 0, 3, 1][i as usize]);
        let (tree, config) = sample_tree();
        let parents = tree
            .edges()
            .map(|(a, b)| (relabel(b.index()), relabel(a.index())));
        let tree = SpanningTree::from_parents(relabel(0), parents.collect()).unwrap();
        let mut relabelled = Configuration::new();
        for (a, b) in [(0, 1), (0, 2), (1, 3)] {
            let loss = config.loss(LinkId::new(p(a), p(b)).unwrap());
            relabelled.set_loss(LinkId::new(relabel(a), relabel(b)).unwrap(), loss);
        }
        for i in 0..4 {
            relabelled.set_crash(relabel(i), config.crash(p(i)));
        }

        let rt = ReliabilityTree::from_spanning_tree(&tree, &relabelled).unwrap();
        assert_eq!(rt.root(), p(13));
        assert_eq!(rt.children(p(13)), &[p(7), p(16)]);
        let wire = rt.to_wire();
        assert_eq!(wire.parts().1, &[p(13), p(7), p(16), p(10)]);
        let back = ReliabilityTree::from_wire(&wire).unwrap();
        assert_eq!(back, rt);
        assert_eq!(back.tree(), &tree);
        assert_eq!(back.index_of(p(10)), Some(2));
        assert_eq!(back.to_wire(), wire);
    }

    #[test]
    fn from_parts_validates() {
        // Valid single-edge tree.
        let ok = WireTree::from_parts(p(0), vec![p(0), p(1)], vec![0], vec![0.5]);
        assert!(ok.is_ok());

        // Root mismatch.
        assert!(matches!(
            WireTree::from_parts(p(1), vec![p(0), p(1)], vec![0], vec![0.5]),
            Err(CoreError::MalformedWireTree(_))
        ));
        // Length mismatch.
        assert!(WireTree::from_parts(p(0), vec![p(0), p(1)], vec![0], vec![]).is_err());
        // Forward parent reference.
        assert!(
            WireTree::from_parts(p(0), vec![p(0), p(1), p(2)], vec![2, 0], vec![0.1, 0.1]).is_err()
        );
        // Duplicate node.
        assert!(
            WireTree::from_parts(p(0), vec![p(0), p(1), p(1)], vec![0, 0], vec![0.1, 0.1]).is_err()
        );
        // Lambda out of range.
        assert!(WireTree::from_parts(p(0), vec![p(0), p(1)], vec![0], vec![1.5]).is_err());
        // Empty.
        assert!(WireTree::from_parts(p(0), vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn plan_memo_is_no_part_of_the_value() {
        let (tree, config) = sample_tree();
        let rt = ReliabilityTree::from_spanning_tree(&tree, &config).unwrap();
        let fresh = rt.to_wire();
        let (root, nodes, parent, lambda) = fresh.parts();
        let rebuilt =
            WireTree::from_parts(root, nodes.to_vec(), parent.to_vec(), lambda.to_vec()).unwrap();
        assert!(!fresh.is_planned() && !rebuilt.is_planned());

        let (debug, size) = (format!("{fresh:?}"), fresh.wire_size());
        let derived = fresh.clone();
        derived.forwards(p(1), 0.999).unwrap();
        let seeded = rt.to_planned_wire(0.999);
        let failed = fresh.clone();
        assert!(failed.forwards(p(0), 2.0).is_err());
        for filled in [&derived, &seeded, &failed] {
            assert!(filled.is_planned());
            assert_eq!(filled, &fresh);
            assert_eq!(filled.parts(), fresh.parts());
            assert_eq!(format!("{filled:?}"), debug);
            assert_eq!(filled.wire_size(), size);
        }
        // The origin's seed is what a receiver would have derived.
        for q in [p(0), p(1), p(2), p(3)] {
            assert_eq!(seeded.forwards(q, 0.999), fresh.forwards(q, 0.999));
        }
    }

    #[test]
    fn singleton_tree_round_trips() {
        let tree = SpanningTree::from_parents(p(7), BTreeMap::new()).unwrap();
        let rt = ReliabilityTree::from_spanning_tree(&tree, &Configuration::new()).unwrap();
        assert_eq!(rt.link_count(), 0);
        let wire = rt.to_wire();
        let back = ReliabilityTree::from_wire(&wire).unwrap();
        assert_eq!(back.root(), p(7));
        assert_eq!(back.link_count(), 0);
    }
}
