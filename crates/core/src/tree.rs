//! The reliability-labelled tree, in the one layout it is built, optimized
//! and shipped in.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use diffuse_graph::SpanningTree;
use diffuse_model::{NetworkIndex, ProcessId};

use crate::{optimize, CoreError, MessagePlan};

/// A spanning tree labelled for the optimization problem of Section 3.2.
///
/// Algorithm 1 sends `(m, mrt_j)` — the message together with the tree it
/// must follow — and this type is that `mrt_j` as well as the tree the
/// optimizer works on. It is positional:
///
/// * `nodes` lists the processes in *canonical* breadth-first order: the
///   root first, the children of every process after those of each
///   process before it, siblings in ascending id;
/// * `parent[i]` is the position in `nodes` of the parent of
///   `nodes[i + 1]`;
/// * link `i` is the tree link into `nodes[i + 1]`, and `lambda[i]` its
///   single-transmission failure probability
///   `λ_i = 1 - (1 - P_{pred(i)})(1 - L_i)(1 - P_i)` (Eq. 1).
///
/// A link index is therefore a wire position, and a process's children
/// are one contiguous, ascending run of `nodes`.
///
/// The λ labels are *baked in* at construction: every receiver must
/// re-derive exactly the sender's per-link message counts, so all of
/// them work from the sender's reliability view rather than their own.
///
/// Invariants (checked by [`from_parts`](Self::from_parts), which every
/// decoded frame goes through):
///
/// * `nodes` is non-empty and duplicate-free, `nodes[0]` is the root;
/// * `parent.len() == lambda.len() == nodes.len() - 1`;
/// * `parent[i] <= i` (parents precede children);
/// * `parent` is non-decreasing and siblings ascend (canonical order);
/// * every λ is a finite value in `[0, 1]`.
///
/// Every receiver of one instance derives the same plan from it, so the
/// first derivation is kept in a write-once memo. The memo is no part of
/// the value: equality, `Debug`, [`parts`](Self::parts) and the codec
/// ignore it, and a tree built by `from_parts` starts without one.
#[derive(Clone)]
pub struct ReliabilityTree {
    nodes: Vec<ProcessId>,
    parent: Vec<u32>,
    lambda: Vec<f64>,
    plan: OnceLock<PlanMemo>,
}

/// What forwarding needs from one [`optimize`] derivation.
#[derive(Clone)]
struct PlanMemo {
    /// Bits of the target `K` the derivation ran with.
    k_bits: u64,
    /// The plan, indexed by link, or the error the derivation ended in.
    plan: Result<MessagePlan, CoreError>,
}

impl PartialEq for ReliabilityTree {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl fmt::Debug for ReliabilityTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReliabilityTree")
            .field("nodes", &self.nodes)
            .field("parent", &self.parent)
            .field("lambda", &self.lambda)
            .finish()
    }
}

impl ReliabilityTree {
    /// Labels `tree` with λ values read from `index`, in one walk of its
    /// breadth-first edges: `λ = 1 - (1 - P_u)(1 - L_{u,v})(1 - P_v)`,
    /// factors multiplied in that order, parent `u` first — bit for bit
    /// [`Configuration::lambda`](diffuse_model::Configuration::lambda)
    /// over the indexed `(G, C)`.
    pub fn from_spanning_tree(tree: &SpanningTree, index: &NetworkIndex) -> Self {
        let mut nodes = Vec::with_capacity(tree.process_count());
        let mut parent = Vec::with_capacity(tree.link_count());
        let mut lambda = Vec::with_capacity(tree.link_count());
        nodes.push(tree.root());
        // Edges come in BFS order of the child, so their parents appear
        // in non-decreasing position: one forward cursor finds them all.
        let mut at = 0;
        for (par, child) in tree.edges() {
            while nodes[at] != par {
                at += 1;
            }
            parent.push(at as u32);
            nodes.push(child);
            lambda.push(index.link_reliability(par, child).complement().value());
        }
        ReliabilityTree {
            nodes,
            parent,
            lambda,
            plan: OnceLock::new(),
        }
    }

    /// Builds a tree from raw parts — the codec's inverse of
    /// [`parts`](Self::parts) — with an empty plan memo.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedWireTree`] if the parts break an
    /// invariant listed on [`ReliabilityTree`].
    pub fn from_parts(
        root: ProcessId,
        nodes: Vec<ProcessId>,
        parent: Vec<u32>,
        lambda: Vec<f64>,
    ) -> Result<Self, CoreError> {
        validate(root, &nodes, &parent, &lambda)?;
        Ok(ReliabilityTree {
            nodes,
            parent,
            lambda,
            plan: OnceLock::new(),
        })
    }

    /// Raw field access for codecs: `(root, nodes, parent, lambda)`.
    pub fn parts(&self) -> (ProcessId, &[ProcessId], &[u32], &[f64]) {
        (self.root(), &self.nodes, &self.parent, &self.lambda)
    }

    /// A copy without the plan memo, as a frame's receiver holds it.
    /// Together with [`from_wire`](Self::from_wire) it prices the path
    /// a tree takes across a process boundary.
    pub fn to_wire(&self) -> Self {
        ReliabilityTree {
            nodes: self.nodes.clone(),
            parent: self.parent.clone(),
            lambda: self.lambda.clone(),
            plan: OnceLock::new(),
        }
    }

    /// What a decoded frame's receiver does with the tree it was sent:
    /// [`from_parts`](Self::from_parts) over `wire`'s
    /// [`parts`](Self::parts), validation included.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedWireTree`] as `from_parts` does.
    pub fn from_wire(wire: &Self) -> Result<Self, CoreError> {
        let (root, nodes, parent, lambda) = wire.parts();
        Self::from_parts(root, nodes.to_vec(), parent.to_vec(), lambda.to_vec())
    }

    /// The root (broadcasting) process.
    pub fn root(&self) -> ProcessId {
        self.nodes[0]
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

    /// The process reached through link index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn process_at(&self, i: usize) -> ProcessId {
        self.nodes[i + 1]
    }

    /// The parent `pred(p)`; `None` for the root or unknown processes.
    pub fn parent(&self, p: ProcessId) -> Option<ProcessId> {
        let at = self.position(p)?;
        (at > 0).then(|| self.nodes[self.parent[at - 1] as usize])
    }

    /// Children of `p` in ascending id order (its direct subtrees `S_p`).
    pub fn children(&self, p: ProcessId) -> &[ProcessId] {
        self.position(p).map_or(&[], |at| {
            let links = self.links_below(at);
            &self.nodes[links.start + 1..links.end + 1]
        })
    }

    /// Tree edges as `(parent, child)` pairs in link-index order.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.parent
            .iter()
            .zip(&self.nodes[1..])
            .map(|(&par, &child)| (self.nodes[par as usize], child))
    }

    /// Position of `p` in `nodes`.
    pub(crate) fn position(&self, p: ProcessId) -> Option<usize> {
        self.nodes.iter().position(|&q| q == p)
    }

    /// Indices of the links from the process at position `at` to its
    /// children: one run, since `parent` is non-decreasing.
    pub(crate) fn links_below(&self, at: usize) -> Range<usize> {
        let start = self.parent.partition_point(|&q| (q as usize) < at);
        let end = start + self.parent[start..].partition_point(|&q| q as usize == at);
        start..end
    }

    /// The copies `self_id` sends to each of its children to meet target
    /// `k`, children in ascending id order.
    ///
    /// The first call with a member's id runs [`optimize`] on the tree
    /// and keeps the plan; later calls with the same `k` — every other
    /// receiver of this instance — only look their children up. A
    /// differing `k` derives afresh and keeps nothing.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotInTree`] if `self_id` does not appear in the tree;
    /// * any [`optimize`] error.
    pub(crate) fn forwards(
        &self,
        self_id: ProcessId,
        k: f64,
    ) -> Result<Vec<(ProcessId, u32)>, CoreError> {
        let me = self
            .position(self_id)
            .ok_or(CoreError::NotInTree(self_id))?;
        let memo = self.plan.get_or_init(|| PlanMemo {
            k_bits: k.to_bits(),
            plan: optimize(self, k),
        });
        let fresh;
        let plan = if memo.k_bits == k.to_bits() {
            &memo.plan
        } else {
            fresh = optimize(self, k);
            &fresh
        };
        let plan = plan.as_ref().map_err(CoreError::clone)?;
        Ok(self
            .links_below(me)
            .map(|i| (self.nodes[i + 1], plan.count(i)))
            .collect())
    }
}

fn validate(
    root: ProcessId,
    nodes: &[ProcessId],
    parent: &[u32],
    lambda: &[f64],
) -> Result<(), CoreError> {
    if nodes.is_empty() {
        return Err(CoreError::MalformedWireTree("empty node list"));
    }
    if nodes[0] != root {
        return Err(CoreError::MalformedWireTree("nodes[0] must be the root"));
    }
    if parent.len() != nodes.len() - 1 || lambda.len() != parent.len() {
        return Err(CoreError::MalformedWireTree("length mismatch"));
    }
    if parent.iter().enumerate().any(|(i, &par)| par as usize > i) {
        return Err(CoreError::MalformedWireTree(
            "parent index must precede child (BFS order)",
        ));
    }
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != nodes.len() {
        return Err(CoreError::MalformedWireTree("duplicate process in tree"));
    }
    // Link i + 1 follows link i: its parent comes no earlier, and a
    // sibling only with a larger id.
    for (i, w) in parent.windows(2).enumerate() {
        if w[1] < w[0] || (w[1] == w[0] && nodes[i + 2] < nodes[i + 1]) {
            return Err(CoreError::MalformedWireTree(
                "nodes must be in canonical BFS order",
            ));
        }
    }
    if lambda
        .iter()
        .any(|l| !l.is_finite() || !(0.0..=1.0).contains(l))
    {
        return Err(CoreError::MalformedWireTree("lambda out of range"));
    }
    Ok(())
}

/// A shared, immutable tree as carried inside data messages.
pub type SharedWireTree = Arc<ReliabilityTree>;

/// The labelling [`ReliabilityTree::from_spanning_tree`] replaced: the
/// oracle its index reads are held to, λ bits included.
#[cfg(test)]
pub(crate) mod spec {
    use super::*;
    use diffuse_model::Configuration;

    /// Labels `tree` by [`Configuration::lambda`], two crash and one loss
    /// map lookup per edge.
    pub(crate) fn from_spanning_tree(
        tree: &SpanningTree,
        config: &Configuration,
    ) -> ReliabilityTree {
        let mut nodes = vec![tree.root()];
        let mut parent = Vec::new();
        let mut lambda = Vec::new();
        for (par, child) in tree.edges() {
            let at = nodes
                .iter()
                .position(|&q| q == par)
                .expect("parents come first");
            parent.push(at as u32);
            nodes.push(child);
            lambda.push(config.lambda(par, child).value());
        }
        ReliabilityTree::from_parts(tree.root(), nodes, parent, lambda)
            .expect("a spanning tree's BFS edges are in canonical order")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_model::{Configuration, LinkId, Probability, Topology};
    use std::collections::BTreeMap;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Labels `tree` from `config` over the tree's own links, checked
    /// against the map-based labelling.
    fn label(tree: &SpanningTree, config: &Configuration) -> ReliabilityTree {
        let index = NetworkIndex::new(&tree.to_topology(), config);
        let rt = ReliabilityTree::from_spanning_tree(tree, &index);
        let oracle = spec::from_spanning_tree(tree, config);
        assert_eq!(rt, oracle);
        assert!(rt
            .lambdas()
            .iter()
            .map(|l| l.to_bits())
            .eq(oracle.lambdas().iter().map(|l| l.to_bits())));
        rt
    }

    /// Test access for this crate's suites (private fields are in
    /// reach of this module only).
    impl ReliabilityTree {
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
        let rt = label(&tree, &config);
        assert_eq!(rt.link_count(), 3);
        assert_eq!(rt.process_at(0), p(1));
        assert_eq!(rt.process_at(1), p(2));
        assert_eq!(rt.process_at(2), p(3));
        assert_eq!(rt.parts().2, &[0, 0, 1]);
        assert_eq!(
            rt.edges().collect::<Vec<_>>(),
            tree.edges().collect::<Vec<_>>()
        );
        assert_eq!(rt.parent(p(3)), Some(p(1)));
        assert_eq!(rt.parent(p(0)), None);
        assert_eq!(rt.parent(p(42)), None);
        assert_eq!(rt.children(p(0)), &[p(1), p(2)]);
        assert_eq!(rt.children(p(1)), &[p(3)]);
        assert!(rt.children(p(2)).is_empty() && rt.children(p(42)).is_empty());
        assert_eq!((rt.position(p(3)), rt.position(p(42))), (Some(3), None));
    }

    #[test]
    fn lambda_matches_formula() {
        let (tree, config) = sample_tree();
        let rt = label(&tree, &config);
        // λ for link 0→1: 1 - 0.9 * 0.8 * 0.9.
        assert!((rt.lambda(0) - (1.0 - 0.9 * 0.8 * 0.9)).abs() < 1e-12);
        // λ for link 1→3: 1 - 0.9 * 0.8 * 0.5 (p3 crashes half the time).
        assert!((rt.lambda(2) - (1.0 - 0.9 * 0.8 * 0.5)).abs() < 1e-12);
        assert_eq!(rt.lambdas().len(), 3);
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let (tree, config) = sample_tree();
        let rt = label(&tree, &config);
        let wire = rt.to_wire();
        assert_eq!(wire.root(), p(0));
        assert_eq!(wire, rt);
        let back = ReliabilityTree::from_wire(&wire).unwrap();
        assert_eq!(back, rt);
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

        let rt = label(&tree, &relabelled);
        assert_eq!(rt.root(), p(13));
        assert_eq!(rt.children(p(13)), &[p(7), p(16)]);
        assert_eq!(rt.parts().1, &[p(13), p(7), p(16), p(10)]);
        assert_eq!(rt.process_at(2), p(10));
        assert_eq!(rt.parent(p(10)), Some(p(7)));
        let back = ReliabilityTree::from_wire(&rt.to_wire()).unwrap();
        assert_eq!(back, rt);
        assert_eq!(
            back.edges().collect::<Vec<_>>(),
            tree.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_parts_validates() {
        let build = |root, nodes: &[u32], parent: Vec<u32>, lambda: Vec<f64>| {
            ReliabilityTree::from_parts(
                p(root),
                nodes.iter().map(|&i| p(i)).collect(),
                parent,
                lambda,
            )
        };
        // Valid single-edge tree, and a canonical 0 → {1, 2}, 1 → {3}.
        assert!(build(0, &[0, 1], vec![0], vec![0.5]).is_ok());
        assert!(build(0, &[0, 1, 2, 3], vec![0, 0, 1], vec![0.1; 3]).is_ok());

        let malformed = |r: Result<ReliabilityTree, CoreError>| {
            matches!(r, Err(CoreError::MalformedWireTree(_)))
        };
        // Root mismatch.
        assert!(malformed(build(1, &[0, 1], vec![0], vec![0.5])));
        // Length mismatch.
        assert!(malformed(build(0, &[0, 1], vec![0], vec![])));
        // Forward parent reference.
        assert!(malformed(build(0, &[0, 1, 2], vec![2, 0], vec![0.1; 2])));
        // Duplicate node.
        assert!(malformed(build(0, &[0, 1, 1], vec![0, 0], vec![0.1; 2])));
        // Lambda out of range.
        assert!(malformed(build(0, &[0, 1], vec![0], vec![1.5])));
        // Empty.
        assert!(malformed(build(0, &[], vec![], vec![])));
        // Well-formed trees out of canonical order: descending siblings,
        // a decreasing parent (p3 under the root after p2 under p1), and
        // the canonical tree's positions shuffled.
        assert!(malformed(build(
            0,
            &[0, 2, 1, 3],
            vec![0, 0, 1],
            vec![0.1; 3]
        )));
        assert!(malformed(build(
            0,
            &[0, 1, 2, 3],
            vec![0, 1, 0],
            vec![0.1; 3]
        )));
        assert!(malformed(build(
            0,
            &[0, 3, 1, 2],
            vec![0, 1, 0],
            vec![0.1; 3]
        )));
    }

    #[test]
    fn plan_memo_is_no_part_of_the_value() {
        let (tree, config) = sample_tree();
        let rt = label(&tree, &config);
        let fresh = rt.to_wire();
        let rebuilt = ReliabilityTree::from_wire(&fresh).unwrap();
        assert!(!fresh.is_planned() && !rebuilt.is_planned());

        let debug = format!("{fresh:?}");
        let derived = fresh.clone();
        derived.forwards(p(1), 0.999).unwrap();
        let failed = fresh.clone();
        assert!(failed.forwards(p(0), 2.0).is_err());
        for filled in [&derived, &failed] {
            assert!(filled.is_planned());
            assert_eq!(filled, &fresh);
            assert_eq!(filled.parts(), fresh.parts());
            assert_eq!(format!("{filled:?}"), debug);
            assert!(!filled.to_wire().is_planned());
        }
        // The memo holds optimize's plan as it is, link for link.
        let plan = optimize(&rt, 0.999).unwrap();
        for q in [p(0), p(1), p(2), p(3)] {
            let expected: Vec<_> = (0..rt.link_count())
                .filter(|&i| rt.parent(rt.process_at(i)) == Some(q))
                .map(|i| (rt.process_at(i), plan.count(i)))
                .collect();
            assert_eq!(derived.forwards(q, 0.999).unwrap(), expected);
            assert_eq!(fresh.forwards(q, 0.999).unwrap(), expected);
        }
        // A stranger is told so before any optimizer error.
        assert_eq!(failed.forwards(p(9), 2.0), Err(CoreError::NotInTree(p(9))));
    }

    #[test]
    fn singleton_tree_round_trips() {
        let tree = SpanningTree::from_parents(p(7), BTreeMap::new()).unwrap();
        let rt = label(&tree, &Configuration::new());
        assert_eq!(rt.link_count(), 0);
        assert_eq!(rt.root(), p(7));
        assert!(rt.children(p(7)).is_empty());
        let back = ReliabilityTree::from_wire(&rt.to_wire()).unwrap();
        assert_eq!(back, rt);
        assert_eq!(back.forwards(p(7), 0.999).unwrap(), vec![]);
    }
}
