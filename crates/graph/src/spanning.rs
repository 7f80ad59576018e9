//! Rooted spanning trees.

use std::collections::BTreeMap;

use diffuse_model::{compressed_rows, position_of, Configuration, ProcessId, Topology};

use crate::GraphError;

/// A spanning tree of a topology, rooted at the broadcasting process.
///
/// This is the structure the paper calls `mrt_s(G, C)` once relabelled
/// (Section 3.2, Figure 2): the sender `p_s` is the root, every other
/// process `p_i` is reached through exactly one tree link `l_i`, and
/// `pred(i)` is `p_i`'s parent. The tree stores:
///
/// * a parent pointer for every non-root process,
/// * the (sorted) children of every process, and
/// * a breadth-first ordering starting at the root, which gives every
///   process a stable *tree index* used to address per-link message
///   counts (`m⃗`).
///
/// A tree over `n` processes always has exactly `n - 1` links, as the
/// paper observes.
///
/// Internally every process is addressed by its *position* in the
/// ascending `ids`, so position order is id order. A lookup by
/// [`ProcessId`] is one comparison when the ids are `0..n` and a binary
/// search otherwise. Every field follows from `ids` and the parent
/// pointers, so the derived `==` is tree equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTree {
    /// The tree's processes in ascending id order.
    ids: Vec<ProcessId>,
    /// `parent[i]` is the position of `ids[i]`'s parent; the root's entry
    /// is its own position.
    parent: Vec<u32>,
    /// Row offsets into `children`; `child_start.len() == ids.len() + 1`.
    child_start: Vec<u32>,
    /// The children of every position, row by row, each row ascending.
    children: Vec<ProcessId>,
    /// Positions in BFS order; `order[0]` is the root.
    order: Vec<u32>,
}

impl SpanningTree {
    /// Builds a rooted tree from a parent map.
    ///
    /// `parents` must contain an entry for every process except `root`,
    /// and following parent pointers from any process must terminate at
    /// `root`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MalformedTree`] when the map contains the
    /// root, references unknown parents, or contains a cycle.
    pub fn from_parents(
        root: ProcessId,
        parents: BTreeMap<ProcessId, ProcessId>,
    ) -> Result<Self, GraphError> {
        if parents.contains_key(&root) {
            return Err(GraphError::MalformedTree("root must not have a parent"));
        }
        let mut ids: Vec<ProcessId> = parents.keys().copied().collect();
        let root_at = ids.partition_point(|&p| p < root);
        ids.insert(root_at, root);
        let mut parent = vec![root_at as u32; ids.len()];
        // Keys ascend, so the j-th key sits at position j, or j + 1 past
        // the root.
        for (j, (&child, &par)) in parents.iter().enumerate() {
            if child == par {
                return Err(GraphError::MalformedTree("process is its own parent"));
            }
            let at = position_of(&ids, par)
                .ok_or(GraphError::MalformedTree("parent is not in the tree"))?;
            parent[j + usize::from(j >= root_at)] = at as u32;
        }
        SpanningTree::from_positions(ids, root_at, parent)
    }

    /// Builds a rooted tree over `ids` (ascending, duplicate-free) from
    /// parent positions: `parent[i]` is the position of `ids[i]`'s parent
    /// and `parent[root]` is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MalformedTree`] when some process does not
    /// reach `root` by following parents (a cycle).
    pub(crate) fn from_positions(
        ids: Vec<ProcessId>,
        root: usize,
        mut parent: Vec<u32>,
    ) -> Result<Self, GraphError> {
        let n = ids.len();
        parent[root] = root as u32;

        // Filled in ascending child position, so every row ascends.
        let (child_start, kids) = compressed_rows(
            n,
            (0..n).filter(|&i| i != root).map(|i| (parent[i], i as u32)),
        );

        // Breadth-first traversal also detects unreachable nodes (cycles).
        let mut order = Vec::with_capacity(n);
        order.push(root as u32);
        let mut head = 0;
        while head < order.len() {
            let p = order[head] as usize;
            head += 1;
            order.extend_from_slice(&kids[child_start[p] as usize..child_start[p + 1] as usize]);
        }
        if order.len() != n {
            return Err(GraphError::MalformedTree(
                "parent map contains a cycle or disconnected component",
            ));
        }
        let children = kids.iter().map(|&k| ids[k as usize]).collect();
        Ok(SpanningTree {
            ids,
            parent,
            child_start,
            children,
            order,
        })
    }

    /// The root process `p_s` (the broadcaster).
    pub fn root(&self) -> ProcessId {
        self.ids[self.order[0] as usize]
    }

    /// Number of processes in the tree.
    pub fn process_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of links in the tree — always `process_count() - 1`.
    pub fn link_count(&self) -> usize {
        self.ids.len() - 1
    }

    /// Returns `true` iff `p` belongs to the tree.
    pub fn contains(&self, p: ProcessId) -> bool {
        position_of(&self.ids, p).is_some()
    }

    /// The parent `pred(p)`; `None` for the root or unknown processes.
    pub fn parent(&self, p: ProcessId) -> Option<ProcessId> {
        let i = position_of(&self.ids, p)?;
        let q = self.parent[i] as usize;
        (q != i).then(|| self.ids[q])
    }

    /// The children of `p` in ascending id order.
    pub fn children(&self, p: ProcessId) -> &[ProcessId] {
        position_of(&self.ids, p).map_or(&[], |i| {
            &self.children[self.child_start[i] as usize..self.child_start[i + 1] as usize]
        })
    }

    /// Processes in breadth-first order; the root comes first.
    pub fn processes(&self) -> impl ExactSizeIterator<Item = ProcessId> + '_ {
        self.order.iter().map(|&i| self.ids[i as usize])
    }

    /// Tree edges as `(parent, child)` pairs in breadth-first order of the
    /// child.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.order.iter().skip(1).map(move |&c| {
            let c = c as usize;
            (self.ids[self.parent[c] as usize], self.ids[c])
        })
    }

    /// Converts the tree into a plain [`Topology`] containing exactly the
    /// tree links.
    pub fn to_topology(&self) -> Topology {
        let mut t = Topology::new();
        t.add_process(self.root());
        for (parent, child) in self.edges() {
            t.add_link(parent, child).expect("tree has no self-loops");
        }
        t
    }

    /// Sum of natural logs of the link reliabilities of all tree edges
    /// under `config`.
    ///
    /// Maximizing this quantity is equivalent to maximizing the product of
    /// reliabilities, which is what the Maximum Reliability Tree does
    /// (Appendix C, Lemma 2). Returns negative infinity if any edge has
    /// zero reliability.
    pub fn log_reliability(&self, config: &Configuration) -> f64 {
        self.edges()
            .map(|(u, v)| config.link_reliability(u, v).value().ln())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_model::LinkId;

    /// Test-only readings of a tree, checked against the paper's
    /// figures.
    impl SpanningTree {
        /// Depth of every process (root at 0), keyed by process.
        fn depths(&self) -> BTreeMap<ProcessId, u32> {
            let mut depth = vec![0u32; self.ids.len()];
            for &c in self.order.iter().skip(1) {
                depth[c as usize] = depth[self.parent[c as usize] as usize] + 1;
            }
            self.ids.iter().copied().zip(depth).collect()
        }

        /// Number of processes in the subtree `T_p` rooted at `p`, including
        /// `p` itself. Zero for processes outside the tree.
        fn subtree_size(&self, p: ProcessId) -> usize {
            if !self.contains(p) {
                return 0;
            }
            let mut size = 0;
            let mut stack = vec![p];
            while let Some(q) = stack.pop() {
                size += 1;
                stack.extend_from_slice(self.children(q));
            }
            size
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// The tree of the paper's Figure 2:
    /// `ps=0` with children `{2, 6, 7}`; `2 → {3, 5}`; `3 → {4}`; `5 → {1}`.
    fn figure2_tree() -> SpanningTree {
        let parents: BTreeMap<ProcessId, ProcessId> = [
            (p(2), p(0)),
            (p(6), p(0)),
            (p(7), p(0)),
            (p(3), p(2)),
            (p(5), p(2)),
            (p(4), p(3)),
            (p(1), p(5)),
        ]
        .into_iter()
        .collect();
        SpanningTree::from_parents(p(0), parents).unwrap()
    }

    #[test]
    fn figure2_tree_shape() {
        let t = figure2_tree();
        assert_eq!(t.root(), p(0));
        assert_eq!(t.process_count(), 8);
        assert_eq!(t.link_count(), 7);
        assert_eq!(t.children(p(0)), &[p(2), p(6), p(7)]);
        assert_eq!(t.children(p(2)), &[p(3), p(5)]);
        assert!(t.children(p(4)).is_empty());
        assert!(t.children(p(6)).is_empty());
        assert!(!t.children(p(2)).is_empty());
        assert_eq!(t.parent(p(1)), Some(p(5)));
        assert_eq!(t.parent(p(0)), None);
    }

    #[test]
    fn bfs_order_starts_at_root_and_respects_levels() {
        let t = figure2_tree();
        let order: Vec<ProcessId> = t.processes().collect();
        assert_eq!(order[0], p(0));
        let depths = t.depths();
        // BFS order must be non-decreasing in depth.
        for w in order.windows(2) {
            assert!(depths[&w[0]] <= depths[&w[1]]);
        }
        assert_eq!(depths[&p(0)], 0);
        assert_eq!(depths[&p(2)], 1);
        assert_eq!(depths[&p(3)], 2);
        assert_eq!(depths[&p(4)], 3);
    }

    #[test]
    fn subtree_sizes_match_figure3() {
        let t = figure2_tree();
        // S_2 = {T_3, T_5}; T_2 covers {2, 3, 4, 5, 1}.
        assert_eq!(t.subtree_size(p(2)), 5);
        assert_eq!(t.subtree_size(p(3)), 2);
        assert_eq!(t.subtree_size(p(5)), 2);
        assert_eq!(t.subtree_size(p(0)), 8);
        assert_eq!(t.subtree_size(p(4)), 1);
        assert_eq!(t.subtree_size(p(99)), 0);
    }

    #[test]
    fn edges_yield_parent_child_pairs() {
        let t = figure2_tree();
        let edges: Vec<(ProcessId, ProcessId)> = t.edges().collect();
        assert_eq!(edges.len(), 7);
        assert!(edges.contains(&(p(2), p(5))));
        assert!(edges.contains(&(p(0), p(7))));
    }

    #[test]
    fn to_topology_round_trips_links() {
        let t = figure2_tree();
        let topo = t.to_topology();
        assert_eq!(topo.process_count(), 8);
        assert_eq!(topo.link_count(), 7);
        assert!(topo.contains_link(LinkId::new(p(5), p(1)).unwrap()));
    }

    #[test]
    fn sparse_ids_inserted_out_of_order_keep_sorted_children_and_bfs_order() {
        // Root p40 sits between smaller and larger ids, and no id equals
        // its position: 40 → {7, 900}; 900 → {13, 501}; 7 → {2}; 13 → {88}.
        let mut parents = BTreeMap::new();
        for (child, parent) in [(501, 900), (2, 7), (900, 40), (88, 13), (13, 900), (7, 40)] {
            parents.insert(p(child), p(parent));
        }
        let t = SpanningTree::from_parents(p(40), parents).unwrap();
        assert_eq!(t.root(), p(40));
        assert_eq!(t.process_count(), 7);
        assert_eq!(t.children(p(40)), &[p(7), p(900)]);
        assert_eq!(t.children(p(900)), &[p(13), p(501)]);
        assert_eq!(t.children(p(7)), &[p(2)]);
        assert!(t.children(p(88)).is_empty());
        assert!(t.children(p(3)).is_empty());
        let order: Vec<ProcessId> = t.processes().collect();
        assert_eq!(order, [40, 7, 900, 2, 13, 501, 88].map(p));
        assert_eq!(t.parent(p(88)), Some(p(13)));
        assert_eq!(t.parent(p(40)), None);
        assert_eq!(t.parent(p(3)), None);
        assert!(t.contains(p(2)) && t.contains(p(900)) && !t.contains(p(3)));
        assert_eq!(t.parent(p(501)), Some(p(900)));
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges[..3], [(p(40), p(7)), (p(40), p(900)), (p(7), p(2))]);
        assert_eq!(t.depths()[&p(88)], 3);
        assert_eq!(t.subtree_size(p(900)), 4);
    }

    #[test]
    fn from_parents_rejects_rooted_root() {
        let parents: BTreeMap<ProcessId, ProcessId> =
            [(p(0), p(1)), (p(1), p(0))].into_iter().collect();
        assert!(matches!(
            SpanningTree::from_parents(p(0), parents),
            Err(GraphError::MalformedTree(_))
        ));
    }

    #[test]
    fn from_parents_rejects_cycle() {
        // 1 → 2 → 3 → 1 unreachable from root 0.
        let parents: BTreeMap<ProcessId, ProcessId> = [(p(1), p(2)), (p(2), p(3)), (p(3), p(1))]
            .into_iter()
            .collect();
        assert!(matches!(
            SpanningTree::from_parents(p(0), parents),
            Err(GraphError::MalformedTree(_))
        ));
    }

    #[test]
    fn from_parents_rejects_self_parent() {
        let parents: BTreeMap<ProcessId, ProcessId> = [(p(1), p(1))].into_iter().collect();
        assert!(matches!(
            SpanningTree::from_parents(p(0), parents),
            Err(GraphError::MalformedTree(_))
        ));
    }

    #[test]
    fn from_parents_rejects_unknown_parent() {
        let parents: BTreeMap<ProcessId, ProcessId> = [(p(1), p(9))].into_iter().collect();
        assert!(matches!(
            SpanningTree::from_parents(p(0), parents),
            Err(GraphError::MalformedTree(_))
        ));
    }

    #[test]
    fn singleton_tree_is_valid() {
        let t = SpanningTree::from_parents(p(0), BTreeMap::new()).unwrap();
        assert_eq!(t.process_count(), 1);
        assert_eq!(t.link_count(), 0);
        assert!(t.children(p(0)).is_empty());
        assert_eq!(t.subtree_size(p(0)), 1);
    }

    #[test]
    fn log_reliability_sums_edge_logs() {
        use diffuse_model::Probability;
        let t = figure2_tree();
        let topo = t.to_topology();
        let config =
            Configuration::uniform(&topo, Probability::ZERO, Probability::new(0.5).unwrap());
        let expected = 7.0 * 0.5f64.ln();
        assert!((t.log_reliability(&config) - expected).abs() < 1e-9);
    }
}
