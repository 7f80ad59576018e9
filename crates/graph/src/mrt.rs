//! Maximum Reliability Trees (Appendix B of the paper).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use diffuse_model::{position_of, Configuration, LinkId, NetworkIndex, ProcessId, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{GraphError, SpanningTree};

/// Edge weight wrapper giving `f64` reliabilities a total order.
///
/// Reliabilities come from validated [`diffuse_model::Probability`] values,
/// so NaN never occurs; `total_cmp` keeps the ordering total regardless.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Weight(f64);

impl Eq for Weight {}

impl PartialOrd for Weight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Builds the Maximum Reliability Tree rooted at `root` by Prim over the
/// positions of `index`; see [`maximum_reliability_tree`]. One index
/// answers every root: a caller that builds trees from many roots of one
/// `(G, C)` builds it once.
///
/// # Errors
///
/// * [`GraphError::UnknownRoot`] if `root` is not indexed;
/// * [`GraphError::Disconnected`] if not every process is reachable.
pub fn maximum_reliability_tree_in(
    index: &NetworkIndex,
    root: ProcessId,
) -> Result<SpanningTree, GraphError> {
    let root_at = index.position(root).ok_or(GraphError::UnknownRoot(root))?;
    let total = index.ids().len();
    let up = |i: usize| index.crash(i).complement();
    let mut in_tree = vec![false; total];
    let mut best: Vec<Option<Candidate>> = vec![None; total];
    let mut parent = vec![root_at as u32; total];
    let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
    in_tree[root_at] = true;
    let (mut joined, mut reached) = (root_at, 1);
    while reached < total {
        let (from, up_from) = (joined as u32, up(joined));
        for &(to, link) in index.row(joined) {
            if in_tree[to as usize] {
                continue;
            }
            let w = up_from * index.loss(link as usize).complement() * up(to as usize);
            let candidate = (Weight(w.value()), Reverse(link), from, to);
            if Some(candidate) > best[to as usize] {
                best[to as usize] = Some(candidate);
                frontier.push(candidate);
            }
        }
        let Some((_, _, from, to)) =
            std::iter::from_fn(|| frontier.pop()).find(|c| !in_tree[c.3 as usize])
        else {
            break;
        };
        in_tree[to as usize] = true;
        parent[to as usize] = from;
        (joined, reached) = (to as usize, reached + 1);
    }

    if reached != total {
        return Err(GraphError::Disconnected { reached, total });
    }
    SpanningTree::from_positions(index.ids().to_vec(), root_at, parent)
}

/// Builds the Maximum Reliability Tree `mrt(G, C)` rooted at `root`.
///
/// The MRT is the spanning tree of `G` maximizing the product of link
/// reliabilities `(1-P_u)(1-L_{u,v})(1-P_v)` — equivalently, the maximum
/// spanning tree of the reliability-weighted graph. This implements the
/// paper's Algorithm 6, a modified Prim's algorithm, with deterministic
/// tie-breaking (smaller [`LinkId`] wins) so that all processes sharing the
/// same view build the same tree.
///
/// # Algorithm
///
/// [`NetworkIndex::new`] then [`maximum_reliability_tree_in`]: Prim over
/// *positions*, on the index's compressed adjacency, taking `1 - P` per
/// process and `1 - L` per link from the raw probabilities it holds.
/// With `n` processes and `m` links this takes `O(n + m)` memory and
/// `O(m log m)` time. A caller that builds trees from many roots of one
/// `(G, C)` keeps the index.
///
/// * **Weight.** A candidate edge pushed from `u` (in the tree) to `v`
///   weighs `((1-P_u) · (1-L_{u,v})) · (1-P_v)`, multiplied in that order
///   with [`Probability`](diffuse_model::Probability)'s clamped product —
///   exactly [`Configuration::link_reliability`]`(u, v)`. With non-zero crash
///   probabilities the two directions of one link can differ in the last
///   bit, so the weight is computed in push direction, never once per
///   link.
/// * **Tie-break.** Candidates pop by `(weight, Reverse(link), u, v)`:
///   highest reliability first, then the smaller [`LinkId`]. Positions
///   are monotone in ids, so this is the order of the same key over ids.
/// * **Pruning.** A candidate is pushed only if its target is outside the
///   tree and it beats the best candidate already pushed towards that
///   target. Any other candidate would pop after that one and be
///   discarded as stale, so the pops that grow the tree are unchanged.
///
/// # Errors
///
/// * [`GraphError::UnknownRoot`] if `root` is not in `topology`;
/// * [`GraphError::Disconnected`] if not every process is reachable.
///
/// # Example
///
/// ```
/// use diffuse_graph::{generators, maximum_reliability_tree};
/// use diffuse_model::{Configuration, Probability, ProcessId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::complete(5)?;
/// let c = Configuration::uniform(&g, Probability::ZERO, Probability::new(0.1)?);
/// let mrt = maximum_reliability_tree(&g, &c, ProcessId::new(0))?;
/// assert_eq!(mrt.link_count(), 4);
/// # Ok(())
/// # }
/// ```
pub fn maximum_reliability_tree(
    topology: &Topology,
    config: &Configuration,
    root: ProcessId,
) -> Result<SpanningTree, GraphError> {
    maximum_reliability_tree_in(&NetworkIndex::new(topology, config), root)
}

/// A frontier entry `(weight, Reverse(link), from, to)`, link and
/// endpoints by position.
type Candidate = (Weight, Reverse<u32>, u32, u32);

/// Disjoint-set (union-find) with path halving and union by size.
#[derive(Debug)]
struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns `false` if already joined.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// Builds a spanning tree from an explicit edge list, rooted at `root`.
fn tree_from_edges(
    topology: &Topology,
    edges: &[LinkId],
    root: ProcessId,
) -> Result<SpanningTree, GraphError> {
    let mut tree_topology = Topology::new();
    for p in topology.processes() {
        tree_topology.add_process(p);
    }
    for link in edges {
        tree_topology.insert_link(*link);
    }
    let mut parent = BTreeMap::new();
    let mut visited = BTreeSet::from([root]);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(p) = queue.pop_front() {
        for n in tree_topology.neighbors(p) {
            if visited.insert(n) {
                parent.insert(n, p);
                queue.push_back(n);
            }
        }
    }
    if visited.len() != topology.process_count() {
        return Err(GraphError::Disconnected {
            reached: visited.len(),
            total: topology.process_count(),
        });
    }
    SpanningTree::from_parents(root, parent)
}

/// Builds the Maximum Reliability Tree using Kruskal's algorithm instead
/// of Prim's.
///
/// Functionally equivalent to [`maximum_reliability_tree`] — the total
/// reliability of both trees is always identical (the maximum spanning
/// forest weight is unique even when the tree itself is not). Provided as
/// an independent implementation for cross-checking.
///
/// # Errors
///
/// Same conditions as [`maximum_reliability_tree`].
pub fn maximum_reliability_tree_kruskal(
    topology: &Topology,
    config: &Configuration,
    root: ProcessId,
) -> Result<SpanningTree, GraphError> {
    if !topology.contains_process(root) {
        return Err(GraphError::UnknownRoot(root));
    }
    // Positions index the union-find.
    let ids: Vec<ProcessId> = topology.processes().collect();
    let at = |p| position_of(&ids, p).expect("link endpoints are processes") as u32;

    let mut edges: Vec<(Weight, LinkId)> = topology
        .links()
        .map(|l| (Weight(config.link_reliability(l.lo(), l.hi()).value()), l))
        .collect();
    // Highest reliability first; smaller link id among equals.
    edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut dsu = DisjointSets::new(ids.len());
    let mut chosen = Vec::with_capacity(ids.len().saturating_sub(1));
    for (_, link) in edges {
        if dsu.union(at(link.lo()), at(link.hi())) {
            chosen.push(link);
            if chosen.len() + 1 == ids.len() {
                break;
            }
        }
    }
    tree_from_edges(topology, &chosen, root)
}

/// Builds a uniformly random-ish spanning tree (randomized Kruskal).
///
/// Used by property tests to compare arbitrary spanning trees against the
/// MRT (Lemma 2) and by the experiments for baseline trees. The
/// distribution is not exactly uniform over spanning trees, but covers the
/// whole spanning-tree space.
///
/// # Errors
///
/// * [`GraphError::UnknownRoot`] if `root` is not in `topology`;
/// * [`GraphError::Disconnected`] if the topology is disconnected.
pub fn random_spanning_tree<R: Rng + ?Sized>(
    topology: &Topology,
    root: ProcessId,
    rng: &mut R,
) -> Result<SpanningTree, GraphError> {
    if !topology.contains_process(root) {
        return Err(GraphError::UnknownRoot(root));
    }
    let ids: Vec<ProcessId> = topology.processes().collect();
    let at = |p| position_of(&ids, p).expect("link endpoints are processes") as u32;
    let mut edges: Vec<LinkId> = topology.links().collect();
    edges.shuffle(rng);
    let mut dsu = DisjointSets::new(ids.len());
    let mut chosen = Vec::with_capacity(ids.len().saturating_sub(1));
    for link in edges {
        if dsu.union(at(link.lo()), at(link.hi())) {
            chosen.push(link);
        }
    }
    tree_from_edges(topology, &chosen, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_model::Probability;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Two paths from 0 to 2: direct (loss 0.5) and via 1 (loss 0.01 each).
    fn two_path_topology() -> (Topology, Configuration) {
        let mut g = Topology::new();
        let direct = g.add_link(p(0), p(2)).unwrap();
        let l01 = g.add_link(p(0), p(1)).unwrap();
        let l12 = g.add_link(p(1), p(2)).unwrap();
        let mut c = Configuration::new();
        c.set_loss(direct, Probability::new(0.5).unwrap());
        c.set_loss(l01, Probability::new(0.01).unwrap());
        c.set_loss(l12, Probability::new(0.01).unwrap());
        (g, c)
    }

    #[test]
    fn mrt_prefers_reliable_paths() {
        let (g, c) = two_path_topology();
        let mrt = maximum_reliability_tree(&g, &c, p(0)).unwrap();
        // The unreliable direct link 0-2 must be avoided: 2 hangs off 1.
        assert_eq!(mrt.parent(p(2)), Some(p(1)));
        assert_eq!(mrt.parent(p(1)), Some(p(0)));
    }

    #[test]
    fn mrt_accounts_for_process_reliability() {
        // Path through an unreliable process should be avoided even if
        // its links are perfect.
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_link(p(1), p(3)).unwrap();
        g.add_link(p(0), p(2)).unwrap();
        g.add_link(p(2), p(3)).unwrap();
        let mut c = Configuration::new();
        c.set_crash(p(1), Probability::new(0.5).unwrap());
        c.set_crash(p(2), Probability::new(0.01).unwrap());
        let mrt = maximum_reliability_tree(&g, &c, p(0)).unwrap();
        assert_eq!(mrt.parent(p(3)), Some(p(2)));
    }

    #[test]
    fn mrt_has_n_minus_one_links() {
        let (g, c) = two_path_topology();
        let mrt = maximum_reliability_tree(&g, &c, p(0)).unwrap();
        assert_eq!(mrt.link_count(), g.process_count() - 1);
    }

    #[test]
    fn mrt_errors_on_unknown_root() {
        let (g, c) = two_path_topology();
        assert!(matches!(
            maximum_reliability_tree(&g, &c, p(42)),
            Err(GraphError::UnknownRoot(_))
        ));
    }

    #[test]
    fn mrt_errors_on_disconnected_topology() {
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_process(p(2));
        let c = Configuration::new();
        assert!(matches!(
            maximum_reliability_tree(&g, &c, p(0)),
            Err(GraphError::Disconnected {
                reached: 2,
                total: 3
            })
        ));
    }

    #[test]
    fn prim_and_kruskal_agree_on_total_weight() {
        let (g, c) = two_path_topology();
        let prim = maximum_reliability_tree(&g, &c, p(0)).unwrap();
        let kruskal = maximum_reliability_tree_kruskal(&g, &c, p(0)).unwrap();
        assert!((prim.log_reliability(&c) - kruskal.log_reliability(&c)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // On a uniform complete graph, repeated runs must give the same tree.
        let g = crate::generators::complete(6).unwrap();
        let c = Configuration::uniform(&g, Probability::ZERO, Probability::new(0.1).unwrap());
        let a = maximum_reliability_tree(&g, &c, p(0)).unwrap();
        let b = maximum_reliability_tree(&g, &c, p(0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_spanning_tree_spans() {
        use rand::SeedableRng;
        let g = crate::generators::complete(8).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = random_spanning_tree(&g, p(3), &mut rng).unwrap();
        assert_eq!(t.process_count(), 8);
        assert_eq!(t.root(), p(3));
    }

    #[test]
    fn dsu_union_find_behaves() {
        let mut dsu = DisjointSets::new(4);
        assert!(dsu.union(0, 1));
        assert!(dsu.union(2, 3));
        assert!(dsu.union(0, 3));
        assert!(!dsu.union(1, 2));
        assert_eq!(dsu.find(0), dsu.find(2));
    }
}

/// Prim over maps: the oracle the property tests hold
/// [`maximum_reliability_tree`] to, tree for tree.
#[cfg(test)]
pub(crate) mod spec {
    use super::*;

    /// Algorithm 6 over `BTreeMap`s: every weight read through
    /// [`Configuration::link_reliability`], every candidate pushed and
    /// stale ones skipped when popped.
    pub(crate) fn maximum_reliability_tree(
        topology: &Topology,
        config: &Configuration,
        root: ProcessId,
    ) -> Result<SpanningTree, GraphError> {
        if !topology.contains_process(root) {
            return Err(GraphError::UnknownRoot(root));
        }

        let total = topology.process_count();
        let mut parent: BTreeMap<ProcessId, ProcessId> = BTreeMap::new();
        let mut in_tree: BTreeMap<ProcessId, ()> = BTreeMap::new();
        in_tree.insert(root, ());

        // Max-heap over (weight, Reverse(link)): highest reliability first,
        // smallest link id among equals.
        let mut frontier: BinaryHeap<(Weight, Reverse<LinkId>, ProcessId, ProcessId)> =
            BinaryHeap::new();
        let push_edges = |from: ProcessId,
                          frontier: &mut BinaryHeap<(
            Weight,
            Reverse<LinkId>,
            ProcessId,
            ProcessId,
        )>| {
            for to in topology.neighbors(from) {
                let w = Weight(config.link_reliability(from, to).value());
                let link = LinkId::new(from, to).expect("no self-loops in topology");
                frontier.push((w, Reverse(link), from, to));
            }
        };
        push_edges(root, &mut frontier);

        while let Some((_, _, from, to)) = frontier.pop() {
            if in_tree.contains_key(&to) {
                continue; // lazily discarded stale edge
            }
            in_tree.insert(to, ());
            parent.insert(to, from);
            push_edges(to, &mut frontier);
            if in_tree.len() == total {
                break;
            }
        }

        if in_tree.len() != total {
            return Err(GraphError::Disconnected {
                reached: in_tree.len(),
                total,
            });
        }
        SpanningTree::from_parents(root, parent)
    }
}
