//! Network topology `G = (Π, Λ)`.

use std::collections::BTreeMap;

use crate::{position_of, LinkId, ModelError, ProcessId};

/// The system's topology `G = (Π, Λ)`: a set of processes and the
/// bidirectional links connecting them.
///
/// `Topology` is an undirected graph keyed by [`ProcessId`]. Storage is
/// ordered — a `BTreeMap` from each process to its *row*, the sorted,
/// duplicate-free `Vec` of its neighbors — so iteration order, and
/// therefore every algorithm built on top, including tie-breaking in
/// Prim's algorithm, is deterministic. A row costs a search and a shift
/// per insert, which the generators never pay: they add links in
/// ascending order, so each insert is an append.
///
/// [`is_connected`](Self::is_connected) and
/// [`diameter`](Self::diameter) run one breadth-first search over
/// *positions* — the `i`-th smallest id is position `i` — with a dense
/// depth vector.
///
/// Processes may exist without links (they are then isolated); adding a
/// link implicitly adds both endpoints, mirroring how the paper's adaptive
/// algorithm merges link sets (`Λ_k ← Λ_k ∪ Λ_j`).
///
/// # Example
///
/// ```
/// use diffuse_model::{ProcessId, Topology};
///
/// # fn main() -> Result<(), diffuse_model::ModelError> {
/// let mut g = Topology::new();
/// g.add_link(ProcessId::new(0), ProcessId::new(1))?;
/// g.add_link(ProcessId::new(1), ProcessId::new(2))?;
///
/// assert_eq!(g.process_count(), 3);
/// assert_eq!(g.link_count(), 2);
/// assert_eq!(g.degree(ProcessId::new(1)), 2);
/// assert!(g.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// Every process and its row: its neighbors, ascending, no repeats.
    adjacency: BTreeMap<ProcessId, Vec<ProcessId>>,
}

/// Adds `p` to the sorted `row` unless it is there already.
fn join(row: &mut Vec<ProcessId>, p: ProcessId) {
    if let Err(at) = row.binary_search(&p) {
        row.insert(at, p);
    }
}

/// Depth of a position the search has not reached.
const UNSEEN: u32 = u32::MAX;

/// The topology by position, for the breadth-first search: position `i`
/// is the `i`-th smallest id and `rows[i]` its row.
struct Positions<'a> {
    ids: Vec<ProcessId>,
    rows: Vec<&'a [ProcessId]>,
}

impl<'a> Positions<'a> {
    fn of(topology: &'a Topology) -> Self {
        let (ids, rows) = topology
            .adjacency
            .iter()
            .map(|(&p, row)| (p, row.as_slice()))
            .unzip();
        Positions { ids, rows }
    }

    /// Breadth-first search from `source` over the positions `depth`
    /// marks [`UNSEEN`]: sets each reached one's depth (the source's to
    /// 0) and returns them in visiting order, so the last is the
    /// deepest.
    fn bfs(&self, source: usize, depth: &mut [u32]) -> Vec<u32> {
        depth[source] = 0;
        let mut order = vec![source as u32];
        let mut head = 0;
        while let Some(&at) = order.get(head) {
            head += 1;
            let next = depth[at as usize] + 1;
            for &n in self.rows[at as usize] {
                let to = position_of(&self.ids, n).expect("neighbors are processes");
                if depth[to] == UNSEEN {
                    depth[to] = next;
                    order.push(to as u32);
                }
            }
        }
        order
    }
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Creates a topology containing `n` isolated processes `p_0 … p_{n-1}`.
    pub fn with_processes(n: u32) -> Self {
        Topology {
            adjacency: (0..n).map(|i| (ProcessId::new(i), Vec::new())).collect(),
        }
    }

    /// Adds a process with no links. Idempotent.
    pub fn add_process(&mut self, p: ProcessId) {
        self.adjacency.entry(p).or_default();
    }

    /// Adds the bidirectional link between `a` and `b`, inserting both
    /// endpoints if needed. Idempotent for existing links.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SelfLoop`] if `a == b`.
    pub fn add_link(&mut self, a: ProcessId, b: ProcessId) -> Result<LinkId, ModelError> {
        let link = LinkId::new(a, b)?;
        self.insert_link(link);
        Ok(link)
    }

    /// Inserts an already-constructed link.
    pub fn insert_link(&mut self, link: LinkId) {
        let (a, b) = link.endpoints();
        join(self.adjacency.entry(a).or_default(), b);
        join(self.adjacency.entry(b).or_default(), a);
    }

    /// Returns `true` iff the process is part of the topology.
    pub fn contains_process(&self, p: ProcessId) -> bool {
        self.adjacency.contains_key(&p)
    }

    /// Returns `true` iff the link is part of the topology.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.adjacency
            .get(&link.lo())
            .is_some_and(|row| row.binary_search(&link.hi()).is_ok())
    }

    /// Number of processes `|Π|`.
    pub fn process_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of links `|Λ|`.
    pub fn link_count(&self) -> usize {
        self.adjacency.values().map(Vec::len).sum::<usize>() / 2
    }

    /// Returns `true` iff there are no processes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Degree (number of neighbors) of `p`; zero for unknown processes.
    pub fn degree(&self, p: ProcessId) -> usize {
        self.adjacency.get(&p).map_or(0, Vec::len)
    }

    /// Iterates over all processes in ascending id order.
    pub fn processes(&self) -> Processes<'_> {
        Processes {
            inner: self.adjacency.keys(),
        }
    }

    /// Iterates over all links in ascending normalized order.
    pub fn links(&self) -> Links<'_> {
        Links {
            outer: self.adjacency.iter(),
            current: None,
        }
    }

    /// Iterates over the neighbors of `p` in ascending id order.
    ///
    /// Unknown processes yield an empty iterator.
    pub fn neighbors(&self, p: ProcessId) -> Neighbors<'_> {
        Neighbors {
            inner: self.adjacency.get(&p).map(|row| row.iter()),
        }
    }

    /// Returns `true` iff every process can reach every other process.
    ///
    /// The empty topology is considered connected.
    pub fn is_connected(&self) -> bool {
        let at = Positions::of(self);
        at.ids.is_empty() || at.bfs(0, &mut vec![UNSEEN; at.ids.len()]).len() == at.ids.len()
    }

    /// Longest shortest path between any two processes, in hops.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyTopology`] for the empty topology;
    /// * [`ModelError::Disconnected`] when some process cannot reach
    ///   another, so no finite diameter exists.
    pub fn diameter(&self) -> Result<u32, ModelError> {
        if self.is_empty() {
            return Err(ModelError::EmptyTopology);
        }
        let at = Positions::of(self);
        let mut depth = vec![UNSEEN; at.ids.len()];
        let mut best = 0u32;
        for source in 0..at.ids.len() {
            let reached = at.bfs(source, &mut depth);
            if reached.len() != at.ids.len() {
                return Err(ModelError::Disconnected);
            }
            let deepest = *reached.last().expect("the source is reached") as usize;
            best = best.max(depth[deepest]);
            depth.fill(UNSEEN);
        }
        Ok(best)
    }
}

impl Extend<LinkId> for Topology {
    fn extend<T: IntoIterator<Item = LinkId>>(&mut self, iter: T) {
        for link in iter {
            self.insert_link(link);
        }
    }
}

impl FromIterator<LinkId> for Topology {
    fn from_iter<T: IntoIterator<Item = LinkId>>(iter: T) -> Self {
        let mut t = Topology::new();
        t.extend(iter);
        t
    }
}

/// Iterator over processes; see [`Topology::processes`].
#[derive(Debug, Clone)]
pub struct Processes<'a> {
    inner: std::collections::btree_map::Keys<'a, ProcessId, Vec<ProcessId>>,
}

impl Iterator for Processes<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Processes<'_> {}

/// Iterator over links; see [`Topology::links`].
#[derive(Debug, Clone)]
pub struct Links<'a> {
    outer: std::collections::btree_map::Iter<'a, ProcessId, Vec<ProcessId>>,
    /// The process being walked and its higher neighbors not yet emitted.
    current: Option<(ProcessId, std::slice::Iter<'a, ProcessId>)>,
}

impl Iterator for Links<'_> {
    type Item = LinkId;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((p, higher)) = &mut self.current {
                if let Some(&q) = higher.next() {
                    return Some(LinkId::new(*p, q).expect("adjacency has no self-loops"));
                }
            }
            // Emit each undirected link once, from its lower endpoint:
            // the row's tail past `p`.
            let (&p, row) = self.outer.next()?;
            let higher = &row[row.partition_point(|&q| q < p)..];
            self.current = Some((p, higher.iter()));
        }
    }
}

/// Iterator over the neighbors of a process; see [`Topology::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: Option<std::slice::Iter<'a, ProcessId>>,
}

impl Iterator for Neighbors<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.as_mut()?.next().copied()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn triangle() -> Topology {
        let mut t = Topology::new();
        t.add_link(p(0), p(1)).unwrap();
        t.add_link(p(1), p(2)).unwrap();
        t.add_link(p(2), p(0)).unwrap();
        t
    }

    #[test]
    fn empty_topology_properties() {
        let t = Topology::new();
        assert!(t.is_empty());
        assert_eq!(t.process_count(), 0);
        assert_eq!(t.link_count(), 0);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Err(ModelError::EmptyTopology));
    }

    #[test]
    fn add_link_inserts_endpoints() {
        let mut t = Topology::new();
        t.add_link(p(3), p(7)).unwrap();
        assert!(t.contains_process(p(3)));
        assert!(t.contains_process(p(7)));
        assert_eq!(t.link_count(), 1);
        assert!(t.contains_link(LinkId::new(p(7), p(3)).unwrap()));
    }

    #[test]
    fn add_link_is_idempotent() {
        let mut t = Topology::new();
        t.add_link(p(0), p(1)).unwrap();
        t.add_link(p(1), p(0)).unwrap();
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.degree(p(0)), 1);
    }

    #[test]
    fn add_link_rejects_self_loop() {
        let mut t = Topology::new();
        assert!(t.add_link(p(1), p(1)).is_err());
    }

    #[test]
    fn links_iterator_yields_each_link_once_sorted() {
        let t = triangle();
        let links: Vec<String> = t.links().map(|l| l.to_string()).collect();
        assert_eq!(links, ["l0,1", "l0,2", "l1,2"]);
    }

    #[test]
    fn neighbors_of_unknown_process_is_empty() {
        let t = triangle();
        assert_eq!(t.neighbors(p(99)).count(), 0);
    }

    #[test]
    fn bfs_distances_on_a_line() {
        let mut t = Topology::new();
        t.add_link(p(0), p(1)).unwrap();
        t.add_link(p(1), p(2)).unwrap();
        t.add_link(p(2), p(3)).unwrap();
        let d = bfs_distances(&t, p(0));
        assert_eq!(d[&p(0)], 0);
        assert_eq!(d[&p(1)], 1);
        assert_eq!(d[&p(2)], 2);
        assert_eq!(d[&p(3)], 3);
        assert_eq!(t.diameter().unwrap(), 3);
    }

    #[test]
    fn two_components_are_disconnected() {
        let mut t = Topology::new();
        t.add_link(p(0), p(1)).unwrap();
        t.add_link(p(2), p(3)).unwrap();
        assert!(!t.is_connected());
        assert_eq!(t.diameter(), Err(ModelError::Disconnected));
    }

    #[test]
    fn with_processes_creates_isolated_nodes() {
        let t = Topology::with_processes(5);
        assert_eq!(t.process_count(), 5);
        assert_eq!(t.link_count(), 0);
        assert!(!t.is_connected());
    }

    #[test]
    fn from_iterator_collects_links() {
        let links = vec![
            LinkId::new(p(0), p(1)).unwrap(),
            LinkId::new(p(1), p(2)).unwrap(),
        ];
        let t: Topology = links.into_iter().collect();
        assert_eq!(t.process_count(), 3);
        assert_eq!(t.link_count(), 2);
    }

    /// Breadth-first distances (in hops) from `source` to every process
    /// it reaches, by the positional search `is_connected` and `diameter`
    /// run.
    fn bfs_distances(t: &Topology, source: ProcessId) -> BTreeMap<ProcessId, u32> {
        let at = Positions::of(t);
        let Some(source) = position_of(&at.ids, source) else {
            return BTreeMap::new();
        };
        let mut depth = vec![UNSEEN; at.ids.len()];
        let reached = at.bfs(source, &mut depth);
        reached
            .into_iter()
            .map(|i| (at.ids[i as usize], depth[i as usize]))
            .collect()
    }

    /// The map-based breadth-first search the positional one replaced:
    /// distances from `source`, keyed by process.
    fn reference_bfs(t: &Topology, source: ProcessId) -> BTreeMap<ProcessId, u32> {
        let mut dist = BTreeMap::new();
        if !t.contains_process(source) {
            return dist;
        }
        dist.insert(source, 0);
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(q) = queue.pop_front() {
            let next = dist[&q] + 1;
            for n in t.neighbors(q) {
                if let std::collections::btree_map::Entry::Vacant(slot) = dist.entry(n) {
                    slot.insert(next);
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// A topology over `n` processes from `edges` (endpoints taken mod
    /// `n`), every id `i` relabelled `7 + 3·π(i)` when `keys` is
    /// non-empty (π orders `0..n` by `keys`, so no id is its position).
    pub(crate) fn build(n: u32, edges: &[(u32, u32)], keys: &[u32]) -> Topology {
        let mut pi: Vec<u32> = (0..n).collect();
        if !keys.is_empty() {
            pi.sort_by_key(|&i| (keys[i as usize % keys.len()], i));
        }
        let label = |i: u32| {
            let i = pi[(i % n) as usize];
            p(if keys.is_empty() { i } else { 7 + 3 * i })
        };
        let mut t = Topology::new();
        for i in 0..n {
            t.add_process(label(i));
        }
        for &(a, b) in edges {
            if a % n != b % n {
                t.add_link(label(a), label(b)).unwrap();
            }
        }
        t
    }

    /// Holds the positional breadth-first search, `is_connected` and
    /// `diameter` to [`reference_bfs`] on `t`.
    fn assert_bfs_family(t: &Topology) {
        let reference: Vec<BTreeMap<ProcessId, u32>> =
            t.processes().map(|q| reference_bfs(t, q)).collect();
        for (q, expected) in t.processes().zip(&reference) {
            assert_eq!(&bfs_distances(t, q), expected, "from {q}");
        }
        assert!(bfs_distances(t, p(1_000_000)).is_empty());
        let spanning = reference.iter().all(|d| d.len() == t.process_count());
        assert_eq!(t.is_connected(), t.is_empty() || spanning);

        let diameter = if t.is_empty() {
            Err(ModelError::EmptyTopology)
        } else if !spanning {
            Err(ModelError::Disconnected)
        } else {
            Ok(reference
                .iter()
                .flat_map(|d| d.values().copied())
                .max()
                .unwrap())
        };
        assert_eq!(t.diameter(), diameter);
    }

    /// Every row ascends strictly, names only processes, and is mirrored
    /// by its neighbors' rows.
    fn assert_rows_sorted_and_symmetric(t: &Topology) {
        for (&q, row) in &t.adjacency {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {q}: {row:?}");
            for n in row {
                assert_ne!(*n, q);
                assert!(t.adjacency[n].binary_search(&q).is_ok(), "{q} - {n}");
            }
        }
    }

    #[test]
    fn bfs_family_on_the_singleton_and_the_empty_topology() {
        assert_bfs_family(&Topology::new());
        let mut singleton = Topology::new();
        singleton.add_process(p(5));
        assert_bfs_family(&singleton);
        assert_eq!(singleton.diameter(), Ok(0));
    }

    proptest! {
        /// The positional breadth-first family agrees with a map-based
        /// reference BFS on dense and relabelled ids, connected and
        /// disconnected topologies, isolated processes included.
        #[test]
        fn prop_bfs_family_matches_a_reference_bfs(
            n in 1u32..24,
            edges in proptest::collection::vec((0u32..64, 0u32..64), 0..60),
            keys in proptest::collection::vec(any::<u32>(), 0..24),
        ) {
            let t = build(n, &edges, &keys);
            assert_bfs_family(&t);
            assert_rows_sorted_and_symmetric(&t);
        }

        /// Rows stay sorted and free of duplicates under any sequence of
        /// `add_link` and `insert_link`, self-loops refused.
        #[test]
        fn prop_rows_stay_sorted_under_edits(
            ops in proptest::collection::vec((0u8..2, 0u32..12, 0u32..12), 0..80),
        ) {
            let mut t = Topology::new();
            let mut links = std::collections::BTreeSet::new();
            for (op, a, b) in ops {
                let link = LinkId::new(p(a), p(b));
                match (op, link) {
                    (0, Ok(l)) => {
                        prop_assert_eq!(t.add_link(p(a), p(b)), Ok(l));
                        links.insert(l);
                    }
                    (1, Ok(l)) => {
                        t.insert_link(l);
                        links.insert(l);
                    }
                    _ => prop_assert!(t.add_link(p(a), p(b)).is_err()),
                }
                assert_rows_sorted_and_symmetric(&t);
                prop_assert_eq!(t.links().collect::<std::collections::BTreeSet<_>>(), links.clone());
                prop_assert_eq!(t.link_count(), links.len());
            }
        }

        #[test]
        fn prop_link_count_matches_links_iterator(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..40),
        ) {
            let mut t = Topology::new();
            for (x, y) in edges {
                if x != y {
                    t.add_link(p(x), p(y)).unwrap();
                }
            }
            prop_assert_eq!(t.link_count(), t.links().count());
        }

        #[test]
        fn prop_degree_sums_to_twice_links(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..40),
        ) {
            let mut t = Topology::new();
            for (x, y) in edges {
                if x != y {
                    t.add_link(p(x), p(y)).unwrap();
                }
            }
            let degree_sum: usize = t.processes().map(|q| t.degree(q)).sum();
            prop_assert_eq!(degree_sum, 2 * t.link_count());
        }
    }
}
