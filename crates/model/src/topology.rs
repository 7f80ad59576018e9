//! Network topology `G = (Π, Λ)`.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::{LinkId, ModelError, ProcessId};

/// The system's topology `G = (Π, Λ)`: a set of processes and the
/// bidirectional links connecting them.
///
/// `Topology` is an undirected graph keyed by [`ProcessId`]. Storage is
/// ordered (`BTreeMap`/`BTreeSet`) so iteration order — and therefore every
/// algorithm built on top, including tie-breaking in Prim's algorithm — is
/// deterministic.
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
    adjacency: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Creates a topology containing `n` isolated processes `p_0 … p_{n-1}`.
    pub fn with_processes(n: u32) -> Self {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_process(ProcessId::new(i));
        }
        t
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
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
        Ok(link)
    }

    /// Inserts an already-constructed link.
    pub fn insert_link(&mut self, link: LinkId) {
        let (a, b) = link.endpoints();
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
    }

    /// Removes a link, leaving its endpoints in place.
    ///
    /// Returns `true` if the link was present.
    pub fn remove_link(&mut self, link: LinkId) -> bool {
        let (a, b) = link.endpoints();
        let removed = self
            .adjacency
            .get_mut(&a)
            .map(|s| s.remove(&b))
            .unwrap_or(false);
        if removed {
            self.adjacency
                .get_mut(&b)
                .map(|s| s.remove(&a))
                .unwrap_or(false);
        }
        removed
    }

    /// Removes a process and every link touching it.
    ///
    /// Returns `true` if the process was present.
    pub fn remove_process(&mut self, p: ProcessId) -> bool {
        match self.adjacency.remove(&p) {
            Some(neighbors) => {
                for n in neighbors {
                    if let Some(s) = self.adjacency.get_mut(&n) {
                        s.remove(&p);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Returns `true` iff the process is part of the topology.
    pub fn contains_process(&self, p: ProcessId) -> bool {
        self.adjacency.contains_key(&p)
    }

    /// Returns `true` iff the link is part of the topology.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.adjacency
            .get(&link.lo())
            .is_some_and(|s| s.contains(&link.hi()))
    }

    /// Number of processes `|Π|`.
    pub fn process_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of links `|Λ|`.
    pub fn link_count(&self) -> usize {
        self.adjacency.values().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Returns `true` iff there are no processes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Degree (number of neighbors) of `p`; zero for unknown processes.
    pub fn degree(&self, p: ProcessId) -> usize {
        self.adjacency.get(&p).map_or(0, BTreeSet::len)
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
            inner: self.adjacency.get(&p).map(|s| s.iter()),
        }
    }

    /// Breadth-first distances (in hops) from `source` to every reachable
    /// process, including `source` itself at distance 0.
    pub fn bfs_distances(&self, source: ProcessId) -> BTreeMap<ProcessId, u32> {
        let mut dist = BTreeMap::new();
        if !self.contains_process(source) {
            return dist;
        }
        dist.insert(source, 0);
        let mut frontier = vec![source];
        let mut next = Vec::new();
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            for p in frontier.drain(..) {
                for n in self.neighbors(p) {
                    if let Entry::Vacant(slot) = dist.entry(n) {
                        slot.insert(depth);
                        next.push(n);
                    }
                }
            }
            core::mem::swap(&mut frontier, &mut next);
        }
        dist
    }

    /// Returns `true` iff every process can reach every other process.
    ///
    /// The empty topology is considered connected.
    pub fn is_connected(&self) -> bool {
        match self.processes().next() {
            None => true,
            Some(first) => self.bfs_distances(first).len() == self.process_count(),
        }
    }

    /// Returns the connected components, each sorted, ordered by their
    /// smallest member.
    pub fn connected_components(&self) -> Vec<Vec<ProcessId>> {
        let mut seen = BTreeSet::new();
        let mut components = Vec::new();
        for p in self.processes() {
            if seen.contains(&p) {
                continue;
            }
            let component: Vec<ProcessId> = self.bfs_distances(p).into_keys().collect();
            seen.extend(component.iter().copied());
            components.push(component);
        }
        components
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
        let mut best = 0u32;
        for p in self.processes() {
            let dist = self.bfs_distances(p);
            if dist.len() != self.process_count() {
                return Err(ModelError::Disconnected);
            }
            best = best.max(dist.values().copied().max().unwrap_or(0));
        }
        Ok(best)
    }

    /// Average degree (`2|Λ| / |Π|`), the paper's "network connectivity".
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.link_count() as f64 / self.process_count() as f64
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
    inner: std::collections::btree_map::Keys<'a, ProcessId, BTreeSet<ProcessId>>,
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
    outer: std::collections::btree_map::Iter<'a, ProcessId, BTreeSet<ProcessId>>,
    current: Option<(ProcessId, std::collections::btree_set::Iter<'a, ProcessId>)>,
}

impl Iterator for Links<'_> {
    type Item = LinkId;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((p, iter)) = &mut self.current {
                for q in iter.by_ref() {
                    // Emit each undirected link once, from its lower endpoint.
                    if *q > *p {
                        return Some(LinkId::new(*p, *q).expect("adjacency has no self-loops"));
                    }
                }
            }
            match self.outer.next() {
                Some((p, set)) => self.current = Some((*p, set.iter())),
                None => return None,
            }
        }
    }
}

/// Iterator over the neighbors of a process; see [`Topology::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: Option<std::collections::btree_set::Iter<'a, ProcessId>>,
}

impl Iterator for Neighbors<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.as_mut()?.next().copied()
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(t.average_degree(), 0.0);
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
    fn remove_link_keeps_processes() {
        let mut t = triangle();
        let l = LinkId::new(p(0), p(1)).unwrap();
        assert!(t.remove_link(l));
        assert!(!t.remove_link(l));
        assert_eq!(t.process_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn remove_process_removes_incident_links() {
        let mut t = triangle();
        assert!(t.remove_process(p(1)));
        assert!(!t.remove_process(p(1)));
        assert_eq!(t.process_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.degree(p(0)), 1);
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
        let d = t.bfs_distances(p(0));
        assert_eq!(d[&p(0)], 0);
        assert_eq!(d[&p(1)], 1);
        assert_eq!(d[&p(2)], 2);
        assert_eq!(d[&p(3)], 3);
        assert_eq!(t.diameter().unwrap(), 3);
    }

    #[test]
    fn connectivity_and_components() {
        let mut t = Topology::new();
        t.add_link(p(0), p(1)).unwrap();
        t.add_link(p(2), p(3)).unwrap();
        assert!(!t.is_connected());
        let components = t.connected_components();
        assert_eq!(components.len(), 2);
        assert_eq!(components[0], vec![p(0), p(1)]);
        assert_eq!(components[1], vec![p(2), p(3)]);
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
    fn average_degree_matches_paper_connectivity() {
        let t = triangle();
        assert!((t.average_degree() - 2.0).abs() < 1e-12);
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

    proptest! {
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
