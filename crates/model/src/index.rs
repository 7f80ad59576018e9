//! `(G, C)` by position.

use std::iter::Peekable;

use crate::{Configuration, LinkId, Probability, ProcessId, Topology};

/// `(G, C)` by position: processes numbered in ascending id order
/// (position `i` is the `i`-th smallest id), links in ascending
/// [`LinkId`] order — [`Topology::links`] order — each process's row of
/// `(neighbor, link)` pairs ascending by neighbor, and the raw
/// probabilities: `P` per process, `L` per link.
///
/// Two readers share it. `diffuse-graph`'s Prim builds the Maximum
/// Reliability Tree on it, taking `1 - P` and `1 - L` as it weighs a
/// candidate, and a knowledge keeps one for every root. A simulation
/// lane's driver owns a mutable copy: the outbox flush finds a send's
/// link and its loss probability here, the fault script overrides loss
/// through [`set_loss`](Self::set_loss), and per-link counters are kept
/// by link position. The lane does not read the crash probabilities
/// yet: its crash model is one law for every process (ROADMAP item 1(b)
/// plans a per-process law read from here).
///
/// Built in one walk of the topology's links, merge-joined with the
/// configuration's sorted loss entries, and one merge-join of its crash
/// entries. Entries for processes or links outside the topology are
/// skipped; missing ones count as zero. With `n` processes and `m`
/// links it takes `O(n + m)` memory and time.
#[derive(Debug, Clone)]
pub struct NetworkIndex {
    /// Every process, ascending; position `i` is `ids[i]`.
    ids: Vec<ProcessId>,
    /// Row `i` is `adjacency[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    /// `(neighbor, link)` pairs, both by position.
    adjacency: Vec<(u32, u32)>,
    /// `P` per process.
    crash: Vec<Probability>,
    /// `L` per link.
    loss: Vec<Probability>,
}

impl NetworkIndex {
    /// Indexes `topology` and the part of `config` that covers it.
    pub fn new(topology: &Topology, config: &Configuration) -> Self {
        let ids: Vec<ProcessId> = topology.processes().collect();
        let position = |p| position_of(&ids, p).expect("link endpoints are processes") as u32;
        let mut crashes = config.crash_entries().peekable();
        let crash = ids.iter().map(|&p| merge_lookup(&mut crashes, p)).collect();
        // Sized up front: `links()` gives no length hint, and a grown
        // `loss` would keep up to twice the memory for the whole run.
        let links = topology.link_count();
        let (mut loss, mut ends) = (Vec::with_capacity(links), Vec::with_capacity(links));
        let mut losses = config.loss_entries().peekable();
        for l in topology.links() {
            loss.push(merge_lookup(&mut losses, l));
            ends.push((position(l.lo()), position(l.hi())));
        }
        // Links ascend by `(lo, hi)`, so a row receives its lower
        // neighbors (in `lo` order) before the walk reaches the row's own
        // process as `lo`: every row ascends.
        let (start, adjacency) = compressed_rows(
            ids.len(),
            ends.iter()
                .zip(0..)
                .flat_map(|(&(a, b), link)| [(a, (b, link)), (b, (a, link))]),
        );
        NetworkIndex {
            ids,
            start,
            adjacency,
            crash,
            loss,
        }
    }

    /// Every process, ascending: position `i` is `ids()[i]`.
    pub fn ids(&self) -> &[ProcessId] {
        &self.ids
    }

    /// Position of `p`, or `None` if it is not indexed.
    pub fn position(&self, p: ProcessId) -> Option<usize> {
        position_of(&self.ids, p)
    }

    /// The `(neighbor, link)` pairs of position `i`, both by position,
    /// ascending by neighbor.
    pub fn row(&self, i: usize) -> &[(u32, u32)] {
        &self.adjacency[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The position of the link from position `i` to process `to`, or
    /// `None` if `to` is not its neighbor.
    pub fn link_between(&self, i: usize, to: ProcessId) -> Option<u32> {
        let to = self.position(to)? as u32;
        let row = self.row(i);
        let hop = row.binary_search_by_key(&to, |&(n, _)| n).ok()?;
        Some(row[hop].1)
    }

    /// Every link in position order: a link was numbered when the walk
    /// met it from its lower endpoint, so that is each row's pairs with
    /// higher neighbors, rows ascending.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.ids.len()).flat_map(move |i| {
            let higher = self.row(i).iter().filter(move |&&(n, _)| n as usize > i);
            higher.map(move |&(n, _)| {
                LinkId::new(self.ids[i], self.ids[n as usize]).expect("a row has no self-loop")
            })
        })
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.loss.len()
    }

    /// Crash probability `P` of position `i`.
    pub fn crash(&self, i: usize) -> Probability {
        self.crash[i]
    }

    /// Loss probability `L` of link position `link`.
    pub fn loss(&self, link: usize) -> Probability {
        self.loss[link]
    }

    /// Reliability of the segment `u → v`,
    /// `((1 - P_u) · (1 - L_{u,v})) · (1 - P_v)` multiplied in that
    /// order — bit for bit [`Configuration::link_reliability`]`(u, v)`
    /// over the indexed `(G, C)`. A process or link the index lacks
    /// contributes a factor of one, as a missing entry does there.
    pub fn link_reliability(&self, u: ProcessId, v: ProcessId) -> Probability {
        let (from, to) = (self.position(u), self.position(v));
        let up = |at: Option<usize>| at.map_or(Probability::ZERO, |i| self.crash[i]).complement();
        let loss = from.and_then(|from| self.link_between(from, v));
        let keep = loss.map_or(Probability::ZERO, |l| self.loss[l as usize]);
        up(from) * keep.complement() * up(to)
    }

    /// Sets one link's loss probability; a link the topology does not
    /// have is ignored.
    pub fn set_loss(&mut self, link: LinkId, p: Probability) {
        let from = self.position(link.lo());
        if let Some(at) = from.and_then(|from| self.link_between(from, link.hi())) {
            self.loss[at as usize] = p;
        }
    }
}

/// Groups `(row, value)` pairs into compressed rows over `0..n`: row `r`
/// is `values[start[r]..start[r + 1]]`, in input order. Returns
/// `(start, values)`.
pub fn compressed_rows<T: Copy + Default>(
    n: usize,
    pairs: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; n + 1];
    for (r, _) in pairs.clone() {
        start[r as usize + 1] += 1;
    }
    for r in 0..n {
        start[r + 1] += start[r];
    }
    let mut fill = start.clone();
    let mut values = vec![T::default(); start[n] as usize];
    for (r, v) in pairs {
        values[fill[r as usize] as usize] = v;
        fill[r as usize] += 1;
    }
    (start, values)
}

/// Position of `p` in the ascending, duplicate-free `ids`: its own index
/// when the ids are `0..n`, a binary search otherwise.
pub fn position_of(ids: &[ProcessId], p: ProcessId) -> Option<usize> {
    match ids.get(p.as_usize()) {
        Some(&q) if q == p => Some(p.as_usize()),
        _ => ids.binary_search(&p).ok(),
    }
}

/// The probability `entries` (ascending by key) holds for `key`, zero if
/// none. Consumes every entry up to `key`, so keys must be asked in
/// ascending order.
fn merge_lookup<K: Ord, I: Iterator<Item = (K, Probability)>>(
    entries: &mut Peekable<I>,
    key: K,
) -> Probability {
    while entries.next_if(|(k, _)| *k < key).is_some() {}
    entries
        .next_if(|(k, _)| *k == key)
        .map_or(Probability::ZERO, |(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::tests::build;
    use proptest::prelude::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn link(a: u32, b: u32) -> LinkId {
        LinkId::new(p(a), p(b)).unwrap()
    }

    /// A graph whose ids are not `0..n`, with an isolated process.
    fn sparse() -> Topology {
        let mut topology = Topology::new();
        for (a, b) in [(40, 3), (3, 11), (11, 40), (10, 11), (7, 90)] {
            topology.add_link(p(a), p(b)).unwrap();
        }
        topology.add_process(p(5));
        topology
    }

    #[test]
    fn rows_ascend_and_number_links_in_topology_order() {
        let topology = sparse();
        let mut config = Configuration::new();
        let quarter = Probability::new(0.25).unwrap();
        config.set_loss(link(3, 11), quarter);
        config.set_loss(link(7, 90), Probability::ONE);
        // Entries of links the topology lacks, sorting before, between
        // and after its own, are dropped.
        for (a, b) in [(1, 2), (3, 12), (10, 40), (95, 99)] {
            config.set_loss(link(a, b), Probability::new(0.5).unwrap());
        }
        let index = NetworkIndex::new(&topology, &config);
        assert_eq!(index.ids(), topology.processes().collect::<Vec<_>>());
        let link_ids: Vec<LinkId> = index.link_ids().collect();
        assert_eq!(link_ids, topology.links().collect::<Vec<_>>());
        assert_eq!(index.link_count(), link_ids.len());
        let lossy: Vec<(LinkId, Probability)> = (0..link_ids.len())
            .map(|at| (link_ids[at], index.loss(at)))
            .filter(|&(_, loss)| !loss.is_zero())
            .collect();
        assert_eq!(
            lossy,
            vec![(link(3, 11), quarter), (link(7, 90), Probability::ONE)]
        );
        for (i, &id) in index.ids().iter().enumerate() {
            assert_eq!(index.position(id), Some(i));
            let row = index.row(i);
            let neighbors: Vec<ProcessId> =
                row.iter().map(|&(n, _)| index.ids()[n as usize]).collect();
            assert_eq!(
                neighbors,
                topology.neighbors(id).collect::<Vec<_>>(),
                "{id}"
            );
            for &(n, at) in row {
                let to = index.ids()[n as usize];
                assert_eq!(link_ids[at as usize], LinkId::new(id, to).unwrap());
                assert_eq!(index.link_between(i, to), Some(at));
            }
        }
        // Non-neighbours, the process itself and unknown ids have no link.
        let from = index.position(p(3)).unwrap();
        for to in [10, 3, 5, 99] {
            assert_eq!(index.link_between(from, p(to)), None, "p3 -> p{to}");
        }
        assert_eq!(index.position(p(4)), None);
        assert_eq!(index.position(p(0)), None);
    }

    /// A seeded stream of draws (SplitMix64).
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value in `[0, max]`, or with bit 2 of `flags` one of three
        /// non-zero levels (tie-heavy, inexact in binary).
        fn value(&mut self, flags: u8, max: f64) -> Probability {
            let v = if flags & 4 == 0 {
                (self.next() >> 11) as f64 / (1u64 << 53) as f64 * max
            } else {
                (1 + self.below(3)) as f64 * max / 3.0
            };
            Probability::clamped(v)
        }
    }

    /// A configuration for `t` drawn from `seed` the way the Prim oracle
    /// cases draw theirs, by `flags`: bit 2 tie-heavy values; bit 3
    /// non-zero crash probabilities; bit 4 about a third of the entries
    /// left out; bit 5 entries for processes and links outside `t`.
    fn configure(t: &Topology, seed: u64, flags: u8) -> Configuration {
        let mut draws = Draws(seed);
        let mut c = Configuration::new();
        let skip = |draws: &mut Draws| flags & 16 != 0 && draws.below(3) == 0;
        for q in t.processes() {
            if flags & 8 != 0 && !skip(&mut draws) {
                c.set_crash(q, draws.value(flags, 0.3));
            }
        }
        for l in t.links() {
            if !skip(&mut draws) {
                c.set_loss(l, draws.value(flags, 0.4));
            }
        }
        let ids: Vec<ProcessId> = t.processes().collect();
        for _ in 0..if flags & 32 == 0 { 0 } else { 4 } {
            let mut pick = || ids[draws.below(ids.len() as u64) as usize];
            let (a, b) = (pick(), pick());
            let stray = p(draws.below(10_000) as u32);
            if !t.contains_process(stray) {
                c.set_crash(stray, draws.value(flags, 0.3));
            }
            for l in [LinkId::new(a, b), LinkId::new(a, stray)]
                .into_iter()
                .flatten()
            {
                if !t.contains_link(l) {
                    c.set_loss(l, draws.value(flags, 0.4));
                }
            }
        }
        c
    }

    /// A random topology over `n` processes, relabelled `7 + 3·π(i)` if
    /// `relabel` (so no id is its position), and a configuration for it.
    fn case(
        n: u32,
        edges: &[(u32, u32)],
        keys: &[u32],
        relabel: bool,
        seed: u64,
        flags: u8,
    ) -> (Topology, Configuration) {
        let t = build(n, edges, if relabel { keys } else { &[] });
        let c = configure(&t, seed, flags);
        (t, c)
    }

    proptest! {
        /// The index is its topology and configuration: rows are the
        /// neighbours, links are numbered in `Topology::links()` order,
        /// and every crash and loss value is the configuration's (zero
        /// where it has no entry, stray entries dropped). `set_loss`
        /// writes exactly the link it names and ignores one the topology
        /// lacks.
        #[test]
        fn prop_index_is_the_topology_and_configuration(
            (n, edges, keys) in (
                1u32..30,
                proptest::collection::vec((0u32..64, 0u32..64), 0..80),
                proptest::collection::vec(any::<u32>(), 1..30),
            ),
            (relabel, seed, flags, pick) in (any::<bool>(), any::<u64>(), any::<u8>(), any::<u32>()),
        ) {
            let (t, c) = case(n, &edges, &keys, relabel, seed, flags);
            let mut index = NetworkIndex::new(&t, &c);
            let ids: Vec<ProcessId> = t.processes().collect();
            prop_assert_eq!(index.ids(), &ids[..]);
            for (i, &q) in ids.iter().enumerate() {
                prop_assert_eq!(index.position(q), Some(i));
                let row: Vec<ProcessId> = index.row(i).iter().map(|&(n, _)| ids[n as usize]).collect();
                prop_assert_eq!(row, t.neighbors(q).collect::<Vec<_>>());
                prop_assert_eq!(index.crash(i).value().to_bits(), c.crash(q).value().to_bits());
            }
            let links: Vec<LinkId> = t.links().collect();
            prop_assert_eq!(index.link_ids().collect::<Vec<_>>(), links.clone());
            prop_assert_eq!(index.link_count(), links.len());
            for (at, &l) in links.iter().enumerate() {
                prop_assert_eq!(index.loss(at).value().to_bits(), c.loss(l).value().to_bits());
            }

            let losses = |index: &NetworkIndex| -> Vec<Probability> {
                (0..index.link_count()).map(|at| index.loss(at)).collect()
            };
            let before = losses(&index);
            let absent = LinkId::new(ids[0], p(1_000_000)).unwrap();
            index.set_loss(absent, Probability::ONE);
            let lacking = ids.iter().flat_map(|&a| ids.iter().map(move |&b| (a, b)))
                .filter_map(|(a, b)| LinkId::new(a, b).ok())
                .find(|&l| !t.contains_link(l));
            if let Some(l) = lacking {
                index.set_loss(l, Probability::ONE);
            }
            prop_assert_eq!(losses(&index), before.clone());
            if !links.is_empty() {
                let at = pick as usize % links.len();
                let value = Probability::new(0.75).unwrap();
                index.set_loss(links[at], value);
                let mut expected = before;
                expected[at] = value;
                prop_assert_eq!(losses(&index), expected);
            }
        }

        /// The index's segment reliability is the configuration's, bit
        /// for bit, in both directions of every link, on dense and
        /// relabelled ids with the same configurations (stray entries
        /// included: the index skips them).
        #[test]
        fn prop_index_reliability_is_the_configurations(
            (n, edges, keys) in (
                2u32..40,
                proptest::collection::vec((0u32..64, 0u32..64), 0..100),
                proptest::collection::vec(any::<u32>(), 1..40),
            ),
            (relabel, seed, flags) in (any::<bool>(), any::<u64>(), any::<u8>()),
        ) {
            let (t, c) = case(n, &edges, &keys, relabel, seed, flags);
            let index = NetworkIndex::new(&t, &c);
            for (u, v) in t.links().flat_map(|l| [l.endpoints(), (l.hi(), l.lo())]) {
                prop_assert_eq!(
                    index.link_reliability(u, v).value().to_bits(),
                    c.link_reliability(u, v).value().to_bits(),
                    "{} -> {}", u, v
                );
            }
        }
    }
}
