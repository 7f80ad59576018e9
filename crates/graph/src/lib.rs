//! Graph substrate for the `diffuse` workspace.
//!
//! This crate provides the graph machinery the paper's algorithms are
//! built on:
//!
//! * [`SpanningTree`] — rooted spanning trees with the labelling of the
//!   paper's Section 3.2 (parents `pred(i)`, direct subtrees, BFS order);
//! * [`maximum_reliability_tree`] — the Maximum Reliability Tree of
//!   Appendix B (modified Prim), and [`maximum_reliability_tree_in`],
//!   the same Prim over a [`diffuse_model::NetworkIndex`] that one caller
//!   keeps for every root, plus an independent Kruskal
//!   implementation ([`maximum_reliability_tree_kruskal`]) and random
//!   spanning trees ([`random_spanning_tree`]) for cross-checking the
//!   optimality result of Appendix C;
//! * [`generators`] — the topology families of the evaluation section
//!   (rings, `k`-regular circulants, random trees, …).
//!
//! # Example
//!
//! ```
//! use diffuse_graph::{generators, maximum_reliability_tree};
//! use diffuse_model::{Configuration, LinkId, Probability, ProcessId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Ring of 8 with one terrible link: the MRT must route around it.
//! let g = generators::ring(8)?;
//! let mut c = Configuration::uniform(&g, Probability::ZERO, Probability::new(0.01)?);
//! let bad = LinkId::new(ProcessId::new(3), ProcessId::new(4))?;
//! c.set_loss(bad, Probability::new(0.9)?);
//!
//! let mrt = maximum_reliability_tree(&g, &c, ProcessId::new(0))?;
//! assert!(mrt.edges().all(|(u, v)| LinkId::new(u, v).unwrap() != bad));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
pub mod generators;
mod mrt;
mod spanning;

pub use error::GraphError;
pub use mrt::{
    maximum_reliability_tree, maximum_reliability_tree_in, maximum_reliability_tree_kruskal,
    random_spanning_tree,
};
pub use spanning::SpanningTree;

#[cfg(test)]
mod property_tests {
    use super::*;
    use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A random tree over `n` processes plus up to `n` random chords, so
    /// connected.
    fn tree_with_chords(n: u32, rng: &mut StdRng) -> Topology {
        let mut t = generators::random_tree(n, rng).unwrap();
        for _ in 0..n {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                t.add_link(ProcessId::new(a), ProcessId::new(b)).unwrap();
            }
        }
        t
    }

    /// Strategy: a random connected topology over 3..=12 processes with a
    /// random configuration.
    fn arb_weighted_topology() -> impl Strategy<Value = (Topology, Configuration)> {
        (3u32..12, any::<u64>(), 0.0f64..0.4, 0.0f64..0.4).prop_map(|(n, seed, max_p, max_l)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = tree_with_chords(n, &mut rng);
            let mut c = Configuration::new();
            for p in t.processes() {
                c.set_crash(p, Probability::clamped(rng.gen_range(0.0..=max_p)));
            }
            for l in t.links() {
                c.set_loss(l, Probability::clamped(rng.gen_range(0.0..=max_l)));
            }
            (t, c)
        })
    }

    /// One oracle case over `n` processes, its shape picked by `flags`:
    /// bit 0 a `circulant` instead of a random tree with chords; the rest
    /// as [`weigh`] reads them.
    fn prim_case(n: u32, seed: u64, flags: u8) -> (Topology, Configuration) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = if flags & 1 == 0 {
            tree_with_chords(n, &mut rng)
        } else {
            let half_degree = rng.gen_range(1..=((n - 1) / 2).min(6));
            generators::circulant(n, 2 * half_degree).unwrap()
        };
        weigh(t, &mut rng, flags)
    }

    /// Relabels `t` and draws a configuration for it, by `flags`: bit 1
    /// relabels every id `i → 7 + 3·π(i)` (π a seeded shuffle), so no id
    /// is its position; bit 2 draws every value from three non-zero
    /// levels (tie-heavy, and inexact in binary, so the order of a
    /// product's factors shows in its last bit); bit 3 gives processes
    /// non-zero crash probabilities, so an edge's weight depends on its
    /// direction; bit 4 leaves about a third of the entries out; bit 5
    /// adds entries for processes and links outside the topology.
    fn weigh(t: Topology, rng: &mut StdRng, flags: u8) -> (Topology, Configuration) {
        let t = if flags & 2 == 0 {
            t
        } else {
            let mut pi: Vec<u32> = (0..t.process_count() as u32).collect();
            pi.shuffle(rng);
            let relabel = |q: ProcessId| ProcessId::new(7 + 3 * pi[q.as_usize()]);
            t.links()
                .map(|l| LinkId::new(relabel(l.lo()), relabel(l.hi())).unwrap())
                .collect()
        };
        let value = |rng: &mut StdRng, max: f64| {
            let v = if flags & 4 == 0 {
                rng.gen_range(0.0..=max)
            } else {
                f64::from(rng.gen_range(1u32..=3)) * max / 3.0
            };
            Probability::clamped(v)
        };
        let skip = |rng: &mut StdRng| flags & 16 != 0 && rng.gen_range(0..3) == 0;
        let mut c = Configuration::new();
        for q in t.processes() {
            if flags & 8 != 0 && !skip(rng) {
                c.set_crash(q, value(rng, 0.3));
            }
        }
        for l in t.links() {
            if !skip(rng) {
                c.set_loss(l, value(rng, 0.4));
            }
        }
        if flags & 32 != 0 {
            let ids: Vec<ProcessId> = t.processes().collect();
            for _ in 0..4 {
                let (a, b) = (*ids.choose(rng).unwrap(), *ids.choose(rng).unwrap());
                let stray = ProcessId::new(rng.gen_range(0..10_000));
                if !t.contains_process(stray) {
                    c.set_crash(stray, value(rng, 0.3));
                }
                for l in [LinkId::new(a, b), LinkId::new(a, stray)]
                    .into_iter()
                    .flatten()
                {
                    if !t.contains_link(l) {
                        c.set_loss(l, value(rng, 0.4));
                    }
                }
            }
        }
        (t, c)
    }

    /// The positional Prim and the map-based spec build equal trees from
    /// every root in `roots`.
    fn assert_spec_trees(t: &Topology, c: &Configuration, roots: impl Iterator<Item = ProcessId>) {
        for root in roots {
            assert_eq!(
                maximum_reliability_tree(t, c, root).unwrap(),
                mrt::spec::maximum_reliability_tree(t, c, root).unwrap(),
                "root {root}"
            );
        }
    }

    /// [`prop_dense_prim_builds_the_spec_tree`] on larger cases, plus one
    /// relabelled, tie-heavy, crash-prone `G(2000, 2 ln n / n)` from a
    /// sample of roots.
    #[test]
    #[ignore = "seconds in debug; the release --ignored lane runs it"]
    fn prop_dense_prim_builds_the_spec_tree_at_scale() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..128 {
            let (t, c) = prim_case(rng.gen_range(3..200), rng.gen(), rng.gen());
            assert_spec_trees(&t, &c, t.processes());
        }
        let n = 2000;
        let g = generators::erdos_renyi_connected_fast(
            n,
            2.0 * f64::from(n).ln() / f64::from(n),
            64,
            &mut rng,
        )
        .unwrap();
        let (t, c) = weigh(g, &mut rng, 2 | 4 | 8 | 16 | 32);
        assert_spec_trees(&t, &c, t.processes().step_by(61));
    }

    proptest! {
        /// The positional Prim builds the spec Prim's tree, bit for bit,
        /// from every root: random trees with chords and circulants,
        /// dense and relabelled ids, continuous and tie-heavy values,
        /// zero and non-zero crash probabilities, configurations with
        /// missing and stray entries.
        #[test]
        fn prop_dense_prim_builds_the_spec_tree(
            (t, c) in (3u32..40, any::<u64>(), any::<u8>())
                .prop_map(|(n, seed, flags)| prim_case(n, seed, flags)),
        ) {
            assert_spec_trees(&t, &c, t.processes());
        }

        /// Lemma 2: the MRT's total (log) reliability is at least that of
        /// any other spanning tree.
        #[test]
        fn prop_mrt_beats_random_spanning_trees(
            (t, c) in arb_weighted_topology(),
            seed in any::<u64>(),
        ) {
            let root = t.processes().next().unwrap();
            let mrt = maximum_reliability_tree(&t, &c, root).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..5 {
                let other = random_spanning_tree(&t, root, &mut rng).unwrap();
                prop_assert!(
                    mrt.log_reliability(&c) >= other.log_reliability(&c) - 1e-9,
                    "MRT {} < random tree {}",
                    mrt.log_reliability(&c),
                    other.log_reliability(&c)
                );
            }
        }

        /// Prim and Kruskal implementations agree on the (unique) maximum
        /// total reliability.
        #[test]
        fn prop_prim_equals_kruskal_weight((t, c) in arb_weighted_topology()) {
            let root = t.processes().next().unwrap();
            let prim = maximum_reliability_tree(&t, &c, root).unwrap();
            let kruskal = maximum_reliability_tree_kruskal(&t, &c, root).unwrap();
            let (a, b) = (prim.log_reliability(&c), kruskal.log_reliability(&c));
            prop_assert!((a - b).abs() < 1e-9, "prim={} kruskal={}", a, b);
        }

        /// Every MRT is a spanning tree: n-1 links, contains every process,
        /// every edge is a topology link.
        #[test]
        fn prop_mrt_is_a_spanning_subgraph((t, c) in arb_weighted_topology()) {
            let root = t.processes().next().unwrap();
            let mrt = maximum_reliability_tree(&t, &c, root).unwrap();
            prop_assert_eq!(mrt.process_count(), t.process_count());
            prop_assert_eq!(mrt.link_count(), t.process_count() - 1);
            for (u, v) in mrt.edges() {
                prop_assert!(t.contains_link(diffuse_model::LinkId::new(u, v).unwrap()));
            }
        }

        /// The MRT root choice never changes the total weight.
        #[test]
        fn prop_mrt_weight_is_root_independent((t, c) in arb_weighted_topology()) {
            let mut roots = t.processes();
            let first = roots.next().unwrap();
            let base = maximum_reliability_tree(&t, &c, first).unwrap().log_reliability(&c);
            for root in roots.take(3) {
                let w = maximum_reliability_tree(&t, &c, root).unwrap().log_reliability(&c);
                prop_assert!((w - base).abs() < 1e-9);
            }
        }
    }
}
