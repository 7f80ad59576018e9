//! Knowledge about the system: exact or approximated `(G, C)`.

use std::fmt;
use std::sync::{Arc, OnceLock};

use diffuse_bayes::Offer;
use diffuse_graph::maximum_reliability_tree_in;
use diffuse_model::{Configuration, LinkId, NetworkIndex, ProcessId, Topology};

use crate::{optimize, CoreError, MessagePlan, ReliabilityTree};

/// A process's knowledge of the system: a topology `G` plus a failure
/// configuration `C`.
///
/// The optimal algorithm is handed an exact `NetworkKnowledge` up front;
/// the adaptive algorithm *approximates* one continuously and snapshots it
/// before each broadcast. Either way, broadcasting is the same two steps
/// (Algorithm 1): build the MRT rooted at the sender, then run
/// `optimize()` on it.
///
/// The value is immutable and shared: a clone shares the one `(G, C)`
/// it was cloned from (a reference-count bump, not a copy), so handing
/// the same exact knowledge to every process of a run holds it once.
/// The position index every tree is built on ([`NetworkIndex`]) is part
/// of that shared state: the first tree built on the knowledge or any of
/// its clones builds it, and every later tree, from any root, reuses it.
#[derive(Clone)]
pub struct NetworkKnowledge {
    known: Arc<Known>,
}

/// The state every clone of one [`NetworkKnowledge`] shares.
struct Known {
    topology: Topology,
    config: Configuration,
    /// `(topology, config)` by position, built by the first tree.
    index: OnceLock<NetworkIndex>,
}

impl PartialEq for NetworkKnowledge {
    fn eq(&self, other: &Self) -> bool {
        self.topology() == other.topology() && self.config() == other.config()
    }
}

impl fmt::Debug for NetworkKnowledge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkKnowledge")
            .field("topology", self.topology())
            .field("config", self.config())
            .finish()
    }
}

impl NetworkKnowledge {
    /// Wraps an exact topology and configuration (the optimal algorithm's
    /// full-knowledge assumption). Clones of the result share them.
    pub fn exact(topology: Topology, config: Configuration) -> Self {
        NetworkKnowledge {
            known: Arc::new(Known {
                topology,
                config,
                index: OnceLock::new(),
            }),
        }
    }

    /// The known topology.
    pub fn topology(&self) -> &Topology {
        &self.known.topology
    }

    /// The known failure configuration.
    pub fn config(&self) -> &Configuration {
        &self.known.config
    }

    /// The known `(G, C)` by position, built on first use and shared
    /// with every clone.
    pub(crate) fn index(&self) -> &NetworkIndex {
        self.known
            .index
            .get_or_init(|| NetworkIndex::new(self.topology(), self.config()))
    }

    /// Builds the maximum reliability tree rooted at `root` on the
    /// shared [`NetworkIndex`] (built by the first tree) and labels it
    /// with λ values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::KnowledgeIncomplete`] if the known topology
    /// does not span all known processes (or does not contain `root`).
    pub fn reliability_tree(&self, root: ProcessId) -> Result<ReliabilityTree, CoreError> {
        let index = self.index();
        let tree =
            maximum_reliability_tree_in(index, root).map_err(|_| CoreError::KnowledgeIncomplete)?;
        Ok(ReliabilityTree::from_spanning_tree(&tree, index))
    }

    /// Builds the full broadcast plan for a sender: the MRT plus the
    /// per-link message counts reaching everyone with probability `k`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkKnowledge::reliability_tree`] and
    /// [`optimize`] errors.
    pub fn broadcast_plan(
        &self,
        root: ProcessId,
        k: f64,
    ) -> Result<(ReliabilityTree, MessagePlan), CoreError> {
        let tree = self.reliability_tree(root)?;
        let plan = optimize(&tree, k)?;
        Ok((tree, plan))
    }
}

/// One heartbeat's view payload: the sender's `(Λ_k, C_k)` entries that
/// changed in the generation window `(base, generation]`.
///
/// A view is **cumulative since its base**: it carries the *current*
/// value of every entry that changed in the window, where `base` is the
/// latest generation the receiver acknowledged to the sender. A receiver
/// whose last merged generation is `g ≥ base` can therefore always apply
/// it (entries already merged are re-applied idempotently), and a lost
/// heartbeat merely widens the next one instead of wedging convergence.
/// Base 0 predates every emission, so a base-0 view is the sender's
/// whole view — what Algorithm 4 (line 17) gossips, and what a receiver
/// that acknowledged nothing gets. A link the sender learned in the
/// window is one of its entries, so `Λ_k` grows by the same frames: the
/// sender's `Λ_k` is its link keys (plus the sender itself, the endpoint
/// of the link the view crosses), with no field of its own.
///
/// Estimates are stored as *sorted vectors* so receivers can merge-join
/// them against their own mirrors in linear time. Each entry is an
/// [`Offer`] held by value — the posterior's two counts, the distortion
/// and the taint marker, 16 bytes in all — so refreshing an entry of the
/// sender's cached base-0 view, or copying it into a per-neighbor view,
/// allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// The sender's emission counter at this emission. Receivers echo the
    /// last merged generation back to the sender (piggybacked on their
    /// own heartbeats), anchoring the base of its future views to them.
    pub generation: u64,
    /// The acknowledged generation this view extends: entries changed in
    /// `(base, generation]` are included; 0 = all of them.
    pub base: u64,
    /// Process estimates, sorted by process id.
    pub processes: Vec<(ProcessId, Offer)>,
    /// Link estimates, sorted by link id.
    pub links: Vec<(LinkId, Offer)>,
}

impl View {
    /// Looks up the offered estimate for a process (binary search).
    pub fn process_offer(&self, p: ProcessId) -> Option<&Offer> {
        self.processes
            .binary_search_by_key(&p, |(id, _)| *id)
            .ok()
            .map(|i| &self.processes[i].1)
    }

    /// Looks up the offered estimate for a link (binary search).
    pub fn link_offer(&self, l: LinkId) -> Option<&Offer> {
        self.links
            .binary_search_by_key(&l, |(id, _)| *id)
            .ok()
            .map(|i| &self.links[i].1)
    }

    /// Encoded size in bytes of the heartbeat frame that carries this
    /// view: the frame header, the generation and base, and the entries.
    /// The paper reports 50 KB heartbeats for 100 processes with
    /// `U = 100`, for belief vectors; an entry here is two counts.
    pub fn wire_size(&self) -> usize {
        HEARTBEAT_HEADER + 16 + entries_size(self.processes.len(), self.links.len())
    }
}

/// Encoded bytes of a heartbeat frame's header: version and tag, one
/// byte each, then the sequence number and the ack, eight each.
const HEARTBEAT_HEADER: usize = 18;

/// Encoded bytes of one offer: the distortion tag, the distortion, the
/// failure count and the success count.
const OFFER_BYTES: usize = 13;

/// Encoded bytes of a frame's two entry lists, each a count followed by
/// `(key, offer)` pairs: a process key is one id, a link key two.
fn entries_size(processes: usize, links: usize) -> usize {
    4 + processes * (4 + OFFER_BYTES) + 4 + links * (8 + OFFER_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_bayes::{Distortion, Estimate};
    use diffuse_model::Probability;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn diamond_knowledge() -> NetworkKnowledge {
        // 0-1, 0-2, 1-3, 2-3 with one bad path.
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_link(p(0), p(2)).unwrap();
        g.add_link(p(1), p(3)).unwrap();
        g.add_link(p(2), p(3)).unwrap();
        let mut c = Configuration::uniform(&g, Probability::ZERO, Probability::new(0.05).unwrap());
        c.set_loss(
            LinkId::new(p(2), p(3)).unwrap(),
            Probability::new(0.6).unwrap(),
        );
        NetworkKnowledge::exact(g, c)
    }

    #[test]
    fn a_clone_shares_the_topology_and_configuration() {
        let k = diamond_knowledge();
        let clone = k.clone();
        assert!(std::ptr::eq(clone.topology(), k.topology()));
        assert!(std::ptr::eq(clone.config(), k.config()));
        assert_eq!(clone, k);
    }

    /// One index per knowledge: a clone taken before the first tree and
    /// one taken after it both build on the index the first tree built.
    #[test]
    fn a_clone_reuses_the_index() {
        let k = diamond_knowledge();
        let early = k.clone();
        early.reliability_tree(p(3)).unwrap();
        let late = k.clone();
        assert!(std::ptr::eq(early.index(), k.index()));
        assert!(std::ptr::eq(late.index(), k.index()));
        assert_eq!(
            late.reliability_tree(p(0)).unwrap(),
            NetworkKnowledge::exact(k.topology().clone(), k.config().clone())
                .reliability_tree(p(0))
                .unwrap()
        );
    }

    /// `a == b` with every λ compared by its bits.
    fn assert_bit_equal(a: &ReliabilityTree, b: &ReliabilityTree, what: &str) {
        assert_eq!(a, b, "{what}");
        let bits =
            |t: &ReliabilityTree| t.lambdas().iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}");
    }

    #[test]
    fn reliability_tree_prefers_good_paths() {
        let k = diamond_knowledge();
        let tree = k.reliability_tree(p(0)).unwrap();
        assert_eq!(tree.root(), p(0));
        // p3 must be reached through p1, not the 60%-loss link from p2.
        assert_eq!(tree.parent(p(3)), Some(p(1)));
    }

    /// Every tree a broadcaster builds is already in the canonical order
    /// a receiver demands: its parts come back through `from_parts`
    /// unchanged, from every root, on tie-heavy uniform loss and on mixed
    /// loss, on dense ids and on relabelled sparse ones. A second tree
    /// from each root, built on the index the first pass left behind,
    /// is the tree of a fresh knowledge and the map-labelled
    /// `maximum_reliability_tree`, λ bits included.
    #[test]
    fn every_built_tree_round_trips_its_parts() {
        use crate::tree::spec;
        use diffuse_graph::{generators, maximum_reliability_tree};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let mut pi: Vec<u32> = (0..50).collect();
        pi.shuffle(&mut rng);
        let mut relabelled = Topology::new();
        for link in generators::circulant(50, 4).unwrap().links() {
            let (a, b) = link.endpoints();
            let label = |q: ProcessId| p(7 + 3 * pi[q.as_usize()]);
            relabelled.add_link(label(a), label(b)).unwrap();
        }
        let mut singleton = Topology::new();
        singleton.add_process(p(5));
        let topologies = [
            generators::ring(30).unwrap(),
            generators::circulant(100, 4).unwrap(),
            generators::erdos_renyi_connected(60, 0.1, 64, &mut rng).unwrap(),
            relabelled,
            singleton,
        ];
        for topology in topologies {
            let uniform = Configuration::uniform(
                &topology,
                Probability::ZERO,
                Probability::new(0.05).unwrap(),
            );
            let mut mixed = uniform.clone();
            for link in topology.links() {
                let loss = [0.01, 0.05, 0.2][rng.gen_range(0..3usize)];
                mixed.set_loss(link, Probability::new(loss).unwrap());
            }
            for config in [uniform, mixed] {
                let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
                for root in topology.processes() {
                    let tree = knowledge.reliability_tree(root).unwrap();
                    let (r, nodes, parent, lambda) = tree.parts();
                    let back = ReliabilityTree::from_parts(
                        r,
                        nodes.to_vec(),
                        parent.to_vec(),
                        lambda.to_vec(),
                    );
                    assert_eq!(back, Ok(tree.clone()), "root {root:?}");
                }
                for root in topology.processes() {
                    let warm = knowledge.reliability_tree(root).unwrap();
                    let fresh = NetworkKnowledge::exact(topology.clone(), config.clone())
                        .reliability_tree(root)
                        .unwrap();
                    let mrt = maximum_reliability_tree(&topology, &config, root).unwrap();
                    let oracle = spec::from_spanning_tree(&mrt, &config);
                    assert_bit_equal(&warm, &fresh, &format!("fresh, root {root:?}"));
                    assert_bit_equal(&warm, &oracle, &format!("oracle, root {root:?}"));
                }
            }
        }
    }

    #[test]
    fn broadcast_plan_meets_target() {
        let k = diamond_knowledge();
        let (tree, plan) = k.broadcast_plan(p(0), 0.999).unwrap();
        assert_eq!(tree.link_count(), 3);
        assert!(plan.reach() >= 0.999);
        assert!(plan.total_messages() >= 3);
    }

    #[test]
    fn disconnected_knowledge_is_incomplete() {
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_process(p(2));
        let k = NetworkKnowledge::exact(g, Configuration::new());
        assert!(matches!(
            k.reliability_tree(p(0)),
            Err(CoreError::KnowledgeIncomplete)
        ));
        assert!(matches!(
            k.broadcast_plan(p(9), 0.9),
            Err(CoreError::KnowledgeIncomplete)
        ));
    }

    #[test]
    fn view_lookup_and_size() {
        let link = LinkId::new(p(0), p(1)).unwrap();
        let view = View {
            generation: 7,
            base: 5,
            processes: vec![
                (p(0), Estimate::first_hand(10).offer()),
                (p(1), Estimate::unknown(10).offer()),
            ],
            links: vec![(link, Estimate::first_hand(10).offer())],
        };
        assert_eq!(
            view.process_offer(p(0)).unwrap().distortion(),
            Distortion::ZERO
        );
        assert!(view.process_offer(p(9)).is_none());
        assert!(view.link_offer(link).is_some());
        assert!(view.link_offer(LinkId::new(p(1), p(2)).unwrap()).is_none());
        // Header 18, generation and base 16, two process entries and one
        // link entry.
        assert_eq!(view.wire_size(), 18 + 16 + 4 + 2 * 17 + 4 + 21);
    }
}
