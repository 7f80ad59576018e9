//! The paper's primary contribution: optimal and adaptive probabilistic
//! reliable broadcast.
//!
//! This crate implements Sections 3–4 of *An Adaptive Algorithm for
//! Efficient Message Diffusion in Unreliable Environments* (Garbinato,
//! Pedone, Schmidt — DSN 2004):
//!
//! * [`reach`] / [`reach_recursive`] — the probability that every process
//!   in a tree receives at least one message copy (Eq. 1 / Eq. 2);
//! * [`optimize`] — the provably optimal assignment of per-link message
//!   counts meeting a target reliability `K` (Algorithm 2), computed by
//!   an `O(L log L)` closed-form waterfilling solver
//!   ([`optimize_waterfill`]) that is bit-identical to the paper's
//!   increment-at-a-time greedy (kept as a test-only reference); plus the
//!   budget-constrained dual [`optimize_budget`] /
//!   [`optimize_budget_waterfill`] (Eq. 5);
//! * [`OptimalBroadcast`] — Algorithm 1, broadcast along the Maximum
//!   Reliability Tree with exact knowledge;
//! * [`AdaptiveBroadcast`] — Algorithms 3–5, the same broadcast activity
//!   fed by continuously approximated knowledge (heartbeats, Bayesian
//!   estimators, distortion factors);
//! * [`ReferenceGossip`] — Section 5's baseline: step-based flooding
//!   gossip with ACK suppression;
//! * [`analysis`] — the closed-form two-path analysis behind Figure 1.
//!
//! All protocols implement the sans-io [`Protocol`] trait and run
//! unchanged on the deterministic simulator (`diffuse-sim`, via
//! [`ProtocolActor`]) or a real transport (`diffuse-net`).
//!
//! # Example
//!
//! ```
//! use diffuse_core::{optimize, reach, MessageVector, ReliabilityTree};
//! use diffuse_model::ProcessId;
//!
//! # fn main() -> Result<(), diffuse_core::CoreError> {
//! // A two-link chain: root → p1 (λ=0.2) → p2 (λ=0.05).
//! let tree = ReliabilityTree::from_parts(
//!     ProcessId::new(0),
//!     vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)],
//!     vec![0, 1],
//!     vec![0.2, 0.05],
//! )?;
//!
//! // One copy per link reaches everyone with probability 0.76.
//! let base = reach(&tree, &MessageVector::ones(2));
//! assert!((base - 0.8 * 0.95).abs() < 1e-12);
//!
//! // The optimizer finds the cheapest plan for 99.9%.
//! let plan = optimize(&tree, 0.999)?;
//! assert!(plan.reach() >= 0.999);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod adaptive;
pub mod adversary;
pub mod analysis;
mod error;
mod gossip;
mod knowledge;
mod optimal;
mod optimize;
mod params;
mod protocol;
mod reach;
pub mod scenario;
mod tree;
mod waterfill;

pub use adaptive::AdaptiveBroadcast;
pub use adversary::{Adversary, Containment, CorruptionMode, ProtocolAudit, SenderAudit};
pub use diffuse_sim::{TimerId, TimerOp};
pub use error::CoreError;
pub use gossip::ReferenceGossip;
pub use knowledge::{NetworkKnowledge, View};
pub use optimal::OptimalBroadcast;
pub use optimize::{gain, optimize, optimize_budget, MessagePlan};
pub use params::{AdaptiveParams, DEFAULT_EVIDENCE_BATCH};
pub use protocol::{
    Actions, BroadcastId, DataMessage, Event, GossipMessage, HeartbeatMessage, InProcess, Message,
    Payload, Protocol, ProtocolActor, SelfTimed, Wire,
};
pub use reach::{link_success, pow_det, reach, reach_recursive, MessageVector};
pub use scenario::{
    BroadcastOutcome, FaultAction, FaultScript, FaultSink, Scenario, ScenarioBuilder,
    ScenarioReport, ScenarioSim, ShardedScenarioSim, Workload, WorkloadEvent,
};
pub use tree::{ReliabilityTree, SharedWireTree};
pub use waterfill::{optimize_budget_waterfill, optimize_waterfill};

/// Shared fixtures for the crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use diffuse_model::ProcessId;

    use crate::ReliabilityTree;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// A chain `0 → 1 → 2 → …` with the given λ per consecutive link.
    pub fn chain_tree(lambdas: &[f64]) -> ReliabilityTree {
        let n = lambdas.len();
        let nodes: Vec<ProcessId> = (0..=n as u32).map(p).collect();
        let parent: Vec<u32> = (0..n as u32).collect();
        ReliabilityTree::from_parts(p(0), nodes, parent, lambdas.to_vec()).expect("valid chain")
    }

    /// A star: root `0` with one leaf per λ.
    pub fn star_tree(lambdas: &[f64]) -> ReliabilityTree {
        let n = lambdas.len();
        let nodes: Vec<ProcessId> = (0..=n as u32).map(p).collect();
        let parent: Vec<u32> = vec![0; n];
        ReliabilityTree::from_parts(p(0), nodes, parent, lambdas.to_vec()).expect("valid star")
    }

    /// A mixed-shape tree: `0 → {1, 2}`, `1 → {3, 4}`, `2 → {5}`.
    pub fn tree_with_lambdas() -> ReliabilityTree {
        let nodes: Vec<ProcessId> = (0..6u32).map(p).collect();
        let parent = vec![0, 0, 1, 1, 2];
        let lambdas = vec![0.1, 0.3, 0.2, 0.05, 0.4];
        ReliabilityTree::from_parts(p(0), nodes, parent, lambdas).expect("valid tree")
    }

    /// A single-process tree (no links).
    pub fn singleton_tree() -> ReliabilityTree {
        ReliabilityTree::from_parts(p(0), vec![p(0)], vec![], vec![]).expect("valid singleton")
    }
}

#[cfg(test)]
mod property_tests {
    use super::optimize::spec::{optimize_budget_greedy, optimize_exhaustive, optimize_greedy};
    use super::tests_support::*;
    use super::*;
    use proptest::prelude::*;

    fn arb_lambdas() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0.0f64..0.95, 1..8)
    }

    proptest! {
        /// Eq. 1 == Eq. 2 on random chains and stars with random counts.
        #[test]
        fn prop_recursive_equals_iterative(
            lambdas in arb_lambdas(),
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for tree in [chain_tree(&lambdas), star_tree(&lambdas)] {
                let counts: Vec<u32> =
                    (0..tree.link_count()).map(|_| rng.gen_range(1..5)).collect();
                let m = MessageVector::from_counts(counts);
                let a = reach(&tree, &m);
                let b = reach_recursive(&tree, &m, tree.root());
                prop_assert!((a - b).abs() < 1e-12);
            }
        }

        /// The optimizer always meets its target (when it succeeds) and
        /// never assigns zero messages to a link.
        #[test]
        fn prop_optimize_meets_target(
            lambdas in arb_lambdas(),
            k in 0.5f64..0.9999,
        ) {
            let tree = chain_tree(&lambdas);
            let plan = optimize(&tree, k).unwrap();
            prop_assert!(plan.reach() >= k - 1e-9);
            prop_assert!(plan.vector().counts().iter().all(|&c| c >= 1));
        }

        /// Removing one message from any link of an optimal plan drops
        /// the reach below the target — no message is wasted.
        #[test]
        fn prop_optimize_is_tight(
            lambdas in proptest::collection::vec(0.05f64..0.9, 1..6),
            k in 0.6f64..0.999,
        ) {
            let tree = chain_tree(&lambdas);
            let plan = optimize(&tree, k).unwrap();
            for j in 0..tree.link_count() {
                if plan.count(j) > 1 {
                    let mut counts = plan.vector().counts().to_vec();
                    counts[j] -= 1;
                    let reduced = reach(&tree, &MessageVector::from_counts(counts));
                    prop_assert!(
                        reduced < k,
                        "removing a message from link {} kept reach {} >= {}",
                        j, reduced, k
                    );
                }
            }
        }

        /// Greedy equals the exhaustive oracle on small random trees.
        #[test]
        fn prop_greedy_is_optimal(
            lambdas in proptest::collection::vec(0.1f64..0.6, 1..4),
            k in 0.5f64..0.99,
        ) {
            let tree = star_tree(&lambdas);
            let greedy = optimize(&tree, k).unwrap();
            // Worst case here: λ=0.6, k=0.99 over 3 links needs ~12 copies.
            let oracle = optimize_exhaustive(&tree, k, 12).unwrap();
            prop_assert_eq!(greedy.total_messages(), oracle.total_messages());
        }

        /// The budget dual with the primal's budget reaches the primal's
        /// target.
        #[test]
        fn prop_duality(
            lambdas in proptest::collection::vec(0.05f64..0.8, 1..6),
            k in 0.5f64..0.999,
        ) {
            let tree = chain_tree(&lambdas);
            let primal = optimize(&tree, k).unwrap();
            let dual = optimize_budget(&tree, primal.total_messages()).unwrap();
            prop_assert!(dual.reach() >= k - 1e-12);
        }

        /// The waterfilling solver is bit-identical to the reference
        /// greedy — counts *and* reach — on random tree shapes across
        /// the full λ range and the paper's reliability targets.
        /// Determinism of the plan bytes is a protocol requirement:
        /// every receiver of a wire tree re-derives the sender's plan.
        #[test]
        fn prop_waterfill_is_bit_identical_to_greedy(
            lambdas in proptest::collection::vec(0.0f64..0.99, 1..10),
            shape_seed in any::<u64>(),
            k_pick in 0usize..3,
        ) {
            let k = [0.9, 0.999, 0.999999][k_pick];
            let tree = random_shape_tree(&lambdas, shape_seed);
            let fast = optimize_waterfill(&tree, k).unwrap();
            let slow = optimize_greedy(&tree, k).unwrap();
            prop_assert_eq!(fast.vector().counts(), slow.vector().counts());
            prop_assert_eq!(fast.reach().to_bits(), slow.reach().to_bits());
            // The public entry point rides the fast path.
            prop_assert_eq!(&optimize(&tree, k).unwrap(), &slow);
        }

        /// The plateau regime: λ → 1 with deep reliability targets,
        /// where consecutive gains round to the same `f64`. The
        /// class-cursor tail drills plateaus directly (no heap
        /// fallback), so it must still match the reference greedy bit
        /// for bit.
        #[test]
        fn prop_waterfill_plateau_regime_is_bit_identical(
            lambdas in proptest::collection::vec(0.9f64..0.99, 1..4),
            shape_seed in any::<u64>(),
            k_pick in 0usize..2,
        ) {
            let k = [0.99999, 0.9999999][k_pick];
            let tree = random_shape_tree(&lambdas, shape_seed);
            let fast = optimize_waterfill(&tree, k).unwrap();
            let slow = optimize_greedy(&tree, k).unwrap();
            prop_assert_eq!(fast.vector().counts(), slow.vector().counts());
            prop_assert_eq!(fast.reach().to_bits(), slow.reach().to_bits());
        }

        /// Budget-dual bit-identity on random shapes and budgets.
        #[test]
        fn prop_budget_waterfill_is_bit_identical_to_greedy(
            lambdas in proptest::collection::vec(0.0f64..0.99, 1..10),
            shape_seed in any::<u64>(),
            extra in 0u64..3000,
        ) {
            let tree = random_shape_tree(&lambdas, shape_seed);
            let budget = tree.link_count() as u64 + extra;
            let fast = optimize_budget_waterfill(&tree, budget).unwrap();
            let slow = optimize_budget_greedy(&tree, budget).unwrap();
            prop_assert_eq!(fast.vector().counts(), slow.vector().counts());
            prop_assert_eq!(fast.reach().to_bits(), slow.reach().to_bits());
            prop_assert_eq!(&optimize_budget(&tree, budget).unwrap(), &slow);
        }

        /// The cached MessageVector total always equals the fresh sum,
        /// through arbitrary construction + increment sequences.
        #[test]
        fn prop_message_vector_total_stays_cached(
            counts in proptest::collection::vec(1u32..50, 1..12),
            increment_seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut m = MessageVector::from_counts(counts);
            let mut rng = rand::rngs::StdRng::seed_from_u64(increment_seed);
            for _ in 0..64 {
                let j = rng.gen_range(0..m.len());
                m.increment(j);
                let fresh: u64 = m.counts().iter().map(|&c| c as u64).sum();
                prop_assert_eq!(m.total(), fresh);
            }
        }
    }

    /// A random tree over `lambdas.len() + 1` processes: node `i + 1`
    /// hangs off a node at a uniformly drawn earlier position, the draws
    /// sorted into canonical BFS order. Sorting keeps every draw at or
    /// before its own position and reaches every shape — chains, stars
    /// and everything between.
    fn random_shape_tree(lambdas: &[f64], seed: u64) -> ReliabilityTree {
        use diffuse_model::ProcessId;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = lambdas.len();
        let nodes: Vec<ProcessId> = (0..=n as u32).map(ProcessId::new).collect();
        let mut parent: Vec<u32> = (0..n as u32).map(|i| rng.gen_range(0..=i)).collect();
        parent.sort_unstable();
        ReliabilityTree::from_parts(ProcessId::new(0), nodes, parent, lambdas.to_vec())
            .expect("valid random tree")
    }
}
