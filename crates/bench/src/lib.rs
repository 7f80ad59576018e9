//! Shared fixtures for the `diffuse` Criterion benchmarks.

#![forbid(unsafe_code)]

use diffuse_core::ReliabilityTree;
use diffuse_graph::{generators, maximum_reliability_tree_in};
use diffuse_model::{Configuration, NetworkIndex, Probability, ProcessId, Topology};

/// A standard benchmark fixture: circulant topology with uniform loss.
pub fn fixture(n: u32, connectivity: u32, loss: f64) -> (Topology, Configuration) {
    let topology = generators::circulant(n, connectivity).expect("valid circulant");
    let config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(loss).expect("valid loss"),
    );
    (topology, config)
}

/// The labelled MRT of a fixture, rooted at `p0`.
pub fn fixture_tree(n: u32, connectivity: u32, loss: f64) -> ReliabilityTree {
    let (topology, config) = fixture(n, connectivity, loss);
    let index = NetworkIndex::new(&topology, &config);
    let mrt = maximum_reliability_tree_in(&index, ProcessId::new(0)).expect("connected fixture");
    ReliabilityTree::from_spanning_tree(&mrt, &index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (t, c) = fixture(50, 4, 0.05);
        assert_eq!(t.process_count(), 50);
        assert_eq!(c.loss_count(), t.link_count());
        let tree = fixture_tree(50, 4, 0.05);
        assert_eq!(tree.link_count(), 49);
    }
}
