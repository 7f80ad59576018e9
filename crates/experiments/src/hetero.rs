//! Extension experiment (paper §7 future work): heterogeneous failure
//! probabilities.
//!
//! The paper's evaluation deliberately uses *uniform* probabilities,
//! "counting against" the adaptive algorithm, and conjectures larger
//! gains under heterogeneity. This experiment checks that conjecture on a
//! two-zone LAN/WAN topology: complete clusters with near-perfect links,
//! bridged by a few wide-area links of varying quality.

use diffuse_core::NetworkKnowledge;
use diffuse_graph::generators;
use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};

use crate::fig4::TARGET_RELIABILITY;
use crate::harness::gossip_message_stats_config;
use crate::table::{fmt, Table};
use crate::Effort;

/// Cluster size of the two-zone topology (total 2× this many processes).
pub const CLUSTER_SIZE: u32 = 10;

/// Number of parallel wide-area bridges.
pub const BRIDGES: u32 = 3;

/// Builds the two-zone topology with per-class loss probabilities: LAN
/// links lose `lan_loss`, the first bridge loses `good_wan_loss`, the
/// remaining bridges lose `bad_wan_loss`.
pub fn two_zone_config(
    lan_loss: f64,
    good_wan_loss: f64,
    bad_wan_loss: f64,
) -> (Topology, Configuration) {
    let topology = generators::two_zone(CLUSTER_SIZE, BRIDGES).expect("valid two-zone");
    let mut config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(lan_loss).expect("valid"),
    );
    for b in 0..BRIDGES {
        let link = LinkId::new(ProcessId::new(b), ProcessId::new(CLUSTER_SIZE + b))
            .expect("bridge endpoints differ");
        let loss = if b == 0 { good_wan_loss } else { bad_wan_loss };
        config.set_loss(link, Probability::new(loss).expect("valid"));
    }
    (topology, config)
}

/// One row of the heterogeneity experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroPoint {
    /// The bad-bridge loss probability (the heterogeneity knob).
    pub bad_wan_loss: f64,
    /// Optimal (adaptive, converged) messages per broadcast.
    pub optimal_messages: u64,
    /// Mean reference data messages per broadcast.
    pub reference_messages: f64,
    /// reference / optimal.
    pub ratio: f64,
}

/// The fixed gossip step budget used across the whole sweep.
///
/// Held constant so that the sweep varies *only* the environment: per-point
/// Monte-Carlo calibration is a coin flip between adjacent budgets near
/// the threshold, and the resulting ±1-step jumps in flood volume dwarf
/// the heterogeneity signal. Four steps reach every process on the
/// two-zone topology with large margin at every sweep point (the origin
/// sits on the always-good bridge).
pub const GOSSIP_STEP_BUDGET: u32 = 4;

/// Measures the reference/optimal ratio for one bad-bridge loss value.
pub fn measure_point(bad_wan_loss: f64, effort: &Effort) -> HeteroPoint {
    let (topology, config) = two_zone_config(0.001, 0.02, bad_wan_loss);
    // The gossip side reads the same (G, C) the knowledge holds.
    let knowledge = NetworkKnowledge::exact(topology, config);
    let (topology, config) = (knowledge.topology(), knowledge.config());
    let origin = topology.processes().next().expect("non-empty");
    let (_, plan) = knowledge
        .broadcast_plan(origin, TARGET_RELIABILITY)
        .expect("optimizable");
    let optimal_messages = plan.total_messages();

    // The reference gossip ignores reliability differences in its
    // *decisions* (it floods uniformly), but it runs on the real,
    // heterogeneous network: bad bridges eat data copies and ACKs alike,
    // so bridge endpoints keep retrying their unacknowledged partners
    // round after round and the message bill grows as the bridges
    // degrade. (The adaptive side routes around them instead.)
    let seed = effort.seed ^ (bad_wan_loss * 1e4) as u64;
    let (reference_stats, _) = gossip_message_stats_config(
        topology,
        config,
        Probability::ZERO,
        GOSSIP_STEP_BUDGET,
        effort.gossip_runs,
        seed ^ 0x77,
    );
    let reference_messages = reference_stats.mean;
    HeteroPoint {
        bad_wan_loss,
        optimal_messages,
        reference_messages,
        ratio: reference_messages / optimal_messages as f64,
    }
}

/// Sweep of bad-bridge loss probabilities.
pub const HETERO_SERIES: [f64; 4] = [0.02, 0.1, 0.3, 0.5];

/// Regenerates the heterogeneity extension table.
pub fn run(effort: &Effort) -> Table {
    let mut table = Table::new(
        "Extension — heterogeneous WAN losses (two-zone LAN/WAN, 20 processes)",
        &["bad bridge L", "optimal msgs", "reference msgs", "ratio"],
    );
    for &bad in &HETERO_SERIES {
        let point = measure_point(bad, effort);
        table.push_row(vec![
            fmt(bad),
            point.optimal_messages.to_string(),
            fmt(point.reference_messages),
            fmt(point.ratio),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_routes_around_bad_bridges() {
        // With one good and two bad bridges, the MRT must cross only the
        // good one; the plan's cost should barely grow as the bad bridges
        // degrade.
        let (topo_a, cfg_a) = two_zone_config(0.001, 0.02, 0.1);
        let (topo_b, cfg_b) = two_zone_config(0.001, 0.02, 0.9);
        let origin = topo_a.processes().next().unwrap();
        let plan_a = NetworkKnowledge::exact(topo_a, cfg_a)
            .broadcast_plan(origin, TARGET_RELIABILITY)
            .unwrap()
            .1;
        let plan_b = NetworkKnowledge::exact(topo_b, cfg_b)
            .broadcast_plan(origin, TARGET_RELIABILITY)
            .unwrap()
            .1;
        assert_eq!(
            plan_a.total_messages(),
            plan_b.total_messages(),
            "bad-bridge quality must not affect the optimal plan"
        );
    }

    #[test]
    fn heterogeneity_increases_the_gain() {
        let effort = Effort {
            gossip_runs: 15,
            ..Effort::quick()
        };
        let mild = measure_point(0.02, &effort);
        let harsh = measure_point(0.5, &effort);
        assert!(
            harsh.ratio > mild.ratio,
            "heterogeneity should widen the gap: {mild:?} vs {harsh:?}"
        );
    }
}
