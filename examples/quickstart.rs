//! Quickstart: build a topology, compute the Maximum Reliability Tree,
//! derive the optimal per-link message counts, and run one scripted
//! broadcast [`Scenario`](diffuse::core::Scenario) on the deterministic
//! simulator.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use diffuse::core::scenario::{Scenario, Workload};
use diffuse::core::{optimize, NetworkKnowledge, OptimalBroadcast, Payload};
use diffuse::graph::{generators, maximum_reliability_tree_in};
use diffuse::model::{Configuration, LinkId, NetworkIndex, Probability, ProcessId};
use diffuse::sim::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-process ring with an extra chord, 2% loss everywhere except
    // one terrible link.
    let mut topology = generators::ring(16)?;
    topology.add_link(ProcessId::new(0), ProcessId::new(8))?;
    let mut config =
        Configuration::uniform(&topology, Probability::new(0.01)?, Probability::new(0.02)?);
    let bad = LinkId::new(ProcessId::new(3), ProcessId::new(4))?;
    config.set_loss(bad, Probability::new(0.65)?);

    // 1. The MRT routes around the bad link. The position index of
    //    (G, C) answers every root; this example asks it for one.
    let root = ProcessId::new(0);
    let index = NetworkIndex::new(&topology, &config);
    let mrt = maximum_reliability_tree_in(&index, root)?;
    assert!(mrt.edges().all(|(u, v)| LinkId::new(u, v).unwrap() != bad));
    println!("MRT has {} links (bad link avoided)", mrt.link_count());

    // 2. optimize() finds the cheapest copies-per-link plan for K = 0.9999.
    let tree = diffuse::core::ReliabilityTree::from_spanning_tree(&mrt, &index);
    let plan = optimize(&tree, 0.9999)?;
    println!(
        "plan: {} total messages, reach = {:.6}",
        plan.total_messages(),
        plan.reach()
    );

    // 3. Run a real broadcast through the lossy simulator, described as
    //    a Scenario: the same value would run unchanged on the
    //    multi-threaded fabric via `diffuse::net::run_scenario_on_fabric`.
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
    let scenario = Scenario::builder(topology.clone())
        .config(config)
        .seed(2026)
        .workload(Workload::new().broadcast(
            SimTime::ZERO,
            root,
            Payload::from("hello, unreliable world"),
        ))
        .build();
    let report = scenario.run_sim(30, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
    });

    let reached = report.delivered.values().filter(|&&d| d > 0).count();
    let metrics = report.metrics.expect("kernel runs carry metrics");
    println!(
        "delivered at {reached}/{} processes with {} data messages ({} lost in links)",
        topology.process_count(),
        metrics.sent_of_kind("data"),
        metrics.lost_in_link(),
    );
    Ok(())
}
