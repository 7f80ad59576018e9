//! Two substrates, one truth: the same scenario — partition, forced
//! crash, heal — run on the deterministic simulation kernel and on the
//! *virtual-time fabric* — the same kernel with every message encoded
//! where it is sent and decoded where it arrives — producing
//! bit-identical reports.
//!
//! The fabric run has the kernel's tick engine under it (same phase
//! order, same RNG streams) and bytes in flight instead of shared
//! values, so it is a pure function of `(scenario, seed)`: no sleeps, no
//! settle margins, no flaky assertions — running it twice gives you the
//! same bytes, and equality with the kernel says the wire codec is
//! invisible to the protocol.
//!
//! ```text
//! cargo run --release --example deterministic_fabric
//! ```

use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, Workload};
use diffuse::core::{NetworkKnowledge, OptimalBroadcast, Payload};
use diffuse::graph::generators;
use diffuse::model::{Configuration, Probability, ProcessId};
use diffuse::net::run_scenario_on_fabric_virtual;
use diffuse::sim::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = generators::circulant(8, 4)?;
    let config = Configuration::uniform(&topology, Probability::ZERO, Probability::new(0.05)?);
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());

    // Broadcasts before the cut, inside it, and after the heal; an
    // island partition at tick 40, a 30-tick forced crash of p5 at
    // tick 50, the heal at tick 100.
    let island: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
    let scenario = Scenario::builder(topology)
        .config(config)
        .seed(0xD1CE)
        .workload(
            Workload::new()
                .broadcast(SimTime::new(2), ProcessId::new(0), Payload::from("pre-cut"))
                .broadcast(
                    SimTime::new(60),
                    ProcessId::new(6),
                    Payload::from("mid-cut"),
                )
                .broadcast(
                    SimTime::new(130),
                    ProcessId::new(3),
                    Payload::from("post-heal"),
                ),
        )
        .faults(
            FaultScript::new()
                .at(SimTime::new(40), FaultAction::Partition { island })
                .at(
                    SimTime::new(50),
                    FaultAction::Crash {
                        process: ProcessId::new(5),
                        down_ticks: 30,
                    },
                )
                .at(SimTime::new(100), FaultAction::Heal),
        )
        .build();

    let horizon = 180;
    let kernel = scenario.run_sim(horizon, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
    });
    let fabric = run_scenario_on_fabric_virtual(&scenario, horizon, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
    });
    let fabric_again = run_scenario_on_fabric_virtual(&scenario, horizon, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
    });

    println!("deliveries per process (kernel == fabric):");
    for (id, count) in &kernel.delivered {
        println!(
            "  {id}: kernel {count:2}  fabric {:2}",
            fabric.delivered[id]
        );
    }
    let metrics = kernel.metrics.as_ref().expect("kernel metrics");
    println!(
        "wire totals: sent {}, delivered {}, lost {}, dropped at crashed receivers {}",
        metrics.sent_total(),
        metrics.delivered_total(),
        metrics.lost_in_link(),
        metrics.dropped_receiver_down(),
    );

    assert_eq!(kernel, fabric, "substrates must agree field for field");
    assert_eq!(
        format!("{fabric:?}"),
        format!("{fabric_again:?}"),
        "virtual-time runs must be byte-identical"
    );
    println!("kernel == fabric run 1 == fabric run 2: reports are bit-identical");
    Ok(())
}
