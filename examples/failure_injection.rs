//! Failure injection as a scripted [`Scenario`]: a link degrades
//! mid-run and the adaptive protocol tracks the change, then routes
//! broadcasts around it.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use diffuse::core::scenario::{FaultAction, FaultScript, Scenario};
use diffuse::core::{AdaptiveBroadcast, AdaptiveParams, ProtocolActor, ScenarioSim};
use diffuse::graph::generators;
use diffuse::model::{LinkId, Probability, ProcessId};
use diffuse::sim::{SimTime, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: u32 = 12;
    let topology = generators::circulant(N, 4)?;
    let all: Vec<ProcessId> = topology.processes().collect();
    let victim = LinkId::new(ProcessId::new(0), ProcessId::new(1))?;

    // The whole experiment is one scenario: a healthy phase, then a
    // scripted 40% loss spike on the victim link at tick 250.
    let scenario = Scenario::builder(topology.clone())
        .uniform_loss(Probability::new(0.01)?)
        .seed(13)
        .faults(FaultScript::new().at(
            SimTime::new(250),
            FaultAction::SetLoss {
                link: victim,
                loss: Probability::new(0.4)?,
            },
        ))
        .build();

    let topo = topology.clone();
    let mut run: ScenarioSim<AdaptiveBroadcast> = scenario.sim(move |id| {
        AdaptiveBroadcast::new(
            id,
            all.clone(),
            topo.neighbors(id).collect(),
            AdaptiveParams::default(),
        )
    });

    let estimate_at_p0 = |sim: &Simulation<ProtocolActor<AdaptiveBroadcast>>| {
        sim.node(ProcessId::new(0))
            .unwrap()
            .protocol()
            .estimated_loss(victim)
            .unwrap()
            .value()
    };

    // Phase 1: healthy network.
    run.run_ticks(250);
    println!(
        "after 250 healthy periods, p0 estimates {victim} at {:.3}",
        estimate_at_p0(run.sim())
    );

    // Phase 2: the scripted fault fires at tick 250; watch the estimate
    // climb toward the new 40% loss rate.
    println!("fault script injects 40% loss on {victim} …");
    for window in 0..6 {
        run.run_ticks(150);
        println!(
            "  +{:>3} periods: estimate {:.3}",
            (window + 1) * 150,
            estimate_at_p0(run.sim())
        );
    }

    let final_estimate = estimate_at_p0(run.sim());
    assert!(
        final_estimate > 0.2,
        "the estimate should have climbed toward 0.4"
    );

    // Phase 3: the learned knowledge steers the MRT away from the victim.
    let node = run.sim().node(ProcessId::new(0)).unwrap().protocol();
    let knowledge = node.knowledge_snapshot();
    let tree = knowledge.reliability_tree(ProcessId::new(0))?;
    let uses_victim = tree
        .edges()
        .any(|(u, v)| LinkId::new(u, v).unwrap() == victim);
    println!(
        "MRT from p0 now {} the degraded link",
        if uses_victim { "still uses" } else { "avoids" }
    );
    Ok(())
}
