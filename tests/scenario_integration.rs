//! Integration tests for the unified `Scenario` layer: scripted
//! workloads and fault scripts running identically on the simulation
//! kernel and on the in-memory fabric.

use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, Workload};
use diffuse::core::{
    AdaptiveBroadcast, AdaptiveParams, NetworkKnowledge, OptimalBroadcast, Payload, ReferenceGossip,
};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId};
use diffuse::net::run_scenario_on_fabric_virtual;
use diffuse::sim::SimTime;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// One scenario value — loss spike, heal, broadcasts before and after —
/// runs unchanged on both substrates with *exact* agreement.
///
/// Until the virtual-time fabric landed, this test ran on the wall
/// clock: the spike window needed wide margins around both broadcasts
/// (command-poll latency plus scheduler jitter) and an 80 ms settle
/// sleep, and only the delivery counts could be compared. Under virtual
/// time the spike boundaries are exact ticks, there is no settle slack,
/// and the whole report — including wire metrics — must be equal.
#[test]
fn loss_spike_scenario_runs_on_kernel_and_fabric() {
    let topology = generators::circulant(8, 4).unwrap();
    let config = Configuration::new();
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
    let scenario = Scenario::builder(topology.clone())
        .config(config)
        .seed(0x0FAB)
        .workload(
            Workload::new()
                .broadcast(SimTime::new(2), p(0), Payload::from("before"))
                // Issued at *exactly* the heal tick: faults apply before
                // broadcasts at equal times on every substrate, so this
                // one rides the healed links — an assertion only exact
                // virtual timing can make.
                .broadcast(SimTime::new(70), p(3), Payload::from("after")),
        )
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(45),
                    FaultAction::DegradeAll {
                        loss: Probability::new(0.9).unwrap(),
                    },
                )
                .at(SimTime::new(70), FaultAction::Heal),
        )
        .build();

    // Substrate 1: deterministic kernel.
    let sim_report = scenario.run_sim(160, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
    });
    assert!(
        sim_report.all_delivered_at_least(2),
        "kernel run: {sim_report:?}"
    );
    assert_eq!(sim_report.failed_broadcasts, 0);

    // Substrate 2: the same scenario value on the fabric under the
    // virtual clock. No margins, no settle: the report must be equal
    // field for field.
    let fabric_report = run_scenario_on_fabric_virtual(&scenario, 160, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
    });
    assert_eq!(sim_report, fabric_report);

    assert_eq!(fabric_report.skipped_faults, 0);
    assert!(
        fabric_report.metrics.as_ref().unwrap().sent_total() > 0,
        "{fabric_report:?}"
    );
}

/// The satellite requirement: a partition-then-heal fault script, after
/// which the adaptive protocol *re-converges* — the estimated loss of a
/// cut link rises during the partition and returns below threshold
/// after the heal event.
#[test]
fn partition_then_heal_reconverges_the_adaptive_estimates() {
    let topology = generators::ring(8).unwrap();
    let all: Vec<ProcessId> = topology.processes().collect();
    // Fewer Bayesian intervals -> coarser, faster-moving posteriors, so
    // the test converges in a CI-friendly number of ticks.
    let params = AdaptiveParams::default().with_intervals(20);
    let island: Vec<ProcessId> = (0..4).map(p).collect();
    let cut = LinkId::new(p(0), p(7)).unwrap(); // straddles the boundary

    let scenario = Scenario::builder(topology.clone())
        .uniform_loss(Probability::new(0.01).unwrap())
        .seed(0x9EA1)
        .faults(
            FaultScript::new()
                .at(SimTime::new(200), FaultAction::Partition { island })
                .at(SimTime::new(400), FaultAction::Heal),
        )
        .build();

    let topo = topology.clone();
    let mut run = scenario.sim(move |id| {
        AdaptiveBroadcast::new(
            id,
            all.clone(),
            topo.neighbors(id).collect(),
            params.clone(),
        )
    });
    let estimate = |run: &diffuse::core::ScenarioSim<AdaptiveBroadcast>| {
        run.sim()
            .node(p(0))
            .unwrap()
            .protocol()
            .estimated_loss(cut)
            .unwrap()
            .value()
    };

    run.run_ticks(200);
    let healthy = estimate(&run);
    assert!(healthy < 0.1, "healthy estimate {healthy}");

    run.run_ticks(200); // the partition window
    let during = estimate(&run);
    assert!(
        during > healthy + 0.2,
        "partition must degrade the cut-link estimate ({healthy} → {during})"
    );

    // After the heal, run until the estimate drops back below threshold.
    let threshold = 0.1;
    let reconverged = run.run_until_every(
        |sim| {
            sim.node(p(0))
                .unwrap()
                .protocol()
                .estimated_loss(cut)
                .is_some_and(|e| e.value() < threshold)
        },
        25,
        6_000,
    );
    assert!(
        reconverged.is_some(),
        "estimate must return below {threshold} after the heal \
         (stuck at {})",
        estimate(&run)
    );
}

/// A multi-origin streamed workload keeps delivering through a scripted
/// loss spike (gossip rides out the 30% window via redundancy).
#[test]
fn multi_origin_stream_survives_loss_spike() {
    let topology = generators::circulant(10, 4).unwrap();
    let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
    let scenario = Scenario::builder(topology.clone())
        .seed(21)
        .workload(Workload::new().stream(p(0), SimTime::new(2), 30, 3).stream(
            p(5),
            SimTime::new(17),
            30,
            3,
        ))
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(30),
                    FaultAction::DegradeAll {
                        loss: Probability::new(0.3).unwrap(),
                    },
                )
                .at(SimTime::new(70), FaultAction::Heal),
        )
        .build();
    let report = scenario.run_sim(140, |id| ReferenceGossip::new(id, neighbors(id), 10));
    assert_eq!(report.failed_broadcasts, 0);
    assert!(
        report.all_delivered_at_least(6),
        "all six streamed broadcasts should reach everyone: {report:?}"
    );
}
