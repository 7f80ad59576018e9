//! Integration tests for the adaptive protocol: convergence toward the
//! optimal algorithm (the paper's Definition 2), topology learning, and
//! behavior under partitions and healing.

use diffuse::core::{
    AdaptiveBroadcast, AdaptiveParams, NetworkKnowledge, Payload, Protocol, ProtocolActor,
};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse::sim::{SimOptions, Simulation};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn adaptive_sim(
    topology: &Topology,
    loss: Probability,
    seed: u64,
    params: AdaptiveParams,
) -> Simulation<ProtocolActor<AdaptiveBroadcast>> {
    let config = Configuration::uniform(topology, Probability::ZERO, loss);
    let all: Vec<ProcessId> = topology.processes().collect();
    let topo = topology.clone();
    Simulation::new(
        topology,
        &config,
        move |id| {
            ProtocolActor::new(AdaptiveBroadcast::new(
                id,
                all.clone(),
                topo.neighbors(id).collect(),
                params.clone(),
            ))
        },
        SimOptions::default().with_seed(seed),
    )
}

#[test]
fn every_process_learns_the_full_topology() {
    let topology = generators::circulant(16, 4).unwrap();
    let mut sim = adaptive_sim(&topology, Probability::ZERO, 5, AdaptiveParams::default());
    sim.run_ticks(20);
    for (id, actor) in sim.nodes() {
        let node = actor.protocol();
        assert!(node.topology_complete(), "{id} has incomplete topology");
        assert_eq!(
            node.known_topology().link_count(),
            topology.link_count(),
            "{id} should know every link"
        );
    }
}

/// Definition 2 (adaptiveness): after convergence, the adaptive
/// algorithm's broadcast uses exactly as many messages as the optimal
/// algorithm with perfect knowledge.
#[test]
fn adaptive_converges_to_optimal_message_count() {
    let loss = Probability::new(0.05).unwrap();
    let topology = generators::circulant(12, 4).unwrap();

    // Optimal cost under perfect knowledge.
    let exact = Configuration::uniform(&topology, Probability::ZERO, loss);
    let knowledge = NetworkKnowledge::exact(topology.clone(), exact);
    let optimal_cost = knowledge
        .broadcast_plan(p(0), 0.9999)
        .unwrap()
        .1
        .total_messages();

    // Let the adaptive system learn for a while, then plan a broadcast
    // from its *approximated* knowledge.
    let mut sim = adaptive_sim(&topology, loss, 17, AdaptiveParams::default());
    sim.run_ticks(800);
    let node = sim.node(p(0)).unwrap().protocol();
    let learned_cost = node
        .knowledge_snapshot()
        .broadcast_plan(p(0), 0.9999)
        .unwrap()
        .1
        .total_messages();

    // Uniform probabilities: estimates hover around the truth, so the
    // greedy plan should match the optimal one almost exactly. Allow one
    // interval of slack per link in the worst case.
    let slack = (optimal_cost as f64 * 0.15).ceil() as u64;
    assert!(
        learned_cost.abs_diff(optimal_cost) <= slack,
        "learned {learned_cost} vs optimal {optimal_cost} (slack {slack})"
    );
}

#[test]
fn adaptive_broadcast_delivers_after_learning() {
    let topology = generators::circulant(12, 4).unwrap();
    let mut sim = adaptive_sim(
        &topology,
        Probability::new(0.02).unwrap(),
        23,
        AdaptiveParams::default(),
    );
    sim.run_ticks(150);
    let ok = sim.command(p(3), |actor, ctx| {
        actor
            .broadcast_now(ctx, Payload::from("adaptive"))
            .expect("knowledge is complete after 150 periods");
    });
    assert!(ok);
    sim.run_ticks(20);
    let reached = sim
        .nodes()
        .filter(|(_, a)| !a.protocol().delivered().is_empty())
        .count();
    assert_eq!(reached, 12);
}

#[test]
fn heterogeneous_links_are_distinguished() {
    // One bad link in an otherwise clean ring + chords: estimates must
    // separate, and the learned MRT must avoid the bad link.
    let mut topology = generators::ring(10).unwrap();
    topology.add_link(p(0), p(5)).unwrap();
    topology.add_link(p(2), p(7)).unwrap();
    let bad = LinkId::new(p(3), p(4)).unwrap();

    let all: Vec<ProcessId> = topology.processes().collect();
    let mut config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(0.01).unwrap(),
    );
    config.set_loss(bad, Probability::new(0.5).unwrap());
    let topo = topology.clone();
    let mut sim = Simulation::new(
        &topology,
        &config,
        move |id| {
            ProtocolActor::new(AdaptiveBroadcast::new(
                id,
                all.clone(),
                topo.neighbors(id).collect(),
                AdaptiveParams::default(),
            ))
        },
        SimOptions::default().with_seed(31),
    );
    sim.run_ticks(700);

    let node = sim.node(p(0)).unwrap().protocol();
    let bad_estimate = node.estimated_loss(bad).unwrap().value();
    let good_estimate = node
        .estimated_loss(LinkId::new(p(0), p(1)).unwrap())
        .unwrap()
        .value();
    assert!(
        bad_estimate > good_estimate + 0.2,
        "bad {bad_estimate} vs good {good_estimate}"
    );

    let tree = node.knowledge_snapshot().reliability_tree(p(0)).unwrap();
    assert!(
        tree.edges().all(|(u, v)| LinkId::new(u, v).unwrap() != bad),
        "learned MRT must avoid the degraded link"
    );
}

#[test]
fn crashed_process_is_suspected_and_recovery_is_noticed() {
    let topology = generators::ring(8).unwrap();
    let mut sim = adaptive_sim(&topology, Probability::ZERO, 41, AdaptiveParams::default());
    sim.run_ticks(100);

    let healthy = sim
        .node(p(0))
        .unwrap()
        .protocol()
        .estimated_crash(p(1))
        .unwrap()
        .value();

    // p1 goes dark for 60 periods.
    sim.force_down(p(1), 60);
    sim.run_ticks(60);
    let while_down = sim
        .node(p(0))
        .unwrap()
        .protocol()
        .estimated_crash(p(1))
        .unwrap()
        .value();
    assert!(
        while_down > healthy,
        "silence must raise the crash estimate ({healthy} → {while_down})"
    );

    // After recovery, p1's own (self-measured) estimate is re-adopted and
    // reflects its true availability over its lifetime.
    sim.run_ticks(300);
    let after = sim
        .node(p(0))
        .unwrap()
        .protocol()
        .estimated_crash(p(1))
        .unwrap()
        .value();
    assert!(
        after < while_down,
        "recovery must lower the estimate again ({while_down} → {after})"
    );
}

#[test]
fn partition_heals_and_knowledge_recovers() {
    // Cut the ring into two halves by forcing both bridge links dead,
    // then heal them; estimates of the cut links should degrade and then
    // recover.
    let topology = generators::ring(8).unwrap();
    let cut_a = LinkId::new(p(0), p(1)).unwrap();
    let cut_b = LinkId::new(p(4), p(5)).unwrap();

    let mut sim = adaptive_sim(
        &topology,
        Probability::new(0.01).unwrap(),
        53,
        AdaptiveParams::default(),
    );
    sim.run_ticks(200);
    let before = sim
        .node(p(0))
        .unwrap()
        .protocol()
        .estimated_loss(cut_a)
        .unwrap()
        .value();

    sim.set_loss(cut_a, Probability::ONE);
    sim.set_loss(cut_b, Probability::ONE);
    sim.run_ticks(200);
    let during = sim
        .node(p(0))
        .unwrap()
        .protocol()
        .estimated_loss(cut_a)
        .unwrap()
        .value();
    assert!(
        during > before + 0.2,
        "cut link estimate must degrade ({before} → {during})"
    );

    sim.set_loss(cut_a, Probability::new(0.01).unwrap());
    sim.set_loss(cut_b, Probability::new(0.01).unwrap());
    sim.run_ticks(600);
    let after = sim
        .node(p(0))
        .unwrap()
        .protocol()
        .estimated_loss(cut_a)
        .unwrap()
        .value();
    assert!(
        after < during,
        "healed link estimate must recover ({during} → {after})"
    );
}

#[test]
fn default_rule_tracks_five_percent_loss_on_a_ring() {
    // Sequence gaps net of suspicions, plus one success observation per
    // received heartbeat, converge to the true loss rate.
    let topology = generators::ring(6).unwrap();
    let loss = Probability::new(0.05).unwrap();
    let link = LinkId::new(p(0), p(1)).unwrap();

    let mut sim = adaptive_sim(&topology, loss, 61, AdaptiveParams::default());
    sim.run_ticks(600);
    let err = (sim
        .node(p(0))
        .unwrap()
        .protocol()
        .estimated_loss(link)
        .unwrap()
        .value()
        - 0.05)
        .abs();
    assert!(
        err < 0.03,
        "the default rule should track the true loss (err {err})"
    );
}
