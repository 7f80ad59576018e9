//! Cross-crate integration tests: the optimal broadcast and gossip
//! baseline running end-to-end on the simulator over generated
//! topologies with injected failures.

use diffuse::core::{
    NetworkKnowledge, OptimalBroadcast, Payload, Protocol, ProtocolActor, ReferenceGossip,
};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse::sim::{CrashModel, SimOptions, Simulation};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn optimal_sim(
    topology: &Topology,
    config: &Configuration,
    k: f64,
    seed: u64,
    crash: CrashModel,
) -> Simulation<ProtocolActor<OptimalBroadcast>> {
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
    Simulation::new(
        topology,
        config,
        move |id| ProtocolActor::new(OptimalBroadcast::new(id, knowledge.clone(), k)),
        SimOptions::default()
            .with_seed(seed)
            .with_crash_model(crash),
    )
}

fn delivered_count(sim: &Simulation<ProtocolActor<OptimalBroadcast>>) -> usize {
    sim.nodes()
        .filter(|(_, a)| !a.protocol().delivered().is_empty())
        .count()
}

#[test]
fn optimal_broadcast_delivers_on_every_topology_family() {
    let topologies: Vec<Topology> = vec![
        generators::ring(12).unwrap(),
        generators::line(9).unwrap(),
        generators::star(8).unwrap(),
        generators::complete(7).unwrap(),
        generators::grid(3, 4).unwrap(),
        generators::circulant(14, 4).unwrap(),
        generators::two_zone(4, 2).unwrap(),
    ];
    for topology in topologies {
        let config = Configuration::uniform(
            &topology,
            Probability::ZERO,
            Probability::new(0.05).unwrap(),
        );
        let mut sim = optimal_sim(&topology, &config, 0.9999, 11, CrashModel::AlwaysUp);
        let origin = topology.processes().next().unwrap();
        assert!(sim.command(origin, |a, ctx| {
            a.broadcast_now(ctx, Payload::from("x")).unwrap();
        }));
        sim.run_ticks(topology.process_count() as u64 + 5);
        assert_eq!(
            delivered_count(&sim),
            topology.process_count(),
            "everyone should deliver on {topology:?}"
        );
    }
}

#[test]
fn optimal_broadcast_meets_target_reliability_empirically() {
    // 30-process ring, 10% loss: run many seeded broadcasts and check the
    // all-reached rate clears a conservative bound below K = 0.99.
    let topology = generators::ring(30).unwrap();
    let config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(0.10).unwrap(),
    );
    let runs = 300u64;
    let mut all_reached = 0u64;
    for seed in 0..runs {
        let mut sim = optimal_sim(&topology, &config, 0.99, seed, CrashModel::AlwaysUp);
        sim.command(p(0), |a, ctx| {
            a.broadcast_now(ctx, Payload::from("x")).unwrap();
        });
        sim.run_ticks(40);
        if delivered_count(&sim) == 30 {
            all_reached += 1;
        }
    }
    let rate = all_reached as f64 / runs as f64;
    assert!(
        rate >= 0.97,
        "empirical all-reached rate {rate} too far below K = 0.99"
    );
}

#[test]
fn optimal_broadcast_survives_process_crashes() {
    let topology = generators::circulant(20, 4).unwrap();
    let config = Configuration::uniform(
        &topology,
        Probability::new(0.02).unwrap(),
        Probability::new(0.02).unwrap(),
    );
    let mut reached_total = 0usize;
    let runs = 50;
    for seed in 0..runs {
        let mut sim = optimal_sim(
            &topology,
            &config,
            0.9999,
            seed,
            CrashModel::Bernoulli {
                p: Probability::new(0.02).unwrap(),
            },
        );
        sim.command(p(0), |a, ctx| {
            a.broadcast_now(ctx, Payload::from("x")).unwrap();
        });
        sim.run_ticks(30);
        reached_total += delivered_count(&sim);
    }
    let mean = reached_total as f64 / runs as f64;
    assert!(
        mean > 19.0,
        "mean reached {mean} of 20 under light crash churn"
    );
}

#[test]
fn broken_link_is_routed_around_with_exact_knowledge() {
    let mut topology = generators::ring(10).unwrap();
    // A chord gives the MRT an alternative to the dead link.
    topology.add_link(p(2), p(7)).unwrap();
    let dead = LinkId::new(p(4), p(5)).unwrap();
    let mut config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(0.01).unwrap(),
    );
    config.set_loss(dead, Probability::ONE);

    let mut sim = optimal_sim(&topology, &config, 0.9999, 3, CrashModel::AlwaysUp);
    sim.command(p(0), |a, ctx| {
        a.broadcast_now(ctx, Payload::from("x")).unwrap();
    });
    sim.run_ticks(20);
    assert_eq!(delivered_count(&sim), 10);
    // Nothing was ever sent across the dead link.
    assert_eq!(sim.metrics().sent_over(dead), 0);
}

#[test]
fn simulator_runs_are_deterministic_per_seed() {
    let topology = generators::circulant(16, 4).unwrap();
    let config =
        Configuration::uniform(&topology, Probability::ZERO, Probability::new(0.2).unwrap());
    let run = |seed: u64| {
        let mut sim = optimal_sim(&topology, &config, 0.999, seed, CrashModel::AlwaysUp);
        sim.command(p(0), |a, ctx| {
            a.broadcast_now(ctx, Payload::from("x")).unwrap();
        });
        sim.run_ticks(25);
        (sim.metrics(), delivered_count(&sim))
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn gossip_baseline_reaches_everyone_and_stops() {
    let topology = generators::circulant(20, 4).unwrap();
    let config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(0.05).unwrap(),
    );
    let neighbors: std::collections::BTreeMap<ProcessId, Vec<ProcessId>> = topology
        .processes()
        .map(|q| (q, topology.neighbors(q).collect()))
        .collect();
    let mut sim = Simulation::new(
        &topology,
        &config,
        |id| ProtocolActor::new(ReferenceGossip::new(id, neighbors[&id].clone(), 20)),
        SimOptions::default().with_seed(9),
    );
    sim.command(p(0), |a, ctx| {
        a.broadcast_now(ctx, Payload::from("g")).unwrap();
    });
    sim.run_ticks(30);
    let reached = sim
        .nodes()
        .filter(|(_, a)| !a.protocol().delivered().is_empty())
        .count();
    assert_eq!(reached, 20);

    // After the step budget the network goes quiet.
    let before = sim.metrics().sent_total();
    sim.run_ticks(30);
    assert_eq!(sim.metrics().sent_total(), before);
}

#[test]
fn duplicate_suppression_holds_under_heavy_redundancy() {
    // Star topology: the hub receives the broadcast once per planned copy
    // but delivers exactly once.
    let topology = generators::star(6).unwrap();
    let config =
        Configuration::uniform(&topology, Probability::ZERO, Probability::new(0.3).unwrap());
    let mut sim = optimal_sim(&topology, &config, 0.9999, 21, CrashModel::AlwaysUp);
    sim.command(p(1), |a, ctx| {
        a.broadcast_now(ctx, Payload::from("dup")).unwrap();
    });
    sim.run_ticks(10);
    for (_, actor) in sim.nodes() {
        assert!(actor.protocol().delivered().len() <= 1);
    }
}

#[test]
#[ignore = "release-only: 10 000 processes (cargo test --release -- --ignored)"]
fn optimal_broadcast_runs_at_gossip_scale_on_one_knowledge() {
    // The gossip workloads' graph, G(10 000, 2 ln n / n), loss-free, one
    // broadcast. Every process holds a clone of one exact knowledge; a
    // deep copy each would be about 6 MB per process.
    use rand::SeedableRng;

    let n = 10_000u32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let edge_probability = 2.0 * f64::from(n).ln() / f64::from(n);
    let topology =
        generators::erdos_renyi_connected_fast(n, edge_probability, 64, &mut rng).unwrap();
    let config = Configuration::uniform(&topology, Probability::ZERO, Probability::ZERO);
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
    let shared = knowledge.clone();
    let mut sim = Simulation::new(
        &topology,
        &config,
        move |id| ProtocolActor::new(OptimalBroadcast::new(id, shared.clone(), 0.9999)),
        SimOptions::default().with_seed(1),
    );
    assert!(sim.command(p(0), |a, ctx| {
        a.broadcast_now(ctx, Payload::from("x")).unwrap();
    }));
    sim.run_ticks(u64::from(n));
    assert_eq!(delivered_count(&sim), n as usize);
    for (_, actor) in sim.nodes() {
        let held = actor.protocol().knowledge();
        assert!(std::ptr::eq(held.topology(), knowledge.topology()));
        assert!(std::ptr::eq(held.config(), knowledge.config()));
    }
}
