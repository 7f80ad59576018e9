//! Cross-crate property tests: conservation laws and protocol invariants
//! over randomized topologies, configurations and seeds.

use diffuse::core::{NetworkKnowledge, OptimalBroadcast, Payload, Protocol, ProtocolActor};
use diffuse::graph::generators;
use diffuse::model::{Configuration, Probability, ProcessId, Topology};
use diffuse::sim::{SimOptions, Simulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected topology (random tree + random chords) with a
/// uniform loss probability.
fn arb_system() -> impl Strategy<Value = (Topology, f64, u64)> {
    (4u32..20, any::<u64>(), 0.0f64..0.3).prop_map(|(n, seed, loss)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topology = generators::random_tree(n, &mut rng).unwrap();
        for _ in 0..n / 2 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                topology
                    .add_link(ProcessId::new(a), ProcessId::new(b))
                    .unwrap();
            }
        }
        (topology, loss, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: after the network quiesces, every sent message was
    /// delivered, lost in a link, or dropped at a crashed receiver.
    #[test]
    fn prop_message_conservation((topology, loss, seed) in arb_system()) {
        let config = Configuration::uniform(
            &topology,
            Probability::ZERO,
            Probability::new(loss).unwrap(),
        );
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let mut sim = Simulation::new(
            &topology,
            &config,
            |id| ProtocolActor::new(OptimalBroadcast::new(id, knowledge.clone(), 0.999)),
            SimOptions::default().with_seed(seed),
        );
        let origin = topology.processes().next().unwrap();
        sim.command(origin, |a, ctx| {
            a.broadcast_now(ctx, Payload::from("conserve")).unwrap();
        });
        // Long enough for every staggered copy to land on any topology
        // this size.
        sim.run_ticks(4 * topology.process_count() as u64 + 30);

        let m = sim.metrics();
        prop_assert_eq!(
            m.sent_total(),
            m.delivered_total() + m.lost_in_link() + m.dropped_receiver_down(),
            "sent must equal delivered + lost + dropped after quiescence"
        );
        prop_assert_eq!(m.dropped_invalid(), 0, "protocols only talk to neighbors");
    }

    /// With lossless links and no crashes, the optimal broadcast reaches
    /// *every* process, and nobody delivers twice.
    #[test]
    fn prop_lossless_broadcast_is_total((topology, _loss, seed) in arb_system()) {
        let config = Configuration::new();
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let mut sim = Simulation::new(
            &topology,
            &config,
            |id| ProtocolActor::new(OptimalBroadcast::new(id, knowledge.clone(), 0.9999)),
            SimOptions::default().with_seed(seed),
        );
        let origin = topology.processes().next().unwrap();
        sim.command(origin, |a, ctx| {
            a.broadcast_now(ctx, Payload::from("total")).unwrap();
        });
        sim.run_ticks(2 * topology.process_count() as u64 + 10);

        for (id, actor) in sim.nodes() {
            prop_assert_eq!(
                actor.protocol().delivered().len(),
                1,
                "{} must deliver exactly once",
                id
            );
        }
        // Lossless + perfect processes: the plan is one copy per tree
        // link, so exactly n - 1 data messages cross the wire.
        prop_assert_eq!(
            sim.metrics().sent_of_kind("data"),
            topology.process_count() as u64 - 1
        );
    }

    /// The optimizer's plan cost is monotone in the loss probability:
    /// worse links can never make the broadcast cheaper.
    #[test]
    fn prop_plan_cost_monotone_in_loss(
        (topology, _loss, _seed) in arb_system(),
        lo in 0.0f64..0.2,
        delta in 0.01f64..0.3,
    ) {
        let origin = topology.processes().next().unwrap();
        let cost = |l: f64| {
            let config = Configuration::uniform(
                &topology,
                Probability::ZERO,
                Probability::new(l).unwrap(),
            );
            NetworkKnowledge::exact(topology.clone(), config)
                .broadcast_plan(origin, 0.999)
                .unwrap()
                .1
                .total_messages()
        };
        prop_assert!(cost(lo + delta) >= cost(lo));
    }
}
