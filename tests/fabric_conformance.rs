//! Exact cross-substrate conformance: the virtual-time fabric — the
//! simulation kernel with every message crossing the wire codec — must
//! be *bit-identical* to the kernel handing messages over in memory.
//!
//! A scenario — topology × loss configuration × crash model × scripted
//! workload × fault script — is run twice: once on the kernel
//! (`Scenario::run_sim`) and once on the fabric under virtual time
//! (`run_scenario_on_fabric_virtual`: same engine, same script driver,
//! encoded frames in flight). The resulting [`ScenarioReport`]s are
//! compared with `assert_eq!` — per-process delivery counts,
//! failed-broadcast counts, skipped faults, *and* the full wire
//! [`Metrics`] (sent/lost/delivered per kind and per link). No settle
//! sleeps, no tolerance margins: every field must agree exactly, across
//! randomized topologies, loss configurations, seeds and fault scripts.
//! Since the two runs share everything but the codec, a disagreement
//! means a protocol could tell a decoded message from the original.
//!
//! The generator below is seeded from a fixed matrix, so CI runs the
//! same cases forever; the suite is wall-clock-independent (the only
//! real time spent is compute) and lives in the normal debug test lane.

use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, ScenarioReport, Workload};
use diffuse::core::{
    AdaptiveBroadcast, AdaptiveParams, NetworkKnowledge, OptimalBroadcast, Payload, ReferenceGossip,
};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId};
use diffuse::net::{run_scenario_on_fabric, run_scenario_on_fabric_virtual, FabricScenarioOptions};
use diffuse::sim::{CrashModel, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// The fixed seed matrix CI sweeps. Every seed expands (via the
/// generator below) into a different topology family, loss
/// configuration, workload and fault script.
const SEED_MATRIX: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 0xD54, 0xFAB, 0xC0FFEE];

/// A randomized but fully seeded scenario: topology family, per-link
/// loss, link delay, multi-origin workload, and a fault script drawn
/// from every action variant (Partition/Heal and Crash included).
fn random_scenario(seed: u64) -> (Scenario, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4u32..=24);
    let topology = match rng.gen_range(0u32..4) {
        0 => generators::ring(n).unwrap(),
        1 => generators::circulant(n.max(5), 4).unwrap(),
        2 => generators::line(n).unwrap(),
        _ => generators::star(n).unwrap(),
    };
    let mut config = Configuration::new();
    for link in topology.links() {
        let loss = rng.gen_range(0.0..0.35);
        config.set_loss(link, Probability::new(loss).unwrap());
    }
    let processes: Vec<ProcessId> = topology.processes().collect();
    let links: Vec<LinkId> = topology.links().collect();
    let horizon = rng.gen_range(50u64..=120);

    let mut workload = Workload::new();
    for i in 0..rng.gen_range(1u32..=3) {
        let origin = processes[rng.gen_range(0..processes.len())];
        let at = SimTime::new(rng.gen_range(0..horizon / 2));
        workload = workload.broadcast(at, origin, Payload::from(format!("w{i}").into_bytes()));
    }
    if rng.gen_bool(0.5) {
        let origin = processes[rng.gen_range(0..processes.len())];
        workload = workload.burst(SimTime::new(rng.gen_range(0..horizon / 2)), origin, 2);
    }

    let mut faults = FaultScript::new();
    if rng.gen_bool(0.7) {
        let island_size = rng.gen_range(1..processes.len());
        let island: Vec<ProcessId> = processes[..island_size].to_vec();
        let cut_at = rng.gen_range(0..horizon / 2);
        faults = faults
            .at(SimTime::new(cut_at), FaultAction::Partition { island })
            .at(
                SimTime::new(cut_at + rng.gen_range(5u64..20)),
                FaultAction::Heal,
            );
    }
    if rng.gen_bool(0.7) {
        let victim = processes[rng.gen_range(0..processes.len())];
        faults = faults.at(
            SimTime::new(rng.gen_range(0..horizon.saturating_sub(10).max(1))),
            FaultAction::Crash {
                process: victim,
                down_ticks: rng.gen_range(1..=10),
            },
        );
    }
    if rng.gen_bool(0.5) {
        faults = faults.at(
            SimTime::new(rng.gen_range(0..horizon)),
            FaultAction::DegradeAll {
                loss: Probability::new(rng.gen_range(0.2..0.8)).unwrap(),
            },
        );
    }
    if rng.gen_bool(0.5) {
        let link = links[rng.gen_range(0..links.len())];
        faults = faults.at(
            SimTime::new(rng.gen_range(0..horizon)),
            FaultAction::SetLoss {
                link,
                loss: Probability::new(rng.gen_range(0.0..0.9)).unwrap(),
            },
        );
    }

    let scenario = Scenario::builder(topology)
        .config(config)
        .seed(rng.gen_range(0..u64::MAX / 2))
        .link_delay(rng.gen_range(1..=3))
        .workload(workload)
        .faults(faults)
        .build();
    (scenario, horizon)
}

/// Asserts full report equality between the kernel and the virtual
/// fabric, and byte-identical determinism across two fabric runs.
fn assert_conformant(
    scenario: &Scenario,
    horizon: u64,
    sim_report: ScenarioReport,
    mut fabric_run: impl FnMut() -> ScenarioReport,
    label: &str,
) {
    let fabric_report = fabric_run();
    assert_eq!(
        sim_report, fabric_report,
        "{label}: kernel and virtual fabric disagree \
         (seed {}, horizon {horizon})\nscenario: {scenario:?}",
        scenario.seed
    );
    let again = fabric_run();
    assert_eq!(
        format!("{fabric_report:?}"),
        format!("{again:?}"),
        "{label}: two virtual fabric runs must be byte-identical"
    );
}

/// Gossip across the whole randomized seed matrix.
#[test]
fn randomized_scenarios_gossip_conformance() {
    for seed in SEED_MATRIX {
        let (scenario, horizon) = random_scenario(seed);
        let topology = scenario.topology.clone();
        let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
        let steps = topology.processes().count() as u32 + 2;
        let sim = scenario.run_sim(horizon, |id| ReferenceGossip::new(id, neighbors(id), steps));
        assert_conformant(
            &scenario,
            horizon,
            sim,
            || {
                run_scenario_on_fabric_virtual(&scenario, horizon, |id| {
                    ReferenceGossip::new(id, neighbors(id), steps)
                })
            },
            "gossip",
        );
    }
}

/// The tree-based optimal protocol across the same matrix (different
/// message kinds, multi-copy staggered bursts).
#[test]
fn randomized_scenarios_optimal_conformance() {
    for seed in SEED_MATRIX {
        let (scenario, horizon) = random_scenario(seed.wrapping_mul(0x9E37_79B9));
        let knowledge =
            NetworkKnowledge::exact((*scenario.topology).clone(), (*scenario.config).clone());
        let sim = scenario.run_sim(horizon, |id| {
            OptimalBroadcast::new(id, knowledge.clone(), 0.999)
        });
        assert_conformant(
            &scenario,
            horizon,
            sim,
            || {
                run_scenario_on_fabric_virtual(&scenario, horizon, |id| {
                    OptimalBroadcast::new(id, knowledge.clone(), 0.999)
                })
            },
            "optimal",
        );
    }
}

/// The adaptive protocol: heartbeat timers on every node, Bayesian
/// estimation traffic, deferred broadcasts (incomplete knowledge at
/// tick 0) — the heaviest exercise of timer ordering and the retry
/// path.
#[test]
fn adaptive_protocol_conformance() {
    // Delta frames ride the wire end to end (encode at the sender,
    // decode at the receiver, full views on first contact, new links in
    // deltas) and must match the kernel twin bit for bit.
    // (Every-frame-full runs cross the codec in
    // `tests/delta_equivalence.rs`.)
    for seed in [11u64, 42, 0xADA] {
        let (mut scenario, horizon) = random_scenario(seed.wrapping_add(0x5EED));
        // A tick-0 broadcast is deferred until topology knowledge
        // completes — both substrates must retry it identically.
        scenario.workload = Workload::new()
            .broadcast(SimTime::ZERO, p(0), Payload::from("too early"))
            .broadcast(SimTime::new(horizon / 2), p(1), Payload::from("later"));
        let topology = scenario.topology.clone();
        let all: Vec<ProcessId> = topology.processes().collect();
        let params = AdaptiveParams::default().with_intervals(16);
        let make = |id: ProcessId| {
            AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                params.clone(),
            )
        };
        let sim = scenario.run_sim(horizon, make);
        assert_conformant(
            &scenario,
            horizon,
            sim,
            || run_scenario_on_fabric_virtual(&scenario, horizon, make),
            "adaptive",
        );
    }
}

/// The two edges of the shared script driver that need an executor's
/// cooperation, across the seed matrix: an origin forced down by a fault
/// of the very tick its broadcast is due (the fault lands first, the
/// issue is refused and retried every tick until the recovery), and a
/// broadcast plus a fault scheduled exactly at the horizon tick (neither
/// fires). Kernel and virtual fabric must agree on both to the bit.
#[test]
fn horizon_edge_and_downed_origin_conformance() {
    for seed in SEED_MATRIX {
        let (mut scenario, horizon) = random_scenario(seed);
        let processes: Vec<ProcessId> = scenario.topology.processes().collect();
        let origin = processes[seed as usize % processes.len()];
        let at = SimTime::new(horizon / 3);
        scenario.workload = Workload::new()
            .broadcast(at, origin, Payload::from("origin is down"))
            .broadcast(SimTime::new(horizon), origin, Payload::from("never"));
        scenario.faults = FaultScript::new()
            .at(
                at,
                FaultAction::Crash {
                    process: origin,
                    down_ticks: 6,
                },
            )
            .at(
                SimTime::new(horizon),
                FaultAction::Partition {
                    island: vec![origin],
                },
            );
        let topology = scenario.topology.clone();
        let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
        let steps = processes.len() as u32 + 2;
        let sim = scenario.run_sim(horizon, |id| ReferenceGossip::new(id, neighbors(id), steps));
        // Not vacuous: the refused broadcast did issue after the outage,
        // and the one at the horizon tick did not.
        assert_eq!(sim.failed_broadcasts, 0, "seed {seed}: {sim:?}");
        assert_eq!(sim.delivered[&origin], 1, "seed {seed}: {sim:?}");
        assert_conformant(
            &scenario,
            horizon,
            sim,
            || {
                run_scenario_on_fabric_virtual(&scenario, horizon, |id| {
                    ReferenceGossip::new(id, neighbors(id), steps)
                })
            },
            "horizon edge + downed origin",
        );
    }
}

/// The script of e2e finding (iv): long enough for a belief vector's f64
/// sum to drift a few ULP off 1, which is all it took for a decoded
/// estimate to differ from the one handed over by `Arc` while frames
/// carried belief vectors.
fn finding_iv() -> (
    Scenario,
    u64,
    impl Fn(ProcessId) -> AdaptiveBroadcast + Clone,
) {
    let topology = generators::circulant(16, 4).unwrap();
    let scenario = Scenario::builder(topology.clone())
        .uniform_loss(Probability::new(0.03).unwrap())
        .seed(1)
        .workload(Workload::new().stream(p(0), SimTime::new(200), 10, 18))
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(100),
                    FaultAction::DegradeAll {
                        loss: Probability::new(0.3).unwrap(),
                    },
                )
                .at(SimTime::new(120), FaultAction::Heal)
                .at(
                    SimTime::new(250),
                    FaultAction::Crash {
                        process: p(15),
                        down_ticks: 30,
                    },
                ),
        )
        .build();
    let all: Vec<ProcessId> = topology.processes().collect();
    let make = move |id: ProcessId| {
        AdaptiveBroadcast::new(
            id,
            all.clone(),
            topology.neighbors(id).collect(),
            AdaptiveParams::default(),
        )
    };
    (scenario, 400, make)
}

/// Wire transparency: a protocol must not be able to tell a message that
/// crossed the codec from one handed over in memory. Checked on the
/// finding-(iv) script (~26 000 adaptive handler runs a side) and on the
/// adaptive seeds above with default parameters.
#[test]
fn the_codec_is_invisible_to_protocols() {
    let (scenario, horizon, make) = finding_iv();
    let sim = scenario.run_sim(horizon, &make);
    assert_eq!(sim.skipped_faults + sim.failed_broadcasts, 0, "{sim:?}");
    assert_conformant(
        &scenario,
        horizon,
        sim,
        || run_scenario_on_fabric_virtual(&scenario, horizon, &make),
        "finding (iv)",
    );
    for seed in [11u64, 42, 0xADA] {
        let (scenario, horizon) = random_scenario(seed.wrapping_add(0x5EED));
        let topology = scenario.topology.clone();
        let all: Vec<ProcessId> = topology.processes().collect();
        let make = |id: ProcessId| {
            AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                AdaptiveParams::default(),
            )
        };
        assert_eq!(
            scenario.run_sim(horizon, make),
            run_scenario_on_fabric_virtual(&scenario, horizon, make),
            "seed {seed}: decode(encode(m)) changed a run"
        );
    }
}

/// The adversarial fault family: a scripted lying node
/// ([`FaultAction::Corrupt`], all three corruption modes across seeds)
/// plus a bounded message adversary ([`FaultAction::MessageAdversary`])
/// must be *bit-identical* across the kernel and the virtual fabric —
/// same corrupted heartbeats (the adversary RNG streams are keyed by
/// `(run seed, process)` on both substrates), same suppression draws,
/// same containment counters, zero skips. Forged frames cross the
/// delta codec too.
#[test]
fn adversarial_scenarios_conformance() {
    use diffuse::core::{Adversary, CorruptionMode};
    for mode in [
        CorruptionMode::UnderstateDistortion,
        CorruptionMode::StaleReplay,
        CorruptionMode::ForgeAck,
    ] {
        let (mut scenario, horizon) = random_scenario(0xBAD ^ mode as u64);
        let processes: Vec<ProcessId> = scenario.topology.processes().collect();
        let liar = processes[processes.len() / 2];
        scenario.workload = Workload::new()
            .broadcast(SimTime::new(5), processes[0], Payload::from("w0"))
            .broadcast(SimTime::new(horizon / 2), processes[1], Payload::from("w1"));
        scenario.faults = FaultScript::new()
            .at(
                SimTime::new(horizon / 4),
                FaultAction::Corrupt {
                    process: liar,
                    mode,
                    window: horizon / 2,
                },
            )
            .at(
                SimTime::new(horizon / 3),
                FaultAction::MessageAdversary { d: 1, window: 15 },
            )
            .at(
                SimTime::new(2 * horizon / 3),
                FaultAction::MessageAdversary { d: 0, window: 1 },
            );
        let topology = scenario.topology.clone();
        let all: Vec<ProcessId> = topology.processes().collect();
        let params = AdaptiveParams::default().with_intervals(16);
        let seed = scenario.seed;
        let make = |id: ProcessId| {
            Adversary::new(
                AdaptiveBroadcast::new(
                    id,
                    all.clone(),
                    topology.neighbors(id).collect(),
                    params.clone(),
                ),
                seed,
            )
        };
        let sim = scenario.run_sim(horizon, make);
        assert_eq!(sim.skipped_faults, 0, "{mode}: kernel skipped a fault");
        assert!(
            sim.containment.corrupt_emissions > 0,
            "{mode}: the liar never rewrote a heartbeat — the row is vacuous: {sim:?}"
        );
        assert_eq!(sim.containment.bound_violations, 0, "{mode}: {sim:?}");
        assert_conformant(
            &scenario,
            horizon,
            sim,
            || run_scenario_on_fabric_virtual(&scenario, horizon, make),
            &format!("adversarial ({mode})"),
        );
    }
}

/// Stochastic crash models draw per-tick randomness in the kernel's
/// crash phase; the virtual fabric replays the same draws in the same
/// order.
#[test]
fn stochastic_crash_models_conform() {
    for model in [
        CrashModel::Bernoulli {
            p: Probability::new(0.05).unwrap(),
        },
        CrashModel::Markov {
            p: Probability::new(0.08).unwrap(),
            mean_downtime: 4.0,
        },
    ] {
        let topology = generators::circulant(6, 4).unwrap();
        let config =
            Configuration::uniform(&topology, Probability::ZERO, Probability::new(0.1).unwrap());
        let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
        let scenario = Scenario::builder(topology.clone())
            .config(config)
            .seed(0x0DD5)
            .crash_model(model)
            .workload(
                Workload::new()
                    .broadcast(SimTime::new(3), p(0), Payload::from("a"))
                    .broadcast(SimTime::new(25), p(4), Payload::from("b")),
            )
            .build();
        let sim = scenario.run_sim(60, |id| ReferenceGossip::new(id, neighbors(id), 8));
        let fab = run_scenario_on_fabric_virtual(&scenario, 60, |id| {
            ReferenceGossip::new(id, neighbors(id), 8)
        });
        assert_eq!(sim, fab, "crash model {model:?}");
    }
}

/// The acceptance scenario: partition-then-heal plus a forced crash.
/// Run twice on the virtual fabric it is byte-identical; against the
/// kernel it is field-for-field equal — no settle sleeps, no margins.
#[test]
fn partition_heal_crash_acceptance() {
    let topology = generators::circulant(8, 4).unwrap();
    let config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(0.05).unwrap(),
    );
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
    let island: Vec<ProcessId> = (0..4).map(p).collect();
    let scenario = Scenario::builder(topology)
        .config(config)
        .seed(0xACCE)
        .workload(
            Workload::new()
                .broadcast(SimTime::new(2), p(0), Payload::from("pre-cut"))
                .broadcast(SimTime::new(60), p(6), Payload::from("mid-cut"))
                .broadcast(SimTime::new(130), p(3), Payload::from("post-heal")),
        )
        .faults(
            FaultScript::new()
                .at(SimTime::new(40), FaultAction::Partition { island })
                .at(
                    SimTime::new(50),
                    FaultAction::Crash {
                        process: p(5),
                        down_ticks: 30,
                    },
                )
                .at(SimTime::new(100), FaultAction::Heal),
        )
        .build();

    let run_fabric = || {
        run_scenario_on_fabric_virtual(&scenario, 180, |id| {
            OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
        })
    };
    let first = run_fabric();
    let second = run_fabric();
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "two virtual-time fabric runs must be byte-identical"
    );

    let sim = scenario.run_sim(180, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
    });
    assert_eq!(sim, first, "kernel and fabric must agree exactly");
    assert_eq!(sim.delivered, first.delivered);
    assert_eq!(first.skipped_faults, 0);
    // The scenario is not vacuous: deliveries happened and the crash
    // window cost p5 at least one of the three broadcasts on both
    // substrates equally.
    assert!(first.delivered.values().any(|&d| d >= 2), "{first:?}");
}

/// Regression: no fault variant silently degrades to `skipped_faults`
/// on either substrate — every action kind is executed by the kernel,
/// by the virtual fabric, and by the wall-clock fabric.
#[test]
fn no_fault_variant_degrades_to_skipped() {
    let topology = generators::ring(4).unwrap();
    let config = Configuration::new();
    let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
    let link = LinkId::new(p(0), p(1)).unwrap();
    let scenario = Scenario::builder(topology)
        .config(config)
        .seed(7)
        .workload(Workload::new().broadcast(SimTime::new(30), p(0), Payload::from("x")))
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(1),
                    FaultAction::SetLoss {
                        link,
                        loss: Probability::new(0.5).unwrap(),
                    },
                )
                .at(
                    SimTime::new(2),
                    FaultAction::DegradeAll {
                        loss: Probability::new(0.3).unwrap(),
                    },
                )
                .at(
                    SimTime::new(3),
                    FaultAction::Partition { island: vec![p(0)] },
                )
                .at(
                    SimTime::new(4),
                    FaultAction::Crash {
                        process: p(2),
                        down_ticks: 3,
                    },
                )
                .at(SimTime::new(10), FaultAction::Heal),
        )
        .build();

    let sim = scenario.run_sim(50, |id| OptimalBroadcast::new(id, knowledge.clone(), 0.99));
    assert_eq!(sim.skipped_faults, 0, "kernel skipped a fault: {sim:?}");

    let virtual_fab = run_scenario_on_fabric_virtual(&scenario, 50, |id| {
        OptimalBroadcast::new(id, knowledge.clone(), 0.99)
    });
    assert_eq!(
        virtual_fab.skipped_faults, 0,
        "virtual fabric skipped a fault: {virtual_fab:?}"
    );
    assert_eq!(sim, virtual_fab);

    let wall = run_scenario_on_fabric(
        &scenario,
        FabricScenarioOptions {
            run_ticks: 50,
            settle: std::time::Duration::from_millis(10),
            ..FabricScenarioOptions::default()
        },
        |id| OptimalBroadcast::new(id, knowledge.clone(), 0.99),
    );
    assert_eq!(
        wall.skipped_faults, 0,
        "wall fabric skipped a fault: {wall:?}"
    );
}
