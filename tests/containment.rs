//! Release-gated containment suite: the adversarial fault families on
//! the simulation substrates.
//!
//! The claim under test is the tentpole's: with `f = 1` lying node
//! (scripted via [`FaultAction::Corrupt`]) and a `d`-bounded message
//! adversary ([`FaultAction::MessageAdversary`]), **every broadcast
//! accepted from a correct origin is delivered by all correct nodes**,
//! **zero corrupted entries are adopted past the distortion bound**
//! (forged estimates arrive stamped first-hand, `adopt_if_better`
//! stores them at distortion ≥ 1), and **correct-node estimates
//! re-converge after the corruption window** — poisoned adoptions are
//! displaced by honest first-hand refreshes once the liar's window
//! closes.
//!
//! Re-convergence is only *structural* on topologies where every
//! correct node is adjacent to an endpoint of every link: a forged
//! estimate of a remote link, adopted at distortion 1, can never be
//! displaced by honest relays arriving at distortion ≥ 2 (Algorithm
//! 3's comparison is strict). The suite therefore runs on complete
//! graphs — and pins the adjacency requirement in
//! `reconvergence_needs_endpoint_adjacency` so the limit stays
//! documented by a test rather than by folklore.
//!
//! The quick profile below is the CI `adversary-smoke` entry point;
//! `release_gate_exhaustive_containment` is the long profile, `#
//! [ignore]`d by default and run with `cargo test --release -- --ignored`.

use diffuse::bayes::Distortion;
use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, Workload};
use diffuse::core::{AdaptiveBroadcast, AdaptiveParams, Adversary, CorruptionMode, Payload};
use diffuse::graph::generators;
use diffuse::model::{ProcessId, Topology};
use diffuse::sim::SimTime;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// One adversarial adaptive node: the honest protocol wrapped in the
/// [`Adversary`] shim that [`FaultAction::Corrupt`] scripts against.
fn adversarial_adaptive(
    topology: &Topology,
    seed: u64,
) -> impl FnMut(ProcessId) -> Adversary<AdaptiveBroadcast> + '_ {
    let all: Vec<ProcessId> = topology.processes().collect();
    move |id| {
        Adversary::new(
            AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                AdaptiveParams::default(),
            ),
            seed,
        )
    }
}

/// Counts tainted link estimates held by correct nodes — the in-memory
/// tracer every forged offer carries (`Offer::forged` sets it, adoption
/// copies it; it never rides the frozen wire format, but the sim kernel
/// passes messages by value so it survives end to end).
fn tainted_estimates(
    run: &diffuse::core::scenario::ScenarioSim<Adversary<AdaptiveBroadcast>>,
    topology: &Topology,
    liar: ProcessId,
) -> u64 {
    let mut tainted = 0;
    for (id, actor) in run.sim().nodes() {
        if id == liar {
            continue;
        }
        for link in topology.links() {
            if let Some(est) = actor.protocol().inner().link_estimate(link) {
                if est.tainted() {
                    tainted += 1;
                }
            }
        }
    }
    tainted
}

/// The quick profile (CI `adversary-smoke`): one lying node plus a
/// bounded message adversary on a complete graph with lossless links.
/// Lies are adopted (the interference is real), stay distortion-bounded,
/// never cost a delivery, and are purged once the window closes.
#[test]
fn lies_are_contained_and_estimates_reconverge() {
    let topology = generators::complete(6).unwrap();
    let liar = p(2);
    let scenario = Scenario::builder(topology.clone())
        .seed(0xC047A1)
        .workload(
            Workload::new()
                // Before, during, and after the corruption window —
                // the guarantee covers all three.
                .broadcast(SimTime::new(30), p(0), Payload::from("pre-lies"))
                .broadcast(SimTime::new(70), p(1), Payload::from("mid-lies"))
                .broadcast(SimTime::new(130), p(3), Payload::from("post-lies")),
        )
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(40),
                    FaultAction::Corrupt {
                        process: liar,
                        mode: CorruptionMode::UnderstateDistortion,
                        window: 60,
                    },
                )
                // Suppression burst between the first two broadcasts'
                // data trees (adaptive data diffusion is one-shot, so
                // no delivery guarantee can attach to frames issued
                // *into* suppression — heartbeats absorb it instead).
                .at(
                    SimTime::new(45),
                    FaultAction::MessageAdversary { d: 1, window: 10 },
                )
                .at(
                    SimTime::new(65),
                    FaultAction::MessageAdversary { d: 0, window: 1 },
                ),
        )
        .build();

    let mut run = scenario.sim(adversarial_adaptive(&topology, scenario.seed));

    // Mid-window: the poison must actually be present in correct
    // nodes' views (otherwise "re-convergence" below is vacuous).
    run.run_ticks(90);
    assert!(
        tainted_estimates(&run, &topology, liar) > 0,
        "no correct node ever adopted a forged estimate — the liar is a no-op"
    );

    run.run_ticks(110);
    let report = run.report();
    assert_eq!(report.skipped_faults, 0, "{report:?}");
    assert_eq!(report.failed_broadcasts, 0, "{report:?}");
    for (&id, &delivered) in &report.delivered {
        if id != liar {
            assert_eq!(
                delivered, 3,
                "correct node {id:?} missed a broadcast from a correct origin: {report:?}"
            );
        }
    }

    let c = &report.containment;
    assert!(c.corrupt_emissions > 0, "{c:?}");
    assert!(c.corrupt_adoptions > 0, "lies were never adopted: {c:?}");
    assert!(c.suppressed_emissions > 0, "{c:?}");
    assert_eq!(
        c.bound_violations, 0,
        "forged estimate adopted at distortion 0: {c:?}"
    );

    // Re-convergence: every poisoned adoption has been displaced by an
    // honest first-hand refresh, and every surviving estimate sits at
    // the structural distortion of a complete graph (0 for own links,
    // 1 for everyone else's).
    assert_eq!(
        tainted_estimates(&run, &topology, liar),
        0,
        "forged estimates survived the corruption window"
    );
    for (id, actor) in run.sim().nodes() {
        if id == liar {
            continue;
        }
        for link in topology.links() {
            let est = actor
                .protocol()
                .inner()
                .link_estimate(link)
                .unwrap_or_else(|| panic!("{id:?} lost its estimate of {link:?}"));
            assert!(
                est.distortion() <= Distortion::finite(1),
                "{id:?} holds {link:?} at {:?} on a complete graph",
                est.distortion()
            );
        }
    }
}

/// Every corruption mode is contained: heartbeats are really rewritten,
/// nothing lands past the distortion bound, and no delivery is lost.
/// `ForgeAck` additionally trips the delta codec's future-ack rejection
/// (the forged offsets reach beyond any generation the liar's peers
/// ever emitted).
#[test]
fn every_corruption_mode_is_contained() {
    for mode in CorruptionMode::ALL {
        let topology = generators::complete(5).unwrap();
        let liar = p(1);
        let scenario = Scenario::builder(topology.clone())
            .seed(0xABB1 ^ mode as u64)
            .workload(
                Workload::new()
                    .broadcast(SimTime::new(25), p(0), Payload::from("a"))
                    .broadcast(SimTime::new(60), p(2), Payload::from("b"))
                    .broadcast(SimTime::new(120), p(4), Payload::from("c")),
            )
            .faults(FaultScript::new().at(
                SimTime::new(30),
                FaultAction::Corrupt {
                    process: liar,
                    mode,
                    window: 60,
                },
            ))
            .build();
        let report = scenario.run_sim(180, adversarial_adaptive(&topology, scenario.seed));
        assert_eq!(report.skipped_faults, 0, "{mode}: {report:?}");
        assert_eq!(report.failed_broadcasts, 0, "{mode}: {report:?}");
        for (&id, &delivered) in &report.delivered {
            if id != liar {
                assert_eq!(delivered, 3, "{mode}: {id:?} missed a delivery: {report:?}");
            }
        }
        let c = &report.containment;
        assert!(c.corrupt_emissions > 0, "{mode}: liar never lied: {c:?}");
        assert_eq!(c.bound_violations, 0, "{mode}: bound violated: {c:?}");
        if mode == CorruptionMode::ForgeAck {
            assert!(
                c.future_acks_rejected > 0,
                "forged acks never tripped the future-ack rejection: {c:?}"
            );
        }
    }
}

/// The structural limit the suite's topology choice encodes: on a ring,
/// a forged estimate of a *remote* link is adopted at distortion 1 and
/// honest relays of that link (arriving at distortion ≥ 2) can never
/// displace it — the poison outlives the corruption window. This is
/// the containment boundary, not a bug: distortion bounds damage, it
/// does not undo it beyond the endpoints' neighborhoods.
#[test]
fn reconvergence_needs_endpoint_adjacency() {
    let topology = generators::ring(8).unwrap();
    let liar = p(4);
    let scenario = Scenario::builder(topology.clone())
        .seed(0x51A7)
        .faults(FaultScript::new().at(
            SimTime::new(60),
            FaultAction::Corrupt {
                process: liar,
                mode: CorruptionMode::UnderstateDistortion,
                window: 60,
            },
        ))
        .build();
    let mut run = scenario.sim(adversarial_adaptive(&topology, scenario.seed));
    run.run_ticks(400);
    let report = run.report();
    assert_eq!(report.skipped_faults, 0);
    assert_eq!(report.containment.bound_violations, 0, "{report:?}");
    assert!(
        tainted_estimates(&run, &topology, liar) > 0,
        "remote-link poison unexpectedly healed on a ring — if a \
         freshness mechanism was added to adopt_if_better, move the \
         re-convergence assertions onto sparse topologies too"
    );
}

/// The long profile: three corruption windows (one per mode), two
/// suppression windows, and a rotating broadcast stream on a larger
/// complete graph. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "release gate: long adversarial profile (cargo test --release -- --ignored)"]
fn release_gate_exhaustive_containment() {
    let topology = generators::complete(8).unwrap();
    let liar = p(3);
    let correct: Vec<ProcessId> = topology.processes().filter(|&q| q != liar).collect();

    // Broadcasts from rotating correct origins, scheduled outside the
    // suppression windows ([120,140) and [220,240)) — one-shot data
    // trees issued into suppression have no delivery guarantee — but
    // deliberately *inside* every corruption window: lies must not
    // cost deliveries.
    let mut workload = Workload::new();
    let mut expected = 0u64;
    for (i, &at) in [40u64, 70, 100, 160, 190, 260, 290, 330, 360, 400]
        .iter()
        .enumerate()
    {
        workload = workload.broadcast(
            SimTime::new(at),
            correct[i % correct.len()],
            Payload::from(format!("g{i}").into_bytes()),
        );
        expected += 1;
    }

    let mut faults = FaultScript::new();
    for (i, mode) in CorruptionMode::ALL.into_iter().enumerate() {
        faults = faults.at(
            SimTime::new(50 + 100 * i as u64),
            FaultAction::Corrupt {
                process: liar,
                mode,
                window: 60,
            },
        );
    }
    faults = faults
        .at(
            SimTime::new(120),
            FaultAction::MessageAdversary { d: 2, window: 10 },
        )
        .at(
            SimTime::new(140),
            FaultAction::MessageAdversary { d: 0, window: 1 },
        )
        .at(
            SimTime::new(220),
            FaultAction::MessageAdversary { d: 1, window: 20 },
        )
        .at(
            SimTime::new(240),
            FaultAction::MessageAdversary { d: 0, window: 1 },
        );

    let scenario = Scenario::builder(topology.clone())
        .seed(0xE0117)
        .workload(workload)
        .faults(faults)
        .build();

    let mut run = scenario.sim(adversarial_adaptive(&topology, scenario.seed));
    run.run_ticks(500);
    let report = run.report();
    assert_eq!(report.skipped_faults, 0, "{report:?}");
    assert_eq!(report.failed_broadcasts, 0, "{report:?}");
    for &q in &correct {
        assert_eq!(report.delivered[&q], expected, "{q:?}: {report:?}");
    }
    let c = &report.containment;
    assert!(c.corrupt_emissions > 0, "{c:?}");
    assert!(c.corrupt_adoptions > 0, "{c:?}");
    assert!(c.suppressed_emissions > 0, "{c:?}");
    assert!(c.future_acks_rejected > 0, "{c:?}");
    assert_eq!(c.bound_violations, 0, "{c:?}");
    assert_eq!(
        tainted_estimates(&run, &topology, liar),
        0,
        "forged estimates survived all three corruption windows"
    );
}
