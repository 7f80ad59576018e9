//! Conformance suite for the sharded simulation executor.
//!
//! The [`ShardedKernel`](diffuse::sim::ShardedKernel) claims to be
//! *self-reproducible by construction*: for a fixed `(seed, n, workers)`
//! every re-run is byte-identical, `workers == 1` replays the
//! deterministic kernel draw-for-draw, and on loss-free scenarios (where
//! no RNG is consumed) the delivered message sets and wire metrics match
//! the kernel at *any* worker count. This suite pins each of those
//! claims at the scenario level — full [`ScenarioReport`] equality, no
//! tolerance margins — and checks that scripted faults execute at
//! segment barriers with nothing skipped.

use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, ScenarioReport, Workload};
use diffuse::core::{NetworkKnowledge, OptimalBroadcast, Payload, ReferenceGossip};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId};
use diffuse::sim::SimTime;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// A lossy multi-origin gossip scenario on a circulant graph.
fn lossy_scenario(seed: u64) -> (Scenario, u64) {
    let topology = generators::circulant(12, 4).unwrap();
    let mut config = Configuration::new();
    for link in topology.links() {
        config.set_loss(link, Probability::new(0.25).unwrap());
    }
    let scenario = Scenario::builder(topology)
        .config(config)
        .seed(seed)
        .link_delay(2)
        .workload(
            Workload::new()
                .broadcast(SimTime::ZERO, p(0), Payload::from("a"))
                .broadcast(SimTime::new(10), p(7), Payload::from("b"))
                .burst(SimTime::new(20), p(3), 2),
        )
        .build();
    (scenario, 90)
}

/// A loss-free scenario: no RNG is consumed, so every worker count must
/// produce the same deliveries and metrics.
fn loss_free_scenario(seed: u64) -> (Scenario, u64) {
    let topology = generators::circulant(16, 4).unwrap();
    let scenario = Scenario::builder(topology)
        .seed(seed)
        .link_delay(1)
        .workload(
            Workload::new()
                .broadcast(SimTime::ZERO, p(0), Payload::from("x"))
                .broadcast(SimTime::new(5), p(9), Payload::from("y"))
                .stream(p(4), SimTime::new(8), 3, 4),
        )
        .build();
    (scenario, 70)
}

fn gossip(scenario: &Scenario) -> impl FnMut(ProcessId) -> ReferenceGossip + '_ {
    let topology = &scenario.topology;
    let steps = topology.processes().count() as u32 + 2;
    move |id| ReferenceGossip::new(id, topology.neighbors(id).collect(), steps)
}

fn run_sharded(scenario: &Scenario, horizon: u64, workers: usize) -> ScenarioReport {
    scenario.run_sim_sharded(horizon, workers, gossip(scenario))
}

/// Re-running a fixed `(seed, workers)` pair replays byte-identically —
/// the whole report, debug formatting included.
#[test]
fn same_seed_same_worker_count_replays_byte_identically() {
    for seed in [3u64, 17, 0xFEED] {
        let (scenario, horizon) = lossy_scenario(seed);
        for workers in [1usize, 4, 8] {
            let first = run_sharded(&scenario, horizon, workers);
            let again = run_sharded(&scenario, horizon, workers);
            assert_eq!(first, again, "seed {seed}, {workers} workers");
            assert_eq!(
                format!("{first:?}"),
                format!("{again:?}"),
                "seed {seed}, {workers} workers: reports must be byte-identical"
            );
        }
    }
}

/// One worker is the deterministic kernel, draw for draw: shard 0 owns
/// every process and is seeded with the run seed verbatim, so even a
/// lossy run (every loss decision an RNG draw) matches exactly.
#[test]
fn single_worker_matches_the_kernel_draw_for_draw() {
    for seed in [3u64, 17, 0xFEED] {
        let (scenario, horizon) = lossy_scenario(seed);
        let kernel = scenario.run_sim(horizon, gossip(&scenario));
        let sharded = run_sharded(&scenario, horizon, 1);
        assert_eq!(kernel, sharded, "seed {seed}");
    }
}

/// Loss-free scenarios draw no RNG, so the delivered sets and the full
/// wire metrics match the kernel at every worker count.
#[test]
fn loss_free_delivery_sets_match_the_kernel_at_any_worker_count() {
    for seed in [1u64, 42] {
        let (scenario, horizon) = loss_free_scenario(seed);
        let kernel = scenario.run_sim(horizon, gossip(&scenario));
        assert!(
            kernel.delivered.values().any(|&n| n > 0),
            "scenario must deliver something: {kernel:?}"
        );
        for workers in [1usize, 2, 5, 8] {
            let sharded = run_sharded(&scenario, horizon, workers);
            assert_eq!(kernel, sharded, "seed {seed}, {workers} workers");
        }
    }
}

/// Scripted faults (partition, crash, link-loss overrides) execute at
/// segment barriers: none are skipped, and — with every loss probability
/// pinned to 0 or 1 so no RNG outcome is in play — the kernel and all
/// worker counts agree on the full report.
#[test]
fn scripted_faults_execute_at_barriers_with_none_skipped() {
    let topology = generators::circulant(12, 4).unwrap();
    let dead_link = LinkId::new(p(6), p(7)).unwrap();
    let scenario = Scenario::builder(topology)
        .seed(9)
        .link_delay(1)
        .workload(
            Workload::new()
                .broadcast(SimTime::ZERO, p(0), Payload::from("early"))
                .broadcast(SimTime::new(30), p(8), Payload::from("late")),
        )
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(1),
                    FaultAction::SetLoss {
                        link: dead_link,
                        loss: Probability::new(1.0).unwrap(),
                    },
                )
                .at(
                    SimTime::new(3),
                    FaultAction::Partition {
                        island: vec![p(0), p(1), p(2)],
                    },
                )
                .at(
                    SimTime::new(5),
                    FaultAction::Crash {
                        process: p(5),
                        down_ticks: 6,
                    },
                )
                .at(SimTime::new(15), FaultAction::Heal),
        )
        .build();

    let horizon = 80;
    let kernel = scenario.run_sim(horizon, gossip(&scenario));
    assert_eq!(kernel.skipped_faults, 0);
    let metrics = kernel.metrics.as_ref().unwrap();
    assert!(
        metrics.lost_in_link() > 0,
        "the partition and dead link must destroy traffic: {kernel:?}"
    );
    for workers in [1usize, 3, 8] {
        let sharded = run_sharded(&scenario, horizon, workers);
        assert_eq!(sharded.skipped_faults, 0, "{workers} workers");
        assert_eq!(kernel, sharded, "{workers} workers");
    }
}

/// `OptimalBroadcast` ships one shared wire tree per origin, and the
/// first process to forward from an instance fills its plan memo for
/// everyone else — at W > 1 from whichever worker thread gets there
/// first. The memo holds what each receiver would have derived, so the
/// race cannot show: one worker replays the kernel exactly and four
/// workers replay themselves byte for byte, lossy links included.
#[test]
fn optimal_broadcast_shares_its_plan_memo_across_workers() {
    for seed in [3u64, 17, 0xFEED] {
        let (scenario, horizon) = lossy_scenario(seed);
        let knowledge =
            NetworkKnowledge::exact((*scenario.topology).clone(), (*scenario.config).clone());
        let make = |id| OptimalBroadcast::new(id, knowledge.clone(), 0.999);

        let kernel = scenario.run_sim(horizon, make);
        assert!(
            kernel.delivered.values().all(|&n| n > 0),
            "every process must deliver something: {kernel:?}"
        );
        assert_eq!(kernel.failed_broadcasts, 0, "seed {seed}");
        let single = scenario.run_sim_sharded(horizon, 1, make);
        assert_eq!(kernel, single, "seed {seed}");

        let first = scenario.run_sim_sharded(horizon, 4, make);
        let again = scenario.run_sim_sharded(horizon, 4, make);
        assert_eq!(
            format!("{first:?}"),
            format!("{again:?}"),
            "seed {seed}, 4 workers: reports must be byte-identical"
        );
    }
}

/// The adversarial fault family on the sharded executor: a scripted
/// lying node plus a bounded message adversary execute with zero skips
/// at every worker count. One worker replays the kernel draw-for-draw
/// (adversary and suppression streams included); at W > 1 the
/// cross-shard send interleaving differs, so the claim narrows to the
/// executor's own: byte-identical re-runs, nothing skipped, real
/// interference, zero bound violations.
#[test]
fn adversarial_faults_execute_sharded_with_none_skipped() {
    use diffuse::core::{AdaptiveBroadcast, AdaptiveParams, Adversary, CorruptionMode};
    let topology = generators::complete(6).unwrap();
    let liar = p(2);
    let scenario = Scenario::builder(topology.clone())
        .seed(0x5AAD)
        .workload(Workload::new().broadcast(SimTime::new(40), p(0), Payload::from("x")))
        .faults(
            FaultScript::new()
                .at(
                    SimTime::new(20),
                    FaultAction::Corrupt {
                        process: liar,
                        mode: CorruptionMode::UnderstateDistortion,
                        window: 50,
                    },
                )
                .at(
                    SimTime::new(25),
                    FaultAction::MessageAdversary { d: 1, window: 10 },
                )
                .at(
                    SimTime::new(60),
                    FaultAction::MessageAdversary { d: 0, window: 1 },
                ),
        )
        .build();
    let all: Vec<ProcessId> = topology.processes().collect();
    let make = |id: ProcessId| {
        Adversary::new(
            AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                AdaptiveParams::default(),
            ),
            scenario.seed,
        )
    };

    let horizon = 150;
    let kernel = scenario.run_sim(horizon, make);
    assert_eq!(kernel.skipped_faults, 0, "kernel: {kernel:?}");
    assert!(kernel.containment.corrupt_emissions > 0, "{kernel:?}");
    assert!(kernel.containment.suppressed_emissions > 0, "{kernel:?}");
    assert_eq!(kernel.containment.bound_violations, 0, "{kernel:?}");

    let single = scenario.run_sim_sharded(horizon, 1, make);
    assert_eq!(kernel, single, "one worker must replay the kernel");

    for workers in [3usize, 8] {
        let sharded = scenario.run_sim_sharded(horizon, workers, make);
        assert_eq!(sharded.skipped_faults, 0, "{workers} workers: {sharded:?}");
        assert!(
            sharded.containment.corrupt_emissions > 0,
            "{workers} workers: {sharded:?}"
        );
        assert_eq!(
            sharded.containment.bound_violations, 0,
            "{workers} workers: {sharded:?}"
        );
        let again = scenario.run_sim_sharded(horizon, workers, make);
        assert_eq!(
            format!("{sharded:?}"),
            format!("{again:?}"),
            "{workers} workers: re-runs must be byte-identical"
        );
    }
}

/// The acceptance gate for the parallel kernel: at n = 5000 (≥ the
/// 1000-node floor), eight workers must finish a sustained gossip sweep
/// at least twice as fast as the deterministic kernel — while producing
/// the identical report. The workload keeps every tick busy (a fresh
/// broadcast every 3 ticks): barrier synchronization is the sharded
/// executor's fixed cost, so the gate measures it against real per-tick
/// work, not an idle fast-forwarding run.
#[test]
#[ignore = "release-only: wall-clock comparison is meaningless under debug"]
#[allow(clippy::disallowed_methods)] // wall speedup is the measurement
fn eight_workers_at_least_double_kernel_throughput() {
    use std::time::Instant;

    let n = 5000u32;
    let topology = generators::circulant(n, 8).unwrap();
    let mut workload = Workload::new();
    for i in 0..100u32 {
        workload = workload.broadcast(
            SimTime::new(u64::from(i) * 3),
            p((i * 97) % n),
            Payload::from(format!("s{i}").into_bytes()),
        );
    }
    let scenario = Scenario::builder(topology)
        .seed(7)
        .link_delay(1)
        .workload(workload)
        .build();
    let horizon = 500;
    let topology = scenario.topology.clone();
    let make = |id: ProcessId| ReferenceGossip::new(id, topology.neighbors(id).collect(), 8);

    // lint:allow(no-wall-clock): the sharded executor's speedup over the kernel is the quantity under test.
    let started = Instant::now();
    let kernel = scenario.run_sim(horizon, make);
    let kernel_elapsed = started.elapsed();
    // lint:allow(no-wall-clock): the sharded executor's speedup over the kernel is the quantity under test.
    let started = Instant::now();
    let sharded = scenario.run_sim_sharded(horizon, 8, make);
    let sharded_elapsed = started.elapsed();

    assert_eq!(kernel, sharded, "loss-free: reports must match exactly");

    // The 2x bar is a statement about parallel hardware: with fewer
    // than 8 hardware threads the eight workers time-slice one another
    // and the measurement answers a different question. Report instead
    // of asserting there — the byte-equality above ran either way.
    let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
    if threads < 8 {
        eprintln!(
            "speedup assertion skipped: {threads} hardware thread(s) available, need >= 8 \
             (kernel {kernel_elapsed:?}, sharded {sharded_elapsed:?})"
        );
        return;
    }
    assert!(
        sharded_elapsed * 2 <= kernel_elapsed,
        "8 workers must be >= 2x the kernel at n = {n}: kernel {kernel_elapsed:?}, sharded {sharded_elapsed:?}"
    );
}
