//! Micro-benchmarks of the paper's building blocks: MRT construction
//! (Appendix B), the reach function (Eq. 2), the greedy optimizer
//! (Algorithm 2), Bayesian belief updates (Algorithm 5), heartbeat
//! processing (Algorithm 4, Event 1), and the wire codec.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use diffuse_bayes::BeliefEstimator;
use diffuse_bench::{fixture, fixture_tree};
use diffuse_core::{
    optimize, reach, Actions, AdaptiveBroadcast, AdaptiveParams, BroadcastId, DataMessage, Message,
    MessageVector, NetworkKnowledge, OptimalBroadcast, Payload, Protocol, ProtocolActor,
    ReliabilityTree, SelfTimed, SharedWireTree,
};
use diffuse_experiments::scale::{converged_params, KernelOrderSystem};
use diffuse_graph::{generators, maximum_reliability_tree};
use diffuse_model::{Configuration, NetworkIndex, Probability, ProcessId};
use diffuse_net::codec::{decode_message, encode_message};
use diffuse_sim::{SimOptions, SimTime, Simulation};
use rand::SeedableRng;

fn bench_mrt(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrt");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for &(n, k) in &[(100u32, 8u32), (100, 20), (240, 8)] {
        let (topology, config) = fixture(n, k, 0.05);
        group.bench_with_input(
            BenchmarkId::new("prim", format!("n{n}_k{k}")),
            &(topology, config),
            |b, (t, cfg)| b.iter(|| maximum_reliability_tree(t, cfg, ProcessId::new(0)).unwrap()),
        );
    }
    // The graph `crates/e2e`'s gossip workloads build their reference
    // plans on for seed 1: G(10 000, 2 ln n / n), 92 588 links.
    let n = 10_000u32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let edge_probability = 2.0 * f64::from(n).ln() / f64::from(n);
    let topology =
        generators::erdos_renyi_connected_fast(n, edge_probability, 64, &mut rng).unwrap();
    let config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(0.05).unwrap(),
    );
    group.bench_with_input(
        BenchmarkId::new("prim", "er_n10000"),
        &(topology.clone(), config.clone()),
        |b, (t, cfg)| b.iter(|| maximum_reliability_tree(t, cfg, ProcessId::new(1)).unwrap()),
    );
    // The same tree from a knowledge whose index an earlier tree built:
    // Prim and the λ labelling, without the index build.
    let knowledge = NetworkKnowledge::exact(topology, config);
    knowledge.reliability_tree(ProcessId::new(0)).unwrap();
    group.bench_with_input(
        BenchmarkId::new("prim_indexed", "er_n10000"),
        &knowledge,
        |b, k| b.iter(|| k.reliability_tree(ProcessId::new(1)).unwrap()),
    );
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // The gossip workloads' generator for seed 1, connectivity check
    // included: G(10 000, 2 ln n / n).
    let n = 10_000u32;
    let edge_probability = 2.0 * f64::from(n).ln() / f64::from(n);
    group.bench_function(BenchmarkId::new("er_connected_fast", "n10000"), |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            generators::erdos_renyi_connected_fast(n, edge_probability, 64, &mut rng).unwrap()
        })
    });
    // The network index of that graph under its uniform configuration:
    // what a knowledge builds before its first tree and every simulation
    // run's `LaneEnv` builds at instantiation.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let topology =
        generators::erdos_renyi_connected_fast(n, edge_probability, 64, &mut rng).unwrap();
    let config = Configuration::uniform(
        &topology,
        Probability::ZERO,
        Probability::new(0.05).unwrap(),
    );
    group.bench_with_input(
        BenchmarkId::new("index_build", "er_n10000"),
        &(topology, config),
        |b, (t, cfg)| b.iter(|| NetworkIndex::new(t, cfg)),
    );
    group.finish();
}

fn bench_reach_and_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for &(n, loss) in &[(100u32, 0.01f64), (100, 0.07), (240, 0.07)] {
        let tree = fixture_tree(n, 8, loss);
        let m = MessageVector::ones(tree.link_count());
        group.bench_with_input(
            BenchmarkId::new("reach_eq2", format!("n{n}_L{loss}")),
            &tree,
            |b, t| b.iter(|| reach(t, &m)),
        );
        // `optimize` rides the O(L log L) waterfilling solver; the bench
        // id predates it and is kept stable for the BENCH_micro.json
        // trajectory.
        group.bench_with_input(
            BenchmarkId::new("greedy_k9999", format!("n{n}_L{loss}")),
            &tree,
            |b, t| b.iter(|| optimize(t, 0.9999).unwrap()),
        );
    }
    group.finish();
}

/// One first receipt of a data message at an interior node of the
/// n = 240 MRT: deliver, then forward to the children in the shipped
/// tree. `fresh` hands every receipt its own tree instance, as a decoded
/// frame is on the fabric and UDP paths — validate, `optimize`, every
/// time. `shared` hands every receipt the one instance whose plan an
/// earlier receiver already derived, as the sim kernel and
/// `ShardedKernel` do for all but the first of n receivers.
fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let (topology, config) = fixture(240, 8, 0.07);
    let tree = fixture_tree(240, 8, 0.07);
    let root = ProcessId::new(0);
    let receiver = tree.children(root)[0];
    let mut node =
        OptimalBroadcast::new(receiver, NetworkKnowledge::exact(topology, config), 0.9999);
    let mut actions = Actions::new();
    let mut seq = 0u64;
    let mut first_receipt = |tree: SharedWireTree| {
        seq += 1;
        let id = BroadcastId { origin: root, seq };
        let payload = Payload::from("m");
        actions.clear();
        node.handle_message(
            SimTime::new(seq),
            root,
            Message::Data(DataMessage { id, payload, tree }),
            &mut actions,
        );
        actions.sends().len()
    };
    let (_, nodes, parent, lambda) = tree.parts();
    group.bench_function("first_receipt_n240_fresh", |b| {
        b.iter(|| {
            let decoded =
                ReliabilityTree::from_parts(root, nodes.to_vec(), parent.to_vec(), lambda.to_vec());
            first_receipt(Arc::new(decoded.expect("well-formed")))
        })
    });
    let shared = Arc::new(tree.to_wire());
    assert!(
        first_receipt(Arc::clone(&shared)) > 0,
        "the receiver forwards"
    );
    group.bench_function("first_receipt_n240_shared", |b| {
        b.iter(|| first_receipt(Arc::clone(&shared)))
    });
    group.finish();
}

fn bench_bayes(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayes");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("observe_u100", |b| {
        let mut e = BeliefEstimator::new(100);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            e.observe(i % 20 == 0);
        });
    });
    group.bench_function("mean_u100", |b| {
        let mut e = BeliefEstimator::new(100);
        e.decrease_reliability(3);
        e.increase_reliability(97);
        b.iter(|| black_box(e).mean());
    });
    group.finish();
}

fn bench_heartbeat_processing(c: &mut Criterion) {
    // End-to-end cost of one heartbeat round, in the evidence regime
    // (every receipt is fresh Bayesian evidence, so deltas are dense) and
    // in the converged regime (deltas shrink to the self-tick wave).
    let mut group = c.benchmark_group("heartbeat");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let (topo30, _) = fixture(30, 4, 0.0);
    group.bench_function("round_30_nodes", |b| {
        heartbeat_round(b, &topo30, &AdaptiveParams::default())
    });
    let (topo100, _) = fixture(100, 4, 0.0);
    group.bench_function("round_100_nodes", |b| {
        heartbeat_round(b, &topo100, &AdaptiveParams::default())
    });
    group.bench_function("round_100_nodes_converged", |b| {
        heartbeat_round(b, &topo100, &converged_params())
    });
    group.finish();
}

/// One steady-state heartbeat round on every node, past a 400-round
/// warm-up (see [`KernelOrderSystem`]).
fn heartbeat_round(
    b: &mut criterion::Bencher,
    topology: &diffuse_model::Topology,
    params: &AdaptiveParams,
) {
    let mut system = KernelOrderSystem::warmed(topology, params, 400);
    b.iter(|| system.round());
}

/// Per-operation costs of the delta machinery on a converged 100-node
/// system: copy-on-write view sync + delta assembly (`build_delta`),
/// changed-entry merge (`merge_delta`), and the wire codec on a
/// steady-state delta frame.
fn bench_delta_view_ops(c: &mut Criterion) {
    use diffuse_core::{Event, Message};
    let mut group = c.benchmark_group("view");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let (topology, _) = fixture(100, 4, 0.0);
    let all: Vec<ProcessId> = topology.processes().collect();
    let mut system = KernelOrderSystem::warmed(&topology, &converged_params(), 400);
    let mut actions = Actions::new();
    let mut tick = system.now().ticks();
    // A steady-state delta frame (node 1 → node 0) for the merge and
    // codec benches.
    let (sender_idx, receiver_idx) = (1usize, 0usize);
    let delta_message = system
        .pending
        .iter()
        .find(|(target, from, m)| {
            *target as usize == receiver_idx
                && *from == all[sender_idx]
                && matches!(m, Message::Heartbeat(hb) if hb.view.base > 0)
        })
        .map(|(_, _, m)| m.clone())
        .expect("converged system emits delta heartbeats");
    // The ops below call the protocol directly: the timer operations they
    // emit stay in `actions`, as in a kernel handler.
    let nodes = &mut system.nodes;

    group.bench_function("build_delta", |b| {
        // Each iteration is one steady-state emission: CoW cache sync
        // (version walk, nothing to clone) + per-neighbor delta
        // assembly + sends.
        let node = nodes[sender_idx].protocol_mut();
        b.iter(|| {
            tick += 1;
            node.on_event(
                SimTime::new(tick),
                Event::Timer(AdaptiveBroadcast::HEARTBEAT),
                &mut actions,
            );
            let sends = actions.take_sends().len();
            actions.clear();
            sends
        })
    });
    group.bench_function("merge_delta", |b| {
        // Re-merging the same frame under a fresh seq each time (a stale
        // one is dropped unmerged): link reconciliation, the changed-entry
        // walk and the unchanged-entry fast paths run every iteration —
        // the steady-state receive cost.
        let from = all[sender_idx];
        let node = nodes[receiver_idx].protocol_mut();
        let Message::Heartbeat(heartbeat) = &delta_message else {
            unreachable!("picked a heartbeat above")
        };
        let mut seq = heartbeat.seq;
        b.iter(|| {
            seq += 1;
            let mut heartbeat = heartbeat.clone();
            heartbeat.seq = seq;
            node.handle_message(
                SimTime::new(tick),
                from,
                Message::Heartbeat(heartbeat),
                &mut actions,
            );
            actions.clear();
        })
    });
    let frame = encode_message(&delta_message);
    group.bench_function("encode_delta", |b| {
        b.iter(|| encode_message(&delta_message))
    });
    group.bench_function("decode_delta", |b| {
        b.iter(|| decode_message(&frame).unwrap())
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    // A realistic heartbeat from a live 20-node adaptive instance.
    let (topology, _) = fixture(20, 4, 0.0);
    let all: Vec<ProcessId> = topology.processes().collect();
    let mut node = SelfTimed::new(AdaptiveBroadcast::new(
        ProcessId::new(0),
        all,
        topology.neighbors(ProcessId::new(0)).collect(),
        AdaptiveParams::default(),
    ));
    let mut actions = Actions::new();
    node.fire_due(SimTime::new(1), &mut actions);
    let (_, heartbeat) = actions.take_sends().remove(0);
    let frame = encode_message(&heartbeat);
    group.bench_function("encode_heartbeat", |b| {
        b.iter(|| encode_message(&heartbeat))
    });
    group.bench_function("decode_heartbeat", |b| {
        b.iter(|| decode_message(&frame).unwrap())
    });
    group.finish();
}

/// A fig5-style convergence run in the heartbeat-dominated idle regime
/// (δ = 600: almost every tick is idle, so the kernel fast-forwards).
/// The comparison against per-tick polling is made — and asserted — by
/// `tests/event_driven_equivalence.rs`'s release-lane gate.
fn bench_fast_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastforward");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let (topology, config) = fixture(100, 4, 0.0);
    let all: Vec<ProcessId> = topology.processes().collect();
    let delta = 600;
    let ticks = delta * 40;
    let params = AdaptiveParams::default()
        .with_heartbeat_period(delta)
        .with_self_tick_period(delta);

    group.bench_function("fig5_event_driven_d600", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                &topology,
                &config,
                |id| {
                    ProtocolActor::new(AdaptiveBroadcast::new(
                        id,
                        all.clone(),
                        topology.neighbors(id).collect(),
                        params.clone(),
                    ))
                },
                SimOptions::default().with_seed(1),
            );
            sim.run_ticks(ticks);
            sim.metrics().sent_total()
        })
    });
    group.finish();
}

/// The sharded executor against the deterministic kernel on one busy
/// gossip scenario: same seed, same reports (asserted once up front),
/// different execution engines. The workers/kernel ratio recorded in
/// BENCH_micro.json is a statement about the benchmark host — on a
/// single-core machine barrier lockstep is pure overhead and the ratio
/// sits at or below 1x; with ≥ 4 hardware threads it is the parallel
/// speedup.
fn bench_sharded_executor(c: &mut Criterion) {
    use diffuse_core::scenario::{Scenario, Workload};
    use diffuse_core::{Payload, ReferenceGossip};

    let n = 1000u32;
    let topology = generators::circulant(n, 8).unwrap();
    let mut workload = Workload::new();
    for i in 0..10u32 {
        workload = workload.broadcast(
            SimTime::new(u64::from(i) * 3),
            ProcessId::new((i * 97) % n),
            Payload::from(format!("b{i}").into_bytes()),
        );
    }
    let scenario = Scenario::builder(topology)
        .seed(7)
        .link_delay(1)
        .workload(workload)
        .build();
    let horizon = 80;
    let topology = scenario.topology.clone();
    let make = |id: ProcessId| ReferenceGossip::new(id, topology.neighbors(id).collect(), 8);

    // Loss-free scenario: every engine must produce the identical
    // report before its timing means anything.
    let kernel_report = scenario.run_sim(horizon, make);
    for workers in [4usize, 8] {
        let sharded = scenario.run_sim_sharded(horizon, workers, make);
        assert_eq!(kernel_report, sharded, "{workers} workers");
    }

    let mut group = c.benchmark_group("shard");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    group.bench_function("kernel/n1000", |b| {
        b.iter(|| scenario.run_sim(horizon, make))
    });
    group.bench_function("workers4/n1000", |b| {
        b.iter(|| scenario.run_sim_sharded(horizon, 4, make))
    });
    group.bench_function("workers8/n1000", |b| {
        b.iter(|| scenario.run_sim_sharded(horizon, 8, make))
    });
    group.finish();
}

/// The tick engine's per-message cost with almost no protocol on top:
/// one reference-gossip broadcast flooding a generated
/// `G(10 000, 2 ln n / n)` on the kernel, instantiate to report. The row
/// is the whole run; divide by the message count printed once up front
/// (a function of the fixed seed only) for ns per message. The same
/// shape as `crates/e2e`'s `gossip_flood_n10k`, at a quarter of its
/// broadcasts.
fn bench_engine_flood(c: &mut Criterion) {
    use diffuse_core::scenario::{Scenario, Workload};
    use diffuse_core::ReferenceGossip;

    let n = 10_000u32;
    let edge_probability = 2.0 * f64::from(n).ln() / f64::from(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let topology =
        generators::erdos_renyi_connected_fast(n, edge_probability, 64, &mut rng).unwrap();
    let scenario = Scenario::builder(topology)
        .seed(1)
        .workload(Workload::new().broadcast(SimTime::ZERO, ProcessId::new(0), Payload::from("m")))
        .build();
    let horizon = 24;
    let topology = &scenario.topology;
    let make = |id: ProcessId| ReferenceGossip::new(id, topology.neighbors(id).collect(), 8);

    let report = scenario.run_sim(horizon, make);
    assert!(report.all_delivered_at_least(1), "the flood must saturate");
    let sent = report.metrics.as_ref().map_or(0, |m| m.sent_total());
    println!("engine/flood_n10k_msgs: {sent} messages per iteration");

    let mut group = c.benchmark_group("engine");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    group.bench_function("flood_n10k_msgs", |b| {
        b.iter(|| scenario.run_sim(horizon, make))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_graph,
    bench_mrt,
    bench_reach_and_optimize,
    bench_plan,
    bench_bayes,
    bench_heartbeat_processing,
    bench_delta_view_ops,
    bench_codec,
    bench_fast_forward,
    bench_sharded_executor,
    bench_engine_flood
);
criterion_main!(benches);
