//! Delta heartbeats against the full views they stand for: a run must be
//! **bit-identical** whether its delta heartbeats arrive as deltas or
//! are expanded, in flight, into the sender's whole `(Λ_k, C_k)` view.
//!
//! Algorithm 4 (line 17) has every heartbeat carry the full view; the
//! adaptive protocol sends cumulative deltas instead, and that is an
//! optimization with a proof obligation. [`ExpandDeltas`] discharges it
//! without a second production path: it wraps a node and rewrites every
//! outgoing delta into [`AdaptiveBroadcast::view`] — built naively from
//! the node's live estimates, sharing nothing with the emission cache
//! the delta was cut from — with the same `seq` and `ack`. Receivers
//! then merge every heartbeat as a full view. The plain run and the
//! expanded run must agree on per-node estimates bit for bit, broadcast
//! plans, error counts and the whole [`ScenarioReport`] (deliveries and
//! wire `Metrics`) across random topologies, per-link loss, heartbeat
//! periods, forced outages and stochastic crash models. Heartbeat
//! *sends* are one per neighbor per period either way, so the kernel's
//! loss stream consumes identically and both runs see the same drops;
//! everything after that is on the merge logic, which these tests pin
//! down.

use std::collections::BTreeMap;
use std::sync::Arc;

use diffuse::bayes::Estimate;
use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, ScenarioReport, Workload};
use diffuse::core::{
    Actions, AdaptiveBroadcast, AdaptiveParams, BroadcastId, CoreError, Event, Message, Payload,
    Protocol, ProtocolAudit, View,
};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse::net::run_scenario_on_fabric_virtual;
use diffuse::sim::{CrashModel, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// An adaptive node whose delta heartbeats leave it as the full view
/// they stand for. Like `core::Adversary`, it rewrites what each wrapped
/// call appended to the sends.
struct ExpandDeltas(AdaptiveBroadcast);

impl Protocol for ExpandDeltas {
    fn id(&self) -> ProcessId {
        self.0.id()
    }

    fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
        self.0.on_start(now, actions);
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        let kept = actions.sends().len();
        self.0.on_event(now, event, actions);
        let mut full: Option<Arc<View>> = None;
        for (i, (to, message)) in actions.take_sends().into_iter().enumerate() {
            let message = match message {
                Message::Heartbeat(mut hb) if i >= kept => {
                    if hb.view.base > 0 {
                        let view = full.get_or_insert_with(|| Arc::new(self.0.view()));
                        assert_eq!(
                            view.generation, hb.view.generation,
                            "a delta is stamped with the view it was cut from"
                        );
                        hb.view = Arc::clone(view);
                    }
                    Message::Heartbeat(hb)
                }
                other => other,
            };
            actions.send(to, message);
        }
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        self.0.broadcast(now, payload, actions)
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        self.0.delivered()
    }

    fn audit(&self) -> ProtocolAudit {
        self.0.audit()
    }
}

/// Exact fingerprint of an estimate: its distortion and its two counts.
fn estimate_bits(e: &Estimate) -> Vec<u64> {
    let distortion = e.distortion().value().map_or(u64::MAX, u64::from);
    let beliefs = e.beliefs();
    vec![
        distortion,
        u64::from(beliefs.failures()),
        u64::from(beliefs.successes()),
    ]
}

/// Bit-exact fingerprint of a node's entire knowledge state.
fn node_bits(node: &AdaptiveBroadcast) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    for q in node.known_topology().processes() {
        out.push(estimate_bits(
            node.process_estimate(q).expect("known process"),
        ));
    }
    for l in node.known_topology().links() {
        out.push(estimate_bits(node.link_estimate(l).expect("known link")));
    }
    out
}

/// Per-node state fingerprints, broadcast plans and error counts, and
/// the scenario report of one run.
type Outcome = (
    Vec<Vec<Vec<u64>>>,
    Vec<Option<String>>,
    Vec<u64>,
    ScenarioReport,
);

/// Runs `scenario` for `ticks` with every node wrapped by `wrap` and
/// returns what the two runs must agree on.
fn run<P: Protocol>(
    scenario: &Scenario,
    ticks: u64,
    params: &AdaptiveParams,
    wrap: impl Fn(AdaptiveBroadcast) -> P,
    inner: impl Fn(&P) -> &AdaptiveBroadcast,
) -> Outcome {
    let topology = scenario.topology.clone();
    let all: Vec<ProcessId> = topology.processes().collect();
    let mut sim = scenario.sim(|id| {
        wrap(AdaptiveBroadcast::new(
            id,
            all.clone(),
            topology.neighbors(id).collect(),
            params.clone(),
        ))
    });
    sim.run_ticks(ticks);
    let (mut states, mut plans, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    for &id in &all {
        let node = inner(sim.sim().node(id).expect("node exists").protocol());
        states.push(node_bits(node));
        // The broadcast plan a node would derive right now — the thing
        // receivers must be able to re-derive bit-identically.
        plans.push(if node.topology_complete() {
            node.knowledge_snapshot()
                .broadcast_plan(id, node.params().target_reliability)
                .ok()
                .map(|(tree, plan)| format!("{tree:?}|{plan:?}"))
        } else {
            None
        });
        errors.push(node.error_count());
    }
    (states, plans, errors, sim.report())
}

/// Renames process `i` of a generated topology (ids `0..n`) to
/// `7 + 3·π(i)` for a permutation `π` drawn from `rng`: a node's slot in
/// the sorted membership then differs from its id, and it learns links
/// out of `LinkId` order.
fn relabel(topology: &Topology, rng: &mut StdRng) -> Topology {
    let mut pi: Vec<u32> = (0..topology.process_count() as u32).collect();
    pi.shuffle(rng);
    let label = |q: ProcessId| p(7 + 3 * pi[q.index() as usize]);
    let mut out = Topology::new();
    for link in topology.links() {
        let (a, b) = link.endpoints();
        out.add_link(label(a), label(b)).unwrap();
    }
    out
}

/// A seeded random scenario exercising loss, partitions, crashes,
/// degradation and workload broadcasts, on ids `0..n` or `relabel`led.
fn random_scenario(seed: u64, relabelled: bool) -> (Scenario, AdaptiveParams, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4u32..=9);
    let mut topology = match rng.gen_range(0u32..4) {
        0 => generators::ring(n).unwrap(),
        1 => generators::circulant(n.max(5), 4).unwrap(),
        2 => generators::line(n).unwrap(),
        _ => generators::star(n).unwrap(),
    };
    if relabelled {
        topology = relabel(&topology, &mut rng);
    }
    let mut config = Configuration::new();
    for link in topology.links() {
        config.set_loss(link, Probability::new(rng.gen_range(0.0..0.4)).unwrap());
    }
    let processes: Vec<ProcessId> = topology.processes().collect();
    let horizon = rng.gen_range(40u64..=120);

    let mut workload = Workload::new();
    if rng.gen_bool(0.7) {
        let origin = processes[rng.gen_range(0..processes.len())];
        workload = workload.broadcast(
            SimTime::new(rng.gen_range(0..horizon / 2)),
            origin,
            Payload::from("w"),
        );
    }
    let mut faults = FaultScript::new();
    if rng.gen_bool(0.6) {
        let island_size = rng.gen_range(1..processes.len());
        let cut_at = rng.gen_range(0..horizon / 2);
        faults = faults
            .at(
                SimTime::new(cut_at),
                FaultAction::Partition {
                    island: processes[..island_size].to_vec(),
                },
            )
            .at(
                SimTime::new(cut_at + rng.gen_range(5u64..20)),
                FaultAction::Heal,
            );
    }
    if rng.gen_bool(0.6) {
        faults = faults.at(
            SimTime::new(rng.gen_range(0..horizon)),
            FaultAction::Crash {
                process: processes[rng.gen_range(0..processes.len())],
                down_ticks: rng.gen_range(1..=12),
            },
        );
    }
    let crash_model = match rng.gen_range(0u32..3) {
        0 => CrashModel::AlwaysUp,
        1 => CrashModel::Bernoulli {
            p: Probability::new(0.03).unwrap(),
        },
        _ => CrashModel::Markov {
            p: Probability::new(0.05).unwrap(),
            mean_downtime: 3.0,
        },
    };
    let scenario = Scenario::builder(topology)
        .config(config)
        .seed(rng.gen_range(0..u64::MAX / 2))
        .crash_model(crash_model)
        .workload(workload)
        .faults(faults)
        .build();
    let params = AdaptiveParams::default()
        .with_intervals([8, 16, 100][rng.gen_range(0..3usize)])
        .with_heartbeat_period(rng.gen_range(1..=4))
        .with_self_tick_period(rng.gen_range(1..=6));
    (scenario, params, horizon)
}

fn assert_expansion_invisible(seed: u64, relabelled: bool) {
    let (scenario, params, horizon) = random_scenario(seed, relabelled);
    let (states, plans, errors, report) = run(&scenario, horizon, &params, |n| n, |n| n);
    let (x_states, x_plans, x_errors, x_report) =
        run(&scenario, horizon, &params, ExpandDeltas, |n| &n.0);
    assert_eq!(
        states, x_states,
        "per-node estimates diverged (seed {seed})"
    );
    assert_eq!(plans, x_plans, "broadcast plans diverged (seed {seed})");
    assert_eq!(errors, x_errors, "error counts diverged (seed {seed})");
    assert_eq!(
        report, x_report,
        "reports (deliveries / wire metrics) diverged (seed {seed})"
    );
}

/// The fixed regression matrix: every seed expands into a different
/// topology family, loss configuration, fault script and crash model,
/// every other one relabelled.
#[test]
fn full_and_delta_views_are_bit_identical_across_the_matrix() {
    let seeds = [1u64, 2, 3, 5, 8, 13, 21, 0xDE17A, 0xFAB, 0xC0FFEE];
    for (i, seed) in seeds.into_iter().enumerate() {
        assert_expansion_invisible(seed, i % 2 == 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form: arbitrary seeds, same bit-identity.
    #[test]
    fn prop_full_and_delta_views_are_bit_identical(seed in any::<u64>(), relabelled in any::<bool>()) {
        assert_expansion_invisible(seed, relabelled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    #[ignore = "large case count; CI runs it in release via --include-ignored"]
    fn prop_full_and_delta_views_are_bit_identical_at_scale(
        seed in any::<u64>(),
        relabelled in any::<bool>(),
    ) {
        assert_expansion_invisible(seed, relabelled);
    }
}

/// Every heartbeat of the expanded run is a full frame, so here each one
/// crosses `net::codec`'s full-view encoding — and the virtual fabric
/// must still tell the kernel's story bit for bit.
#[test]
fn expanded_full_frames_cross_the_codec_unchanged() {
    for seed in [11u64, 42, 0xADA] {
        let (scenario, params, horizon) = random_scenario(seed, false);
        let topology = scenario.topology.clone();
        let all: Vec<ProcessId> = topology.processes().collect();
        let make = |id: ProcessId| {
            ExpandDeltas(AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                params.clone(),
            ))
        };
        assert_eq!(
            scenario.run_sim(horizon, make),
            run_scenario_on_fabric_virtual(&scenario, horizon, make),
            "seed {seed}: kernel and virtual fabric disagree on expanded frames"
        );
    }
}

/// Manual-drive harness: routes every send instantly unless the drop
/// filter claims it.
fn drive_round<P: Protocol>(
    nodes: &mut [P],
    now: SimTime,
    drop: &mut dyn FnMut(ProcessId, ProcessId, &Message) -> bool,
) {
    let mut actions = Actions::new();
    let mut pending: Vec<(ProcessId, ProcessId, Message)> = Vec::new();
    for node in nodes.iter_mut() {
        for timer in [
            AdaptiveBroadcast::HEARTBEAT,
            AdaptiveBroadcast::SUSPICION,
            AdaptiveBroadcast::SELF_TICK,
        ] {
            node.on_event(now, Event::Timer(timer), &mut actions);
        }
        let from = node.id();
        for (to, m) in actions.take_sends() {
            pending.push((from, to, m));
        }
        actions.clear();
    }
    for (from, to, m) in pending {
        if drop(from, to, &m) {
            continue;
        }
        if let Some(node) = nodes.iter_mut().find(|n| n.id() == to) {
            node.handle_message(now, from, m, &mut actions);
            actions.clear();
        }
    }
}

/// The line `0 — 1 — … — n-1`.
fn line(n: u32) -> Vec<AdaptiveBroadcast> {
    let all: Vec<ProcessId> = (0..n).map(p).collect();
    let params = AdaptiveParams::default().with_intervals(16);
    (0..n)
        .map(|i| {
            let neighbors = [i.checked_sub(1), (i + 1 < n).then_some(i + 1)];
            let neighbors = neighbors.into_iter().flatten().map(p).collect();
            AdaptiveBroadcast::new(p(i), all.clone(), neighbors, params.clone())
        })
        .collect()
}

/// Losing delta heartbeats can never wedge convergence: deltas are
/// cumulative since the receiver's last acknowledged generation, so the
/// next one that arrives covers everything the lost ones carried. An
/// expanded twin run with the *same* drop pattern stays bit-identical
/// throughout — including across the loss window and the recovery.
#[test]
fn lost_deltas_recover_and_match_the_full_view_twin() {
    let mut full: Vec<ExpandDeltas> = line(3).into_iter().map(ExpandDeltas).collect();
    let mut delta = line(3);
    // Drop every 1→0 heartbeat during ticks 20..30 (by then the system
    // is warmed up and rides deltas), plus a scattered tail.
    let dropper = |from: ProcessId, to: ProcessId, now: u64| {
        (from, to) == (p(1), p(0)) && ((20..30).contains(&now) || now % 7 == 0)
    };
    for t in 1..=60u64 {
        let now = SimTime::new(t);
        let mut full_drop = |from: ProcessId, to: ProcessId, _m: &Message| dropper(from, to, t);
        drive_round(&mut full, now, &mut full_drop);
        let mut delta_drop = |from: ProcessId, to: ProcessId, _m: &Message| dropper(from, to, t);
        drive_round(&mut delta, now, &mut delta_drop);
        for (f, d) in full.iter().zip(delta.iter()) {
            assert_eq!(
                node_bits(&f.0),
                node_bits(d),
                "tick {t}: node {} diverged",
                d.id()
            );
            assert_eq!(f.0.error_count(), d.error_count(), "tick {t}");
        }
    }
    // Convergence was not wedged: the link estimates settled despite
    // the losses, identically in both runs.
    let l01 = LinkId::new(p(0), p(1)).unwrap();
    let full_loss = full[0].0.estimated_loss(l01).unwrap().value();
    let delta_loss = delta[0].estimated_loss(l01).unwrap().value();
    assert_eq!(full_loss.to_bits(), delta_loss.to_bits());
}

/// After a loss window the next arriving delta has a base no newer than
/// the receiver's last merged generation (the ack protocol guarantees
/// it), so it applies — the "generation gap" a lost frame opens is
/// closed by cumulative deltas, never by a wedged mirror.
#[test]
fn delta_bases_never_outrun_the_receiver() {
    let mut nodes = line(3);
    let mut last_merged_0_from_1 = 0u64; // generation p0 last merged from p1
    for t in 1..=80u64 {
        let now = SimTime::new(t);
        let mut check = |from: ProcessId, to: ProcessId, m: &Message| -> bool {
            if let Message::Heartbeat(hb) = m {
                if (from, to) == (p(1), p(0)) {
                    let d = &hb.view;
                    if d.base > 0 {
                        // Drop a third of them — the survivors must
                        // still be applicable.
                        if t % 3 == 0 {
                            return true;
                        }
                        assert!(
                            d.base <= last_merged_0_from_1,
                            "tick {t}: delta base {} outran receiver at {}",
                            d.base,
                            last_merged_0_from_1
                        );
                    }
                    last_merged_0_from_1 = d.generation;
                }
            }
            false
        };
        drive_round(&mut nodes, now, &mut check);
    }
    assert!(last_merged_0_from_1 > 0, "p0 merged frames from p1");
    // And no defensive drop ever fired: every surviving frame applied.
    assert_eq!(nodes[0].error_count(), 0);
}

/// A link learned after first contact rides a delta, and the receiver
/// learns it there. On the line `0 — 1 — 2 — 3 — 4`, p1 sends p0 full
/// views until p0's first ack comes back (t ≤ 2) and deltas after; p1
/// learns link 3–4 at t2, and p0 learns it from p1's t3 delta. The twin
/// run, whose deltas are expanded into full views, stays bit-identical
/// at every tick.
#[test]
fn new_links_ride_deltas_after_first_contact() {
    let mut full: Vec<ExpandDeltas> = line(5).into_iter().map(ExpandDeltas).collect();
    let mut delta = line(5);
    let l34 = LinkId::new(p(3), p(4)).unwrap();
    let mut kinds: Vec<(u64, bool)> = Vec::new(); // p1 → p0: (tick, is_full)
    for t in 1..=12u64 {
        let now = SimTime::new(t);
        drive_round(&mut full, now, &mut |_, _, _| false);
        let mut capture = |from: ProcessId, to: ProcessId, m: &Message| -> bool {
            if let (true, Message::Heartbeat(hb)) = ((from, to) == (p(1), p(0)), m) {
                kinds.push((t, hb.view.base == 0));
            }
            false
        };
        drive_round(&mut delta, now, &mut capture);
        assert_eq!(delta[0].link_estimate(l34).is_some(), t >= 3, "tick {t}");
        for (f, d) in full.iter().zip(delta.iter()) {
            assert_eq!(node_bits(&f.0), node_bits(d), "tick {t}: node {}", d.id());
            assert_eq!(f.0.error_count(), d.error_count(), "tick {t}");
        }
    }
    let fulls: Vec<u64> = kinds.iter().filter(|k| k.1).map(|k| k.0).collect();
    assert_eq!(fulls, [1, 2], "{kinds:?}");
    assert!(delta
        .iter()
        .all(|n| n.topology_complete() && n.error_count() == 0));
}

/// An adaptive node that counts the full views it sends each neighbor.
struct CountFull(AdaptiveBroadcast, BTreeMap<ProcessId, u32>);

impl Protocol for CountFull {
    fn id(&self) -> ProcessId {
        self.0.id()
    }

    fn on_start(&mut self, now: SimTime, actions: &mut Actions) {
        self.0.on_start(now, actions);
    }

    fn on_event(&mut self, now: SimTime, event: Event, actions: &mut Actions) {
        let kept = actions.sends().len();
        self.0.on_event(now, event, actions);
        for (to, message) in &actions.sends()[kept..] {
            if let Message::Heartbeat(hb) = message {
                if hb.view.base == 0 {
                    *self.1.entry(*to).or_default() += 1;
                }
            }
        }
    }

    fn broadcast(
        &mut self,
        now: SimTime,
        payload: Payload,
        actions: &mut Actions,
    ) -> Result<BroadcastId, CoreError> {
        self.0.broadcast(now, payload, actions)
    }

    fn delivered(&self) -> &[(BroadcastId, Payload)] {
        self.0.delivered()
    }
}

/// Full views go only to a neighbor that has acknowledged none: on a
/// lossless circulant(30, 4), dense and relabelled, every node sends
/// each neighbor one or two — the first, and one more while its ack is
/// a round on the way — although every `Λ_k` keeps growing for
/// several rounds after.
#[test]
fn full_views_go_only_to_neighbors_that_acked_none() {
    let mut rng = StdRng::seed_from_u64(30);
    let dense = generators::circulant(30, 4).unwrap();
    for topology in [relabel(&dense, &mut rng), dense] {
        let all: Vec<ProcessId> = topology.processes().collect();
        let scenario = Scenario::builder(topology.clone())
            .config(Configuration::uniform(
                &topology,
                Probability::ZERO,
                Probability::ZERO,
            ))
            .build();
        let mut sim = scenario.sim(|id| {
            CountFull(
                AdaptiveBroadcast::new(
                    id,
                    all.clone(),
                    topology.neighbors(id).collect(),
                    AdaptiveParams::default(),
                ),
                BTreeMap::new(),
            )
        });
        sim.run_ticks(40);
        for &id in &all {
            let CountFull(node, fulls) = sim.sim().node(id).unwrap().protocol();
            assert!(node.topology_complete(), "{id:?}");
            assert_eq!(node.error_count(), 0, "{id:?}");
            for to in topology.neighbors(id) {
                let sent = fulls.get(&to).copied().unwrap_or(0);
                assert!(
                    (1..=2).contains(&sent),
                    "{id:?} → {to:?}: {sent} full views"
                );
            }
        }
    }
}

/// Sanity: steady-state frames really are small deltas — first-contact
/// frames are full views, converged ones undercut them on the wire.
#[test]
fn steady_state_frames_are_small_deltas() {
    let topology = generators::circulant(10, 4).unwrap();
    let all: Vec<ProcessId> = topology.processes().collect();
    let params = AdaptiveParams::default().with_intervals(16);
    let mut nodes: Vec<AdaptiveBroadcast> = all
        .iter()
        .map(|&id| {
            AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                params.clone(),
            )
        })
        .collect();
    let mut max_full_size = 0usize;
    let mut tick1_all_full = true;
    let mut final_tick_delta_sizes: Vec<usize> = Vec::new();
    for t in 1..=40u64 {
        let now = SimTime::new(t);
        let mut capture = |_from: ProcessId, _to: ProcessId, m: &Message| -> bool {
            if let Message::Heartbeat(hb) = m {
                let v = &hb.view;
                if v.base == 0 {
                    max_full_size = max_full_size.max(v.wire_size());
                } else {
                    if t == 1 {
                        tick1_all_full = false;
                    }
                    if t == 40 {
                        final_tick_delta_sizes.push(v.wire_size());
                    }
                }
            }
            false
        };
        drive_round(&mut nodes, now, &mut capture);
    }
    assert!(tick1_all_full, "first contact must be full views");
    assert!(
        !final_tick_delta_sizes.is_empty(),
        "steady state must ride deltas"
    );
    assert!(
        final_tick_delta_sizes.iter().all(|&s| s < max_full_size),
        "steady-state deltas {final_tick_delta_sizes:?} must undercut full views ({max_full_size} B)"
    );
}
