//! Layer probes: a layer's public function called directly on this
//! workload's own inputs, giving a unit cost. Multiplied by a count
//! taken from the run's `Metrics`, a unit cost becomes an *estimate* of
//! that layer's share of the run — labelled as such wherever printed.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use diffuse_bayes::{BeliefEstimator, DEFAULT_INTERVALS};
use diffuse_core::{
    optimize, Actions, AdaptiveBroadcast, Event, Message, Payload, Protocol, ReliabilityTree,
    DEFAULT_EVIDENCE_BATCH,
};
use diffuse_graph::maximum_reliability_tree;
use diffuse_model::ProcessId;
use diffuse_net::codec::{decode_message, encode_message};
use diffuse_sim::{LossBatcher, SimTime, TimerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::exec::{adaptive_params, with_make};
use crate::measure::now;
use crate::workloads::{Inputs, ProtocolKind, TARGET_K};

/// Unit costs measured on one workload's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Probes {
    /// The plan path; `None` for gossip, which never builds a tree.
    pub plan: Option<PlanProbes>,
    /// Only on adaptive workloads.
    pub adaptive_us_per_node_round: Option<f64>,
    pub bayes_observe_ns: f64,
    /// `None` on loss-free workloads: the sampler is never consulted.
    pub loss_ns_per_draw: Option<f64>,
    pub encode_us: f64,
    pub decode_us: f64,
    /// Mean encoded size of the probed frames.
    pub frame_bytes: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct PlanProbes {
    pub mrt_us: f64,
    pub from_wire_us: f64,
    pub optimize_us: f64,
}

/// Calls `f` until `budget_s` host seconds have passed (at least three
/// times) and returns the seconds one call took.
fn seconds_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if calls >= 3 && elapsed >= budget_s {
            return elapsed / f64::from(calls);
        }
    }
}

/// Runs every probe, each for about `budget_s / 8` seconds.
pub fn run(inputs: &Inputs, seed: u64, budget_s: f64) -> Probes {
    let slice = budget_s / 8.0;
    let topology = &inputs.scenario.topology;
    let config = &inputs.scenario.config;
    let origin = *inputs.origins.first().expect("workloads broadcast");

    let plan = (inputs.protocol != ProtocolKind::Gossip).then(|| {
        let mrt_s = seconds_per_call(slice, || {
            black_box(
                maximum_reliability_tree(black_box(topology), config, origin).expect("connected"),
            );
        });
        let tree = inputs
            .knowledge
            .reliability_tree(origin)
            .expect("connected");
        let wire = tree.to_wire();
        let from_wire_s = seconds_per_call(slice, || {
            black_box(ReliabilityTree::from_wire(black_box(&wire)).expect("well-formed"));
        });
        let optimize_s = seconds_per_call(slice, || {
            black_box(optimize(black_box(&tree), TARGET_K).expect("reachable target"));
        });
        PlanProbes {
            mrt_us: mrt_s * 1e6,
            from_wire_us: from_wire_s * 1e6,
            optimize_us: optimize_s * 1e6,
        }
    });

    const BATCH: u32 = 4096;
    let mut estimator = BeliefEstimator::new(DEFAULT_INTERVALS);
    let bayes_s = seconds_per_call(slice, || {
        // One failure in 32 keeps the posterior away from both ends.
        for i in 0..BATCH {
            estimator.observe(i % 32 == 0);
        }
        black_box(&estimator);
    }) / f64::from(BATCH);

    let loss_ns_per_draw = (inputs.base_loss > 0.0).then(|| {
        let links: Vec<(ProcessId, ProcessId)> = topology
            .links()
            .take(BATCH as usize)
            .map(|l| l.endpoints())
            .collect();
        let mut batcher = LossBatcher::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let per_batch = seconds_per_call(slice, || {
            let mut dropped = 0u32;
            for &(from, to) in &links {
                dropped += u32::from(batcher.should_drop(from, to, inputs.base_loss, &mut rng));
            }
            black_box(dropped);
        });
        per_batch * 1e9 / links.len() as f64
    });

    let (adaptive_us_per_node_round, frames) = if inputs.protocol == ProtocolKind::Adaptive {
        let mut nodes = DirectNodes::new(inputs);
        // Twice the process count covers topology discovery over any
        // connected graph; past it heartbeats carry steady-state deltas.
        // Those deltas are a few dozen bytes except when an evidence
        // batch flushes, so the codec is probed on everything sent over
        // one whole batch period.
        let warm_up = (2 * inputs.all.len()).max(40);
        let mut frames = Vec::new();
        for round in 0..warm_up {
            nodes.round();
            if round + (DEFAULT_EVIDENCE_BATCH as usize) >= warm_up {
                frames.extend(nodes.in_flight.iter().map(|(_, _, m)| m.clone()));
            }
        }
        let per_round = seconds_per_call(2.0 * slice, || nodes.round());
        (Some(per_round * 1e6 / inputs.all.len() as f64), frames)
    } else {
        (None, vec![first_data_message(inputs, origin)])
    };

    let encoded: Vec<_> = frames.iter().map(encode_message).collect();
    let encode_s = seconds_per_call(slice, || {
        for frame in &frames {
            black_box(encode_message(black_box(frame)));
        }
    }) / frames.len() as f64;
    let decode_s = seconds_per_call(slice, || {
        for bytes in &encoded {
            black_box(decode_message(black_box(bytes)).expect("own frames decode"));
        }
    }) / frames.len() as f64;
    let frame_bytes = encoded.iter().map(|b| b.len()).sum::<usize>() as f64 / frames.len() as f64;

    Probes {
        plan,
        adaptive_us_per_node_round,
        bayes_observe_ns: bayes_s * 1e9,
        loss_ns_per_draw,
        encode_us: encode_s * 1e6,
        decode_us: decode_s * 1e6,
        frame_bytes,
    }
}

/// The first message `origin` sends after it broadcasts: the frame this
/// workload's protocol puts on the wire. Gossip sends from its step
/// timer, not from `broadcast`, so armed timers are fired until
/// something is sent.
fn first_data_message(inputs: &Inputs, origin: ProcessId) -> Message {
    let mut actions = Actions::new();
    with_make!(inputs, make => {
        let mut node = make(origin);
        node.on_start(SimTime::ZERO, &mut actions);
        node.broadcast(SimTime::ZERO, Payload::from("probe"), &mut actions)
            .expect("exact knowledge and gossip can always broadcast");
        while actions.sends().is_empty() {
            let (timer, at) = actions
                .take_timer_ops()
                .into_iter()
                .find_map(|(timer, at)| at.map(|at| (timer, at)))
                .expect("a broadcast either sends or arms a timer");
            node.on_event(at, Event::Timer(timer), &mut actions);
        }
    });
    actions.take_sends().swap_remove(0).1
}

/// The workload's adaptive nodes, driven directly through
/// `Protocol::on_start` / `on_event` in the kernel's phase order
/// (deliveries in send order, then due timers in `(process, timer)`
/// order) over loss-free unit-delay links — the protocol layer with no
/// kernel underneath.
struct DirectNodes {
    now: SimTime,
    nodes: Vec<AdaptiveBroadcast>,
    deadlines: BTreeMap<(usize, TimerId), SimTime>,
    due: BTreeSet<(SimTime, usize, TimerId)>,
    /// Sent this round, delivered next: `(from, to, message)`.
    in_flight: Vec<(ProcessId, usize, Message)>,
    actions: Actions,
}

impl DirectNodes {
    fn new(inputs: &Inputs) -> Self {
        let params = adaptive_params();
        let mut this = DirectNodes {
            now: SimTime::ZERO,
            nodes: inputs
                .all
                .iter()
                .map(|&id| {
                    AdaptiveBroadcast::new(
                        id,
                        inputs.all.clone(),
                        inputs.neighbors[&id].clone(),
                        params.clone(),
                    )
                })
                .collect(),
            deadlines: BTreeMap::new(),
            due: BTreeSet::new(),
            in_flight: Vec::new(),
            actions: Actions::new(),
        };
        for i in 0..this.nodes.len() {
            this.nodes[i].on_start(this.now, &mut this.actions);
            this.apply(i);
        }
        this
    }

    /// Applies what node `i`'s last handler left in `actions`.
    fn apply(&mut self, i: usize) {
        let from = self.nodes[i].id();
        for (timer, at) in self.actions.take_timer_ops() {
            if let Some(old) = self.deadlines.remove(&(i, timer)) {
                self.due.remove(&(old, i, timer));
            }
            if let Some(at) = at {
                self.deadlines.insert((i, timer), at);
                self.due.insert((at, i, timer));
            }
        }
        for (to, message) in self.actions.take_sends() {
            self.in_flight.push((from, to.as_usize(), message));
        }
        self.actions.clear();
    }

    fn round(&mut self) {
        self.now += 1;
        for (from, to, message) in std::mem::take(&mut self.in_flight) {
            self.nodes[to].on_event(
                self.now,
                Event::Message { from, message },
                &mut self.actions,
            );
            self.apply(to);
        }
        let due: Vec<(usize, TimerId)> = self
            .due
            .range(..=(self.now, usize::MAX, TimerId::new(u32::MAX)))
            .map(|&(_, i, timer)| (i, timer))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        for (i, timer) in due {
            // An earlier handler in this pass may have moved the timer.
            if self
                .deadlines
                .get(&(i, timer))
                .is_some_and(|&at| at <= self.now)
            {
                let at = self.deadlines.remove(&(i, timer)).expect("checked");
                self.due.remove(&(at, i, timer));
                self.nodes[i].on_event(self.now, Event::Timer(timer), &mut self.actions);
                self.apply(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::{self, Scale};

    #[test]
    fn directly_driven_nodes_learn_the_topology_and_keep_heartbeating() {
        let def = workloads::find("fabric_adaptive_n8").unwrap();
        let inputs = workloads::build(def, 1, Scale::Smoke, &mut Tracer::off());
        let mut nodes = DirectNodes::new(&inputs);
        for _ in 0..40 {
            nodes.round();
        }
        assert!(nodes.nodes.iter().all(AdaptiveBroadcast::topology_complete));
        // Two neighbors each on a ring: 16 heartbeats in flight per round.
        assert_eq!(nodes.in_flight.len(), 2 * inputs.all.len());
        assert!(nodes.nodes.iter().all(|n| n.heartbeats_sent() >= 40));
    }

    #[test]
    fn probes_give_positive_unit_costs_on_every_workload() {
        for def in &workloads::WORKLOADS {
            let inputs = workloads::build(def, 1, Scale::Smoke, &mut Tracer::off());
            let probes = run(&inputs, 1, 0.0);
            assert_eq!(probes.plan.is_some(), def.protocol != ProtocolKind::Gossip);
            assert_eq!(probes.loss_ns_per_draw.is_some(), inputs.base_loss > 0.0);
            assert!(probes.frame_bytes > 0.0, "{}", def.name);
            assert_eq!(
                probes.adaptive_us_per_node_round.is_some(),
                def.protocol == ProtocolKind::Adaptive
            );
        }
    }
}
