//! The `scale` sweep: thousand-node heartbeat rounds.
//!
//! The Hu & Jehl–scale measurement PAPERS.md calls for: how expensive is
//! one steady-state round of the adaptive protocol's approximation
//! activity as the system grows to n ∈ {100, 300, 1000}, and how much
//! smaller its delta heartbeats are than the full views Algorithm 4
//! (line 17) would send. Both regimes reconcile suspicions by the one
//! rule in `reconcile_link` (see [`AdaptiveParams`]) and differ only in
//! [`AdaptiveParams::receipt_evidence`] and the self-tick period:
//!
//! * **converged** — a received heartbeat is not itself Bayesian
//!   evidence, and self-monitoring is sparse: after the initial
//!   transient the knowledge views are stable and deltas shrink to the
//!   self-tick wave. This is the regime where per-heartbeat cost drops
//!   from O(processes + links) to O(changes).
//! * **evidence** (the repo default) — every heartbeat is fresh
//!   evidence, so essentially every view entry changes every round and
//!   deltas are dense.
//!
//! Each row reports wall-clock µs per round (all nodes: emissions,
//! suspicion scans, self ticks, merges), the average heartbeat payload
//! in KB, and the average full view (`AdaptiveBroadcast::view`) a node
//! holds after the measured rounds — what a full heartbeat (Algorithm 4,
//! line 17) would carry (the [`View::wire_size`] accounting, the exact
//! length of the encoded frame; the paper reports ~50 KB full heartbeats
//! at n = 100, U = 100, for belief vectors, where an entry here is two
//! counts).
//!
//! [`View::wire_size`]: diffuse_core::View::wire_size

use std::time::Instant;

use diffuse_core::scenario::{Scenario, ScenarioReport, Workload};
use diffuse_core::{
    Actions, AdaptiveBroadcast, AdaptiveParams, Message, Payload, Protocol, ReferenceGossip,
    SelfTimed,
};
use diffuse_graph::generators;
use diffuse_model::ProcessId;
use diffuse_sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt, Table};
use crate::Effort;

/// The converged-regime parameterization (see the module docs): used by
/// the sweep below and by the `heartbeat`/`view` micro benches.
pub fn converged_params() -> AdaptiveParams {
    AdaptiveParams::default()
        .with_receipt_evidence(false)
        .with_self_tick_period(50)
}

/// An adaptive system stepped one heartbeat round at a time in the
/// kernel's phase order: the previous tick's messages are delivered
/// *before* due timers fire, so suspicion deadlines are always refreshed
/// in time and Event 2 stays quiet in healthy steady state. Each node is
/// a [`SelfTimed`], so its timers fire by the engine's one rule.
///
/// This is the one shared round driver: the scale sweep below and the
/// `heartbeat`/`view` micro benches (crates/bench/benches/micro.rs)
/// all step it, so the phase order cannot silently diverge between
/// them. Process ids must be dense `0..n` (the generator families
/// guarantee it): sends route by index.
#[derive(Debug)]
pub struct KernelOrderSystem {
    /// The nodes, indexed by process id.
    pub nodes: Vec<SelfTimed<AdaptiveBroadcast>>,
    /// Messages sent this tick, delivered at the start of the next.
    pub pending: Vec<(u32, ProcessId, Message)>,
    actions: Actions,
    tick: u64,
}

impl KernelOrderSystem {
    /// Builds the system over `topology` and warms it through its
    /// transient (`warmup` rounds).
    pub fn warmed(
        topology: &diffuse_model::Topology,
        params: &AdaptiveParams,
        warmup: u64,
    ) -> Self {
        let all: Vec<ProcessId> = topology.processes().collect();
        let mut system = KernelOrderSystem {
            nodes: all
                .iter()
                .map(|&id| {
                    SelfTimed::new(AdaptiveBroadcast::new(
                        id,
                        all.clone(),
                        topology.neighbors(id).collect(),
                        params.clone(),
                    ))
                })
                .collect(),
            pending: Vec::new(),
            actions: Actions::new(),
            tick: 0,
        };
        for _ in 0..warmup {
            system.round();
        }
        system
    }

    /// The current tick.
    pub fn now(&self) -> SimTime {
        SimTime::new(self.tick)
    }

    /// Advances the tick and steps one round.
    pub fn round(&mut self) {
        self.round_inspecting(|_, _| {});
    }

    /// Like [`KernelOrderSystem::round`], calling `inspect` for every
    /// message sent this round (e.g. to account heartbeat wire sizes).
    pub fn round_inspecting(&mut self, mut inspect: impl FnMut(ProcessId, &Message)) {
        self.tick += 1;
        let now = SimTime::new(self.tick);
        for (target, from, m) in self.pending.drain(..) {
            self.nodes[target as usize].handle_message(now, from, m, &mut self.actions);
            self.actions.clear();
        }
        for node in self.nodes.iter_mut() {
            node.fire_due(now, &mut self.actions);
            let from = node.protocol().id();
            for (to, m) in self.actions.take_sends() {
                inspect(to, &m);
                self.pending.push((to.index(), from, m));
            }
            self.actions.clear();
        }
    }
}

/// Runs `rounds` steady-state rounds over a circulant(n, 4) system and
/// returns (µs per round, average heartbeat KB, average full view KB).
#[allow(clippy::disallowed_methods)] // wall throughput is the measurement
fn measure(n: u32, params: &AdaptiveParams, warmup: u64, rounds: u64) -> (f64, f64, f64) {
    let topology = generators::circulant(n, 4).expect("circulant");
    let mut system = KernelOrderSystem::warmed(&topology, params, warmup);
    let mut heartbeat_bytes = 0u64;
    let mut heartbeats = 0u64;
    // lint:allow(no-wall-clock): µs-per-round wall throughput is the quantity this experiment reports.
    let started = Instant::now();
    for _ in 0..rounds {
        system.round_inspecting(|_, m| {
            if let Message::Heartbeat(hb) = m {
                heartbeats += 1;
                heartbeat_bytes += hb.view.wire_size() as u64;
            }
        });
    }
    let elapsed = started.elapsed().as_secs_f64();
    let kb = if heartbeats == 0 {
        0.0
    } else {
        heartbeat_bytes as f64 / heartbeats as f64 / 1024.0
    };
    let view_bytes: usize = system
        .nodes
        .iter()
        .map(|node| node.protocol().view().wire_size())
        .sum();
    let full_kb = view_bytes as f64 / system.nodes.len() as f64 / 1024.0;
    (elapsed * 1e6 / rounds as f64, kb, full_kb)
}

/// Runs the scale sweep and renders the comparison table.
pub fn run(effort: &Effort) -> Table {
    let sizes: &[u32] = if effort.quick {
        &[30, 100]
    } else {
        &[100, 300, 1000]
    };
    let mut table = Table::new(
        "Scale sweep: one heartbeat round (all nodes) — circulant(n, 4), U = 100".to_string(),
        &[
            "n",
            "regime",
            "us/round",
            "heartbeat KB",
            "full view KB",
            "wire saving",
        ],
    );
    for &n in sizes {
        // Rounds scale down with n so the sweep stays minutes, not
        // hours; warmup must clear the topology/estimate transient
        // (topology spreads one hop per round — circulant(1000, 4) has
        // diameter 250).
        let (warmup, rounds) = if effort.quick {
            (200, 20)
        } else if n >= 1000 {
            (320, 5)
        } else {
            (300, 40)
        };
        for (regime, base) in [
            ("converged", converged_params()),
            ("evidence", AdaptiveParams::default()),
        ] {
            if regime == "evidence" && n >= 1000 && !effort.quick {
                // The dense-evidence regime walks every entry every
                // round by construction; at n = 1000 that is minutes of
                // warmup per configuration for a number the 100/300
                // points already characterize. The thousand-node rows
                // measure the converged regime — the one the delta
                // machinery exists for.
                continue;
            }
            let (us, kb, full_kb) = measure(n, &base, warmup, rounds);
            table.push_row(vec![
                n.to_string(),
                regime.to_string(),
                fmt(us),
                fmt(kb),
                fmt(full_kb),
                format!("{:.0}x", (full_kb / kb.max(1e-9)).max(1.0)),
            ]);
        }
    }
    table
}

/// One sharded-sweep measurement.
struct ShardPoint {
    n: u32,
    links: usize,
    workers: usize,
    ms: f64,
    reach: f64,
    speedup: f64,
}

/// Builds the sharded-sweep scenario for `n` nodes: a connected sparse
/// Erdős–Rényi supergraph (`p = 2·ln n / n` keeps the diameter
/// logarithmic, so the flood reaches every shard within a few ticks and
/// no worker sits idle) carrying a handful of staggered broadcasts.
/// Loss-free by construction: no RNG is consumed during the run, so
/// every worker count must produce the identical report.
fn sharded_scenario(n: u32, broadcasts: u32, seed: u64) -> Scenario {
    let p = (2.0 * f64::from(n).ln() / f64::from(n)).min(0.5);
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = generators::erdos_renyi_connected_fast(n, p, 50, &mut rng)
        .expect("p = 2 ln n / n is well above the connectivity threshold");
    let mut workload = Workload::new();
    for i in 0..broadcasts {
        workload = workload.broadcast(
            SimTime::new(u64::from(i) * 2),
            ProcessId::new((i.wrapping_mul(5003)) % n),
            Payload::from(format!("scale-{i}").into_bytes()),
        );
    }
    Scenario::builder(topology)
        .seed(seed ^ 0x005C_A1ED)
        .link_delay(1)
        .workload(workload)
        .build()
}

/// Steps every node keeps forwarding a fresh message: comfortably above
/// the supergraph's logarithmic diameter, so the flood completes.
const SHARD_GOSSIP_STEPS: u32 = 8;

/// Runs one sharded sweep and returns (wall-clock ms, the report).
#[allow(clippy::disallowed_methods)] // wall throughput is the measurement
fn measure_sharded(scenario: &Scenario, horizon: u64, workers: usize) -> (f64, ScenarioReport) {
    let topology = &scenario.topology;
    // lint:allow(no-wall-clock): ms-per-sweep wall throughput is the quantity this experiment reports.
    let started = Instant::now();
    let report = scenario.run_sim_sharded(horizon, workers, |id| {
        ReferenceGossip::new(id, topology.neighbors(id).collect(), SHARD_GOSSIP_STEPS)
    });
    (started.elapsed().as_secs_f64() * 1e3, report)
}

/// Runs the sharded-executor sweep: the same gossip flood executed at
/// each worker count in [`Effort::workers`], on sparse random graphs up
/// to 100 000 nodes (`--quick` subsamples to 300/1200).
///
/// The scenarios are loss-free, so no RNG is consumed and every worker
/// count must produce the identical [`ScenarioReport`] — the sweep
/// asserts that equality on every row before timing is reported. The
/// speedup column is relative to the first worker count in the list
/// (the default puts `1` first, i.e. the kernel-equivalent path). On a
/// host without parallel hardware it sits at or below 1.0x: barrier
/// lockstep is pure overhead when the workers time-slice one core.
///
/// # Panics
///
/// Panics if two worker counts disagree on the report — that would be a
/// determinism bug in the sharded executor, not a measurement artifact.
pub fn run_sharded(effort: &Effort) -> Table {
    let sizes: &[u32] = if effort.quick {
        &[300, 1_200]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut points = Vec::new();
    for &n in sizes {
        // Larger graphs carry fewer concurrent broadcasts so the sweep
        // stays seconds per row; the per-broadcast traffic is already
        // O(n·degree) = O(n·ln n).
        let broadcasts = if n >= 100_000 {
            1
        } else if n >= 10_000 {
            2
        } else {
            4
        };
        let scenario = sharded_scenario(n, broadcasts, effort.seed ^ u64::from(n));
        let links = scenario.topology.link_count();
        let horizon = 40;
        let mut baseline: Option<(f64, ScenarioReport)> = None;
        for &workers in &effort.workers {
            let (ms, report) = measure_sharded(&scenario, horizon, workers);
            let reach =
                report.delivered.values().filter(|&&d| d > 0).count() as f64 / f64::from(n.max(1));
            let speedup = match &baseline {
                Some((base_ms, base_report)) => {
                    assert_eq!(
                        base_report, &report,
                        "loss-free sharded runs must agree at any worker count \
                         (n = {n}, workers = {workers})"
                    );
                    base_ms / ms
                }
                None => {
                    baseline = Some((ms, report));
                    1.0
                }
            };
            points.push(ShardPoint {
                n,
                links,
                workers,
                ms,
                reach,
                speedup,
            });
        }
    }

    let mut table = Table::new(
        "Sharded executor sweep: gossip flood on G(n, 2 ln n / n), \
         report-identical at every worker count"
            .to_string(),
        &["n", "links", "workers", "ms/run", "reach", "speedup"],
    );
    for point in &points {
        table.push_row(vec![
            point.n.to_string(),
            point.links.to_string(),
            point.workers.to_string(),
            fmt(point.ms),
            format!("{:.3}", point.reach),
            format!("{:.2}x", point.speedup),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke shape test at tiny sizes (the CI scale smoke runs the
    /// quick preset through the repro binary).
    #[test]
    fn scale_table_has_expected_shape() {
        let mut effort = Effort::quick();
        effort.quick = true;
        let table = run(&effort);
        // 2 sizes × 2 regimes (quick keeps every regime).
        assert_eq!(table.row_count(), 4);
        let text = table.to_aligned();
        assert!(text.contains("converged"));
        assert!(text.contains("full view KB"));
    }

    /// The sharded sweep covers every (size, worker-count) pair and
    /// self-checks report equality across worker counts internally.
    #[test]
    fn sharded_table_covers_sizes_and_worker_counts() {
        let effort = Effort::quick();
        let table = run_sharded(&effort);
        // 2 quick sizes × 2 quick worker counts.
        assert_eq!(table.row_count(), 4);
        let text = table.to_aligned();
        assert!(text.contains("1200"));
        assert!(text.contains("workers"));
    }

    /// Converged deltas must undercut the full views they stand for on
    /// the wire by at least 10x, asserted at smoke scale.
    #[test]
    #[ignore = "release-only: 300 warm-up rounds at n = 100 are slow under debug"]
    fn converged_delta_beats_full_views() {
        let (_, delta_kb, full_kb) = measure(100, &converged_params(), 300, 30);
        assert!(
            delta_kb * 10.0 < full_kb,
            "converged deltas must be at least 10x smaller on the wire \
             ({delta_kb:.2}KB vs {full_kb:.2}KB)"
        );
    }
}
