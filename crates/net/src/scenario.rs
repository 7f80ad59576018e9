//! Running a [`Scenario`] on the in-memory fabric — real threads under
//! the wall clock, or the simulation kernel with encoded frames in flight.
//!
//! Neither runner here walks the scenario's scripts or builds its
//! report: both hand an [`Executor`] to `diffuse-core`'s
//! [`ScenarioRun`], the one driver every substrate shares.
//!
//! * [`run_scenario_on_fabric`] — **wall clock**: node threads over
//!   [`ChaosTransport`]-wrapped [`FabricTransport`](crate::FabricTransport)s
//!   — the node a UDP worker process runs, on channels instead of
//!   sockets; advancing to a script tick is a real sleep
//!   (`tick × tick_interval`). Loss sampling rides per-node RNG streams
//!   and real scheduling, so outcomes are statistically — not bitwise —
//!   equivalent to the kernel.
//! * [`run_scenario_on_fabric_virtual`] — **virtual time**: the kernel
//!   itself ([`Simulation`]), whose actors put every message through the
//!   wire codec ([`Encoded`]) — no threads, no transports, no executor of
//!   its own. The run costs a kernel run plus the codec, needs no settle
//!   slack, and its [`ScenarioReport`] is *bit-identical* to
//!   `Scenario::run_sim` for the same scenario — delivery counts, failure
//!   counts, containment and wire metrics included.
//!
//! Every [`FaultAction`](diffuse_core::scenario::FaultAction) runs on
//! both, so [`ScenarioReport::skipped_faults`] is zero for every
//! scenario: in virtual time the kernel executes it; under the wall clock
//! loss, partitions and the message adversary land in the nodes' chaos
//! policies ([`ChaosControl`]) and crashes and lying-node windows in
//! their runtimes ([`NodeHandle::inject_crash`],
//! [`NodeHandle::inject_corrupt`]). The per-process audits behind the
//! wall runner's [`ScenarioReport::containment`] are the ones the node
//! threads leave behind when they are joined
//! ([`NodeHandle::shutdown_with_audit`]).

use std::collections::BTreeMap;
use std::time::Duration;

use diffuse_core::scenario::{
    Executor, FaultSink, Observed, Scenario, ScenarioReport, ScenarioRun,
};
use diffuse_core::{BroadcastOutcome, CorruptionMode, Payload, Protocol, ProtocolActor};
use diffuse_model::{LinkId, Probability, ProcessId};
use diffuse_sim::{SimTime, Simulation};

use crate::clock::{WallClock, WallSession};
use crate::codec::Encoded;
use crate::{spawn_node, ChaosControl, ChaosTransport, Fabric, NodeHandle};

/// Options for a wall-clock fabric scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricScenarioOptions {
    /// Wall-clock length of one logical tick.
    pub tick_interval: Duration,
    /// How many logical ticks to run before collecting the report.
    pub run_ticks: u64,
    /// Extra wall-clock settle time after the last tick, letting
    /// in-flight frames and deliveries drain.
    pub settle: Duration,
}

impl Default for FabricScenarioOptions {
    fn default() -> Self {
        FabricScenarioOptions {
            tick_interval: Duration::from_millis(2),
            run_ticks: 200,
            settle: Duration::from_millis(50),
        }
    }
}

/// The wall-clock fabric as an [`Executor`]: a script tick is a real
/// sleep, what happens on the wire goes through the nodes'
/// [`ChaosControl`]s, and what happens to one process through its
/// [`NodeHandle`].
struct WallFabric {
    clock: WallClock,
    session: WallSession,
    /// The logical tick the driver has advanced to.
    tick: SimTime,
    handles: BTreeMap<ProcessId, NodeHandle>,
    /// Every node's wire policy and counters; they outlive the join.
    chaos: BTreeMap<ProcessId, ChaosControl>,
    /// Delivery counts and final audits, empty until [`WallFabric::join`].
    reported: Observed,
}

impl WallFabric {
    /// Counts every node's deliveries, then shuts the nodes down and
    /// keeps each protocol's final audit.
    fn join(&mut self) {
        for (&id, handle) in &self.handles {
            let mut count = 0u64;
            // No waiting: the runner has settled.
            while let Ok(Some(_)) = handle.next_delivery(Duration::ZERO) {
                count += 1;
            }
            self.reported.delivered.insert(id, count);
        }
        for (id, handle) in std::mem::take(&mut self.handles) {
            self.reported
                .audits
                .insert(id, handle.shutdown_with_audit());
        }
    }
}

impl FaultSink for WallFabric {
    fn set_loss(&mut self, link: LinkId, loss: Probability) {
        // Loss is egress-side: each endpoint drops its own sends.
        for end in [link.lo(), link.hi()] {
            if let Some(chaos) = self.chaos.get(&end) {
                chaos.set_link_loss(link, loss);
            }
        }
    }

    fn force_down(&mut self, process: ProcessId, down_ticks: u64) {
        // Cooperative: the node runtime goes deaf for the window.
        // An unknown process is a no-op, as in the kernel.
        if let Some(handle) = self.handles.get(&process) {
            let _ = handle.inject_crash(down_ticks);
        }
    }

    fn inject_corrupt(&mut self, process: ProcessId, mode: CorruptionMode, window: u64) -> bool {
        self.handles
            .get(&process)
            .is_some_and(|handle| handle.inject_corrupt(mode, window).is_ok())
    }

    fn set_message_adversary(&mut self, d: u32, window: u64) -> bool {
        // A fabric-wide policy: every node's chaos layer suppresses its
        // own egress, windows counted in the run's ticks.
        for chaos in self.chaos.values() {
            chaos.set_message_adversary(d, window, self.clock.tick_interval());
        }
        true
    }
}

impl Executor for WallFabric {
    fn now(&self) -> SimTime {
        self.tick
    }

    fn advance(&mut self, ticks: u64) {
        self.tick += ticks;
        self.session.sleep_until(self.tick);
    }

    /// A node that cannot issue yet (incomplete knowledge, crash window)
    /// retries inside its own runtime, so the only failure visible from
    /// here is a node that is already gone.
    fn issue(&mut self, origin: ProcessId, payload: &Payload) -> BroadcastOutcome {
        match self.handles.get(&origin) {
            Some(handle) if handle.broadcast(payload.clone()).is_ok() => BroadcastOutcome::Issued,
            _ => BroadcastOutcome::Failed,
        }
    }

    /// The nodes' chaos counters, merged — best effort, **not**
    /// kernel-comparable (see [`ChaosControl::metrics`]); read after the
    /// join they include the nodes' shutdown sends.
    fn observed(&self) -> Observed {
        let mut observed = self.reported.clone();
        for chaos in self.chaos.values() {
            observed.metrics.merge(&chaos.metrics());
            observed.suppressed += chaos.suppressed();
        }
        observed
    }
}

/// Runs `scenario` on the in-memory fabric under the wall clock and
/// reports deliveries.
///
/// [`FaultAction::Crash`](diffuse_core::scenario::FaultAction::Crash) runs cooperatively — the target node's runtime
/// drops inbound traffic and suppresses timers for the scripted window,
/// then fires a recovery event — and
/// [`FaultAction::Corrupt`](diffuse_core::scenario::FaultAction::Corrupt) opens the window on the node's protocol
/// stack (wrap what `make` returns in an
/// [`Adversary`](diffuse_core::Adversary) for it to lie), with
/// [`ScenarioReport::containment`] assembled from the nodes' final audits
/// and the chaos layers' suppression counts. Workload broadcasts that the
/// node rejects at issue time (node already gone) are counted in
/// [`ScenarioReport::failed_broadcasts`]; broadcasts a node *defers*
/// (e.g. incomplete knowledge) are retried by its runtime until they
/// issue.
///
/// The report's [`metrics`](ScenarioReport::metrics) are the nodes'
/// merged chaos counters — best effort and **not kernel-comparable**
/// (per-node RNG streams, real scheduling, delivered-at-transport-release
/// semantics; see [`ChaosControl::metrics`]), as on the UDP cluster.
pub fn run_scenario_on_fabric<P, F>(
    scenario: &Scenario,
    options: FabricScenarioOptions,
    mut make: F,
) -> ScenarioReport
where
    P: Protocol + Send + 'static,
    F: FnMut(ProcessId) -> P,
{
    // One node per endpoint, spawned in id order.
    let (mut handles, mut chaos) = (BTreeMap::new(), BTreeMap::new());
    for (id, endpoint) in Fabric::build(&scenario.topology) {
        let (transport, control) = ChaosTransport::for_node(
            endpoint,
            scenario.seed,
            &scenario.topology,
            &scenario.config,
        );
        handles.insert(id, spawn_node(make(id), transport, options.tick_interval));
        chaos.insert(id, control);
    }
    let clock = WallClock::new(options.tick_interval);
    let fabric = WallFabric {
        clock,
        handles,
        chaos,
        reported: Observed::default(),
        session: clock.begin(),
        tick: SimTime::ZERO,
    };
    let mut run = ScenarioRun::over(scenario, fabric);
    run.run_ticks(options.run_ticks);
    // Let in-flight frames and deliveries drain, then join the nodes.
    let fabric = run.sim_mut();
    fabric.session.settle(options.settle);
    fabric.join();
    run.report()
}

/// Runs `scenario` in virtual time with every message crossing the wire
/// codec, for `run_ticks` ticks, and reports deliveries.
///
/// This is `scenario.run_sim(run_ticks, make)` with one difference: what
/// a process sends is encoded where its handler emits it, travels, is
/// lost or delivered as a frame, and is decoded where it arrives. The
/// report therefore equals the kernel's field for field — per-process
/// delivery counts, failed-broadcast counts, skipped faults (zero on
/// both), containment *and* wire [`Metrics`](diffuse_sim::Metrics) —
/// exactly when the codec is invisible to protocols, which is what
/// `tests/fabric_conformance.rs` asserts. A frame that fails to decode
/// panics: it was encoded a few ticks earlier by this very process.
pub fn run_scenario_on_fabric_virtual<P, F>(
    scenario: &Scenario,
    run_ticks: u64,
    mut make: F,
) -> ScenarioReport
where
    P: Protocol,
    F: FnMut(ProcessId) -> P,
{
    let kernel = Simulation::new(
        &scenario.topology,
        &scenario.config,
        |id| ProtocolActor::<P, Encoded>::over(make(id)),
        scenario.sim_options(),
    );
    let mut run = ScenarioRun::over(scenario, kernel);
    run.run_ticks(run_ticks);
    run.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_core::scenario::{FaultAction, FaultScript, Workload};
    use diffuse_core::{NetworkKnowledge, OptimalBroadcast};
    use diffuse_graph::generators;
    use diffuse_model::Configuration;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn scripted_broadcast_crosses_the_fabric() {
        let topology = generators::ring(4).unwrap();
        let config = Configuration::new();
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let scenario = Scenario::builder(topology)
            .config(config)
            .seed(9)
            .workload(Workload::new().broadcast(SimTime::new(2), p(0), Payload::from("wire")))
            .build();
        let report = run_scenario_on_fabric(
            &scenario,
            FabricScenarioOptions {
                run_ticks: 50,
                ..FabricScenarioOptions::default()
            },
            |id| OptimalBroadcast::new(id, knowledge.clone(), 0.999),
        );
        assert!(report.all_delivered_at_least(1), "{report:?}");
        assert_eq!(report.failed_broadcasts, 0);
        assert_eq!(report.skipped_faults, 0);
        // Wall runs now carry best-effort transport metrics: the
        // broadcast's data frames were counted.
        let metrics = report.metrics.as_ref().expect("wall metrics filled");
        assert!(metrics.sent_of_kind("data") > 0, "{metrics:?}");
        assert!(metrics.delivered_total() <= metrics.sent_total());
    }

    #[test]
    fn events_past_the_horizon_never_fire() {
        // The kernel's ScenarioSim stops applying script events at its
        // run horizon; the fabric must agree — and must not sleep until
        // the out-of-range event's wall-clock time either.
        let topology = generators::ring(3).unwrap();
        let config = Configuration::new();
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let scenario = Scenario::builder(topology)
            .config(config)
            .workload(Workload::new().broadcast(
                SimTime::new(500),
                p(0),
                Payload::from("beyond the horizon"),
            ))
            .build();
        // Elapsed-time measurement goes through the clock abstraction:
        // a 1 ms-tick WallSession counts wall milliseconds as ticks.
        let stopwatch = WallClock::new(Duration::from_millis(1)).begin();
        let report = run_scenario_on_fabric(
            &scenario,
            FabricScenarioOptions {
                run_ticks: 10,
                tick_interval: Duration::from_millis(2),
                settle: Duration::from_millis(5),
            },
            |id| OptimalBroadcast::new(id, knowledge.clone(), 0.99),
        );
        assert_eq!(report.min_delivered(), 0, "{report:?}");
        assert_eq!(report.failed_broadcasts, 0);
        assert!(
            stopwatch.now() < SimTime::new(500),
            "the run must end at its 20 ms horizon, not at tick 500"
        );
    }

    /// The former `skipped_faults` gap: a scripted crash now executes
    /// cooperatively on the wall-clock fabric — the crashed node misses
    /// the broadcast, everyone else delivers, and nothing is skipped.
    #[test]
    fn scripted_crash_executes_cooperatively_on_the_wall_fabric() {
        let topology = generators::ring(3).unwrap();
        let config = Configuration::new();
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let scenario = Scenario::builder(topology)
            .config(config)
            // The broadcast sits 29 wall ticks (~58 ms) after the crash
            // command, far beyond the ≤25 ms command-poll latency, so
            // p1 is reliably deaf before the frame can arrive.
            .workload(Workload::new().broadcast(SimTime::new(30), p(0), Payload::from("x")))
            .faults(FaultScript::new().at(
                SimTime::new(1),
                FaultAction::Crash {
                    process: p(1),
                    down_ticks: 200, // outlives the run
                },
            ))
            .build();
        let report = run_scenario_on_fabric(
            &scenario,
            FabricScenarioOptions {
                run_ticks: 60,
                settle: Duration::from_millis(20),
                ..FabricScenarioOptions::default()
            },
            |id| OptimalBroadcast::new(id, knowledge.clone(), 0.99),
        );
        assert_eq!(report.skipped_faults, 0, "{report:?}");
        assert_eq!(report.delivered[&p(1)], 0, "crashed node stays deaf");
        assert!(report.delivered[&p(0)] >= 1, "{report:?}");
    }

    /// A scripted lying node and a message adversary on the wall-clock
    /// fabric: the driver records the liar, the joined node threads hand
    /// back their audits and the chaos layers their suppression counts, so
    /// nothing is skipped and containment is reported here as on every
    /// other executor.
    #[test]
    fn scripted_corruption_is_audited_on_the_wall_fabric() {
        use diffuse_core::{AdaptiveBroadcast, AdaptiveParams, Adversary};
        let topology = generators::complete(4).unwrap();
        let all: Vec<ProcessId> = topology.processes().collect();
        let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
        let scenario = Scenario::builder(topology.clone())
            .seed(11)
            .workload(Workload::new().broadcast(SimTime::new(60), p(1), Payload::from("x")))
            .faults(
                FaultScript::new()
                    .at(
                        SimTime::new(20),
                        FaultAction::Corrupt {
                            process: p(0),
                            mode: CorruptionMode::UnderstateDistortion,
                            window: 40,
                        },
                    )
                    .at(
                        SimTime::new(30),
                        FaultAction::MessageAdversary { d: 1, window: 10 },
                    )
                    .at(
                        SimTime::new(80),
                        FaultAction::MessageAdversary { d: 0, window: 10 },
                    ),
            )
            .build();
        let report = run_scenario_on_fabric(
            &scenario,
            FabricScenarioOptions {
                run_ticks: 120,
                ..FabricScenarioOptions::default()
            },
            |id| {
                Adversary::new(
                    AdaptiveBroadcast::new(
                        id,
                        all.clone(),
                        neighbors(id),
                        AdaptiveParams::default(),
                    ),
                    11,
                )
            },
        );
        assert_eq!(report.skipped_faults, 0, "{report:?}");
        let c = report.containment;
        assert!(
            c.corrupt_emissions > 0,
            "the liar's audit was collected: {c:?}"
        );
        assert!(
            c.corrupt_offers > 0,
            "and so were the correct nodes': {c:?}"
        );
        assert_eq!(c.bound_violations, 0, "{c:?}");
        assert!(c.suppressed_emissions > 0, "the adversary acted: {c:?}");
        assert!(report.all_delivered_at_least(1), "{report:?}");
    }

    /// The virtual-time runner is deterministic: two runs of a scenario
    /// with loss, a partition window and a crash produce byte-identical
    /// reports.
    #[test]
    fn virtual_fabric_runs_are_byte_identical() {
        let topology = generators::circulant(6, 4).unwrap();
        let config = Configuration::uniform(
            &topology,
            Probability::ZERO,
            Probability::new(0.15).unwrap(),
        );
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let scenario = Scenario::builder(topology)
            .config(config)
            .seed(0xFAB)
            .workload(
                Workload::new()
                    .broadcast(SimTime::new(1), p(0), Payload::from("one"))
                    .broadcast(SimTime::new(20), p(3), Payload::from("two")),
            )
            .faults(
                FaultScript::new()
                    .at(
                        SimTime::new(5),
                        FaultAction::Partition {
                            island: vec![p(0), p(1)],
                        },
                    )
                    .at(
                        SimTime::new(8),
                        FaultAction::Crash {
                            process: p(2),
                            down_ticks: 4,
                        },
                    )
                    .at(SimTime::new(15), FaultAction::Heal),
            )
            .build();
        let run = || {
            run_scenario_on_fabric_virtual(&scenario, 60, |id| {
                OptimalBroadcast::new(id, knowledge.clone(), 0.999)
            })
        };
        let first = run();
        let second = run();
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        assert_eq!(report_metrics_sent(&first), report_metrics_sent(&second));
    }

    fn report_metrics_sent(report: &ScenarioReport) -> u64 {
        report.metrics.as_ref().map_or(0, |m| m.sent_total())
    }
}
