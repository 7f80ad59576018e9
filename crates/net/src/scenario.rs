//! Running a [`Scenario`] on the in-memory fabric of real threads —
//! under either clock.
//!
//! The same scenario value that drives the deterministic simulation
//! kernel (`Scenario::run_sim`) runs here on `diffuse-net`'s lossy
//! [`Fabric`](crate::Fabric): one node thread per process, workload
//! broadcasts issued and fault actions injected at their scripted times.
//! Two timing modes exist:
//!
//! * [`run_scenario_on_fabric`] — **wall clock**: script times translate
//!   to real sleeps (`tick × tick_interval`). Loss sampling rides a
//!   different RNG stream and real scheduling, so outcomes are
//!   statistically — not bitwise — equivalent to the kernel.
//! * [`run_scenario_on_fabric_virtual`] — **virtual clock**: node
//!   threads park on a [`VirtualNet`] time authority that steps the
//!   kernel's own tick engine through their turns, so the run completes in
//!   milliseconds of wall time, needs no settle slack, and its
//!   [`ScenarioReport`] is *bit-identical* to `Scenario::run_sim` for
//!   the same scenario — delivery counts, failure counts, and wire
//!   metrics included.
//!
//! Every [`FaultAction`](diffuse_core::scenario::FaultAction) — including [`FaultAction::Crash`](diffuse_core::scenario::FaultAction::Crash), executed
//! cooperatively by the node runtimes, and the adversarial pair
//! [`FaultAction::Corrupt`](diffuse_core::scenario::FaultAction::Corrupt) /
//! [`FaultAction::MessageAdversary`](diffuse_core::scenario::FaultAction::MessageAdversary) —
//! runs on the virtual clock, so its [`ScenarioReport::skipped_faults`]
//! is zero for every scenario. The wall-clock runner executes
//! everything except `MessageAdversary` (its transports have no
//! deterministic suppression hook); such events are counted in
//! `skipped_faults` rather than silently dropped.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use diffuse_core::scenario::{FaultAction, FaultSink, Scenario, ScenarioReport, ScriptSchedule};
use diffuse_core::{Containment, CorruptionMode, Protocol, ProtocolAudit};
use diffuse_model::{Probability, ProcessId};
use diffuse_sim::SimTime;

use crate::clock::{Clock, WallClock};
use crate::virtual_time::{BroadcastOutcome, VirtualNet, VirtualOptions};
use crate::{spawn_node_with_clock, Fabric, FabricControl, NodeHandle};

/// Options for a wall-clock fabric scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricScenarioOptions {
    /// Wall-clock length of one logical tick.
    pub tick_interval: Duration,
    /// How many logical ticks to run before collecting the report.
    pub run_ticks: u64,
    /// Extra wall-clock settle time after the last tick, letting
    /// in-flight frames and deliveries drain. (Wall clock only — the
    /// virtual-time runner needs no settle slack: when the authority
    /// reaches the horizon, nothing is in flight by construction.)
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

/// Runs `scenario` on the in-memory fabric under the wall clock and
/// reports deliveries.
///
/// Fault actions are applied through a [`FabricControl`];
/// [`FaultAction::Crash`](diffuse_core::scenario::FaultAction::Crash) runs cooperatively — the target node's runtime
/// drops inbound traffic and suppresses timers for the scripted window,
/// then fires a recovery event — so no fault is skipped. Workload
/// broadcasts that the node rejects at issue time (node already gone)
/// are counted in [`ScenarioReport::failed_broadcasts`]; broadcasts a
/// node *defers* (e.g. incomplete knowledge) are retried by its runtime
/// until they issue, matching the kernel `ScenarioSim`'s per-tick retry
/// of deferred broadcasts.
///
/// The report's [`metrics`](ScenarioReport::metrics) are filled from
/// transport-level counters — best effort and **not kernel-comparable**
/// (different RNG stream, real scheduling, delivered-at-enqueue
/// semantics; see [`FabricControl::metrics`]).
pub fn run_scenario_on_fabric<P, F>(
    scenario: &Scenario,
    options: FabricScenarioOptions,
    mut make: F,
) -> ScenarioReport
where
    P: Protocol + Send + 'static,
    F: FnMut(ProcessId) -> P,
{
    let (mut transports, control) =
        Fabric::build_with_control(&scenario.topology, scenario.config.clone(), scenario.seed);
    let clock = WallClock::new(options.tick_interval);
    let ids: Vec<ProcessId> = scenario.topology.processes().collect();
    let mut handles: BTreeMap<ProcessId, NodeHandle> = BTreeMap::new();
    for &id in &ids {
        let transport = transports.remove(&id).expect("one transport per process");
        handles.insert(
            id,
            spawn_node_with_clock(make(id), transport, Clock::Wall(clock)),
        );
    }

    // Script application order (faults before broadcasts at equal
    // times, each script in time order) comes from the shared
    // ScriptSchedule, so both substrates execute the same events.
    // Events at or past the horizon never fire — the kernel's
    // ScenarioSim applies script events strictly before its run horizon
    // (a broadcast at the final tick could never be delivered inside
    // it), and the two substrates must agree on which events a run
    // executes.
    let mut script = ScriptSchedule::new(scenario);
    let mut skipped = 0u64;
    let horizon_tick = SimTime::new(options.run_ticks);
    let session = clock.begin();
    while let Some(at) = script.next_time().filter(|&at| at < horizon_tick) {
        session.sleep_until(at);
        for action in script.due_faults(at) {
            let mut sink = WallSink {
                control: &control,
                handles: &handles,
            };
            skipped += action.apply(&scenario.topology, &scenario.config, &mut sink);
        }
        for event in script.due_broadcasts(at) {
            let ok = handles
                .get(&event.origin)
                .is_some_and(|h| h.broadcast(event.payload.clone()).is_ok());
            if !ok {
                script.record_failed();
            }
        }
    }

    // Let the scenario play out to its horizon, plus settle time.
    session.sleep_until(horizon_tick);
    session.settle(options.settle);

    // Drain deliveries, then shut everything down.
    let mut delivered = BTreeMap::new();
    for (&id, handle) in &handles {
        let mut count = 0u64;
        while let Ok(Some(_)) = handle.next_delivery(Duration::from_millis(1)) {
            count += 1;
        }
        delivered.insert(id, count);
    }
    for (_, handle) in handles {
        handle.shutdown();
    }

    ScenarioReport {
        delivered,
        failed_broadcasts: script.failed_broadcasts(),
        skipped_faults: skipped,
        // Wall runs do not collect protocol audits (node threads are
        // joined without an audit hook) — containment metrics come from
        // the kernel and virtual-time substrates.
        containment: Containment::default(),
        // Transport-level counters: best effort, NOT kernel-comparable
        // (different RNG stream, real scheduling, delivered-at-enqueue
        // semantics — see FabricControl::metrics). Collected after the
        // shutdown drain so late sends are included.
        metrics: Some(control.metrics()),
    }
}

/// The wall-clock fabric's [`FaultSink`]: loss overrides go through the
/// [`FabricControl`], crashes become cooperative windows on the node
/// runtimes. The per-variant semantics live in [`FaultAction::apply`](diffuse_core::scenario::FaultAction::apply),
/// shared with the kernel driver and the virtual runner.
struct WallSink<'a> {
    control: &'a FabricControl,
    handles: &'a BTreeMap<ProcessId, NodeHandle>,
}

impl FaultSink for WallSink<'_> {
    fn set_loss(&mut self, link: diffuse_model::LinkId, loss: Probability) {
        self.control.set_loss(link, loss);
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
    // set_message_adversary keeps the default `false`: the wall
    // fabric's transports have no deterministic suppression hook, so
    // the action is honestly reported as skipped.
}

/// Runs `scenario` on the virtual-time fabric for `run_ticks` virtual
/// ticks and reports deliveries.
///
/// The run is a deterministic function of the scenario (including its
/// seed): calling this twice yields byte-identical reports, and the
/// report equals `scenario.run_sim(run_ticks, make)`'s field for field —
/// per-process delivery counts, failed-broadcast counts, skipped faults
/// (zero on both) *and* wire [`Metrics`](diffuse_sim::Metrics). No wall
/// time is consumed beyond the actual compute; there are no settle
/// sleeps.
pub fn run_scenario_on_fabric_virtual<P, F>(
    scenario: &Scenario,
    run_ticks: u64,
    mut make: F,
) -> ScenarioReport
where
    P: Protocol + Send + 'static,
    F: FnMut(ProcessId) -> P,
{
    let (mut transports, net) = Fabric::build_virtual(
        &scenario.topology,
        scenario.config.clone(),
        scenario.seed,
        VirtualOptions::for_scenario(scenario),
    );
    let ids: Vec<ProcessId> = scenario.topology.processes().collect();
    let mut handles: BTreeMap<ProcessId, NodeHandle> = BTreeMap::new();
    for &id in &ids {
        let transport = transports.remove(&id).expect("one transport per process");
        handles.insert(
            id,
            spawn_node_with_clock(make(id), transport, Clock::Virtual(net.clock(id))),
        );
    }

    // The driver below is the kernel's ScenarioSim::run_ticks, executed
    // against the time authority instead of the Simulation: apply due
    // script events, advance to the next script time (or the horizon),
    // repeat. Faults at t=0 land before the on_start turns — the same
    // order the kernel's lazy start produces.
    let mut script = ScriptSchedule::new(scenario);
    let mut skipped = 0u64;
    let mut corrupt: BTreeSet<ProcessId> = BTreeSet::new();
    let end = SimTime::new(run_ticks);
    loop {
        let now = net.now();
        if now >= end {
            break;
        }
        for action in script.due_faults(now) {
            if let FaultAction::Corrupt { process, .. } = &action {
                corrupt.insert(*process);
            }
            skipped += action.apply(&scenario.topology, &scenario.config, &mut VirtualSink(&net));
        }
        net.start();
        for event in script.due_broadcasts(now) {
            match net.broadcast(event.origin, event.payload.clone()) {
                BroadcastOutcome::Issued => {}
                BroadcastOutcome::Deferred => script.defer(now + 1, event),
                BroadcastOutcome::Failed => script.record_failed(),
            }
        }
        let target = script.next_time().filter(|&t| t <= end).unwrap_or(end);
        net.run_ticks(target - net.now());
    }

    // Collect per-node protocol audits while the node threads are
    // still parked (an audit turn runs no handler and draws no
    // randomness), then assemble containment exactly as the kernel
    // driver does.
    let audits: BTreeMap<ProcessId, ProtocolAudit> =
        ids.iter().map(|&id| (id, net.audit(id))).collect();
    let suppressed = net.suppressed_by_adversary();

    // Nothing is in flight past the horizon by construction; release
    // the parked node threads and collect.
    net.shutdown();
    let mut delivered = BTreeMap::new();
    for (&id, handle) in &handles {
        let mut count = 0u64;
        while let Ok(Some(_)) = handle.next_delivery(Duration::from_millis(1)) {
            count += 1;
        }
        delivered.insert(id, count);
    }
    for (_, handle) in handles {
        handle.shutdown();
    }

    ScenarioReport {
        delivered,
        failed_broadcasts: script.failed_broadcasts() + script.pending(),
        skipped_faults: skipped,
        containment: Containment::assemble(&corrupt, &audits, suppressed),
        metrics: Some(net.metrics()),
    }
}

/// The virtual-time authority's [`FaultSink`]. The per-variant
/// semantics live in [`FaultAction::apply`](diffuse_core::scenario::FaultAction::apply) — the *same* code path the
/// kernel's `ScenarioSim` executes, which is what keeps fault behavior
/// bit-comparable across substrates.
struct VirtualSink<'a>(&'a VirtualNet);

impl FaultSink for VirtualSink<'_> {
    fn set_loss(&mut self, link: diffuse_model::LinkId, loss: Probability) {
        self.0.set_loss(link, loss);
    }

    fn force_down(&mut self, process: ProcessId, down_ticks: u64) {
        self.0.force_down(process, down_ticks);
    }

    fn inject_corrupt(&mut self, process: ProcessId, mode: CorruptionMode, window: u64) -> bool {
        self.0.inject_corrupt(process, mode, window)
    }

    fn set_message_adversary(&mut self, d: u32, window: u64) -> bool {
        self.0.set_message_adversary(d, window);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_core::scenario::{FaultAction, FaultScript, Workload};
    use diffuse_core::{NetworkKnowledge, OptimalBroadcast, Payload};
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
        // Elapsed-time measurement goes through the Clock abstraction:
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
