//! One scenario description, one driver, five ways to execute it.
//!
//! A [`Scenario`] composes everything that defines an experiment run —
//! a [`Topology`], a per-link loss [`Configuration`], a [`CrashModel`],
//! a scripted [`Workload`] of broadcasts (bursts, multi-origin streams)
//! and a [`FaultScript`] of timed environment changes (link degradation,
//! loss spikes, partitions, healing, forced crashes, lying nodes, a
//! message adversary) — into a single value.
//!
//! [`ScenarioRun`] is the only code that walks those two scripts and the
//! only code that assembles a [`ScenarioReport`]. What "run this
//! scenario" means — faults before broadcasts at equal times, nothing
//! fires at the horizon tick, a deferred broadcast is retried one tick
//! later, a still-pending one counts as failed, a lying node is on
//! record before its fault is applied — is therefore written once. It
//! drives anything that implements [`Executor`]: the simulation kernel
//! and the sharded executor here ([`ScenarioSim`],
//! [`ShardedScenarioSim`]), and `diffuse-net`'s wall-clock fabric and
//! multi-process UDP cluster (`run_scenario_on_fabric`,
//! `run_scenario_on_udp_cluster`), which differ only in how they let
//! time pass and how they reach a process. The fifth way,
//! `run_scenario_on_fabric_virtual`, is the kernel again, over
//! [`ProtocolActor`]s whose [`Wire`] puts encoded frames in flight.
//!
//! The paper's fixed benchmark scripts (Figures 4–6) are instances of
//! this shape: pick a topology family, a uniform configuration, a
//! single-origin workload, no faults. The builder exists so that every
//! *other* combination is just as easy to write.
//!
//! # Example
//!
//! ```
//! use diffuse_core::scenario::{FaultAction, FaultScript, Scenario, Workload};
//! use diffuse_core::{Payload, ReferenceGossip};
//! use diffuse_graph::generators;
//! use diffuse_model::{Probability, ProcessId};
//! use diffuse_sim::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topology = generators::ring(8)?;
//! let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
//! let scenario = Scenario::builder(topology.clone())
//!     .uniform_loss(Probability::new(0.05)?)
//!     .seed(7)
//!     .workload(Workload::new().broadcast(SimTime::ZERO, ProcessId::new(0), Payload::from("hi")))
//!     .faults(FaultScript::new().at(
//!         SimTime::new(10),
//!         FaultAction::DegradeAll { loss: Probability::new(0.2)? },
//!     ))
//!     .build();
//!
//! let report = scenario.run_sim(40, |id| ReferenceGossip::new(id, neighbors(id), 8));
//! assert!(report.all_delivered_at_least(1));
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use diffuse_model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse_sim::{CrashModel, Metrics, ShardedKernel, SimOptions, SimTime, Simulation};

use crate::adversary::{Containment, CorruptionMode, ProtocolAudit};
use crate::protocol::{Event, Payload, Protocol, ProtocolActor, Wire};
use crate::CoreError;

/// One scripted broadcast: at `at`, `origin` broadcasts `payload`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEvent {
    /// When the broadcast is issued.
    pub at: SimTime,
    /// The broadcasting process.
    pub origin: ProcessId,
    /// The payload to diffuse.
    pub payload: Payload,
}

/// A scripted broadcast schedule: single shots, bursts, and periodic
/// multi-origin streams, all reducible to timed [`WorkloadEvent`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    events: Vec<WorkloadEvent>,
}

impl Workload {
    /// An empty workload (approximation-activity-only scenarios).
    pub fn new() -> Self {
        Workload::default()
    }

    /// Adds one broadcast at `at` from `origin`.
    #[must_use]
    pub fn broadcast(mut self, at: SimTime, origin: ProcessId, payload: Payload) -> Self {
        self.events.push(WorkloadEvent {
            at,
            origin,
            payload,
        });
        self
    }

    /// Adds a burst: `count` broadcasts from `origin`, all issued at
    /// `at` (payloads `"burst-0"`, `"burst-1"`, …).
    #[must_use]
    pub fn burst(mut self, at: SimTime, origin: ProcessId, count: u32) -> Self {
        for i in 0..count {
            self.events.push(WorkloadEvent {
                at,
                origin,
                payload: Payload::from(format!("burst-{i}").into_bytes()),
            });
        }
        self
    }

    /// Adds a periodic stream: `count` broadcasts from `origin`, one
    /// every `period` ticks starting at `start`.
    #[must_use]
    pub fn stream(mut self, origin: ProcessId, start: SimTime, period: u64, count: u32) -> Self {
        let period = period.max(1);
        for i in 0..count {
            self.events.push(WorkloadEvent {
                at: start + period * i as u64,
                origin,
                payload: Payload::from(format!("stream-{origin}-{i}").into_bytes()),
            });
        }
        self
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[WorkloadEvent] {
        &self.events
    }

    /// Events sorted by time (stable: same-time events keep insertion
    /// order).
    fn sorted(&self) -> Vec<WorkloadEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at);
        events
    }
}

/// A timed environment change.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Set one link's loss probability (degradation or point repair).
    SetLoss {
        /// The affected link.
        link: LinkId,
        /// Its new loss probability.
        loss: Probability,
    },
    /// A loss spike: every link jumps to the given loss probability.
    DegradeAll {
        /// The spike's loss probability.
        loss: Probability,
    },
    /// Cut every link between `island` and the rest of the system
    /// (loss 1.0 in both directions).
    Partition {
        /// The processes on one side of the cut.
        island: Vec<ProcessId>,
    },
    /// Restore every link to the scenario's base configuration.
    Heal,
    /// Force a process down for `down_ticks` ticks. The simulation kernel
    /// executes this through `Simulation::force_down`; the wall-clock
    /// substrates execute it *cooperatively* — the node's runtime drops
    /// inbound traffic and suppresses timers for the window, then fires
    /// [`Event::Recovery`] — so no substrate reports it as skipped.
    Crash {
        /// The crashing process.
        process: ProcessId,
        /// Outage length in ticks.
        down_ticks: u64,
    },
    /// Turn one process into a *lying node* for a bounded window: its
    /// outgoing heartbeats are rewritten per `mode` by the process's
    /// [`Adversary`](crate::Adversary) wrapper. Substrates execute this
    /// by injecting [`Event::Corrupt`] into the process's protocol
    /// stack; a substrate that cannot reach the process (or has no
    /// corruption hook) counts the action in
    /// [`ScenarioReport::skipped_faults`].
    Corrupt {
        /// The process that starts lying.
        process: ProcessId,
        /// How its heartbeats are corrupted.
        mode: CorruptionMode,
        /// Window length in ticks; the node is honest again afterwards.
        window: u64,
    },
    /// (Re)configure the substrate's scheduled message adversary: from
    /// now on it destroys up to `d` of each sender's emissions per
    /// `window` ticks (`d == 0` switches it off). The adversary draws
    /// from its own seeded stream, so loss sampling for surviving
    /// messages is unchanged.
    MessageAdversary {
        /// Per-sender, per-window suppression budget.
        d: u32,
        /// Window length in ticks.
        window: u64,
    },
}

/// The hooks a substrate exposes for fault injection: override a link's
/// loss, force a process down, and the two adversarial hooks.
/// [`FaultAction::apply`] maps every fault variant onto these, so the
/// mapping exists exactly once. It is the fault half of an [`Executor`];
/// every implementation is one.
pub trait FaultSink {
    /// Overrides one link's loss probability for future transmissions.
    fn set_loss(&mut self, link: LinkId, loss: Probability);
    /// Forces `process` down for the next `down_ticks` ticks.
    fn force_down(&mut self, process: ProcessId, down_ticks: u64);
    /// Injects a corruption window into `process`'s protocol stack
    /// (see [`FaultAction::Corrupt`]). Returns `false` when this
    /// substrate has no corruption hook or cannot reach the process;
    /// the action is then counted as skipped.
    fn inject_corrupt(&mut self, process: ProcessId, mode: CorruptionMode, window: u64) -> bool {
        let _ = (process, mode, window);
        false
    }
    /// (Re)configures the substrate's message adversary (see
    /// [`FaultAction::MessageAdversary`]). Returns `false` when
    /// unsupported; the action is then counted as skipped.
    fn set_message_adversary(&mut self, d: u32, window: u64) -> bool {
        let _ = (d, window);
        false
    }
}

impl FaultAction {
    /// Applies this action against a substrate's [`FaultSink`].
    ///
    /// This is the *single* definition of what each fault variant means
    /// (which links a partition cuts, what a heal restores, how a crash
    /// translates), so executors cannot drift apart variant by variant.
    /// `base` is the scenario's base configuration, which
    /// [`FaultAction::Heal`] restores.
    ///
    /// Returns how many actions (zero or one) the sink could not
    /// execute — [`ScenarioRun`] accumulates this into
    /// [`ScenarioReport::skipped_faults`].
    #[must_use]
    pub fn apply(
        &self,
        topology: &Topology,
        base: &Configuration,
        sink: &mut dyn FaultSink,
    ) -> u64 {
        match self {
            FaultAction::SetLoss { link, loss } => sink.set_loss(*link, *loss),
            FaultAction::DegradeAll { loss } => {
                for link in topology.links() {
                    sink.set_loss(link, *loss);
                }
            }
            FaultAction::Partition { island } => {
                for link in partition_cut(topology, island) {
                    sink.set_loss(link, Probability::ONE);
                }
            }
            FaultAction::Heal => {
                for link in topology.links() {
                    sink.set_loss(link, base.loss(link));
                }
            }
            FaultAction::Crash {
                process,
                down_ticks,
            } => sink.force_down(*process, *down_ticks),
            FaultAction::Corrupt {
                process,
                mode,
                window,
            } => return u64::from(!sink.inject_corrupt(*process, *mode, *window)),
            FaultAction::MessageAdversary { d, window } => {
                return u64::from(!sink.set_message_adversary(*d, *window));
            }
        }
        0
    }
}

/// One [`FaultAction`] at one time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault is injected.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A timed script of environment changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script (a stable environment).
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Adds `action` at time `at`.
    #[must_use]
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn sorted(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at);
        events
    }
}

/// A complete scenario: topology × configuration × crash model ×
/// workload × fault script (see the module docs).
///
/// The topology and configuration are shared, not copied: a clone of
/// the scenario and every run instantiated from it hold the same two
/// values.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network graph.
    pub topology: Arc<Topology>,
    /// Base per-link loss probabilities.
    pub config: Arc<Configuration>,
    /// How processes crash and recover (simulation only; the fabric
    /// models crashes through its fault script, not stochastically).
    pub crash_model: CrashModel,
    /// RNG seed for loss sampling and crash draws.
    pub seed: u64,
    /// Message latency in ticks.
    pub link_delay: u64,
    /// Scripted broadcasts.
    pub workload: Workload,
    /// Scripted environment changes.
    pub faults: FaultScript,
}

impl Scenario {
    /// Starts building a scenario over `topology`.
    pub fn builder(topology: Topology) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                config: Arc::default(),
                topology: Arc::new(topology),
                crash_model: CrashModel::AlwaysUp,
                seed: 0xD1FF,
                link_delay: 1,
                workload: Workload::new(),
                faults: FaultScript::new(),
            },
        }
    }

    /// The simulator options this scenario implies.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions::default()
            .with_seed(self.seed)
            .with_link_delay(self.link_delay)
            .with_crash_model(self.crash_model)
    }

    /// Instantiates the scenario on the simulation kernel, one protocol
    /// per process built by `make`.
    pub fn sim<P: Protocol>(&self, mut make: impl FnMut(ProcessId) -> P) -> ScenarioSim<P> {
        ScenarioRun::over(
            self,
            Simulation::new(
                &self.topology,
                &self.config,
                |id| ProtocolActor::new(make(id)),
                self.sim_options(),
            ),
        )
    }

    /// Convenience: instantiate on the kernel, run `ticks`, report.
    pub fn run_sim<P: Protocol>(
        &self,
        ticks: u64,
        make: impl FnMut(ProcessId) -> P,
    ) -> ScenarioReport {
        let mut run = self.sim(make);
        run.run_ticks(ticks);
        run.report()
    }

    /// Instantiates the scenario on the sharded executor with `workers`
    /// worker threads (see [`ShardedKernel`] for the determinism
    /// contract — self-reproducible per `(seed, workers)`, identical to
    /// [`Scenario::sim`] when `workers == 1`).
    pub fn sim_sharded<P: Protocol + Send>(
        &self,
        workers: usize,
        mut make: impl FnMut(ProcessId) -> P,
    ) -> ShardedScenarioSim<P> {
        ScenarioRun::over(
            self,
            ShardedKernel::new(
                &self.topology,
                &self.config,
                |id| ProtocolActor::new(make(id)),
                self.sim_options(),
                workers,
            ),
        )
    }

    /// Convenience: instantiate on the sharded executor, run `ticks`,
    /// report.
    pub fn run_sim_sharded<P: Protocol + Send>(
        &self,
        ticks: u64,
        workers: usize,
        make: impl FnMut(ProcessId) -> P,
    ) -> ScenarioReport {
        let mut run = self.sim_sharded(workers, make);
        run.run_ticks(ticks);
        run.report()
    }
}

/// Builder for [`Scenario`] (see [`Scenario::builder`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the per-link loss configuration.
    #[must_use]
    pub fn config(mut self, config: Configuration) -> Self {
        self.scenario.config = Arc::new(config);
        self
    }

    /// Sets a uniform loss probability on every link.
    #[must_use]
    pub fn uniform_loss(mut self, loss: Probability) -> Self {
        self.scenario.config = Arc::new(Configuration::uniform(
            &self.scenario.topology,
            Probability::ZERO,
            loss,
        ));
        self
    }

    /// Sets the crash model.
    #[must_use]
    pub fn crash_model(mut self, model: CrashModel) -> Self {
        self.scenario.crash_model = model;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the link delay in ticks (the tick engine raises 0 to 1).
    #[must_use]
    pub fn link_delay(mut self, ticks: u64) -> Self {
        self.scenario.link_delay = ticks;
        self
    }

    /// Sets the broadcast workload.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.scenario.workload = workload;
        self
    }

    /// Sets the fault script.
    #[must_use]
    pub fn faults(mut self, faults: FaultScript) -> Self {
        self.scenario.faults = faults;
        self
    }

    /// Finishes the scenario.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

/// What a scenario run produced, substrate-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Broadcast deliveries per process.
    pub delivered: BTreeMap<ProcessId, u64>,
    /// Scripted broadcasts that failed non-retryably at issue time —
    /// zero on a healthy run. Broadcasts deferred by retryable
    /// conditions (incomplete knowledge, down origin) that never manage
    /// to issue before the run ends are counted here too.
    pub failed_broadcasts: u64,
    /// Fault events the substrate could not execute. Every
    /// [`FaultAction`] variant is executable on the kernel (hence on
    /// the virtual-time fabric) and the sharded executor, so this is
    /// zero on a healthy run there; substrates without a corruption or
    /// suppression hook count
    /// [`FaultAction::Corrupt`] / [`FaultAction::MessageAdversary`]
    /// events here instead of silently dropping them.
    pub skipped_faults: u64,
    /// Adversary containment metrics (all-zero when the scenario
    /// scripted no lying nodes and no message adversary).
    pub containment: Containment,
    /// Wire-level metrics. Kernel and virtual-fabric runs fill these
    /// exactly (bit-comparable across those substrates); wall-clock
    /// fabric runs fill best-effort transport-level counters that are
    /// **not** kernel-comparable (different RNG stream, real
    /// scheduling, delivered-at-enqueue semantics).
    pub metrics: Option<Metrics>,
}

impl ScenarioReport {
    /// `true` iff every process delivered at least `n` broadcasts.
    pub fn all_delivered_at_least(&self, n: u64) -> bool {
        !self.delivered.is_empty() && self.delivered.values().all(|&d| d >= n)
    }

    /// The minimum delivery count over all processes.
    pub fn min_delivered(&self) -> u64 {
        self.delivered.values().copied().min().unwrap_or(0)
    }
}

/// What is left of a scenario's two scripts, in time order, plus the
/// broadcasts awaiting a retry. Private to this module: [`ScenarioRun`]
/// is its only reader, which is what keeps a second script walker from
/// growing anywhere else.
#[derive(Debug, Clone)]
struct ScriptSchedule {
    workload: VecDeque<WorkloadEvent>,
    faults: VecDeque<FaultEvent>,
    /// Broadcasts whose issue was [`BroadcastOutcome::Deferred`], with
    /// the tick of their next attempt, in deferral order.
    deferred: Vec<(SimTime, WorkloadEvent)>,
    /// Broadcasts that failed non-retryably at issue time.
    failed: u64,
}

impl ScriptSchedule {
    /// Both scripts sorted by time, stable within equal times.
    fn new(scenario: &Scenario) -> Self {
        ScriptSchedule {
            workload: scenario.workload.sorted().into(),
            faults: scenario.faults.sorted().into(),
            deferred: Vec::new(),
            failed: 0,
        }
    }

    /// The earliest unapplied script event or deferred retry.
    fn next_time(&self) -> Option<SimTime> {
        let workload = self.workload.front().map(|e| e.at);
        let fault = self.faults.front().map(|e| e.at);
        let retry = self.deferred.iter().map(|&(at, _)| at).min();
        [workload, fault, retry].into_iter().flatten().min()
    }

    /// Takes every fault action due at or before `now`, in script order.
    fn due_faults(&mut self, now: SimTime) -> Vec<FaultAction> {
        let mut due = Vec::new();
        while self.faults.front().is_some_and(|e| e.at <= now) {
            due.extend(self.faults.pop_front().map(|e| e.action));
        }
        due
    }

    /// Takes every broadcast due at or before `now`: deferred retries
    /// first (in deferral order, so a broadcast never overtakes an
    /// earlier one from the same origin), then newly-due workload events
    /// in script order.
    fn due_broadcasts(&mut self, now: SimTime) -> Vec<WorkloadEvent> {
        let mut due = Vec::new();
        self.deferred.retain(|(at, event)| {
            if *at <= now {
                due.push(event.clone());
                false
            } else {
                true
            }
        });
        while self.workload.front().is_some_and(|e| e.at <= now) {
            due.extend(self.workload.pop_front());
        }
        due
    }
}

/// What asking a process to broadcast produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastOutcome {
    /// The broadcast issued; its sends are on the wire.
    Issued,
    /// The broadcast could not issue yet for a retryable reason — the
    /// origin is down or unknown, or its topology knowledge is still
    /// incomplete. [`ScenarioRun`] retries it one tick later.
    Deferred,
    /// The broadcast failed non-retryably.
    Failed,
}

impl BroadcastOutcome {
    /// Classifies the result of [`Protocol::broadcast`] — the one place
    /// that decides which errors are worth a retry.
    pub fn of<T>(result: &Result<T, CoreError>) -> Self {
        match result {
            Ok(_) => BroadcastOutcome::Issued,
            Err(CoreError::KnowledgeIncomplete) => BroadcastOutcome::Deferred,
            Err(_) => BroadcastOutcome::Failed,
        }
    }
}

/// What an executor's processes and wire have seen so far: the half of a
/// [`ScenarioReport`] that does not come from the scripts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// Broadcast deliveries per process.
    pub delivered: BTreeMap<ProcessId, u64>,
    /// Per-process adversary-containment counters.
    pub audits: BTreeMap<ProcessId, ProtocolAudit>,
    /// Emissions destroyed by the message adversary.
    pub suppressed: u64,
    /// Wire metrics (see [`ScenarioReport::metrics`] for which executors
    /// fill them exactly).
    pub metrics: Metrics,
}

/// What [`ScenarioRun`] needs from the thing it drives, beyond the fault
/// hooks of [`FaultSink`]: a clock in script ticks, a way to let ticks
/// pass, a way to ask a process to broadcast, and a look at the outcome.
///
/// Four implementations exist: [`Simulation`] and [`ShardedKernel`] over
/// [`ProtocolActor`]s at any [`Wire`] (one macro body below — the two
/// expose the same inherent surface; `diffuse-net`'s virtual-time fabric
/// is the first of them over encoded frames) and, in `diffuse-net`, the
/// wall-clock fabric and the UDP process cluster.
pub trait Executor: FaultSink {
    /// The current script tick. Simulated time on the deterministic
    /// executors; on wall-clock ones the *logical* tick the driver has
    /// advanced to, not a reading of the wall clock.
    fn now(&self) -> SimTime;
    /// Lets `ticks` ticks pass: the deterministic executors run their
    /// tick engine (fast-forwarding idle stretches), the wall-clock ones
    /// sleep until the target tick begins.
    fn advance(&mut self, ticks: u64);
    /// Asks `origin` to broadcast `payload` now. Executors whose node
    /// runtimes retry on their own never answer
    /// [`BroadcastOutcome::Deferred`].
    fn issue(&mut self, origin: ProcessId, payload: &Payload) -> BroadcastOutcome;
    /// Deliveries, audits and wire counters so far, in process-id order.
    fn observed(&self) -> Observed;
}

macro_rules! impl_executor {
    ($executor:ident, $($bound:tt)+) => {
        /// Loss, crash and suppression hooks delegate to the executor;
        /// corruption windows are injected as [`Event::Corrupt`] through a
        /// live context, with the resulting sends flushed like any
        /// handler's (on the sharded executor: by the coordinator between
        /// segments, so the injection lands at a tick barrier).
        impl<P: $($bound)+, W: Wire> FaultSink for $executor<ProtocolActor<P, W>> {
            fn set_loss(&mut self, link: LinkId, loss: Probability) {
                $executor::set_loss(self, link, loss);
            }
            fn force_down(&mut self, process: ProcessId, down_ticks: u64) {
                $executor::force_down(self, process, down_ticks);
            }
            fn inject_corrupt(&mut self, process: ProcessId, mode: CorruptionMode, window: u64) -> bool {
                $executor::command(self, process, |actor, ctx| {
                    actor.inject_event(ctx, Event::Corrupt { mode, window });
                })
            }
            fn set_message_adversary(&mut self, d: u32, window: u64) -> bool {
                $executor::set_message_adversary(self, d, window);
                true
            }
        }

        impl<P: $($bound)+, W: Wire> Executor for $executor<ProtocolActor<P, W>> {
            fn now(&self) -> SimTime {
                $executor::now(self)
            }
            fn advance(&mut self, ticks: u64) {
                $executor::run_ticks(self, ticks);
            }
            /// A down or unknown origin runs nothing and is retried.
            fn issue(&mut self, origin: ProcessId, payload: &Payload) -> BroadcastOutcome {
                let mut outcome = BroadcastOutcome::Deferred;
                $executor::command(self, origin, |actor, ctx| {
                    outcome = BroadcastOutcome::of(&actor.broadcast_now(ctx, payload.clone()));
                });
                outcome
            }
            fn observed(&self) -> Observed {
                let metrics = $executor::metrics(self);
                let mut seen = Observed {
                    suppressed: metrics.suppressed_by_adversary(),
                    metrics,
                    ..Observed::default()
                };
                for (id, actor) in self.nodes() {
                    let protocol = actor.protocol();
                    seen.delivered.insert(id, protocol.delivered().len() as u64);
                    seen.audits.insert(id, protocol.audit());
                }
                seen
            }
        }
    };
}

impl_executor!(Simulation, Protocol);
impl_executor!(ShardedKernel, Protocol + Send);

/// A scenario instantiated on an [`Executor`]: owns the executor plus
/// the cursors over the workload and fault scripts, applies script events
/// at exactly their scheduled ticks while the executor lets time pass,
/// and assembles the [`ScenarioReport`]. On the sharded executor script
/// events apply on the coordinator *between* run segments, while no
/// worker thread is live, so every shard observes each fault at the same
/// tick barrier.
///
/// The kernel and the sharded executor are reached through
/// [`Scenario::sim`] / [`Scenario::sim_sharded`] and the aliases
/// [`ScenarioSim`] / [`ShardedScenarioSim`]; `diffuse-net`'s runners wrap
/// their own executors with [`ScenarioRun::over`]. Being one type, no two
/// of them can drift apart in script semantics.
pub struct ScenarioRun<S> {
    sim: S,
    topology: Arc<Topology>,
    base_config: Arc<Configuration>,
    script: ScriptSchedule,
    skipped_faults: u64,
    /// Processes a [`FaultAction::Corrupt`] ever targeted — the "liar
    /// set" that containment metrics are assembled against.
    corrupt: BTreeSet<ProcessId>,
}

/// A scenario on the simulation kernel (see [`ScenarioRun`]).
pub type ScenarioSim<P> = ScenarioRun<Simulation<ProtocolActor<P>>>;

/// A scenario on the sharded executor (see [`ScenarioRun`]).
pub type ShardedScenarioSim<P> = ScenarioRun<ShardedKernel<ProtocolActor<P>>>;

impl<S: Executor> std::fmt::Debug for ScenarioRun<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRun")
            .field("now", &self.sim.now())
            .field("script", &self.script)
            .finish_non_exhaustive()
    }
}

impl<S: Executor> ScenarioRun<S> {
    /// Puts `scenario`'s scripts in front of `executor`, which must have
    /// been built from the same scenario and stand at tick zero.
    pub fn over(scenario: &Scenario, executor: S) -> Self {
        ScenarioRun {
            sim: executor,
            topology: Arc::clone(&scenario.topology),
            base_config: Arc::clone(&scenario.config),
            script: ScriptSchedule::new(scenario),
            skipped_faults: 0,
            corrupt: BTreeSet::new(),
        }
    }

    /// The underlying executor (metrics, node access, time).
    pub fn sim(&self) -> &S {
        &self.sim
    }

    /// Mutable access to the underlying executor (extra fault
    /// injection, manual commands, stopping a wall-clock executor before
    /// the report).
    pub fn sim_mut(&mut self) -> &mut S {
        &mut self.sim
    }

    /// Scripted broadcasts that failed non-retryably at issue time.
    pub fn failed_broadcasts(&self) -> u64 {
        self.script.failed
    }

    /// Scripted broadcasts currently deferred (incomplete knowledge or a
    /// down origin), awaiting their next per-tick retry.
    pub fn pending_broadcasts(&self) -> u64 {
        self.script.deferred.len() as u64
    }

    /// Applies every script event due at or before the current tick —
    /// faults before broadcasts at equal times (a broadcast scheduled at
    /// the moment of a heal sees the healed links), each script in time
    /// order, deferred broadcasts first — and returns the tick to advance
    /// to next: the earliest remaining script event, capped at `end`.
    ///
    /// A liar is on record before its fault is applied, so a corruption
    /// the executor could not inject still never counts its target as a
    /// correct node. A retryable broadcast goes back in the queue for the
    /// next tick; anything else that did not issue counts as failed.
    fn apply_due_events(&mut self, end: SimTime) -> SimTime {
        let now = self.sim.now();
        for action in self.script.due_faults(now) {
            if let FaultAction::Corrupt { process, .. } = &action {
                self.corrupt.insert(*process);
            }
            self.skipped_faults += action.apply(&self.topology, &self.base_config, &mut self.sim);
        }
        for event in self.script.due_broadcasts(now) {
            match self.sim.issue(event.origin, &event.payload) {
                BroadcastOutcome::Issued => {}
                BroadcastOutcome::Deferred => self.script.deferred.push((now + 1, event)),
                BroadcastOutcome::Failed => self.script.failed += 1,
            }
        }
        self.script.next_time().filter(|&t| t <= end).unwrap_or(end)
    }

    /// The driver loop: for `n` ticks, applies the due script events and
    /// lets `advance` take the executor up to the next one, stopping early
    /// if it answers with a hit.
    ///
    /// An event scheduled exactly at the run's final tick is *not*
    /// applied by this run — its sends could never be delivered inside
    /// the horizon — but is the first thing a subsequent run does.
    fn drive<T>(&mut self, n: u64, mut advance: impl FnMut(&mut S, u64) -> Option<T>) -> Option<T> {
        let end = self.sim.now() + n;
        while self.sim.now() < end {
            let target = self.apply_due_events(end);
            let budget = target - self.sim.now();
            if let Some(hit) = advance(&mut self.sim, budget) {
                return Some(hit);
            }
        }
        None
    }

    /// Advances `n` ticks, applying script events at their scheduled
    /// times (up to, not including, the final tick's).
    pub fn run_ticks(&mut self, n: u64) {
        self.drive(n, |sim, ticks| {
            sim.advance(ticks);
            None::<()>
        });
    }

    /// The run's outcome so far. Broadcasts still deferred when the
    /// report is taken count as failed — they never issued. Containment
    /// is assembled from the executor's per-process audits against the
    /// scripted liar set.
    pub fn report(&self) -> ScenarioReport {
        let seen = self.sim.observed();
        ScenarioReport {
            delivered: seen.delivered,
            failed_broadcasts: self.failed_broadcasts() + self.pending_broadcasts(),
            skipped_faults: self.skipped_faults,
            containment: Containment::assemble(&self.corrupt, &seen.audits, seen.suppressed),
            metrics: Some(seen.metrics),
        }
    }
}

impl<P: Protocol> ScenarioSim<P> {
    /// Runs until `predicate` holds (checked at multiples of
    /// `check_every` ticks), applying script events on the way; gives up
    /// after `max_ticks`.
    pub fn run_until_every(
        &mut self,
        mut predicate: impl FnMut(&Simulation<ProtocolActor<P>>) -> bool,
        check_every: u64,
        max_ticks: u64,
    ) -> Option<SimTime> {
        self.drive(max_ticks, |sim, budget| {
            sim.run_until_every(&mut predicate, check_every, budget)
        })
    }
}

/// The links crossing the boundary between `island` and the rest.
pub fn partition_cut(topology: &Topology, island: &[ProcessId]) -> Vec<LinkId> {
    topology
        .links()
        .filter(|link| {
            let (a, b) = link.endpoints();
            island.contains(&a) != island.contains(&b)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkKnowledge, OptimalBroadcast, ReferenceGossip};
    use diffuse_graph::generators;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn workload_builders_expand_to_events() {
        let w = Workload::new()
            .broadcast(SimTime::new(5), p(0), Payload::from("x"))
            .burst(SimTime::new(7), p(1), 3)
            .stream(p(2), SimTime::new(10), 4, 2);
        assert_eq!(w.events().len(), 6);
        let sorted = w.sorted();
        assert_eq!(sorted[0].at, SimTime::new(5));
        assert_eq!(sorted.last().unwrap().at, SimTime::new(14));
    }

    #[test]
    fn partition_cut_finds_crossing_links() {
        let ring = generators::ring(6).unwrap();
        let cut = partition_cut(&ring, &[p(0), p(1), p(2)]);
        // Exactly two links cross a contiguous arc cut of a ring.
        assert_eq!(cut.len(), 2);
    }

    /// One call the driver made on the [`Recorder`], stamped with the
    /// tick it was made at.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Loss(u64),
        Corrupt(u64, ProcessId),
        Issue(u64, ProcessId, &'static str),
        Advance(u64, u64),
    }

    /// A fake executor: records what the driver asks of it and answers
    /// from a script, so the rules of running a scenario are pinned as
    /// call sequences, once, with no engine underneath.
    #[derive(Default)]
    struct Recorder {
        now: SimTime,
        calls: Vec<Call>,
        /// Answers to successive `issue` calls; `Issued` once exhausted.
        answers: std::collections::VecDeque<BroadcastOutcome>,
        /// Whether `inject_corrupt` reaches its target.
        corruptible: bool,
        seen: Observed,
    }

    impl FaultSink for Recorder {
        fn set_loss(&mut self, _: LinkId, _: Probability) {
            self.calls.push(Call::Loss(self.now.ticks()));
        }
        fn force_down(&mut self, _: ProcessId, _: u64) {}
        fn inject_corrupt(&mut self, process: ProcessId, _: CorruptionMode, _: u64) -> bool {
            self.calls.push(Call::Corrupt(self.now.ticks(), process));
            self.corruptible
        }
    }

    impl Executor for Recorder {
        fn now(&self) -> SimTime {
            self.now
        }
        fn advance(&mut self, ticks: u64) {
            self.calls.push(Call::Advance(self.now.ticks(), ticks));
            self.now += ticks;
        }
        fn issue(&mut self, origin: ProcessId, payload: &Payload) -> BroadcastOutcome {
            let name = ["first", "second", "third"]
                .into_iter()
                .find(|name| name.as_bytes() == payload.as_bytes())
                .expect("a payload these tests script");
            self.calls.push(Call::Issue(self.now.ticks(), origin, name));
            self.answers.pop_front().unwrap_or(BroadcastOutcome::Issued)
        }
        fn observed(&self) -> Observed {
            self.seen.clone()
        }
    }

    fn recorded(
        workload: Workload,
        faults: FaultScript,
        recorder: Recorder,
    ) -> ScenarioRun<Recorder> {
        let scenario = Scenario::builder(generators::ring(3).unwrap())
            .workload(workload)
            .faults(faults)
            .build();
        ScenarioRun::over(&scenario, recorder)
    }

    fn spike() -> FaultAction {
        FaultAction::SetLoss {
            link: LinkId::new(p(0), p(1)).unwrap(),
            loss: Probability::ONE,
        }
    }

    #[test]
    fn a_fault_is_applied_before_a_broadcast_of_the_same_tick() {
        let mut run = recorded(
            Workload::new().broadcast(SimTime::new(5), p(0), Payload::from("first")),
            FaultScript::new().at(SimTime::new(5), spike()),
            Recorder::default(),
        );
        run.run_ticks(8);
        assert_eq!(
            run.sim().calls,
            [
                Call::Advance(0, 5),
                Call::Loss(5),
                Call::Issue(5, p(0), "first"),
                Call::Advance(5, 3),
            ]
        );
    }

    #[test]
    fn a_deferred_broadcast_is_retried_next_tick_and_never_overtaken() {
        use BroadcastOutcome::Deferred;
        let mut run = recorded(
            Workload::new()
                .broadcast(SimTime::new(3), p(0), Payload::from("first"))
                .broadcast(SimTime::new(4), p(0), Payload::from("second"))
                .broadcast(SimTime::new(9), p(1), Payload::from("third")),
            FaultScript::new(),
            Recorder {
                answers: [Deferred, Deferred, Deferred].into(),
                ..Recorder::default()
            },
        );
        run.run_ticks(10);
        assert_eq!(
            run.sim().calls,
            [
                Call::Advance(0, 3),
                Call::Issue(3, p(0), "first"),
                // Retried at now + 1, not at the next script event …
                Call::Advance(3, 1),
                // … and ahead of the newly-due broadcast from its origin.
                Call::Issue(4, p(0), "first"),
                Call::Issue(4, p(0), "second"),
                Call::Advance(4, 1),
                Call::Issue(5, p(0), "first"),
                Call::Issue(5, p(0), "second"),
                Call::Advance(5, 4),
                Call::Issue(9, p(1), "third"),
                Call::Advance(9, 1),
            ]
        );
        assert_eq!(run.report().failed_broadcasts, 0);
    }

    #[test]
    fn an_event_at_the_horizon_tick_waits_for_the_next_run() {
        let mut run = recorded(
            Workload::new().broadcast(SimTime::new(10), p(2), Payload::from("first")),
            FaultScript::new().at(SimTime::new(10), spike()),
            Recorder::default(),
        );
        run.run_ticks(10);
        assert_eq!(run.sim().calls, [Call::Advance(0, 10)]);
        run.run_ticks(5);
        assert_eq!(
            run.sim().calls[1..],
            [
                Call::Loss(10),
                Call::Issue(10, p(2), "first"),
                Call::Advance(10, 5),
            ]
        );
    }

    #[test]
    fn a_broadcast_still_pending_at_report_time_counts_as_failed() {
        use BroadcastOutcome::{Deferred, Failed};
        let mut run = recorded(
            Workload::new()
                .broadcast(SimTime::ZERO, p(0), Payload::from("first"))
                .broadcast(SimTime::new(1), p(1), Payload::from("second")),
            FaultScript::new(),
            Recorder {
                // "first" never issues; "second" fails outright at tick 1.
                answers: [Deferred, Deferred, Failed, Deferred].into(),
                ..Recorder::default()
            },
        );
        run.run_ticks(3);
        assert_eq!(run.failed_broadcasts(), 1, "only the outright failure");
        assert_eq!(run.pending_broadcasts(), 1);
        assert_eq!(run.report().failed_broadcasts, 2);
    }

    #[test]
    fn an_unreachable_liar_is_both_on_record_and_a_skipped_fault() {
        // The executor cannot inject the window, yet the target must not
        // be counted as a correct node: its emissions and what it offered
        // to p0 land in the containment metrics.
        let mut seen = Observed::default();
        seen.audits.entry(p(2)).or_default().corrupt_emissions = 7;
        seen.audits.entry(p(0)).or_default().sender(p(2)).offered = 3;
        seen.audits.entry(p(0)).or_default().sender(p(1)).offered = 100;
        let mut run = recorded(
            Workload::new(),
            FaultScript::new().at(
                SimTime::new(1),
                FaultAction::Corrupt {
                    process: p(2),
                    mode: CorruptionMode::StaleReplay,
                    window: 4,
                },
            ),
            Recorder {
                corruptible: false,
                seen,
                ..Recorder::default()
            },
        );
        run.run_ticks(2);
        assert_eq!(run.sim().calls[1], Call::Corrupt(1, p(2)));
        let report = run.report();
        assert_eq!(report.skipped_faults, 1);
        assert_eq!(report.containment.corrupt_emissions, 7);
        assert_eq!(report.containment.corrupt_offers, 3);
    }

    #[test]
    fn scenario_runs_a_scripted_broadcast_on_the_kernel() {
        let topology = generators::ring(6).unwrap();
        let config = Configuration::new();
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let scenario = Scenario::builder(topology)
            .config(config)
            .seed(3)
            .workload(Workload::new().broadcast(SimTime::ZERO, p(0), Payload::from("go")))
            .build();
        let report = scenario.run_sim(20, |id| OptimalBroadcast::new(id, knowledge.clone(), 0.999));
        assert!(report.all_delivered_at_least(1), "{report:?}");
        assert_eq!(report.failed_broadcasts, 0);
        assert!(report.metrics.as_ref().unwrap().sent_total() >= 5);
    }

    #[test]
    fn processes_built_from_one_knowledge_share_it() {
        let topology = generators::ring(6).unwrap();
        let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());
        let scenario = Scenario::builder(topology).build();
        let run = scenario.sim(|id| OptimalBroadcast::new(id, knowledge.clone(), 0.999));
        let held = |id| run.sim().node(p(id)).unwrap().protocol().knowledge();
        for id in [0, 3] {
            assert!(std::ptr::eq(held(id).topology(), knowledge.topology()));
            assert!(std::ptr::eq(held(id).config(), knowledge.config()));
        }
    }

    #[test]
    fn fault_script_cuts_and_heals_mid_run() {
        // Gossip on a line 0-1-2; the only path is cut when the first
        // broadcast is issued and healed before the second.
        let mut topology = Topology::new();
        topology.add_link(p(0), p(1)).unwrap();
        topology.add_link(p(1), p(2)).unwrap();
        let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
        let scenario = Scenario::builder(topology.clone())
            .seed(5)
            .workload(
                Workload::new()
                    .broadcast(SimTime::ZERO, p(0), Payload::from("cut"))
                    .broadcast(SimTime::new(40), p(0), Payload::from("healed")),
            )
            .faults(
                FaultScript::new()
                    .at(SimTime::ZERO, FaultAction::Partition { island: vec![p(0)] })
                    .at(SimTime::new(30), FaultAction::Heal),
            )
            .build();
        let report = scenario.run_sim(80, |id| ReferenceGossip::new(id, neighbors(id), 6));
        // p0 delivered both of its own broadcasts; the others only saw
        // the post-heal one.
        assert_eq!(report.delivered[&p(0)], 2);
        assert_eq!(report.delivered[&p(1)], 1);
        assert_eq!(report.delivered[&p(2)], 1);
    }

    #[test]
    fn spike_and_heal_reach_the_very_next_flush() {
        // A fault applies before a broadcast of the same tick, and the
        // optimal broadcast sends its copies in the issuing command: the
        // spike must already govern that flush, the heal the next one.
        let topology = generators::ring(4).unwrap();
        let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());
        let spike = FaultAction::DegradeAll {
            loss: Probability::ONE,
        };
        let scenario = Scenario::builder(topology)
            .workload(
                Workload::new()
                    .broadcast(SimTime::new(5), p(0), Payload::from("spiked"))
                    .broadcast(SimTime::new(6), p(0), Payload::from("healed")),
            )
            .faults(
                FaultScript::new()
                    .at(SimTime::new(5), spike)
                    .at(SimTime::new(6), FaultAction::Heal),
            )
            .build();
        let mut run = scenario.sim(|id| OptimalBroadcast::new(id, knowledge.clone(), 0.999));
        run.run_ticks(6);
        let spiked = run.sim().metrics();
        assert!(spiked.sent_total() > 0);
        assert_eq!(spiked.lost_in_link(), spiked.sent_total());
        run.run_ticks(20);
        let report = run.report();
        assert_eq!(
            report.metrics.as_ref().unwrap().lost_in_link(),
            spiked.lost_in_link()
        );
        assert_eq!(report.delivered[&p(0)], 2);
        assert!(
            report.delivered.values().skip(1).all(|&n| n == 1),
            "{report:?}"
        );
    }

    #[test]
    fn scripted_crash_is_executed_by_the_kernel() {
        let topology = generators::ring(4).unwrap();
        let config = Configuration::new();
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let scenario = Scenario::builder(topology)
            .config(config)
            .workload(Workload::new().broadcast(SimTime::new(5), p(0), Payload::from("x")))
            .faults(FaultScript::new().at(
                SimTime::new(1),
                FaultAction::Crash {
                    process: p(2),
                    down_ticks: 3,
                },
            ))
            .build();
        let mut run = scenario.sim(|id| OptimalBroadcast::new(id, knowledge.clone(), 0.999));
        run.run_ticks(3);
        assert!(!run.sim().is_up(p(2)));
        run.run_ticks(30);
        assert!(run.sim().is_up(p(2)));
        assert!(run.report().all_delivered_at_least(1));
    }

    #[test]
    fn adversarial_faults_execute_with_zero_skips() {
        // One lying node plus a bounded message adversary on the
        // kernel: both actions execute (nothing skipped), containment
        // counters move, and no corrupted entry lands at distortion 0.
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
                        SimTime::new(20),
                        FaultAction::MessageAdversary { d: 1, window: 10 },
                    )
                    // Switched off before the broadcast, so the data
                    // copies themselves run unsuppressed.
                    .at(
                        SimTime::new(50),
                        FaultAction::MessageAdversary { d: 0, window: 1 },
                    ),
            )
            .build();
        let report = scenario.run_sim(200, |id| {
            crate::Adversary::new(
                crate::AdaptiveBroadcast::new(
                    id,
                    all.clone(),
                    neighbors(id),
                    crate::AdaptiveParams::default(),
                ),
                11,
            )
        });
        assert_eq!(report.skipped_faults, 0);
        let c = report.containment;
        assert!(c.corrupt_emissions > 0, "{c:?}");
        assert!(c.suppressed_emissions > 0, "{c:?}");
        assert_eq!(c.bound_violations, 0, "{c:?}");
        assert!(!c.is_clean());
        assert!(report.all_delivered_at_least(1), "{report:?}");

        // The sharded executor at one worker replays the kernel's run
        // bit for bit — adversary streams included.
        let sharded = scenario.run_sim_sharded(200, 1, |id| {
            crate::Adversary::new(
                crate::AdaptiveBroadcast::new(
                    id,
                    all.clone(),
                    neighbors(id),
                    crate::AdaptiveParams::default(),
                ),
                11,
            )
        });
        assert_eq!(report, sharded);
    }

    #[test]
    fn premature_broadcasts_are_deferred_then_issued() {
        // An adaptive node cannot broadcast at tick 0 (incomplete
        // knowledge). Like the net runtime, the kernel driver defers and
        // retries each tick, so the broadcast issues once the topology
        // completes — and a run too short for that reports the pending
        // broadcast as failed.
        let topology = generators::ring(4).unwrap();
        let all: Vec<ProcessId> = topology.processes().collect();
        let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();
        let scenario = Scenario::builder(topology.clone())
            .workload(Workload::new().broadcast(SimTime::ZERO, p(0), Payload::from("too early")))
            .build();
        let mut run = scenario.sim(|id| {
            crate::AdaptiveBroadcast::new(
                id,
                all.clone(),
                neighbors(id),
                crate::AdaptiveParams::default(),
            )
        });
        run.run_ticks(1);
        assert_eq!(run.pending_broadcasts(), 1, "still deferred");
        assert_eq!(
            run.report().failed_broadcasts,
            1,
            "pending counts as failed"
        );
        run.run_ticks(40);
        let report = run.report();
        assert_eq!(run.pending_broadcasts(), 0);
        assert_eq!(report.failed_broadcasts, 0);
        assert!(report.all_delivered_at_least(1), "{report:?}");
    }
}
