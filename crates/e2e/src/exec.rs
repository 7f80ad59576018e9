//! Calling the program under test: one executor call per repetition,
//! and the same run sliced at script boundaries for the traced pass.

use diffuse_core::scenario::{ScenarioReport, ScenarioSim, ShardedScenarioSim};
use diffuse_core::{AdaptiveParams, Protocol};
use diffuse_net::run_scenario_on_fabric_virtual;

use crate::trace::Tracer;
use crate::workloads::{Executor, Inputs, TARGET_K};

pub fn adaptive_params() -> AdaptiveParams {
    AdaptiveParams::default().with_target_reliability(TARGET_K)
}

/// Binds `$make` to the per-process constructor of `$inputs`' protocol
/// and evaluates `$body` once, monomorphised for that protocol.
macro_rules! with_make {
    ($inputs:expr, $make:ident => $body:expr) => {{
        let inputs: &$crate::workloads::Inputs = $inputs;
        match inputs.protocol {
            $crate::workloads::ProtocolKind::Adaptive => {
                let params = $crate::exec::adaptive_params();
                let $make = |id: diffuse_model::ProcessId| {
                    diffuse_core::AdaptiveBroadcast::new(
                        id,
                        inputs.all.clone(),
                        inputs.neighbors[&id].clone(),
                        params.clone(),
                    )
                };
                $body
            }
            $crate::workloads::ProtocolKind::Optimal => {
                let $make = |id: diffuse_model::ProcessId| {
                    diffuse_core::OptimalBroadcast::new(
                        id,
                        inputs.knowledge.clone(),
                        $crate::workloads::TARGET_K,
                    )
                };
                $body
            }
            $crate::workloads::ProtocolKind::Gossip => {
                let $make = |id: diffuse_model::ProcessId| {
                    diffuse_core::ReferenceGossip::new(
                        id,
                        inputs.neighbors[&id].clone(),
                        $crate::workloads::GOSSIP_STEPS,
                    )
                };
                $body
            }
        }
    }};
}
pub(crate) use with_make;

/// The one executor call a repetition times: instantiate, run to the
/// horizon, report.
pub fn execute(inputs: &Inputs, executor: Executor) -> ScenarioReport {
    let (scenario, ticks) = (&inputs.scenario, inputs.horizon);
    with_make!(inputs, make => match executor {
        Executor::Kernel => scenario.run_sim(ticks, make),
        Executor::Sharded(workers) => scenario.run_sim_sharded(ticks, workers, make),
        Executor::FabricVirtual => run_scenario_on_fabric_virtual(scenario, ticks, make),
    })
}

/// What both kernel drivers expose between `sim()` and `report()`.
trait Sliced {
    fn advance(&mut self, ticks: u64);
    fn sent(&self) -> u64;
    fn busy_ticks(&self) -> u64;
    fn finish(&self) -> ScenarioReport;
}

impl<P: Protocol> Sliced for ScenarioSim<P> {
    fn advance(&mut self, ticks: u64) {
        self.run_ticks(ticks);
    }
    fn sent(&self) -> u64 {
        self.sim().metrics().sent_total()
    }
    fn busy_ticks(&self) -> u64 {
        self.sim().busy_ticks()
    }
    fn finish(&self) -> ScenarioReport {
        self.report()
    }
}

impl<P: Protocol + Send> Sliced for ShardedScenarioSim<P> {
    fn advance(&mut self, ticks: u64) {
        self.run_ticks(ticks);
    }
    fn sent(&self) -> u64 {
        self.sim().metrics().sent_total()
    }
    fn busy_ticks(&self) -> u64 {
        self.sim().busy_ticks()
    }
    fn finish(&self) -> ScenarioReport {
        self.report()
    }
}

/// One script phase of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    pub name: &'static str,
    pub seconds: f64,
    /// Messages sent during the phase (0 when the script has one phase).
    pub sent: u64,
}

/// A traced repetition: the report plus what the boundary spans saw.
#[derive(Debug)]
pub struct TracedRun {
    pub report: ScenarioReport,
    /// Index of the repetition's root span.
    pub rep_span: usize,
    /// Index of the `run` span.
    pub run_span: usize,
    /// `None` on the fabric, whose runner is one opaque call.
    pub instantiate_s: Option<f64>,
    pub report_s: Option<f64>,
    pub busy_ticks: Option<u64>,
    pub phases: Vec<PhaseCost>,
}

fn run_sliced<S: Sliced>(
    inputs: &Inputs,
    tracer: &mut Tracer,
    instantiate: impl FnOnce() -> S,
) -> TracedRun {
    let (mut out, rep_span) = tracer.span("rep", |t| {
        let (mut sim, instantiate_span) = t.span("instantiate", |_| instantiate());
        let (phases, run_span) = t.span("run", |t| {
            let (mut at, mut sent) = (0u64, 0u64);
            let mut phases = Vec::new();
            for &(name, end) in &inputs.phases {
                let ((), span) = t.span(&format!("run.{name}"), |_| sim.advance(end - at));
                // Reading the counter merges every shard's per-link map on
                // the sharded executor (~2 % of a 10 000-node run), and a
                // single phase's count is the report's total anyway.
                let sent_now = if inputs.phases.len() > 1 {
                    sim.sent()
                } else {
                    0
                };
                phases.push(PhaseCost {
                    name,
                    seconds: t.duration(span),
                    sent: sent_now - sent,
                });
                (at, sent) = (end, sent_now);
            }
            phases
        });
        let busy_ticks = sim.busy_ticks();
        let (report, report_span) = t.span("report", |_| sim.finish());
        TracedRun {
            report,
            rep_span: 0,
            run_span,
            instantiate_s: Some(t.duration(instantiate_span)),
            report_s: Some(t.duration(report_span)),
            busy_ticks: Some(busy_ticks),
            phases,
        }
    });
    out.rep_span = rep_span;
    out
}

/// The same run as [`execute`], with a span at every boundary the
/// public API exposes.
pub fn execute_traced(inputs: &Inputs, executor: Executor, tracer: &mut Tracer) -> TracedRun {
    let (scenario, ticks) = (&inputs.scenario, inputs.horizon);
    with_make!(inputs, make => match executor {
        Executor::Kernel => run_sliced(inputs, tracer, || scenario.sim(make)),
        Executor::Sharded(workers) => {
            run_sliced(inputs, tracer, || scenario.sim_sharded(workers, make))
        }
        Executor::FabricVirtual => {
            let ((report, run_span), rep_span) = tracer.span("rep", |t| {
                t.span("run", |_| run_scenario_on_fabric_virtual(scenario, ticks, make))
            });
            TracedRun {
                report,
                rep_span,
                run_span,
                instantiate_s: None,
                report_s: None,
                busy_ticks: None,
                phases: Vec::new(),
            }
        }
    })
}
