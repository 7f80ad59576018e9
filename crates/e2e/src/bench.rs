//! One workload, one process: set-up, warm-up, timed repetitions, output
//! checks, and — in the traced pass — boundary spans and layer probes.

use diffuse_core::scenario::ScenarioReport;

use crate::checks::{self, Verdict};
use crate::exec::{execute, execute_traced, TracedRun};
use crate::json::Value;
use crate::measure::{cpu_seconds, now, peak_rss_mb, timed, Stats};
use crate::probes::{self, Probes};
use crate::trace::Tracer;
use crate::workloads::{self, Executor, Inputs, ProtocolKind, Scale, WorkloadDef};

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub def: &'static WorkloadDef,
    pub seed: u64,
    /// How long the run measures, in host seconds.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One measured value, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub stats: Stats,
    /// A simulated statistic: repeats exactly for a fixed seed.
    pub exact: bool,
    /// Unit cost × count, not a measurement of the run itself.
    pub estimate: bool,
}

impl Metric {
    fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            stats: Stats::of(samples),
            exact: false,
            estimate: false,
        }
    }

    fn measured(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            stats: Stats::exact(value),
            exact: false,
            estimate: false,
        }
    }

    fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            exact: true,
            ..Metric::measured(name, unit, value)
        }
    }

    fn estimate(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            estimate: true,
            ..Metric::measured(name, unit, value)
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("value", Value::Num(self.stats.median)),
            ("unit", Value::str(self.unit)),
            ("q1", Value::Num(self.stats.q1)),
            ("q3", Value::Num(self.stats.q3)),
            ("min", Value::Num(self.stats.min)),
            ("max", Value::Num(self.stats.max)),
            ("n", Value::Num(self.stats.n as f64)),
            ("exact", Value::Bool(self.exact)),
            ("estimate", Value::Bool(self.estimate)),
        ])
    }
}

#[derive(Debug)]
pub struct Outcome {
    pub verdict: Verdict,
    pub metrics: Vec<Metric>,
    /// The span file's content, in the traced pass.
    pub spans: Option<Value>,
}

/// Set-up is repeated and its median reported. One sample is the mean
/// of a batch of builds sized to last about `SETUP_BATCH_S`: a single
/// `ring(8)` build takes microseconds, too short to time once. The
/// 10 000-node builds are their own batch and stop at the minimum count.
const SETUP_MIN_SAMPLES: usize = 5;
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_BATCH_S: f64 = 0.005;

fn set_up(opts: &Options) -> (Inputs, Vec<f64>) {
    let build = || workloads::build(opts.def, opts.seed, opts.scale, &mut Tracer::off());
    let (min_samples, budget_s) = match opts.scale {
        Scale::Full => (SETUP_MIN_SAMPLES, SETUP_BUDGET_S),
        Scale::Smoke => (2, 0.0),
    };
    // The first build is cold; it only sizes the batch.
    let (first, first_s) = timed(build);
    let batch = (SETUP_BATCH_S / first_s).clamp(1.0, 4096.0) as u32;
    let start = now();
    let mut samples = Vec::new();
    let mut inputs = Some(first);
    while samples.len() < min_samples || start.elapsed().as_secs_f64() < budget_s {
        let ((), seconds) = timed(|| {
            for _ in 0..batch {
                // Only one copy of the inputs is ever alive: two
                // 10 000-node topologies would set the peak RSS.
                drop(inputs.take());
                inputs = Some(build());
            }
        });
        samples.push(seconds / f64::from(batch));
    }
    (inputs.expect("the last build is kept"), samples)
}

/// Timed repetitions of the one executor call, each checked against
/// `first`. Stops once `budget_s` is used up (never before `min_reps`),
/// without starting a repetition that would overrun it.
fn repetitions(
    inputs: &Inputs,
    executor: Executor,
    first: &ScenarioReport,
    min_reps: usize,
    budget_s: f64,
    divergences: &mut Vec<String>,
) -> Vec<f64> {
    let start = now();
    let mut samples: Vec<f64> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next = samples.last().copied().unwrap_or(0.0);
        if samples.len() >= min_reps && elapsed + next > budget_s {
            return samples;
        }
        let (report, seconds) = timed(|| execute(inputs, executor));
        samples.push(seconds);
        divergences.extend(checks::repetition_problem(first, samples.len(), &report));
    }
}

/// What the reference executor — the kernel, for the workloads that
/// run elsewhere — cost on the same scenario. Its report is compared
/// and dropped before the timed repetitions start.
struct Reference {
    wall_s: f64,
    cpu_s: f64,
}

fn reference_run(
    inputs: &Inputs,
    reps: usize,
    first: &ScenarioReport,
    divergences: &mut Vec<String>,
) -> Result<Reference, String> {
    let cpu_before = cpu_seconds()?;
    let mut samples = Vec::new();
    for _ in 0..reps {
        let (report, seconds) = timed(|| execute(inputs, Executor::Kernel));
        samples.push(seconds);
        if samples.len() == 1 {
            divergences.extend(checks::reference_problem(first, "kernel", &report));
        }
    }
    Ok(Reference {
        wall_s: Stats::of(&samples).median,
        cpu_s: (cpu_seconds()? - cpu_before) / reps as f64,
    })
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let def = opts.def;
    let smoke = opts.scale == Scale::Smoke;
    let min_reps = if smoke { 2 } else { def.min_reps };
    // The traced pass splits its time three ways: untraced repetitions
    // (the overhead baseline), traced repetitions, probes.
    let budget_s = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };

    let (inputs, setup_samples) = set_up(opts);

    let first = execute(&inputs, def.executor);
    // Read here, the high-water mark is set-up plus one execution; read
    // at exit it would also count what the allocator strands between
    // repetitions, which varies by tens of MB when shard workers
    // allocate from their own arenas.
    let peak_rss = peak_rss_mb()?;
    let mut divergences = Vec::new();
    let reference = if def.executor == Executor::Kernel {
        None
    } else {
        let reps = if opts.trace && !smoke { 3 } else { 1 };
        Some(reference_run(&inputs, reps, &first, &mut divergences)?)
    };
    let cpu_before = cpu_seconds()?;
    let wall_samples = repetitions(
        &inputs,
        def.executor,
        &first,
        min_reps,
        budget_s,
        &mut divergences,
    );
    let cpu_per_rep = (cpu_seconds()? - cpu_before) / wall_samples.len() as f64;
    let wall = Stats::of(&wall_samples);

    let mut metrics = Vec::new();
    let mut spans = None;
    if opts.trace {
        let mut tracer = Tracer::new();
        let (_, setup_span) = tracer.span("setup", |t| {
            workloads::build(def, opts.seed, opts.scale, t);
        });
        let traced = traced_repetitions(
            &inputs,
            def.executor,
            &first,
            if smoke { 1 } else { 2 },
            budget_s,
            &mut tracer,
            &mut divergences,
        );
        let probes = probes::run(&inputs, opts.seed, if smoke { 0.0 } else { budget_s });
        per_layer_metrics(
            &mut metrics,
            &LayerInputs {
                executor: def.executor,
                setup_span,
                inputs: &inputs,
                first: &first,
                wall: &wall,
                cpu_per_rep,
                reference: reference.as_ref(),
                tracer: &tracer,
                traced: &traced,
                probes: &probes,
            },
        )?;
        spans = Some(tracer.to_json(def.name, opts.seed));
    } else {
        end_to_end_metrics(
            &mut metrics,
            &inputs,
            &first,
            &setup_samples,
            &wall_samples,
            peak_rss,
        )?;
    }

    let verdict = checks::verify(&first, divergences, inputs.broadcasts(), inputs.processes());
    Ok(Outcome {
        verdict,
        metrics,
        spans,
    })
}

fn end_to_end_metrics(
    out: &mut Vec<Metric>,
    inputs: &Inputs,
    report: &ScenarioReport,
    setup_samples: &[f64],
    wall_samples: &[f64],
    peak_rss: f64,
) -> Result<(), String> {
    let broadcasts = inputs.broadcasts() as f64;
    let delivered: u64 = report.delivered.values().sum();
    let data = report
        .metrics
        .as_ref()
        .ok_or("the executor reported no wire metrics")?
        .sent_of_kind("data") as f64;
    let data_per_broadcast = data / broadcasts;
    out.push(Metric::timing("setup_s", "s", setup_samples));
    out.push(Metric::timing("wall_s", "s", wall_samples));
    out.push(Metric::measured("peak_rss_mb", "MB", peak_rss));
    out.push(Metric::exact(
        "delivery_ratio",
        "ratio",
        delivered as f64 / (broadcasts * inputs.processes() as f64),
    ));
    out.push(Metric::exact(
        "data_msgs_per_broadcast",
        "msgs",
        data_per_broadcast,
    ));
    out.push(Metric::exact(
        "cost_vs_optimal",
        "ratio",
        data_per_broadcast / inputs.optimal_msgs_per_broadcast,
    ));
    Ok(())
}

/// The traced repetitions' boundary-span samples.
struct Traced {
    rep_s: Vec<f64>,
    run_s: Vec<f64>,
    instantiate_s: Vec<f64>,
    report_s: Vec<f64>,
    /// Largest relative gap between a repetition's duration and the sum
    /// of its spans' self times (zero when spans nest properly).
    self_time_gap: f64,
    last: TracedRun,
}

fn traced_repetitions(
    inputs: &Inputs,
    executor: Executor,
    first: &ScenarioReport,
    min_reps: usize,
    budget_s: f64,
    tracer: &mut Tracer,
    divergences: &mut Vec<String>,
) -> Traced {
    let start = now();
    let mut traced = Traced {
        rep_s: Vec::new(),
        run_s: Vec::new(),
        instantiate_s: Vec::new(),
        report_s: Vec::new(),
        self_time_gap: 0.0,
        last: execute_traced(inputs, executor, tracer),
    };
    loop {
        let run = &traced.last;
        let rep_s = tracer.duration(run.rep_span);
        traced.rep_s.push(rep_s);
        traced.run_s.push(tracer.duration(run.run_span));
        traced.instantiate_s.extend(run.instantiate_s);
        traced.report_s.extend(run.report_s);
        let gap = (tracer.self_time_sum(run.rep_span) - rep_s).abs() / rep_s;
        traced.self_time_gap = traced.self_time_gap.max(gap);
        if let Some(field) = checks::first_difference(first, &run.report) {
            divergences.push(format!(
                "traced repetition {} differs from repetition 0 in {field}",
                traced.rep_s.len()
            ));
        }
        if traced.rep_s.len() >= min_reps && start.elapsed().as_secs_f64() + rep_s > budget_s {
            return traced;
        }
        traced.last = execute_traced(inputs, executor, tracer);
    }
}

struct LayerInputs<'a> {
    executor: Executor,
    setup_span: usize,
    inputs: &'a Inputs,
    first: &'a ScenarioReport,
    wall: &'a Stats,
    cpu_per_rep: f64,
    reference: Option<&'a Reference>,
    tracer: &'a Tracer,
    traced: &'a Traced,
    probes: &'a Probes,
}

fn per_layer_metrics(out: &mut Vec<Metric>, l: &LayerInputs<'_>) -> Result<(), String> {
    let LayerInputs {
        inputs,
        first,
        wall,
        tracer,
        traced,
        probes,
        ..
    } = *l;
    let wire = first
        .metrics
        .as_ref()
        .ok_or("the executor reported no wire metrics")?;
    let run_s = Stats::of(&traced.run_s).median;
    let deliveries: u64 = first.delivered.values().sum();
    let sent = wire.sent_total() as f64;

    // graph, set-up side.
    out.extend(
        tracer
            .child_duration(l.setup_span, "graph.generate")
            .map(|s| Metric::measured("graph.generate_s", "s", s)),
    );

    // graph + core: the plan path. Gossip never builds a tree.
    let mut estimates_s = 0.0;
    if let Some(plan) = &probes.plan {
        // One tree per distinct origin under exact knowledge; adaptive
        // origins rebuild theirs per broadcast from the current view.
        let mrt_calls = match inputs.protocol {
            ProtocolKind::Optimal => inputs.origins.len() as u64,
            _ => inputs.broadcasts(),
        };
        // `propagate` re-derives the plan once per first receipt, and
        // once at the origin: once per delivery.
        let plan_calls = deliveries;
        let plan_s = plan_calls as f64 * (plan.from_wire_us + plan.optimize_us) * 1e-6
            + mrt_calls as f64 * plan.mrt_us * 1e-6;
        estimates_s += plan_s;
        out.push(Metric::measured("graph.mrt.us_per_call", "us", plan.mrt_us));
        out.push(Metric::exact("graph.mrt.calls", "count", mrt_calls as f64));
        out.push(Metric::measured(
            "core.tree.from_wire.us_per_call",
            "us",
            plan.from_wire_us,
        ));
        out.push(Metric::measured(
            "core.optimize.us_per_call",
            "us",
            plan.optimize_us,
        ));
        out.push(Metric::exact(
            "core.optimize.calls",
            "count",
            plan_calls as f64,
        ));
        out.push(Metric::estimate(
            "core.plan.est_share",
            "ratio",
            plan_s / run_s,
        ));
    }

    // core::adaptive + bayes.
    if let Some(us) = probes.adaptive_us_per_node_round {
        let adaptive_s = us * 1e-6 * inputs.processes() as f64 * inputs.horizon as f64;
        estimates_s += adaptive_s;
        out.push(Metric::measured(
            "core.adaptive.us_per_node_round",
            "us",
            us,
        ));
        out.push(Metric::estimate(
            "core.adaptive.est_share",
            "ratio",
            adaptive_s / run_s,
        ));
        out.push(Metric::measured(
            "bayes.observe.ns_per_op",
            "ns",
            probes.bayes_observe_ns,
        ));
    }

    // core::scenario boundaries (the fabric runner is one opaque call).
    if !traced.instantiate_s.is_empty() {
        out.push(Metric::timing(
            "core.scenario.instantiate_s",
            "s",
            &traced.instantiate_s,
        ));
        out.push(Metric::timing(
            "core.scenario.report_s",
            "s",
            &traced.report_s,
        ));
    }

    // sim::kernel.
    out.push(Metric::measured(
        "sim.kernel.us_per_msg",
        "us",
        run_s * 1e6 / sent,
    ));
    out.extend(
        traced
            .last
            .busy_ticks
            .map(|t| Metric::exact("sim.kernel.busy_ticks", "count", t as f64)),
    );
    let counts = [
        ("sim.kernel.ticks", inputs.horizon),
        ("sim.kernel.sent", wire.sent_total()),
        ("sim.kernel.delivered", wire.delivered_total()),
        ("sim.kernel.lost", wire.lost_in_link()),
        ("sim.kernel.dropped_down", wire.dropped_receiver_down()),
        ("sim.kernel.sent_heartbeat", wire.sent_of_kind("heartbeat")),
        ("sim.kernel.sent_data", wire.sent_of_kind("data")),
        ("sim.kernel.sent_ack", wire.sent_of_kind("ack")),
    ];
    out.extend(
        counts
            .into_iter()
            .map(|(name, n)| Metric::exact(name, "count", n as f64)),
    );

    // sim::loss: one sampler decision per message sent over a lossy link.
    if let Some(ns) = probes.loss_ns_per_draw {
        estimates_s += sent * ns * 1e-9;
        out.push(Metric::measured("sim.loss.ns_per_draw", "ns", ns));
    }

    // Executor comparisons against the kernel's run of the same scenario.
    let codec_s =
        (sent * probes.encode_us + wire.delivered_total() as f64 * probes.decode_us) * 1e-6;
    match (l.executor, l.reference) {
        (Executor::Sharded(_), Some(kernel)) => {
            out.push(Metric::measured(
                "sim.shard.speedup",
                "ratio",
                kernel.wall_s / wall.median,
            ));
            if kernel.cpu_s > 0.0 {
                out.push(Metric::measured(
                    "sim.shard.cpu_ratio",
                    "ratio",
                    l.cpu_per_rep / kernel.cpu_s,
                ));
            }
        }
        (Executor::FabricVirtual, Some(kernel)) => {
            estimates_s += codec_s;
            out.push(Metric::measured(
                "net.codec.encode.us_per_frame",
                "us",
                probes.encode_us,
            ));
            out.push(Metric::measured(
                "net.codec.decode.us_per_frame",
                "us",
                probes.decode_us,
            ));
            out.push(Metric::measured(
                "net.codec.bytes_per_frame",
                "bytes",
                probes.frame_bytes,
            ));
            out.push(Metric::measured(
                "net.virtual_time.slowdown",
                "ratio",
                wall.median / kernel.wall_s,
            ));
            out.push(Metric::estimate(
                "net.virtual_time.us_per_msg",
                "us",
                (wall.median - kernel.wall_s - codec_s) * 1e6 / wire.delivered_total() as f64,
            ));
        }
        _ => {}
    }

    // Script phases (kernel drivers, scripts with a spike only).
    if traced.last.phases.len() == 3 {
        const NAMES: [(&str, &str); 3] = [
            ("phase.learn_s", "phase.learn.sent"),
            ("phase.spike_s", "phase.spike.sent"),
            ("phase.stream_s", "phase.stream.sent"),
        ];
        for (phase, (seconds, sent)) in traced.last.phases.iter().zip(NAMES) {
            out.push(Metric::measured(seconds, "s", phase.seconds));
            out.push(Metric::exact(sent, "count", phase.sent as f64));
        }
    }

    out.push(Metric::measured("proc.cpu_s", "s", l.cpu_per_rep));
    out.push(Metric::measured(
        "trace.overhead_ratio",
        "ratio",
        Stats::of(&traced.rep_s).median / wall.median,
    ));
    out.push(Metric::measured(
        "trace.self_time_gap",
        "ratio",
        traced.self_time_gap,
    ));
    out.push(Metric::estimate(
        "trace.attributed_share",
        "ratio",
        estimates_s / run_s,
    ));
    out.push(Metric::estimate(
        "trace.unattributed_s",
        "s",
        run_s - estimates_s,
    ));
    Ok(())
}
