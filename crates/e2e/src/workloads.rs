//! The five named workloads: what each one is, and how its inputs are
//! generated from a seed.
//!
//! Set-up is everything that happens before the executor call —
//! topology, configuration, exact knowledge (for the optimal-cost
//! yardstick), and `Scenario::build`. The program under test receives
//! only the generated [`Scenario`] and the per-process constructor
//! arguments.

use std::collections::{BTreeMap, BTreeSet};

use diffuse_core::scenario::{FaultAction, FaultScript, Scenario, Workload};
use diffuse_core::{NetworkKnowledge, Payload};
use diffuse_graph::generators;
use diffuse_model::{Configuration, Probability, ProcessId, Topology};
use diffuse_sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::Value;
use crate::trace::Tracer;

/// Target reliability `K` for the adaptive and optimal protocols, and
/// for the exact-knowledge plan `cost_vs_optimal` is measured against.
///
/// Two nines above the paper's 0.9999: a benchmark run counts every
/// missed delivery as a failed operation, and at 0.9999 a 100-broadcast
/// stream misses someone in about 1 % of seeds.
pub const TARGET_K: f64 = 0.999_999;

/// Forwarding steps of the reference gossip protocol.
pub const GOSSIP_STEPS: u32 = 8;

/// Seed used when none is given, and by the committed baseline.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of workload tuning; the back-to-back agreement check
/// is repeated on it.
pub const HELD_OUT_SEED: u64 = 2004;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The committed sizes.
    Full,
    /// n ≤ 300, horizon ≤ 100: seconds under `cargo test`.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `Scenario::run_sim`.
    Kernel,
    /// `Scenario::run_sim_sharded` with this many workers.
    Sharded(usize),
    /// `run_scenario_on_fabric_virtual`.
    FabricVirtual,
}

impl Executor {
    pub fn name(self) -> String {
        match self {
            Executor::Kernel => "kernel".to_owned(),
            Executor::Sharded(w) => format!("sharded_w{w}"),
            Executor::FabricVirtual => "fabric_virtual".to_owned(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    Adaptive,
    Optimal,
    Gossip,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TopologyKind {
    Ring,
    Circulant {
        degree: u32,
    },
    /// `G(n, 2 ln n / n)`, resampled until connected.
    ErdosRenyi,
}

/// A workload's size constants at one scale. Fields a workload does not
/// use are zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    topology: TopologyKind,
    pub n: u32,
    pub loss: f64,
    pub horizon: u64,
    pub broadcasts: u32,
    /// First broadcast tick and ticks between broadcasts.
    pub stream_start: u64,
    pub stream_period: u64,
    /// Loss spike (`DegradeAll`) start, length and loss; length 0 = none.
    pub spike_at: u64,
    pub spike_ticks: u64,
    pub spike_loss: f64,
    /// Forced crash of the highest-numbered process; length 0 = none.
    pub crash_at: u64,
    pub crash_ticks: u64,
}

impl Sizes {
    pub fn to_json(self) -> Value {
        let topology = match self.topology {
            TopologyKind::Ring => "ring(n)".to_owned(),
            TopologyKind::Circulant { degree } => format!("circulant(n, {degree})"),
            TopologyKind::ErdosRenyi => "erdos_renyi_connected_fast(n, 2 ln n / n)".to_owned(),
        };
        Value::obj([
            ("topology", Value::Str(topology)),
            ("n", Value::Num(f64::from(self.n))),
            ("loss", Value::Num(self.loss)),
            ("horizon", Value::Num(self.horizon as f64)),
            ("broadcasts", Value::Num(f64::from(self.broadcasts))),
            ("stream_start", Value::Num(self.stream_start as f64)),
            ("stream_period", Value::Num(self.stream_period as f64)),
            ("spike_at", Value::Num(self.spike_at as f64)),
            ("spike_ticks", Value::Num(self.spike_ticks as f64)),
            ("spike_loss", Value::Num(self.spike_loss)),
            ("crash_at", Value::Num(self.crash_at as f64)),
            ("crash_ticks", Value::Num(self.crash_ticks as f64)),
        ])
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub executor: Executor,
    pub protocol: ProtocolKind,
    /// Timed repetitions a run makes at least (full scale).
    pub min_reps: usize,
    full: Sizes,
    smoke: Sizes,
}

impl WorkloadDef {
    pub fn sizes(&self, scale: Scale) -> Sizes {
        match scale {
            Scale::Full => self.full,
            Scale::Smoke => self.smoke,
        }
    }
}

const NO_FAULTS: Sizes = Sizes {
    topology: TopologyKind::Ring,
    n: 0,
    loss: 0.0,
    horizon: 0,
    broadcasts: 0,
    stream_start: 0,
    stream_period: 1,
    spike_at: 0,
    spike_ticks: 0,
    spike_loss: 0.0,
    crash_at: 0,
    crash_ticks: 0,
};

// The adaptive scripts leave 70 ticks between the crashed process's
// recovery and the first broadcast, and 80 ticks between the last
// broadcast and the horizon. Both gaps are what make every delivery
// succeed on every seed tried (README, "first findings"): broadcasts
// issued while a crash suspicion is still spreading can lose a subtree,
// and the equal-weight MRT of circulant(100, 4) is 49 hops deep.
const ADAPTIVE_CHURN: Sizes = Sizes {
    topology: TopologyKind::Circulant { degree: 4 },
    n: 100,
    loss: 0.03,
    horizon: 450,
    broadcasts: 28,
    stream_start: 230,
    stream_period: 5,
    spike_at: 100,
    spike_ticks: 15,
    spike_loss: 0.3,
    crash_at: 130,
    crash_ticks: 30,
};

const FABRIC_ADAPTIVE: Sizes = Sizes {
    topology: TopologyKind::Ring,
    n: 8,
    loss: 0.03,
    horizon: 300,
    broadcasts: 14,
    stream_start: 190,
    stream_period: 5,
    spike_at: 75,
    spike_ticks: 10,
    spike_loss: 0.3,
    crash_at: 100,
    crash_ticks: 15,
};

const GOSSIP_FLOOD: Sizes = Sizes {
    topology: TopologyKind::ErdosRenyi,
    n: 10_000,
    horizon: 36,
    broadcasts: 4,
    stream_period: 5,
    ..NO_FAULTS
};

const GOSSIP_FLOOD_SMOKE: Sizes = Sizes {
    n: 300,
    ..GOSSIP_FLOOD
};

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "adaptive_churn_n100",
        executor: Executor::Kernel,
        protocol: ProtocolKind::Adaptive,
        min_reps: 5,
        full: ADAPTIVE_CHURN,
        smoke: Sizes {
            n: 16,
            horizon: 100,
            broadcasts: 4,
            stream_start: 70,
            stream_period: 3,
            spike_at: 15,
            spike_ticks: 5,
            crash_at: 25,
            crash_ticks: 5,
            ..ADAPTIVE_CHURN
        },
    },
    WorkloadDef {
        name: "optimal_stream_n240",
        executor: Executor::Kernel,
        protocol: ProtocolKind::Optimal,
        min_reps: 5,
        // One broadcast per tick from rotating origins; the horizon
        // leaves the 119-hop MRT of circulant(240, 8) time to drain
        // (idle ticks fast-forward, so the slack costs nothing).
        full: Sizes {
            topology: TopologyKind::Circulant { degree: 8 },
            n: 240,
            loss: 0.05,
            horizon: 400,
            broadcasts: 60,
            ..NO_FAULTS
        },
        smoke: Sizes {
            topology: TopologyKind::Circulant { degree: 8 },
            n: 24,
            loss: 0.05,
            horizon: 100,
            broadcasts: 10,
            ..NO_FAULTS
        },
    },
    WorkloadDef {
        name: "gossip_flood_n10k",
        executor: Executor::Kernel,
        protocol: ProtocolKind::Gossip,
        min_reps: 5,
        full: GOSSIP_FLOOD,
        smoke: GOSSIP_FLOOD_SMOKE,
    },
    WorkloadDef {
        name: "gossip_flood_n10k_w2",
        executor: Executor::Sharded(2),
        protocol: ProtocolKind::Gossip,
        min_reps: 5,
        full: GOSSIP_FLOOD,
        smoke: GOSSIP_FLOOD_SMOKE,
    },
    WorkloadDef {
        name: "fabric_adaptive_n8",
        executor: Executor::FabricVirtual,
        protocol: ProtocolKind::Adaptive,
        min_reps: 9,
        full: FABRIC_ADAPTIVE,
        smoke: Sizes {
            horizon: 100,
            broadcasts: 4,
            stream_start: 75,
            stream_period: 3,
            spike_at: 15,
            spike_ticks: 5,
            crash_at: 25,
            crash_ticks: 5,
            ..FABRIC_ADAPTIVE
        },
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything set-up produces: the scenario plus what the per-process
/// constructors and the output checks need.
#[derive(Debug)]
pub struct Inputs {
    pub scenario: Scenario,
    pub horizon: u64,
    pub protocol: ProtocolKind,
    pub all: Vec<ProcessId>,
    pub neighbors: BTreeMap<ProcessId, Vec<ProcessId>>,
    pub knowledge: NetworkKnowledge,
    /// Mean `broadcast_plan(origin, K).total_messages()` over the
    /// workload's broadcasts: the exact-knowledge cost of one broadcast.
    pub optimal_msgs_per_broadcast: f64,
    /// Distinct broadcasting processes.
    pub origins: BTreeSet<ProcessId>,
    /// Script boundaries the traced run is sliced at: `(phase, end tick)`.
    pub phases: Vec<(&'static str, u64)>,
    pub base_loss: f64,
}

impl Inputs {
    pub fn broadcasts(&self) -> u64 {
        self.scenario.workload.events().len() as u64
    }

    pub fn processes(&self) -> u64 {
        self.all.len() as u64
    }
}

fn probability(p: f64) -> Probability {
    Probability::new(p).expect("workload constants are probabilities")
}

fn generate(kind: TopologyKind, n: u32, seed: u64) -> Topology {
    match kind {
        TopologyKind::Ring => generators::ring(n),
        TopologyKind::Circulant { degree } => generators::circulant(n, degree),
        TopologyKind::ErdosRenyi => {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = 2.0 * f64::from(n).ln() / f64::from(n);
            generators::erdos_renyi_connected_fast(n, p, 64, &mut rng)
        }
    }
    .expect("workload topology constants are valid")
}

/// Generates `def`'s inputs from `seed`. The four child spans are the
/// layer boundaries of `setup_s`.
pub fn build(def: &WorkloadDef, seed: u64, scale: Scale, tracer: &mut Tracer) -> Inputs {
    let sizes = def.sizes(scale);
    let n = sizes.n;

    let (topology, _) = tracer.span("graph.generate", |_| generate(sizes.topology, n, seed));
    let ((config, all, neighbors), _) = tracer.span("model.configure", |_| {
        let config = Configuration::uniform(&topology, Probability::ZERO, probability(sizes.loss));
        let all: Vec<ProcessId> = topology.processes().collect();
        let neighbors = all
            .iter()
            .map(|&p| (p, topology.neighbors(p).collect()))
            .collect();
        (config, all, neighbors)
    });

    // The adaptive stream has one origin, p0, a neighbor of the process
    // the script crashes. The other workloads rotate origins from a
    // seed-chosen start, so seeds exercise different trees.
    let origin_of = |i: u32| match def.protocol {
        ProtocolKind::Adaptive => ProcessId::new(0),
        ProtocolKind::Optimal => ProcessId::new(((seed % u64::from(n)) as u32 + i * 7) % n),
        ProtocolKind::Gossip => ProcessId::new(((seed % u64::from(n)) as u32 + i * 1237) % n),
    };

    let ((knowledge, optimal_msgs_per_broadcast), _) = tracer.span("core.knowledge", |_| {
        let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
        let mut plan_cost: BTreeMap<ProcessId, u64> = BTreeMap::new();
        let mut total = 0u64;
        for i in 0..sizes.broadcasts {
            let origin = origin_of(i);
            total += *plan_cost.entry(origin).or_insert_with(|| {
                knowledge
                    .broadcast_plan(origin, TARGET_K)
                    .expect("generated topologies are connected")
                    .1
                    .total_messages()
            });
        }
        (knowledge, total as f64 / f64::from(sizes.broadcasts))
    });

    let (scenario, _) = tracer.span("scenario.build", |_| {
        let mut workload = Workload::new();
        for i in 0..sizes.broadcasts {
            workload = workload.broadcast(
                SimTime::new(sizes.stream_start + sizes.stream_period * u64::from(i)),
                origin_of(i),
                Payload::from(format!("{}-{i}", def.name).into_bytes()),
            );
        }
        let mut faults = FaultScript::new();
        if sizes.spike_ticks > 0 {
            faults = faults
                .at(
                    SimTime::new(sizes.spike_at),
                    FaultAction::DegradeAll {
                        loss: probability(sizes.spike_loss),
                    },
                )
                .at(
                    SimTime::new(sizes.spike_at + sizes.spike_ticks),
                    FaultAction::Heal,
                );
        }
        if sizes.crash_ticks > 0 {
            faults = faults.at(
                SimTime::new(sizes.crash_at),
                FaultAction::Crash {
                    process: ProcessId::new(n - 1),
                    down_ticks: sizes.crash_ticks,
                },
            );
        }
        Scenario::builder(topology)
            .config(config)
            .seed(seed)
            .workload(workload)
            .faults(faults)
            .build()
    });

    let phases = if sizes.spike_ticks > 0 {
        vec![
            ("learn", sizes.spike_at),
            ("spike", sizes.stream_start),
            ("stream", sizes.horizon),
        ]
    } else {
        vec![("stream", sizes.horizon)]
    };
    let origins = scenario
        .workload
        .events()
        .iter()
        .map(|e| e.origin)
        .collect();
    Inputs {
        scenario,
        horizon: sizes.horizon,
        protocol: def.protocol,
        all,
        neighbors,
        knowledge,
        optimal_msgs_per_broadcast,
        origins,
        phases,
        base_loss: sizes.loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_stays_small() {
        for def in &WORKLOADS {
            let sizes = def.sizes(Scale::Smoke);
            assert!(sizes.n <= 300, "{}", def.name);
            assert!(sizes.horizon <= 100, "{}", def.name);
        }
    }

    #[test]
    fn same_seed_same_inputs_and_scripts_end_before_the_horizon() {
        for def in &WORKLOADS {
            let a = build(def, 7, Scale::Smoke, &mut Tracer::off());
            let b = build(def, 7, Scale::Smoke, &mut Tracer::off());
            assert_eq!(a.scenario.topology, b.scenario.topology);
            assert_eq!(a.scenario.workload, b.scenario.workload);
            assert_eq!(a.scenario.faults, b.scenario.faults);
            assert!(a
                .scenario
                .workload
                .events()
                .iter()
                .all(|e| e.at.ticks() < a.horizon));
            assert_eq!(a.phases.last().unwrap().1, a.horizon);
        }
    }
}
