//! The `scenario` surface of the `repro` binary: a partition-then-heal
//! script, built once with the [`Scenario`] API and executed on *both*
//! substrates — the deterministic simulation kernel and the in-memory
//! fabric, in virtual time (the kernel with encoded frames in flight)
//! and on real threads under the wall clock.
//!
//! This is the general scenario engine the figure harnesses are now
//! instances of: topology × configuration × crash model × workload ×
//! fault script, assembled once, run anywhere.

use std::time::Duration;

use diffuse_core::scenario::{FaultAction, FaultScript, Scenario, Workload};
use diffuse_core::{AdaptiveBroadcast, AdaptiveParams, Payload, ReferenceGossip};
use diffuse_graph::generators;
use diffuse_model::{LinkId, Probability, ProcessId};
use diffuse_net::{run_scenario_on_fabric, run_scenario_on_fabric_virtual, FabricScenarioOptions};
use diffuse_sim::SimTime;

use crate::harness::neighbor_map;
use crate::table::{fmt, Table};
use crate::Effort;

/// The partition-then-heal scenario: a 12-process ring with chords is
/// split into two islands at `cut_at`, healed at `heal_at`, and probed
/// with broadcasts before, during, and after.
pub fn partition_heal_scenario(cut_at: u64, heal_at: u64, horizon: u64) -> Scenario {
    let mut topology = generators::ring(12).expect("ring(12)");
    topology
        .add_link(ProcessId::new(2), ProcessId::new(9))
        .expect("chord");
    topology
        .add_link(ProcessId::new(3), ProcessId::new(8))
        .expect("chord");
    let island: Vec<ProcessId> = (0..6).map(ProcessId::new).collect();
    Scenario::builder(topology)
        .uniform_loss(Probability::new(0.01).expect("valid"))
        .seed(0x5CEA)
        .workload(
            Workload::new()
                .broadcast(
                    SimTime::new(cut_at / 2),
                    ProcessId::new(0),
                    Payload::from("pre-cut"),
                )
                .broadcast(
                    SimTime::new((heal_at + horizon) / 2),
                    ProcessId::new(0),
                    Payload::from("post-heal"),
                ),
        )
        .faults(
            FaultScript::new()
                .at(SimTime::new(cut_at), FaultAction::Partition { island })
                .at(SimTime::new(heal_at), FaultAction::Heal),
        )
        .build()
}

/// Runs the partition-then-heal scenario on the kernel with adaptive
/// nodes, reporting the cut-link estimate trajectory, then replays the
/// same scenario (gossip workload) on the fabric. Returns the
/// trajectory table and a substrate-comparison table.
pub fn run(effort: &Effort) -> Vec<Table> {
    let (cut_at, heal_at, horizon) = if effort.quick {
        (150, 450, 900)
    } else {
        (300, 900, 1800)
    };
    let scenario = partition_heal_scenario(cut_at, heal_at, horizon);
    let neighbors = neighbor_map(&scenario.topology);
    let all: Vec<ProcessId> = scenario.topology.processes().collect();

    // Substrate 1: the deterministic kernel, adaptive protocol. Watch
    // p0's direct link across the cut: ring neighbors 11—0 straddle the
    // island boundary, so its estimate should spike while partitioned
    // and recover after the heal.
    let watched = LinkId::new(ProcessId::new(0), ProcessId::new(11)).expect("ring link");
    let mut run = scenario.sim(|id| {
        AdaptiveBroadcast::new(
            id,
            all.clone(),
            neighbors[&id].clone(),
            AdaptiveParams::default(),
        )
    });
    let mut trajectory = Table::new(
        format!(
            "Scenario: partition at t{cut_at}, heal at t{heal_at} — \
             p0's loss estimate of the cut link {watched}"
        ),
        &["tick", "estimate", "phase"],
    );
    let checkpoints = 9u64;
    for i in 1..=checkpoints {
        let t = horizon * i / checkpoints;
        run.run_ticks(t - run.sim().now().ticks());
        let estimate = run
            .sim()
            .node(ProcessId::new(0))
            .unwrap()
            .protocol()
            .estimated_loss(watched)
            .unwrap()
            .value();
        let phase = if t < cut_at {
            "healthy"
        } else if t < heal_at {
            "partitioned"
        } else {
            "healed"
        };
        trajectory.push_row(vec![t.to_string(), fmt(estimate), phase.to_string()]);
    }

    // Substrate 2: the same scenario value on the in-memory fabric,
    // with the gossip protocol (broadcast-only workload) — run against
    // a kernel reference in both of the fabric's timing modes.
    // Under virtual time the fabric report must be *bit-identical* to
    // the kernel's; under the wall clock it is only statistically
    // comparable (different RNG stream, real scheduling).
    let steps = 8;
    let gossip_reference = scenario.run_sim(horizon, |id| {
        ReferenceGossip::new(id, neighbors[&id].clone(), steps)
    });
    let fabric_virtual = run_scenario_on_fabric_virtual(&scenario, horizon, |id| {
        ReferenceGossip::new(id, neighbors[&id].clone(), steps)
    });
    let fabric_wall = run_scenario_on_fabric(
        &scenario,
        FabricScenarioOptions {
            tick_interval: Duration::from_millis(1),
            run_ticks: horizon,
            settle: Duration::from_millis(40),
        },
        |id| ReferenceGossip::new(id, neighbors[&id].clone(), steps),
    );

    let mut comparison = Table::new(
        "Same scenario (gossip), three executions — deliveries per process".to_string(),
        &[
            "substrate",
            "min",
            "max",
            "failed broadcasts",
            "skipped faults",
            "vs kernel",
        ],
    );
    let rows = [
        ("sim kernel", &gossip_reference, "reference"),
        (
            "fabric (virtual time)",
            &fabric_virtual,
            if fabric_virtual == gossip_reference {
                "bit-identical"
            } else {
                "MISMATCH"
            },
        ),
        ("fabric (wall clock)", &fabric_wall, "statistical"),
    ];
    for (label, report, agreement) in rows {
        comparison.push_row(vec![
            label.to_string(),
            report.min_delivered().to_string(),
            report
                .delivered
                .values()
                .max()
                .copied()
                .unwrap_or(0)
                .to_string(),
            report.failed_broadcasts.to_string(),
            report.skipped_faults.to_string(),
            agreement.to_string(),
        ]);
    }
    vec![trajectory, comparison]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_heal_tables_have_expected_shape() {
        let effort = Effort::quick();
        let tables = run(&effort);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].row_count(), 9);
        assert_eq!(tables[1].row_count(), 3);
        let text = tables[0].to_aligned();
        assert!(text.contains("partitioned"));
        assert!(text.contains("healed"));
        // The virtual-time fabric row must report exact agreement with
        // the kernel — anything else is a conformance regression.
        let comparison = tables[1].to_aligned();
        assert!(comparison.contains("bit-identical"), "{comparison}");
        assert!(!comparison.contains("MISMATCH"), "{comparison}");
    }
}
