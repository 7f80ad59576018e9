//! Watch the adaptive protocol learn the network: 24 processes exchange
//! heartbeats over lossy links until every failure probability is known,
//! then broadcast optimally using the learned knowledge.
//!
//! ```text
//! cargo run --release --example adaptive_convergence
//! ```

use diffuse::core::{AdaptiveBroadcast, AdaptiveParams, Payload, Protocol, ProtocolActor};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId};
use diffuse::sim::{SimOptions, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: u32 = 24;
    const LOSS: f64 = 0.05;

    let topology = generators::circulant(N, 4)?;
    let loss_cfg = Configuration::uniform(&topology, Probability::ZERO, Probability::new(LOSS)?);
    let all: Vec<ProcessId> = topology.processes().collect();
    let neighbors = |id: ProcessId| topology.neighbors(id).collect::<Vec<_>>();

    let topo = topology.clone();
    let mut sim = Simulation::new(
        &topology,
        &loss_cfg,
        move |id| {
            ProtocolActor::new(AdaptiveBroadcast::new(
                id,
                all.clone(),
                topo.neighbors(id).collect(),
                AdaptiveParams::default(),
            ))
        },
        SimOptions::default().with_seed(7),
    );
    let _ = neighbors;

    let watched = LinkId::new(ProcessId::new(0), ProcessId::new(1))?;
    println!("true loss on {watched}: {LOSS}");
    println!("tick  estimate@p0  topology-complete@p0");
    let links: Vec<LinkId> = topology.links().collect();
    let mut converged_at = None;
    for round in 1..=1500u64 {
        sim.run_ticks(1);
        let node = sim.node(ProcessId::new(0)).unwrap().protocol();
        if round % 150 == 0 {
            println!(
                "{round:>4}  {:>10.4}  {}",
                node.estimated_loss(watched).unwrap().value(),
                node.topology_complete(),
            );
        }
        let all_good = sim.nodes().all(|(_, a)| {
            let n = a.protocol();
            links.iter().all(|&l| {
                n.estimated_loss(l)
                    .is_some_and(|e| (e.value() - LOSS).abs() < 0.02)
            })
        });
        if all_good && converged_at.is_none() {
            converged_at = Some(round);
            break;
        }
    }
    match converged_at {
        Some(t) => println!(
            "every process learned every link's loss (±0.02) after {t} heartbeat periods \
             ({} heartbeats/link)",
            sim.metrics().sent_of_kind("heartbeat") / topology.link_count() as u64
        ),
        None => println!("not converged within the demo budget — try more ticks"),
    }

    // Broadcast with the learned knowledge.
    let origin = ProcessId::new(0);
    let ok = sim.command(origin, |actor, ctx| {
        match actor.broadcast_now(ctx, Payload::from("learned!")) {
            Ok(id) => println!("broadcast {id} sent using learned MRT"),
            Err(e) => println!("broadcast refused: {e}"),
        }
    });
    assert!(ok);
    sim.run_ticks(N as u64);
    let reached = sim
        .nodes()
        .filter(|(_, a)| !a.protocol().delivered().is_empty())
        .count();
    println!("delivered at {reached}/{N} processes");
    Ok(())
}
