//! # diffuse
//!
//! Adaptive probabilistic reliable broadcast for unreliable environments —
//! a Rust implementation of *An Adaptive Algorithm for Efficient Message
//! Diffusion in Unreliable Environments* (Garbinato, Pedone, Schmidt —
//! DSN 2004, EPFL TR IC/2004/30).
//!
//! The paper's idea: instead of gossiping blindly, learn the topology and
//! the failure probabilities of processes and links while running, build a
//! **Maximum Reliability Tree** (MRT) over the best paths, and send the
//! *minimum* number of message copies down each tree edge needed to reach
//! every process with a target probability `K`. With exact knowledge the
//! algorithm is provably optimal in message count; the adaptive variant
//! converges to that optimum by Bayesian inference over observed heartbeats.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — processes, links, topologies, probabilistic configurations;
//! * [`graph`] — maximum reliability trees and topology generators;
//! * [`bayes`] — interval Bayesian estimators and distortion-ranked estimates;
//! * [`sim`] — a deterministic discrete-event simulation kernel with named
//!   timers and event-driven fast-forward;
//! * [`core`] — the broadcast protocols (optimal, adaptive, gossip
//!   reference baseline), the `reach`/`optimize` machinery, and the
//!   [`Scenario`](core::Scenario) engine;
//! * [`net`] — wire codec, in-memory fabric, UDP transport, the seeded
//!   fault layer that wraps either ([`net::ChaosTransport`]), a
//!   deadline-sleeping node runtime, and the *virtual-time* fabric
//!   ([`net::run_scenario_on_fabric_virtual`]): the kernel with encoded
//!   frames in flight, for deterministic, kernel-bit-exact executions.
//!
//! # Quickstart
//!
//! Protocols are event-driven state machines behind one
//! [`Protocol::on_event`](core::Protocol::on_event) entry point: they
//! react to messages, *named timers* they schedule themselves, crash
//! recoveries, and broadcast requests. A [`Scenario`](core::Scenario)
//! composes a topology, a failure configuration, a crash model, a
//! scripted broadcast workload, and a timed fault script — and runs
//! identically on the simulation kernel and on the in-memory fabric of
//! real threads:
//!
//! ```
//! use diffuse::core::scenario::{FaultAction, FaultScript, Scenario, Workload};
//! use diffuse::core::{NetworkKnowledge, OptimalBroadcast, Payload};
//! use diffuse::graph::generators;
//! use diffuse::model::{Configuration, Probability, ProcessId};
//! use diffuse::sim::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 16-process ring with 5% loss; perfect knowledge for brevity.
//! let topology = generators::ring(16)?;
//! let config = Configuration::uniform(&topology, Probability::ZERO, Probability::new(0.05)?);
//! let knowledge = NetworkKnowledge::exact(topology.clone(), config.clone());
//!
//! // Broadcast at t0 and t60; a loss spike hits every link in between.
//! let scenario = Scenario::builder(topology)
//!     .config(config)
//!     .seed(42)
//!     .workload(
//!         Workload::new()
//!             .broadcast(SimTime::ZERO, ProcessId::new(0), Payload::from("before"))
//!             .broadcast(SimTime::new(60), ProcessId::new(8), Payload::from("after")),
//!     )
//!     .faults(
//!         FaultScript::new()
//!             .at(SimTime::new(20), FaultAction::DegradeAll { loss: Probability::new(0.5)? })
//!             .at(SimTime::new(40), FaultAction::Heal),
//!     )
//!     .build();
//!
//! // Run on the deterministic kernel (idle stretches fast-forward).
//! let report = scenario.run_sim(100, |id| OptimalBroadcast::new(id, knowledge.clone(), 0.9999));
//! assert!(report.all_delivered_at_least(2));
//!
//! // The same value runs on the fabric: on real threads, statistically,
//! // under the wall clock (`net::run_scenario_on_fabric`), or
//! // *bit-identically* to the kernel in virtual time, every message
//! // crossing the wire codec.
//! let fabric = diffuse::net::run_scenario_on_fabric_virtual(&scenario, 100, |id| {
//!     OptimalBroadcast::new(id, knowledge.clone(), 0.9999)
//! });
//! assert_eq!(report, fabric);
//! # Ok(())
//! # }
//! ```
//!
//! The tree machinery underneath is directly accessible too —
//! [`graph::maximum_reliability_tree`] builds the MRT and
//! [`core::optimize`] computes the cheapest per-link copy counts for a
//! target reliability `K`.
//!
//! # Migrating from the per-tick API (pre-PR 3)
//!
//! The `Protocol` trait has no `handle_tick` and the simulator's `Actor`
//! no per-tick callback: protocols schedule [`TimerId`](core::TimerId)s
//! via [`Actions::set_timer`](core::Actions::set_timer) and are woken at
//! their deadlines, so the kernel skips and the net runtime sleeps
//! through the idle ticks the old API had to poll.
//! `handle_message`/`handle_recovery` survive as thin wrappers over
//! `on_event`. Code that drives a protocol from a loop of its own wraps
//! it in [`core::SelfTimed`], which keeps the protocol's timers in the
//! same `TimerTable` type the kernel holds: call `fire_due(now, ..)`
//! where `handle_tick` used to be called (every tick, or only at
//! `next_deadline()`) — the same timers fire at the same times in the
//! kernel's order.
//!
//! See the `examples/` directory for runnable scenarios and the
//! `diffuse-experiments` crate for the paper's full evaluation
//! (including `repro scenario`, a partition-then-heal script executed on
//! both substrates).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use diffuse_bayes as bayes;
pub use diffuse_core as core;
pub use diffuse_graph as graph;
pub use diffuse_model as model;
pub use diffuse_net as net;
pub use diffuse_sim as sim;
