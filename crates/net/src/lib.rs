//! Deployment substrate for `diffuse`: run the paper's protocols on real
//! threads and sockets.
//!
//! The protocols in `diffuse-core` are sans-io state machines; this crate
//! supplies everything needed to deploy them outside the simulator:
//!
//! * [`codec`] — a versioned, length-prefixed binary wire format for
//!   [`Message`](diffuse_core::Message) (hand-written over [`bytes`],
//!   property-tested for round-trips and decoder totality);
//! * [`Transport`] — the frame-transport abstraction, with two wires —
//!   the in-memory [`Fabric`] (crossbeam channels along topology links)
//!   and [`UdpTransport`] (one datagram per frame) — and one decorator
//!   that makes either of them faulty: [`ChaosTransport`], seeded
//!   per-link Bernoulli loss (the simulator's network model on real
//!   threads and processes) plus delay, duplication and the message
//!   adversary, reconfigurable while the node runs;
//! * [`spawn_node`] — a per-node runtime thread that decodes frames,
//!   drives the protocol, schedules logical ticks from wall time
//!   ([`WallClock`]), and surfaces deliveries through a [`NodeHandle`];
//! * [`run_scenario_on_fabric_virtual`] — the deterministic counterpart:
//!   the simulation kernel itself with encoded frames in flight (every
//!   message is encoded where it is sent and decoded where it arrives),
//!   so its runs are bit-comparable to kernel runs and whatever differs
//!   is the codec's doing (`tests/fabric_conformance.rs`).
//!
//! # Example
//!
//! See `examples/udp_cluster.rs` for a full UDP deployment,
//! `examples/deterministic_fabric.rs` for a virtual-time run, and the
//! runtime tests for an in-memory three-node broadcast.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod chaos;
mod clock;
mod cluster;
pub mod codec;
mod error;
mod runtime;
mod scenario;
mod soak;
mod transport;
mod udp;

pub use chaos::{ChaosControl, ChaosCounters, ChaosPolicy, ChaosTransport};
pub use clock::WallClock;
pub use cluster::{
    maybe_run_udp_worker, run_scenario_on_udp_cluster, ClusterReport, ProtocolSpec, UdpCluster,
    UdpClusterOptions, UDP_WORKER_ENV,
};
pub use error::NetError;
pub use runtime::{spawn_node, NodeHandle};
pub use scenario::{run_scenario_on_fabric, run_scenario_on_fabric_virtual, FabricScenarioOptions};
pub use soak::{run_soak, SoakOptions, SoakReport};
pub use transport::{Fabric, FabricTransport, Transport};
pub use udp::{UdpTransport, MAX_DATAGRAM};
