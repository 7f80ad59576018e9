//! System model for the `diffuse` workspace.
//!
//! This crate implements Section 2 of *An Adaptive Algorithm for Efficient
//! Message Diffusion in Unreliable Environments* (Garbinato, Pedone,
//! Schmidt — DSN 2004): a system of distributed processes communicating by
//! message passing over bidirectional, lossy links.
//!
//! The model is fully described by two values:
//!
//! * a [`Topology`] `G = (Π, Λ)` — the set of processes and the set of
//!   bidirectional links connecting them, and
//! * a [`Configuration`] `C` — a crash probability `P_i` for every process
//!   and a loss probability `L_x` for every link.
//!
//! All probabilities are carried by the validated [`Probability`] newtype,
//! and identities by the [`ProcessId`] / [`LinkId`] newtypes. Collections
//! use ordered (`BTree*`) storage throughout so that every iteration order
//! is deterministic — a requirement for reproducible simulation.
//!
//! # Example
//!
//! ```
//! use diffuse_model::{Configuration, Probability, ProcessId, Topology};
//!
//! # fn main() -> Result<(), diffuse_model::ModelError> {
//! // A triangle of three processes.
//! let mut topology = Topology::new();
//! let (a, b, c) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
//! topology.add_link(a, b)?;
//! topology.add_link(b, c)?;
//! topology.add_link(c, a)?;
//!
//! // Processes crash 1% of the time; links lose 5% of messages.
//! let config = Configuration::uniform(
//!     &topology,
//!     Probability::new(0.01)?,
//!     Probability::new(0.05)?,
//! );
//!
//! let reliability = config.link_reliability(a, b);
//! assert!((reliability.value() - 0.99 * 0.95 * 0.99).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod config;
mod error;
mod id;
mod index;
mod probability;
mod topology;

pub use config::Configuration;
pub use error::ModelError;
pub use id::{LinkId, ProcessId};
pub use index::{compressed_rows, position_of, NetworkIndex};
pub use probability::Probability;
pub use topology::{Links, Neighbors, Processes, Topology};
