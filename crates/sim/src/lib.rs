//! Deterministic discrete-event simulation kernel for `diffuse`.
//!
//! The paper evaluates its algorithms with a discrete-event simulation
//! "associating a crash probability to each process and a loss probability
//! to each link" (Section 5). This crate is that substrate, rebuilt as a
//! reusable kernel:
//!
//! * [`Lane`] — the tick engine: integer-tick time ([`SimTime`]),
//!   per-link Bernoulli message loss, configurable link delay, named
//!   timers, fast-forward, and seeded RNG streams consumed in one fixed
//!   order so identical seeds replay identical executions. It is the
//!   only tick in the workspace; a driver supplies a [`Handler`];
//! * [`Simulation`] — the kernel: one lane stepped inline;
//!   [`ShardedKernel`] — `W` lanes on worker threads (`diffuse-net`'s
//!   virtual-time fabric is the kernel over encoded frames);
//! * [`Actor`] — the protocol interface (message/timer/recovery handlers);
//! * [`CrashModel`] — process crash/recovery processes realizing the
//!   paper's stationary down-fraction `P_i` (i.i.d. per tick, or a
//!   two-state Markov chain with crash *episodes*);
//! * [`Metrics`] — wire-level counters, split by message kind and by
//!   link, matching the quantities plotted in the paper's figures.
//!
//! Protocol state survives crashes (the paper grants stable storage);
//! crashes are omission windows during which a process neither sends
//! nor receives, and its timers wait for the recovery.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod adversary;
mod crash;
mod engine;
mod kernel;
mod loss;
mod metrics;
mod shard;
mod shard_rng;
mod time;
mod timers;

pub use adversary::{suppression_seed, MessageAdversary};
pub use crash::CrashModel;
pub use engine::{Effects, Handler, Input, Lane, LaneEnv, LaneStatus, Site};
pub use kernel::{Actor, Context, SimMessage, SimOptions, Simulation};
pub use loss::LossBatcher;
pub use metrics::Metrics;
pub use shard::ShardedKernel;
pub use shard_rng::shard_seed;
pub use time::{SimTime, TimerId};
pub use timers::{TimerOp, TimerTable};
