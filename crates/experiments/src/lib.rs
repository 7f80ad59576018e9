//! Evaluation harness for `diffuse`: regenerates every table and figure
//! of the paper (Section 5 plus Table 1 and Figure 1) and two extension
//! experiments from its future-work list.
//!
//! | Experiment | Module | Paper artifact |
//! |---|---|---|
//! | `fig1` | [`fig1`] | Figure 1 — two-path closed form |
//! | `table1` | [`table1`] | Table 1 — Bayesian belief update |
//! | `fig4a`/`fig4b` | [`fig4`] | Figure 4 — reference/optimal ratio |
//! | `fig5a`/`fig5b` | [`fig5`] | Figure 5 — convergence effort |
//! | `fig6` | [`fig6`] | Figure 6 — scalability (ring vs tree) |
//! | `hetero` | [`hetero`] | §7 future work — heterogeneous losses |
//! | `refine` | [`refine`] | §7 future work — interval refinement |
//! | `scenario` | [`scenarios`] | partition-then-heal script on both substrates |
//! | `scale` | [`scale`] | thousand-node heartbeat rounds, delta vs full-view size |
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run -p diffuse-experiments --release --bin repro -- all --quick
//! cargo run -p diffuse-experiments --release --bin repro -- fig4b
//! cargo run -p diffuse-experiments --release --bin repro -- fig5a --csv
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod effort;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
mod harness;
pub mod hetero;
mod parallel;
pub mod refine;
pub mod scale;
pub mod scenarios;
mod stats;
mod table;
pub mod table1;

pub use effort::Effort;
pub use harness::{
    adaptive_broadcast_cost, calibrate_gossip_steps, calibrate_gossip_steps_confident,
    calibrate_gossip_steps_config, convergence_run, gossip_mean_messages, gossip_message_stats,
    gossip_message_stats_config, gossip_trial, gossip_trial_config, neighbor_map,
    CalibrationSettings, ConvergenceOutcome, GossipTrial, GOSSIP_STEP_PERIOD,
};
pub use parallel::parallel_map;
pub use stats::{rule_of_three_lower_bound, Summary};
pub use table::{fmt, Table};
