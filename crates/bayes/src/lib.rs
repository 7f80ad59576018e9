//! Bayesian reliability inference for the `diffuse` workspace.
//!
//! Implements Section 4.3 of the paper: every failure probability
//! (process crash rates `P_i`, link loss rates `L_j`) is approximated by a
//! small Bayesian network — a [`BeliefEstimator`] holding a belief for
//! each of `U` probability intervals — updated with Bayes' theorem on
//! every observed success or failure. [`Estimate`] pairs a posterior with
//! its [`Distortion`] factor, and [`Estimate::adopt_if_better`] is the
//! paper's `selectBestEstimate` (Algorithm 3).
//!
//! The belief vector is stored copy-on-write, so the epidemic exchange of
//! estimates between processes costs a pointer copy per adoption. What
//! of an estimate travels is an [`Offer`]: the shared belief vector and
//! the distortion, without the owner's version stamp or undo checkpoint.
//!
//! # Example
//!
//! ```
//! use diffuse_bayes::BeliefEstimator;
//!
//! // Track a link that loses ~10% of messages.
//! let mut estimator = BeliefEstimator::new(100);
//! for i in 0..500 {
//!     estimator.observe(i % 10 == 0); // one failure in ten
//! }
//! assert!((estimator.mean().value() - 0.1).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod estimate;
mod estimator;

pub use estimate::{Distortion, Estimate, IntervalMismatch, Offer};
pub use estimator::{BeliefEstimator, DEFAULT_INTERVALS};
