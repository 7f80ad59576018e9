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
//! A posterior is stored as two counts, failures and successes: every
//! belief vector Eq. 4 can reach is the uniform prior times
//! `m_u^failures · (1 - m_u)^successes`, so the vector is evaluated when
//! read and an undo is a subtraction. What of an estimate travels is an
//! [`Offer`]: the two counts and the distortion, 16 bytes, without the
//! owner's version stamp or interval count.
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

pub use estimate::{Distortion, Estimate, Offer};
pub use estimator::{BeliefEstimator, DEFAULT_INTERVALS};
