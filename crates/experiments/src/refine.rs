//! Extension experiment (paper §7 future work): dynamic refinement of the
//! Bayesian probability intervals.
//!
//! Compares estimation error after `N` Bernoulli observations for a
//! coarse estimator (`U = 10`), a fine one (`U = 100`), and a coarse one
//! that doubles its resolution whenever the posterior concentrates — the
//! paper's "dynamically increasing the number of probabilistic intervals
//! when better precision is required". An estimator keeps counts, so a
//! refined one evaluates exactly the posterior a fine one started with.

use diffuse_bayes::BeliefEstimator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{fmt, Table};

/// Refinement trigger: refine once the MAP interval holds this much mass.
pub const REFINE_THRESHOLD: f64 = 0.5;

/// Maximum resolution the refining estimator may reach.
pub const REFINE_CAP: usize = 160;

/// Absolute estimation errors `(coarse, fine, refining)` after `n`
/// observations of a Bernoulli(`rate`) failure process, averaged over
/// `trials` seeds.
pub fn errors_after(n: u32, rate: f64, trials: u32, seed: u64) -> (f64, f64, f64) {
    let mut totals = (0.0, 0.0, 0.0);
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed ^ t as u64);
        let mut coarse = BeliefEstimator::new(10);
        let mut fine = BeliefEstimator::new(100);
        let mut refining = BeliefEstimator::new(10);
        for _ in 0..n {
            let failed = rng.gen_bool(rate);
            coarse.observe(failed);
            fine.observe(failed);
            refining.observe(failed);
            let concentrated = refining.belief(refining.map_interval()) >= REFINE_THRESHOLD;
            if concentrated && refining.intervals() < REFINE_CAP {
                refining.refine();
            }
        }
        totals.0 += (coarse.mean().value() - rate).abs();
        totals.1 += (fine.mean().value() - rate).abs();
        totals.2 += (refining.mean().value() - rate).abs();
    }
    let d = trials.max(1) as f64;
    (totals.0 / d, totals.1 / d, totals.2 / d)
}

/// Regenerates the refinement extension table for a 3% failure rate.
pub fn run() -> Table {
    let rate = 0.03;
    let mut table = Table::new(
        "Extension — dynamic interval refinement (|mean − 0.03| after N observations)",
        &["N", "U=10", "U=100", "U=10 + refine"],
    );
    for n in [50u32, 100, 200, 400, 800] {
        let (coarse, fine, refining) = errors_after(n, rate, 20, 0xF00D);
        table.push_row(vec![n.to_string(), fmt(coarse), fmt(fine), fmt(refining)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_beats_coarse_eventually() {
        let (coarse, fine, refining) = errors_after(800, 0.03, 30, 1);
        assert!(
            refining < coarse,
            "refined ({refining}) should beat coarse ({coarse})"
        );
        // And should be in the same league as the always-fine estimator.
        assert!(refining < fine * 3.0 + 0.01);
    }

    #[test]
    fn table_has_all_rows() {
        let t = run();
        assert_eq!(t.row_count(), 5);
    }
}
