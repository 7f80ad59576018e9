//! Table 1: Bayesian belief adaptation after one failure suspicion
//! (`U = 5`).

use diffuse_bayes::BeliefEstimator;

use crate::table::Table;

/// Regenerates Table 1: the interval bounds, the uniform prior (case a)
/// and the posterior after one suspicion (case b).
pub fn run() -> Table {
    let mut table = Table::new(
        "Table 1 — failure beliefs before/after one suspicion (U = 5)",
        &["u", "interval", "P_B (initial)", "P_B (after suspicion)"],
    );
    let prior = BeliefEstimator::new(5);
    let mut suspected = prior;
    suspected.decrease_reliability(1);
    let (before, after) = (prior.beliefs(), suspected.beliefs());
    for u in 0..5 {
        let (lo, hi) = prior.interval_bounds(u);
        let bracket = if u == 4 { "]" } else { ")" };
        table.push_row(vec![
            (u + 1).to_string(),
            format!("[{lo:.1}, {hi:.1}{bracket}"),
            format!("{:.2}", before[u]),
            format!("{:.2}", after[u]),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_numbers_exactly() {
        let t = run();
        let csv = t.to_csv();
        // Case (b) of the paper's Table 1.
        for expected in ["0.04", "0.12", "0.20", "0.28", "0.36"] {
            assert!(csv.contains(expected), "missing {expected} in:\n{csv}");
        }
        // Case (a): uniform 0.2.
        assert!(csv.matches("0.20").count() >= 5);
        assert!(csv.contains("[0.8, 1.0]"));
    }
}
