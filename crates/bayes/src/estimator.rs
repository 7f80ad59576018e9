//! Interval Bayesian belief estimators (Algorithm 5 of the paper).

use diffuse_model::Probability;

/// Default number of probability intervals `U` (Algorithm 5, line 2).
pub const DEFAULT_INTERVALS: usize = 100;

/// A Bayesian estimator of a failure probability, discretized over `U`
/// equal-width intervals of `[0, 1]`.
///
/// This is the paper's "small Bayesian network `b → s`" (Section 4.3): the
/// estimator holds, for each interval `u ∈ 1..=U`, a belief `P_B[u]` that
/// the true failure probability lies in that interval, with the interval
/// represented by its midpoint `P_{F|B}[u] = (2u - 1) / 2U`. Observing a
/// failure (or a suspicion of one) calls [`decrease_reliability`]; observing
/// a success calls [`increase_reliability`]; both are Bayes-theorem updates
/// (Eq. 4).
///
/// Every update multiplies the uniform prior by the midpoint `m_u` (a
/// failure) or by `1 - m_u` (a success), so after `a` failures and `b`
/// successes, in any order, `P_B[u] ∝ m_u^a · (1 - m_u)^b`. The estimator
/// therefore stores just those two counts (saturating at `u32::MAX`) and
/// `U`. Beliefs, the [`mean`], the [`map_interval`] and the
/// [`credible_bounds`] are evaluated from the counts when read, in log
/// space, and always sum to one — the invariant `Σ_u P_B[u] = 1` the paper
/// states below Table 1. Every pair of counts is a valid posterior, so no
/// value of this type needs checking.
///
/// [`decrease_reliability`]: BeliefEstimator::decrease_reliability
/// [`increase_reliability`]: BeliefEstimator::increase_reliability
/// [`mean`]: BeliefEstimator::mean
/// [`map_interval`]: BeliefEstimator::map_interval
/// [`credible_bounds`]: BeliefEstimator::credible_bounds
///
/// # Example
///
/// The paper's Table 1 (`U = 5`): one suspicion moves the uniform prior to
/// `[0.04, 0.12, 0.20, 0.28, 0.36]`.
///
/// ```
/// use diffuse_bayes::BeliefEstimator;
///
/// let mut e = BeliefEstimator::new(5);
/// e.decrease_reliability(1);
/// let expected = [0.04, 0.12, 0.20, 0.28, 0.36];
/// for (u, want) in expected.iter().enumerate() {
///     assert!((e.belief(u) - want).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeliefEstimator {
    failures: u32,
    successes: u32,
    intervals: u32,
}

impl BeliefEstimator {
    /// Creates an estimator with `intervals` equal-width probability
    /// intervals and a uniform prior (Algorithm 5, `initializeReliability`).
    ///
    /// # Panics
    ///
    /// Panics if `intervals == 0` or does not fit in a `u32`.
    pub fn new(intervals: usize) -> Self {
        assert!(intervals > 0, "at least one probability interval required");
        let intervals = u32::try_from(intervals).expect("interval count fits in u32");
        BeliefEstimator {
            failures: 0,
            successes: 0,
            intervals,
        }
    }

    /// The posterior after `failures` failures and `successes` successes,
    /// evaluated on this estimator's intervals.
    pub(crate) fn with_counts(self, failures: u32, successes: u32) -> Self {
        BeliefEstimator {
            failures,
            successes,
            intervals: self.intervals,
        }
    }

    /// Number of intervals `U`.
    pub fn intervals(&self) -> usize {
        self.intervals as usize
    }

    /// Failure observations recorded, net of undos.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Success observations recorded.
    pub fn successes(&self) -> u32 {
        self.successes
    }

    /// Midpoint `P_{F|B}[u]` of the 0-indexed interval `u`:
    /// `(2u + 1) / 2U`.
    pub fn midpoint(&self, u: usize) -> f64 {
        (2 * u + 1) as f64 / (2 * self.intervals()) as f64
    }

    /// Bounds `[lower, upper)` of the 0-indexed interval `u`.
    pub fn interval_bounds(&self, u: usize) -> (f64, f64) {
        let width = 1.0 / self.intervals() as f64;
        (u as f64 * width, (u + 1) as f64 * width)
    }

    /// `ln P_B[u]` up to a constant shared by every interval:
    /// `a · ln m_u + b · ln(1 - m_u)`. Since `m_u = (2u + 1) / 2U` and
    /// `1 - m_u = m_{U-1-u}`, the shared `ln 2U` is dropped and each log
    /// is taken of an exact odd integer.
    fn log_weights(&self) -> Vec<f64> {
        let (a, b) = (f64::from(self.failures), f64::from(self.successes));
        let ln_odd: Vec<f64> = (0..self.intervals)
            .map(|u| (2.0 * f64::from(u) + 1.0).ln())
            .collect();
        ln_odd
            .iter()
            .zip(ln_odd.iter().rev())
            .map(|(ln_m, ln_not_m)| a * ln_m + b * ln_not_m)
            .collect()
    }

    /// The unnormalized posterior, scaled so its largest entry is 1
    /// (stabilized by the maximum log weight, so nothing overflows and the
    /// sum is at least 1).
    fn weights(&self) -> Vec<f64> {
        let mut weights = self.log_weights();
        let max = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for w in &mut weights {
            *w = (*w - max).exp();
        }
        weights
    }

    /// Current belief `P_B[u]` for the 0-indexed interval `u`. Evaluates
    /// the whole grid; read [`beliefs`](BeliefEstimator::beliefs) once to
    /// walk it.
    ///
    /// # Panics
    ///
    /// Panics if `u >= intervals()`.
    pub fn belief(&self, u: usize) -> f64 {
        self.beliefs()[u]
    }

    /// All beliefs, in interval order, evaluated from the counts.
    pub fn beliefs(&self) -> Vec<f64> {
        let mut beliefs = self.weights();
        let sum: f64 = beliefs.iter().sum();
        for b in &mut beliefs {
            *b /= sum;
        }
        beliefs
    }

    /// Records `factor` failure observations (crash, loss, or suspicion of
    /// one): `P_B[u] ∝ P_B[u] · P_{F|B}[u]` per observation — Algorithm 5's
    /// `decreaseReliability`.
    pub fn decrease_reliability(&mut self, factor: u32) {
        self.failures = self.failures.saturating_add(factor);
    }

    /// Records `factor` success observations (absence of failure):
    /// `P_B[u] ∝ P_B[u] · (1 - P_{F|B}[u])` per observation — Algorithm 5's
    /// `increaseReliability`.
    pub fn increase_reliability(&mut self, factor: u32) {
        self.successes = self.successes.saturating_add(factor);
    }

    /// Reverts `factor` earlier [`decrease_reliability`] updates, exactly,
    /// whatever happened in between (never below zero failures).
    ///
    /// Used when a suspicion turns out to have been unfounded (the sender
    /// never sent, so the link never lost anything): a Bayesian *increase*
    /// does not cancel a decrease, but this inverse does. The test
    /// `bayes_increase_does_not_cancel_decrease` shows why an increase
    /// cannot stand in for this.
    ///
    /// [`decrease_reliability`]: BeliefEstimator::decrease_reliability
    pub fn undo_decrease(&mut self, factor: u32) {
        self.failures = self.failures.saturating_sub(factor);
    }

    /// Records a single Bernoulli observation: a success increases
    /// reliability, a failure decreases it.
    pub fn observe(&mut self, failed: bool) {
        if failed {
            self.decrease_reliability(1);
        } else {
            self.increase_reliability(1);
        }
    }

    /// Posterior mean of the failure probability: `Σ_u P_B[u] · P_{F|B}[u]`.
    ///
    /// This is the scalar the protocol feeds into MRT construction and the
    /// `reach` function. It evaluates the grid on every call.
    pub fn mean(&self) -> Probability {
        let weights = self.weights();
        let sum: f64 = weights.iter().sum();
        let moment: f64 = weights
            .iter()
            .enumerate()
            .map(|(u, w)| w * self.midpoint(u))
            .sum();
        Probability::clamped(moment / sum)
    }

    /// The maximum-a-posteriori interval: the 0-indexed interval with the
    /// highest belief (ties break toward the lower interval).
    pub fn map_interval(&self) -> usize {
        let logs = self.log_weights();
        let mut best = 0;
        for (u, &l) in logs.iter().enumerate() {
            if l > logs[best] {
                best = u;
            }
        }
        best
    }

    /// Returns `true` iff `probability` falls inside the MAP interval.
    pub fn map_contains(&self, probability: f64) -> bool {
        let map = self.map_interval();
        let (lo, hi) = self.interval_bounds(map);
        let last = map + 1 == self.intervals();
        // The final interval is closed ([0.8, 1.0] in Table 1).
        probability >= lo && (probability < hi || (last && probability <= hi))
    }

    /// Smallest highest-posterior-density credible set covering at least
    /// `mass`, returned as `(lower, upper)` bounds over the union of the
    /// chosen intervals.
    ///
    /// # Panics
    ///
    /// Panics if `mass` is not within `(0, 1]`.
    pub fn credible_bounds(&self, mass: f64) -> (f64, f64) {
        assert!(mass > 0.0 && mass <= 1.0, "mass must be in (0, 1]");
        let mut indexed: Vec<(usize, f64)> = self.beliefs().into_iter().enumerate().collect();
        indexed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut covered = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (u, b) in indexed {
            let (l, h) = self.interval_bounds(u);
            lo = lo.min(l);
            hi = hi.max(h);
            covered += b;
            if covered >= mass {
                break;
            }
        }
        (lo, hi)
    }

    /// Doubles the number of intervals the posterior is evaluated on.
    ///
    /// This implements the refinement the paper lists as future work
    /// ("dynamically increasing the number of probabilistic intervals when
    /// better precision is required", Section 7). It is exact: the
    /// counts are kept, so the result equals an estimator that had
    /// `2U` intervals from the start.
    ///
    /// # Panics
    ///
    /// Panics if `2U` does not fit in a `u32`.
    pub fn refine(&mut self) {
        self.intervals = self
            .intervals
            .checked_mul(2)
            .expect("interval count fits in u32");
    }
}

impl Default for BeliefEstimator {
    fn default() -> Self {
        BeliefEstimator::new(DEFAULT_INTERVALS)
    }
}

/// The executable specification: the belief vector the estimator stored
/// before it stored counts — `U` floats updated in place by Eq. 4, with
/// a linear and a log-space update path and a checkpoint that makes an
/// undo right after its decrease bit-exact (otherwise the likelihood is
/// divided back out). The property tests below hold the counts to it.
#[cfg(test)]
mod spec {
    /// Above this update factor updates run in log space, to avoid
    /// underflow in `likelihood^factor`.
    const LOG_SPACE_THRESHOLD: u32 = 32;

    #[derive(Debug, Clone)]
    pub(super) struct VectorEstimator {
        beliefs: Vec<f64>,
        undo_checkpoint: Option<(u32, Vec<f64>)>,
    }

    impl VectorEstimator {
        pub(super) fn new(intervals: usize) -> Self {
            VectorEstimator {
                beliefs: vec![1.0 / intervals as f64; intervals],
                undo_checkpoint: None,
            }
        }

        pub(super) fn beliefs(&self) -> &[f64] {
            &self.beliefs
        }

        pub(super) fn mean(&self) -> f64 {
            let u_count = self.beliefs.len();
            self.beliefs
                .iter()
                .enumerate()
                .map(|(u, &b)| b * (2 * u + 1) as f64 / (2 * u_count) as f64)
                .sum()
        }

        /// `factor` multiplies of `weight(m_u)` into each belief (divides
        /// when `invert`), then one normalization.
        fn apply(&mut self, factor: u32, invert: bool, weight: impl Fn(f64) -> f64) {
            if factor == 0 {
                return;
            }
            let beliefs = &mut self.beliefs;
            let u_count = beliefs.len();
            let mid = |u: usize| (2 * u + 1) as f64 / (2 * u_count) as f64;
            if factor <= LOG_SPACE_THRESHOLD {
                let mut sum = 0.0;
                for (u, b) in beliefs.iter_mut().enumerate() {
                    let w = weight(mid(u));
                    for _ in 0..factor {
                        if invert {
                            *b /= w;
                        } else {
                            *b *= w;
                        }
                    }
                    sum += *b;
                }
                if sum > 0.0 && sum.is_finite() {
                    for b in beliefs.iter_mut() {
                        *b /= sum;
                    }
                } else {
                    beliefs.fill(1.0 / u_count as f64);
                }
            } else {
                let sign = if invert { -1.0 } else { 1.0 };
                let logs: Vec<f64> = beliefs
                    .iter()
                    .enumerate()
                    .map(|(u, &b)| {
                        if b > 0.0 {
                            b.ln() + sign * factor as f64 * weight(mid(u)).ln()
                        } else {
                            f64::NEG_INFINITY
                        }
                    })
                    .collect();
                let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if max == f64::NEG_INFINITY {
                    beliefs.fill(1.0 / u_count as f64);
                    return;
                }
                let exps: Vec<f64> = logs.iter().map(|l| (l - max).exp()).collect();
                let sum: f64 = exps.iter().sum();
                for (b, e) in beliefs.iter_mut().zip(exps) {
                    *b = e / sum;
                }
            }
        }

        pub(super) fn decrease_reliability(&mut self, factor: u32) {
            if factor == 0 {
                return;
            }
            let snapshot = self.beliefs.clone();
            self.apply(factor, false, |mid| mid);
            self.undo_checkpoint = Some((factor, snapshot));
        }

        pub(super) fn increase_reliability(&mut self, factor: u32) {
            if factor == 0 {
                return;
            }
            self.undo_checkpoint = None;
            self.apply(factor, false, |mid| 1.0 - mid);
        }

        pub(super) fn undo_decrease(&mut self, factor: u32) {
            if factor == 0 {
                return;
            }
            match self.undo_checkpoint.take() {
                Some((recorded, snapshot)) if recorded == factor => self.beliefs = snapshot,
                _ => self.apply(factor, true, |mid| mid),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EPS: f64 = 1e-12;

    fn belief_sum(e: &BeliefEstimator) -> f64 {
        e.beliefs().iter().sum()
    }

    #[test]
    fn initial_prior_is_uniform() {
        let e = BeliefEstimator::new(5);
        for u in 0..5 {
            assert!((e.belief(u) - 0.2).abs() < EPS);
        }
        assert!((e.mean().value() - 0.5).abs() < EPS);
    }

    #[test]
    fn midpoints_match_paper_formula() {
        // U = 5: midpoints 0.1, 0.3, 0.5, 0.7, 0.9.
        let e = BeliefEstimator::new(5);
        for (u, want) in [0.1, 0.3, 0.5, 0.7, 0.9].iter().enumerate() {
            assert!((e.midpoint(u) - want).abs() < EPS);
        }
        assert_eq!(e.interval_bounds(0), (0.0, 0.2));
        assert_eq!(e.interval_bounds(4), (0.8, 1.0));
    }

    #[test]
    fn table1_one_suspicion() {
        // The paper's Table 1(b).
        let mut e = BeliefEstimator::new(5);
        e.decrease_reliability(1);
        for (u, want) in [0.04, 0.12, 0.20, 0.28, 0.36].iter().enumerate() {
            assert!(
                (e.belief(u) - want).abs() < EPS,
                "interval {u}: got {} want {want}",
                e.belief(u)
            );
        }
        assert!((belief_sum(&e) - 1.0).abs() < EPS);
    }

    #[test]
    fn increase_mirrors_decrease() {
        let mut e = BeliefEstimator::new(5);
        e.increase_reliability(1);
        // By symmetry with Table 1: reversed beliefs.
        for (u, want) in [0.36, 0.28, 0.20, 0.12, 0.04].iter().enumerate() {
            assert!((e.belief(u) - want).abs() < EPS);
        }
    }

    #[test]
    fn zero_factor_is_a_no_op() {
        let mut e = BeliefEstimator::new(7);
        let before = e;
        e.decrease_reliability(0);
        e.increase_reliability(0);
        e.undo_decrease(0);
        assert_eq!(e, before);
    }

    #[test]
    fn undo_decrease_is_exact_inverse() {
        let mut e = BeliefEstimator::new(100);
        e.increase_reliability(10); // some non-trivial posterior
        let before = e;
        e.decrease_reliability(3);
        e.undo_decrease(3);
        assert_eq!(e, before);
    }

    #[test]
    fn undo_decrease_bit_exactly_reverts_a_batched_decrease() {
        // `undo_decrease(k)` must revert one `decrease_reliability(k)`
        // exactly — not approximately, and not just k unit decreases.
        for k in [1u32, 2, 5, 16, 32, 60] {
            let mut e = BeliefEstimator::new(100);
            e.increase_reliability(10);
            let before = e;
            e.decrease_reliability(k);
            e.undo_decrease(k);
            assert_eq!(e, before, "factor {k} did not round-trip exactly");
        }
    }

    /// An undo is exact whatever comes between it and its decrease.
    #[test]
    fn undo_after_an_intervening_increase_is_exact() {
        let mut e = BeliefEstimator::new(100);
        e.decrease_reliability(3);
        e.increase_reliability(1);
        e.undo_decrease(3);
        let mut expected = BeliefEstimator::new(100);
        expected.increase_reliability(1);
        assert_eq!(e, expected);
        assert_eq!(e.beliefs(), expected.beliefs());
    }

    #[test]
    fn split_undos_revert_exactly() {
        let mut e = BeliefEstimator::new(40);
        e.increase_reliability(4);
        let before = e;
        e.decrease_reliability(4);
        e.undo_decrease(2);
        e.undo_decrease(2);
        assert_eq!(e, before);
    }

    #[test]
    fn counts_saturate_instead_of_overflowing() {
        let mut e = BeliefEstimator::new(10);
        e.decrease_reliability(u32::MAX);
        e.decrease_reliability(7);
        e.increase_reliability(u32::MAX);
        e.increase_reliability(1);
        assert_eq!((e.failures(), e.successes()), (u32::MAX, u32::MAX));
        e.undo_decrease(u32::MAX);
        e.undo_decrease(1);
        assert_eq!(e.failures(), 0);
    }

    #[test]
    fn bayes_increase_does_not_cancel_decrease() {
        // The motivation for `BeliefEstimator::undo_decrease`: a Bayesian
        // increase after a decrease is *not* the identity.
        let mut e = BeliefEstimator::new(10);
        let before = e;
        e.decrease_reliability(1);
        e.increase_reliability(1);
        let drift: f64 = (0..10)
            .map(|u| (e.belief(u) - before.belief(u)).abs())
            .sum();
        assert!(drift > 1e-3, "expected visible drift, got {drift}");
    }

    #[test]
    fn large_counts_evaluate_without_underflow() {
        let mut e = BeliefEstimator::new(100);
        e.decrease_reliability(10_000);
        assert!((belief_sum(&e) - 1.0).abs() < 1e-9);
        // Mass should pile up on the top interval.
        assert_eq!(e.map_interval(), 99);
        assert!(e.belief(99) > 0.9);
    }

    #[test]
    fn extreme_counts_stay_a_valid_posterior() {
        for (a, b) in [(u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            for intervals in [1, 5, 100] {
                let mut e = BeliefEstimator::new(intervals);
                e.decrease_reliability(a);
                e.increase_reliability(b);
                let beliefs = e.beliefs();
                assert!(beliefs.iter().all(|&p| (0.0..=1.0).contains(&p)));
                assert!((beliefs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                let mean = e.mean().value();
                assert!(mean.is_finite() && (0.0..=1.0).contains(&mean));
            }
        }
    }

    #[test]
    fn mean_tracks_bernoulli_rate() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for &rate in &[0.02f64, 0.3, 0.7] {
            let mut e = BeliefEstimator::new(100);
            for _ in 0..3000 {
                e.observe(rng.gen_bool(rate));
            }
            assert!(
                (e.mean().value() - rate).abs() < 0.05,
                "rate {rate}: mean {}",
                e.mean()
            );
            // The MAP interval should be the true rate's interval or an
            // immediate neighbor (rates on an interval boundary can fall
            // either way).
            let width = 1.0 / e.intervals() as f64;
            let map_mid = e.midpoint(e.map_interval());
            assert!(
                (map_mid - rate).abs() <= 2.5 * width,
                "rate {rate}: MAP midpoint {map_mid}"
            );
        }
    }

    #[test]
    fn map_contains_handles_closed_last_interval() {
        let mut e = BeliefEstimator::new(5);
        e.decrease_reliability(50);
        assert_eq!(e.map_interval(), 4);
        assert!(e.map_contains(1.0));
        assert!(!e.map_contains(0.0));
    }

    #[test]
    fn credible_bounds_cover_map_interval() {
        let mut e = BeliefEstimator::new(10);
        e.decrease_reliability(5);
        let (lo, hi) = e.credible_bounds(0.5);
        let (mlo, mhi) = e.interval_bounds(e.map_interval());
        assert!(lo <= mlo && hi >= mhi);
        let (full_lo, full_hi) = e.credible_bounds(1.0);
        assert_eq!((full_lo, full_hi), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "mass")]
    fn credible_bounds_rejects_zero_mass() {
        let _ = BeliefEstimator::new(5).credible_bounds(0.0);
    }

    #[test]
    fn refine_doubles_resolution_exactly() {
        let mut e = BeliefEstimator::new(5);
        e.decrease_reliability(2);
        e.refine();
        assert_eq!(e.intervals(), 10);
        assert!((belief_sum(&e) - 1.0).abs() < EPS);
        let mut fine = BeliefEstimator::new(10);
        fine.decrease_reliability(2);
        assert_eq!(e, fine);
        // The uniform prior's mean is 1/2 at every resolution.
        let mut prior = BeliefEstimator::new(5);
        prior.refine();
        assert!((prior.mean().value() - 0.5).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_intervals_panics() {
        let _ = BeliefEstimator::new(0);
    }

    /// Observations (of either kind) the spec property feeds both
    /// estimators at most, so that no spec belief falls out of the normal
    /// `f64` range: each observation moves a belief ratio by at most
    /// `2U - 1`.
    const SPEC_BUDGET: u32 = 120;

    /// Runs `ops` (`0` decrease, `1` increase, `2` undo, each by `k`) on
    /// the counts and on the vector spec; an undo never exceeds the
    /// outstanding failures. Beliefs must agree within 1e-9 relative and
    /// the means within 1e-12.
    fn counts_match_the_vector_spec(intervals: usize, ops: &[(u8, u32)]) {
        let mut counts = BeliefEstimator::new(intervals);
        let mut vector = spec::VectorEstimator::new(intervals);
        let mut observed = 0u32;
        for &(op, k) in ops {
            match op {
                0 | 1 if observed + k > SPEC_BUDGET => continue,
                0 => {
                    observed += k;
                    counts.decrease_reliability(k);
                    vector.decrease_reliability(k);
                }
                1 => {
                    observed += k;
                    counts.increase_reliability(k);
                    vector.increase_reliability(k);
                }
                _ => {
                    let k = k.min(counts.failures());
                    counts.undo_decrease(k);
                    vector.undo_decrease(k);
                }
            }
            for (u, (got, want)) in counts.beliefs().iter().zip(vector.beliefs()).enumerate() {
                let scale = got.abs().max(want.abs());
                assert!(
                    (got - want).abs() <= 1e-9 * scale,
                    "U = {intervals}, interval {u}: counts {got} vs spec {want} after {ops:?}"
                );
            }
            let (got, want) = (counts.mean().value(), vector.mean());
            assert!(
                (got - want).abs() <= 1e-12,
                "U = {intervals}: mean {got} vs spec {want} after {ops:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_counts_match_the_vector_spec(
            u_sel in 0usize..3,
            ops in proptest::collection::vec((0u8..3, 1u32..=40), 0..16),
        ) {
            counts_match_the_vector_spec([5, 8, 100][u_sel], &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        #[ignore = "large case count; CI runs it in release via --include-ignored"]
        fn prop_counts_match_the_vector_spec_at_scale(
            u_sel in 0usize..3,
            ops in proptest::collection::vec((0u8..3, 1u32..=40), 0..16),
        ) {
            counts_match_the_vector_spec([5, 8, 100][u_sel], &ops);
        }
    }

    proptest! {
        /// A batched update equals the same number of unit updates.
        #[test]
        fn prop_batched_update_equals_unit_updates(
            k in 1u32..=64,
            u_sel in 0usize..3,
            failed in any::<bool>(),
        ) {
            let intervals = [8usize, 16, 100][u_sel];
            let mut batched = BeliefEstimator::new(intervals);
            let mut unit = BeliefEstimator::new(intervals);
            for _ in 0..k {
                unit.observe(failed);
            }
            if failed {
                batched.decrease_reliability(k);
            } else {
                batched.increase_reliability(k);
            }
            prop_assert_eq!(batched, unit);
        }

        /// Exact decrease/undo round trip at any factor.
        #[test]
        fn prop_undo_decrease_round_trips_exactly(
            prior in proptest::collection::vec((any::<bool>(), 1u32..6), 0..10),
            k in 1u32..=60,
        ) {
            let mut e = BeliefEstimator::new(100);
            for (f, n) in prior {
                if f {
                    e.decrease_reliability(n);
                } else {
                    e.increase_reliability(n);
                }
            }
            let before = e;
            e.decrease_reliability(k);
            e.undo_decrease(k);
            prop_assert_eq!(e, before);
        }

        /// Invariant from the paper: Σ_u P_B[u] = 1 after any update
        /// sequence.
        #[test]
        fn prop_beliefs_always_sum_to_one(
            updates in proptest::collection::vec((any::<bool>(), 1u32..60), 0..40),
            intervals in 1usize..150,
        ) {
            let mut e = BeliefEstimator::new(intervals);
            for (failed, factor) in updates {
                if failed {
                    e.decrease_reliability(factor);
                } else {
                    e.increase_reliability(factor);
                }
                prop_assert!((belief_sum(&e) - 1.0).abs() < 1e-9);
                prop_assert!(e.beliefs().iter().all(|&b| (0.0..=1.0).contains(&b)));
            }
        }

        /// Failures can only push the posterior mean up, successes down.
        #[test]
        fn prop_updates_move_mean_monotonically(intervals in 2usize..120) {
            let mut e = BeliefEstimator::new(intervals);
            let m0 = e.mean().value();
            e.decrease_reliability(1);
            let m1 = e.mean().value();
            prop_assert!(m1 > m0);
            e.increase_reliability(2);
            prop_assert!(e.mean().value() < m1);
        }

        /// Refinement equals having started at the finer resolution.
        #[test]
        fn prop_refine_equals_a_finer_estimator(
            updates in proptest::collection::vec(any::<bool>(), 0..30),
        ) {
            let mut coarse = BeliefEstimator::new(25);
            let mut fine = BeliefEstimator::new(50);
            for failed in updates {
                coarse.observe(failed);
                fine.observe(failed);
            }
            coarse.refine();
            prop_assert_eq!(coarse.beliefs(), fine.beliefs());
            prop_assert_eq!(coarse.mean(), fine.mean());
        }
    }
}
