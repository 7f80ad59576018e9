//! Interval Bayesian belief estimators (Algorithm 5 of the paper).

use std::sync::Arc;

use diffuse_model::Probability;

/// Default number of probability intervals `U` (Algorithm 5, line 2).
pub const DEFAULT_INTERVALS: usize = 100;

/// Above this update factor the estimator switches to log-space updates to
/// avoid floating-point underflow in `likelihood^factor`.
const LOG_SPACE_THRESHOLD: u32 = 32;

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
/// Beliefs always sum to one — the invariant `Σ_u P_B[u] = 1` the paper
/// states below Table 1 — and are stored behind an [`Arc`] with
/// copy-on-write mutation, so *adopting* another process's estimate (which
/// the adaptive protocol does constantly) is a cheap pointer copy.
///
/// [`decrease_reliability`]: BeliefEstimator::decrease_reliability
/// [`increase_reliability`]: BeliefEstimator::increase_reliability
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
#[derive(Debug, Clone)]
pub struct BeliefEstimator {
    beliefs: Arc<Vec<f64>>,
    /// Snapshot taken by the most recent [`decrease_reliability`] call and
    /// consumed by a matching [`undo_decrease`]: `(factor, beliefs before the
    /// decrease)`. Restoring the snapshot makes the undo *bit-exact* — a
    /// numeric inverse cannot be, because each forward multiply rounds.
    /// Cleared by every other mutation; excluded from equality and the wire.
    ///
    /// [`decrease_reliability`]: BeliefEstimator::decrease_reliability
    /// [`undo_decrease`]: BeliefEstimator::undo_decrease
    undo_checkpoint: Option<(u32, Arc<Vec<f64>>)>,
}

/// Equality is over the belief vector only: the undo checkpoint is
/// bookkeeping (it never crosses the wire and never affects reads).
impl PartialEq for BeliefEstimator {
    fn eq(&self, other: &Self) -> bool {
        self.beliefs == other.beliefs
    }
}

impl BeliefEstimator {
    /// Creates an estimator with `intervals` equal-width probability
    /// intervals and a uniform prior (Algorithm 5, `initializeReliability`).
    ///
    /// # Panics
    ///
    /// Panics if `intervals == 0`.
    pub fn new(intervals: usize) -> Self {
        assert!(intervals > 0, "at least one probability interval required");
        BeliefEstimator {
            beliefs: Arc::new(vec![1.0 / intervals as f64; intervals]),
            undo_checkpoint: None,
        }
    }

    /// Reconstructs an estimator from raw belief values (e.g. decoded
    /// from the wire). A vector that already sums to one (within 1e-9)
    /// is adopted bit for bit — every update normalizes, so an honest
    /// peer's vector is off by a few ULP at most, and dividing by that
    /// sum again would hand the receiver different bits than the sender
    /// holds. Anything else is normalized to sum to one.
    ///
    /// # Errors
    ///
    /// Returns the offending value if any belief is negative, non-finite,
    /// or the vector is empty/degenerate (sums to zero).
    pub fn from_beliefs(beliefs: Vec<f64>) -> Result<Self, f64> {
        if beliefs.is_empty() {
            return Err(0.0);
        }
        let mut sum = 0.0;
        for &b in &beliefs {
            if !b.is_finite() || b < 0.0 {
                return Err(b);
            }
            sum += b;
        }
        if sum <= 0.0 {
            return Err(sum);
        }
        let beliefs = if (sum - 1.0).abs() <= 1e-9 {
            beliefs
        } else {
            beliefs.into_iter().map(|b| b / sum).collect()
        };
        Ok(BeliefEstimator {
            beliefs: Arc::new(beliefs),
            undo_checkpoint: None,
        })
    }

    /// Number of intervals `U`.
    pub fn intervals(&self) -> usize {
        self.beliefs.len()
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

    /// Current belief `P_B[u]` for the 0-indexed interval `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= intervals()`.
    pub fn belief(&self, u: usize) -> f64 {
        self.beliefs[u]
    }

    /// All beliefs, in interval order.
    pub fn beliefs(&self) -> &[f64] {
        &self.beliefs
    }

    /// Applies `factor` repeated multiplicative updates `beliefs[u] *=
    /// weight(u)` (or `/=` when `invert`), followed by a single
    /// normalization, switching to log-space when `factor` is large.
    ///
    /// The linear path multiplies the weight into each belief `factor`
    /// times *in place*, so one batched call is bit-for-bit identical to
    /// the same `factor` multiplies written out as a loop followed by one
    /// normalization (pinned by `prop_batched_update_is_looped_multiplies`).
    /// A pre-folded `weight^factor` — `powi` uses binary exponentiation —
    /// rounds differently for `factor >= 3`; do not "optimize" this back.
    fn apply(&mut self, factor: u32, invert: bool, weight: impl Fn(f64) -> f64) {
        if factor == 0 {
            return;
        }
        let beliefs = Arc::make_mut(&mut self.beliefs);
        let u_count = beliefs.len();
        if factor <= LOG_SPACE_THRESHOLD {
            let mut sum = 0.0;
            for (u, b) in beliefs.iter_mut().enumerate() {
                let mid = (2 * u + 1) as f64 / (2 * u_count) as f64;
                let w = weight(mid);
                if invert {
                    // Division is the numeric inverse of the forward
                    // multiply (closer than multiplying by `1/w`, which
                    // rounds the reciprocal first).
                    for _ in 0..factor {
                        *b /= w;
                    }
                } else {
                    for _ in 0..factor {
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
                // Degenerate case (all likelihoods zero or overflowed):
                // reset to uniform rather than propagate NaNs.
                beliefs.fill(1.0 / u_count as f64);
            }
        } else {
            // Log-space: b' ∝ exp(ln b ± factor · ln w), stabilized by the
            // maximum exponent.
            let sign = if invert { -1.0 } else { 1.0 };
            let mut logs: Vec<f64> = beliefs
                .iter()
                .enumerate()
                .map(|(u, &b)| {
                    let mid = (2 * u + 1) as f64 / (2 * u_count) as f64;
                    let lw = weight(mid).ln();
                    if b > 0.0 {
                        b.ln() + sign * factor as f64 * lw
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
            let mut sum = 0.0;
            for l in &mut logs {
                *l = (*l - max).exp();
                sum += *l;
            }
            for (b, l) in beliefs.iter_mut().zip(logs) {
                *b = l / sum;
            }
        }
    }

    /// Records `factor` failure observations (crash, loss, or suspicion of
    /// one): `P_B[u] ∝ P_B[u] · P_{F|B}[u]` per observation — Algorithm 5's
    /// `decreaseReliability`.
    ///
    /// Also snapshots the pre-decrease beliefs (a cheap `Arc` clone) so an
    /// immediately following [`undo_decrease`] with the same `factor`
    /// reverts this call *bit-exactly*.
    ///
    /// [`undo_decrease`]: BeliefEstimator::undo_decrease
    pub fn decrease_reliability(&mut self, factor: u32) {
        if factor == 0 {
            return;
        }
        let snapshot = Arc::clone(&self.beliefs);
        self.apply(factor, false, |mid| mid);
        self.undo_checkpoint = Some((factor, snapshot));
    }

    /// Records `factor` success observations (absence of failure):
    /// `P_B[u] ∝ P_B[u] · (1 - P_{F|B}[u])` per observation — Algorithm 5's
    /// `increaseReliability`.
    pub fn increase_reliability(&mut self, factor: u32) {
        if factor == 0 {
            return;
        }
        self.undo_checkpoint = None;
        self.apply(factor, false, |mid| 1.0 - mid);
    }

    /// Exactly reverts `factor` earlier [`decrease_reliability`] updates.
    ///
    /// Used when a suspicion turns out to have been unfounded (the sender
    /// never sent, so the link never lost anything): a Bayesian *increase*
    /// does not cancel a decrease, but this inverse does. When the undo
    /// directly follows `decrease_reliability(factor)` with no intervening
    /// mutation, the recorded checkpoint is restored and the revert is
    /// *bit-for-bit exact*; otherwise the likelihood is divided back out
    /// numerically (exact up to floating-point round-off). The test
    /// `bayes_increase_does_not_cancel_decrease` shows why an increase
    /// cannot stand in for this.
    ///
    /// [`decrease_reliability`]: BeliefEstimator::decrease_reliability
    pub fn undo_decrease(&mut self, factor: u32) {
        if factor == 0 {
            return;
        }
        match self.undo_checkpoint.take() {
            Some((recorded, snapshot)) if recorded == factor => {
                self.beliefs = snapshot;
            }
            _ => self.apply(factor, true, |mid| mid),
        }
    }

    /// Reverts `factor` earlier [`increase_reliability`] updates by
    /// dividing the success likelihood back out (numeric inverse, exact up
    /// to floating-point round-off).
    ///
    /// [`increase_reliability`]: BeliefEstimator::increase_reliability
    pub fn undo_increase(&mut self, factor: u32) {
        if factor == 0 {
            return;
        }
        self.undo_checkpoint = None;
        self.apply(factor, true, |mid| 1.0 - mid);
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
    /// `reach` function.
    pub fn mean(&self) -> Probability {
        let m = self
            .beliefs
            .iter()
            .enumerate()
            .map(|(u, &b)| b * self.midpoint(u))
            .sum();
        Probability::clamped(m)
    }

    /// The maximum-a-posteriori interval: the 0-indexed interval with the
    /// highest belief (ties break toward the lower interval).
    pub fn map_interval(&self) -> usize {
        let mut best = 0;
        for (u, &b) in self.beliefs.iter().enumerate() {
            if b > self.beliefs[best] {
                best = u;
            }
        }
        best
    }

    /// Returns `true` iff `probability` falls inside the MAP interval.
    pub fn map_contains(&self, probability: f64) -> bool {
        let (lo, hi) = self.interval_bounds(self.map_interval());
        let last = self.map_interval() + 1 == self.intervals();
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
        let mut indexed: Vec<(usize, f64)> = self.beliefs.iter().copied().enumerate().collect();
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

    /// Doubles the number of intervals, splitting each interval's belief
    /// evenly between its two halves.
    ///
    /// This implements the refinement the paper lists as future work
    /// ("dynamically increasing the number of probabilistic intervals when
    /// better precision is required", Section 7). The posterior mean is
    /// preserved exactly.
    pub fn refine(&mut self) {
        let old = self.beliefs.as_slice();
        let mut refined = Vec::with_capacity(old.len() * 2);
        for &b in old {
            refined.push(b / 2.0);
            refined.push(b / 2.0);
        }
        self.beliefs = Arc::new(refined);
        self.undo_checkpoint = None;
    }

    /// The shared belief storage: what an [`Offer`](crate::Offer)
    /// carries. The undo checkpoint stays behind — only
    /// [`undo_decrease`](BeliefEstimator::undo_decrease) reads it, and
    /// only on the estimator that took it.
    pub(crate) fn storage(&self) -> &Arc<Vec<f64>> {
        &self.beliefs
    }

    /// An estimator over shared storage, with no undo checkpoint.
    pub(crate) fn from_storage(beliefs: Arc<Vec<f64>>) -> BeliefEstimator {
        BeliefEstimator {
            beliefs,
            undo_checkpoint: None,
        }
    }

    /// Returns `true` when both estimators share the same belief storage
    /// (used to verify the copy-on-write adoption path).
    pub fn shares_storage_with(&self, other: &BeliefEstimator) -> bool {
        Arc::ptr_eq(&self.beliefs, &other.beliefs)
    }

    /// Bitwise equality of the belief vectors, with a shared-storage
    /// fast path.
    ///
    /// Stricter than `==` (which treats `-0.0 == 0.0`): used where a
    /// "did the value really change" decision must agree with
    /// bit-identity guarantees, e.g. the adaptive protocol's
    /// changed-entry detection for delta heartbeats.
    pub fn bits_eq(&self, other: &BeliefEstimator) -> bool {
        self.bits_eq_storage(&other.beliefs)
    }

    /// [`bits_eq`](BeliefEstimator::bits_eq) against shared storage.
    pub(crate) fn bits_eq_storage(&self, other: &Arc<Vec<f64>>) -> bool {
        Arc::ptr_eq(&self.beliefs, other)
            || (self.beliefs.len() == other.len()
                && self
                    .beliefs
                    .iter()
                    .zip(other.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()))
    }
}

impl Default for BeliefEstimator {
    fn default() -> Self {
        BeliefEstimator::new(DEFAULT_INTERVALS)
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
        let before = e.clone();
        e.decrease_reliability(0);
        e.increase_reliability(0);
        e.undo_decrease(0);
        assert_eq!(e, before);
    }

    #[test]
    fn undo_decrease_is_exact_inverse() {
        let mut e = BeliefEstimator::new(100);
        e.increase_reliability(10); // some non-trivial posterior
        let before = e.clone();
        e.decrease_reliability(3);
        e.undo_decrease(3);
        for u in 0..100 {
            assert!((e.belief(u) - before.belief(u)).abs() < 1e-9);
        }
    }

    #[test]
    fn undo_increase_is_exact_inverse() {
        let mut e = BeliefEstimator::new(50);
        e.decrease_reliability(2);
        let before = e.clone();
        e.increase_reliability(4);
        e.undo_increase(4);
        for u in 0..50 {
            assert!((e.belief(u) - before.belief(u)).abs() < 1e-9);
        }
    }

    #[test]
    fn undo_decrease_bit_exactly_reverts_a_batched_decrease() {
        // Satellite regression: `undo_decrease(k)` must revert one
        // `decrease_reliability(k)` exactly — not approximately, and not
        // just k unit decreases. The checkpoint restore makes it bitwise.
        for k in [1u32, 2, 5, 16, 32, 60] {
            let mut e = BeliefEstimator::new(100);
            e.increase_reliability(10);
            let before = e.clone();
            e.decrease_reliability(k);
            e.undo_decrease(k);
            assert!(
                e.bits_eq(&before),
                "factor {k} did not round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn undo_checkpoint_is_cleared_by_intervening_mutations() {
        let mut e = BeliefEstimator::new(50);
        e.decrease_reliability(3);
        e.increase_reliability(1); // invalidates the snapshot
        let mid = e.clone();
        e.undo_decrease(3); // numeric fallback, not the stale snapshot
        assert!((belief_sum(&e) - 1.0).abs() < 1e-9);
        assert!(!e.bits_eq(&mid));
    }

    #[test]
    fn mismatched_undo_factor_falls_back_to_the_numeric_inverse() {
        let mut e = BeliefEstimator::new(40);
        e.increase_reliability(4);
        let before = e.clone();
        e.decrease_reliability(4);
        e.undo_decrease(2);
        e.undo_decrease(2);
        for u in 0..40 {
            assert!((e.belief(u) - before.belief(u)).abs() < 1e-9);
        }
    }

    #[test]
    fn refine_invalidates_the_undo_checkpoint() {
        let mut e = BeliefEstimator::new(10);
        e.decrease_reliability(2);
        e.refine();
        e.undo_decrease(2); // must not restore the 10-interval snapshot
        assert_eq!(e.intervals(), 20);
        assert!((belief_sum(&e) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bayes_increase_does_not_cancel_decrease() {
        // The motivation for `BeliefEstimator::undo_decrease`: a Bayesian
        // increase after a decrease is *not* the identity.
        let mut e = BeliefEstimator::new(10);
        let before = e.clone();
        e.decrease_reliability(1);
        e.increase_reliability(1);
        let drift: f64 = (0..10)
            .map(|u| (e.belief(u) - before.belief(u)).abs())
            .sum();
        assert!(drift > 1e-3, "expected visible drift, got {drift}");
    }

    #[test]
    fn large_factor_uses_log_space_without_underflow() {
        let mut e = BeliefEstimator::new(100);
        e.decrease_reliability(10_000);
        assert!((belief_sum(&e) - 1.0).abs() < 1e-9);
        // Mass should pile up on the top interval.
        assert_eq!(e.map_interval(), 99);
        assert!(e.belief(99) > 0.9);
    }

    #[test]
    fn small_and_large_factor_paths_agree() {
        let mut a = BeliefEstimator::new(20);
        let mut b = BeliefEstimator::new(20);
        // 40 > LOG_SPACE_THRESHOLD, exercised as one log-space call vs
        // repeated linear calls.
        a.decrease_reliability(40);
        for _ in 0..40 {
            b.decrease_reliability(1);
        }
        for u in 0..20 {
            assert!((a.belief(u) - b.belief(u)).abs() < 1e-9);
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
    fn refine_doubles_resolution_and_preserves_mean() {
        let mut e = BeliefEstimator::new(5);
        e.decrease_reliability(2);
        let mean_before = e.mean().value();
        e.refine();
        assert_eq!(e.intervals(), 10);
        assert!((belief_sum(&e) - 1.0).abs() < EPS);
        assert!((e.mean().value() - mean_before).abs() < 1e-12);
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let mut a = BeliefEstimator::new(100);
        a.decrease_reliability(1);
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        a.increase_reliability(1);
        assert!(!a.shares_storage_with(&b));
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_intervals_panics() {
        let _ = BeliefEstimator::new(0);
    }

    #[test]
    fn from_beliefs_round_trips_and_normalizes() {
        let mut original = BeliefEstimator::new(10);
        original.decrease_reliability(2);
        let back = BeliefEstimator::from_beliefs(original.beliefs().to_vec()).unwrap();
        assert_eq!(back, original);

        // Unnormalized input is normalized.
        let e = BeliefEstimator::from_beliefs(vec![2.0, 2.0]).unwrap();
        assert_eq!(e.beliefs(), &[0.5, 0.5]);
    }

    #[test]
    fn from_beliefs_rejects_bad_input() {
        assert!(BeliefEstimator::from_beliefs(vec![]).is_err());
        assert!(BeliefEstimator::from_beliefs(vec![0.5, -0.1]).is_err());
        assert!(BeliefEstimator::from_beliefs(vec![f64::NAN]).is_err());
        assert!(BeliefEstimator::from_beliefs(vec![0.0, 0.0]).is_err());
    }

    /// The written-out "k looped multiplies, then one normalization"
    /// reference the batched linear path must match bit-for-bit.
    fn looped_reference(before: &[f64], factor: u32, weight: impl Fn(f64) -> f64) -> Vec<f64> {
        let mut out = before.to_vec();
        let u_count = out.len();
        let mut sum = 0.0;
        for (u, b) in out.iter_mut().enumerate() {
            let mid = (2 * u + 1) as f64 / (2 * u_count) as f64;
            let w = weight(mid);
            for _ in 0..factor {
                *b *= w;
            }
            sum += *b;
        }
        if sum > 0.0 && sum.is_finite() {
            for b in out.iter_mut() {
                *b /= sum;
            }
        } else {
            out.fill(1.0 / u_count as f64);
        }
        out
    }

    proptest! {
        /// Tentpole contract: one batched update with factor `k` is
        /// bit-for-bit identical to `k` looped multiplies followed by a
        /// single normalization. (`powi(k)` — binary exponentiation —
        /// would drift from this for `k >= 3`.)
        #[test]
        fn prop_batched_update_is_looped_multiplies(
            prior in proptest::collection::vec((any::<bool>(), 1u32..8), 0..12),
            k in 1u32..=32,
            u_sel in 0usize..3,
            failed in any::<bool>(),
        ) {
            let intervals = [8usize, 16, 100][u_sel];
            let mut e = BeliefEstimator::new(intervals);
            for (f, n) in prior {
                if f {
                    e.decrease_reliability(n);
                } else {
                    e.increase_reliability(n);
                }
            }
            let before = e.beliefs().to_vec();
            let reference =
                looped_reference(&before, k, |mid| if failed { mid } else { 1.0 - mid });
            if failed {
                e.decrease_reliability(k);
            } else {
                e.increase_reliability(k);
            }
            for (u, (got, want)) in e.beliefs().iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "interval {} of {}: batched {} != looped {}",
                    u, intervals, got, want
                );
            }
        }

        /// A batched update stays numerically on top of the same number of
        /// unit updates (each with its own normalization): the two differ
        /// only by when the scale factor is divided out.
        #[test]
        fn prop_batched_update_tracks_unit_updates(
            k in 1u32..=32,
            u_sel in 0usize..3,
            failed in any::<bool>(),
        ) {
            let intervals = [8usize, 16, 100][u_sel];
            let mut batched = BeliefEstimator::new(intervals);
            let mut unit = BeliefEstimator::new(intervals);
            if failed {
                batched.decrease_reliability(k);
                for _ in 0..k {
                    unit.decrease_reliability(1);
                }
            } else {
                batched.increase_reliability(k);
                for _ in 0..k {
                    unit.increase_reliability(1);
                }
            }
            for u in 0..intervals {
                let (a, b) = (batched.belief(u), unit.belief(u));
                let scale = a.abs().max(b.abs()).max(1e-300);
                prop_assert!((a - b).abs() / scale < 1e-9, "interval {}: {} vs {}", u, a, b);
            }
        }

        /// Bit-exact decrease/undo round trip at any factor, including the
        /// log-space regime (the checkpoint restore is path-independent).
        #[test]
        fn prop_undo_decrease_round_trips_bit_exactly(
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
            let before = e.clone();
            e.decrease_reliability(k);
            e.undo_decrease(k);
            prop_assert!(e.bits_eq(&before));
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

        /// Refinement never changes the posterior mean.
        #[test]
        fn prop_refine_preserves_mean(
            updates in proptest::collection::vec(any::<bool>(), 0..30),
        ) {
            let mut e = BeliefEstimator::new(25);
            for failed in updates {
                e.observe(failed);
            }
            let before = e.mean().value();
            e.refine();
            prop_assert!((e.mean().value() - before).abs() < 1e-9);
        }
    }
}
