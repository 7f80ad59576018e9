//! The `optimize()` function (Algorithm 2) and its budget-constrained dual
//! (Eq. 5).
//!
//! [`optimize`] and [`optimize_budget`] are the public entry points and
//! delegate to [`crate::optimize_waterfill`] /
//! [`crate::optimize_budget_waterfill`], an `O(L log L)` closed-form
//! threshold ("waterfilling") solver (see `waterfill.rs`). The paper's
//! increment-at-a-time greedy lives on as the test-only module `spec`
//! at the end of this file: the executable specification the
//! waterfilling solver is property-tested against, bit for bit.

use std::cmp::Reverse;

use crate::reach::{link_success, reach};
use crate::{CoreError, MessageVector, ReliabilityTree};

/// Safety cap on greedy increments; reaching it means the target is
/// practically unreachable (e.g. λ extremely close to 1).
pub(crate) const MAX_INCREMENTS: u64 = 10_000_000;

/// Recompute the reach product from scratch this often to cancel
/// floating-point drift from incremental updates.
pub(crate) const RECOMPUTE_EVERY: u64 = 1024;

/// Tolerance when comparing the running reach against the target: exact
/// boundaries like `1 - 0.1³ = 0.999` are not representable in `f64`, and
/// without slack the greedy would buy a whole extra message to cross a
/// 1e-16 gap.
pub(crate) const REACH_EPS: f64 = 1e-12;

/// The solution of the optimization problem: per-link message counts plus
/// the reach they achieve.
#[derive(Debug, Clone, PartialEq)]
pub struct MessagePlan {
    vector: MessageVector,
    reach: f64,
}

impl MessagePlan {
    pub(crate) fn new(vector: MessageVector, reach: f64) -> Self {
        MessagePlan { vector, reach }
    }

    /// The per-link counts `m⃗`.
    pub fn vector(&self) -> &MessageVector {
        &self.vector
    }

    /// The probability `r(m⃗)` that every process receives the message.
    pub fn reach(&self) -> f64 {
        self.reach
    }

    /// Total messages `c(m⃗)` — the quantity the paper minimizes.
    pub fn total_messages(&self) -> u64 {
        self.vector.total()
    }

    /// Count for link index `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn count(&self, j: usize) -> u32 {
        self.vector.get(j)
    }
}

/// Gain-ordered heap entry: `(gain, Reverse(index))` pops the highest gain
/// first and the smallest link index among equals, making the greedy
/// deterministic — a requirement, since every receiver of a wire tree must
/// reproduce the same plan (Algorithm 1, line 9).
///
/// `succ_next` caches `1 - λ^{m+1}` — the numerator of this candidate's
/// gain. When the candidate is consumed it becomes the *denominator* of
/// the link's next gain, so each greedy step costs a single power
/// evaluation instead of two. The cached value is the exact `f64` the
/// fresh computation would produce, so reuse never changes a plan.
#[derive(Debug)]
pub(crate) struct Candidate {
    gain: f64,
    index: usize,
    succ_next: f64,
}

impl Candidate {
    /// Candidate for the increment `m → m+1` of link `index`.
    pub(crate) fn fresh(lambda: f64, m: u32, index: usize) -> Self {
        let succ = link_success(lambda, m);
        let succ_next = link_success(lambda, m + 1);
        let gain = if succ <= 0.0 { 1.0 } else { succ_next / succ };
        Candidate {
            gain,
            index,
            succ_next,
        }
    }

    /// The gain this candidate offers.
    pub(crate) fn gain(&self) -> f64 {
        self.gain
    }

    /// The link index this candidate increments.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The follow-up candidate after this one was consumed (the link's
    /// count is now `m + 1`), reusing the cached numerator.
    pub(crate) fn successor(&self, lambda: f64, new_count: u32) -> Self {
        let succ_next = link_success(lambda, new_count + 1);
        let gain = if self.succ_next <= 0.0 {
            1.0
        } else {
            succ_next / self.succ_next
        };
        Candidate {
            gain,
            index: self.index,
            succ_next,
        }
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.gain.total_cmp(&other.gain).is_eq() && self.index == other.index
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| Reverse(self.index).cmp(&Reverse(other.index)))
    }
}

/// Multiplicative gain of sending one more message over link `j`
/// (Eq. 6): `α(m⃗, j) = (1 - λ_j^{m_j + 1}) / (1 - λ_j^{m_j})`.
///
/// Returns 1.0 (no gain) for λ = 0 and ∞-safe behavior for λ = 1 (gain 1:
/// another copy of a certainly-lost message helps nothing).
pub fn gain(lambda: f64, m: u32) -> f64 {
    let current = link_success(lambda, m);
    if current <= 0.0 {
        // λ = 1: hopeless link, sending more changes nothing.
        return 1.0;
    }
    link_success(lambda, m + 1) / current
}

/// Shared entry validation: target checks, the trivial all-ones solution
/// (`Some` — done), and the dead-link error. `None` means: keep
/// optimizing from the all-ones vector.
pub(crate) fn preflight(tree: &ReliabilityTree, k: f64) -> Result<Option<MessagePlan>, CoreError> {
    if !k.is_finite() || !(0.0..1.0).contains(&k) {
        return Err(CoreError::InvalidTarget(k));
    }
    let m = MessageVector::ones(tree.link_count());
    let r = reach(tree, &m);
    if r + REACH_EPS >= k {
        return Ok(Some(MessagePlan::new(m, r)));
    }
    if tree.lambdas().iter().any(|&l| l >= 1.0) {
        return Err(CoreError::TargetUnreachable { best_reach: r });
    }
    Ok(None)
}

/// Algorithm 2: computes the cheapest `m⃗` with `reach(T, m⃗) ≥ k`.
///
/// Delegates to the `O(L log L)` waterfilling solver
/// ([`crate::optimize_waterfill`]), which produces plans bit-identical to
/// the paper's reference greedy. Appendix D proves the greedy
/// is exactly optimal (the gain function is isotone, giving the
/// greedy-choice and optimal-substructure properties); the test-suite
/// cross-checks both solvers against each other and against an exhaustive
/// oracle.
///
/// # Errors
///
/// * [`CoreError::InvalidTarget`] if `k` is not in `[0, 1)`;
/// * [`CoreError::TargetUnreachable`] if some link has λ = 1 and `k > 0`,
///   or the increment budget is exhausted.
///
/// # Example
///
/// ```
/// use diffuse_core::{optimize, ReliabilityTree};
/// use diffuse_model::ProcessId;
///
/// # fn main() -> Result<(), diffuse_core::CoreError> {
/// // One link losing 10% of traffic: three copies give 0.999.
/// let tree = ReliabilityTree::from_parts(
///     ProcessId::new(0),
///     vec![ProcessId::new(0), ProcessId::new(1)],
///     vec![0],
///     vec![0.1],
/// )?;
/// let plan = optimize(&tree, 0.999)?;
/// assert_eq!(plan.total_messages(), 3);
/// assert!(plan.reach() >= 0.999);
/// # Ok(())
/// # }
/// ```
pub fn optimize(tree: &ReliabilityTree, k: f64) -> Result<MessagePlan, CoreError> {
    crate::waterfill::optimize_waterfill(tree, k)
}

/// The budget-constrained dual (Eq. 5): maximizes `reach(T, m⃗)` subject
/// to `c(m⃗) ≤ budget`.
///
/// Delegates to the waterfilling solver
/// ([`crate::optimize_budget_waterfill`]); plans are bit-identical to the
/// paper's reference greedy with the stop condition `c(m⃗) = budget`
/// (footnote 3 of the paper).
///
/// # Errors
///
/// Returns [`CoreError::BudgetTooSmall`] if `budget` is below the number
/// of tree links (every link needs at least one message).
pub fn optimize_budget(tree: &ReliabilityTree, budget: u64) -> Result<MessagePlan, CoreError> {
    crate::waterfill::optimize_budget_waterfill(tree, budget)
}

/// The paper's increment-at-a-time greedy for Algorithm 2 and its budget
/// dual: the executable specification the waterfilling solver must (and
/// does — property-tested) reproduce bit for bit. Plus the exhaustive
/// oracle the greedy is checked against on small trees. Test-only.
#[cfg(test)]
pub(crate) mod spec {
    use std::collections::BinaryHeap;

    use super::{preflight, Candidate, MAX_INCREMENTS, REACH_EPS, RECOMPUTE_EVERY};
    use crate::reach::reach;
    use crate::{CoreError, MessagePlan, MessageVector, ReliabilityTree};

    /// One candidate per link, each at the link's current count in `m`.
    fn seed_heap(tree: &ReliabilityTree, m: &MessageVector) -> BinaryHeap<Candidate> {
        (0..m.len())
            .map(|j| Candidate::fresh(tree.lambda(j), m.get(j), j))
            .collect()
    }

    /// Runs the greedy from `m` until the exact reach meets `k`.
    ///
    /// The stopping rule is *drift-free*: the incrementally-updated
    /// running reach only arms a trigger, and crossing the target is
    /// always confirmed against the exact product — so the plan a run
    /// produces is a pure function of the gain ordering and the
    /// exact-reach predicate, which is what lets the closed-form
    /// waterfilling solver reproduce it bit-for-bit. Each failed
    /// confirmation pulls the trigger halfway into the remaining gap, so
    /// confirmations cost `O(L log(1/gap))` total.
    fn greedy_until_target(
        tree: &ReliabilityTree,
        mut m: MessageVector,
        k: f64,
    ) -> Result<MessagePlan, CoreError> {
        let mut r = reach(tree, &m);
        if r + REACH_EPS >= k {
            return Ok(MessagePlan::new(m, r));
        }
        let mut heap = seed_heap(tree, &m);
        let mut increments = 0u64;
        let mut trigger = k - REACH_EPS;
        loop {
            let Some(best) = heap.pop() else {
                return Err(CoreError::TargetUnreachable {
                    best_reach: reach(tree, &m),
                });
            };
            if best.gain <= 1.0 {
                // No link can improve the reach any further.
                return Err(CoreError::TargetUnreachable {
                    best_reach: reach(tree, &m),
                });
            }
            m.increment(best.index);
            r *= best.gain;
            let lambda = tree.lambda(best.index);
            let next = best.successor(lambda, m.get(best.index));
            heap.push(next);
            increments += 1;
            if increments % RECOMPUTE_EVERY == 0 {
                r = reach(tree, &m);
            }
            if increments > MAX_INCREMENTS {
                return Err(CoreError::TargetUnreachable {
                    best_reach: reach(tree, &m),
                });
            }
            if r >= trigger {
                let exact = reach(tree, &m);
                if exact + REACH_EPS >= k {
                    return Ok(MessagePlan::new(m, exact));
                }
                r = exact;
                trigger = exact + (k - REACH_EPS - exact) * 0.5;
            }
        }
    }

    /// The reference greedy for Algorithm 2: starts from `(1, 1, …, 1)`
    /// and repeatedly increments the link with the maximum gain until the
    /// target is met. Same contract as [`crate::optimize`].
    pub(crate) fn optimize_greedy(
        tree: &ReliabilityTree,
        k: f64,
    ) -> Result<MessagePlan, CoreError> {
        match preflight(tree, k)? {
            Some(plan) => Ok(plan),
            None => greedy_until_target(tree, MessageVector::ones(tree.link_count()), k),
        }
    }

    /// The reference greedy for the budget dual: the same greedy with the
    /// stop condition `c(m⃗) = budget`. Same contract as
    /// [`crate::optimize_budget`].
    pub(crate) fn optimize_budget_greedy(
        tree: &ReliabilityTree,
        budget: u64,
    ) -> Result<MessagePlan, CoreError> {
        let links = tree.link_count();
        if budget < links as u64 {
            return Err(CoreError::BudgetTooSmall { budget, links });
        }
        let mut m = MessageVector::ones(links);
        let mut heap = seed_heap(tree, &m);
        for _ in 0..budget - links as u64 {
            let Some(best) = heap.pop() else { break };
            if best.gain <= 1.0 {
                break; // nothing can improve further; stay under budget
            }
            m.increment(best.index);
            let lambda = tree.lambda(best.index);
            let next = best.successor(lambda, m.get(best.index));
            heap.push(next);
        }
        let r = reach(tree, &m);
        Ok(MessagePlan::new(m, r))
    }

    /// Exhaustive oracle: tries every `m⃗` with entries in
    /// `1..=max_per_link` and returns a cheapest vector reaching `k`, if
    /// any. Exponential; for small trees only.
    pub(crate) fn optimize_exhaustive(
        tree: &ReliabilityTree,
        k: f64,
        max_per_link: u32,
    ) -> Option<MessagePlan> {
        let links = tree.link_count();
        if links == 0 {
            return Some(MessagePlan::new(MessageVector::ones(0), 1.0));
        }
        let mut best: Option<MessagePlan> = None;
        let mut counts = vec![1u32; links];
        loop {
            let m = MessageVector::from_counts(counts.clone());
            let r = reach(tree, &m);
            if r + REACH_EPS >= k {
                let total = m.total();
                if best.as_ref().is_none_or(|b| total < b.total_messages()) {
                    best = Some(MessagePlan::new(m, r));
                }
            }
            // Odometer increment.
            let mut pos = 0;
            loop {
                if pos == links {
                    return best;
                }
                if counts[pos] < max_per_link {
                    counts[pos] += 1;
                    break;
                }
                counts[pos] = 1;
                pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::spec::{optimize_budget_greedy, optimize_exhaustive, optimize_greedy};
    use super::*;
    use crate::tests_support::{chain_tree, star_tree, tree_with_lambdas};

    #[test]
    fn gain_is_isotone_nonincreasing() {
        // Lemma 4 (Eq. 7): α(m⃗ + u⃗_k, k) ≤ α(m⃗, k).
        for lambda in [0.05, 0.3, 0.7, 0.95] {
            let mut last = gain(lambda, 1);
            for m in 2..40 {
                let g = gain(lambda, m);
                assert!(g <= last + 1e-12, "gain must not increase (λ={lambda})");
                assert!(g >= 1.0);
                last = g;
            }
        }
    }

    #[test]
    fn gain_edge_cases() {
        assert_eq!(gain(0.0, 1), 1.0);
        assert_eq!(gain(1.0, 3), 1.0);
    }

    #[test]
    fn candidate_numerator_reuse_is_exact() {
        // The cached-numerator fast path must reproduce gain() bit for
        // bit, or the two solvers could order increments differently.
        for lambda in [0.05, 0.3, 0.7, 0.95, 0.99] {
            let mut candidate = Candidate::fresh(lambda, 1, 0);
            for m in 1..200u32 {
                assert_eq!(candidate.gain, gain(lambda, m), "λ={lambda}, m={m}");
                candidate = candidate.successor(lambda, m + 1);
            }
        }
    }

    #[test]
    fn single_link_plan_matches_closed_form() {
        // Need 1 - 0.1^m >= 0.999 → m = 3.
        let tree = chain_tree(&[0.1]);
        let plan = optimize(&tree, 0.999).unwrap();
        assert_eq!(plan.vector().counts(), &[3]);
        assert_eq!(plan.count(0), 3);
        assert!((plan.reach() - (1.0 - 0.001)).abs() < 1e-12);
    }

    #[test]
    fn perfect_links_need_one_message_each() {
        let tree = star_tree(&[0.0, 0.0, 0.0]);
        let plan = optimize(&tree, 0.9999).unwrap();
        assert_eq!(plan.total_messages(), 3);
        assert_eq!(plan.reach(), 1.0);
    }

    #[test]
    fn greedy_prefers_the_weak_link() {
        // One lossy link among reliable ones gets the extra copies.
        let tree = star_tree(&[0.01, 0.5, 0.01]);
        let plan = optimize(&tree, 0.99).unwrap();
        assert!(plan.count(1) > plan.count(0));
        assert!(plan.count(1) > plan.count(2));
        assert!(plan.reach() >= 0.99);
    }

    #[test]
    fn rejects_invalid_targets() {
        let tree = chain_tree(&[0.1]);
        for k in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(optimize(&tree, k), Err(CoreError::InvalidTarget(_))),
                "target {k} must be rejected"
            );
            assert!(
                matches!(optimize_greedy(&tree, k), Err(CoreError::InvalidTarget(_))),
                "target {k} must be rejected by the greedy"
            );
        }
    }

    #[test]
    fn dead_link_makes_target_unreachable() {
        let tree = chain_tree(&[0.1, 1.0]);
        assert!(matches!(
            optimize(&tree, 0.9),
            Err(CoreError::TargetUnreachable { .. })
        ));
        assert!(matches!(
            optimize_greedy(&tree, 0.9),
            Err(CoreError::TargetUnreachable { .. })
        ));
        // k = 0 is trivially satisfiable even with a dead link.
        let plan = optimize(&tree, 0.0).unwrap();
        assert_eq!(plan.total_messages(), 2);
    }

    #[test]
    fn empty_tree_is_trivially_reached() {
        let tree = crate::tests_support::singleton_tree();
        let plan = optimize(&tree, 0.99).unwrap();
        assert_eq!(plan.total_messages(), 0);
        assert_eq!(plan.reach(), 1.0);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_trees() {
        // Theorem 2: the greedy solution is optimal. Exhaustive search
        // over all vectors with entries ≤ 6 must not find anything
        // cheaper.
        for (tree, k) in [
            (chain_tree(&[0.3, 0.2]), 0.9),
            (chain_tree(&[0.5, 0.5, 0.5]), 0.85),
            (star_tree(&[0.1, 0.4, 0.25]), 0.95),
            (tree_with_lambdas(), 0.9),
        ] {
            let greedy = optimize_greedy(&tree, k).unwrap();
            let oracle = optimize_exhaustive(&tree, k, 6).unwrap();
            assert_eq!(
                greedy.total_messages(),
                oracle.total_messages(),
                "greedy must be optimal (k={k})"
            );
            assert!(greedy.reach() >= k);
            // And the default (waterfilling) path must agree bit for bit.
            assert_eq!(optimize(&tree, k).unwrap(), greedy);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let tree = tree_with_lambdas();
        let a = optimize(&tree, 0.9999).unwrap();
        let b = optimize(&tree, 0.9999).unwrap();
        assert_eq!(a, b);
        let c = optimize_greedy(&tree, 0.9999).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn budget_dual_improves_with_budget() {
        let tree = star_tree(&[0.3, 0.3, 0.3]);
        let mut last = 0.0;
        for budget in 3..12 {
            let plan = optimize_budget(&tree, budget).unwrap();
            assert_eq!(plan.total_messages(), budget);
            assert!(plan.reach() >= last);
            last = plan.reach();
        }
    }

    #[test]
    fn budget_dual_rejects_starvation() {
        let tree = star_tree(&[0.3, 0.3, 0.3]);
        assert!(matches!(
            optimize_budget(&tree, 2),
            Err(CoreError::BudgetTooSmall {
                budget: 2,
                links: 3
            })
        ));
        assert!(matches!(
            optimize_budget_greedy(&tree, 2),
            Err(CoreError::BudgetTooSmall {
                budget: 2,
                links: 3
            })
        ));
    }

    #[test]
    fn budget_dual_stops_early_on_perfect_links() {
        let tree = star_tree(&[0.0, 0.0]);
        let plan = optimize_budget(&tree, 100).unwrap();
        // No point sending more than one message over perfect links.
        assert_eq!(plan.total_messages(), 2);
        assert_eq!(plan.reach(), 1.0);
        assert_eq!(optimize_budget_greedy(&tree, 100).unwrap(), plan);
    }

    #[test]
    fn duality_of_the_two_problems() {
        // Lemma 3: solving the dual with the primal's cost yields the
        // primal's reach (and vice versa).
        let tree = tree_with_lambdas();
        let primal = optimize(&tree, 0.99).unwrap();
        let dual = optimize_budget(&tree, primal.total_messages()).unwrap();
        assert!(dual.reach() >= 0.99);
        assert_eq!(dual.total_messages(), primal.total_messages());
    }
}
