//! Closed-form threshold ("waterfilling") solver for Algorithm 2.
//!
//! The greedy of `optimize.rs` pays one heap operation and one power
//! evaluation per *message increment*, so planning cost scales with the
//! total message count — painful on lossy trees where plans run to many
//! thousands of copies, and exactly the path every adaptive broadcaster
//! re-runs on each belief update (Algorithm 1, line 9).
//!
//! Because the per-link gain `α(λ, m) = (1 − λ^{m+1})/(1 − λ^m)` is
//! non-increasing in `m`, the greedy's first `t` increments are exactly
//! the `t` globally largest gains: every greedy prefix is characterized
//! by a single gain threshold `g`. For any `g > 1` the number of
//! increments of a λ-link with gain above `g` has a closed form
//! (`λ^m > (g−1)/(g−λ)` ⟺ `m < log((g−1)/(g−λ)) / log λ`), so a whole
//! prefix is computable without simulating a single step. The solver
//! binary-searches the threshold and finishes with an exact greedy tail
//! over the boundary increments, so plans are **bit-identical** to the
//! reference greedy:
//!
//! * gains are evaluated by the same pure function (`gain`, built on the
//!   deterministic `pow_det`), so both solvers see the same `f64` values;
//! * the closed-form count is only a log-space *estimate*, always
//!   corrected by walking the exact gain sequence until the strict
//!   `gain > g` boundary is found (including plateaus where consecutive
//!   gains round to the same float);
//! * the bisection's reach predicate is conservative: a prefix is only
//!   classified as falling short of the target when it is short by a
//!   margin far wider than any floating-point discrepancy, so the tail
//!   never *starts* past the optimum — and the tail itself stops on the
//!   same exact-reach predicate as the greedy, with the greedy's own
//!   heap and tie-breaking.
//!
//! Links sharing the same λ are collapsed into classes (uniform-loss
//! configurations collapse to a single class), and `ln λ` is cached per
//! class, so a threshold probe costs `O(classes)` — the whole solve is
//! `O(L log L)` and independent of the total message count.

use crate::optimize::{preflight, MessagePlan, MAX_INCREMENTS, REACH_EPS, RECOMPUTE_EVERY};
use crate::reach::{link_success, pow_det, reach};
use crate::{gain, CoreError, MessageVector, ReliabilityTree};

/// Bisection iteration cap; in practice the count-gap break below fires
/// after a handful of probes. The cap only guards degenerate floats.
const MAX_BISECTIONS: u32 = 128;

/// Stop bisecting once the bracket is known to contain at most this many
/// increments beyond one threshold tie-group: the exact tail is cheaper
/// than further probes.
const TAIL_BUDGET: u64 = 64;

/// Beyond this many distinct λ values the cursor tail's linear winner
/// scans lose to a heap: the tail switches from `O(classes)` scans to a
/// per-class [`std::collections::BinaryHeap`] keyed on the same
/// `(gain, link index)` order, so the advance sequence — and therefore
/// the plan — is bit-identical either way.
const MAX_CURSOR_CLASSES: usize = 32;

/// Conservative classification margin for the bisection's reach
/// predicate. The per-class reach product can differ from the canonical
/// link-ordered product by a few ULPs (~1e-13 relative); classifying a
/// prefix as *failing* only when it is short by this much guarantees the
/// greedy tail never starts beyond the optimum. Borderline prefixes land
/// on the success side, which merely lengthens the (exact) tail.
const CLASS_MARGIN: f64 = 1e-9;

/// Upper clamp for per-link counts while probing thresholds, safely above
/// both `MAX_INCREMENTS` and any count a `u32` vector can hold.
const COUNT_CLAMP: u64 = u32::MAX as u64 - 1;

/// Number of increments of a λ-link whose gain strictly exceeds `g`
/// (requires `g > 1`): `max { m ≥ 1 : α(λ, m) > g }`, or 0 if even the
/// first increment is not worth it.
///
/// `ln_lambda` is the caller-cached `λ.ln()`. A log-space closed form
/// lands within a step or two of the boundary; the exact strict boundary
/// is then found by walking the true gain sequence, so the result is
/// exact with respect to `gain()`'s `f64` values.
fn increments_above(lambda: f64, ln_lambda: f64, g: f64) -> u64 {
    debug_assert!(g > 1.0, "threshold must exceed the neutral gain");
    if lambda <= 0.0 || lambda >= 1.0 {
        return 0; // gain is identically 1: never above g
    }
    // α(λ, m) > g  ⟺  λ^m (g − λ) > g − 1  ⟺  λ^m > (g−1)/(g−λ).
    let t = (g - 1.0) / (g - lambda);
    let est = (t.ln() / ln_lambda).floor();
    let mut m = if est.is_finite() && est > 0.0 {
        (est as u64).min(COUNT_CLAMP)
    } else {
        0
    };
    // Correct the estimate against the exact (rounded) gain sequence.
    while m < COUNT_CLAMP && gain(lambda, (m + 1) as u32) > g {
        m += 1;
    }
    while m > 0 && gain(lambda, m as u32) <= g {
        m -= 1;
    }
    m
}

/// Links grouped by identical λ: a threshold probe is `O(classes)`, and
/// uniform-loss trees (the common fixture) collapse to one class.
struct LambdaClasses {
    /// Distinct λ values.
    lambda: Vec<f64>,
    /// Cached `λ.ln()` per class.
    ln_lambda: Vec<f64>,
    /// Links per class.
    multiplicity: Vec<u32>,
    /// Link index → class index.
    class_of: Vec<u32>,
    /// Link indices per class, ascending — the greedy's tie-break order.
    links: Vec<Vec<u32>>,
}

/// One threshold probe: per-class increment counts, their link-weighted
/// total, and the (class-product) reach of the resulting prefix.
struct Probe {
    above: Vec<u64>,
    total_increments: u64,
    reach: f64,
}

impl LambdaClasses {
    fn build(lambdas: &[f64]) -> Self {
        let mut classes = LambdaClasses {
            lambda: Vec::new(),
            ln_lambda: Vec::new(),
            multiplicity: Vec::new(),
            class_of: vec![0; lambdas.len()],
            links: Vec::new(),
        };
        // Uniform configurations are the common case; skip the sort.
        if lambdas.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()) {
            if let Some(&l) = lambdas.first() {
                classes.lambda.push(l);
                classes.ln_lambda.push(l.ln());
                classes.multiplicity.push(lambdas.len() as u32);
                classes.links.push((0..lambdas.len() as u32).collect());
            }
            return classes;
        }
        let mut order: Vec<u32> = (0..lambdas.len() as u32).collect();
        order.sort_unstable_by_key(|&j| lambdas[j as usize].to_bits());
        for &j in &order {
            let l = lambdas[j as usize];
            if classes.lambda.last().map(|p| p.to_bits()) != Some(l.to_bits()) {
                classes.lambda.push(l);
                classes.ln_lambda.push(l.ln());
                classes.multiplicity.push(0);
            }
            let class = classes.lambda.len() - 1;
            classes.multiplicity[class] += 1;
            classes.class_of[j as usize] = class as u32;
        }
        // Per-class link lists in ascending index order.
        classes.links = vec![Vec::new(); classes.lambda.len()];
        for (j, &class) in classes.class_of.iter().enumerate() {
            classes.links[class as usize].push(j as u32);
        }
        classes
    }

    /// Largest first-increment gain any class offers — the bisection's
    /// upper bracket (its prefix is the all-ones vector).
    fn max_first_gain(&self) -> f64 {
        self.lambda.iter().map(|&l| gain(l, 1)).fold(1.0, f64::max)
    }

    fn probe(&self, g: f64) -> Probe {
        let mut total_increments = 0u64;
        let mut r = 1.0f64;
        let above: Vec<u64> = self
            .lambda
            .iter()
            .zip(&self.ln_lambda)
            .zip(&self.multiplicity)
            .map(|((&lambda, &ln_lambda), &mult)| {
                let m = increments_above(lambda, ln_lambda, g);
                total_increments += m * mult as u64;
                r *= pow_det(
                    link_success(lambda, (1 + m).min(COUNT_CLAMP + 1) as u32),
                    mult,
                );
                m
            })
            .collect();
        Probe {
            above,
            total_increments,
            reach: r,
        }
    }

    /// Expands a probe into the per-link count vector of its prefix.
    fn counts(&self, probe: &Probe) -> MessageVector {
        let counts: Vec<u32> = self
            .class_of
            .iter()
            .map(|&class| (1 + probe.above[class as usize]).min(COUNT_CLAMP + 1) as u32)
            .collect();
        MessageVector::from_counts(counts)
    }

    /// The all-ones probe (threshold at or above every gain).
    fn ones_probe(&self) -> Probe {
        Probe {
            above: vec![0; self.lambda.len()],
            total_increments: 0,
            reach: f64::NAN, // never consulted: preflight proved it short
        }
    }
}

/// Bracket mechanics of the threshold search, shared by the reach-target
/// and exact-count solvers.
///
/// Bisects `u = ln(g − 1)`: per-class counts are roughly linear in `u`,
/// so the bracket's increment gap collapses geometrically instead of by
/// ULPs. Low `u` (g barely above 1) is the many-messages side, high `u`
/// the few-messages side.
struct ThresholdBisection {
    u_lo: f64,
    u_hi: f64,
    mid: f64,
    remaining: u32,
}

impl ThresholdBisection {
    fn new(g_max: f64) -> Self {
        ThresholdBisection {
            u_lo: f64::EPSILON.ln(), // smallest representable g > 1
            u_hi: (g_max - 1.0).max(f64::MIN_POSITIVE).ln(),
            mid: f64::NAN,
            remaining: MAX_BISECTIONS,
        }
    }

    /// The next threshold to probe, or `None` once the bracket is
    /// ULP-tight (or floats degenerate).
    fn next_g(&mut self) -> Option<f64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.mid = 0.5 * (self.u_lo + self.u_hi);
        if self.mid <= self.u_lo || self.mid >= self.u_hi {
            return None;
        }
        let g = 1.0 + self.mid.exp();
        (g > 1.0).then_some(g)
    }

    /// The probed prefix had at least as many increments as needed:
    /// search toward fewer messages.
    fn prefix_sufficient(&mut self) {
        self.u_lo = self.mid;
    }

    /// The probed prefix fell short: search toward more messages.
    fn prefix_short(&mut self) {
        self.u_hi = self.mid;
    }
}

/// The exact greedy prefix after `target` increments: threshold bisection
/// on the increment count, then a heap tail distributing the remainder in
/// greedy order (ties by link index). Stops early if every remaining gain
/// is ≤ 1 (nothing left worth sending).
fn counts_at_total(tree: &ReliabilityTree, target: u64) -> MessageVector {
    let classes = LambdaClasses::build(tree.lambdas());
    let g_max = classes.max_first_gain();
    let mut best = classes.ones_probe();
    if g_max > 1.0 {
        let mut bisection = ThresholdBisection::new(g_max);
        while let Some(g) = bisection.next_g() {
            let probe = classes.probe(g);
            if probe.total_increments > target {
                bisection.prefix_sufficient();
            } else {
                let tail_is_cheap = target - probe.total_increments <= TAIL_BUDGET;
                best = probe;
                bisection.prefix_short();
                if tail_is_cheap {
                    break;
                }
            }
        }
    }
    let mut m = classes.counts(&best);
    let mut taken = best.total_increments;
    // Distribute the boundary remainder exactly as the greedy would.
    let mut heap: std::collections::BinaryHeap<_> = (0..m.len())
        .map(|j| crate::optimize::Candidate::fresh(tree.lambda(j), m.get(j), j))
        .collect();
    while taken < target {
        let Some(best) = heap.pop() else { break };
        if best.gain() <= 1.0 {
            break;
        }
        let j = best.index();
        m.increment(j);
        heap.push(best.successor(tree.lambda(j), m.get(j)));
        taken += 1;
    }
    m
}

/// `O(L log L)` waterfilling form of [`crate::optimize`] (Algorithm 2):
/// binary-searches the gain threshold characterizing the optimal plan and
/// finishes with an exact greedy step over the boundary increments.
///
/// Produces plans **bit-identical** to the paper's increment-at-a-time
/// greedy (the test-only reference in `optimize.rs`) — a protocol
/// requirement, since every receiver of a wire tree must re-derive the
/// sender's exact plan — while the cost is independent of the total
/// message count.
///
/// # Errors
///
/// Same contract as [`crate::optimize`].
pub fn optimize_waterfill(tree: &ReliabilityTree, k: f64) -> Result<MessagePlan, CoreError> {
    if let Some(plan) = preflight(tree, k)? {
        return Ok(plan);
    }
    let classes = LambdaClasses::build(tree.lambdas());
    let g_max = classes.max_first_gain();

    // Low u is the reaches-the-target side (more messages), high u the
    // falls-short side (fewer). `g_max`'s prefix is the all-ones vector,
    // which preflight just proved falls short; the count-gap break fires
    // after a handful of probes.
    let mut best_short = classes.ones_probe();
    if g_max > 1.0 {
        let tail_budget =
            TAIL_BUDGET + classes.multiplicity.iter().copied().max().unwrap_or(0) as u64;
        let mut bisection = ThresholdBisection::new(g_max);
        let mut success_increments: Option<u64> = None;
        while let Some(g) = bisection.next_g() {
            let probe = classes.probe(g);
            // Conservative split: only clearly-short prefixes go to the
            // fail side (see CLASS_MARGIN).
            if probe.reach + REACH_EPS >= k - CLASS_MARGIN {
                success_increments = Some(probe.total_increments);
                bisection.prefix_sufficient();
            } else {
                best_short = probe;
                bisection.prefix_short();
            }
            if let Some(n) = success_increments {
                if n.saturating_sub(best_short.total_increments) <= tail_budget {
                    break; // the exact tail is cheaper than more probes
                }
            }
        }
    }

    if best_short.total_increments > MAX_INCREMENTS {
        // The greedy would exhaust its increment budget strictly before
        // reaching this prefix; reproduce its exact error state.
        let at_cap = counts_at_total(tree, MAX_INCREMENTS + 1);
        return Err(CoreError::TargetUnreachable {
            best_reach: reach(tree, &at_cap),
        });
    }
    // The boundary tail: the bracket increments, walked in exact greedy
    // order with the greedy's exact-reach stopping rule.
    let m = classes.counts(&best_short);
    class_cursor_tail(
        tree,
        &classes,
        m,
        &best_short.above,
        best_short.total_increments,
        k,
    )
}

/// The boundary tail, specialized to λ-classes: every link of a class at
/// the same count offers the same gain, so the greedy's `(gain, index)`
/// order over the bracket reduces to per-class cursors — the max-gain
/// class advances its current link, cross-class gain ties resolve by
/// that link's index, and each advance costs one multiply instead of a
/// heap rotation.
///
/// Gain *plateaus* (consecutive counts whose gains round to the same
/// `f64`) are handled exactly, not by falling back to the heap: within
/// a plateau every increment of a link re-offers the same top gain, so
/// the heap — popping the smallest index among equals — **drills** the
/// class's lowest-index link through the whole plateau before touching
/// the next link. The cursor models this directly: `links[..drilled]`
/// sit at the plateau's `bottom` count, `links[drilled]` is mid-drill at
/// `cur_count`, and the rest remain at `level`; when every link reaches
/// `bottom` the class rolls to the next (plateau-collapsed) level.
///
/// Past [`MAX_CURSOR_CLASSES`] distinct λ values the winner is selected
/// from a per-class max-heap instead of a linear scan. Each class keeps
/// exactly one live heap entry — its current head `(gain, link)` —
/// popped to advance and re-pushed afterwards (with the possibly-new
/// head) while its gain exceeds 1. The heap's [`ClassHead`] order is the
/// scan's winner predicate verbatim, so both selectors produce the same
/// advance sequence and the same bits.
fn class_cursor_tail(
    tree: &ReliabilityTree,
    classes: &LambdaClasses,
    mut m: MessageVector,
    above: &[u64],
    increments_so_far: u64,
    k: f64,
) -> Result<MessagePlan, CoreError> {
    let mut r = reach(tree, &m);
    if r + REACH_EPS >= k {
        return Ok(MessagePlan::new(m, r));
    }
    struct Cursor {
        /// Count of the class's not-yet-drilled links.
        level: u32,
        /// First count past the current gain plateau: the smallest
        /// `b > level` with `gain(λ, b)` rounding to different bits
        /// than `gain(λ, level)`.
        bottom: u32,
        /// Links already drilled to `bottom` (a prefix in index order).
        drilled: u32,
        /// The mid-drill count of `links[drilled]`, in
        /// `[level, bottom)`.
        cur_count: u32,
        /// The plateau gain `gain(λ, level)` — exactly what every
        /// advance in the plateau yields.
        gain: f64,
    }
    /// First count past the plateau starting at `level` (callers ensure
    /// `g = gain(λ, level) > 1`, so the walk terminates: gains are
    /// non-increasing towards 1).
    fn plateau_bottom(lambda: f64, level: u32, g: f64) -> u32 {
        let mut b = level.saturating_add(1);
        while b < u32::MAX && gain(lambda, b).to_bits() == g.to_bits() {
            b += 1;
        }
        b
    }
    let mut cursors: Vec<Cursor> = classes
        .lambda
        .iter()
        .zip(above)
        .map(|(&lambda, &a)| {
            let level = (1 + a).min(COUNT_CLAMP) as u32;
            let g = gain(lambda, level);
            Cursor {
                level,
                bottom: if g > 1.0 {
                    plateau_bottom(lambda, level, g)
                } else {
                    level + 1
                },
                drilled: 0,
                cur_count: level,
                gain: g,
            }
        })
        .collect();
    /// A class's current head in the many-classes heap: the winner
    /// predicate of the linear scan as a max-heap order — larger gain
    /// first (`total_cmp`, matching the scan's comparator bit-for-bit),
    /// gain ties broken by the *smaller* current link index.
    struct ClassHead {
        gain: f64,
        link: u32,
        class: u32,
    }
    impl Ord for ClassHead {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.gain
                .total_cmp(&other.gain)
                .then_with(|| other.link.cmp(&self.link))
        }
    }
    impl PartialOrd for ClassHead {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for ClassHead {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for ClassHead {}
    let head_of = |cursors: &[Cursor], classes: &LambdaClasses, i: usize| ClassHead {
        gain: cursors[i].gain,
        link: classes.links[i][cursors[i].drilled as usize],
        class: i as u32,
    };
    // One live entry per class with gain > 1; `None` below the class cap
    // (the linear scan is faster there).
    let mut heap: Option<std::collections::BinaryHeap<ClassHead>> =
        (classes.lambda.len() > MAX_CURSOR_CLASSES).then(|| {
            cursors
                .iter()
                .enumerate()
                .filter(|(_, c)| c.gain > 1.0)
                .map(|(i, _)| head_of(&cursors, classes, i))
                .collect()
        });
    let mut increments = increments_so_far;
    let mut trigger = k - REACH_EPS;
    loop {
        let winner: Option<usize> = if let Some(heap) = heap.as_mut() {
            heap.pop().map(|head| head.class as usize)
        } else {
            let mut winner: Option<usize> = None;
            for (i, c) in cursors.iter().enumerate() {
                if c.gain <= 1.0 {
                    continue;
                }
                winner = match winner {
                    None => Some(i),
                    Some(w) => {
                        let cw = &cursors[w];
                        match c.gain.total_cmp(&cw.gain) {
                            std::cmp::Ordering::Greater => Some(i),
                            std::cmp::Ordering::Equal
                                if classes.links[i][c.drilled as usize]
                                    < classes.links[w][cw.drilled as usize] =>
                            {
                                Some(i)
                            }
                            _ => Some(w),
                        }
                    }
                };
            }
            winner
        };
        let Some(w) = winner else {
            // No link can improve the reach any further.
            return Err(CoreError::TargetUnreachable {
                best_reach: reach(tree, &m),
            });
        };
        let lambda = classes.lambda[w];
        let cur = &mut cursors[w];
        let link = classes.links[w][cur.drilled as usize] as usize;
        m.increment(link);
        r *= cur.gain;
        cur.cur_count += 1;
        if cur.cur_count == cur.bottom {
            // This link cleared the plateau; the next one starts
            // drilling from `level`.
            cur.drilled += 1;
            cur.cur_count = cur.level;
            if cur.drilled as usize == classes.links[w].len() {
                // Whole class drilled: roll to the next plateau.
                cur.level = cur.bottom;
                cur.drilled = 0;
                cur.cur_count = cur.level;
                cur.gain = gain(lambda, cur.level);
                if cur.gain > 1.0 {
                    cur.bottom = plateau_bottom(lambda, cur.level, cur.gain);
                }
            }
        }
        if let Some(heap) = heap.as_mut() {
            // Re-offer the class's (possibly new) head; classes whose
            // gain decays to ≤ 1 leave the heap for good — gains are
            // non-increasing, so they can never win again.
            if cursors[w].gain > 1.0 {
                heap.push(head_of(&cursors, classes, w));
            }
        }
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

/// `O(L log L)` waterfilling form of [`crate::optimize_budget`] (Eq. 5):
/// spends exactly `budget` messages (or stops early once no link offers
/// any gain), bit-identical to the reference budget greedy (test-only,
/// in `optimize.rs`).
///
/// # Errors
///
/// Same contract as [`crate::optimize_budget`].
pub fn optimize_budget_waterfill(
    tree: &ReliabilityTree,
    budget: u64,
) -> Result<MessagePlan, CoreError> {
    let links = tree.link_count();
    if budget < links as u64 {
        return Err(CoreError::BudgetTooSmall { budget, links });
    }
    let m = counts_at_total(tree, budget - links as u64);
    let r = reach(tree, &m);
    Ok(MessagePlan::new(m, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::spec::{optimize_budget_greedy, optimize_greedy};
    use crate::tests_support::{chain_tree, star_tree, tree_with_lambdas};

    #[test]
    fn increments_above_matches_the_exact_definition() {
        for lambda in [0.05, 0.3, 0.5, 0.9, 0.99] {
            for g in [1.0001, 1.01, 1.1, 1.5, 1.9] {
                let fast = increments_above(lambda, lambda.ln(), g);
                // Exact definition: walk the gain sequence from m = 1.
                let mut slow = 0u64;
                while gain(lambda, (slow + 1) as u32) > g {
                    slow += 1;
                }
                assert_eq!(fast, slow, "λ={lambda}, g={g}");
            }
        }
        assert_eq!(increments_above(0.0, f64::NEG_INFINITY, 1.5), 0);
        assert_eq!(increments_above(1.0, 0.0, 1.5), 0);
    }

    #[test]
    fn classes_group_identical_lambdas() {
        let classes = LambdaClasses::build(&[0.3, 0.1, 0.3, 0.3, 0.1, 0.0]);
        assert_eq!(classes.lambda.len(), 3);
        let total: u32 = classes.multiplicity.iter().sum();
        assert_eq!(total, 6);
        // Every link maps back to its own λ.
        for (j, &l) in [0.3, 0.1, 0.3, 0.3, 0.1, 0.0].iter().enumerate() {
            assert_eq!(classes.lambda[classes.class_of[j] as usize], l);
        }
    }

    #[test]
    fn threshold_prefixes_are_greedy_prefixes() {
        // counts_at_total(t) must equal the greedy's state after exactly
        // t increments, for every t along a real run.
        let tree = tree_with_lambdas();
        let final_plan = optimize_greedy(&tree, 0.99999).unwrap();
        let total = final_plan.total_messages() - tree.link_count() as u64;
        for t in 0..=total {
            let m = counts_at_total(&tree, t);
            assert_eq!(
                m.total(),
                tree.link_count() as u64 + t,
                "prefix at t={t} has the wrong size"
            );
            // A greedy prefix must be dominated by the final plan.
            for j in 0..tree.link_count() {
                assert!(
                    m.get(j) <= final_plan.count(j),
                    "prefix at t={t} overshoots link {j}"
                );
            }
        }
        assert_eq!(counts_at_total(&tree, total), final_plan.vector().clone());
    }

    #[test]
    fn waterfill_matches_greedy_on_the_fixed_matrix() {
        for (tree, k) in [
            (chain_tree(&[0.3, 0.2]), 0.9),
            (chain_tree(&[0.5, 0.5, 0.5]), 0.85),
            (star_tree(&[0.1, 0.4, 0.25]), 0.95),
            (star_tree(&[0.01, 0.5, 0.01]), 0.99),
            (star_tree(&[0.07; 12]), 0.9999),
            (tree_with_lambdas(), 0.9),
            (tree_with_lambdas(), 0.9999),
            (tree_with_lambdas(), 0.999999),
            (chain_tree(&[0.9, 0.9, 0.9, 0.9]), 0.999),
            (star_tree(&[0.0, 0.3, 0.0]), 0.99),
        ] {
            let fast = optimize_waterfill(&tree, k).unwrap();
            let slow = optimize_greedy(&tree, k).unwrap();
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn waterfill_matches_greedy_on_heavy_plans() {
        // A lossy chain at an extreme target forces tens of thousands of
        // increments — the regime the threshold solver exists for.
        let tree = chain_tree(&[0.97, 0.5, 0.99, 0.8]);
        let fast = optimize_waterfill(&tree, 0.999999).unwrap();
        let slow = optimize_greedy(&tree, 0.999999).unwrap();
        assert_eq!(fast, slow);
        assert!(fast.total_messages() > 100);
    }

    #[test]
    fn budget_waterfill_matches_greedy_across_budgets() {
        let tree = tree_with_lambdas();
        let links = tree.link_count() as u64;
        for budget in links..links + 2000 {
            let fast = optimize_budget_waterfill(&tree, budget).unwrap();
            let slow = optimize_budget_greedy(&tree, budget).unwrap();
            assert_eq!(fast, slow, "budget={budget}");
        }
    }

    #[test]
    fn budget_waterfill_handles_perfect_and_dead_links() {
        // λ = 0 and λ = 1 links offer no gain; both solvers must park a
        // single message there and stop early.
        for lambdas in [&[0.0, 0.3, 0.0][..], &[1.0, 0.3][..], &[0.0][..]] {
            let tree = star_tree(lambdas);
            for budget in [lambdas.len() as u64, 10, 100] {
                if budget < lambdas.len() as u64 {
                    continue;
                }
                let fast = optimize_budget_waterfill(&tree, budget).unwrap();
                let slow = optimize_budget_greedy(&tree, budget).unwrap();
                assert_eq!(fast, slow, "λ={lambdas:?}, budget={budget}");
            }
        }
    }

    #[test]
    fn cursor_drills_gain_plateaus_bit_identically() {
        // λ → 1 at an extreme target drives per-link counts deep enough
        // that consecutive gains round to the same f64 — the plateau
        // regime that used to force the per-link heap fallback. The
        // cursor must reproduce the heap's drill order exactly.
        let lambdas = [0.99, 0.99, 0.9];
        let k = 1.0 - 1e-12;
        let tree = star_tree(&lambdas);
        let fast = optimize_waterfill(&tree, k).unwrap();
        let slow = optimize_greedy(&tree, k).unwrap();
        assert_eq!(fast, slow);
        // The fixture is not vacuous: somewhere inside the distributed
        // counts two consecutive gains round to the same f64.
        let hit_plateau = (0..tree.link_count()).any(|j| {
            let (lambda, c) = (tree.lambda(j), fast.count(j));
            (1..c).any(|m| gain(lambda, m).to_bits() == gain(lambda, m + 1).to_bits())
        });
        assert!(
            hit_plateau,
            "fixture must exercise a gain plateau: {fast:?}"
        );
    }

    #[test]
    fn cursor_handles_mixed_plateau_classes() {
        // Several identical-λ classes plus a distinct one, deep targets:
        // cross-class ties and within-class drills interleave.
        for (lambdas, k) in [
            (&[0.97, 0.97, 0.5][..], 0.999999999),
            (&[0.995, 0.995, 0.995, 0.995][..], 1.0 - 1e-11),
            (&[0.99, 0.9][..], 1.0 - 1e-12),
        ] {
            let tree = star_tree(lambdas);
            match (optimize_waterfill(&tree, k), optimize_greedy(&tree, k)) {
                (Ok(f), Ok(s)) => assert_eq!(f, s, "λ={lambdas:?} k={k}"),
                (
                    Err(CoreError::TargetUnreachable { best_reach: a }),
                    Err(CoreError::TargetUnreachable { best_reach: b }),
                ) => {
                    assert_eq!(a.to_bits(), b.to_bits())
                }
                other => panic!("solver disagreement: {other:?}"),
            }
        }
    }

    #[test]
    fn heap_tail_matches_greedy_past_the_class_cap() {
        // 40 distinct λ values — well past MAX_CURSOR_CLASSES — so the
        // boundary tail runs on the per-class heap, not the linear scan.
        let lambdas: Vec<f64> = (0..40).map(|i| 0.02 + 0.023 * f64::from(i)).collect();
        assert!(
            LambdaClasses::build(&lambdas).lambda.len() > MAX_CURSOR_CLASSES,
            "fixture must exceed the cursor class cap"
        );
        for k in [0.5, 0.9, 0.999] {
            for tree in [star_tree(&lambdas), chain_tree(&lambdas[..34])] {
                let fast = optimize_waterfill(&tree, k).unwrap();
                let slow = optimize_greedy(&tree, k).unwrap();
                assert_eq!(fast, slow, "k={k}");
            }
        }
    }

    proptest::proptest! {
        /// Bit-identity to the reference greedy survives the switch to
        /// the per-class heap: 33+ λ classes drawn from disjoint
        /// intervals (distinctness guaranteed by construction), random
        /// reach targets.
        #[test]
        fn prop_heap_tail_is_bit_identical_past_the_class_cap(
            fracs in proptest::collection::vec(0.05f64..0.95, 33..44),
            k in 0.5f64..0.999999,
        ) {
            let n = fracs.len() as f64;
            let lambdas: Vec<f64> = fracs
                .iter()
                .enumerate()
                .map(|(i, f)| (i as f64 + f) / n)
                .collect();
            let classes = LambdaClasses::build(&lambdas);
            proptest::prop_assert!(classes.lambda.len() > MAX_CURSOR_CLASSES);
            let tree = star_tree(&lambdas);
            match (optimize_waterfill(&tree, k), optimize_greedy(&tree, k)) {
                (Ok(f), Ok(s)) => proptest::prop_assert_eq!(f, s),
                (
                    Err(CoreError::TargetUnreachable { best_reach: a }),
                    Err(CoreError::TargetUnreachable { best_reach: b }),
                ) => proptest::prop_assert_eq!(a.to_bits(), b.to_bits()),
                other => panic!("solver disagreement: {other:?}"),
            }
        }
    }

    #[test]
    fn waterfill_error_paths_match_the_greedy() {
        let tree = chain_tree(&[0.1, 1.0]);
        let fast = optimize_waterfill(&tree, 0.9);
        let slow = optimize_greedy(&tree, 0.9);
        match (fast, slow) {
            (
                Err(CoreError::TargetUnreachable { best_reach: a }),
                Err(CoreError::TargetUnreachable { best_reach: b }),
            ) => assert_eq!(a, b),
            other => panic!("expected matching unreachable errors, got {other:?}"),
        }
        assert!(matches!(
            optimize_waterfill(&chain_tree(&[0.1]), 1.5),
            Err(CoreError::InvalidTarget(_))
        ));
    }
}
