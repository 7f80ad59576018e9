//! The `reach` function (Eq. 1 and Eq. 2 of the paper).

use diffuse_model::ProcessId;

use crate::ReliabilityTree;

/// Per-link message counts `m⃗`, indexed by tree link index.
///
/// `m⃗[j]` is the number of copies of the broadcast message that cross the
/// tree link leading to process `p_j`. The paper's optimization starts
/// from the all-ones vector and increments entries greedily.
///
/// The total `c(m⃗)` is cached and maintained incrementally, so
/// [`MessageVector::total`] is `O(1)` — the optimizer and the adaptive
/// protocol query it on every planning step.
///
/// # Example
///
/// ```
/// use diffuse_core::MessageVector;
///
/// let mut m = MessageVector::ones(3);
/// m.increment(1);
/// assert_eq!(m.counts(), &[1, 2, 1]);
/// assert_eq!(m.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageVector {
    counts: Vec<u32>,
    /// Cached `Σ_j counts[j]`; kept in sync by every mutation.
    total: u64,
}

impl MessageVector {
    /// The paper's initial minimal solution `(1, 1, …, 1)`.
    pub fn ones(links: usize) -> Self {
        MessageVector {
            counts: vec![1; links],
            total: links as u64,
        }
    }

    /// Builds a vector from explicit counts.
    pub fn from_counts(counts: Vec<u32>) -> Self {
        let total = counts.iter().map(|&m| m as u64).sum();
        MessageVector { counts, total }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` for the empty vector (singleton tree).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Count for link index `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn get(&self, j: usize) -> u32 {
        self.counts[j]
    }

    /// All counts, by link index.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Adds one message to link index `j` (the greedy step `m⃗ + u⃗_j`).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn increment(&mut self, j: usize) {
        self.counts[j] += 1;
        self.total += 1;
    }

    /// Total messages `c(m⃗) = Σ_j m⃗[j]` — the paper's cost function.
    ///
    /// `O(1)`: reads the cached running sum.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Deterministic `base^exp` by binary exponentiation.
///
/// `f64::powi` documents *non-deterministic precision* (it may differ
/// across platforms and toolchains), which is unacceptable here: every
/// receiver of a wire tree must re-derive bit-identical message plans
/// (Algorithm 1, line 9), and the closed-form waterfilling solver must
/// agree bit-for-bit with the greedy. This fixed square-and-multiply
/// sequence uses only IEEE-754 multiplications, so it is reproducible
/// everywhere — and `O(log exp)`, which the threshold solver relies on to
/// evaluate gains at arbitrary message counts.
pub fn pow_det(base: f64, mut exp: u32) -> f64 {
    let mut acc = 1.0f64;
    let mut square = base;
    while exp > 0 {
        if exp & 1 == 1 {
            acc *= square;
        }
        exp >>= 1;
        if exp > 0 {
            square *= square;
        }
    }
    acc
}

/// Probability that at least one of `m` transmissions with per-copy
/// failure probability `lambda` gets through: `1 - λ^m`.
pub fn link_success(lambda: f64, m: u32) -> f64 {
    1.0 - pow_det(lambda, m)
}

/// The `reach` function in its iterative form (Eq. 2):
/// `reach(T, m⃗) = Π_j (1 - λ_j^{m⃗[j]})`.
///
/// # Panics
///
/// Panics if `m.len() != tree.link_count()`.
pub fn reach(tree: &ReliabilityTree, m: &MessageVector) -> f64 {
    assert_eq!(
        m.len(),
        tree.link_count(),
        "message vector must cover every tree link"
    );
    tree.lambdas()
        .iter()
        .zip(m.counts())
        .map(|(&lambda, &mj)| link_success(lambda, mj))
        .product()
}

/// The `reach` function in its recursive form (Eq. 1), computed by
/// walking the subtree rooted at `root`.
///
/// For the whole tree call it with `tree.root()`; the paper's
/// `reach(T_i, m⃗_i)` for a subtree corresponds to passing that subtree's
/// root. Leaves yield 1 (`reach(⊥, 0⃗) = 1`).
///
/// Exists alongside [`reach`] to mirror the paper faithfully and to
/// cross-check the two forms in tests; both always agree.
///
/// Implemented with an explicit worklist rather than call recursion: the
/// recursion depth of the naive transcription equals the tree height, and
/// a degenerate chain (one process per level) overflows the stack long
/// before realistic system sizes are reached.
///
/// # Panics
///
/// Panics if `m.len() != tree.link_count()` or `root` is not in the tree.
pub fn reach_recursive(tree: &ReliabilityTree, m: &MessageVector, root: ProcessId) -> f64 {
    assert_eq!(
        m.len(),
        tree.link_count(),
        "message vector must cover every tree link"
    );
    let root = tree
        .position(root)
        .expect("reach_recursive root must be in the tree");
    // Eq. 1 unfolds to Π over every link of the subtree below `root`:
    // each child contributes `(1 - λ_j^{m_j}) · reach(T_j)`, so walking
    // the subtree once and multiplying the per-link success of every
    // visited child is exactly the recursive product, evaluated
    // iteratively (pre-order) instead of on the call stack. Link `j`
    // leads into position `j + 1`.
    let mut product = 1.0;
    let mut stack = vec![root];
    while let Some(at) = stack.pop() {
        for j in tree.links_below(at) {
            product *= link_success(tree.lambda(j), m.get(j));
            stack.push(j + 1);
        }
    }
    product
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{chain_tree, star_tree, tree_with_lambdas};

    #[test]
    fn message_vector_basics() {
        let m = MessageVector::ones(0);
        assert!(m.is_empty());
        assert_eq!(m.total(), 0);

        let mut m = MessageVector::from_counts(vec![2, 1, 3]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(2), 3);
        m.increment(0);
        assert_eq!(m.counts(), &[3, 1, 3]);
        assert_eq!(m.total(), 7);
    }

    #[test]
    fn cached_total_tracks_every_mutation() {
        // The O(1) total must stay equal to the freshly-summed counts
        // through construction and increments.
        let mut m = MessageVector::from_counts(vec![4, 1, 9, 2]);
        for j in [0, 2, 2, 3, 1, 0, 2] {
            m.increment(j);
            let fresh: u64 = m.counts().iter().map(|&c| c as u64).sum();
            assert_eq!(m.total(), fresh);
        }
        assert_eq!(MessageVector::ones(5).total(), 5);
        assert_eq!(MessageVector::from_counts(vec![]).total(), 0);
    }

    #[test]
    fn pow_det_matches_naive_products() {
        for base in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let mut naive = 1.0f64;
            for exp in 0..64u32 {
                let fast = pow_det(base, exp);
                assert!(
                    (fast - naive).abs() <= 1e-13 * naive.abs().max(1e-300),
                    "pow_det({base}, {exp}) = {fast}, naive = {naive}"
                );
                naive *= base;
            }
        }
        assert_eq!(pow_det(0.3, 0), 1.0);
        assert_eq!(pow_det(0.3, 1), 0.3);
    }

    #[test]
    fn link_success_formula() {
        assert_eq!(link_success(0.0, 1), 1.0);
        assert_eq!(link_success(1.0, 5), 0.0);
        assert!((link_success(0.5, 3) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn reach_on_single_link() {
        let tree = chain_tree(&[0.2]);
        let m = MessageVector::ones(1);
        assert!((reach(&tree, &m) - 0.8).abs() < 1e-12);
        let m = MessageVector::from_counts(vec![2]);
        assert!((reach(&tree, &m) - 0.96).abs() < 1e-12);
    }

    #[test]
    fn reach_multiplies_across_links() {
        // Chain of three links with distinct λ.
        let tree = chain_tree(&[0.1, 0.2, 0.3]);
        let m = MessageVector::ones(3);
        assert!((reach(&tree, &m) - 0.9 * 0.8 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn recursive_equals_iterative_on_chain_and_star() {
        for tree in [chain_tree(&[0.1, 0.2, 0.3]), star_tree(&[0.05, 0.5, 0.9])] {
            let m = MessageVector::from_counts(vec![1, 2, 3]);
            let a = reach(&tree, &m);
            let b = reach_recursive(&tree, &m, tree.root());
            assert!((a - b).abs() < 1e-12, "iterative {a} recursive {b}");
        }
    }

    #[test]
    fn reach_of_perfect_tree_is_one() {
        let tree = star_tree(&[0.0, 0.0]);
        let m = MessageVector::ones(2);
        assert_eq!(reach(&tree, &m), 1.0);
    }

    #[test]
    fn reach_with_dead_link_is_zero() {
        let tree = chain_tree(&[0.0, 1.0]);
        let m = MessageVector::from_counts(vec![1, 100]);
        assert_eq!(reach(&tree, &m), 0.0);
    }

    #[test]
    fn reach_is_monotone_in_message_counts() {
        let tree = tree_with_lambdas();
        let mut m = MessageVector::ones(tree.link_count());
        let mut last = reach(&tree, &m);
        for j in 0..tree.link_count() {
            m.increment(j);
            let next = reach(&tree, &m);
            assert!(next >= last, "adding a message must not reduce reach");
            last = next;
        }
    }

    #[test]
    fn recursive_survives_a_10k_deep_chain() {
        // Regression: the naive transcription of Eq. 1 recursed once per
        // tree level and overflowed the stack on deep chains. The
        // explicit-worklist form must handle a 10 000-link chain and
        // still agree with the iterative product.
        let lambdas = vec![0.001f64; 10_000];
        let tree = chain_tree(&lambdas);
        let m = MessageVector::ones(tree.link_count());
        let a = reach(&tree, &m);
        let b = reach_recursive(&tree, &m, tree.root());
        assert!((a - b).abs() < 1e-9, "iterative {a} recursive {b}");
        assert!(a > 0.0);
    }

    #[test]
    #[should_panic(expected = "message vector")]
    fn reach_rejects_wrong_vector_length() {
        let tree = chain_tree(&[0.1, 0.2]);
        let _ = reach(&tree, &MessageVector::ones(1));
    }
}
