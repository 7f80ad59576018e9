//! Distortion-ranked estimates and best-estimate selection (Algorithm 3).

use core::fmt;

use crate::BeliefEstimator;

/// How eroded an estimate is, by distance and staleness.
///
/// The paper (Section 4.2) attaches a *distortion factor* to every
/// estimate: the minimum value is the network distance between the
/// observer and the estimated entity, and the factor grows while no fresh
/// news arrives. Estimates start at [`Distortion::Infinite`] — a process
/// initially knows nothing about remote entities — and a process's
/// knowledge of *itself* is always [`Distortion::ZERO`].
///
/// `Distortion` orders naturally: lower is better, and `Infinite` is worse
/// than every finite value.
///
/// # Example
///
/// ```
/// use diffuse_bayes::Distortion;
///
/// assert!(Distortion::ZERO < Distortion::finite(3));
/// assert!(Distortion::finite(3) < Distortion::Infinite);
/// assert_eq!(Distortion::finite(3).incremented(), Distortion::finite(4));
/// assert_eq!(Distortion::Infinite.incremented(), Distortion::Infinite);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Distortion {
    /// A finite distortion value; smaller is more accurate.
    Finite(u32),
    /// No information at all (the initial state for remote processes).
    Infinite,
}

impl Distortion {
    /// Perfect, first-hand knowledge (a process about itself, or a direct
    /// link observation).
    pub const ZERO: Distortion = Distortion::Finite(0);

    /// Creates a finite distortion.
    pub const fn finite(value: u32) -> Self {
        Distortion::Finite(value)
    }

    /// The distortion after one more hop or one more silent timeout
    /// period; saturates at `u32::MAX` and leaves `Infinite` unchanged.
    #[must_use]
    pub fn incremented(self) -> Self {
        match self {
            Distortion::Finite(v) => Distortion::Finite(v.saturating_add(1)),
            Distortion::Infinite => Distortion::Infinite,
        }
    }

    /// Returns the finite value, or `None` for `Infinite`.
    pub fn value(self) -> Option<u32> {
        match self {
            Distortion::Finite(v) => Some(v),
            Distortion::Infinite => None,
        }
    }

    /// Returns `true` for `Infinite`.
    pub fn is_infinite(self) -> bool {
        matches!(self, Distortion::Infinite)
    }
}

impl Default for Distortion {
    /// The default is `Infinite`: no knowledge until evidence arrives.
    fn default() -> Self {
        Distortion::Infinite
    }
}

impl fmt::Display for Distortion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distortion::Finite(v) => write!(f, "{v}"),
            Distortion::Infinite => write!(f, "∞"),
        }
    }
}

/// A reliability estimate: a Bayesian posterior plus its distortion.
///
/// This pairs the paper's belief structure (`C_k[p_i]` / `C_k[l_j]`) with
/// its distortion factor `d`. The protocol-level bookkeeping (heartbeat
/// sequence numbers, suspicion counters, timeouts) lives with the adaptive
/// protocol in `diffuse-core`; this type is the portable, gossiped part.
///
/// Every estimate carries a monotone [`version`](Estimate::version)
/// stamp, bumped by **any** mutation of the beliefs or the distortion —
/// the fields are private, and the only mutation paths
/// ([`beliefs_mut`](Estimate::beliefs_mut),
/// [`set_distortion`](Estimate::set_distortion),
/// [`adopt_if_better`](Estimate::adopt_if_better),
/// [`adopt`](Estimate::adopt)) bump it. The adaptive protocol's delta
/// heartbeats use the version to detect which entries of a knowledge
/// view changed since the last emission. Versions are local bookkeeping:
/// they never travel on the wire and are excluded from equality.
#[derive(Debug, Clone, Default)]
pub struct Estimate {
    beliefs: BeliefEstimator,
    distortion: Distortion,
    version: u64,
    /// Set only by [`Estimate::forged`] — the adversary-engine marker.
    /// Like the version it is local bookkeeping: it never travels on the
    /// wire and is excluded from equality, but it *does* propagate
    /// through adoption, so white-box containment tests can ask whether
    /// any poisoned content survives in an honest store and at what
    /// distortion.
    tainted: bool,
}

impl PartialEq for Estimate {
    /// Equality over the gossiped content (beliefs + distortion); the
    /// local [`version`](Estimate::version) stamp and the
    /// [`tainted`](Estimate::tainted) marker are excluded.
    fn eq(&self, other: &Self) -> bool {
        self.beliefs == other.beliefs && self.distortion == other.distortion
    }
}

impl Estimate {
    /// A fresh estimate with `intervals` intervals and infinite distortion
    /// (how remote processes start out — Algorithm 4, lines 2–4).
    pub fn unknown(intervals: usize) -> Self {
        Estimate {
            beliefs: BeliefEstimator::new(intervals),
            distortion: Distortion::Infinite,
            version: 0,
            tainted: false,
        }
    }

    /// A first-hand estimate with `intervals` intervals and zero
    /// distortion (self-knowledge and direct links — Algorithm 4, lines
    /// 8–12).
    pub fn first_hand(intervals: usize) -> Self {
        Estimate {
            beliefs: BeliefEstimator::new(intervals),
            distortion: Distortion::ZERO,
            version: 0,
            tainted: false,
        }
    }

    /// Assembles an estimate from its parts (e.g. decoded from the wire),
    /// at version 0.
    pub fn from_parts(beliefs: BeliefEstimator, distortion: Distortion) -> Self {
        Estimate {
            beliefs,
            distortion,
            version: 0,
            tainted: false,
        }
    }

    /// Fabricates an estimate with an arbitrary distortion stamp and the
    /// tainted marker set — the **adversary-only** constructor behind
    /// every lying-node corruption mode.
    ///
    /// Honest protocol code must never call this: first-hand knowledge
    /// comes from [`Estimate::first_hand`] and relayed knowledge always
    /// passes through [`Estimate::adopt_if_better`] /
    /// [`Estimate::adopt`], which increment the distortion. The
    /// workspace lint (`adversary-forge`) confines callers to the
    /// adversary modules and tests.
    pub fn forged(beliefs: BeliefEstimator, distortion: Distortion) -> Self {
        Estimate {
            beliefs,
            distortion,
            version: 0,
            tainted: true,
        }
    }

    /// The Bayesian posterior over the failure probability.
    pub fn beliefs(&self) -> &BeliefEstimator {
        &self.beliefs
    }

    /// How eroded this posterior is.
    pub fn distortion(&self) -> Distortion {
        self.distortion
    }

    /// Whether this estimate's content descends from a
    /// [`forged`](Estimate::forged) one (local-only marker; see the
    /// field docs).
    pub fn tainted(&self) -> bool {
        self.tainted
    }

    /// Monotone mutation counter: strictly increases across any sequence
    /// of mutations of this estimate. Two reads returning the same value
    /// guarantee the beliefs and distortion are bitwise unchanged in
    /// between.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Mutable access to the posterior. Taking the reference counts as a
    /// mutation: the version is bumped unconditionally (a spurious bump
    /// only costs a redundant delta entry, never correctness).
    pub fn beliefs_mut(&mut self) -> &mut BeliefEstimator {
        self.version += 1;
        &mut self.beliefs
    }

    /// Replaces the distortion, bumping the version if it actually
    /// changes.
    pub fn set_distortion(&mut self, distortion: Distortion) {
        if self.distortion != distortion {
            self.distortion = distortion;
            self.version += 1;
        }
    }

    /// A copy of this estimate — beliefs, distortion, version and taint —
    /// that shares the belief storage but leaves out the estimator's undo
    /// checkpoint, which only its owner's
    /// [`undo_decrease`](BeliefEstimator::undo_decrease) can use.
    pub fn shared(&self) -> Estimate {
        Estimate {
            beliefs: self.beliefs.share(),
            ..*self
        }
    }

    /// Algorithm 3, `selectBestEstimate`: if `theirs` is strictly less
    /// distorted than `self`, adopt it and increment the distortion (the
    /// adopted copy is second-hand). Returns `true` if adopted.
    ///
    /// Adoption is cheap: the belief vector is shared copy-on-write, and
    /// the source's undo checkpoint stays behind.
    /// The version is bumped only when the adoption actually changes the
    /// stored bits — re-adopting an identical estimate (the steady state
    /// for entries reachable through several equally distorted
    /// neighbors) is a value no-op and must not masquerade as a change,
    /// or delta heartbeats would re-gossip the whole converged view
    /// forever.
    pub fn adopt_if_better(&mut self, theirs: &Estimate) -> bool {
        if theirs.distortion < self.distortion {
            let distortion = theirs.distortion.incremented();
            if self.distortion != distortion || !self.beliefs.bits_eq(&theirs.beliefs) {
                self.version += 1;
            }
            self.beliefs = theirs.beliefs.share();
            self.distortion = distortion;
            self.tainted = theirs.tainted;
            true
        } else {
            false
        }
    }

    /// Adopts `theirs` unconditionally, incrementing distortion — used for
    /// links freshly learned from a neighbor (Algorithm 4, lines 30–32).
    /// Same value-change version rule as [`Estimate::adopt_if_better`].
    pub fn adopt(&mut self, theirs: &Estimate) {
        let distortion = theirs.distortion.incremented();
        if self.distortion != distortion || !self.beliefs.bits_eq(&theirs.beliefs) {
            self.version += 1;
        }
        self.beliefs = theirs.beliefs.share();
        self.distortion = distortion;
        self.tainted = theirs.tainted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distortion_ordering_matches_paper_semantics() {
        assert!(Distortion::ZERO < Distortion::finite(1));
        assert!(Distortion::finite(7) < Distortion::finite(8));
        assert!(Distortion::finite(u32::MAX) < Distortion::Infinite);
        assert_eq!(Distortion::default(), Distortion::Infinite);
    }

    #[test]
    fn distortion_increment_saturates() {
        assert_eq!(
            Distortion::finite(u32::MAX).incremented(),
            Distortion::finite(u32::MAX)
        );
        assert_eq!(Distortion::Infinite.incremented(), Distortion::Infinite);
    }

    #[test]
    fn distortion_value_and_display() {
        assert_eq!(Distortion::finite(4).value(), Some(4));
        assert_eq!(Distortion::Infinite.value(), None);
        assert!(Distortion::Infinite.is_infinite());
        assert_eq!(Distortion::finite(4).to_string(), "4");
        assert_eq!(Distortion::Infinite.to_string(), "∞");
    }

    #[test]
    fn adopt_if_better_takes_less_distorted() {
        let mut mine = Estimate::unknown(10);
        let mut theirs = Estimate::first_hand(10);
        theirs.beliefs_mut().decrease_reliability(3);

        assert!(mine.adopt_if_better(&theirs));
        // Adopted copy is second-hand: distortion 0 + 1.
        assert_eq!(mine.distortion(), Distortion::finite(1));
        assert_eq!(mine.beliefs(), theirs.beliefs());
        // Shared storage until someone mutates.
        assert!(mine.beliefs().shares_storage_with(theirs.beliefs()));
    }

    #[test]
    fn adopt_if_better_keeps_equal_or_better() {
        let mut mine = Estimate::first_hand(10);
        mine.beliefs_mut().increase_reliability(1);
        let kept = mine.clone();

        // Equal distortion: keep ours (strict inequality in Algorithm 3).
        let other = Estimate::first_hand(10);
        assert!(!mine.adopt_if_better(&other));
        assert_eq!(mine, kept);

        // Worse distortion: keep ours.
        let worse = Estimate::unknown(10);
        assert!(!mine.adopt_if_better(&worse));
        assert_eq!(mine, kept);
    }

    #[test]
    fn self_estimate_always_wins_over_relayed() {
        // The paper: "having the distortion factor C_j[p_j].d = 0
        // guarantees that the estimate of p_j concerning its own
        // reliability will always be adopted by p_k".
        let mut relayed = Estimate::from_parts(BeliefEstimator::new(10), Distortion::finite(1));
        let self_estimate = Estimate::first_hand(10);
        assert!(relayed.adopt_if_better(&self_estimate));
    }

    #[test]
    fn unconditional_adopt_increments_distortion() {
        let mut mine = Estimate::first_hand(5);
        let theirs = Estimate::from_parts(BeliefEstimator::new(5), Distortion::finite(7));
        mine.adopt(&theirs);
        assert_eq!(mine.distortion(), Distortion::finite(8));
    }

    #[test]
    fn infinite_never_improves_by_adopting_infinite() {
        let mut mine = Estimate::unknown(5);
        let theirs = Estimate::unknown(5);
        assert!(!mine.adopt_if_better(&theirs));
        assert!(mine.distortion().is_infinite());
    }

    #[test]
    fn version_moves_on_every_mutation_path() {
        let mut e = Estimate::first_hand(5);
        assert_eq!(e.version(), 0);

        e.beliefs_mut().decrease_reliability(1);
        let v1 = e.version();
        assert!(v1 > 0);

        // A no-op distortion write does not bump.
        e.set_distortion(Distortion::ZERO);
        assert_eq!(e.version(), v1);
        e.set_distortion(Distortion::finite(3));
        assert!(e.version() > v1);

        // Adoption bumps only when something is adopted.
        let v2 = e.version();
        let better = Estimate::first_hand(5);
        assert!(e.adopt_if_better(&better));
        assert!(e.version() > v2);
        let v3 = e.version();
        assert!(!e.adopt_if_better(&Estimate::unknown(5)));
        assert_eq!(e.version(), v3);

        e.adopt(&Estimate::unknown(5));
        assert!(e.version() > v3);
    }

    #[test]
    fn forged_estimates_carry_and_propagate_taint() {
        // lint:allow(adversary-forge): testing the adversary constructor itself.
        let poison = Estimate::forged(BeliefEstimator::new(10), Distortion::ZERO);
        assert!(poison.tainted());
        assert_eq!(poison.distortion(), Distortion::ZERO);
        assert_eq!(poison.version(), 0);
        // Taint is excluded from equality, like the version stamp.
        assert_eq!(poison, Estimate::first_hand(10));

        // Adoption carries the taint into the adopting store, one hop
        // more distorted — the containment bound under test everywhere.
        let mut victim = Estimate::unknown(10);
        assert!(victim.adopt_if_better(&poison));
        assert!(victim.tainted());
        assert_eq!(victim.distortion(), Distortion::finite(1));

        // Re-adopting honest content washes the taint back out.
        let honest = Estimate::first_hand(10);
        assert!(victim.adopt_if_better(&honest));
        assert!(!victim.tainted());

        let mut relearned = Estimate::unknown(10);
        relearned.adopt(&poison);
        assert!(relearned.tainted());
        relearned.adopt(&honest);
        assert!(!relearned.tainted());
    }

    #[test]
    fn honest_constructors_are_untainted() {
        assert!(!Estimate::unknown(4).tainted());
        assert!(!Estimate::first_hand(4).tainted());
        assert!(!Estimate::from_parts(BeliefEstimator::new(4), Distortion::finite(2)).tainted());
    }

    #[test]
    fn shared_copies_keep_bits_distortion_version_and_taint() {
        // lint:allow(adversary-forge): a tainted source shows taint is kept.
        let mut source = Estimate::forged(BeliefEstimator::new(10), Distortion::finite(2));
        source.beliefs_mut().decrease_reliability(3);
        let copy = source.shared();
        assert!(copy.beliefs().bits_eq(source.beliefs()));
        assert!(copy.beliefs().shares_storage_with(source.beliefs()));
        assert_eq!(copy.distortion(), source.distortion());
        assert_eq!(copy.version(), source.version());
        assert!(copy.tainted());
    }

    /// The source's checkpoint covers the source's own decrease: an
    /// adopter or a shared copy undoing the same factor divides it out
    /// numerically, as an estimator decoded from those bits would.
    #[test]
    fn copies_undo_numerically_not_from_the_source_checkpoint() {
        let mut source = Estimate::first_hand(50);
        source.beliefs_mut().increase_reliability(10);
        source.beliefs_mut().decrease_reliability(3);
        let mut numeric =
            BeliefEstimator::from_beliefs(source.beliefs().beliefs().to_vec()).unwrap();
        numeric.undo_decrease(3);

        let mut adopted = Estimate::unknown(50);
        assert!(adopted.adopt_if_better(&source));
        let mut learned = Estimate::unknown(50);
        learned.adopt(&source);
        for mut e in [adopted, learned, source.shared()] {
            e.beliefs_mut().undo_decrease(3);
            assert!(e.beliefs().bits_eq(&numeric));
        }
        // The source itself still restores its snapshot bit-exactly.
        let mut expected = BeliefEstimator::new(50);
        expected.increase_reliability(10);
        source.beliefs_mut().undo_decrease(3);
        assert!(source.beliefs().bits_eq(&expected));
    }

    #[test]
    fn equality_ignores_the_version_stamp() {
        let mut a = Estimate::first_hand(8);
        let b = Estimate::first_hand(8);
        // Bump a's version without changing its content.
        a.set_distortion(Distortion::finite(1));
        a.set_distortion(Distortion::ZERO);
        assert!(a.version() > b.version());
        assert_eq!(a, b);
    }
}
