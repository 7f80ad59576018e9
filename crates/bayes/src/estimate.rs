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

/// One entry of a heartbeat frame: the part of an [`Estimate`] that
/// crosses the wire — the posterior's two counts (failures and
/// successes), the distortion, and the local taint marker.
///
/// An offer has no version stamp and no interval count `U`: the version
/// is the owner's bookkeeping, and a receiver evaluates the counts at its
/// own `U`. Every receiver of a frame reads the same entries, so an offer
/// is immutable — it has no `&mut self` method (the `version-bump-audit`
/// lint enforces this). Offers are held by value in frames and in
/// receivers' mirrors, so their size is memory traffic on every mirror
/// walk: the distortion is stored unpacked, letting the taint marker
/// share its word, and an offer is a 16-byte `Copy` value.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    failures: u32,
    successes: u32,
    /// The finite distortion value; unused when `infinite`.
    finite: u32,
    infinite: bool,
    /// Set only by [`Offer::forged`]; see [`Estimate::tainted`].
    tainted: bool,
}

impl PartialEq for Offer {
    /// Equality over the offered content (counts + distortion); the
    /// local [`tainted`](Offer::tainted) marker is excluded.
    fn eq(&self, other: &Self) -> bool {
        (self.failures, self.successes) == (other.failures, other.successes)
            && self.distortion() == other.distortion()
    }
}

impl Offer {
    fn pack(failures: u32, successes: u32, distortion: Distortion, tainted: bool) -> Self {
        Offer {
            failures,
            successes,
            finite: distortion.value().unwrap_or(0),
            infinite: distortion.is_infinite(),
            tainted,
        }
    }

    /// An offer of the posterior after `failures` failures and
    /// `successes` successes, at `distortion` (e.g. decoded from the
    /// wire).
    pub fn new(failures: u32, successes: u32, distortion: Distortion) -> Self {
        Offer::pack(failures, successes, distortion, false)
    }

    /// Fabricates an offer with arbitrary counts and distortion stamp and
    /// the tainted marker set — the **adversary-only** constructor behind
    /// every lying-node corruption mode.
    ///
    /// Honest protocol code must never call this: honest offers come
    /// from [`Estimate::offer`] (or the codec's [`Offer::new`]), and
    /// relayed knowledge always passes through
    /// [`Estimate::adopt_if_better`] / [`Estimate::adopt`], which
    /// increment the distortion. The workspace lint (`adversary-forge`)
    /// confines callers to the adversary modules and tests.
    pub fn forged(failures: u32, successes: u32, distortion: Distortion) -> Self {
        Offer::pack(failures, successes, distortion, true)
    }

    /// The offered failure count.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// The offered success count.
    pub fn successes(&self) -> u32 {
        self.successes
    }

    /// The offered distortion.
    pub fn distortion(&self) -> Distortion {
        if self.infinite {
            Distortion::Infinite
        } else {
            Distortion::Finite(self.finite)
        }
    }

    /// Whether this offer descends from a [`forged`](Offer::forged) one
    /// (local-only marker; never encoded).
    pub fn tainted(&self) -> bool {
        self.tainted
    }
}

/// A reliability estimate: a Bayesian posterior plus its distortion.
///
/// This pairs the paper's belief structure (`C_k[p_i]` / `C_k[l_j]`) with
/// its distortion factor `d`. The protocol-level bookkeeping (heartbeat
/// sequence numbers, suspicion counters, timeouts) lives with the adaptive
/// protocol in `diffuse-core`; what of it is gossiped is its
/// [`Offer`].
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
/// an [`Offer`] has none, and equality excludes them.
#[derive(Debug, Clone, Default)]
pub struct Estimate {
    beliefs: BeliefEstimator,
    distortion: Distortion,
    version: u64,
    /// Set only by adopting a [`forged`](Offer::forged) offer — the
    /// adversary-engine marker. Like the version it is local
    /// bookkeeping: it never travels on the wire and is excluded from
    /// equality, but it *does* propagate through adoption, so white-box
    /// containment tests can ask whether any poisoned content survives
    /// in an honest store and at what distortion.
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

    /// The Bayesian posterior over the failure probability.
    pub fn beliefs(&self) -> &BeliefEstimator {
        &self.beliefs
    }

    /// How eroded this posterior is.
    pub fn distortion(&self) -> Distortion {
        self.distortion
    }

    /// Whether this estimate's content descends from a
    /// [`forged`](Offer::forged) offer (local-only marker; see the field
    /// docs).
    pub fn tainted(&self) -> bool {
        self.tainted
    }

    /// Monotone mutation counter: strictly increases across any sequence
    /// of mutations of this estimate. Two reads returning the same value
    /// guarantee the counts and distortion are unchanged in between.
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

    /// What this estimate puts in a heartbeat frame: its counts,
    /// distortion and taint.
    pub fn offer(&self) -> Offer {
        Offer::pack(
            self.beliefs.failures(),
            self.beliefs.successes(),
            self.distortion,
            self.tainted,
        )
    }

    /// Algorithm 3, `selectBestEstimate`: if `theirs` is strictly less
    /// distorted than `self`, adopt it and increment the distortion (the
    /// adopted copy is second-hand). Returns `true` if adopted.
    ///
    /// The version is bumped only when the adoption actually changes the
    /// counts or the distortion — re-adopting an identical offer (the
    /// steady state for entries reachable through several equally
    /// distorted neighbors) is a value no-op and must not masquerade as a
    /// change, or delta heartbeats would re-gossip the whole converged
    /// view forever.
    // lint:allow(version-bump-audit): mutates only through `adopt`, which bumps.
    pub fn adopt_if_better(&mut self, theirs: &Offer) -> bool {
        let better = theirs.distortion() < self.distortion;
        if better {
            self.adopt(theirs);
        }
        better
    }

    /// Adopts `theirs` unconditionally, incrementing distortion — used for
    /// links freshly learned from a neighbor (Algorithm 4, lines 30–32).
    /// The counts are evaluated at this estimate's own interval count.
    /// Same value-change version rule as [`Estimate::adopt_if_better`].
    pub fn adopt(&mut self, theirs: &Offer) {
        let beliefs = self.beliefs.with_counts(theirs.failures, theirs.successes);
        let distortion = theirs.distortion().incremented();
        if self.distortion != distortion || self.beliefs != beliefs {
            self.version += 1;
        }
        self.beliefs = beliefs;
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

        assert!(mine.adopt_if_better(&theirs.offer()));
        // Adopted copy is second-hand: distortion 0 + 1.
        assert_eq!(mine.distortion(), Distortion::finite(1));
        assert_eq!(mine.beliefs(), theirs.beliefs());
    }

    #[test]
    fn adopt_if_better_keeps_equal_or_better() {
        let mut mine = Estimate::first_hand(10);
        mine.beliefs_mut().increase_reliability(1);
        let kept = mine.clone();

        // Equal distortion: keep ours (strict inequality in Algorithm 3).
        let other = Estimate::first_hand(10).offer();
        assert!(!mine.adopt_if_better(&other));
        assert_eq!(mine, kept);

        // Worse distortion: keep ours.
        let worse = Estimate::unknown(10).offer();
        assert!(!mine.adopt_if_better(&worse));
        assert_eq!(mine, kept);
    }

    #[test]
    fn self_estimate_always_wins_over_relayed() {
        // The paper: "having the distortion factor C_j[p_j].d = 0
        // guarantees that the estimate of p_j concerning its own
        // reliability will always be adopted by p_k".
        let mut relayed = Estimate::unknown(10);
        relayed.adopt(&Offer::new(0, 0, Distortion::ZERO));
        assert_eq!(relayed.distortion(), Distortion::finite(1));
        let self_estimate = Estimate::first_hand(10);
        assert!(relayed.adopt_if_better(&self_estimate.offer()));
    }

    #[test]
    fn unconditional_adopt_increments_distortion() {
        let mut mine = Estimate::first_hand(5);
        mine.adopt(&Offer::new(0, 0, Distortion::finite(7)));
        assert_eq!(mine.distortion(), Distortion::finite(8));
    }

    #[test]
    fn infinite_never_improves_by_adopting_infinite() {
        let mut mine = Estimate::unknown(5);
        let theirs = Estimate::unknown(5).offer();
        assert!(!mine.adopt_if_better(&theirs));
        assert!(mine.distortion().is_infinite());
    }

    /// Counts carry no resolution: an offer is evaluated at the adopter's
    /// own `U`, whatever resolution its sender holds.
    #[test]
    fn offers_are_evaluated_at_the_adopters_resolution() {
        let mut coarse = Estimate::first_hand(5);
        coarse.beliefs_mut().decrease_reliability(4);
        coarse.beliefs_mut().increase_reliability(9);
        let mut fine = Estimate::unknown(100);
        assert!(fine.adopt_if_better(&coarse.offer()));
        assert_eq!(fine.beliefs().intervals(), 100);
        assert_eq!(
            (fine.beliefs().failures(), fine.beliefs().successes()),
            (4, 9)
        );
        assert_eq!(fine.offer(), Offer::new(4, 9, Distortion::finite(1)));
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
        let better = Estimate::first_hand(5).offer();
        assert!(e.adopt_if_better(&better));
        assert!(e.version() > v2);
        let v3 = e.version();
        assert!(!e.adopt_if_better(&Estimate::unknown(5).offer()));
        assert_eq!(e.version(), v3);

        e.adopt(&Estimate::unknown(5).offer());
        assert!(e.version() > v3);
    }

    #[test]
    fn adoption_moves_the_version_only_when_counts_change() {
        let mut source = Estimate::first_hand(8);
        source.beliefs_mut().decrease_reliability(2);
        let offer = source.offer();

        let mut mine = Estimate::unknown(8);
        assert!(mine.adopt_if_better(&offer));
        let v = mine.version();
        // Re-adopting the same content — the same offer, or an equal one
        // decoded from the wire — is a value no-op: adopted, version
        // unmoved.
        assert!(mine.adopt_if_better(&offer));
        assert_eq!(mine.version(), v);
        assert!(mine.adopt_if_better(&Offer::new(2, 0, Distortion::ZERO)));
        assert_eq!(mine.version(), v);
        mine.adopt(&offer);
        assert_eq!(mine.version(), v);

        // Different counts at the same distortion do move it.
        let mut other = Estimate::first_hand(8);
        other.beliefs_mut().increase_reliability(2);
        mine.adopt(&other.offer());
        assert!(mine.version() > v);
    }

    #[test]
    fn forged_offers_carry_and_propagate_taint() {
        // lint:allow(adversary-forge): testing the adversary constructor itself.
        let poison = Offer::forged(0, 0, Distortion::ZERO);
        assert!(poison.tainted());
        assert_eq!(poison.distortion(), Distortion::ZERO);
        // Taint is excluded from equality.
        assert_eq!(poison, Estimate::first_hand(10).offer());

        // Adoption carries the taint into the adopting store, one hop
        // more distorted — the containment bound under test everywhere.
        let mut victim = Estimate::unknown(10);
        assert!(victim.adopt_if_better(&poison));
        assert!(victim.tainted());
        assert_eq!(victim.distortion(), Distortion::finite(1));
        // ... and into what the victim offers onward.
        assert!(victim.offer().tainted());

        // Re-adopting honest content washes the taint back out.
        let honest = Estimate::first_hand(10).offer();
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
        assert!(!Offer::new(0, 0, Distortion::finite(2)).tainted());
        assert!(!Estimate::first_hand(4).offer().tainted());
    }

    #[test]
    fn offers_carry_counts_distortion_and_taint() {
        // lint:allow(adversary-forge): a tainted source shows taint is kept.
        let poison = Offer::forged(1, 5, Distortion::finite(1));
        let mut source = Estimate::unknown(10);
        source.adopt(&poison);
        source.beliefs_mut().decrease_reliability(3);
        let offer = source.offer();
        assert_eq!((offer.failures(), offer.successes()), (4, 5));
        assert_eq!(offer.distortion(), source.distortion());
        assert!(offer.tainted());
    }

    /// An adopted offer undoes a decrease exactly, as its source does.
    #[test]
    fn adopted_offers_undo_exactly() {
        let mut source = Estimate::first_hand(50);
        source.beliefs_mut().increase_reliability(10);
        source.beliefs_mut().decrease_reliability(3);
        let mut adopted = Estimate::unknown(50);
        assert!(adopted.adopt_if_better(&source.offer()));
        adopted.beliefs_mut().undo_decrease(3);
        source.beliefs_mut().undo_decrease(3);
        let mut expected = BeliefEstimator::new(50);
        expected.increase_reliability(10);
        assert_eq!(adopted.beliefs(), &expected);
        assert_eq!(source.beliefs(), &expected);
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
