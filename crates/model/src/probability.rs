//! Validated probability values.

use core::fmt;
use core::ops::{Mul, Not};

use crate::ModelError;

/// A probability — a finite `f64` in `[0, 1]`.
///
/// The paper manipulates crash probabilities `P_i`, loss probabilities
/// `L_x` and reliabilities such as `(1-P_u)(1-L_{u,v})(1-P_v)`. Wrapping
/// them in a validated newtype keeps those quantities from being confused
/// with arbitrary floats and rules out NaN/out-of-range values at the API
/// boundary ([C-NEWTYPE], [C-VALIDATE]).
///
/// `Probability` implements `Mul` (joint probability of independent
/// events) and `Not` (complement), the two operations the paper's formulas
/// are built from.
///
/// # Example
///
/// ```
/// use diffuse_model::Probability;
///
/// # fn main() -> Result<(), diffuse_model::ModelError> {
/// let loss = Probability::new(0.05)?;
/// let delivery = !loss; // complement
/// assert!((delivery.value() - 0.95).abs() < 1e-12);
///
/// // Probability that two independent deliveries both succeed.
/// let both = delivery * delivery;
/// assert!((both.value() - 0.9025).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

impl Probability {
    /// The impossible event.
    pub const ZERO: Probability = Probability(0.0);

    /// The certain event.
    pub const ONE: Probability = Probability(1.0);

    /// Creates a probability from a raw value.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbability`] when `value` is NaN,
    /// infinite, negative, or greater than one.
    pub fn new(value: f64) -> Result<Self, ModelError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Probability(value))
        } else {
            Err(ModelError::InvalidProbability(value))
        }
    }

    /// Creates a probability, clamping out-of-range finite values into
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN. Use [`Probability::new`] for fully
    /// fallible construction.
    pub fn clamped(value: f64) -> Self {
        assert!(!value.is_nan(), "probability must not be NaN");
        Probability(value.clamp(0.0, 1.0))
    }

    /// Returns the raw value in `[0, 1]`.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the complement `1 - p`.
    #[must_use]
    pub fn complement(self) -> Self {
        Probability(1.0 - self.0)
    }

    /// Returns `true` iff this is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Raises the probability to an integer power (probability that `n`
    /// independent trials all occur).
    #[must_use]
    pub fn powi(self, n: i32) -> Self {
        // lint:allow(det-pow): Probability::powi is the shared primitive itself; plan derivation goes through pow_det, whose equivalence to this is pinned by tests.
        Probability::clamped(self.0.powi(n))
    }

    /// Returns the larger of two probabilities.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two probabilities.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Mul for Probability {
    type Output = Probability;

    fn mul(self, rhs: Self) -> Self::Output {
        // The product of two values in [0,1] stays in [0,1]; clamp guards
        // against round-off drift just below zero or above one.
        Probability::clamped(self.0 * rhs.0)
    }
}

impl Not for Probability {
    type Output = Probability;

    fn not(self) -> Self::Output {
        self.complement()
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<f64> for Probability {
    type Error = ModelError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Probability::new(value)
    }
}

impl From<Probability> for f64 {
    fn from(p: Probability) -> Self {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_accepts_unit_interval() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(0.5).is_ok());
        assert!(Probability::new(1.0).is_ok());
    }

    #[test]
    fn new_rejects_out_of_range_values() {
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    Probability::new(bad),
                    Err(ModelError::InvalidProbability(_))
                ),
                "expected rejection of {bad}"
            );
        }
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Probability::clamped(-3.0), Probability::ZERO);
        assert_eq!(Probability::clamped(42.0), Probability::ONE);
        assert_eq!(Probability::clamped(0.25).value(), 0.25);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn clamped_panics_on_nan() {
        let _ = Probability::clamped(f64::NAN);
    }

    #[test]
    fn complement_and_not_agree() {
        let p = Probability::new(0.3).unwrap();
        assert_eq!(p.complement(), !p);
        assert!(((!p).value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn multiplication_is_joint_probability() {
        let p = Probability::new(0.5).unwrap();
        let q = Probability::new(0.4).unwrap();
        assert!(((p * q).value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn min_max_order_correctly() {
        let lo = Probability::new(0.2).unwrap();
        let hi = Probability::new(0.8).unwrap();
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    fn conversions_round_trip() {
        let p = Probability::try_from(0.75).unwrap();
        assert_eq!(f64::from(p), 0.75);
    }

    proptest! {
        #[test]
        fn prop_product_stays_in_unit_interval(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let p = Probability::new(a).unwrap() * Probability::new(b).unwrap();
            prop_assert!((0.0..=1.0).contains(&p.value()));
        }

        #[test]
        fn prop_double_complement_is_identity(a in 0.0f64..=1.0) {
            let p = Probability::new(a).unwrap();
            prop_assert!((p.complement().complement().value() - a).abs() < 1e-12);
        }

        #[test]
        fn prop_powi_monotone_decreasing(a in 0.0f64..1.0, n in 1i32..6) {
            let p = Probability::new(a).unwrap();
            // lint:allow(det-pow): property test exercising Probability::powi itself.
            prop_assert!(p.powi(n + 1).value() <= p.powi(n).value() + 1e-15);
        }
    }
}
