// lint-fixture: crates/core/src/honest_path.rs
//! Honest construction, plus a sanctioned forge site with a reason.

pub fn my_own_knowledge() -> Offer {
    Estimate::first_hand(16).offer()
}

pub fn scripted_lie() -> Offer {
    // lint:allow(adversary-forge): scripted liar inside an adversarial test.
    Offer::forged(0, 4, Distortion::ZERO)
}
