// lint-fixture: crates/core/src/honest_path.rs
//! An honest protocol path fabricating a distortion stamp.

pub fn sneak_perfect_knowledge() -> Offer {
    Offer::forged(0, 4, Distortion::ZERO)
}
