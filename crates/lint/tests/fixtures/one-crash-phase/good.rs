// lint-fixture: crates/sim/src/engine.rs
//! The engine's crash phase (the sanctioned call site), next to an
//! unrelated `advance`.

fn phase_one(crash: &mut CrashState, model: &CrashModel, rng: &mut StdRng, buf: &mut Bytes) {
    let _ = crash.advance(model, rng);
    buf.advance(4);
}
