// lint-fixture: crates/sim/src/shard.rs
//! A thread driver growing its own copy of the tick's crash phase.

fn step_local(nodes: &mut [Node], model: &CrashModel, rng: &mut StdRng) {
    for node in nodes.iter_mut() {
        if let Some(downtime) = node.crash.advance(model, rng) {
            node.recovered(downtime);
        }
    }
    let _ = CrashState::advance(&mut nodes[0].crash, model, rng);
}
