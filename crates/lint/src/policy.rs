//! The per-crate determinism policy.
//!
//! Three classes of code exist in this workspace:
//!
//! * **Deterministic** — the algorithm, estimator, and simulation
//!   crates, plus the wire codec (`crates/net/src/codec.rs`, an
//!   exact-file override). Their outputs must be a pure function of
//!   their inputs (topology, scenario, seed): senders and receivers
//!   re-derive the *same* broadcast plans, and the virtual-time fabric
//!   is the kernel with the codec's frames in flight. Iteration-order
//!   hazards (`HashMap`/`HashSet`) are banned here outright, and so is
//!   threading — one RNG stream means one thread of execution.
//! * **RelaxedDeterminism** — the sharded executor modules. They are
//!   *reproducible by construction* (per-shard RNG streams derived from
//!   the run seed, barrier-synchronized lockstep), so they may spawn
//!   scoped threads; the wall-clock and unordered-iteration bans still
//!   apply in full.
//! * **WallAware** — the deployment substrate, experiment drivers and
//!   benches. They may measure wall time through the sanctioned
//!   `crates/net/src/clock.rs` abstraction, but every *direct* wall
//!   call still needs an explicit, reasoned suppression.
//!
//! Paths that return [`None`] are not scanned at all: vendored shims
//! (stand-ins for crates.io, not this project's code) and lint test
//! fixtures (which exist to *contain* violations).

/// Which determinism class a source file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Output must be a pure function of inputs; unordered iteration
    /// and threading are banned.
    Deterministic,
    /// Deterministic by construction despite threads: per-shard seeded
    /// RNG streams and barrier lockstep. Scoped threads are allowed;
    /// wall clocks and unordered iteration stay banned.
    RelaxedDeterminism,
    /// May touch wall time via the clock abstraction; deterministic
    /// rules still apply but wall-time suppressions are expected.
    WallAware,
}

/// The deterministic crates: the paper's algorithms and everything a
/// bit-identity test relies on.
const DETERMINISTIC: &[&str] = &[
    "crates/model/",
    "crates/graph/",
    "crates/bayes/",
    "crates/sim/",
    "crates/core/",
    "crates/lint/",
];

/// The wall-clock-aware crates: deployment substrate, experiment
/// drivers, benches, and the facade's integration tests/examples.
///
/// `crates/net/` covers the whole third substrate, including its
/// chaos-injection layer (`chaos.rs`), the multi-process UDP cluster
/// (`cluster.rs`) and the soak harness (`soak.rs`): they schedule
/// real-network behavior (delay windows, handshake deadlines) and so
/// are wall-aware *by design* — but their randomness still comes from
/// seeded RNGs, and every direct wall call outside `clock.rs` still
/// needs a reasoned suppression.
/// The relaxed-determinism files: the sharded executor's thread driver,
/// reproducible by construction (per-shard seeded RNG streams, barrier
/// lockstep) yet necessarily threaded. Listed as exact files, not a
/// prefix — adding a module here is a deliberate policy decision. The
/// tick engine those threads step (`crates/sim/src/engine.rs`) is *not*
/// listed: it stays strict-deterministic (no threads, no locks).
const RELAXED_DETERMINISM: &[&str] = &["crates/sim/src/shard.rs", "crates/sim/src/shard_rng.rs"];

/// Deterministic files inside a wall-aware crate, as exact files. The
/// wire codec defines the frames the virtual-time fabric puts in flight
/// on the kernel, so `tests/fabric_conformance.rs`'s bit-identity rests
/// on it: no threads, no wall clock, no unordered iteration.
const DETERMINISTIC_FILES: &[&str] = &["crates/net/src/codec.rs"];

const WALL_AWARE: &[&str] = &[
    "crates/net/",
    "crates/experiments/",
    "crates/bench/",
    "src/",
    "tests/",
    "examples/",
    "benches/",
];

/// Classifies a workspace-relative path (`/`-separated), or `None` if
/// the file is out of scope for the lint.
pub fn classify(path: &str) -> Option<CrateClass> {
    // Fixtures deliberately contain violations; shims are vendored
    // stand-ins for crates.io code, not part of this project.
    if path.split('/').any(|c| c == "fixtures") {
        return None;
    }
    if path.starts_with("shims/") || path.starts_with("target/") {
        return None;
    }
    // Exact-file overrides come before the prefix tables: the sharded
    // executor lives inside the deterministic `crates/sim/` prefix, the
    // wire codec inside the wall-aware `crates/net/` one.
    if RELAXED_DETERMINISM.contains(&path) {
        return Some(CrateClass::RelaxedDeterminism);
    }
    if DETERMINISTIC_FILES.contains(&path) {
        return Some(CrateClass::Deterministic);
    }
    if DETERMINISTIC.iter().any(|p| path.starts_with(p)) {
        return Some(CrateClass::Deterministic);
    }
    if WALL_AWARE.iter().any(|p| path.starts_with(p)) {
        return Some(CrateClass::WallAware);
    }
    // A new crate defaults to the strict class: relaxing it is a
    // deliberate edit to this table, not an accident of omission.
    if path.starts_with("crates/") {
        return Some(CrateClass::Deterministic);
    }
    Some(CrateClass::WallAware)
}

/// True if `path` is a crate root that must carry
/// `#![forbid(unsafe_code)]` (lib roots, bin roots).
pub fn is_crate_root(path: &str) -> bool {
    if classify(path).is_none() {
        return false;
    }
    path == "src/lib.rs"
        || path == "src/main.rs"
        || (path.starts_with("crates/")
            && (path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")))
        || path.contains("/src/bin/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_table_matches_the_workspace_layout() {
        assert_eq!(
            classify("crates/core/src/adaptive.rs"),
            Some(CrateClass::Deterministic)
        );
        // The wire codec is the one deterministic file of the net crate
        // (its frames are what the virtual-time fabric runs on); every
        // other module there stays wall-aware. The chaos/cluster/soak
        // stack is so by design (real sockets, real processes) but still
        // inside the lint's scope.
        assert_eq!(
            classify("crates/net/src/codec.rs"),
            Some(CrateClass::Deterministic)
        );
        for module in [
            "chaos.rs",
            "clock.rs",
            "cluster.rs",
            "error.rs",
            "lib.rs",
            "runtime.rs",
            "scenario.rs",
            "soak.rs",
            "transport.rs",
            "udp.rs",
        ] {
            assert_eq!(
                classify(&format!("crates/net/src/{module}")),
                Some(CrateClass::WallAware)
            );
        }
        assert_eq!(
            classify("crates/net/tests/udp_cluster.rs"),
            Some(CrateClass::WallAware)
        );
        assert_eq!(
            classify("tests/net_integration.rs"),
            Some(CrateClass::WallAware)
        );
        // The sharded executor is relaxed-determinism: threaded, but
        // reproducible by construction. Its exact files only — the rest
        // of the sim crate stays strict.
        for module in ["shard.rs", "shard_rng.rs"] {
            assert_eq!(
                classify(&format!("crates/sim/src/{module}")),
                Some(CrateClass::RelaxedDeterminism)
            );
        }
        // … including the tick engine the shards drive: all tick logic
        // (phases, flush, timers, fast-forward) is single-threaded code.
        for module in ["kernel.rs", "engine.rs"] {
            assert_eq!(
                classify(&format!("crates/sim/src/{module}")),
                Some(CrateClass::Deterministic)
            );
        }
        assert_eq!(classify("shims/rand/src/lib.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/det-pow/bad.rs"), None);
        // Unknown crates land in the strict class.
        assert_eq!(
            classify("crates/future/src/lib.rs"),
            Some(CrateClass::Deterministic)
        );
    }

    #[test]
    fn crate_roots_are_lib_and_bin_roots() {
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/lint/src/main.rs"));
        assert!(is_crate_root("crates/experiments/src/bin/repro.rs"));
        assert!(!is_crate_root("crates/core/src/adaptive.rs"));
        assert!(!is_crate_root("shims/rand/src/lib.rs"));
    }
}
