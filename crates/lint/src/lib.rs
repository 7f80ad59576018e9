//! `diffuse-lint`: static enforcement of the workspace's determinism
//! invariants.
//!
//! The value of this reproduction rests on bit-identical re-derivation:
//! receivers recompute the exact broadcast plans senders computed
//! (`pow_det`), every executor consumes the tick engine's RNG streams
//! in one fixed order, and delta views are provably equivalent to full
//! views. Those invariants are easy to break with one stray
//! `Instant::now`, an ambient RNG, or a `HashMap` iteration — so this
//! crate checks them statically, as a test (`self_lint`), a CI gate,
//! and a CLI (`cargo run -p diffuse-lint -- check`, or `repro lint`).
//!
//! The scanner is a comment/string-aware lexer ([`lexer`]) feeding a
//! rule engine ([`rules`]) governed by a per-crate policy table
//! ([`policy`]). Violations can be suppressed per site or per file with
//! a mandatory-reason pragma ([`pragma`]):
//!
//! ```text
//! // lint:allow(no-wall-clock): wall throughput is the measurement
//! // lint:allow-file(det-pow): closed-form paper figures, never re-derived
//! ```
//!
//! Rules: `no-wall-clock`, `no-ambient-rng`, `no-unordered-iteration`,
//! `no-threading`,
//! `det-pow`, `codec-tag-coverage`, `version-bump-audit`,
//! `adversary-forge`, `one-crash-phase`, `crate-hygiene` — see [`rules::RULES`] and the
//! README's "Static analysis & determinism invariants" section.

#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod lexer;
pub mod policy;
pub mod pragma;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diagnostics::Diagnostic;
pub use rules::check_sources;

/// Directory names never descended into during source discovery.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "fixtures", "node_modules"];

/// Runs the full check over a workspace rooted at `root`: discovers
/// `.rs` sources, applies the policy table, and returns sorted
/// diagnostics.
///
/// # Errors
///
/// Propagates I/O errors from directory walking or file reads.
pub fn run_check(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let content = fs::read_to_string(&path)?;
        sources.push((rel, content));
    }
    Ok(check_sources(&sources))
}

/// Ascends from `start` to the nearest directory that looks like this
/// workspace's root (has `Cargo.toml` and a `crates/` directory).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_a_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint").is_dir());
    }

    #[test]
    fn discovery_skips_fixtures_and_shims() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let mut files = Vec::new();
        walk(&root, &mut files).unwrap();
        let has_component = |p: &PathBuf, dir: &str| p.components().any(|c| c.as_os_str() == dir);
        assert!(files.iter().all(|p| !has_component(p, "fixtures")));
        assert!(files.iter().all(|p| !has_component(p, "shims")));
        assert!(files
            .iter()
            .any(|p| p.to_string_lossy().ends_with("codec.rs")));
    }
}
