//! The rule engine: line rules, crate hygiene, and the cross-file
//! wire-invariant rules.

mod codec_tags;
mod version_bump;

use crate::diagnostics::Diagnostic;
use crate::lexer::{self, Line};
use crate::policy::{self, CrateClass};
use crate::pragma;

/// Every rule this lint knows, for pragma validation and docs.
pub const RULES: &[&str] = &[
    "no-wall-clock",
    "no-ambient-rng",
    "no-unordered-iteration",
    "no-threading",
    "det-pow",
    "batched-loss-draw",
    "codec-tag-coverage",
    "version-bump-audit",
    "adversary-forge",
    "one-crash-phase",
    "crate-hygiene",
];

/// The one file allowed to touch the wall clock directly.
const CLOCK_FILE: &str = "crates/net/src/clock.rs";
/// The codec file the wire-invariant rule audits.
const CODEC_FILE: &str = "crates/net/src/codec.rs";
/// The estimate file the version-bump rule audits.
const ESTIMATE_FILE: &str = "crates/bayes/src/estimate.rs";
/// The tick engine: the only caller of the crash phase …
const ENGINE_FILE: &str = "crates/sim/src/engine.rs";
/// … defined (and unit-tested) here.
const CRASH_FILE: &str = "crates/sim/src/crash.rs";

/// A lexed source file plus its policy class.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Per-line code/comment split.
    pub lines: Vec<Line>,
    /// Determinism class from the policy table.
    pub class: CrateClass,
}

/// Lexes and classifies sources, then runs every rule. Input paths are
/// workspace-relative; out-of-policy files are skipped. Returns
/// diagnostics sorted by (path, line, rule).
pub fn check_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let mut files = Vec::new();
    for (path, content) in sources {
        if let Some(class) = policy::classify(path) {
            files.push(SourceFile {
                path: path.clone(),
                lines: lexer::split_lines(content),
                class,
            });
        }
    }

    let mut diagnostics = Vec::new();
    for file in &files {
        check_file(file, &mut diagnostics);
    }
    if let Some(codec) = files.iter().find(|f| f.path == CODEC_FILE) {
        let mut raw = Vec::new();
        codec_tags::check(codec, &mut raw);
        suppress(codec, raw, &mut diagnostics);
    }
    if let Some(estimate) = files.iter().find(|f| f.path == ESTIMATE_FILE) {
        let mut raw = Vec::new();
        version_bump::check(estimate, &mut raw);
        suppress(estimate, raw, &mut diagnostics);
    }
    diagnostics.sort();
    diagnostics.dedup();
    diagnostics
}

/// Runs the per-file rules (line rules, hygiene, pragma validation) and
/// applies this file's suppressions.
fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let pragmas = pragma::parse(&file.lines);

    // Malformed pragmas are diagnostics themselves and never suppress.
    for p in &pragmas {
        if !RULES.contains(&p.rule.as_str()) {
            out.push(Diagnostic::new(
                &file.path,
                p.line,
                "pragma",
                format!("pragma names unknown rule `{}`", p.rule),
            ));
        } else if !p.has_reason {
            out.push(Diagnostic::new(
                &file.path,
                p.line,
                "pragma",
                format!(
                    "pragma for `{}` has no reason (write `lint:allow({}): <why>`)",
                    p.rule, p.rule
                ),
            ));
        }
    }

    let mut raw = Vec::new();
    line_rules(file, &mut raw);
    crate_hygiene(file, &mut raw);
    suppress(file, raw, out);
}

/// Filters `raw` through the file's valid pragmas and appends survivors.
fn suppress(file: &SourceFile, raw: Vec<Diagnostic>, out: &mut Vec<Diagnostic>) {
    let pragmas = pragma::parse(&file.lines);
    let file_allows: Vec<&str> = pragmas
        .iter()
        .filter(|p| p.file_scope && p.has_reason && RULES.contains(&p.rule.as_str()))
        .map(|p| p.rule.as_str())
        .collect();
    let site_allows = pragma::site_allows(&pragmas, &file.lines);
    for d in raw {
        let allowed = file_allows.contains(&d.rule)
            || site_allows
                .iter()
                .any(|(line, rule)| *line == d.line && rule == d.rule);
        if !allowed {
            out.push(d);
        }
    }
}

/// The pattern-based line rules.
fn line_rules(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let at = idx + 1;

        if file.path != CLOCK_FILE {
            for call in ["Instant::now", "SystemTime::now", "thread::sleep"] {
                if contains_token(code, call) {
                    out.push(Diagnostic::new(
                        &file.path,
                        at,
                        "no-wall-clock",
                        format!("wall-clock call `{call}` outside {CLOCK_FILE}; route timing through the Clock abstraction"),
                    ));
                }
            }
        }

        for call in ["thread_rng", "from_entropy"] {
            if contains_token(code, call) {
                out.push(Diagnostic::new(
                    &file.path,
                    at,
                    "no-ambient-rng",
                    format!("ambient RNG `{call}`; every stream must be seeded explicitly"),
                ));
            }
        }

        if file.class != CrateClass::WallAware {
            for ty in ["HashMap", "HashSet"] {
                if contains_token(code, ty) {
                    out.push(Diagnostic::new(
                        &file.path,
                        at,
                        "no-unordered-iteration",
                        format!("`{ty}` in a deterministic crate; iteration order breaks seeded-stream reproducibility — use the BTree equivalent"),
                    ));
                }
            }
        }

        // One RNG stream means one thread of execution: strictly
        // deterministic code may not spawn threads. RelaxedDeterminism
        // (the sharded executor: per-shard seeded streams, barrier
        // lockstep) and WallAware code (experiment drivers) may.
        if file.class == CrateClass::Deterministic {
            for call in ["thread::spawn", "thread::scope"] {
                if contains_token(code, call) {
                    out.push(Diagnostic::new(
                        &file.path,
                        at,
                        "no-threading",
                        format!("`{call}` in a deterministic crate; threaded execution needs the relaxed-determinism policy class (see crates/lint/src/policy.rs)"),
                    ));
                }
            }
        }

        // Delivery sampling in the message-path substrates is batched
        // (crates/sim/src/loss.rs): a per-message `gen_bool` in a send
        // loop re-serializes sampling on the RNG and reintroduces the
        // dense-regime slow path. Non-delivery draws (per-process crash
        // scripts, chaos duplication) are sanctioned via reasoned
        // site pragmas.
        if (file.path.starts_with("crates/sim/") || file.path.starts_with("crates/net/src/"))
            && contains_token(code, "gen_bool")
        {
            out.push(Diagnostic::new(
                &file.path,
                at,
                "batched-loss-draw",
                "per-message `gen_bool` in a message-path crate; route delivery sampling through `LossBatcher::should_drop` (crates/sim/src/loss.rs) so the batched draw order stays frozen",
            ));
        }

        // Corruption constructors stay confined: `Offer::forged`
        // fabricates distortion stamps and the taint marker, which
        // honest code only ever produces through `Estimate::offer` /
        // `adopt_if_better`. The definition site (ESTIMATE_FILE) is
        // exempt; every caller — the adversary engine included — needs
        // a reasoned site pragma, so each forge site is a deliberate,
        // documented decision.
        if file.path != ESTIMATE_FILE && contains_token(code, "forged(") {
            out.push(Diagnostic::new(
                &file.path,
                at,
                "adversary-forge",
                "`Offer::forged` outside the adversary engine; honest offers come from `Estimate::offer`, and what they carry from `first_hand`/`adopt_if_better` — forge sites (adversary module, adversarial tests) need a reasoned site pragma",
            ));
        }

        // The crash phase exists once: `CrashState::advance` draws the
        // per-tick crash randomness, and every executor gets it by
        // stepping an engine lane. A call anywhere else is a second copy
        // of the tick's phase 1 growing back.
        if file.path != ENGINE_FILE
            && file.path != CRASH_FILE
            && (contains_token(code, "crash.advance(")
                || contains_token(code, "CrashState::advance"))
        {
            out.push(Diagnostic::new(
                &file.path,
                at,
                "one-crash-phase",
                format!("`CrashState::advance` outside {ENGINE_FILE}; drivers step a `Lane` instead of re-implementing the tick's crash phase"),
            ));
        }

        for method in [".powi(", ".powf("] {
            if code.contains(method) {
                out.push(Diagnostic::new(
                    &file.path,
                    at,
                    "det-pow",
                    format!("`{method})` bypasses pow_det; plans re-derived from gossip must be bit-identical across hosts"),
                ));
            }
        }
    }
}

/// `#![forbid(unsafe_code)]` must appear in every crate root.
fn crate_hygiene(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !policy::is_crate_root(&file.path) {
        return;
    }
    let has_forbid = file
        .lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has_forbid {
        out.push(Diagnostic::new(
            &file.path,
            1,
            "crate-hygiene",
            "crate root lacks `#![forbid(unsafe_code)]`",
        ));
    }
}

/// Substring match with an identifier boundary on the left, so
/// `MyHashMap` or `unthread_rng` do not trigger.
fn contains_token(code: &str, pattern: &str) -> bool {
    let mut from = 0;
    while let Some(at) = code[from..].find(pattern) {
        let start = from + at;
        let boundary = code[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        from = start + pattern.len();
    }
    false
}

/// A function's extent in a file: its name and 1-based line range,
/// signature start through closing brace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FnSpan {
    pub name: String,
    pub start: usize,
    pub end: usize,
}

/// Finds `fn` items (including nested ones) within a 1-based line range
/// by brace matching over code text. Bodyless signatures (`fn x();`)
/// are skipped.
pub(crate) fn fn_spans(lines: &[Line], start: usize, end: usize) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for at in start..=end.min(lines.len()) {
        let code = &lines[at - 1].code;
        let mut from = 0;
        while let Some(rel) = code[from..].find("fn ") {
            let pos = from + rel;
            let boundary = code[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            from = pos + 3;
            if !boundary {
                continue;
            }
            let name: String = code[pos + 3..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            if let Some(close) = body_end(lines, at, pos + 3, end) {
                spans.push(FnSpan {
                    name,
                    start: at,
                    end: close,
                });
            }
        }
    }
    spans
}

/// From (line `at`, column `col`), finds the line of the brace closing
/// the next `{` — or `None` if a `;` ends the item first (no body).
fn body_end(lines: &[Line], at: usize, col: usize, limit: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut opened = false;
    for line_no in at..=limit.min(lines.len()) {
        let code = &lines[line_no - 1].code;
        let skip = if line_no == at { col } else { 0 };
        for c in code.chars().skip(skip) {
            match c {
                ';' if !opened => return None,
                '{' => {
                    opened = true;
                    depth += 1;
                }
                '}' if opened => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(line_no);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Concatenated code text of a 1-based inclusive line range.
pub(crate) fn span_text(lines: &[Line], start: usize, end: usize) -> String {
    let mut text = String::new();
    for line in lines.iter().take(end.min(lines.len())).skip(start - 1) {
        text.push_str(&line.code);
        text.push('\n');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(path: &str, src: &str) -> Vec<Diagnostic> {
        check_sources(&[(path.to_owned(), src.to_owned())])
    }

    #[test]
    fn wall_clock_fires_outside_the_clock_file() {
        let diags = check_one(
            "crates/net/src/runtime.rs",
            "fn f() { std::thread::sleep(d); }\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "no-wall-clock");
        assert_eq!(diags[0].line, 1);
        assert!(check_one(
            "crates/net/src/clock.rs",
            "fn f() { std::thread::sleep(d); }\n"
        )
        .is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// Instant::now is banned\nlet s = \"Instant::now\";\n";
        assert!(check_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unordered_iteration_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check_one("crates/core/src/x.rs", src).len(), 1);
        assert!(check_one("crates/net/src/x.rs", src).is_empty());
        // Identifier boundary: FxHashMap is a different type.
        assert!(check_one("crates/core/src/y.rs", "use FxHashMap;\n").is_empty());
    }

    #[test]
    fn pragma_with_reason_suppresses_its_site() {
        let src = "let t = Instant::now(); // lint:allow(no-wall-clock): wall throughput is the measurement\n";
        assert!(check_one("crates/experiments/src/x.rs", src).is_empty());
        let src = "// lint:allow(det-pow): closed-form figure\nlet y = x.powi(2);\n";
        assert!(check_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn reasonless_pragma_reports_and_does_not_suppress() {
        let src = "let y = x.powi(2); // lint:allow(det-pow)\n";
        let diags = check_one("crates/core/src/x.rs", src);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"pragma"));
        assert!(rules.contains(&"det-pow"));
    }

    #[test]
    fn file_pragma_covers_the_whole_file() {
        let src = "// lint:allow-file(det-pow): analysis module, closed-form only\nfn a(x: f64) -> f64 { x.powi(2) }\nfn b(x: f64) -> f64 { x.powf(0.5) }\n";
        assert!(check_one("crates/core/src/analysis.rs", src).is_empty());
    }

    #[test]
    fn hygiene_requires_forbid_unsafe_in_crate_roots() {
        let diags = check_one("crates/widget/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "crate-hygiene");
        let src = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(check_one("crates/widget/src/lib.rs", src).is_empty());
        // Non-roots are exempt.
        assert!(check_one("crates/widget/src/util.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn fn_spans_brace_match_and_skip_bodyless() {
        let lines = lexer::split_lines(
            "trait T {\n    fn sig(&self);\n}\nfn outer() {\n    let c = || { inner() };\n}\n",
        );
        let spans = fn_spans(&lines, 1, lines.len());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "outer");
        assert_eq!((spans[0].start, spans[0].end), (4, 6));
    }
}
