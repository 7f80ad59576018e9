//! `version-bump-audit`: every mutation path on `Estimate` moves the
//! version stamp, and `Offer` has no mutation path at all.
//!
//! Delta heartbeats (PR 5) detect changed knowledge entries purely by
//! comparing `Estimate::version` stamps. A `&mut self` method that
//! mutates beliefs or distortion *without* touching `self.version`
//! would make changes invisible to delta emission — receivers would
//! silently diverge from full-view heartbeats. This rule finds the
//! `impl Estimate` block in `crates/bayes/src/estimate.rs` and demands
//! that every `&mut self` method's body (or signature-to-body span)
//! mention `self.version`.
//!
//! `Offer` — one heartbeat frame entry — has no version: a frame is
//! shared by every receiver, so an offer must never change after it is
//! built. Any `&mut self` method in the `impl Offer` block is flagged.
//!
//! Like the codec rule, it only runs when the estimate file is in the
//! scanned set.

use crate::diagnostics::Diagnostic;
use crate::lexer::Line;
use crate::rules::{fn_spans, span_text, FnSpan, SourceFile};

const RULE: &str = "version-bump-audit";

/// Audits the estimate file; appends diagnostics.
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let lines = &file.lines;
    let Some(estimate) = inherent_impl(lines, "Estimate") else {
        out.push(Diagnostic::new(
            &file.path,
            1,
            RULE,
            "no inherent `impl Estimate` block found",
        ));
        return;
    };
    for (span, text) in methods(lines, estimate) {
        if text.contains("&mut self") && !text.contains("self.version") {
            out.push(Diagnostic::new(
                &file.path,
                span.start,
                RULE,
                format!(
                    "`&mut self` method `{}` never touches `self.version`; delta heartbeats would miss its mutations",
                    span.name
                ),
            ));
        }
    }
    let offer = inherent_impl(lines, "Offer");
    for (span, text) in offer.map(|block| methods(lines, block)).unwrap_or_default() {
        if text.contains("&mut self") {
            out.push(Diagnostic::new(
                &file.path,
                span.start,
                RULE,
                format!(
                    "`Offer` method `{}` takes `&mut self`; frame entries are shared by every receiver and must stay immutable",
                    span.name
                ),
            ));
        }
    }
}

/// The 1-based `(first line inside, closing line)` of the inherent
/// `impl <ty> {` block (not `impl Trait for <ty>`).
fn inherent_impl(lines: &[Line], ty: &str) -> Option<(usize, usize)> {
    let impl_line = lines.iter().position(|l| {
        let code = l.code.trim();
        let rest = code.strip_prefix("impl ").and_then(|r| r.strip_prefix(ty));
        rest.is_some_and(|r| r.starts_with([' ', '{'])) && !code.contains(" for ")
    })?;
    let start = impl_line + 1;
    Some((start, block_end(lines, start).unwrap_or(lines.len())))
}

/// The methods of an impl block, each with its signature-to-body text.
fn methods(lines: &[Line], (start, end): (usize, usize)) -> Vec<(FnSpan, String)> {
    fn_spans(lines, start, end)
        .into_iter()
        .filter(|span| span.start > start && span.end <= end)
        .map(|span| {
            let text = span_text(lines, span.start, span.end);
            (span, text)
        })
        .collect()
}

/// The 1-based line of the brace closing the block opened on `start`.
fn block_end(lines: &[Line], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut opened = false;
    for (idx, line) in lines.iter().enumerate().skip(start - 1) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    opened = true;
                    depth += 1;
                }
                '}' if opened => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(idx + 1);
                    }
                }
                _ => {}
            }
        }
    }
    None
}
