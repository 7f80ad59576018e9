//! `codec-tag-coverage`: every wire tag is fully plumbed.
//!
//! The wire format lives in one file, but a new frame kind needs four
//! coordinated edits: a `TAG_*` constant, an `encode_message` arm, a
//! `decode_message` arm, *and* the header-only `frame_kind` probe the
//! fabric's metrics rely on — plus a round-trip test. This rule audits
//! all of it from the codec source alone:
//!
//! 1. every `const TAG_*` must appear inside `frame_kind`'s body;
//! 2. every tag must appear inside `decode_message`'s body;
//! 3. inside `encode_message`, each `put_u8(TAG_*)` is paired with the
//!    nearest preceding `Message::…` match arm, and that variant must
//!    appear in some `fn *round_trip*` test body.
//!
//! The rule only runs when `crates/net/src/codec.rs` is in the scanned
//! set, so fixture runs that do not include a codec stay silent.

use crate::diagnostics::Diagnostic;
use crate::rules::{fn_spans, span_text, SourceFile};

const RULE: &str = "codec-tag-coverage";

/// The wire enums whose variants select tags in `encode_message`.
const WIRE_ENUMS: &[&str] = &["Message::"];

/// Audits the codec file; appends diagnostics.
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let lines = &file.lines;
    let spans = fn_spans(lines, 1, lines.len());
    let body = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| span_text(lines, s.start, s.end))
    };

    // 1. Collect the tag table.
    let mut tags: Vec<(String, usize)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if let Some(at) = line.code.find("const TAG_") {
            let name: String = line.code[at + "const ".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            tags.push((name, idx + 1));
        }
    }
    if tags.is_empty() {
        out.push(Diagnostic::new(
            &file.path,
            1,
            RULE,
            "codec defines no `const TAG_*` wire tags",
        ));
        return;
    }

    // 2. Every tag is matched in frame_kind and decode_message.
    for (target, missing) in [
        (
            "frame_kind",
            "not matched in `frame_kind` (fabric metrics would miscount it)",
        ),
        ("decode_message", "not decoded in `decode_message`"),
    ] {
        match body(target) {
            Some(text) => {
                for (tag, line) in &tags {
                    if !text.contains(tag.as_str()) {
                        out.push(Diagnostic::new(
                            &file.path,
                            *line,
                            RULE,
                            format!("wire tag `{tag}` is {missing}"),
                        ));
                    }
                }
            }
            None => out.push(Diagnostic::new(
                &file.path,
                1,
                RULE,
                format!("codec has no `fn {target}`"),
            )),
        }
    }

    // 3. Pair each emitted tag with its match-arm variant, then demand
    // round-trip coverage of that variant.
    let Some(encode) = spans.iter().find(|s| s.name == "encode_message") else {
        out.push(Diagnostic::new(
            &file.path,
            1,
            RULE,
            "codec has no `fn encode_message`",
        ));
        return;
    };
    let round_trip_text: String = spans
        .iter()
        .filter(|s| s.name.contains("round_trip"))
        .map(|s| span_text(lines, s.start, s.end))
        .collect();

    let mut last_variant: Option<String> = None;
    let mut emitted: Vec<String> = Vec::new();
    for at in encode.start..=encode.end {
        for event in line_events(&lines[at - 1].code) {
            match event {
                Event::Variant(variant) => last_variant = Some(variant),
                Event::Emit(tag) => {
                    let line = tags.iter().find(|(t, _)| *t == tag).map_or(at, |(_, l)| *l);
                    match &last_variant {
                        None => out.push(Diagnostic::new(
                            &file.path,
                            at,
                            RULE,
                            format!("`{tag}` is emitted with no preceding wire-enum match arm"),
                        )),
                        Some(variant) if !round_trip_text.contains(variant.as_str()) => {
                            out.push(Diagnostic::new(
                                &file.path,
                                line,
                                RULE,
                                format!(
                                    "wire tag `{tag}` ({variant}) is not exercised by any `*round_trip*` test"
                                ),
                            ));
                        }
                        Some(_) => {}
                    }
                    emitted.push(tag);
                }
            }
        }
    }

    // Tags never emitted at all.
    for (tag, line) in &tags {
        if !emitted.contains(tag) {
            out.push(Diagnostic::new(
                &file.path,
                *line,
                RULE,
                format!("wire tag `{tag}` is never emitted in `encode_message`"),
            ));
        }
    }
}

/// An interesting occurrence inside `encode_message`, in column order.
enum Event {
    /// A wire-enum match arm (`Message::Data`…).
    Variant(String),
    /// A `put_u8(TAG_*)` call naming the tag.
    Emit(String),
}

/// Extracts wire-enum variants and tag emissions from one code line,
/// ordered by column so "nearest preceding arm" pairing works within a
/// line.
fn line_events(code: &str) -> Vec<Event> {
    let mut events: Vec<(usize, Event)> = Vec::new();
    for prefix in WIRE_ENUMS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(prefix) {
            let pos = from + rel;
            let variant: String = code[pos + prefix.len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            from = pos + prefix.len();
            if variant.chars().next().is_some_and(|c| c.is_uppercase()) {
                events.push((pos, Event::Variant(format!("{prefix}{variant}"))));
            }
        }
    }
    let mut from = 0;
    while let Some(rel) = code[from..].find("put_u8(TAG_") {
        let pos = from + rel;
        let tag: String = code[pos + "put_u8(".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        events.push((pos, Event::Emit(tag)));
        from = pos + "put_u8(".len();
    }
    events.sort_by_key(|(pos, _)| *pos);
    events.into_iter().map(|(_, e)| e).collect()
}
