//! Vocabulary-drift guard between the Rust telemetry schema and
//! `tools/trace_summary.py`.
//!
//! The Python summariser validates NDJSON against *closed* label sets
//! (drop reasons, frame kinds, provenance stages, timer classes).  Those
//! sets are hand-maintained mirrors of the `manet_telemetry` label enums
//! (`DropKind`, `FrameKind`, `Stage`, `TimerClass`), so a new enum variant
//! that is not also added to the script silently turns every CI schema
//! check into a false failure (or, worse, the script keeps accepting a
//! label the Rust side no longer emits).  This test parses the
//! script's literal sets out of its source and diffs them against the
//! authoritative Rust vocabularies in both directions.

use manet_netsim::telemetry::{DropKind, FrameKind, Stage, TimerClass};
use std::collections::BTreeSet;

/// Extract the string literals of the `NAME = {...}` set assignment in
/// `trace_summary.py`.  Tolerates multi-line sets and both quote styles;
/// intentionally dumb so a formatting change in the script breaks loudly
/// here rather than silently parsing nothing.
fn python_set(source: &str, name: &str) -> BTreeSet<String> {
    let start = source
        .find(&format!("{name} = {{"))
        .unwrap_or_else(|| panic!("trace_summary.py no longer defines `{name} = {{...}}`"));
    let body_start = start + name.len() + " = {".len();
    let body_end = body_start
        + source[body_start..]
            .find('}')
            .unwrap_or_else(|| panic!("unterminated set literal for {name}"));
    let body = &source[body_start..body_end];
    let mut out = BTreeSet::new();
    let mut rest = body;
    while let Some(open) = rest.find(['"', '\'']) {
        let quote = rest.as_bytes()[open] as char;
        let tail = &rest[open + 1..];
        let close = tail
            .find(quote)
            .unwrap_or_else(|| panic!("unterminated string in {name}"));
        out.insert(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    assert!(!out.is_empty(), "parsed no labels out of {name}");
    out
}

fn script_source() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tools/trace_summary.py");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn as_set(labels: &[&str]) -> BTreeSet<String> {
    labels.iter().map(|s| s.to_string()).collect()
}

#[test]
fn drop_reasons_match_the_rust_enum_exactly() {
    let script = script_source();
    let rust: BTreeSet<String> = DropKind::ALL
        .iter()
        .map(|k| k.label().to_string())
        .collect();
    assert_eq!(
        rust.len(),
        DropKind::ALL.len(),
        "DropKind labels must be pairwise distinct"
    );
    assert_eq!(
        python_set(&script, "DROP_REASONS"),
        rust,
        "DROP_REASONS in tools/trace_summary.py drifted from DropKind::ALL"
    );
}

#[test]
fn non_terminal_reasons_match_is_terminal() {
    let script = script_source();
    let rust: BTreeSet<String> = DropKind::ALL
        .iter()
        .filter(|k| !k.is_terminal())
        .map(|k| k.label().to_string())
        .collect();
    assert_eq!(
        python_set(&script, "NON_TERMINAL"),
        rust,
        "NON_TERMINAL in tools/trace_summary.py drifted from DropKind::is_terminal"
    );
}

#[test]
fn frame_kinds_stages_and_timer_classes_match() {
    let script = script_source();
    assert_eq!(
        python_set(&script, "FRAME_KINDS"),
        as_set(&FrameKind::LABELS),
        "FRAME_KINDS drifted"
    );
    assert_eq!(
        python_set(&script, "STAGES"),
        as_set(&Stage::LABELS),
        "STAGES drifted"
    );
    assert_eq!(
        python_set(&script, "TIMER_CLASSES"),
        as_set(&TimerClass::LABELS),
        "TIMER_CLASSES drifted"
    );
}
