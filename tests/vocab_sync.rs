//! Vocabulary-drift guard between the Rust telemetry schema and
//! `tools/trace_summary.py`.
//!
//! The Python summariser validates NDJSON against *closed* label sets
//! (drop reasons, frame kinds, provenance stages, timer classes) and a
//! per-event field table (`SCHEMA`).  Those are hand-maintained mirrors of
//! the `manet_telemetry` label enums (`DropKind`, `FrameKind`, `Stage`,
//! `TimerClass`) and of the fields its encoder writes, so a new enum variant
//! or a field change that is not also made in the script silently turns
//! every CI schema check into a false failure (or, worse, the script keeps
//! accepting a label or a field the Rust side no longer emits).  These
//! tests parse the script's literal sets out of its source and diff them
//! against the authoritative Rust side in both directions.

use manet_netsim::telemetry::{
    DropKind, FrameKind, Stage, TelemetryEvent, TimerClass, WindowStats,
};
use std::collections::{BTreeMap, BTreeSet};

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
    let out = quoted_strings(&source[body_start..body_end], name);
    assert!(!out.is_empty(), "parsed no labels out of {name}");
    out
}

/// The string literals in `body`, in either quote style.
fn quoted_strings(body: &str, context: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rest = body;
    while let Some(open) = rest.find(['"', '\'']) {
        let quote = rest.as_bytes()[open] as char;
        let tail = &rest[open + 1..];
        let close = tail
            .find(quote)
            .unwrap_or_else(|| panic!("unterminated string in {context}"));
        out.insert(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    out
}

/// Required and optional field names of one event.
type Fields = (BTreeSet<String>, BTreeSet<String>);

/// The script's `SCHEMA = {"<ev>": ({required}, {optional} or set()), ...}`
/// table, read entry by entry; any other shape panics.
fn python_schema(source: &str) -> BTreeMap<String, Fields> {
    let start = source
        .find("SCHEMA = {")
        .expect("trace_summary.py no longer defines `SCHEMA = {...}`");
    let body = &source[start + "SCHEMA = {".len()..];
    let mut rest = &body[..body.find("\n}\n").expect("unterminated SCHEMA")];
    let mut out = BTreeMap::new();
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let close = tail.find('"').expect("unterminated event name in SCHEMA");
        let name = &tail[..close];
        let after = eat(eat(&tail[close + 1..], ":", name), "(", name);
        let (required, after) = set_literal(after, name);
        let (optional, after) = set_literal(eat(after, ",", name), name);
        let after = after.trim_start();
        rest = eat(after.strip_prefix(',').unwrap_or(after), ")", name);
        assert!(
            out.insert(name.to_string(), (required, optional)).is_none(),
            "SCHEMA lists {name:?} twice"
        );
    }
    assert!(!out.is_empty(), "parsed no events out of SCHEMA");
    out
}

/// The Python set literal at the start of `s` (`set()` or `{"a", ...}`,
/// after blanks) and what follows it.
fn set_literal<'a>(s: &'a str, name: &str) -> (BTreeSet<String>, &'a str) {
    if let Some(rest) = s.trim_start().strip_prefix("set()") {
        return (BTreeSet::new(), rest);
    }
    let body = eat(s, "{", name);
    let end = body
        .find('}')
        .unwrap_or_else(|| panic!("SCHEMA[{name:?}]: unterminated set literal"));
    (quoted_strings(&body[..end], name), &body[end + 1..])
}

/// `s` past its leading blanks and `token`, which must come next.
fn eat<'a>(s: &'a str, token: &str, name: &str) -> &'a str {
    let s = s.trim_start();
    s.strip_prefix(token)
        .unwrap_or_else(|| panic!("SCHEMA[{name:?}]: expected {token:?} at {s:?}"))
}

/// The top-level keys of one NDJSON line, `"ev"` aside.
fn keys_of(line: &str) -> BTreeSet<String> {
    let (mut keys, mut depth, mut string, mut quote) = (BTreeSet::new(), 0, false, 0);
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' if !string => (string, quote) = (true, i + 1),
            b'"' => {
                string = false;
                if depth == 1 && line[i + 1..].starts_with(':') {
                    keys.insert(line[quote..i].to_string());
                }
            }
            b'{' if !string => depth += 1,
            b'}' if !string => depth -= 1,
            _ => {}
        }
    }
    keys.remove("ev");
    keys
}

/// Each event kind twice, with its options all set and all unset, so the
/// keys present in both are the required fields and the rest the optional.
fn events_of_every_kind() -> Vec<(TelemetryEvent, TelemetryEvent)> {
    let deliver = |conn, seq| TelemetryEvent::Deliver {
        t: 1.0,
        node: 1,
        from: 2,
        kind: FrameKind::Data,
        conn,
        seq,
    };
    let drop = |conn| TelemetryEvent::Drop {
        t: 1.0,
        node: 1,
        reason: DropKind::NoRoute,
        kind: FrameKind::Data,
        conn,
    };
    let fixed = [
        TelemetryEvent::Originate {
            t: 1.0,
            node: 1,
            conn: 0,
            seq: 0,
            data: true,
            bytes: 1000,
        },
        TelemetryEvent::FrameEnqueue {
            t: 1.0,
            node: 1,
            kind: FrameKind::Rreq,
            bytes: 78,
            queue: 1,
        },
        TelemetryEvent::TxStart {
            t: 1.0,
            node: 1,
            kind: FrameKind::Rreq,
            bytes: 78,
        },
        TelemetryEvent::Collision {
            t: 1.0,
            node: 1,
            from: 2,
        },
        TelemetryEvent::ForgedRrep {
            t: 1.0,
            node: 1,
            from: 2,
        },
        TelemetryEvent::Suspicion {
            t: 1.0,
            node: 1,
            suspect: 2,
            score: 0.5,
            table: 1,
        },
        TelemetryEvent::Timer {
            t: 1.0,
            node: 1,
            class: TimerClass::Routing,
            scope: 0,
        },
        TelemetryEvent::FlowComplete {
            t: 1.0,
            node: 1,
            conn: 0,
            bytes: 1000,
        },
        TelemetryEvent::Provenance {
            t: 1.0,
            stage: Stage::Originate,
            node: 1,
            conn: 0,
            seq: 0,
            kind: FrameKind::Data,
        },
        TelemetryEvent::Window {
            t: 1.0,
            window: 0,
            stats: Box::new(WindowStats {
                goodput: BTreeMap::from([(0, 1000)]),
                fluid_demand: BTreeMap::from([(3, 10)]),
                fluid_alloc: BTreeMap::from([(3, 5)]),
                ..WindowStats::default()
            }),
        },
    ];
    let mut out = vec![
        (deliver(Some(0), Some(0)), deliver(None, None)),
        (drop(Some(0)), drop(None)),
    ];
    out.extend(fixed.into_iter().map(|ev| (ev.clone(), ev)));
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

#[test]
fn schema_fields_match_what_the_encoder_writes() {
    let script = python_schema(&script_source());
    let mut rust = BTreeMap::new();
    for (full, bare) in events_of_every_kind() {
        assert_eq!(full.name(), bare.name());
        let (all, required) = (keys_of(&full.to_ndjson()), keys_of(&bare.to_ndjson()));
        assert!(required.is_subset(&all), "{}: {required:?}", full.name());
        let optional = all.difference(&required).cloned().collect();
        rust.insert(full.name().to_string(), (required, optional));
    }
    assert_eq!(
        script.keys().collect::<Vec<_>>(),
        rust.keys().collect::<Vec<_>>(),
        "SCHEMA's event names drifted from TelemetryEvent's"
    );
    for (name, (required, optional)) in &rust {
        let (py_required, py_optional) = &script[name];
        assert_eq!(
            py_required, required,
            "SCHEMA[{name:?}] required fields drifted"
        );
        assert_eq!(
            py_optional, optional,
            "SCHEMA[{name:?}] optional fields drifted"
        );
    }
}
