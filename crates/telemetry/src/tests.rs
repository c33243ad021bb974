//! Unit and property tests for the telemetry crate: exact NDJSON
//! round-trips, strict schema rejection, sampler window algebra, stream
//! order and the conservation ledger.

use crate::check::{check_conservation, check_monotone, validate_lines};
use crate::event::{DropKind, FrameKind, Stage, TelemetryEvent, TimerClass, WindowStats};
use crate::json::parse_line;
use crate::oracle;
use crate::sink::{write_ndjson, StringSink};
use crate::{Telemetry, TelemetryConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One exemplar of every event variant (optional fields populated).
fn exemplars() -> Vec<TelemetryEvent> {
    vec![
        TelemetryEvent::Originate {
            t: 0.125,
            node: 3,
            conn: 1,
            seq: 1448,
            data: true,
            bytes: 1448,
        },
        TelemetryEvent::FrameEnqueue {
            t: 0.25,
            node: 7,
            kind: FrameKind::Data,
            bytes: 1500,
            queue: 4,
        },
        TelemetryEvent::TxStart {
            t: 0.3,
            node: 7,
            kind: FrameKind::Rreq,
            bytes: 64,
        },
        TelemetryEvent::Collision {
            t: 0.4,
            node: 9,
            from: 11,
        },
        TelemetryEvent::Deliver {
            t: 0.5,
            node: 20,
            from: 19,
            kind: FrameKind::Data,
            conn: Some(1),
            seq: Some(2896),
        },
        TelemetryEvent::Drop {
            t: 0.6,
            node: 5,
            reason: DropKind::QueueOverflow,
            kind: FrameKind::Data,
            conn: Some(1),
        },
        TelemetryEvent::ForgedRrep {
            t: 0.7,
            node: 2,
            from: 40,
        },
        TelemetryEvent::Suspicion {
            t: 0.8,
            node: 2,
            suspect: 40,
            score: 1.5,
            table: 3,
        },
        TelemetryEvent::Timer {
            t: 0.9,
            node: 3,
            class: TimerClass::Transport,
            scope: 1,
        },
        TelemetryEvent::FlowComplete {
            t: 1.0,
            node: 3,
            conn: 1,
            bytes: 5_000_000,
        },
        TelemetryEvent::Provenance {
            t: 1.1,
            stage: Stage::Tunnel,
            node: 12,
            conn: 1,
            seq: 1448,
            kind: FrameKind::Data,
        },
        TelemetryEvent::Window {
            t: 2.0,
            window: 1,
            stats: Box::new(WindowStats {
                goodput: BTreeMap::from([(1, 4096), (7, 512)]),
                queue_peak: 9,
                cal_resizes: 2,
                suspicion_peak: 4,
                fluid_demand: BTreeMap::from([(0, 16_000), (3, 8_000)]),
                fluid_alloc: BTreeMap::from([(0, 12_500), (3, 8_000)]),
            }),
        },
    ]
}

#[test]
fn every_variant_round_trips_exactly() {
    for ev in exemplars() {
        let line = ev.to_ndjson();
        let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back, ev, "parse(encode(ev)) must be identity: {line}");
        assert_eq!(back.to_ndjson(), line, "re-encode must be canonical");
    }
}

#[test]
fn optional_fields_may_be_absent() {
    let ev = TelemetryEvent::Deliver {
        t: 0.5,
        node: 20,
        from: 19,
        kind: FrameKind::Rrep,
        conn: None,
        seq: None,
    };
    let line = ev.to_ndjson();
    assert!(!line.contains("conn"), "absent option must not serialise");
    assert_eq!(parse_line(&line).unwrap(), ev);
}

#[test]
fn large_packet_seq_stays_exact() {
    // Packet ids embed the node id in the top bits: (node << 40) | counter
    // exceeds 2^53, so float-path parsing would corrupt it.
    let seq = (u64::from(u16::MAX) << 40) | 12345;
    let ev = TelemetryEvent::Provenance {
        t: 3.5,
        stage: Stage::Deliver,
        node: 1,
        conn: 9,
        seq,
        kind: FrameKind::Data,
    };
    match parse_line(&ev.to_ndjson()).unwrap() {
        TelemetryEvent::Provenance { seq: back, .. } => assert_eq!(back, seq),
        other => panic!("wrong variant: {other:?}"),
    }
}

#[test]
fn schema_is_strict() {
    // Unknown event name.
    assert!(parse_line(r#"{"ev":"bogus","t":1}"#).is_err());
    // Missing field.
    assert!(parse_line(r#"{"ev":"collision","t":1,"node":1}"#).is_err());
    // Extra field.
    assert!(parse_line(r#"{"ev":"collision","t":1,"node":1,"from":2,"zzz":3}"#).is_err());
    // Label outside its vocabulary.
    assert!(parse_line(r#"{"ev":"tx_start","t":1,"node":1,"kind":"NOPE","bytes":8}"#).is_err());
    // Integer overflow of the declared width.
    assert!(parse_line(r#"{"ev":"collision","t":1,"node":70000,"from":2}"#).is_err());
    // Repeated field.
    assert!(parse_line(r#"{"ev":"collision","t":1,"t":2,"node":1,"from":2}"#).is_err());
    // Not an object at all.
    assert!(parse_line("[1,2,3]").is_err());
}

#[test]
fn validate_lines_reports_offending_line() {
    let doc = format!("{}\n\nnot json\n", exemplars()[0].to_ndjson());
    let err = validate_lines(&doc).unwrap_err();
    assert!(err.starts_with("line 3:"), "got: {err}");
}

#[test]
fn string_sink_writes_one_line_per_event() {
    let events = exemplars();
    let mut sink = StringSink::default();
    write_ndjson(&events, &mut sink).unwrap();
    let parsed = validate_lines(&sink.0).unwrap();
    assert_eq!(parsed, events);
}

#[test]
fn disabled_telemetry_collects_nothing() {
    let mut tel = Telemetry::from_config(&TelemetryConfig::default());
    assert!(!tel.enabled());
    // Hook sites guard on enabled(); even unguarded notes must stay inert.
    tel.note_goodput(1.0, 1, 100);
    tel.note_queue_len(1.0, 5);
    tel.finalize();
    assert!(tel.events().is_empty());
    assert!(!tel.traced(1, 0, true));
}

#[test]
fn sampler_buckets_and_skips_empty_windows() {
    let cfg = TelemetryConfig {
        enabled: true,
        window_secs: Some(1.0),
        trace_packet: None,
    };
    let mut tel = Telemetry::from_config(&cfg);
    tel.note_goodput(0.2, 1, 100);
    tel.note_goodput(0.7, 1, 50);
    tel.note_queue_len(0.8, 4);
    // Windows 1 and 2 see nothing; window 3 gets one observation.
    tel.note_goodput(3.1, 2, 7);
    tel.note_calendar_resizes(3.2, 5);
    tel.finalize();
    let windows: Vec<_> = tel
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Window { t, window, stats } => Some((
                *t,
                *window,
                stats.goodput.clone(),
                stats.queue_peak,
                stats.cal_resizes,
            )),
            _ => None,
        })
        .collect();
    assert_eq!(windows.len(), 2, "empty windows must be skipped");
    assert_eq!(windows[0].0, 1.0, "window line stamped with its end time");
    assert_eq!(windows[0].1, 0);
    assert_eq!(windows[0].2, BTreeMap::from([(1, 150)]));
    assert_eq!(windows[0].3, 4);
    assert_eq!(windows[1].1, 3);
    assert_eq!(windows[1].2, BTreeMap::from([(2, 7)]));
    assert_eq!(windows[1].4, 5, "resize delta against previous window");
    check_monotone(tel.events()).unwrap();
}

#[test]
fn calendar_resizes_are_differenced_across_windows() {
    let cfg = TelemetryConfig {
        enabled: true,
        window_secs: Some(1.0),
        trace_packet: None,
    };
    let mut tel = Telemetry::from_config(&cfg);
    tel.note_calendar_resizes(0.5, 4);
    tel.note_calendar_resizes(1.5, 10);
    tel.finalize();
    let deltas: Vec<u64> = tel
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Window { stats, .. } => Some(stats.cal_resizes),
            _ => None,
        })
        .collect();
    assert_eq!(deltas, vec![4, 6]);
}

#[test]
fn emit_rolls_the_sampler_first() {
    // An event past the window boundary must flush the window *before*
    // appending itself, or the stream goes non-monotone.
    let cfg = TelemetryConfig {
        enabled: true,
        window_secs: Some(1.0),
        trace_packet: None,
    };
    let mut tel = Telemetry::from_config(&cfg);
    tel.note_goodput(0.5, 1, 10);
    tel.emit(TelemetryEvent::Collision {
        t: 1.5,
        node: 1,
        from: 2,
    });
    tel.finalize();
    assert_eq!(tel.events().len(), 2);
    assert!(matches!(tel.events()[0], TelemetryEvent::Window { .. }));
    check_monotone(tel.events()).unwrap();
}

#[test]
fn provenance_tag_matches_exactly() {
    let cfg = TelemetryConfig {
        enabled: true,
        window_secs: None,
        trace_packet: Some((7, 1448)),
    };
    let tel = Telemetry::from_config(&cfg);
    assert!(tel.traced(7, 1448, true));
    assert!(!tel.traced(7, 0, true));
    assert!(!tel.traced(8, 1448, true));
    // Pure ACKs never match, even on the tagged (conn, seq).
    assert!(!tel.traced(7, 1448, false));
}

#[test]
fn check_monotone_rejects_any_step_back_in_time() {
    let at = |t: f64| TelemetryEvent::Collision {
        t,
        node: 1,
        from: 2,
    };
    check_monotone(&[at(1.0), at(1.0), at(2.0)]).unwrap();
    let err = check_monotone(&[at(1.0), at(2.0), at(1.5)]).unwrap_err();
    assert_eq!(err, "event 2 (collision) at t=1.5 precedes t=2");
}

#[test]
fn conservation_ledger_accounts_terminal_drops() {
    let mk_orig = |conn: u32| TelemetryEvent::Originate {
        t: 0.0,
        node: 1,
        conn,
        seq: 0,
        data: true,
        bytes: 1448,
    };
    let deliver = TelemetryEvent::Deliver {
        t: 1.0,
        node: 2,
        from: 1,
        kind: FrameKind::Data,
        conn: Some(1),
        seq: Some(0),
    };
    let terminal = TelemetryEvent::Drop {
        t: 1.0,
        node: 1,
        reason: DropKind::NoRoute,
        kind: FrameKind::Data,
        conn: Some(2),
    };
    let non_terminal = TelemetryEvent::Drop {
        t: 1.0,
        node: 1,
        reason: DropKind::RetryLimit,
        kind: FrameKind::Data,
        conn: Some(2),
    };
    let ledger = check_conservation(&[
        mk_orig(1),
        mk_orig(2),
        mk_orig(2),
        deliver.clone(),
        terminal,
        non_terminal,
    ])
    .unwrap();
    let c1 = ledger.per_conn[&1];
    assert_eq!((c1.originated, c1.delivered, c1.residual()), (1, 1, 0));
    let c2 = ledger.per_conn[&2];
    assert_eq!(c2.terminal_drops, 1, "retry_limit drops are not terminal");
    assert_eq!(c2.residual(), 1);
    // Over-delivery (double accounting) must fail.
    assert!(check_conservation(&[mk_orig(1), deliver.clone(), deliver]).is_err());
}

#[test]
fn drop_kind_vocabulary_is_closed() {
    for r in DropKind::ALL {
        assert_eq!(DropKind::from_label(r.label()), Some(r));
    }
    assert_eq!(DropKind::from_label("whatever"), None);
    assert!(!DropKind::RetryLimit.is_terminal());
    assert!(!DropKind::Jammed.is_terminal());
    assert!(DropKind::QueueOverflow.is_terminal());
}

/// `ALL` and `LABELS` are parallel (the parser stores a label's index in
/// `LABELS` and builds `ALL[index]`), every label maps back to its value,
/// and each vocabulary fits one byte.
#[test]
fn label_vocabularies_are_one_byte_and_parallel() {
    fn check<L: Copy + PartialEq + std::fmt::Debug>(
        all: &[L],
        labels: &[&str],
        label: fn(L) -> &'static str,
        from_label: fn(&str) -> Option<L>,
    ) {
        assert_eq!(std::mem::size_of::<L>(), 1);
        assert_eq!(all.len(), labels.len());
        for (v, l) in all.iter().zip(labels) {
            assert_eq!(label(*v), *l);
            assert_eq!(from_label(l), Some(*v));
        }
        assert_eq!(from_label("NOPE"), None);
    }
    check(
        &DropKind::ALL,
        &DropKind::LABELS,
        DropKind::label,
        DropKind::from_label,
    );
    check(
        &FrameKind::ALL,
        &FrameKind::LABELS,
        FrameKind::label,
        FrameKind::from_label,
    );
    check(&Stage::ALL, &Stage::LABELS, Stage::label, Stage::from_label);
    check(
        &TimerClass::ALL,
        &TimerClass::LABELS,
        TimerClass::label,
        TimerClass::from_label,
    );
}

#[test]
fn config_validation_rejects_bad_windows() {
    let mut cfg = TelemetryConfig::default();
    cfg.validate().unwrap();
    cfg.window_secs = Some(0.0);
    assert!(cfg.validate().is_err());
    cfg.window_secs = Some(f64::NAN);
    assert!(cfg.validate().is_err());
    cfg.window_secs = Some(0.5);
    cfg.validate().unwrap();
}

/// Strategy-built events with randomised numeric fields, cycling through
/// every label vocabulary entry.
fn arbitrary_event(pick: u64, t: f64, node: u16, big: u64) -> TelemetryEvent {
    let kind = FrameKind::ALL[(pick % FrameKind::ALL.len() as u64) as usize];
    let stage = Stage::ALL[(pick % Stage::ALL.len() as u64) as usize];
    let class = TimerClass::ALL[(pick % TimerClass::ALL.len() as u64) as usize];
    let reason = DropKind::ALL[(pick % DropKind::ALL.len() as u64) as usize];
    let conn = (pick % 97) as u32;
    match pick % 12 {
        0 => TelemetryEvent::Originate {
            t,
            node,
            conn,
            seq: big,
            data: pick.is_multiple_of(2),
            bytes: (big % 65536) as u32,
        },
        1 => TelemetryEvent::FrameEnqueue {
            t,
            node,
            kind,
            bytes: (big % 65536) as u32,
            queue: (pick % 64) as u32,
        },
        2 => TelemetryEvent::TxStart {
            t,
            node,
            kind,
            bytes: (big % 65536) as u32,
        },
        3 => TelemetryEvent::Collision {
            t,
            node,
            from: node.wrapping_add(1),
        },
        4 => TelemetryEvent::Deliver {
            t,
            node,
            from: node.wrapping_add(1),
            kind,
            conn: pick.is_multiple_of(3).then_some(conn),
            seq: pick.is_multiple_of(3).then_some(big),
        },
        5 => TelemetryEvent::Drop {
            t,
            node,
            reason,
            kind,
            conn: pick.is_multiple_of(2).then_some(conn),
        },
        6 => TelemetryEvent::ForgedRrep {
            t,
            node,
            from: node.wrapping_add(7),
        },
        7 => TelemetryEvent::Suspicion {
            t,
            node,
            suspect: node.wrapping_add(7),
            score: (pick % 1000) as f64 / 8.0,
            table: (pick % 50) as u32,
        },
        8 => TelemetryEvent::Timer {
            t,
            node,
            class,
            scope: (pick % 500) as u16,
        },
        9 => TelemetryEvent::FlowComplete {
            t,
            node,
            conn,
            bytes: big,
        },
        10 => TelemetryEvent::Provenance {
            t,
            stage,
            node,
            conn,
            seq: big,
            kind,
        },
        // Every fifth window has empty maps (a packet-only run's fluid maps,
        // a window that saw no delivery).
        _ => TelemetryEvent::Window {
            t,
            window: pick % 1000,
            stats: Box::new(WindowStats {
                goodput: if pick.is_multiple_of(5) {
                    BTreeMap::new()
                } else {
                    BTreeMap::from([(conn, big), (conn + 1, pick)])
                },
                queue_peak: (pick % 64) as u32,
                cal_resizes: pick % 10,
                suspicion_peak: (pick % 50) as u32,
                fluid_demand: if pick.is_multiple_of(5) {
                    BTreeMap::new()
                } else {
                    BTreeMap::from([(pick as u32 % 97, big % 1_000_000)])
                },
                fluid_alloc: if pick.is_multiple_of(5) {
                    BTreeMap::new()
                } else {
                    BTreeMap::from([(pick as u32 % 97, pick % 1_000_000)])
                },
            }),
        },
    }
}

proptest! {
    /// Every line the encoder can produce round-trips the schema exactly.
    #[test]
    fn prop_round_trip(
        pick in 0u64..1_000_000,
        mantissa in 0u64..1_000_000_000,
        node in proptest::any::<u16>(),
        big in proptest::any::<u64>(),
    ) {
        let t = mantissa as f64 / 4096.0;
        let ev = arbitrary_event(pick, t, node, big);
        let line = ev.to_ndjson();
        let back = parse_line(&line).map_err(proptest::TestCaseError::fail)?;
        prop_assert_eq!(&back, &ev);
        prop_assert_eq!(back.to_ndjson(), line);
    }

    /// Synthetic flows where every origination is delivered or terminally
    /// dropped satisfy conservation with the expected residual.
    #[test]
    fn prop_conservation(
        outcomes in proptest::collection::vec(0u8..3, 1..200),
        conns in proptest::collection::vec(1u32..6, 1..200),
    ) {
        let mut events = Vec::new();
        let mut expected_residual: BTreeMap<u32, i64> = BTreeMap::new();
        for (i, (o, conn)) in outcomes.iter().zip(&conns).enumerate() {
            let seq = i as u64 * 1448;
            events.push(TelemetryEvent::Originate {
                t: i as f64, node: 1, conn: *conn, seq, data: true, bytes: 1448,
            });
            match o {
                0 => events.push(TelemetryEvent::Deliver {
                    t: i as f64 + 0.5, node: 2, from: 1, kind: FrameKind::Data,
                    conn: Some(*conn), seq: Some(seq),
                }),
                1 => events.push(TelemetryEvent::Drop {
                    t: i as f64 + 0.5, node: 1,
                    reason: DropKind::NoRoute, kind: FrameKind::Data, conn: Some(*conn),
                }),
                _ => { *expected_residual.entry(*conn).or_insert(0) += 1; }
            }
        }
        let ledger = check_conservation(&events).map_err(proptest::TestCaseError::fail)?;
        for (conn, acc) in &ledger.per_conn {
            prop_assert_eq!(
                acc.residual(),
                expected_residual.get(conn).copied().unwrap_or(0)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The single-pass codec against the one it replaced (`crate::oracle`).
// ---------------------------------------------------------------------------

/// A tiny deterministic generator for the line rewriters below.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The top-level `"key":value` fields of a canonical line (one the encoder
/// wrote: no blanks, no escapes, no comma or brace inside a string).
fn fields_of(line: &str) -> Vec<&str> {
    let inner = &line[1..line.len() - 1];
    let mut fields = Vec::new();
    let (mut depth, mut start) = (0, 0);
    for (i, b) in inner.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b',' if depth == 0 => {
                fields.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&inner[start..]);
    fields
}

fn object_of(fields: &[&str]) -> String {
    format!("{{{}}}", fields.join(","))
}

/// The same object with its fields in a random order.
fn permuted(line: &str, state: &mut u64) -> String {
    let mut fields = fields_of(line);
    for i in (1..fields.len()).rev() {
        fields.swap(i, (next(state) % (i as u64 + 1)) as usize);
    }
    object_of(&fields)
}

/// The same line with blanks and tabs around its structural characters.
fn with_blanks(line: &str, state: &mut u64) -> String {
    let mut pad = || ["", " ", "\t", " \t "][(next(state) % 4) as usize];
    let mut out = String::from(pad());
    let mut in_string = false;
    for c in line.chars() {
        let structural = !in_string && matches!(c, '{' | '}' | ':' | ',');
        in_string ^= c == '"';
        if structural {
            out.push_str(pad());
        }
        out.push(c);
        if structural {
            out.push_str(pad());
        }
    }
    out
}

/// The same line with some of its strings (keys and labels alike) spelled
/// as `\uXXXX` escapes, in either hex case.
fn with_escapes(line: &str, state: &mut u64) -> String {
    let mut out = String::new();
    for (i, piece) in line.split('"').enumerate() {
        if i > 0 {
            out.push('"');
        }
        // Odd pieces are string contents.
        if i % 2 == 1 && next(state).is_multiple_of(2) {
            for c in piece.chars() {
                if next(state).is_multiple_of(2) {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                } else {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                }
            }
        } else {
            out.push_str(piece);
        }
    }
    out
}

/// Replace the value of the first field whose key is one of `keys`.
fn with_value(line: &str, keys: &[&str], value: &str) -> Option<String> {
    let mut fields: Vec<String> = fields_of(line).into_iter().map(String::from).collect();
    let field = fields
        .iter_mut()
        .find(|f| keys.iter().any(|k| f.starts_with(&format!("\"{k}\":"))))?;
    let colon = field.find(':').expect("a field has a colon");
    field.replace_range(colon + 1.., value);
    Some(object_of(
        &fields.iter().map(String::as_str).collect::<Vec<_>>(),
    ))
}

/// One rewrite that breaks the schema (or, when it drops an optional field,
/// happens not to).
fn mutated(line: &str, which: u64, state: &mut u64) -> String {
    let fields = fields_of(line);
    let at = (next(state) % fields.len() as u64) as usize;
    match which {
        // Dropped field.
        0 => {
            let mut kept = fields.clone();
            kept.remove(at);
            object_of(&kept)
        }
        // Repeated field.
        1 => {
            let mut more = fields.clone();
            more.insert(
                (next(state) % (fields.len() as u64 + 1)) as usize,
                fields[at],
            );
            object_of(&more)
        }
        // Unknown field.
        2 => {
            let mut more = fields.clone();
            more.insert(at + 1, "\"zzz\":3");
            object_of(&more)
        }
        // One past the u16 and the u32 range.  A window has no u16 field and
        // a collision, a forged RREP and a timer have no u32 field: each
        // takes the other width's overflow instead.
        3 => with_value(line, &["node"], "65536")
            .or_else(|| with_value(line, &["queue_peak"], "4294967296"))
            .expect("a node or a queue peak"),
        4 => with_value(
            line,
            &["conn", "bytes", "queue", "table", "queue_peak"],
            "4294967296",
        )
        .or_else(|| with_value(line, &["node"], "4294967296"))
        .expect("a node at least"),
        // A label outside its vocabulary (the event name, for want of another).
        5 => with_value(
            line,
            &["kind", "class", "stage", "reason", "ev"],
            "\"NOPE\"",
        )
        .expect("a name at least"),
        // Trailing bytes.
        _ => format!(
            "{line}{}",
            ["x", "{}", ",", "}", " 1"][(next(state) % 5) as usize]
        ),
    }
}

#[test]
fn the_line_rewriters_do_what_they_say() {
    let line = r#"{"ev":"window","t":2,"goodput":{"1":4,"7":5},"kind":"DATA"}"#;
    assert_eq!(
        fields_of(line),
        vec![
            r#""ev":"window""#,
            r#""t":2"#,
            r#""goodput":{"1":4,"7":5}"#,
            r#""kind":"DATA""#
        ]
    );
    assert_eq!(object_of(&fields_of(line)), line);
    let mut state = 7;
    let shuffled = permuted(line, &mut state);
    let mut shuffled = fields_of(&shuffled);
    shuffled.sort_unstable();
    let mut sorted = fields_of(line);
    sorted.sort_unstable();
    assert_eq!(shuffled, sorted);
    let blanks = with_blanks(line, &mut state);
    assert_eq!(blanks.replace([' ', '\t'], ""), line);
    assert!((0..20).any(|_| with_escapes(line, &mut state).contains("\\u")));
    assert_eq!(
        with_value(line, &["t"], "65536").unwrap(),
        line.replace("\"t\":2", "\"t\":65536")
    );
    assert_eq!(with_value(line, &["node"], "1"), None);
}

/// An event, as `prop_round_trip` draws it but with times of every shape:
/// dyadic fractions, whole numbers and arbitrary finite bit patterns (which
/// print as up to three hundred digits, or as `-0`).
fn drawn_event(pick: u64, mantissa: u64, node: u16, big: u64) -> TelemetryEvent {
    let t = match pick % 3 {
        0 => mantissa as f64 / 4096.0,
        1 => (mantissa % 1000) as f64,
        _ => Some(f64::from_bits(big.rotate_left(17)))
            .filter(|t| t.is_finite())
            .unwrap_or(0.0),
    };
    arbitrary_event(pick / 3, t, node, big)
}

proptest! {
    /// `encode_into` writes the bytes the `write!`-based encoder wrote, for
    /// every variant, and appends: what the buffer held stays.
    #[test]
    fn prop_encoder_matches_the_oracle(
        pick in 0u64..3_000_000,
        mantissa in 0u64..1_000_000_000,
        node in proptest::any::<u16>(),
        big in proptest::any::<u64>(),
    ) {
        let ev = drawn_event(pick, mantissa, node, big);
        let expected = oracle::to_ndjson(&ev);
        prop_assert_eq!(ev.to_ndjson(), expected.as_str());
        let mut buf = String::from("kept\n");
        ev.encode_into(&mut buf);
        prop_assert_eq!(buf, format!("kept\n{expected}"));
    }

    /// The single-pass parser returns what the oracle returns: on canonical
    /// lines, with the fields in any order, with blanks and tabs between
    /// tokens, and with strings spelled as `\uXXXX` escapes.
    #[test]
    fn prop_parser_matches_the_oracle(
        pick in 0u64..3_000_000,
        mantissa in 0u64..1_000_000_000,
        node in proptest::any::<u16>(),
        big in proptest::any::<u64>(),
    ) {
        let ev = drawn_event(pick, mantissa, node, big);
        let line = ev.to_ndjson();
        let mut state = big ^ pick;
        let reordered = permuted(&line, &mut state);
        let spaced = with_blanks(&reordered, &mut state);
        for variant in [
            with_escapes(&line, &mut state),
            with_escapes(&spaced, &mut state),
            line,
            reordered,
            spaced,
        ] {
            let parsed = parse_line(&variant);
            prop_assert_eq!(&parsed, &oracle::parse_line(&variant), "on {}", variant);
            prop_assert_eq!(parsed.as_ref(), Ok(&ev), "on {}", variant);
        }
    }

    /// Both parsers refuse the same broken lines (a dropped, repeated or
    /// unknown field, an integer past its width, a label outside its
    /// vocabulary, trailing bytes), in canonical and in shuffled order, and
    /// return the same event where the rewrite left the line legal.
    #[test]
    fn prop_mutated_lines_fail_alike(
        pick in 0u64..3_000_000,
        which in 0u64..7,
        node in proptest::any::<u16>(),
        big in proptest::any::<u64>(),
    ) {
        let ev = drawn_event(pick, big % 1_000_000_000, node, big);
        let mut state = big ^ pick ^ which;
        let broken = mutated(&ev.to_ndjson(), which, &mut state);
        let shuffled = if which < 6 { permuted(&broken, &mut state) } else { broken.clone() };
        for variant in [broken, shuffled] {
            let (new, old) = (parse_line(&variant), oracle::parse_line(&variant));
            prop_assert_eq!(new.is_err(), old.is_err(), "on {}: {:?} vs {:?}", variant, new, old);
            if let (Ok(new), Ok(old)) = (new, old) {
                prop_assert_eq!(new, old, "on {}", variant);
                // Dropping `conn` or `seq` is the one rewrite that can leave
                // a legal line.
                prop_assert_eq!(which, 0, "rewrite {} left {} legal", which, variant);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Number grammar: JSON's, not `str::parse`'s.
// ---------------------------------------------------------------------------

/// A `suspicion` line with `t`, `node` and `score` spelled as given.
fn suspicion_line(t: &str, node: &str, score: &str) -> String {
    format!(r#"{{"ev":"suspicion","t":{t},"node":{node},"suspect":4,"score":{score},"table":3}}"#)
}

/// Each of `t`, `node`, `score` in turn spelled `bad`: refused, by name.
fn assert_spelling_is_refused(bad: &str) {
    for (field, line) in [
        ("t", suspicion_line(bad, "2", "1.5")),
        ("node", suspicion_line("1", bad, "1.5")),
        ("score", suspicion_line("1", "2", bad)),
    ] {
        let err = parse_line(&line).expect_err(&line);
        assert!(
            err.contains(&format!("field {field:?}")),
            "{line}: the complaint must name {field:?}, got: {err}"
        );
    }
}

#[test]
fn a_leading_plus_sign_is_refused() {
    assert!(parse_line(&suspicion_line("1", "2", "1.5")).is_ok());
    assert_spelling_is_refused("+5");
    // The spelling that used to pass as a `u16`.
    assert!(oracle::parse_line(&suspicion_line("1", "+7", "1.5")).is_ok());
    assert_spelling_is_refused("+7");
}

#[test]
fn a_bare_fraction_is_refused() {
    assert_spelling_is_refused(".5");
}

#[test]
fn a_trailing_decimal_point_is_refused() {
    assert_spelling_is_refused("5.");
}

#[test]
fn leading_zeros_are_refused() {
    assert_spelling_is_refused("007");
    assert_spelling_is_refused("00");
    assert_spelling_is_refused("-01");
}

#[test]
fn exponents_and_fractions_are_legal_on_the_two_float_fields_only() {
    for (t, score, expect) in [
        ("1e0", "2E-1", (1.0, 0.2)),
        ("1.5E+1", "0.25e1", (15.0, 2.5)),
        ("0", "-0.5", (0.0, -0.5)),
        ("-0", "10", (0.0, 10.0)),
    ] {
        match parse_line(&suspicion_line(t, "2", score)) {
            Ok(TelemetryEvent::Suspicion { t, score, .. }) => assert_eq!((t, score), expect),
            other => panic!("t={t} score={score}: {other:?}"),
        }
    }
    for node in ["1e0", "2.0", "2.5", "-0", "-1", "1E2"] {
        let err = parse_line(&suspicion_line("1", node, "1.5")).expect_err(node);
        assert!(err.contains("field \"node\""), "{node}: {err}");
    }
    // Spelled legally, but not a finite f64.
    let err = parse_line(&suspicion_line("1e999", "2", "1.5")).unwrap_err();
    assert!(err.contains("field \"t\""), "{err}");
    // Half-written exponents and doubled signs.
    for t in ["1e", "1e+", "1.5.3", "--1", "1-2", "1e2e3", "-"] {
        let err = parse_line(&suspicion_line(t, "2", "1.5")).expect_err(t);
        assert!(err.contains("field \"t\""), "{t}: {err}");
    }
}

#[test]
fn map_keys_and_counts_follow_the_integer_grammar() {
    let window = |goodput: &str| {
        format!(
            r#"{{"ev":"window","t":1,"window":0,"goodput":{goodput},"queue_peak":0,"cal_resizes":0,"suspicion_peak":0,"fluid_demand":{{}},"fluid_alloc":{{}}}}"#
        )
    };
    assert!(parse_line(&window(r#"{"1":5,"0":6}"#)).is_ok());
    for bad in [
        r#"{"+1":5}"#,
        r#"{"01":5}"#,
        r#"{"1":+5}"#,
        r#"{"1":05}"#,
        r#"{"1":5.0}"#,
        r#"{"4294967296":5}"#,
        r#"{"1":5,"1":6}"#,
        r#"{"1":5,}"#,
    ] {
        assert!(parse_line(&window(bad)).is_err(), "{bad}");
    }
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    let line =
        |kind: &str| format!(r#"{{"ev":"tx_start","t":1,"node":1,"kind":"{kind}","bytes":8}}"#);
    assert!(parse_line(&line(r"D\u0041TA")).is_ok());
    assert!(
        parse_line(&line(r"D\u004aTA")).is_err(),
        "DJTA is no frame kind"
    );
    // `from_str_radix` took a sign; JSON does not.
    assert!(oracle::parse_line(&line(r"D\u+041TA")).is_ok());
    for bad in [
        r"D\u+041TA",
        r"D\u41TA",
        r"D\u004",
        r"D\ud800TA",
        r"D\xTA",
        "D\\",
    ] {
        assert!(parse_line(&line(bad)).is_err(), "{bad}");
    }
}
