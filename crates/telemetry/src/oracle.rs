//! The codec as it was before the single-pass rewrite, kept as the oracle
//! the property tests compare the new one against: a `write!`-per-field
//! encoder, and a parser that first builds a generic field list
//! (`parse_object`) and then takes fields out of it by name (`Fields`).
//!
//! Only the `Window` arms, the label fields and the field lists were
//! touched, to follow the window payload into `WindowStats`, the labels into
//! their one-byte enums and the format into NDJSON v2.  The parser's number
//! handling is deliberately left as it was: it accepts `+5`, `.5`, `5.` and
//! `007`, which `crate::json` rejects.

use crate::event::{DropKind, FrameKind, Stage, TelemetryEvent, TimerClass, WindowStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `write!`-based encoder `TelemetryEvent::to_ndjson` was before
/// `encode_into`: one `String` per event, every field through `core::fmt`.
pub(crate) fn to_ndjson(ev: &TelemetryEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"ev\":\"{}\"", ev.name());
    match ev {
        TelemetryEvent::Originate {
            t,
            node,
            conn,
            seq,
            data,
            bytes,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_u64(&mut s, "conn", u64::from(*conn));
            push_u64(&mut s, "seq", *seq);
            let _ = write!(s, ",\"data\":{data}");
            push_u64(&mut s, "bytes", u64::from(*bytes));
        }
        TelemetryEvent::FrameEnqueue {
            t,
            node,
            kind,
            bytes,
            queue,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_str(&mut s, "kind", kind.label());
            push_u64(&mut s, "bytes", u64::from(*bytes));
            push_u64(&mut s, "queue", u64::from(*queue));
        }
        TelemetryEvent::TxStart {
            t,
            node,
            kind,
            bytes,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_str(&mut s, "kind", kind.label());
            push_u64(&mut s, "bytes", u64::from(*bytes));
        }
        TelemetryEvent::Collision { t, node, from } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_u64(&mut s, "from", u64::from(*from));
        }
        TelemetryEvent::Deliver {
            t,
            node,
            from,
            kind,
            conn,
            seq,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_u64(&mut s, "from", u64::from(*from));
            push_str(&mut s, "kind", kind.label());
            if let Some(c) = conn {
                push_u64(&mut s, "conn", u64::from(*c));
            }
            if let Some(q) = seq {
                push_u64(&mut s, "seq", *q);
            }
        }
        TelemetryEvent::Drop {
            t,
            node,
            reason,
            kind,
            conn,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_str(&mut s, "reason", reason.label());
            push_str(&mut s, "kind", kind.label());
            if let Some(c) = conn {
                push_u64(&mut s, "conn", u64::from(*c));
            }
        }
        TelemetryEvent::ForgedRrep { t, node, from } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_u64(&mut s, "from", u64::from(*from));
        }
        TelemetryEvent::Suspicion {
            t,
            node,
            suspect,
            score,
            table,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_u64(&mut s, "suspect", u64::from(*suspect));
            push_num(&mut s, "score", *score);
            push_u64(&mut s, "table", u64::from(*table));
        }
        TelemetryEvent::Timer {
            t,
            node,
            class,
            scope,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_str(&mut s, "class", class.label());
            push_u64(&mut s, "scope", u64::from(*scope));
        }
        TelemetryEvent::FlowComplete {
            t,
            node,
            conn,
            bytes,
        } => {
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "node", u64::from(*node));
            push_u64(&mut s, "conn", u64::from(*conn));
            push_u64(&mut s, "bytes", *bytes);
        }
        TelemetryEvent::Provenance {
            t,
            stage,
            node,
            conn,
            seq,
            kind,
        } => {
            push_num(&mut s, "t", *t);
            push_str(&mut s, "stage", stage.label());
            push_u64(&mut s, "node", u64::from(*node));
            push_u64(&mut s, "conn", u64::from(*conn));
            push_u64(&mut s, "seq", *seq);
            push_str(&mut s, "kind", kind.label());
        }
        TelemetryEvent::Window { t, window, stats } => {
            let WindowStats {
                goodput,
                queue_peak,
                cal_resizes,
                suspicion_peak,
                fluid_demand,
                fluid_alloc,
            } = &**stats;
            push_num(&mut s, "t", *t);
            push_u64(&mut s, "window", *window);
            push_u64_map(&mut s, "goodput", goodput);
            push_u64(&mut s, "queue_peak", u64::from(*queue_peak));
            push_u64(&mut s, "cal_resizes", *cal_resizes);
            push_u64(&mut s, "suspicion_peak", u64::from(*suspicion_peak));
            push_u64_map(&mut s, "fluid_demand", fluid_demand);
            push_u64_map(&mut s, "fluid_alloc", fluid_alloc);
        }
    }
    s.push('}');
    s
}

/// Append `,"key":<float>` using Rust's shortest-round-trip formatting
/// (always valid JSON for finite values; telemetry never emits non-finite).
fn push_num(s: &mut String, key: &str, v: f64) {
    debug_assert!(v.is_finite(), "telemetry numbers must be finite");
    let _ = write!(s, ",\"{key}\":{v}");
}

/// Append `,"key":<integer>`.
fn push_u64(s: &mut String, key: &str, v: u64) {
    let _ = write!(s, ",\"{key}\":{v}");
}

/// Append `,"key":{"k":v,...}` for an integer-keyed counter map.
fn push_u64_map(s: &mut String, key: &str, map: &BTreeMap<u32, u64>) {
    let _ = write!(s, ",\"{key}\":{{");
    let mut first = true;
    for (k, v) in map {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
}

/// Append `,"key":"value"` (labels come from closed vocabularies that never
/// need escaping, but escape defensively anyway).
fn push_str(s: &mut String, key: &str, v: &str) {
    let _ = write!(s, ",\"{key}\":\"");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A decoded JSON value (the subset the schema uses).
enum Val {
    /// String, unescaped.
    Str(String),
    /// Number, kept as its raw text so u64 > 2^53 stay exact.
    Num(String),
    Bool(bool),
    /// Flat object of string keys to raw number text (the `goodput` map).
    Map(Vec<(String, String)>),
}

/// Parse one NDJSON line into its event, validating the schema.
pub(crate) fn parse_line(line: &str) -> Result<TelemetryEvent, String> {
    let fields = parse_object(line)?;
    let mut f = Fields::new(fields);
    let ev = f.take_str("ev")?;
    let event = match ev.as_str() {
        "originate" => TelemetryEvent::Originate {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            conn: f.take_u32("conn")?,
            seq: f.take_u64("seq")?,
            data: f.take_bool("data")?,
            bytes: f.take_u32("bytes")?,
        },
        "frame_enqueue" => TelemetryEvent::FrameEnqueue {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            kind: f.take_label("kind", FrameKind::from_label)?,
            bytes: f.take_u32("bytes")?,
            queue: f.take_u32("queue")?,
        },
        "tx_start" => TelemetryEvent::TxStart {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            kind: f.take_label("kind", FrameKind::from_label)?,
            bytes: f.take_u32("bytes")?,
        },
        "collision" => TelemetryEvent::Collision {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            from: f.take_u16("from")?,
        },
        "deliver" => TelemetryEvent::Deliver {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            from: f.take_u16("from")?,
            kind: f.take_label("kind", FrameKind::from_label)?,
            conn: f.take_opt_u32("conn")?,
            seq: f.take_opt_u64("seq")?,
        },
        "drop" => TelemetryEvent::Drop {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            reason: {
                let label = f.take_str("reason")?;
                DropKind::from_label(&label)
                    .ok_or_else(|| format!("unknown drop reason {label:?}"))?
            },
            kind: f.take_label("kind", FrameKind::from_label)?,
            conn: f.take_opt_u32("conn")?,
        },
        "forged_rrep" => TelemetryEvent::ForgedRrep {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            from: f.take_u16("from")?,
        },
        "suspicion" => TelemetryEvent::Suspicion {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            suspect: f.take_u16("suspect")?,
            score: f.take_f64("score")?,
            table: f.take_u32("table")?,
        },
        "timer" => TelemetryEvent::Timer {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            class: f.take_label("class", TimerClass::from_label)?,
            scope: f.take_u16("scope")?,
        },
        "flow_complete" => TelemetryEvent::FlowComplete {
            t: f.take_f64("t")?,
            node: f.take_u16("node")?,
            conn: f.take_u32("conn")?,
            bytes: f.take_u64("bytes")?,
        },
        "provenance" => TelemetryEvent::Provenance {
            t: f.take_f64("t")?,
            stage: f.take_label("stage", Stage::from_label)?,
            node: f.take_u16("node")?,
            conn: f.take_u32("conn")?,
            seq: f.take_u64("seq")?,
            kind: f.take_label("kind", FrameKind::from_label)?,
        },
        "window" => TelemetryEvent::Window {
            t: f.take_f64("t")?,
            window: f.take_u64("window")?,
            stats: Box::new(WindowStats {
                goodput: f.take_u64_map("goodput")?,
                queue_peak: f.take_u32("queue_peak")?,
                cal_resizes: f.take_u64("cal_resizes")?,
                suspicion_peak: f.take_u32("suspicion_peak")?,
                fluid_demand: f.take_u64_map("fluid_demand")?,
                fluid_alloc: f.take_u64_map("fluid_alloc")?,
            }),
        },
        other => return Err(format!("unknown event name {other:?}")),
    };
    f.finish()?;
    Ok(event)
}

/// Field multiset of one object, consumed key by key.
struct Fields(Vec<(String, Val)>);

impl Fields {
    fn new(fields: Vec<(String, Val)>) -> Self {
        Fields(fields)
    }

    fn take(&mut self, key: &str) -> Option<Val> {
        let i = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(i).1)
    }

    fn take_str(&mut self, key: &str) -> Result<String, String> {
        match self.take(key) {
            Some(Val::Str(s)) => Ok(s),
            Some(_) => Err(format!("field {key:?} must be a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn take_label<L>(&mut self, key: &str, from_label: fn(&str) -> Option<L>) -> Result<L, String> {
        let s = self.take_str(key)?;
        from_label(&s).ok_or_else(|| format!("field {key:?}: unknown label {s:?}"))
    }

    fn take_raw_num(&mut self, key: &str) -> Result<String, String> {
        match self.take(key) {
            Some(Val::Num(raw)) => Ok(raw),
            Some(_) => Err(format!("field {key:?} must be a number")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn take_f64(&mut self, key: &str) -> Result<f64, String> {
        let raw = self.take_raw_num(key)?;
        let v: f64 = raw
            .parse()
            .map_err(|_| format!("field {key:?}: bad number {raw:?}"))?;
        if !v.is_finite() {
            return Err(format!("field {key:?}: non-finite number {raw:?}"));
        }
        Ok(v)
    }

    fn take_u64(&mut self, key: &str) -> Result<u64, String> {
        let raw = self.take_raw_num(key)?;
        raw.parse()
            .map_err(|_| format!("field {key:?}: not an unsigned integer: {raw:?}"))
    }

    fn take_u32(&mut self, key: &str) -> Result<u32, String> {
        let v = self.take_u64(key)?;
        u32::try_from(v).map_err(|_| format!("field {key:?}: {v} exceeds u32"))
    }

    fn take_u16(&mut self, key: &str) -> Result<u16, String> {
        let v = self.take_u64(key)?;
        u16::try_from(v).map_err(|_| format!("field {key:?}: {v} exceeds u16"))
    }

    fn take_opt_u32(&mut self, key: &str) -> Result<Option<u32>, String> {
        if self.0.iter().any(|(k, _)| k == key) {
            Ok(Some(self.take_u32(key)?))
        } else {
            Ok(None)
        }
    }

    fn take_opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        if self.0.iter().any(|(k, _)| k == key) {
            Ok(Some(self.take_u64(key)?))
        } else {
            Ok(None)
        }
    }

    fn take_bool(&mut self, key: &str) -> Result<bool, String> {
        match self.take(key) {
            Some(Val::Bool(b)) => Ok(b),
            Some(_) => Err(format!("field {key:?} must be a boolean")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn take_u64_map(&mut self, key: &str) -> Result<BTreeMap<u32, u64>, String> {
        match self.take(key) {
            Some(Val::Map(pairs)) => {
                let mut map = BTreeMap::new();
                for (k, raw) in pairs {
                    let id: u32 = k
                        .parse()
                        .map_err(|_| format!("{key} key {k:?} is not an unsigned id"))?;
                    let count: u64 = raw
                        .parse()
                        .map_err(|_| format!("{key} value {raw:?} is not a count"))?;
                    if map.insert(id, count).is_some() {
                        return Err(format!("{key} key {k:?} repeated"));
                    }
                }
                Ok(map)
            }
            Some(_) => Err(format!("field {key:?} must be an object")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// Error if any unconsumed (unknown) fields remain.
    fn finish(self) -> Result<(), String> {
        if let Some((k, _)) = self.0.first() {
            return Err(format!("unknown field {k:?}"));
        }
        Ok(())
    }
}

/// Tokenizer over one line.
struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t') {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} of {:?}",
                c as char,
                self.i,
                String::from_utf8_lossy(self.s)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("dangling escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                        }
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                }
                c if c < 0x20 => return Err("raw control character in string".into()),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: find the sequence length from the
                    // leading byte and decode via str.
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.i - 1;
                    let chunk = self.s.get(start..start + len).ok_or("truncated UTF-8")?;
                    let decoded = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?;
                    out.push_str(decoded);
                    self.i = start + len;
                }
            }
        }
    }

    fn number_raw(&mut self) -> Result<String, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a number at byte {start}"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => {
                self.literal("true")?;
                Ok(Val::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Val::Bool(false))
            }
            Some(b'{') => {
                self.expect(b'{')?;
                let mut pairs = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Val::Map(pairs));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.number_raw()?));
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Val::Map(pairs));
                        }
                        _ => return Err("expected ',' or '}' in nested object".into()),
                    }
                }
            }
            Some(_) => Ok(Val::Num(self.number_raw()?)),
            None => Err("unexpected end of line".into()),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal {lit:?}"))
        }
    }
}

/// Parse the top-level `{"key":value,...}` object of one line.
fn parse_object(line: &str) -> Result<Vec<(String, Val)>, String> {
    let mut c = Cursor {
        s: line.as_bytes(),
        i: 0,
    };
    c.expect(b'{')?;
    let mut fields = Vec::new();
    if c.peek() == Some(b'}') {
        c.i += 1;
    } else {
        loop {
            let key = c.string()?;
            c.expect(b':')?;
            let val = c.value()?;
            if fields.iter().any(|(k, _): &(String, Val)| *k == key) {
                return Err(format!("field {key:?} repeated"));
            }
            fields.push((key, val));
            match c.peek() {
                Some(b',') => c.i += 1,
                Some(b'}') => {
                    c.i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }
    if c.peek().is_some() {
        return Err("trailing bytes after object".into());
    }
    Ok(fields)
}
