//! A strict, dependency-free parser for the telemetry NDJSON schema.
//!
//! The stream is decoded by hand, with no serialization library.  The
//! parser is deliberately *strict*: unknown `"ev"` names, missing fields,
//! extra fields, repeated fields, out-of-range integers,
//! numbers JSON's grammar forbids and labels outside their vocabulary are
//! all errors — parsing doubles as schema validation (the CI smoke job and
//! the round-trip property tests both go through it).
//!
//! It is also *schema-directed*: the `"ev"` name selects one field table
//! (`Kind::fields`), and each value is then read straight into the typed
//! slot its table entry names, in one pass over the line and without
//! building a generic JSON value first.  Keys, labels and numbers are
//! borrowed from the line; only a string with a backslash escape is copied.
//! Fields may come in any order.  The encoder writes `"ev"` first; a line
//! that does not is scanned once more, ahead of the pass, for its name.

use crate::event::{DropKind, FrameKind, Stage, TelemetryEvent, TimerClass, WindowStats};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// What a field's value must be.
#[derive(Clone, Copy)]
enum Ty {
    /// A JSON number, finite as an `f64` (the only place an exponent or a
    /// fraction is legal).
    F64,
    U16,
    U32,
    U64,
    Bool,
    /// A string from the given closed vocabulary (an enum's `LABELS`),
    /// stored as its index there.
    Label(&'static [&'static str]),
    /// A flat `{"<u32>":<u64>,...}` object, stored in `Slots::maps[_]`.
    Map(usize),
}

/// One entry of an event's field table.
struct Field {
    key: &'static str,
    ty: Ty,
    /// Absent is legal (the `Option` fields of `deliver` and `drop`).
    optional: bool,
}

const fn req(key: &'static str, ty: Ty) -> Field {
    Field {
        key,
        ty,
        optional: false,
    }
}

const fn opt(key: &'static str, ty: Ty) -> Field {
    Field {
        key,
        ty,
        optional: true,
    }
}

const T: Field = req("t", Ty::F64);
const NODE: Field = req("node", Ty::U16);
const FROM: Field = req("from", Ty::U16);
const KIND: Field = req("kind", Ty::Label(&FrameKind::LABELS));

// One table per event, in the encoder's field order.
const ORIGINATE: &[Field] = &[
    T,
    NODE,
    req("conn", Ty::U32),
    req("seq", Ty::U64),
    req("data", Ty::Bool),
    req("bytes", Ty::U32),
];
const FRAME_ENQUEUE: &[Field] = &[T, NODE, KIND, req("bytes", Ty::U32), req("queue", Ty::U32)];
const TX_START: &[Field] = &[T, NODE, KIND, req("bytes", Ty::U32)];
const COLLISION: &[Field] = &[T, NODE, FROM];
const DELIVER: &[Field] = &[
    T,
    NODE,
    FROM,
    KIND,
    opt("conn", Ty::U32),
    opt("seq", Ty::U64),
];
const DROP: &[Field] = &[
    T,
    NODE,
    req("reason", Ty::Label(&DropKind::LABELS)),
    KIND,
    opt("conn", Ty::U32),
];
const SUSPICION: &[Field] = &[
    T,
    NODE,
    req("suspect", Ty::U16),
    req("score", Ty::F64),
    req("table", Ty::U32),
];
const TIMER: &[Field] = &[
    T,
    NODE,
    req("class", Ty::Label(&TimerClass::LABELS)),
    req("scope", Ty::U16),
];
const FLOW_COMPLETE: &[Field] = &[T, NODE, req("conn", Ty::U32), req("bytes", Ty::U64)];
const PROVENANCE: &[Field] = &[
    T,
    req("stage", Ty::Label(&Stage::LABELS)),
    NODE,
    req("conn", Ty::U32),
    req("seq", Ty::U64),
    KIND,
];
const WINDOW: &[Field] = &[
    T,
    req("window", Ty::U64),
    req("goodput", Ty::Map(0)),
    req("queue_peak", Ty::U32),
    req("cal_resizes", Ty::U64),
    req("suspicion_peak", Ty::U32),
    req("fluid_demand", Ty::Map(1)),
    req("fluid_alloc", Ty::Map(2)),
];

/// The most fields any event has (`window`); `Slots::seen` is a `u16`.
const MAX_FIELDS: usize = 8;

/// The event a line's `"ev"` names.  `fields` and `build` are the schema:
/// entry *i* of the table is argument *i* of the constructor, in the
/// encoder's field order.
#[derive(Clone, Copy)]
enum Kind {
    Originate,
    FrameEnqueue,
    TxStart,
    Collision,
    Deliver,
    Drop,
    ForgedRrep,
    Suspicion,
    Timer,
    FlowComplete,
    Provenance,
    Window,
}

impl Kind {
    fn from_name(name: &str) -> Option<Kind> {
        Some(match name {
            "originate" => Kind::Originate,
            "frame_enqueue" => Kind::FrameEnqueue,
            "tx_start" => Kind::TxStart,
            "collision" => Kind::Collision,
            "deliver" => Kind::Deliver,
            "drop" => Kind::Drop,
            "forged_rrep" => Kind::ForgedRrep,
            "suspicion" => Kind::Suspicion,
            "timer" => Kind::Timer,
            "flow_complete" => Kind::FlowComplete,
            "provenance" => Kind::Provenance,
            "window" => Kind::Window,
            _ => return None,
        })
    }

    fn fields(self) -> &'static [Field] {
        match self {
            Kind::Originate => ORIGINATE,
            Kind::FrameEnqueue => FRAME_ENQUEUE,
            Kind::TxStart => TX_START,
            Kind::Collision | Kind::ForgedRrep => COLLISION,
            Kind::Deliver => DELIVER,
            Kind::Drop => DROP,
            Kind::Suspicion => SUSPICION,
            Kind::Timer => TIMER,
            Kind::FlowComplete => FLOW_COMPLETE,
            Kind::Provenance => PROVENANCE,
            Kind::Window => WINDOW,
        }
    }

    fn build(self, s: Slots) -> TelemetryEvent {
        let t = s.f64(0);
        match self {
            Kind::Originate => TelemetryEvent::Originate {
                t,
                node: s.u16(1),
                conn: s.u32(2),
                seq: s.num[3],
                data: s.num[4] != 0,
                bytes: s.u32(5),
            },
            Kind::FrameEnqueue => TelemetryEvent::FrameEnqueue {
                t,
                node: s.u16(1),
                kind: FrameKind::ALL[s.index(2)],
                bytes: s.u32(3),
                queue: s.u32(4),
            },
            Kind::TxStart => TelemetryEvent::TxStart {
                t,
                node: s.u16(1),
                kind: FrameKind::ALL[s.index(2)],
                bytes: s.u32(3),
            },
            Kind::Collision => TelemetryEvent::Collision {
                t,
                node: s.u16(1),
                from: s.u16(2),
            },
            Kind::Deliver => TelemetryEvent::Deliver {
                t,
                node: s.u16(1),
                from: s.u16(2),
                kind: FrameKind::ALL[s.index(3)],
                conn: s.has(4).then(|| s.u32(4)),
                seq: s.has(5).then(|| s.num[5]),
            },
            Kind::Drop => TelemetryEvent::Drop {
                t,
                node: s.u16(1),
                reason: DropKind::ALL[s.index(2)],
                kind: FrameKind::ALL[s.index(3)],
                conn: s.has(4).then(|| s.u32(4)),
            },
            Kind::ForgedRrep => TelemetryEvent::ForgedRrep {
                t,
                node: s.u16(1),
                from: s.u16(2),
            },
            Kind::Suspicion => TelemetryEvent::Suspicion {
                t,
                node: s.u16(1),
                suspect: s.u16(2),
                score: s.f64(3),
                table: s.u32(4),
            },
            Kind::Timer => TelemetryEvent::Timer {
                t,
                node: s.u16(1),
                class: TimerClass::ALL[s.index(2)],
                scope: s.u16(3),
            },
            Kind::FlowComplete => TelemetryEvent::FlowComplete {
                t,
                node: s.u16(1),
                conn: s.u32(2),
                bytes: s.num[3],
            },
            Kind::Provenance => TelemetryEvent::Provenance {
                t,
                stage: Stage::ALL[s.index(1)],
                node: s.u16(2),
                conn: s.u32(3),
                seq: s.num[4],
                kind: FrameKind::ALL[s.index(5)],
            },
            Kind::Window => {
                let (queue_peak, suspicion_peak) = (s.u32(3), s.u32(5));
                let [goodput, fluid_demand, fluid_alloc] = s.maps;
                TelemetryEvent::Window {
                    t,
                    window: s.num[1],
                    stats: Box::new(WindowStats {
                        goodput,
                        queue_peak,
                        cal_resizes: s.num[4],
                        suspicion_peak,
                        fluid_demand,
                        fluid_alloc,
                    }),
                }
            }
        }
    }
}

/// The values read so far, by position in the event's field table.
#[derive(Default)]
struct Slots {
    /// Bit *i*: field *i* has been read (finds repeated and missing fields).
    seen: u16,
    /// Integers as themselves, already checked against the field's width;
    /// booleans as 0/1, `f64`s as their bits, a label as its index in its
    /// vocabulary's `ALL`.
    num: [u64; MAX_FIELDS],
    maps: [BTreeMap<u32, u64>; 3],
}

impl Slots {
    fn has(&self, i: usize) -> bool {
        self.seen & (1 << i) != 0
    }

    fn f64(&self, i: usize) -> f64 {
        f64::from_bits(self.num[i])
    }

    fn u32(&self, i: usize) -> u32 {
        self.num[i] as u32
    }

    fn u16(&self, i: usize) -> u16 {
        self.num[i] as u16
    }

    fn index(&self, i: usize) -> usize {
        self.num[i] as usize
    }
}

/// Parse one NDJSON line into its event, validating the schema.
pub fn parse_line(line: &str) -> Result<TelemetryEvent, String> {
    let mut c = Cursor { line, i: 0 };
    c.expect(b'{')?;
    let mut kind = None;
    // The table of `kind`; empty until a field other than "ev" needs it.
    let mut fields: &[Field] = &[];
    let mut ev_seen = false;
    let mut slots = Slots::default();
    // The field the encoder would write next.
    let mut next = 0;
    loop {
        let field = if fields.get(next).is_some_and(|f| c.at_key(f.key)) {
            Some(next)
        } else {
            let key = c.string()?;
            c.expect(b':')?;
            if key == "ev" {
                if ev_seen {
                    return Err(repeated("ev"));
                }
                ev_seen = true;
                let named = c.event_kind()?;
                fields = kind.insert(named).fields();
                None
            } else {
                if kind.is_none() {
                    fields = kind.insert(event_kind_of(line)?).fields();
                }
                let at = fields.iter().position(|f| f.key == key);
                Some(at.ok_or_else(|| format!("unknown field {key:?}"))?)
            }
        };
        if let Some(i) = field {
            if slots.has(i) {
                return Err(repeated(fields[i].key));
            }
            slots.seen |= 1 << i;
            c.value(&fields[i], i, &mut slots)?;
            next = i + 1;
        }
        match c.peek() {
            Some(b',') => c.i += 1,
            Some(b'}') => {
                c.i += 1;
                break;
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    if c.peek().is_some() {
        return Err("trailing bytes after object".into());
    }
    let Some(kind) = kind else {
        return Err(missing("ev"));
    };
    if let Some(f) = fields
        .iter()
        .enumerate()
        .find_map(|(i, f)| (!f.optional && !slots.has(i)).then_some(f))
    {
        return Err(missing(f.key));
    }
    Ok(kind.build(slots))
}

/// The event named by `line`'s `"ev"` field, for a line that puts another
/// field first.  Values on the way are skipped under the same grammar the
/// main pass reads them with.
#[cold]
fn event_kind_of(line: &str) -> Result<Kind, String> {
    let mut c = Cursor { line, i: 0 };
    c.expect(b'{')?;
    loop {
        let key = c.string()?;
        c.expect(b':')?;
        if key == "ev" {
            return c.event_kind();
        }
        match c.peek() {
            Some(b'"') => drop(c.string()?),
            Some(b'{') => drop(c.map(&key)?),
            Some(b't' | b'f') => drop(c.boolean(&key)?),
            _ => drop(c.float(&key)?),
        }
        match c.peek() {
            Some(b',') => c.i += 1,
            Some(b'}') => return Err(missing("ev")),
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

#[cold]
fn missing(key: &str) -> String {
    format!("missing field {key:?}")
}

#[cold]
fn repeated(key: &str) -> String {
    format!("field {key:?} repeated")
}

/// JSON's unsigned `int` at the start of `b`: `0`, or a non-zero digit and
/// any more digits.  Returns the value and the digit count; `None` without
/// a digit, on a leading zero, and past `u64::MAX`.
fn leading_uint(b: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut n = 0;
    while let Some(d) = b.get(n).map(|c| c.wrapping_sub(b'0')).filter(|d| *d <= 9) {
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
        n += 1;
    }
    (n == 1 || (n > 1 && b[0] != b'0')).then_some((v, n))
}

/// Length of the JSON number at the start of `b`:
/// `-? int (. digit+)? ((e|E) (+|-)? digit+)?`, `None` if there is none.
fn json_number_len(b: &[u8]) -> Option<usize> {
    let digits = |from: usize| b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let mut n = usize::from(b.first() == Some(&b'-'));
    match digits(n) {
        0 => return None,
        1 => n += 1,
        more if b[n] != b'0' => n += more,
        _ => return None,
    }
    if b.get(n) == Some(&b'.') {
        match digits(n + 1) {
            0 => return None,
            frac => n += 1 + frac,
        }
    }
    if matches!(b.get(n), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(b.get(n + 1), Some(b'+' | b'-')));
        match digits(n + 1 + sign) {
            0 => return None,
            exp => n += 1 + sign + exp,
        }
    }
    Some(n)
}

/// A byte that can only continue a number token (`1.5.3`, `5.`, `1e`, `1-2`).
fn continues_number(b: Option<&u8>) -> bool {
    matches!(b, Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
}

/// Tokenizer over one line.  Blanks (space, tab) may surround any token.
struct Cursor<'a> {
    line: &'a str,
    i: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.i..]
    }

    fn skip_blanks(&mut self) {
        while matches!(self.rest().first(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_blanks();
        self.rest().first().copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} of {:?}",
                c as char, self.i, self.line
            ))
        }
    }

    /// Whether the cursor is at `"<key>":` spelled exactly so (no blanks,
    /// no escapes), as the encoder writes it; steps over it if so.
    fn at_key(&mut self, key: &str) -> bool {
        let hit = self
            .rest()
            .strip_prefix(b"\"")
            .and_then(|rest| rest.strip_prefix(key.as_bytes()))
            .is_some_and(|rest| rest.starts_with(b"\":"));
        if hit {
            self.i += key.len() + 3;
        }
        hit
    }

    /// A string token; borrowed from the line unless it has an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            // `"` and `\` are ASCII, so they never sit inside a multi-byte
            // character and the slices below fall on character boundaries.
            match self.rest().first() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(Cow::Borrowed(&self.line[start..self.i - 1]));
                }
                Some(b'\\') => return self.escaped_string(start).map(Cow::Owned),
                Some(c) if *c < 0x20 => return Err("raw control character in string".into()),
                Some(_) => self.i += 1,
            }
        }
    }

    /// The rest of a string token whose first backslash is at `self.i`;
    /// `start` is where its text began.
    #[cold]
    fn escaped_string(&mut self, start: usize) -> Result<String, String> {
        let mut out = String::from(&self.line[start..self.i]);
        loop {
            let run = self.i;
            while !matches!(self.rest().first(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.i += 1;
            }
            out.push_str(&self.line[run..self.i]);
            match self.rest() {
                [] => return Err("unterminated string".into()),
                [b'"', ..] => {
                    self.i += 1;
                    return Ok(out);
                }
                [b'\\', b'u', hex @ ..] => {
                    let hex = hex.get(..4).ok_or("truncated \\u escape")?;
                    let code = hex
                        .iter()
                        .try_fold(0, |code, h| Some(code * 16 + char::from(*h).to_digit(16)?))
                        .ok_or("bad \\u escape")?;
                    out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    self.i += 6;
                }
                [b'\\', e, ..] => {
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        other => return Err(format!("unsupported escape \\{}", *other as char)),
                    });
                    self.i += 2;
                }
                [b'\\'] => return Err("dangling escape".into()),
                _ => return Err("raw control character in string".into()),
            }
        }
    }

    /// The value of an `"ev"` key.
    fn event_kind(&mut self) -> Result<Kind, String> {
        if self.peek() != Some(b'"') {
            return Err("field \"ev\" must be a string".into());
        }
        let name = self.string()?;
        Kind::from_name(&name).ok_or_else(|| format!("unknown event name {name:?}"))
    }

    /// Read the value of field `i` of the table, `f`, into its slot.
    fn value(&mut self, f: &Field, i: usize, slots: &mut Slots) -> Result<(), String> {
        let key = f.key;
        match f.ty {
            Ty::F64 => slots.num[i] = self.float(key)?.to_bits(),
            Ty::U64 => slots.num[i] = self.uint(key)?,
            Ty::U32 => slots.num[i] = self.uint_up_to(key, u64::from(u32::MAX), "u32")?,
            Ty::U16 => slots.num[i] = self.uint_up_to(key, u64::from(u16::MAX), "u16")?,
            Ty::Bool => slots.num[i] = u64::from(self.boolean(key)?),
            Ty::Label(vocab) => {
                let s = self.label(key)?;
                let at = vocab.iter().position(|l| *l == s);
                slots.num[i] =
                    at.ok_or_else(|| format!("field {key:?}: unknown label {s:?}"))? as u64;
            }
            Ty::Map(m) => slots.maps[m] = self.map(key)?,
        }
        Ok(())
    }

    fn label(&mut self, key: &str) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("field {key:?} must be a string"));
        }
        self.string()
    }

    fn boolean(&mut self, key: &str) -> Result<bool, String> {
        self.skip_blanks();
        for (text, v) in [("true", true), ("false", false)] {
            if self.rest().starts_with(text.as_bytes()) {
                self.i += text.len();
                return Ok(v);
            }
        }
        Err(format!("field {key:?} must be a boolean"))
    }

    /// An unsigned integer in JSON's spelling: no sign, no leading zero, no
    /// fraction, no exponent.
    fn uint(&mut self, key: &str) -> Result<u64, String> {
        self.skip_blanks();
        match leading_uint(self.rest()) {
            Some((v, n)) if !continues_number(self.rest().get(n)) => {
                self.i += n;
                Ok(v)
            }
            _ => Err(self.bad_number(key, "not an unsigned integer")),
        }
    }

    fn uint_up_to(&mut self, key: &str, max: u64, width: &str) -> Result<u64, String> {
        let v = self.uint(key)?;
        if v > max {
            return Err(format!("field {key:?}: {v} exceeds {width}"));
        }
        Ok(v)
    }

    /// A finite number in JSON's spelling.
    fn float(&mut self, key: &str) -> Result<f64, String> {
        self.skip_blanks();
        let rest = self.rest();
        let text = match json_number_len(rest) {
            Some(n) if !continues_number(rest.get(n)) => &self.line[self.i..self.i + n],
            _ => return Err(self.bad_number(key, "bad number")),
        };
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => {
                self.i += text.len();
                Ok(v)
            }
            _ => Err(format!("field {key:?}: non-finite number {text:?}")),
        }
    }

    /// The complaint about the number-like token at the cursor.
    #[cold]
    fn bad_number(&self, key: &str, what: &str) -> String {
        let rest = self.rest();
        let len = (0..rest.len())
            .find(|n| !continues_number(rest.get(*n)))
            .unwrap_or(rest.len());
        if len == 0 {
            format!("field {key:?} must be a number")
        } else {
            format!(
                "field {key:?}: {what}: {:?}",
                &self.line[self.i..self.i + len]
            )
        }
    }

    /// A flat `{"<u32>":<u64>,...}` object.
    fn map(&mut self, key: &str) -> Result<BTreeMap<u32, u64>, String> {
        if self.peek() != Some(b'{') {
            return Err(format!("field {key:?} must be an object"));
        }
        self.i += 1;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(map);
        }
        loop {
            let k = self.string()?;
            let id = leading_uint(k.as_bytes())
                .filter(|(_, n)| *n == k.len())
                .and_then(|(id, _)| u32::try_from(id).ok())
                .ok_or_else(|| format!("{key} key {k:?} is not an unsigned id"))?;
            self.expect(b':')?;
            if map.insert(id, self.uint(key)?).is_some() {
                return Err(format!("{key} key {k:?} repeated"));
            }
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(map);
                }
                _ => return Err("expected ',' or '}' in nested object".into()),
            }
        }
    }
}
