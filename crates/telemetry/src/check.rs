//! Stream invariants: schema validation and per-connection conservation.
//!
//! The conservation invariant ties the frame-lifecycle events together: for
//! every connection, each data segment the stack originates is eventually
//! either delivered (first arrival at its destination) or consumed by a
//! *terminal* drop ([`DropKind::is_terminal`](crate::event::DropKind::is_terminal)).
//! Segments still in flight when the run ends show up as a non-negative
//! residual:
//!
//! ```text
//! originated == delivered + terminal_drops + residual,   residual >= 0
//! ```
//!
//! A negative residual means double accounting (a packet both delivered and
//! terminally dropped) and fails the check.

use crate::event::{FrameKind, TelemetryEvent};
use crate::json::parse_line;
use std::collections::BTreeMap;

/// Per-connection accounting extracted from the stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConnAccount {
    /// Payload-carrying segments originated by the sender's stack.
    pub originated: u64,
    /// Data frames delivered to their destination (first arrivals).
    pub delivered: u64,
    /// Data packets consumed by terminal drops.
    pub terminal_drops: u64,
}

impl ConnAccount {
    /// Segments neither delivered nor terminally dropped (in flight, parked
    /// in send buffers, or lost on untracked paths at run end).
    pub fn residual(&self) -> i64 {
        self.originated as i64 - self.delivered as i64 - self.terminal_drops as i64
    }
}

/// The whole stream's conservation ledger.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Conservation {
    /// Ledger rows, keyed by connection id.
    pub per_conn: BTreeMap<u32, ConnAccount>,
}

/// Build the per-connection ledger and verify every residual is
/// non-negative.  Pure ACK originations (`data: false`) are excluded: ACKs
/// are unreliable by design and their losses are not tracked per packet.
pub fn check_conservation(events: &[TelemetryEvent]) -> Result<Conservation, String> {
    let mut ledger = Conservation::default();
    for ev in events {
        match ev {
            TelemetryEvent::Originate {
                conn, data: true, ..
            } => {
                ledger.per_conn.entry(*conn).or_default().originated += 1;
            }
            TelemetryEvent::Deliver {
                conn: Some(conn),
                seq: Some(_),
                ..
            } => {
                ledger.per_conn.entry(*conn).or_default().delivered += 1;
            }
            TelemetryEvent::Drop {
                reason,
                conn: Some(conn),
                kind: FrameKind::Data,
                ..
            } if reason.is_terminal() => {
                ledger.per_conn.entry(*conn).or_default().terminal_drops += 1;
            }
            _ => {}
        }
    }
    for (conn, acc) in &ledger.per_conn {
        if acc.residual() < 0 {
            return Err(format!(
                "connection {conn}: residual {} < 0 (originated {}, delivered {}, terminal drops {})",
                acc.residual(),
                acc.originated,
                acc.delivered,
                acc.terminal_drops
            ));
        }
    }
    Ok(ledger)
}

/// Parse and schema-validate a whole NDJSON document (blank lines are
/// ignored).  Returns the events, or the first offending line's complaint.
pub fn validate_lines(ndjson: &str) -> Result<Vec<TelemetryEvent>, String> {
    // One event per line; a line holds at least `MIN_LINE_BYTES`, which caps
    // what a document of blank lines can reserve.
    const MIN_LINE_BYTES: usize = 32;
    let newlines = ndjson.bytes().filter(|b| *b == b'\n').count();
    let mut events = Vec::with_capacity((newlines + 1).min(ndjson.len() / MIN_LINE_BYTES + 1));
    for (i, line) in ndjson.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

/// Check that time never decreases along the stream (the emission-order
/// contract of the run's buffer).
pub fn check_monotone(events: &[TelemetryEvent]) -> Result<(), String> {
    for (i, pair) in events.windows(2).enumerate() {
        let (prev, t) = (pair[0].time(), pair[1].time());
        if t < prev {
            return Err(format!(
                "event {} ({}) at t={t} precedes t={prev}",
                i + 1,
                pair[1].name()
            ));
        }
    }
    Ok(())
}
