//! # manet-telemetry
//!
//! Structured observability for the MTS reproduction stack: a
//! simulation-time event stream, a windowed metrics sampler, and packet
//! provenance tracing, all emitted as NDJSON (one JSON object per line).
//!
//! The crate sits *below* `manet_wire` and `manet_netsim` in the workspace
//! graph and has no dependencies, so `NetPacket` can name its [`FrameKind`]
//! and the simulator's recorder can carry the per-run [`Telemetry`] buffer.
//! Every layer (engine, MAC, routing, transport, stack) reports through the
//! recorder's one observation call, `Recorder::observe`, which is the only
//! code that writes to the buffer.  Identifiers are plain integers (`u16`
//! node ids, `u32` connection ids, `u64` packet sequence numbers) — the
//! wire-level newtypes unwrap inside the recorder.
//!
//! ## Determinism contract
//!
//! Telemetry **observes, never perturbs**: observations are made after the
//! simulation decision they describe, draw no random numbers and schedule no
//! events, so enabling telemetry leaves golden-trace digests byte-identical.
//! When disabled (the default) each observation pays a single predictable
//! branch on [`Telemetry::enabled`] and the buffer stays empty.  Telemetry output is
//! *outside* the trace digest: two runs with different telemetry settings
//! must produce the same digest.  The NDJSON bytes of one fixed run are
//! pinned separately, by length and hash, in `tests/telemetry.rs`
//! (`ndjson_bytes_of_a_fixed_run_are_pinned`).
//!
//! ## Stream shape
//!
//! Events carry a simulation timestamp (`t`, seconds), and the stream is
//! monotone in `t`.  This is NDJSON v2: every key is one the engine fills.
//! v1 streams carry two more keys, always 0.  The parser rejects them as
//! unknown fields, while `tools/trace_summary.py` still reads them.  See
//! `docs/OBSERVABILITY.md` for the full schema and [`check`] for the
//! invariants the test-suite enforces.

pub mod check;
pub mod event;
pub mod json;
pub mod sampler;
pub mod sink;

pub use check::{check_conservation, check_monotone, validate_lines, ConnAccount, Conservation};
pub use event::{DropKind, FrameKind, Stage, TelemetryEvent, TimerClass, WindowStats};
pub use sampler::Sampler;
pub use sink::{write_ndjson, StringSink, TelemetrySink, WriteSink};

/// Run-level telemetry settings.  The default is **off**: no events, no
/// sampler state, no provenance matching — the hot path pays one predictable
/// branch per observation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetryConfig {
    /// Master switch for the event stream (and the provenance/sampler
    /// features below, which are refinements of it).
    pub enabled: bool,
    /// Fixed simulated-time bucket width (seconds) of the windowed metrics
    /// sampler; `None` disables the sampler even when events are on.
    pub window_secs: Option<f64>,
    /// Follow one tagged packet — identified by `(connection id, TCP
    /// sequence number)` — end-to-end as `provenance` events.
    pub trace_packet: Option<(u32, u64)>,
}

impl TelemetryConfig {
    /// Validate the configuration (sampler window must be positive and
    /// finite).  Returns a human-readable complaint on bad input.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(w) = self.window_secs {
            if !w.is_finite() || w <= 0.0 {
                return Err(format!(
                    "telemetry window must be positive and finite (got {w})"
                ));
            }
        }
        Ok(())
    }
}

/// Per-run telemetry buffer: the event vector, the optional metrics sampler,
/// and the provenance tag.
///
/// Lives inside the simulator's recorder, whose one observation call is the
/// only writer and checks [`Telemetry::enabled`] first, so a disabled run
/// never allocates.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    trace: Option<(u32, u64)>,
    sampler: Option<Sampler>,
    events: Vec<TelemetryEvent>,
}

impl Telemetry {
    /// Build the buffer for one run.
    pub fn from_config(cfg: &TelemetryConfig) -> Self {
        Telemetry {
            enabled: cfg.enabled,
            trace: if cfg.enabled { cfg.trace_packet } else { None },
            sampler: match (cfg.enabled, cfg.window_secs) {
                (true, Some(w)) if w > 0.0 => Some(Sampler::new(w)),
                _ => None,
            },
            events: Vec::new(),
        }
    }

    /// Whether any telemetry is being collected.  The recorder checks this
    /// first; when it is `false` no other method is called.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether a payload-carrying segment `(conn, seq)` matches the
    /// provenance tag.  `data` is the segment's `carries_data()`: pure ACKs
    /// are never traced — the receiver's ACK stream reuses the sender's
    /// connection id and a constant TCP sequence number, so matching ACKs
    /// would tag thousands of unrelated frames instead of one packet.
    #[inline]
    pub fn traced(&self, conn: u32, seq: u64, data: bool) -> bool {
        data && self.trace == Some((conn, seq))
    }

    /// Append an event, first flushing any sampler windows that closed
    /// before its timestamp (keeps the stream monotone in `t`).
    pub fn emit(&mut self, event: TelemetryEvent) {
        if let Some(s) = &mut self.sampler {
            s.roll_to(event.time(), &mut self.events);
        }
        self.events.push(event);
    }

    /// Sampler: add `bytes` of in-order goodput for `conn` at time `t`.
    pub fn note_goodput(&mut self, t: f64, conn: u32, bytes: u64) {
        if let Some(s) = &mut self.sampler {
            s.roll_to(t, &mut self.events);
            s.note_goodput(conn, bytes);
        }
    }

    /// Sampler: a MAC queue reached `len` frames at time `t`.
    pub fn note_queue_len(&mut self, t: f64, len: u32) {
        if let Some(s) = &mut self.sampler {
            s.roll_to(t, &mut self.events);
            s.note_queue_len(len);
        }
    }

    /// Sampler: a suspicion table reached `size` tracked peers at time `t`.
    pub fn note_suspicion_size(&mut self, t: f64, size: u32) {
        if let Some(s) = &mut self.sampler {
            s.roll_to(t, &mut self.events);
            s.note_suspicion_size(size);
        }
    }

    /// Sampler: a fluid epoch at time `t` set `region`'s background demand
    /// and max-min allocation rates (bytes/s).  Later epochs in the same
    /// window overwrite earlier ones — the window reports last-known rates.
    pub fn note_fluid(&mut self, t: f64, region: u32, demand: u64, alloc: u64) {
        if let Some(s) = &mut self.sampler {
            s.roll_to(t, &mut self.events);
            s.note_fluid(region, demand, alloc);
        }
    }

    /// Sampler: the event queue's cumulative calendar-resize count is
    /// `total` as of time `t` (the sampler differences it per window).
    pub fn note_calendar_resizes(&mut self, t: f64, total: u64) {
        if let Some(s) = &mut self.sampler {
            s.roll_to(t, &mut self.events);
            s.note_calendar_resizes(total);
        }
    }

    /// Flush the trailing sampler window at end of run.
    pub fn finalize(&mut self) {
        if let Some(s) = &mut self.sampler {
            s.flush(&mut self.events);
        }
    }

    /// The collected events, in emission order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }
}

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod tests;
