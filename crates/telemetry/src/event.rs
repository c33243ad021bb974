//! The telemetry event vocabulary and its NDJSON encoding.
//!
//! Every event serialises to one JSON object per line with a fixed field
//! order, and every line parses back (see [`crate::json`]) to an identical
//! event — the round-trip is exact because label fields are one-byte enums
//! over closed vocabularies and numbers use Rust's shortest-round-trip
//! formatting.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Define a closed label vocabulary: a one-byte enum whose variants map
/// one-to-one onto snake_case (or upper-case, for frame kinds) wire labels,
/// with `ALL` in discriminant order, `LABELS` parallel to it, `label()` and
/// its inverse `from_label()`.
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every value, in discriminant order.
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$variant),+];

            /// The wire labels, parallel to `ALL`.
            pub const LABELS: [&'static str; [$($label),+].len()] = [$($label),+];

            /// Stable label used on the wire.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Inverse of `label`.
            pub fn from_label(label: &str) -> Option<$name> {
                $name::ALL.into_iter().find(|v| v.label() == label)
            }
        }
    };
}

vocabulary! {
    /// Why a frame or packet was discarded.  One vocabulary shared by the
    /// recorder's drop counters and the telemetry stream (the netsim recorder
    /// re-exports this as `DropReason`).
    ///
    /// *Terminal* reasons consume the packet outright; the rest describe a lost
    /// copy the protocol may still retry or salvage (see
    /// [`DropKind::is_terminal`]).
    pub enum DropKind {
        /// MAC interface queue was full at enqueue time.
        QueueOverflow => "queue_overflow",
        /// Unicast retry limit exhausted (feeds link-failure salvage).
        RetryLimit => "retry_limit",
        /// Reception destroyed by an adversarial jammer.
        Jammed => "jammed",
        /// Discarded by an adversarial (blackhole/grayhole) relay.
        AdversaryDiscard => "adversary",
        /// Routing had no route and could not buffer the packet.
        NoRoute => "no_route",
        /// Route discovery gave up (send-buffer expiry / retry cap).
        DiscoveryFailed => "discovery_failed",
        /// Link-failure salvage found no alternate route.
        SalvageFailed => "salvage_failed",
        /// Omitted by the bounded model-checking schedule explorer: the sender's
        /// MAC saw a successful transmission but the receiver never got the
        /// frame (message-omission fault model; see `crates/mck`).
        ScheduleDrop => "schedule_drop",
    }
}

impl DropKind {
    /// Whether this reason consumes the packet outright (counts against the
    /// per-connection conservation invariant).  `RetryLimit` feeds the
    /// routing layer's salvage path and `Jammed` losses are re-sent by the
    /// MAC retry machinery, so neither is terminal by itself.
    pub fn is_terminal(self) -> bool {
        !matches!(self, DropKind::RetryLimit | DropKind::Jammed)
    }
}

vocabulary! {
    /// The kind of a network-layer packet (`NetPacket::frame_kind()`); its
    /// label is also the key of the recorder's per-kind control counters.
    pub enum FrameKind {
        /// Route request.
        Rreq => "RREQ",
        /// Route reply.
        Rrep => "RREP",
        /// Route error.
        Rerr => "RERR",
        /// MTS route-checking packet.
        Check => "CHECK",
        /// MTS checking-error packet.
        CheckErr => "CHECK_ERR",
        /// TCP data or ACK packet.
        Data => "DATA",
    }
}

vocabulary! {
    /// The pipeline stage a `provenance` event records.
    pub enum Stage {
        /// The source's stack handed the segment to routing.
        Originate => "originate",
        /// The frame joined a MAC interface queue.
        Enqueue => "enqueue",
        /// The frame started transmitting.
        TxStart => "tx_start",
        /// An intermediate node forwarded the packet.
        Relay => "relay",
        /// The packet reached its destination.
        Deliver => "deliver",
        /// The packet was discarded.
        Drop => "drop",
        /// A wormhole carried the frame out of band.
        Tunnel => "tunnel",
    }
}

vocabulary! {
    /// The layer whose timer fired (a `timer` event's `class`).
    pub enum TimerClass {
        /// The routing agent's main timer.
        Routing => "routing",
        /// The routing agent's auxiliary timer.
        RoutingAux => "routing_aux",
        /// A TCP timer.
        Transport => "transport",
        /// An application timer: a staggered flow's start.
        Application => "application",
    }
}

/// One structured telemetry event.  All variants carry the simulation time
/// `t` (seconds).
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A data segment entered the network at its source's routing layer.
    Originate {
        t: f64,
        node: u16,
        conn: u32,
        seq: u64,
        /// `true` for payload-carrying segments, `false` for pure ACKs.
        data: bool,
        bytes: u32,
    },
    /// A frame joined a MAC interface queue.
    FrameEnqueue {
        t: f64,
        node: u16,
        kind: FrameKind,
        bytes: u32,
        /// Queue occupancy after the enqueue.
        queue: u32,
    },
    /// A frame started transmitting on the air.
    TxStart {
        t: f64,
        node: u16,
        kind: FrameKind,
        bytes: u32,
    },
    /// A reception was destroyed by a concurrent transmission.
    Collision {
        t: f64,
        /// Receiver whose reception collided.
        node: u16,
        from: u16,
    },
    /// A frame reached its addressed destination (first arrival only).
    Deliver {
        t: f64,
        node: u16,
        from: u16,
        kind: FrameKind,
        /// Connection id, for data frames.
        conn: Option<u32>,
        /// TCP sequence number, for data frames.
        seq: Option<u64>,
    },
    /// A frame or packet was discarded.
    Drop {
        t: f64,
        node: u16,
        reason: DropKind,
        kind: FrameKind,
        /// Connection id, when the dropped frame carried a data packet.
        conn: Option<u32>,
    },
    /// MTS rejected a route reply that failed source verification.
    ForgedRrep { t: f64, node: u16, from: u16 },
    /// A suspicion score changed.
    Suspicion {
        t: f64,
        node: u16,
        suspect: u16,
        score: f64,
        /// Tracked-peer count of the table after the change.
        table: u32,
    },
    /// A protocol timer fired.
    Timer {
        t: f64,
        node: u16,
        class: TimerClass,
        scope: u16,
    },
    /// A bounded flow acknowledged its whole byte budget.
    FlowComplete {
        t: f64,
        node: u16,
        conn: u32,
        bytes: u64,
    },
    /// The tagged packet (`reproduce trace --packet conn:seq`) passed a pipeline stage.
    Provenance {
        t: f64,
        stage: Stage,
        node: u16,
        conn: u32,
        seq: u64,
        kind: FrameKind,
    },
    /// One closed sampler window (fixed simulated-time bucket).  `t` is the
    /// window's *end* time so the stream stays monotone.
    Window {
        t: f64,
        /// Window index (`floor(event time / window width)`).
        window: u64,
        /// What the sampler accumulated over the window.  Boxed: the three
        /// maps would otherwise set the size of every event in the buffer.
        stats: Box<WindowStats>,
    },
}

/// The payload of a [`TelemetryEvent::Window`].  On the wire its fields
/// follow `window` in declaration order, flat in the same object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// In-order bytes delivered per connection during the window.
    pub goodput: BTreeMap<u32, u64>,
    /// Peak MAC queue occupancy observed.
    pub queue_peak: u32,
    /// Calendar-queue resizes during the window.
    pub cal_resizes: u64,
    /// Peak suspicion-table size observed.
    pub suspicion_peak: u32,
    /// Background fluid demand per region, bytes/s at the last epoch in
    /// the window (empty unless the hybrid engine is on).
    pub fluid_demand: BTreeMap<u32, u64>,
    /// Background fluid allocated rate per region, bytes/s (max-min fair
    /// share of residual capacity; keys mirror `fluid_demand`).
    pub fluid_alloc: BTreeMap<u32, u64>,
}

// The engine pushes one of these per hook and a telemetry-on run holds
// hundreds of thousands of them: one-byte labels keep the event at the
// 40 bytes `Deliver`'s two options need.
const _: () = assert!(std::mem::size_of::<TelemetryEvent>() <= 40);

impl TelemetryEvent {
    /// Simulation time of the event, seconds.
    pub fn time(&self) -> f64 {
        match self {
            TelemetryEvent::Originate { t, .. }
            | TelemetryEvent::FrameEnqueue { t, .. }
            | TelemetryEvent::TxStart { t, .. }
            | TelemetryEvent::Collision { t, .. }
            | TelemetryEvent::Deliver { t, .. }
            | TelemetryEvent::Drop { t, .. }
            | TelemetryEvent::ForgedRrep { t, .. }
            | TelemetryEvent::Suspicion { t, .. }
            | TelemetryEvent::Timer { t, .. }
            | TelemetryEvent::FlowComplete { t, .. }
            | TelemetryEvent::Provenance { t, .. }
            | TelemetryEvent::Window { t, .. } => *t,
        }
    }

    /// The `"ev"` discriminator on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::Originate { .. } => "originate",
            TelemetryEvent::FrameEnqueue { .. } => "frame_enqueue",
            TelemetryEvent::TxStart { .. } => "tx_start",
            TelemetryEvent::Collision { .. } => "collision",
            TelemetryEvent::Deliver { .. } => "deliver",
            TelemetryEvent::Drop { .. } => "drop",
            TelemetryEvent::ForgedRrep { .. } => "forged_rrep",
            TelemetryEvent::Suspicion { .. } => "suspicion",
            TelemetryEvent::Timer { .. } => "timer",
            TelemetryEvent::FlowComplete { .. } => "flow_complete",
            TelemetryEvent::Provenance { .. } => "provenance",
            TelemetryEvent::Window { .. } => "window",
        }
    }

    /// Encode as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let mut s = String::with_capacity(96);
        self.encode_into(&mut s);
        s
    }

    /// Append this event's NDJSON line (no trailing newline) to `out`.
    /// Allocates only if `out` has to grow, so a caller encoding many events
    /// clears and reuses one buffer.
    pub fn encode_into(&self, out: &mut String) {
        out.push_str("{\"ev\":\"");
        out.push_str(self.name());
        out.push('"');
        push_f64(out, ",\"t\":", self.time());
        match self {
            TelemetryEvent::Originate {
                node,
                conn,
                seq,
                data,
                bytes,
                ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_uint(out, ",\"conn\":", *conn);
                push_uint(out, ",\"seq\":", *seq);
                out.push_str(if *data {
                    ",\"data\":true"
                } else {
                    ",\"data\":false"
                });
                push_uint(out, ",\"bytes\":", *bytes);
            }
            TelemetryEvent::FrameEnqueue {
                node,
                kind,
                bytes,
                queue,
                ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_label(out, ",\"kind\":\"", kind.label());
                push_uint(out, ",\"bytes\":", *bytes);
                push_uint(out, ",\"queue\":", *queue);
            }
            TelemetryEvent::TxStart {
                node, kind, bytes, ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_label(out, ",\"kind\":\"", kind.label());
                push_uint(out, ",\"bytes\":", *bytes);
            }
            TelemetryEvent::Collision { node, from, .. }
            | TelemetryEvent::ForgedRrep { node, from, .. } => {
                push_uint(out, ",\"node\":", *node);
                push_uint(out, ",\"from\":", *from);
            }
            TelemetryEvent::Deliver {
                node,
                from,
                kind,
                conn,
                seq,
                ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_uint(out, ",\"from\":", *from);
                push_label(out, ",\"kind\":\"", kind.label());
                if let Some(c) = conn {
                    push_uint(out, ",\"conn\":", *c);
                }
                if let Some(q) = seq {
                    push_uint(out, ",\"seq\":", *q);
                }
            }
            TelemetryEvent::Drop {
                node,
                reason,
                kind,
                conn,
                ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_label(out, ",\"reason\":\"", reason.label());
                push_label(out, ",\"kind\":\"", kind.label());
                if let Some(c) = conn {
                    push_uint(out, ",\"conn\":", *c);
                }
            }
            TelemetryEvent::Suspicion {
                node,
                suspect,
                score,
                table,
                ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_uint(out, ",\"suspect\":", *suspect);
                push_f64(out, ",\"score\":", *score);
                push_uint(out, ",\"table\":", *table);
            }
            TelemetryEvent::Timer {
                node, class, scope, ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_label(out, ",\"class\":\"", class.label());
                push_uint(out, ",\"scope\":", *scope);
            }
            TelemetryEvent::FlowComplete {
                node, conn, bytes, ..
            } => {
                push_uint(out, ",\"node\":", *node);
                push_uint(out, ",\"conn\":", *conn);
                push_uint(out, ",\"bytes\":", *bytes);
            }
            TelemetryEvent::Provenance {
                stage,
                node,
                conn,
                seq,
                kind,
                ..
            } => {
                push_label(out, ",\"stage\":\"", stage.label());
                push_uint(out, ",\"node\":", *node);
                push_uint(out, ",\"conn\":", *conn);
                push_uint(out, ",\"seq\":", *seq);
                push_label(out, ",\"kind\":\"", kind.label());
            }
            TelemetryEvent::Window { window, stats, .. } => {
                push_uint(out, ",\"window\":", *window);
                push_map(out, ",\"goodput\":{", &stats.goodput);
                push_uint(out, ",\"queue_peak\":", stats.queue_peak);
                push_uint(out, ",\"cal_resizes\":", stats.cal_resizes);
                push_uint(out, ",\"suspicion_peak\":", stats.suspicion_peak);
                push_map(out, ",\"fluid_demand\":{", &stats.fluid_demand);
                push_map(out, ",\"fluid_alloc\":{", &stats.fluid_alloc);
            }
        }
        out.push('}');
    }
}

/// Append `key` (a literal `,"name":`) and `v` in Rust's shortest
/// round-trip formatting: plain decimal, never an exponent, so always valid
/// JSON for finite values (telemetry never emits non-finite).
fn push_f64(out: &mut String, key: &str, v: f64) {
    debug_assert!(v.is_finite(), "telemetry numbers must be finite");
    out.push_str(key);
    let _ = write!(out, "{v}");
}

/// Append `key` (a literal `,"name":`) and `v` in decimal.
fn push_uint(out: &mut String, key: &str, v: impl Into<u64>) {
    out.push_str(key);
    push_decimal(out, v.into());
}

fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Append `key` (a literal `,"name":{`) and an integer-keyed counter map as
/// `"k":v,...}`.
fn push_map(out: &mut String, key: &str, map: &BTreeMap<u32, u64>) {
    out.push_str(key);
    for (i, (k, v)) in map.iter().enumerate() {
        out.push_str(if i == 0 { "\"" } else { ",\"" });
        push_decimal(out, u64::from(*k));
        out.push_str("\":");
        push_decimal(out, *v);
    }
    out.push('}');
}

/// Append `key` (a literal `,"name":"`), `v` and the closing quote.  Labels
/// come from closed vocabularies of plain ASCII words: none needs escaping.
fn push_label(out: &mut String, key: &str, v: &str) {
    out.push_str(key);
    out.push_str(v);
    out.push('"');
}
