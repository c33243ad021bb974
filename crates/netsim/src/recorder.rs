//! Per-run trace recorder.
//!
//! The engine and the protocol stacks report every observable the paper's
//! metrics need: data-packet originations, per-hop relays, deliveries with
//! latencies, promiscuous overhearing (for the eavesdropper), routing control
//! transmissions (for the overhead metric) and drops.  Each event site makes
//! one call, [`Recorder::observe`], with one [`Observation`]; the recorder
//! folds it into its counters, the trace fingerprint and, when it is on, the
//! telemetry stream.  The `manet-security` and `manet-experiments` crates
//! turn this raw record into the figures.

use crate::event::EventQueue;
use crate::fasthash::{FxHashMap, FxHashSet, FxHasher};
use crate::time::{Duration, SimTime};
use manet_telemetry::{FrameKind, Stage, Telemetry, TelemetryEvent, TimerClass};
use manet_wire::{ConnectionId, DataPacket, Frame, NetPacket, NodeId, PacketId};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// Why a frame or packet was discarded — the unified vocabulary shared by
/// every layer's drop accounting and by the telemetry stream (it is
/// [`manet_telemetry::DropKind`] re-exported under the name the engine has
/// always used).  MAC-level reasons (`QueueOverflow`, `RetryLimit`,
/// `Jammed`), adversarial discards and routing-layer reasons (`NoRoute`,
/// `DiscoveryFailed`, `SalvageFailed`) all arrive as an
/// [`Observation::Drop`] (or, for `RetryLimit`, an
/// [`Observation::LinkFailure`]).
pub use manet_telemetry::DropKind as DropReason;

/// A single trace entry (kept optionally, for debugging and the trace example).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A frame started transmission.
    TxStart {
        /// Transmitting node.
        node: NodeId,
        /// Packet kind label (RREQ, DATA, ...).
        kind: &'static str,
        /// On-air size in bytes.
        bytes: u32,
        /// Time the transmission started.
        at: SimTime,
    },
    /// A data packet was delivered to its final destination.
    Delivered {
        /// Destination node.
        node: NodeId,
        /// Packet id.
        packet: PacketId,
        /// Delivery time.
        at: SimTime,
    },
    /// A unicast frame exhausted its retries.
    LinkFailure {
        /// Transmitting node.
        node: NodeId,
        /// Intended next hop.
        next_hop: NodeId,
        /// Time of the failure.
        at: SimTime,
    },
}

impl TraceEvent {
    /// Feed the event to `h` field by field: a variant tag, the ids, the
    /// `kind` label and the bit pattern of the time.  Every event writes a
    /// tag-determined sequence of fixed-width words (the label is
    /// length-terminated by `str`'s `Hash`), so distinct traces feed
    /// distinct word streams; sim-times are finite, where equal bits and
    /// equal values coincide except for the sign of zero, which `Debug`
    /// tells apart too.
    fn fold_into(&self, h: &mut FxHasher) {
        match *self {
            TraceEvent::TxStart {
                node,
                kind,
                bytes,
                at,
            } => (0u8, node, kind, bytes, at.as_secs().to_bits()).hash(h),
            TraceEvent::Delivered { node, packet, at } => {
                (1u8, node, packet, at.as_secs().to_bits()).hash(h)
            }
            TraceEvent::LinkFailure { node, next_hop, at } => {
                (2u8, node, next_hop, at.as_secs().to_bits()).hash(h)
            }
        }
    }
}

/// What a recorder keeps of the [`TraceEvent`] stream.  Every mode but
/// `Off` folds each event into the trace fingerprint
/// ([`Recorder::trace_fingerprint`]) as it happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceMode {
    /// No trace (the default).
    #[default]
    Off,
    /// The fingerprint only: a traced run's identity without the buffer.
    Fingerprint,
    /// The fingerprint and every event, readable through [`Recorder::trace`].
    Keep,
}

/// One thing that happened in a run, as an event site reports it to
/// [`Recorder::observe`].
///
/// Variants carry ids and small `Copy` fields, or borrow the packet they are
/// about: whatever only telemetry needs (a frame's kind and size, a segment's
/// connection and sequence number) is read inside `observe`, and only when
/// telemetry is on.
#[derive(Debug, Clone, Copy)]
pub enum Observation<'a> {
    /// A source's stack handed a data packet to its routing layer.
    Originate {
        node: NodeId,
        packet: &'a DataPacket,
    },
    /// A frame joined `node`'s MAC queue, which now holds `queue` frames.
    Enqueue {
        node: NodeId,
        frame: &'a Frame,
        queue: u32,
    },
    /// `node` started transmitting a frame of `bytes` on-air bytes (the
    /// engine reports every frame).  `events` is the future event list,
    /// whose calendar-resize count the telemetry sampler reads.
    TxStart {
        node: NodeId,
        packet: &'a NetPacket,
        bytes: u32,
        events: &'a EventQueue,
    },
    /// A concurrent transmission destroyed `node`'s reception from `from`.
    Collision { node: NodeId, from: NodeId },
    /// `node`, not the packet's final destination, received a data packet
    /// to forward ("relayed" / "received" in the paper's Table I).
    Relay {
        node: NodeId,
        packet: &'a DataPacket,
    },
    /// `node` overheard a data packet it was not the MAC destination of.
    Overheard {
        node: NodeId,
        packet: &'a DataPacket,
    },
    /// A data packet reached its final destination `node` from the previous
    /// hop `from`.  Only its first arrival counts; `observe` decides which
    /// one that is.
    Deliver {
        node: NodeId,
        from: NodeId,
        packet: &'a DataPacket,
    },
    /// `node` discarded a frame or packet.  A unicast that exhausted its
    /// retries is a [`Observation::LinkFailure`] instead.
    Drop {
        node: NodeId,
        reason: DropReason,
        packet: PacketRef<'a>,
    },
    /// A unicast from `node` to `next_hop` exhausted its retry budget: a
    /// [`DropReason::RetryLimit`] drop and a link failure.
    LinkFailure {
        node: NodeId,
        next_hop: NodeId,
        packet: &'a NetPacket,
    },
    /// A frame entered a wormhole's out-of-band tunnel (either direction).
    Tunnel { packet: &'a NetPacket },
    /// A tunnelled frame came out at the far wormhole endpoint `node`.
    TunnelExit { node: NodeId, packet: &'a NetPacket },
    /// A protocol timer of `class` fired on `node`; `scope` is its
    /// connection, or 0.
    Timer {
        node: NodeId,
        class: TimerClass,
        scope: u16,
    },
    /// A bounded flow (TCP or background fluid) from `node` moved its whole
    /// byte budget, `bytes`.
    FlowComplete { node: NodeId, conn: u32, bytes: u64 },
    /// MTS at `node` rejected a route reply from `from` that failed source
    /// verification.
    ForgedRrep { node: NodeId, from: NodeId },
    /// `node`'s suspicion score of `suspect` changed to `score`; its table
    /// now tracks `table` peers.
    Suspicion {
        node: NodeId,
        suspect: NodeId,
        score: f64,
        table: u32,
    },
    /// A suspicion table tracks `size` peers (the sampler's periodic feed).
    SuspicionTable { size: u32 },
    /// A fluid epoch set every region's background demand and max-min
    /// allocation rates (bytes/s, indexed by region).
    FluidRates { demand: &'a [f64], alloc: &'a [f64] },
    /// The byte ledger of one background fluid flow (written once per flow
    /// at the end of the run).
    FluidFlow { conn: u32, totals: FluidFlowTotals },
    /// The run ended with these engine counters.
    Finalize { perf: EnginePerf },
}

impl Observation<'_> {
    /// The provenance rule, for every observation in one place: the pipeline
    /// stage this observation moves a packet through, the node, and the
    /// packet's `(conn, seq, carries_data)`.  A drop ends the trail exactly
    /// when its reason is terminal ([`DropReason::is_terminal`]).
    fn stage(&self) -> Option<(Stage, NodeId, (u32, u64, bool))> {
        let (stage, node, packet) = match *self {
            Observation::Originate { node, packet } => {
                (Stage::Originate, node, PacketRef::Data(packet))
            }
            Observation::Enqueue { node, frame, .. } => {
                (Stage::Enqueue, node, PacketRef::Net(&frame.payload))
            }
            Observation::TxStart { node, packet, .. } => {
                (Stage::TxStart, node, PacketRef::Net(packet))
            }
            Observation::Relay { node, packet } => (Stage::Relay, node, PacketRef::Data(packet)),
            Observation::Deliver { node, packet, .. } => {
                (Stage::Deliver, node, PacketRef::Data(packet))
            }
            Observation::Drop {
                node,
                reason,
                packet,
            } if reason.is_terminal() => (Stage::Drop, node, packet),
            Observation::TunnelExit { node, packet } => {
                (Stage::Tunnel, node, PacketRef::Net(packet))
            }
            _ => return None,
        };
        packet.segment().map(|segment| (stage, node, segment))
    }
}

/// The packet an [`Observation::Drop`] is about, as much of it as the
/// dropping site still holds.
#[derive(Debug, Clone, Copy)]
pub enum PacketRef<'a> {
    /// A network packet of any kind.
    Net(&'a NetPacket),
    /// A data packet held above the MAC (routing buffers, adversaries).
    Data(&'a DataPacket),
    /// A frame whose payload the engine already handed on: its kind and,
    /// for a data packet, `(conn, seq, carries_data)`.
    Summary(FrameKind, Option<(u32, u64, bool)>),
}

impl PacketRef<'_> {
    /// The summary of `packet`, for a drop observed after the payload itself
    /// has been handed on.
    pub(crate) fn summary(packet: &NetPacket) -> PacketRef<'static> {
        PacketRef::Summary(packet.frame_kind(), PacketRef::Net(packet).segment())
    }

    /// The packet's kind.
    fn kind(self) -> FrameKind {
        match self {
            PacketRef::Net(packet) => packet.frame_kind(),
            PacketRef::Data(_) => FrameKind::Data,
            PacketRef::Summary(kind, _) => kind,
        }
    }

    /// `(conn, seq, carries_data)` of a data packet.
    fn segment(self) -> Option<(u32, u64, bool)> {
        let of = |dp: &DataPacket| (dp.segment.conn.0, dp.segment.seq, dp.carries_data());
        match self {
            PacketRef::Net(packet) => packet.as_data().map(of),
            PacketRef::Data(dp) => Some(of(dp)),
            PacketRef::Summary(_, segment) => segment,
        }
    }
}

/// Engine-internal performance counters for one run, filled in by the
/// simulator when the run ends.  These expose how hard the neighbor index and
/// the position cache worked, for the scaling benches and for regression
/// hunting (e.g. a mobility change that silently explodes rebind rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnginePerf {
    /// Neighbourhoods resolved: one per transmission (answered from the
    /// node's cache or by a scan) plus `neighbors_into` lookups.
    pub neighbor_queries: u64,
    /// Transmissions whose neighbourhood came from the node's cache, with no
    /// scan (see `crate::neighborhood`).
    pub neighbor_cache_hits: u64,
    /// Grid candidates really visited (the exact-distance filter runs once
    /// per candidate).
    pub candidates_scanned: u64,
    /// Nodes rebinned into a different grid cell (leg changes + drift
    /// refreshes that crossed a cell boundary).
    pub grid_rebinds: u64,
    /// Deferred drift-refresh entries processed from the grid's refresh queue.
    pub grid_refreshes: u64,
    /// `position_at` evaluations avoided by the per-(node, time) cache.
    pub position_cache_hits: u64,
    /// `position_at` evaluations actually performed.
    pub position_cache_misses: u64,
    /// Events the engine processed during the run (throughput denominator
    /// for events/sec reporting).
    pub events_processed: u64,
    /// Events pushed onto the future event list.
    pub queue_pushes: u64,
    /// Events popped off the future event list.
    pub queue_pops: u64,
    /// Maximum simultaneous event-queue occupancy observed.
    pub queue_max_occupancy: u64,
    /// Times the calendar event queue grew its bucket array or re-tuned its
    /// width.
    pub calendar_resizes: u64,
    /// Payload deliveries that shared the transmitted packet's allocation
    /// instead of deep-cloning it (each one is a clone the pre-`Arc` engine
    /// would have paid).
    pub payload_clones_avoided: u64,
    /// Payload deep copies that were actually performed — by the engine
    /// (link-failure salvage of a still-shared packet) or by a stack taking
    /// ownership of a still-shared packet through
    /// [`Ctx::claim_packet`](crate::node::Ctx::claim_packet).  Zero in the
    /// steady state: unicast deliveries hand over the sole reference, and
    /// broadcast-flood duplicates are inspected by reference and dropped.
    pub payload_deep_clones: u64,
    /// `TxEnd` events that did not match their node's transmission in
    /// flight.  The engine never schedules one, so anything but 0 is a bug.
    pub stale_tx_ends: u64,
}

impl EnginePerf {
    /// Fraction of position lookups served from the cache (0 if none).
    pub fn position_cache_hit_rate(&self) -> f64 {
        let total = self.position_cache_hits + self.position_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.position_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of payload hand-offs served by sharing the transmitted
    /// packet's allocation (1.0 = fully zero-copy; 0 if no hand-offs).
    pub fn payload_share_rate(&self) -> f64 {
        let total = self.payload_clones_avoided + self.payload_deep_clones;
        if total == 0 {
            0.0
        } else {
            self.payload_clones_avoided as f64 / total as f64
        }
    }
}

/// Grow a dense per-node table so index `i` is valid.
#[inline]
fn grow_to<T: Default>(v: &mut Vec<T>, i: usize) {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
}

/// Per-connection data-plane counters.
///
/// With the connection-table stack a run carries any number of concurrent TCP
/// flows, so the recorder keys its flow accounting by [`ConnectionId`]
/// instead of assuming the implicit single flow of the paper scenario.  The
/// per-flow delivery/goodput/fairness metrics aggregate these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowCounters {
    /// Data-carrying packets handed to the routing layer at the source
    /// (retransmissions counted, like the aggregate).
    pub originated_data: u64,
    /// Unique data-carrying packets delivered to the flow's destination.
    pub delivered_data: u64,
    /// Payload bytes of the delivered unique packets.
    pub delivered_bytes: u64,
    /// Sum of end-to-end delays of this flow's delivered packets, seconds
    /// (divide by `delivered_data` for the mean).
    pub delay_sum_secs: f64,
}

impl FlowCounters {
    /// Delivered / originated data packets (0 when nothing was originated).
    pub fn delivery_rate(&self) -> f64 {
        if self.originated_data == 0 {
            0.0
        } else {
            self.delivered_data as f64 / self.originated_data as f64
        }
    }
}

/// Byte ledger of one background fluid flow (see [`crate::fluid`]).
///
/// Fluid bytes are ledgered **separately** from the packet-level delivery
/// counters: `delivered_payload_bytes` and the per-connection
/// [`FlowCounters`] stay exact packet conservation ledgers, and the fluid
/// totals add an independent analytic ledger with its own conservation
/// invariant (`delivered_bytes <= offered_bytes`, equality exactly when the
/// flow completed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidFlowTotals {
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Bytes the flow set out to transfer (for unbounded flows: the bytes it
    /// actually moved by the end of the run).
    pub offered_bytes: u64,
    /// Bytes analytically delivered by the end of the run.
    pub delivered_bytes: u64,
    /// Analytic completion time in seconds, if the flow finished.
    pub completion_secs: Option<f64>,
}

/// A set of [`PacketId`]s, stored as 64-id bit chunks.
///
/// A packet id is `(origin << 40) | counter`, so what one node hears is long
/// runs of consecutive ids from a few origins: the ids of one run share the
/// chunk `id >> 6`.  The chunk written last is held outside the map, so
/// inserting the next id of a run is a compare and an OR with no hashing,
/// and the map holds one entry per 64 ids.  Iteration order is unspecified.
#[derive(Debug, Clone, Default)]
pub struct PacketSet {
    /// Every chunk but the cached one, by `id >> 6`; no entry is 0.
    chunks: FxHashMap<u64, u64>,
    /// The chunk written last; it is never also in `chunks`.  Bits are only
    /// ever set, so `cached_bits` is 0 exactly while the whole set is empty.
    cached_key: u64,
    cached_bits: u64,
    len: usize,
}

impl PacketSet {
    /// Add `id`; returns `true` if it was not in the set.
    #[inline]
    pub fn insert(&mut self, id: PacketId) -> bool {
        let key = id.0 >> 6;
        let bit = 1u64 << (id.0 & 63);
        if key != self.cached_key {
            if self.cached_bits != 0 {
                self.chunks.insert(self.cached_key, self.cached_bits);
            }
            self.cached_key = key;
            self.cached_bits = self.chunks.remove(&key).unwrap_or(0);
        }
        let new = self.cached_bits & bit == 0;
        self.cached_bits |= bit;
        self.len += usize::from(new);
        new
    }

    /// Is `id` in the set?
    pub fn contains(&self, id: PacketId) -> bool {
        self.word(id.0 >> 6) >> (id.0 & 63) & 1 == 1
    }

    /// Add every id of `other`, one OR per 64-id chunk.
    pub fn union_with(&mut self, other: &PacketSet) {
        for (key, bits) in other.words() {
            self.or_word(key, bits);
        }
    }

    /// `|self ∩ other|`, one AND and popcount per chunk of the smaller set.
    pub fn intersection_len(&self, other: &PacketSet) -> usize {
        let (small, large) = if self.len <= other.len {
            (self, other)
        } else {
            (other, self)
        };
        small
            .words()
            .map(|(key, bits)| (bits & large.word(key)).count_ones() as usize)
            .sum()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every id in the set, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.words().flat_map(|(key, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let id = PacketId(key << 6 | u64::from(bits.trailing_zeros()));
                    bits &= bits - 1;
                    id
                })
            })
        })
    }

    /// Every 64-id chunk as `(id >> 6, bits)`, in no particular order; the
    /// cached chunk may be empty.
    fn words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.chunks
            .iter()
            .map(|(&key, &bits)| (key, bits))
            .chain(std::iter::once((self.cached_key, self.cached_bits)))
    }

    /// Add the ids `bits` of chunk `key`.
    fn or_word(&mut self, key: u64, bits: u64) {
        if bits == 0 {
            return;
        }
        // An empty set may move its cache to any chunk: nothing is lost.
        let word = if key == self.cached_key || self.cached_bits == 0 {
            self.cached_key = key;
            &mut self.cached_bits
        } else {
            self.chunks.entry(key).or_insert(0)
        };
        self.len += (bits & !*word).count_ones() as usize;
        *word |= bits;
    }

    /// The bits of chunk `key` (0 if the set holds none of its ids).
    fn word(&self, key: u64) -> u64 {
        if key == self.cached_key {
            self.cached_bits
        } else {
            self.chunks.get(&key).copied().unwrap_or(0)
        }
    }
}

/// How far past the ids an origin has recorded so far a packet id may
/// reach.  Ids are minted densely, so a longer jump is a corrupt id, and
/// growing a ledger to it could allocate up to 2^40 slots.
const LEDGER_REACH: usize = 1 << 20;

/// The send times and deliveries of the packets of one origin, indexed by
/// the counter half of their id (`(origin << 40) | counter`, minted densely
/// from 0 by the origin's stack).
#[derive(Debug, Default)]
struct OriginLedger {
    /// First origination time of each counter, in seconds; NaN where the
    /// counter was never originated.
    sent: Vec<f64>,
    /// One bit per counter: delivered to its final destination.
    delivered: Vec<u64>,
}

impl OriginLedger {
    /// The origin's ledger slot and the counter of `id`.
    #[inline]
    fn split(id: PacketId) -> (usize, usize) {
        let origin = id.0 >> 40;
        assert!(
            origin <= u64::from(u16::MAX),
            "packet id {:#x} names no node as its origin",
            id.0
        );
        (origin as usize, (id.0 & ((1 << 40) - 1)) as usize)
    }

    /// Panic unless `counter` is within reach of the ids recorded so far.
    fn check_reach(&self, counter: usize) {
        let recorded = self.sent.len().max(self.delivered.len() * 64);
        assert!(
            counter < recorded + LEDGER_REACH,
            "packet counter {counter} is far past the {recorded} ids of its origin"
        );
    }

    /// Record an origination of `counter` at `at`; the first one wins.
    #[inline]
    fn originate(&mut self, counter: usize, at: SimTime) {
        if counter >= self.sent.len() {
            self.check_reach(counter);
            self.sent.resize(counter + 1, f64::NAN);
        }
        let sent = &mut self.sent[counter];
        if sent.is_nan() {
            *sent = at.as_secs();
        }
    }

    /// When `counter` was first originated, if it was.
    #[inline]
    fn sent_at(&self, counter: usize) -> Option<SimTime> {
        let secs = *self.sent.get(counter)?;
        (!secs.is_nan()).then(|| SimTime::from_secs(secs))
    }

    /// Record a delivery of `counter`; `false` if it was delivered before.
    #[inline]
    fn deliver(&mut self, counter: usize) -> bool {
        let (word, bit) = (counter / 64, 1u64 << (counter % 64));
        if word >= self.delivered.len() {
            self.check_reach(counter);
            self.delivered.resize(word + 1, 0);
        }
        let new = self.delivered[word] & bit == 0;
        self.delivered[word] |= bit;
        new
    }
}

/// Everything recorded about one simulation run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// What to keep of the event trace (costs memory in `Keep`; off by
    /// default).
    pub trace_mode: TraceMode,
    trace: Vec<TraceEvent>,
    /// Every trace event so far, folded in order (see [`TraceMode`]).
    trace_hash: FxHasher,

    // --- data-plane accounting -------------------------------------------------
    /// Send times and deliveries of every packet, by origin (`None` for a
    /// node whose packets were never seen, so it costs one word).
    ledgers: Vec<Option<Box<OriginLedger>>>,
    originated_data: u64,
    delivered_data: u64,
    delivered_bytes: u64,
    delays: Vec<Duration>,
    /// (time, payload bytes) of each delivered data packet, for throughput curves.
    delivery_series: Vec<(SimTime, u32)>,
    /// Per-connection origination/delivery counters (multi-flow runs).
    flow_counters: FxHashMap<ConnectionId, FlowCounters>,
    /// Byte ledgers of background fluid flows, keyed by connection id
    /// (ordered so reports are deterministic).
    fluid_flows: BTreeMap<u32, FluidFlowTotals>,

    // --- per-node participation / eavesdropping --------------------------------
    // Dense, lazily grown per-node tables (indexed by `NodeId::index`): the
    // engine records a relay or overheard packet for ~every receiver of
    // every data transmission, so these sit on the delivery hot path where
    // an outer by-node hash lookup per record is measurable.
    relays: Vec<u64>,
    heard: Vec<PacketSet>,
    /// Unique data packets each node *received to relay* (the paper's β as a
    /// set, not just a count).  Coalition coverage metrics union these.
    relayed_ids: Vec<PacketSet>,
    /// Seconds (1 s buckets) in which each node relayed at least one data
    /// packet.  The windowed participant count (the ROADMAP's Fig. 5 idea:
    /// participants per interval instead of cumulative participants)
    /// aggregates these buckets into windows of any multiple of a second.
    participation_secs: Vec<BTreeSet<u32>>,

    // --- adversary accounting ----------------------------------------------------
    adversary_drops: u64,
    adversary_data_drops: u64,
    jammed_control: u64,
    jammed_data: u64,
    tunneled_frames: u64,
    /// Unique data-carrying packets that crossed a wormhole tunnel (the
    /// wormhole pair's capture set, unioned with the endpoints' relay sets by
    /// the metrics layer).
    tunneled_data: PacketSet,

    // --- control plane ----------------------------------------------------------
    control_tx: u64,
    control_tx_bytes: u64,
    control_tx_by_kind: FxHashMap<&'static str, u64>,
    data_tx: u64,

    // --- drops (unified across layers) -------------------------------------------
    drops: FxHashMap<DropReason, u64>,
    link_failures: u64,
    collisions: u64,

    // --- engine internals --------------------------------------------------------
    engine_perf: EnginePerf,

    /// Structured telemetry buffer (event stream, sampler, provenance tag).
    /// Disabled by default.  Only [`Recorder::observe`] writes to it, behind
    /// one branch on [`Telemetry::enabled`], so a disabled run records
    /// nothing into it.
    pub telemetry: Telemetry,
}

impl Recorder {
    /// New, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// New recorder that also keeps the human-readable trace.
    pub fn with_trace() -> Self {
        Recorder {
            trace_mode: TraceMode::Keep,
            ..Self::default()
        }
    }

    // ---- observation (the one entry point of every event site) ---------------

    /// Observe one event of the run at time `at`.  This is the only way the
    /// engine, the stacks, routing and the adversaries report what happened,
    /// and it feeds every consumer in one place:
    ///
    /// - it folds `obs` into the counters;
    /// - unless the trace mode is [`TraceMode::Off`], it folds the matching
    ///   [`TraceEvent`] into the fingerprint, and keeps it in `Keep` mode;
    /// - when telemetry is on, it encodes the event, feeds the sampler and,
    ///   if `obs` moves the tagged packet through a pipeline stage, emits the
    ///   packet's provenance entry (one rule for all, `Observation::stage`).
    ///
    /// Only a packet's first delivery counts: a repeated one is recognised
    /// here and goes no further.
    #[inline]
    pub fn observe(&mut self, at: SimTime, obs: Observation<'_>) {
        if self.fold(at, &obs) && self.telemetry.enabled() {
            self.emit(at, &obs);
        }
    }

    /// Fold `obs` into the counters and the trace.  Returns `false` only for
    /// a repeated delivery, which nothing else may see.
    #[inline]
    fn fold(&mut self, at: SimTime, obs: &Observation<'_>) -> bool {
        match *obs {
            Observation::Originate { packet, .. } => {
                let (origin, counter) = OriginLedger::split(packet.id);
                self.ledger_mut(origin).originate(counter, at);
                if packet.carries_data() {
                    self.originated_data += 1;
                    let flow = self.flow_counters.entry(packet.segment.conn).or_default();
                    flow.originated_data += 1;
                }
            }
            Observation::TxStart {
                node,
                packet,
                bytes,
                ..
            } => {
                let kind = packet.frame_kind();
                if packet.is_control() {
                    self.control_tx += 1;
                    self.control_tx_bytes += u64::from(bytes);
                    *self.control_tx_by_kind.entry(kind.label()).or_insert(0) += 1;
                } else {
                    self.data_tx += 1;
                }
                if self.trace_mode != TraceMode::Off {
                    self.push_trace(TraceEvent::TxStart {
                        node,
                        kind: kind.label(),
                        bytes,
                        at,
                    });
                }
            }
            Observation::Collision { .. } => self.collisions += 1,
            Observation::Relay { node, packet } if packet.carries_data() => {
                let i = Self::slot(node);
                grow_to(&mut self.relays, i);
                grow_to(&mut self.heard, i);
                grow_to(&mut self.relayed_ids, i);
                grow_to(&mut self.participation_secs, i);
                self.relays[i] += 1;
                self.heard[i].insert(packet.id);
                self.relayed_ids[i].insert(packet.id);
                // Time only moves forward, so the bucket of the previous relay is
                // the set's largest: a run of relays inside one second inserts once.
                let sec = at.as_secs().max(0.0) as u32;
                let secs = &mut self.participation_secs[i];
                if secs.last() != Some(&sec) {
                    secs.insert(sec);
                }
            }
            Observation::Overheard { node, packet } if packet.carries_data() => {
                let i = Self::slot(node);
                grow_to(&mut self.heard, i);
                self.heard[i].insert(packet.id);
            }
            Observation::Deliver { node, packet, .. } => {
                let (origin, counter) = OriginLedger::split(packet.id);
                let ledger = self.ledger_mut(origin);
                if !ledger.deliver(counter) {
                    // Duplicate delivery (e.g. a retransmission raced the
                    // original); the paper's metrics count unique packets.
                    return false;
                }
                let sent = ledger.sent_at(counter);
                if packet.carries_data() {
                    let payload_bytes = packet.segment.payload_len;
                    self.delivered_data += 1;
                    self.delivered_bytes += u64::from(payload_bytes);
                    self.delivery_series.push((at, payload_bytes));
                    let delay = sent.map(|sent| at.saturating_since(sent));
                    if let Some(delay) = delay {
                        self.delays.push(delay);
                    }
                    let flow = self.flow_counters.entry(packet.segment.conn).or_default();
                    flow.delivered_data += 1;
                    flow.delivered_bytes += u64::from(payload_bytes);
                    if let Some(delay) = delay {
                        flow.delay_sum_secs += delay.as_secs();
                    }
                }
                if self.trace_mode != TraceMode::Off {
                    self.push_trace(TraceEvent::Delivered {
                        node,
                        packet: packet.id,
                        at,
                    });
                }
            }
            Observation::Drop { reason, packet, .. } => {
                *self.drops.entry(reason).or_insert(0) += 1;
                match reason {
                    DropReason::AdversaryDiscard => {
                        self.adversary_drops += 1;
                        if packet.segment().is_some_and(|(_, _, data)| data) {
                            self.adversary_data_drops += 1;
                        }
                    }
                    DropReason::Jammed if packet.kind() == FrameKind::Data => self.jammed_data += 1,
                    DropReason::Jammed => self.jammed_control += 1,
                    _ => {}
                }
            }
            Observation::LinkFailure { node, next_hop, .. } => {
                *self.drops.entry(DropReason::RetryLimit).or_insert(0) += 1;
                self.link_failures += 1;
                if self.trace_mode != TraceMode::Off {
                    self.push_trace(TraceEvent::LinkFailure { node, next_hop, at });
                }
            }
            Observation::Tunnel { packet } => {
                self.tunneled_frames += 1;
                if let NetPacket::Data(dp) = packet {
                    if dp.carries_data() {
                        self.tunneled_data.insert(dp.id);
                    }
                }
            }
            Observation::FluidFlow { conn, totals } => {
                self.fluid_flows.insert(conn, totals);
            }
            Observation::Finalize { perf } => self.engine_perf = perf,
            _ => {}
        }
        true
    }

    /// Encode `obs` into the telemetry stream, feed the sampler, and emit the
    /// tagged packet's provenance entry.  Called only when telemetry is on.
    #[inline(never)]
    fn emit(&mut self, at: SimTime, obs: &Observation<'_>) {
        let t = at.as_secs();
        let tele = &mut self.telemetry;
        let event = match *obs {
            Observation::Originate { node, packet } => Some(TelemetryEvent::Originate {
                t,
                node: node.0,
                conn: packet.segment.conn.0,
                seq: packet.segment.seq,
                data: packet.carries_data(),
                bytes: packet.segment.payload_len,
            }),
            Observation::Enqueue { node, frame, queue } => {
                tele.note_queue_len(t, queue);
                Some(TelemetryEvent::FrameEnqueue {
                    t,
                    node: node.0,
                    kind: frame.payload.frame_kind(),
                    bytes: frame.size_bytes(),
                    queue,
                })
            }
            Observation::TxStart {
                node,
                packet,
                bytes,
                events,
            } => {
                tele.note_calendar_resizes(t, events.perf().calendar_resizes);
                Some(TelemetryEvent::TxStart {
                    t,
                    node: node.0,
                    kind: packet.frame_kind(),
                    bytes,
                })
            }
            Observation::Collision { node, from } => Some(TelemetryEvent::Collision {
                t,
                node: node.0,
                from: from.0,
            }),
            Observation::Deliver { node, from, packet } => {
                let (conn, seq) = (packet.segment.conn.0, packet.segment.seq);
                let carries = packet.carries_data();
                if carries {
                    tele.note_goodput(t, conn, u64::from(packet.segment.payload_len));
                }
                Some(TelemetryEvent::Deliver {
                    t,
                    node: node.0,
                    from: from.0,
                    kind: FrameKind::Data,
                    conn: Some(conn),
                    // Pure ACKs carry no sequence payload on the wire; leaving
                    // `seq` out keeps them outside the per-connection
                    // conservation ledger (only payload-carrying originations
                    // are counted there).
                    seq: carries.then_some(seq),
                })
            }
            Observation::Drop {
                node,
                reason,
                packet,
            } => Some(TelemetryEvent::Drop {
                t,
                node: node.0,
                reason,
                kind: packet.kind(),
                // Only a payload-carrying packet names its connection: pure
                // ACKs share the id but sit outside the conservation ledger.
                conn: packet
                    .segment()
                    .and_then(|(conn, _, data)| data.then_some(conn)),
            }),
            // On the stream, a link failure is the drop of its frame.
            Observation::LinkFailure { node, packet, .. } => {
                let reason = DropReason::RetryLimit;
                let packet = PacketRef::Net(packet);
                return self.emit(
                    at,
                    &Observation::Drop {
                        node,
                        reason,
                        packet,
                    },
                );
            }
            Observation::Timer { node, class, scope } => Some(TelemetryEvent::Timer {
                t,
                node: node.0,
                class,
                scope,
            }),
            Observation::FlowComplete { node, conn, bytes } => Some(TelemetryEvent::FlowComplete {
                t,
                node: node.0,
                conn,
                bytes,
            }),
            Observation::ForgedRrep { node, from } => Some(TelemetryEvent::ForgedRrep {
                t,
                node: node.0,
                from: from.0,
            }),
            Observation::Suspicion {
                node,
                suspect,
                score,
                table,
            } => {
                tele.note_suspicion_size(t, table);
                Some(TelemetryEvent::Suspicion {
                    t,
                    node: node.0,
                    suspect: suspect.0,
                    score,
                    table,
                })
            }
            Observation::SuspicionTable { size } => {
                tele.note_suspicion_size(t, size);
                None
            }
            Observation::FluidRates { demand, alloc } => {
                for (region, (&d, &a)) in demand.iter().zip(alloc).enumerate() {
                    if d > 0.0 || a > 0.0 {
                        tele.note_fluid(t, region as u32, d.round() as u64, a.round() as u64);
                    }
                }
                None
            }
            Observation::Finalize { perf } => {
                // Close the sampler's trailing window with the final resize
                // count before the stream is sealed for serialisation.
                tele.note_calendar_resizes(t, perf.calendar_resizes);
                tele.finalize();
                None
            }
            Observation::Relay { .. }
            | Observation::Overheard { .. }
            | Observation::Tunnel { .. }
            | Observation::TunnelExit { .. }
            | Observation::FluidFlow { .. } => None,
        };
        if let Some(event) = event {
            tele.emit(event);
        }
        if let Some((stage, node, (conn, seq, data))) = obs.stage() {
            if tele.traced(conn, seq, data) {
                tele.emit(TelemetryEvent::Provenance {
                    t,
                    stage,
                    node: node.0,
                    conn,
                    seq,
                    kind: FrameKind::Data,
                });
            }
        }
    }

    /// Dense index of a node.
    #[inline]
    fn slot(node: NodeId) -> usize {
        node.index()
    }

    /// The ledger of `origin`, created empty on first use.
    #[inline]
    fn ledger_mut(&mut self, origin: usize) -> &mut OriginLedger {
        grow_to(&mut self.ledgers, origin);
        self.ledgers[origin].get_or_insert_with(Box::default)
    }

    /// Fold `ev` into the fingerprint, and keep it in `Keep` mode.
    fn push_trace(&mut self, ev: TraceEvent) {
        ev.fold_into(&mut self.trace_hash);
        if self.trace_mode == TraceMode::Keep {
            self.trace.push(ev);
        }
    }

    // ---- queries (used by the metrics layer) ----------------------------------

    /// Number of data-carrying packets handed to the routing layer at sources.
    pub fn originated_data_packets(&self) -> u64 {
        self.originated_data
    }

    /// Number of unique data-carrying packets delivered to their destination.
    pub fn delivered_data_packets(&self) -> u64 {
        self.delivered_data
    }

    /// Total TCP payload bytes delivered.
    pub fn delivered_payload_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// End-to-end delays of delivered data packets.
    pub fn delays(&self) -> &[Duration] {
        &self.delays
    }

    /// Mean end-to-end delay in seconds (0 if nothing was delivered).
    pub fn mean_delay_secs(&self) -> f64 {
        if self.delays.is_empty() {
            return 0.0;
        }
        self.delays.iter().map(|d| d.as_secs()).sum::<f64>() / self.delays.len() as f64
    }

    /// `(time, payload_bytes)` series of deliveries, in delivery order.
    pub fn delivery_series(&self) -> &[(SimTime, u32)] {
        &self.delivery_series
    }

    /// Per-connection origination/delivery counters (empty entries never
    /// appear: a connection shows up once it originates or delivers data).
    pub fn flow_counters(&self) -> &FxHashMap<ConnectionId, FlowCounters> {
        &self.flow_counters
    }

    /// The counters of one connection (all-zero if it never carried data).
    pub fn flow_counter(&self, conn: ConnectionId) -> FlowCounters {
        self.flow_counters.get(&conn).copied().unwrap_or_default()
    }

    /// Byte ledgers of the background fluid flows, by connection id (empty
    /// when the run had no fluid layer).
    pub fn fluid_flows(&self) -> &BTreeMap<u32, FluidFlowTotals> {
        &self.fluid_flows
    }

    /// The byte ledger of one background fluid flow, if it exists.
    pub fn fluid_flow(&self, conn: u32) -> Option<FluidFlowTotals> {
        self.fluid_flows.get(&conn).copied()
    }

    /// Total bytes analytically delivered by background fluid flows.
    pub fn fluid_delivered_bytes(&self) -> u64 {
        self.fluid_flows.values().map(|f| f.delivered_bytes).sum()
    }

    /// Total bytes background fluid flows set out to transfer.
    pub fn fluid_offered_bytes(&self) -> u64 {
        self.fluid_flows.values().map(|f| f.offered_bytes).sum()
    }

    /// Data packets `node` relayed (β_i in the paper's Table I); O(1) from
    /// the dense per-node table.
    pub fn relay_count(&self, node: NodeId) -> u64 {
        self.relays.get(Self::slot(node)).copied().unwrap_or(0)
    }

    /// Per-node relay counts (β_i in the paper's Table I): every node with at
    /// least one relayed data packet, with its count.  Built on demand from
    /// the dense per-node table (a post-run query; not a hot path — per-node
    /// lookups should use [`Recorder::relay_count`]).
    pub fn relay_counts(&self) -> FxHashMap<NodeId, u64> {
        self.relays
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (NodeId(i as u16), c))
            .collect()
    }

    /// Unique data packets heard (relayed or overheard) by `node` — the
    /// eavesdropper's haul Pe when that node is the eavesdropper.
    pub fn heard_count(&self, node: NodeId) -> u64 {
        self.heard_set(node).map_or(0, |s| s.len() as u64)
    }

    /// All nodes with at least one heard packet, with their unique counts.
    pub fn heard_counts(&self) -> FxHashMap<NodeId, u64> {
        self.heard
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (NodeId(i as u16), s.len() as u64))
            .collect()
    }

    /// The unique data packets `node` heard (relayed or overheard), if any.
    /// Coalition metrics union these across colluding nodes.
    pub fn heard_set(&self, node: NodeId) -> Option<&PacketSet> {
        self.heard.get(Self::slot(node)).filter(|s| !s.is_empty())
    }

    /// The unique data packets `node` received to relay (β as a set), if any.
    pub fn relayed_set(&self, node: NodeId) -> Option<&PacketSet> {
        self.relayed_ids
            .get(Self::slot(node))
            .filter(|s| !s.is_empty())
    }

    /// How many ids of `set` were delivered, `|set ∩ delivered|`: one AND
    /// and popcount per chunk.
    pub fn delivered_in(&self, set: &PacketSet) -> u64 {
        self.delivered_words(set)
            .map(|(_, bits)| u64::from(bits.count_ones()))
            .sum()
    }

    /// The ids of `set` that were delivered, `set ∩ delivered`, for a caller
    /// that intersects the same delivered ids many times.
    pub fn delivered_part(&self, set: &PacketSet) -> PacketSet {
        let mut part = PacketSet::default();
        for (key, bits) in self.delivered_words(set) {
            part.or_word(key, bits);
        }
        part
    }

    /// Every chunk of `set` ANDed with its delivered ids.  A set chunk
    /// (`id >> 6`) covers the same 64 ids as one word of its origin's
    /// delivery ledger (counters are 40 bits, a multiple of 64 ids); this is
    /// the one reader of those words.
    fn delivered_words<'a>(&'a self, set: &'a PacketSet) -> impl Iterator<Item = (u64, u64)> + 'a {
        set.words().map(|(key, bits)| {
            let (origin, counter) = OriginLedger::split(PacketId(key << 6));
            let delivered = self
                .ledgers
                .get(origin)
                .and_then(Option::as_deref)
                .and_then(|ledger| ledger.delivered.get(counter / 64))
                .copied()
                .unwrap_or(0);
            (key, bits & delivered)
        })
    }

    /// Packets deliberately discarded by adversarial relays (all kinds).
    pub fn adversary_drops(&self) -> u64 {
        self.adversary_drops
    }

    /// Data-carrying packets deliberately discarded by adversarial relays.
    /// No report reads it yet: it is the numerator of the planned black-hole
    /// and grayhole target metric (adversary drops as a share of the data
    /// sent).
    pub fn adversary_data_drops(&self) -> u64 {
        self.adversary_data_drops
    }

    /// Frames that crossed a wormhole tunnel (all kinds, both directions).
    pub fn tunneled_frames(&self) -> u64 {
        self.tunneled_frames
    }

    /// The unique data-carrying packets that crossed a wormhole tunnel.
    pub fn tunneled_data_set(&self) -> &PacketSet {
        &self.tunneled_data
    }

    /// Distinct relaying nodes per time window of `window_secs` seconds,
    /// from the start of the run through the last observed relay (windows
    /// with no relay activity count zero).  This is the *windowed*
    /// participant count: where the cumulative count of
    /// [`Recorder::relay_counts`] rewards route churn (every break recruits
    /// fresh relays forever), the windowed count asks how many nodes carry
    /// the session *at a time*.
    ///
    /// Participation is recorded in 1 s buckets, so `window_secs` must be a
    /// whole number of seconds (fractional windows would silently misassign
    /// bucket boundaries).
    ///
    /// # Panics
    /// Panics if `window_secs` is not a positive whole number of seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use manet_netsim::wire::{ConnectionId, DataPacket, NodeId, PacketId, TcpSegment};
    /// use manet_netsim::{Observation, Recorder, SimTime};
    ///
    /// let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
    /// let packet = &DataPacket::new(PacketId(10), NodeId(0), NodeId(9), segment);
    /// let mut rec = Recorder::new();
    /// // Nodes 1 and 2 relay early, node 3 relays in the third window.
    /// for (node, secs) in [(1, 1.0), (2, 2.0), (3, 25.0)] {
    ///     let relay = Observation::Relay { node: NodeId(node), packet };
    ///     rec.observe(SimTime::from_secs(secs), relay);
    /// }
    /// assert_eq!(rec.windowed_participants(10.0), vec![2, 0, 1]);
    /// assert_eq!(rec.mean_windowed_participants(10.0), 1.0);
    /// ```
    pub fn windowed_participants(&self, window_secs: f64) -> Vec<usize> {
        assert!(
            window_secs >= 1.0 && window_secs.fract() == 0.0,
            "window_secs must be a positive whole number of seconds \
             (participation is bucketed at 1 s; got {window_secs})"
        );
        let mut windows: Vec<FxHashSet<NodeId>> = Vec::new();
        for (i, secs) in self.participation_secs.iter().enumerate() {
            let node = NodeId(i as u16);
            for &s in secs {
                let w = (f64::from(s) / window_secs).floor() as usize;
                if windows.len() <= w {
                    windows.resize_with(w + 1, FxHashSet::default);
                }
                windows[w].insert(node);
            }
        }
        windows.iter().map(|set| set.len()).collect()
    }

    /// Mean of [`Recorder::windowed_participants`] over the observed windows
    /// (0 if the run saw no relays).
    pub fn mean_windowed_participants(&self, window_secs: f64) -> f64 {
        let windows = self.windowed_participants(window_secs);
        if windows.is_empty() {
            0.0
        } else {
            windows.iter().sum::<usize>() as f64 / windows.len() as f64
        }
    }

    /// Receptions corrupted by selective jamming (control + data).
    pub fn jammed_frames(&self) -> u64 {
        self.jammed_control + self.jammed_data
    }

    /// Control-frame receptions corrupted by selective jamming.
    pub fn jammed_control_frames(&self) -> u64 {
        self.jammed_control
    }

    /// Data-frame receptions corrupted by selective jamming.
    pub fn jammed_data_frames(&self) -> u64 {
        self.jammed_data
    }

    /// Number of routing control packet transmissions (every hop counts), the
    /// paper's control-overhead metric.
    pub fn control_transmissions(&self) -> u64 {
        self.control_tx
    }

    /// Control transmissions broken down by packet kind.
    pub fn control_by_kind(&self) -> &FxHashMap<&'static str, u64> {
        &self.control_tx_by_kind
    }

    /// Bytes of control traffic transmitted.
    pub fn control_bytes(&self) -> u64 {
        self.control_tx_bytes
    }

    /// Number of data frame transmissions (all hops).
    pub fn data_transmissions(&self) -> u64 {
        self.data_tx
    }

    /// Drops by reason, from the unified cross-layer drop map.
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.drops.get(&reason).copied().unwrap_or(0)
    }

    /// Total drops across every reason.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Unicast retry-limit link failures observed.
    pub fn link_failures(&self) -> u64 {
        self.link_failures
    }

    /// Corrupted receptions observed.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// The kept trace (empty unless the mode is [`TraceMode::Keep`]).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The hasher every trace event so far was folded into, in order, one
    /// tag-determined word sequence per event (empty-trace state when the
    /// mode is [`TraceMode::Off`]).  Callers continue hashing from it to
    /// fingerprint a run without walking, or keeping, [`Recorder::trace`].
    pub fn trace_fingerprint(&self) -> FxHasher {
        self.trace_hash
    }

    /// Engine-internal performance counters for this run.
    pub fn engine_perf(&self) -> EnginePerf {
        self.engine_perf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_wire::TcpSegment;
    use proptest::prelude::*;
    use std::hash::Hasher;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Packet ids as the stack mints them, `(origin << 40) | counter`, from
    /// four origins: counters are dense (runs inside a few chunks, many
    /// repeats) or sparse (one id per chunk, chunk boundaries included).
    fn packet_ids() -> impl Strategy<Value = Vec<PacketId>> {
        proptest::collection::vec(
            (0u64..4, 0u8..4, 0u64..200, 0u64..1 << 40).prop_map(
                |(origin, kind, dense, sparse)| {
                    let counter = match kind {
                        0 | 1 => dense,
                        2 => (dense << 6) | [0, 63][(sparse & 1) as usize],
                        _ => sparse,
                    };
                    PacketId((origin << 40) | counter)
                },
            ),
            0..400,
        )
    }

    fn as_set(ids: &PacketSet) -> FxHashSet<PacketId> {
        let listed: Vec<PacketId> = ids.iter().collect();
        let set: FxHashSet<PacketId> = listed.iter().copied().collect();
        assert_eq!(set.len(), listed.len(), "iter yields each id once");
        set
    }

    proptest! {
        #[test]
        fn packet_set_behaves_like_a_hash_set(ids in packet_ids(), probes in packet_ids()) {
            let mut set = PacketSet::default();
            let mut model: FxHashSet<PacketId> = FxHashSet::default();
            prop_assert!(set.is_empty());
            for &id in &ids {
                prop_assert_eq!(set.insert(id), model.insert(id), "insert {:?}", id);
                prop_assert_eq!(set.len(), model.len());
                prop_assert!(set.contains(id));
            }
            prop_assert_eq!(set.is_empty(), model.is_empty());
            for &id in ids.iter().chain(&probes) {
                prop_assert_eq!(set.contains(id), model.contains(&id), "contains {:?}", id);
            }
            prop_assert_eq!(as_set(&set), model.clone());

            // `intersection_len` and `union_with` are the intersection's size
            // and the union, whichever side they start from; a union into an
            // empty set is a copy.
            let mut other = PacketSet::default();
            let mut other_model: FxHashSet<PacketId> = FxHashSet::default();
            for &id in &probes {
                other.insert(id);
                other_model.insert(id);
            }
            let common = model.intersection(&other_model).count();
            prop_assert_eq!(set.intersection_len(&other), common);
            prop_assert_eq!(other.intersection_len(&set), common);
            let mut copy = PacketSet::default();
            copy.union_with(&set);
            prop_assert_eq!(copy.len(), model.len());
            prop_assert_eq!(as_set(&copy), model.clone());
            let union_model: FxHashSet<PacketId> = model.union(&other_model).copied().collect();
            let mut union = set.clone();
            union.union_with(&other);
            prop_assert_eq!(union.len(), union_model.len());
            prop_assert_eq!(as_set(&union), union_model.clone());
            other.union_with(&set);
            prop_assert_eq!(other.len(), union_model.len());
            prop_assert_eq!(as_set(&other), union_model.clone());
            // Inserting after a union: what the union holds is not new.
            for &id in ids.iter().chain(&probes) {
                prop_assert!(!union.insert(id), "union lost {:?}", id);
                prop_assert!(!other.insert(id), "union lost {:?}", id);
                prop_assert_eq!(copy.insert(id), model.insert(id), "insert {:?}", id);
            }
            prop_assert_eq!(copy.len(), union_model.len());
        }

    }

    /// A data segment of connection 0 with id `id` carrying `payload` bytes
    /// (0 makes a pure ACK), from node 0 to node 9.
    fn data(id: u64, payload: u32) -> DataPacket {
        let segment = TcpSegment::data(ConnectionId(0), 0, 0, payload);
        DataPacket::new(PacketId(id), NodeId(0), NodeId(9), segment)
    }

    /// Reference model of the recorder's packet ledgers: a first-time-wins
    /// hash map of send times and a hash set of delivered ids.
    #[derive(Default)]
    struct LedgerModel {
        originated: FxHashMap<PacketId, SimTime>,
        delivered: FxHashSet<PacketId>,
        delays: Vec<Duration>,
        delivered_data: u64,
    }

    impl LedgerModel {
        fn originate(&mut self, packet: &DataPacket, at: SimTime) {
            self.originated.entry(packet.id).or_insert(at);
        }

        fn deliver(&mut self, packet: &DataPacket, at: SimTime) {
            if self.delivered.insert(packet.id) && packet.carries_data() {
                self.delivered_data += 1;
                if let Some(&sent) = self.originated.get(&packet.id) {
                    self.delays.push(at.saturating_since(sent));
                }
            }
        }
    }

    proptest! {
        /// Random Originate/Deliver streams over several origins, with
        /// repeated originations and deliveries, deliveries out of order
        /// and of ids never originated, data and pure ACKs: the dense
        /// per-origin ledgers agree with the hash-table model on the
        /// delays, the delivered count and `delivered_part`.
        #[test]
        fn dense_ledgers_match_the_hash_table_model(
            ops in proptest::collection::vec(
                ((0u8..2, 0u64..5), 0u64..300, 0u8..4, 0u16..500),
                0..400,
            ),
        ) {
            let origins = [0u64, 1, 2, 7, 2_000];
            let mut r = Recorder::new();
            let mut model = LedgerModel::default();
            let mut now = SimTime::ZERO;
            for ((kind, origin), counter, flavour, gap_ms) in ops {
                now += Duration::from_millis(f64::from(gap_ms));
                let id = (origins[origin as usize] << 40) | counter;
                // One pure ACK in four: delivered, but not a data packet.
                let packet = &data(id, if flavour == 0 { 0 } else { 1000 });
                if kind == 0 {
                    let node = NodeId(origins[origin as usize] as u16);
                    r.observe(now, Observation::Originate { node, packet });
                    model.originate(packet, now);
                } else {
                    deliver(&mut r, packet, now);
                    model.deliver(packet, now);
                }
            }
            prop_assert_eq!(r.delays(), &model.delays[..]);
            prop_assert_eq!(r.delivered_data_packets(), model.delivered_data);
            let mut probed = PacketSet::default();
            for &origin in &origins {
                for counter in 0..320 {
                    let id = PacketId((origin << 40) | counter);
                    if counter % 3 != 0 {
                        probed.insert(id);
                    }
                }
            }
            probed.insert(PacketId((9 << 40) | 5)); // an origin with no ledger
            let expected: FxHashSet<PacketId> =
                probed.iter().filter(|id| model.delivered.contains(id)).collect();
            prop_assert_eq!(r.delivered_in(&probed), expected.len() as u64);
            prop_assert_eq!(as_set(&r.delivered_part(&probed)), expected);
        }
    }

    #[test]
    #[should_panic(expected = "far past")]
    fn an_id_far_past_its_origin_fails_loudly() {
        let mut r = Recorder::new();
        deliver(&mut r, &data((3 << 40) | (1 << 39), 1000), t(1.0));
    }

    fn relay(r: &mut Recorder, node: u16, id: u64, at: SimTime) {
        let packet = &data(id, 1000);
        r.observe(
            at,
            Observation::Relay {
                node: NodeId(node),
                packet,
            },
        );
    }

    fn overhear(r: &mut Recorder, node: u16, packet: &DataPacket) {
        r.observe(
            SimTime::ZERO,
            Observation::Overheard {
                node: NodeId(node),
                packet,
            },
        );
    }

    fn deliver(r: &mut Recorder, packet: &DataPacket, at: SimTime) {
        let (node, from) = (packet.dst, packet.src);
        r.observe(at, Observation::Deliver { node, from, packet });
    }

    /// A route request, the smallest control packet to build.
    fn rreq() -> NetPacket {
        NetPacket::Rreq(manet_wire::RouteRequest {
            source: NodeId(0),
            destination: NodeId(9),
            broadcast_id: manet_wire::BroadcastId(0),
            hop_count: 0,
            route: vec![],
            dest_seqno: manet_wire::SeqNo(0),
            source_seqno: manet_wire::SeqNo(0),
        })
    }

    fn tx(r: &mut Recorder, node: u16, packet: &NetPacket, bytes: u32, at: SimTime) {
        let events = &EventQueue::default();
        let obs = Observation::TxStart {
            node: NodeId(node),
            packet,
            bytes,
            events,
        };
        r.observe(at, obs);
    }

    fn drop(r: &mut Recorder, node: u16, reason: DropReason, packet: &NetPacket) {
        let obs = Observation::Drop {
            node: NodeId(node),
            reason,
            packet: PacketRef::Net(packet),
        };
        r.observe(SimTime::ZERO, obs);
    }

    #[test]
    fn relays_inside_one_second_share_a_participation_bucket() {
        let mut r = Recorder::new();
        for (i, secs) in [0.1, 0.5, 0.9, 1.0, 1.2, 3.7, 3.7].into_iter().enumerate() {
            relay(&mut r, 2, i as u64, t(secs));
        }
        assert_eq!(
            r.participation_secs[2].iter().copied().collect::<Vec<_>>(),
            [0, 1, 3]
        );
        assert_eq!(r.windowed_participants(1.0), vec![1, 1, 0, 1]);
    }

    #[test]
    fn delivery_rate_inputs_count_unique_packets() {
        let mut r = Recorder::new();
        let (one, two) = (&data(1, 1000), &data(2, 1000));
        for (packet, at) in [(one, 0.0), (one, 0.1), (two, 0.2)] {
            // A retransmission of the same id keeps the first time.
            r.observe(
                t(at),
                Observation::Originate {
                    node: NodeId(0),
                    packet,
                },
            );
        }
        deliver(&mut r, one, t(1.0));
        deliver(&mut r, one, t(1.5)); // duplicate ignored
        assert_eq!(r.originated_data_packets(), 3); // each handoff counted
        assert_eq!(r.delivered_data_packets(), 1);
        assert_eq!(r.delivered_payload_bytes(), 1000);
        assert_eq!(r.delays().len(), 1);
        assert!((r.mean_delay_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn relays_and_heard_sets_are_tracked_per_node() {
        let mut r = Recorder::new();
        relay(&mut r, 3, 10, SimTime::ZERO);
        relay(&mut r, 3, 11, SimTime::ZERO);
        relay(&mut r, 3, 10, SimTime::ZERO); // second relay of same packet still counts a relay
        overhear(&mut r, 4, &data(10, 1000));
        overhear(&mut r, 4, &data(10, 1000)); // unique set
        overhear(&mut r, 4, &data(12, 0)); // pure ACK ignored
        assert_eq!(r.relay_counts()[&NodeId(3)], 3);
        assert_eq!(r.heard_count(NodeId(3)), 2);
        assert_eq!(r.heard_count(NodeId(4)), 1);
        assert_eq!(r.heard_count(NodeId(5)), 0);
    }

    #[test]
    fn control_and_data_transmissions_split() {
        let mut r = Recorder::new();
        tx(&mut r, 0, &rreq(), 44, t(0.0));
        tx(&mut r, 1, &rreq(), 48, t(0.1));
        tx(&mut r, 0, &NetPacket::Data(data(1, 1000)), 1040, t(0.2));
        assert_eq!(r.control_transmissions(), 2);
        assert_eq!(r.data_transmissions(), 1);
        assert_eq!(r.control_bytes(), 92);
        assert_eq!(r.control_by_kind()["RREQ"], 2);
    }

    #[test]
    fn mac_level_counters() {
        let mut r = Recorder::new();
        let packet = &NetPacket::Data(data(1, 1000));
        drop(&mut r, 1, DropReason::QueueOverflow, packet);
        for _ in 0..2 {
            let obs = Observation::LinkFailure {
                node: NodeId(1),
                next_hop: NodeId(2),
                packet,
            };
            r.observe(t(3.0), obs);
        }
        r.observe(
            t(3.0),
            Observation::Collision {
                node: NodeId(2),
                from: NodeId(1),
            },
        );
        assert_eq!(r.drops(DropReason::QueueOverflow), 1);
        assert_eq!(r.drops(DropReason::RetryLimit), 2);
        assert_eq!(r.total_drops(), 3);
        assert_eq!(r.link_failures(), 2);
        assert_eq!(r.collisions(), 1);
    }

    #[test]
    fn adversary_and_jamming_counters() {
        let mut r = Recorder::new();
        for (node, payload) in [(4, 1000), (4, 0), (7, 1000)] {
            let obs = Observation::Drop {
                node: NodeId(node),
                reason: DropReason::AdversaryDiscard,
                packet: PacketRef::Data(&data(1, payload)),
            };
            r.observe(SimTime::ZERO, obs);
        }
        let data_frame = NetPacket::Data(data(1, 1000));
        for packet in [&rreq(), &data_frame, &data_frame] {
            drop(&mut r, 2, DropReason::Jammed, packet);
        }
        assert_eq!(r.adversary_drops(), 3);
        assert_eq!(r.adversary_data_drops(), 2);
        assert_eq!(r.jammed_frames(), 3);
        assert_eq!(r.jammed_control_frames(), 1);
        assert_eq!(r.jammed_data_frames(), 2);
    }

    #[test]
    fn relayed_sets_track_unique_packets_per_node() {
        let mut r = Recorder::new();
        relay(&mut r, 3, 10, SimTime::ZERO);
        relay(&mut r, 3, 10, SimTime::ZERO); // duplicate relay, one set entry
        relay(&mut r, 3, 11, SimTime::ZERO);
        overhear(&mut r, 3, &data(12, 1000)); // heard but not relayed
        let ack = &data(10, 0);
        r.observe(
            SimTime::ZERO,
            Observation::Relay {
                node: NodeId(5),
                packet: ack,
            },
        ); // pure ACK ignored
        assert_eq!(r.relayed_set(NodeId(3)).unwrap().len(), 2);
        assert!(r.relayed_set(NodeId(5)).is_none());
        assert_eq!(r.heard_set(NodeId(3)).unwrap().len(), 3);
        deliver(&mut r, &data(10, 100), t(1.0));
        let delivered: Vec<PacketId> = r
            .delivered_part(r.relayed_set(NodeId(3)).unwrap())
            .iter()
            .collect();
        assert_eq!(delivered, [PacketId(10)]);
    }

    #[test]
    fn trace_kept_only_when_enabled() {
        let frame = &NetPacket::Data(data(1, 100));
        let mut silent = Recorder::new();
        tx(&mut silent, 0, frame, 100, t(0.0));
        assert!(silent.trace().is_empty());

        let mut loud = Recorder::with_trace();
        let mut quiet = Recorder::new();
        quiet.trace_mode = TraceMode::Fingerprint;
        for r in [&mut loud, &mut quiet] {
            tx(r, 0, frame, 100, t(0.0));
            deliver(r, &data(1, 100), t(0.5));
            let obs = Observation::LinkFailure {
                node: NodeId(0),
                next_hop: NodeId(1),
                packet: frame,
            };
            r.observe(t(0.7), obs);
        }
        assert_eq!(loud.trace().len(), 3);
        assert!(quiet.trace().is_empty());
        let fingerprint = |r: &Recorder| r.trace_fingerprint().finish();
        assert_eq!(fingerprint(&quiet), fingerprint(&loud));
        assert_ne!(fingerprint(&quiet), fingerprint(&silent));
    }
}
