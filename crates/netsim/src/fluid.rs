//! Analytic fluid model for background traffic (the hybrid engine's third
//! abstraction level, alongside `neighbor_index` and `event_queue`).
//!
//! Foreground flows keep full per-frame MAC fidelity; *background* flows are
//! modelled as fluid demands routed over the same topology snapshots the
//! engine already maintains.  The field is partitioned into a grid of
//! carrier-sense-sized regions; each fluid flow claims bandwidth along the
//! straight-line corridor of regions between its (moving) endpoints, and the
//! per-region channel capacity is split across the flows crossing it by
//! iterative max-min fair sharing ([`max_min_allocate`]).
//!
//! Allocations are recomputed **lazily on epoch events** — flow arrivals,
//! analytic completions, endpoint waypoint changes, and a periodic cap
//! ([`FluidConfig::max_epoch_gap`]) — never per frame, which is what lets the
//! hybrid engine carry thousands of background flows for a handful of events
//! each.
//!
//! Coupling is bidirectional:
//!
//! * **fluid → packet**: each region's allocated fluid rate becomes a busy
//!   *fraction* of the channel, surfaced to the MAC as a deterministic
//!   periodic busy pulse (`FluidState::busy_until`) that carrier sense
//!   treats exactly like a neighbour's transmission.  No randomness is
//!   drawn, so runs stay reproducible and `background: None` takes no
//!   branches at all (the Off-means-identical contract).
//! * **packet → fluid**: foreground transmissions are tallied per region
//!   (`FluidState::note_foreground`); at each epoch the allocatable
//!   capacity is `min(capacity_share × channel_rate, channel_rate −
//!   foreground_rate)` — the fluid layer owns a reserved slice of the
//!   channel and is squeezed only once the foreground crowds the whole
//!   channel, so saturating foreground load pushes the background out.

use crate::config::SimConfig;
use crate::geometry::Position;
use crate::time::{Duration, SimTime};
use manet_wire::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// First connection id used for generated background flows.  Foreground
/// (scenario) connections are indices below `u16::MAX`, and the stack asserts
/// that bound, so generated fluid flows can never collide with them.
pub const FLUID_CONN_BASE: u32 = 1 << 16;

/// One explicitly placed background flow (used by the experiment runner to
/// route scenario flows through the fluid engine; generated flows draw their
/// endpoints from the seed instead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidFlowSpec {
    /// Connection id.  Explicit flows use scenario connection ids (below
    /// [`FLUID_CONN_BASE`]) so stack reports and metrics line up.
    pub conn: u32,
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Arrival time, as an offset from the start of the run.
    pub start: Duration,
    /// Bytes to transfer; `0` means unbounded (the flow runs until the end
    /// of the simulation and never completes).
    pub bytes: u64,
    /// Per-flow demand cap, bytes per second.
    pub demand_bytes_per_sec: f64,
}

/// Background fluid-traffic parameters ([`SimConfig::background`]).
///
/// `None` disables the fluid layer entirely: the engine takes no extra
/// branches, draws no randomness and schedules no events, so runs are
/// byte-identical to pre-hybrid traces (asserted by the golden-trace suite).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidConfig {
    /// Number of generated background flows (seed-derived random endpoint
    /// pairs, arrivals spread evenly over [`FluidConfig::arrival_spread`]).
    pub flows: u32,
    /// Bytes each generated flow transfers; `0` means unbounded.
    pub flow_bytes: u64,
    /// Per-flow demand cap for generated flows, bytes per second.
    pub demand_bytes_per_sec: f64,
    /// Fraction of the raw channel rate (in `(0, 1]`) the fluid layer may
    /// claim per region.  Foreground traffic squeezes this slice only once
    /// it crowds the whole channel: the allocatable capacity per region is
    /// `min(capacity_share × channel_rate, channel_rate − foreground_rate)`.
    pub capacity_share: f64,
    /// Airtime a region loses per delivered fluid byte, as a multiple of the
    /// byte's own serialisation time (`≥ 0`; `0` disables the fluid → packet
    /// coupling).  End-to-end fluid bytes are cheap on the allocation ledger
    /// but expensive on the air: every byte is relayed across several hops
    /// and wrapped in MAC framing, RTS/CTS, link-layer retries and transport
    /// acks, so the busy fraction foreground carrier sense observes is
    /// `allocated_rate × busy_overhead / channel_rate` (capped below 1).
    pub busy_overhead: f64,
    /// Period of the deterministic busy pulse the MAC sees.  Each region is
    /// "busy" for the first `busy_fraction × pulse_period` of every period.
    pub pulse_period: Duration,
    /// Upper bound on the time between allocation recomputations.
    pub max_epoch_gap: Duration,
    /// Generated-flow arrivals are spread evenly over this window.
    pub arrival_spread: Duration,
    /// Explicitly placed flows, in addition to the generated ones.
    pub explicit: Vec<FluidFlowSpec>,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            flows: 0,
            flow_bytes: 0,
            demand_bytes_per_sec: 16_000.0,
            capacity_share: 0.25,
            busy_overhead: 1.0,
            pulse_period: Duration::from_millis(20.0),
            max_epoch_gap: Duration::from_secs(1.0),
            arrival_spread: Duration::from_secs(1.0),
            explicit: Vec::new(),
        }
    }
}

impl FluidConfig {
    /// Validate invariants the fluid engine relies on.
    pub fn validate(&self, num_nodes: u16) -> Result<(), String> {
        if self.flows > 0 || !self.explicit.is_empty() {
            if !(self.capacity_share > 0.0 && self.capacity_share <= 1.0) {
                return Err("fluid capacity_share must be in (0, 1]".into());
            }
            if !(self.busy_overhead >= 0.0 && self.busy_overhead.is_finite()) {
                return Err("fluid busy_overhead must be finite and non-negative".into());
            }
            // `!(x > 0)`, not `x <= 0`: `Duration`'s order panics on NaN, and a
            // deserialised config can carry one.
            for (name, period) in [
                ("pulse_period", self.pulse_period),
                ("max_epoch_gap", self.max_epoch_gap),
            ] {
                if !(period.as_secs() > 0.0 && period.as_secs().is_finite()) {
                    return Err(format!("fluid {name} must be finite and positive"));
                }
            }
        }
        let is_offset = |d: Duration| d.as_secs() >= 0.0 && d.as_secs().is_finite();
        if self.flows > 0 {
            if num_nodes < 2 {
                return Err("fluid background flows need at least 2 nodes".into());
            }
            if !(self.demand_bytes_per_sec > 0.0 && self.demand_bytes_per_sec.is_finite()) {
                return Err("fluid demand_bytes_per_sec must be finite and positive".into());
            }
            if !is_offset(self.arrival_spread) {
                return Err("fluid arrival_spread must be finite and non-negative".into());
            }
        }
        for spec in &self.explicit {
            let conn = spec.conn;
            if spec.src == spec.dst {
                return Err(format!("fluid flow {conn} has src == dst"));
            }
            if spec.src.index() >= num_nodes as usize || spec.dst.index() >= num_nodes as usize {
                return Err(format!("fluid flow {conn} endpoint out of range"));
            }
            if conn >= FLUID_CONN_BASE {
                return Err(format!(
                    "explicit fluid conn {conn} collides with the generated-flow id space"
                ));
            }
            if !(spec.demand_bytes_per_sec > 0.0 && spec.demand_bytes_per_sec.is_finite()) {
                return Err(format!(
                    "fluid flow {conn} demand must be finite and positive"
                ));
            }
            if !is_offset(spec.start) {
                return Err(format!(
                    "fluid flow {conn} start must be finite and non-negative"
                ));
            }
        }
        // The recorder keeps one ledger row per conn: a second flow on the
        // same id would overwrite the first and break byte conservation.
        let mut conns: Vec<u32> = self.explicit.iter().map(|spec| spec.conn).collect();
        conns.sort_unstable();
        if let Some(pair) = conns.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("two explicit fluid flows share conn {}", pair[0]));
        }
        Ok(())
    }

    /// Total number of fluid flows this configuration creates.
    pub fn total_flows(&self) -> usize {
        self.flows as usize + self.explicit.len()
    }
}

/// Iterative max-min fair sharing by progressive filling.
///
/// `capacity[r]` is the available rate of resource (region) `r`; `paths[f]`
/// lists the resources flow `f` crosses; `demands[f]` caps its rate.  All
/// unfrozen flows are raised in lockstep until one hits its demand or some
/// resource is exhausted; exhausted resources freeze every flow crossing
/// them.  The result is the unique max-min fair allocation, so it is
/// independent of flow order, monotone in demand, and sums to at most the
/// capacity on every resource (the property tests below assert all three).
///
/// A flow with an empty path is unconstrained by capacity and gets its
/// demand.  Demands must not be NaN.  A thin wrapper: it flattens the paths
/// for `max_min_kernel`.
pub fn max_min_allocate(capacity: &[f64], paths: &[Vec<usize>], demands: &[f64]) -> Vec<f64> {
    assert_eq!(paths.len(), demands.len());
    let mut start = Vec::with_capacity(paths.len() + 1);
    let mut regions = Vec::new();
    start.push(0);
    for path in paths {
        for &r in path {
            assert!(r < capacity.len(), "path names region {r}, out of range");
            regions.push(u32::try_from(r).expect("region index fits u32"));
        }
        start.push(u32::try_from(regions.len()).expect("path entries fit u32"));
    }
    let mut scratch = MaxMinScratch::default();
    max_min_kernel(capacity, &start, &regions, demands, &mut scratch);
    scratch.alloc
}

/// [`max_min_kernel`]'s vectors, kept between epochs so none allocates.
#[derive(Debug, Clone, Default)]
struct MaxMinScratch {
    /// The result: `alloc[f]` is flow `f`'s rate.
    alloc: Vec<f64>,
    frozen: Vec<bool>,
    remaining: Vec<f64>,
    /// Path entries of unfrozen flows per region (a repeated region counts
    /// once per mention).
    load: Vec<u32>,
    /// The positive-demand flows, by ascending demand.
    by_demand: Vec<u32>,
    /// Region → crossing flows, one per path entry: region `r` owns
    /// `crossing[cross_end[r - 1]..cross_end[r]]` (from 0 for region 0).
    cross_end: Vec<u32>,
    crossing: Vec<u32>,
}

/// [`max_min_allocate`] over flat paths: flow `f` crosses
/// `regions[start[f]..start[f + 1]]`; the rates land in `s.alloc`.
///
/// Progressive filling as one *water level*: every unfrozen flow has taken
/// the same increments from 0.0, so all hold the same rate, and a flow's rate
/// is the level of the round it froze in.  A round costs the regions plus the
/// flows it freezes, not a walk over every path, yet each f64 comes from the
/// operations the per-flow formulation performs (docs/TRAFFIC.md, "epoch
/// cost"): rounding is monotone, so the smallest `demand − level` belongs to
/// the smallest demand and the flows with `level ≥ demand − 1e-9` are a
/// prefix of the demand order; a region loses `delta` once per unfrozen path
/// entry, as `load[r]` *repeated* subtractions (order-free, but `load × delta`
/// would round differently); and freezing reads only the level and the
/// remaining capacities, which do not move within a round, so its order is
/// free and an exhausted region's flows come from its adjacency list.
fn max_min_kernel(
    capacity: &[f64],
    start: &[u32],
    regions: &[u32],
    demands: &[f64],
    s: &mut MaxMinScratch,
) {
    fn freeze(f: usize, level: f64, path: &[u32], s: &mut MaxMinScratch) {
        s.frozen[f] = true;
        s.alloc[f] = level;
        for &r in path {
            s.load[r as usize] -= 1;
        }
    }
    const LANES: usize = 8;
    let n = demands.len();
    assert_eq!(start.len(), n + 1);
    let path = |f: usize| &regions[start[f] as usize..start[f + 1] as usize];
    s.alloc.clear();
    s.alloc.resize(n, 0.0);
    s.frozen.clear();
    s.frozen.resize(n, false);
    // Padding regions carry no load, so no round looks at them.
    let padded = capacity.len().next_multiple_of(LANES);
    s.remaining.clear();
    s.remaining.extend_from_slice(capacity);
    s.remaining.resize(padded, 0.0);
    s.load.clear();
    s.load.resize(padded, 0);
    s.by_demand.clear();
    for (f, &demand) in demands.iter().enumerate() {
        if demand <= 0.0 {
            s.frozen[f] = true;
            continue;
        }
        s.by_demand.push(f as u32);
        for &r in path(f) {
            s.load[r as usize] += 1;
        }
    }
    s.by_demand
        .sort_unstable_by(|&a, &b| demands[a as usize].total_cmp(&demands[b as usize]));
    // `cross_end[r]` starts as region r's first slot and, advanced once per
    // entry written, finishes one past its last.
    s.cross_end.clear();
    let mut slots = 0;
    for &entries in &s.load {
        s.cross_end.push(slots);
        slots += entries;
    }
    s.crossing.clear();
    s.crossing.resize(slots as usize, 0);
    for &f in &s.by_demand {
        for &r in path(f as usize) {
            s.crossing[s.cross_end[r as usize] as usize] = f;
            s.cross_end[r as usize] += 1;
        }
    }
    let mut level = 0.0f64;
    let mut active = s.by_demand.len();
    // First flow in demand order that may still be unfrozen.
    let mut lowest = 0;
    while active > 0 {
        // Largest uniform increment every unfrozen flow can take: the
        // tightest per-resource fair share, or the smallest remaining demand.
        let mut delta = f64::INFINITY;
        for (&rem, &load) in s.remaining.iter().zip(&s.load) {
            if load > 0 {
                delta = delta.min(rem / f64::from(load));
            }
        }
        while s.frozen[s.by_demand[lowest] as usize] {
            lowest += 1;
        }
        delta = delta.min(demands[s.by_demand[lowest] as usize] - level);
        if !delta.is_finite() {
            // No flow crosses any finite-capacity resource: everyone gets
            // their full demand.
            for (f, &demand) in demands.iter().enumerate() {
                if !s.frozen[f] {
                    s.alloc[f] = demand;
                }
            }
            return;
        }
        let delta = delta.max(0.0);
        level += delta;
        // A region's subtractions are a serial chain, but regions are
        // independent: LANES advance in step, done ones subtracting +0.0,
        // which changes no f64.
        for (rem, load) in s
            .remaining
            .chunks_exact_mut(LANES)
            .zip(s.load.chunks_exact(LANES))
        {
            let rem: &mut [f64; LANES] = rem.try_into().expect("exact chunk");
            let load: &[u32; LANES] = load.try_into().expect("exact chunk");
            let mut left = *rem;
            for k in 0..load.iter().copied().max().unwrap_or(0) {
                for i in 0..LANES {
                    left[i] -= if k < load[i] { delta } else { 0.0 };
                }
            }
            *rem = left;
        }
        // Freeze flows that hit their demand or cross an exhausted resource.
        let before = active;
        while lowest < s.by_demand.len() {
            let f = s.by_demand[lowest] as usize;
            if !s.frozen[f] {
                if level >= demands[f] - 1e-9 {
                    freeze(f, level, path(f), s);
                    active -= 1;
                } else {
                    break;
                }
            }
            lowest += 1;
        }
        for r in 0..s.remaining.len() {
            // Load left on an exhausted region: all of it freezes here, so
            // each adjacency list is walked at most once per call.
            if s.load[r] > 0 && s.remaining[r] <= 1e-9 {
                let first = if r == 0 { 0 } else { s.cross_end[r - 1] };
                for slot in first..s.cross_end[r] {
                    let f = s.crossing[slot as usize] as usize;
                    if !s.frozen[f] {
                        freeze(f, level, path(f), s);
                        active -= 1;
                    }
                }
            }
        }
        if active == before && delta <= 0.0 {
            break; // numerical stall guard; cannot happen with positive slack
        }
    }
    for f in 0..n {
        if !s.frozen[f] {
            s.alloc[f] = level;
        }
    }
}

/// Lifecycle of one fluid flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowPhase {
    Pending,
    Active,
    Done,
}

#[derive(Debug, Clone)]
struct Flow {
    conn: u32,
    src: NodeId,
    dst: NodeId,
    start: SimTime,
    /// Total bytes to transfer; `f64::INFINITY` for unbounded flows.
    total: f64,
    demand: f64,
    delivered: f64,
    rate: f64,
    phase: FlowPhase,
}

/// A flow that analytically finished during an epoch advance.
#[derive(Debug, Clone)]
pub(crate) struct FluidCompletion {
    pub conn: u32,
    pub src: NodeId,
    pub delivered: u64,
    pub at: SimTime,
}

/// Result of one epoch recomputation.
#[derive(Debug, Default)]
pub(crate) struct EpochOutcome {
    /// Flows that completed since the previous epoch, in completion order.
    pub completions: Vec<FluidCompletion>,
    /// When the next epoch should run (`None` once every flow is done).
    pub next: Option<SimTime>,
}

/// Snapshot of one flow's byte ledger (recorder rows, metrics, endpoints).
#[derive(Debug, Clone)]
pub(crate) struct FluidLedgerRow {
    pub conn: u32,
    pub src: NodeId,
    pub dst: NodeId,
    pub offered: u64,
    pub delivered: u64,
    pub completed_at: Option<SimTime>,
}

/// Slack on bounded-flow completion, in bytes.  Large enough to absorb the
/// f64 rounding between a scheduled completion instant and the bytes moved
/// by the elapsed interval (~1e-12 B at simulation scales), small enough to
/// be invisible in the u64 byte ledgers.
const COMPLETION_EPS_BYTES: f64 = 1e-6;

/// The grid of carrier-sense-sized regions laid over the field.
#[derive(Debug, Clone, Copy)]
struct RegionGrid {
    cols: usize,
    rows: usize,
    cell_m: f64,
}

/// What a flow's cached corridor was sampled from: the endpoint positions,
/// and how far they may move before a fresh sample could differ.  The
/// default's zero slack never permits reuse.
#[derive(Debug, Clone, Copy, Default)]
struct CorridorAnchor {
    a: Position,
    b: Position,
    slack: f64,
    len: usize,
}

impl RegionGrid {
    /// Most regions a straight corridor can cross: its column and row indices
    /// are both monotone along the segment.
    fn max_corridor(&self) -> usize {
        self.cols + self.rows - 1
    }

    /// Region index of a position (positions outside the field clamp to the
    /// border regions).
    #[inline]
    fn region_of(&self, pos: Position) -> usize {
        let col = ((pos.x / self.cell_m) as isize).clamp(0, self.cols as isize - 1) as usize;
        let row = ((pos.y / self.cell_m) as isize).clamp(0, self.rows as isize - 1) as usize;
        row * self.cols + col
    }

    /// Distance from `pos` to the nearest line across which `region_of`
    /// changes (not the field's outer border: beyond it the index clamps).
    fn boundary_distance(&self, pos: Position) -> f64 {
        let axis = |v: f64, cells: usize| {
            if cells < 2 {
                return f64::INFINITY;
            }
            let u = v / self.cell_m;
            (u - u.round().clamp(1.0, (cells - 1) as f64)).abs() * self.cell_m
        };
        axis(pos.x, self.cols).min(axis(pos.y, self.rows))
    }

    /// Straight-line corridor of regions between two positions, sampled at
    /// half-cell steps into the front of `cells` (room for `max_corridor`) —
    /// or, while both endpoints are provably within the slack of the sample
    /// cached there, that sample (endpoints drift centimetres per epoch;
    /// corridors change about once a simulated second).
    ///
    /// Column and row indices are monotone in the sample index, so a region
    /// once left is never revisited and comparing with the last one
    /// deduplicates.  While neither endpoint is further than the slack
    /// (Euclidean) from `a` and `b`, resampling returns the same corridor:
    /// the step count holds while `dist / half-cell` stays between the same
    /// two integers, and `dist` moves by at most both displacements together,
    /// hence half that gap; a sample point moves by at most the larger
    /// displacement, so it keeps its region within its distance to a region
    /// boundary.  √2 × the max-norm displacement bounds the Euclidean one and
    /// 1e-6 m dwarfs the rounding in the sampled coordinates, so the result
    /// always equals a fresh sample.
    fn corridor<'c>(
        &self,
        a: Position,
        b: Position,
        anchor: &mut CorridorAnchor,
        cells: &'c mut [u32],
    ) -> &'c [u32] {
        let moved = (a.x - anchor.a.x)
            .abs()
            .max((a.y - anchor.a.y).abs())
            .max((b.x - anchor.b.x).abs())
            .max((b.y - anchor.b.y).abs());
        if std::f64::consts::SQRT_2 * moved < anchor.slack - 1e-6 {
            return &cells[..anchor.len];
        }
        let half_cell = self.cell_m * 0.5;
        let span = a.distance_to(b) / half_cell;
        let steps = (span.ceil() as usize).max(1);
        let below = if steps == 1 {
            f64::INFINITY // one step covers every span in [0, 1]
        } else {
            span - (steps - 1) as f64
        };
        let mut slack = (steps as f64 - span).min(below) * half_cell * 0.5;
        let mut len = 0;
        for s in 0..=steps {
            let t = s as f64 / steps as f64;
            let p = Position::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);
            let r = self.region_of(p) as u32;
            if len == 0 || cells[len - 1] != r {
                cells[len] = r;
                len += 1;
            }
            slack = slack.min(self.boundary_distance(p));
        }
        *anchor = CorridorAnchor { a, b, slack, len };
        &cells[..len]
    }
}

/// Per-epoch working vectors, cleared and refilled rather than reallocated.
#[derive(Debug, Clone, Default)]
struct EpochScratch {
    /// Indices into `flows` of the active flows; `demands`, `start` and the
    /// kernel's `alloc` run parallel to it.
    active: Vec<usize>,
    demands: Vec<f64>,
    /// Active flow `k` crosses `regions[start[k]..start[k + 1]]`.
    start: Vec<u32>,
    regions: Vec<u32>,
    residual: Vec<f64>,
    region_demand: Vec<f64>,
    region_alloc: Vec<f64>,
    kernel: MaxMinScratch,
}

/// Runtime state of the fluid layer (lives in `World.fluid`).
#[derive(Debug, Clone)]
pub(crate) struct FluidState {
    cfg: FluidConfig,
    grid: RegionGrid,
    /// Raw channel rate, bytes per second.
    channel_rate: f64,
    /// Fluid capacity per region before foreground subtraction, bytes/sec.
    region_capacity: f64,
    /// All flows, sorted by `(start, conn)`.
    flows: Vec<Flow>,
    /// Index of the first flow not yet activated.
    next_arrival: usize,
    /// Epoch generation; bumped when an endpoint's leg changes so stale
    /// scheduled epochs can be recognised and dropped.
    pub(crate) gen: u64,
    /// Time of the last analytic advance.
    last_advance: SimTime,
    /// Per-node flag: is this node an endpoint of any fluid flow?
    endpoint: Vec<bool>,
    /// Per-region fluid busy fraction in `[0, capacity_share]`.
    busy_frac: Vec<f64>,
    /// Foreground bytes transmitted per region since the last epoch.
    fg_bytes: Vec<u64>,
    /// Estimated foreground rate per region, bytes/sec.
    fg_rate: Vec<f64>,
    /// When the foreground counters were last reset.
    fg_since: SimTime,
    /// Completion times of flows that finished (conn order mirrors `flows`).
    completed_at: Vec<Option<SimTime>>,
    /// Cached corridor of flow `i`: `corridor_cells[i × max_corridor..]`,
    /// valid as `anchors[i]` says.
    anchors: Vec<CorridorAnchor>,
    corridor_cells: Vec<u32>,
    scratch: EpochScratch,
}

impl FluidState {
    /// Build the fluid layer for a run.  Generated flows draw their endpoint
    /// pairs from a dedicated seed-derived stream (SplitMix64 mixing, same
    /// scheme as `crate::rng`), so the flow population depends on the seed
    /// alone and not on how the packet layer consumed its streams.
    pub(crate) fn new(cfg: &FluidConfig, sim: &SimConfig) -> Self {
        let cell_m = sim.radio.carrier_sense_range().max(1.0);
        let grid = RegionGrid {
            cols: (sim.field_width / cell_m).ceil().max(1.0) as usize,
            rows: (sim.field_height / cell_m).ceil().max(1.0) as usize,
            cell_m,
        };
        let channel_rate = sim.mac.data_rate_bps / 8.0;
        let region_capacity = channel_rate * cfg.capacity_share;
        let mut flows = Vec::with_capacity(cfg.total_flows());
        for spec in &cfg.explicit {
            flows.push(Flow {
                conn: spec.conn,
                src: spec.src,
                dst: spec.dst,
                start: SimTime::ZERO + spec.start,
                total: if spec.bytes == 0 {
                    f64::INFINITY
                } else {
                    spec.bytes as f64
                },
                demand: spec.demand_bytes_per_sec,
                delivered: 0.0,
                rate: 0.0,
                phase: FlowPhase::Pending,
            });
        }
        // Seed-derived endpoint draws.
        let mut z = sim.seed ^ 0x666c_7569u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let mut rng = SmallRng::seed_from_u64(z);
        let n = sim.num_nodes;
        let spread = cfg.arrival_spread.as_secs();
        for k in 0..cfg.flows {
            let src = NodeId(rng.gen_range(0..n));
            let dst = loop {
                let d = NodeId(rng.gen_range(0..n));
                if d != src {
                    break d;
                }
            };
            // Deterministic even arrival spacing keeps epochs spread out
            // without extra randomness.
            let start = spread * (f64::from(k) + 0.5) / f64::from(cfg.flows.max(1));
            flows.push(Flow {
                conn: FLUID_CONN_BASE + k,
                src,
                dst,
                start: SimTime::from_secs(start),
                total: if cfg.flow_bytes == 0 {
                    f64::INFINITY
                } else {
                    cfg.flow_bytes as f64
                },
                demand: cfg.demand_bytes_per_sec,
                delivered: 0.0,
                rate: 0.0,
                phase: FlowPhase::Pending,
            });
        }
        flows.sort_by(|a, b| a.start.cmp(&b.start).then(a.conn.cmp(&b.conn)));
        let mut endpoint = vec![false; n as usize];
        for f in &flows {
            endpoint[f.src.index()] = true;
            endpoint[f.dst.index()] = true;
        }
        let regions = grid.cols * grid.rows;
        FluidState {
            cfg: cfg.clone(),
            grid,
            channel_rate,
            region_capacity,
            next_arrival: 0,
            gen: 0,
            last_advance: SimTime::ZERO,
            endpoint,
            busy_frac: vec![0.0; regions],
            fg_bytes: vec![0; regions],
            fg_rate: vec![0.0; regions],
            fg_since: SimTime::ZERO,
            completed_at: vec![None; flows.len()],
            anchors: vec![CorridorAnchor::default(); flows.len()],
            corridor_cells: vec![0; flows.len() * grid.max_corridor()],
            scratch: EpochScratch::default(),
            flows,
        }
    }

    /// True if `node` is an endpoint of any fluid flow (its waypoint changes
    /// trigger an epoch).
    #[inline]
    pub(crate) fn is_endpoint(&self, node: NodeId) -> bool {
        self.endpoint.get(node.index()).copied().unwrap_or(false)
    }

    /// Tally foreground bytes transmitted at `pos` (packet → fluid coupling).
    #[inline]
    pub(crate) fn note_foreground(&mut self, pos: Position, bytes: u64) {
        let r = self.grid.region_of(pos);
        self.fg_bytes[r] += bytes;
    }

    /// Fluid → packet coupling: until when the medium at `pos` is virtually
    /// busy with background traffic.  The allocated fluid rate of the region
    /// is rendered as a deterministic periodic pulse — the first
    /// `busy_fraction` of every [`FluidConfig::pulse_period`] is busy — so
    /// carrier sense defers foreground frames for exactly that fraction of
    /// airtime, with no randomness drawn.
    #[inline]
    pub(crate) fn busy_until(&self, pos: Position, now: SimTime) -> SimTime {
        let frac = self.busy_frac[self.grid.region_of(pos)];
        if frac <= 0.0 {
            return SimTime::ZERO;
        }
        let period = self.cfg.pulse_period.as_secs();
        let k = (now.as_secs() / period).floor();
        let busy_end = k * period + frac * period;
        if now.as_secs() < busy_end {
            SimTime::from_secs(busy_end)
        } else {
            SimTime::ZERO
        }
    }

    /// Advance every active flow analytically to `now`, collecting flows
    /// that completed on the way (with their exact analytic completion
    /// times).
    ///
    /// Completion is checked with `COMPLETION_EPS_BYTES` of slack: a
    /// bounded flow's completion epoch is scheduled at `now +
    /// remaining/rate` in f64 seconds, so when it fires, `rate × dt` can
    /// fall short of `remaining` by rounding error.  Without the slack the
    /// re-scheduled epoch lands on the *same* f64 timestamp (`dt == 0`),
    /// the flow never finishes, and the engine spins at constant simulated
    /// time.
    fn advance(&mut self, now: SimTime, completions: &mut Vec<FluidCompletion>) {
        let dt = now.as_secs() - self.last_advance.as_secs();
        for (i, f) in self.flows.iter_mut().enumerate() {
            if f.phase != FlowPhase::Active || f.rate <= 0.0 {
                continue;
            }
            let remaining = f.total - f.delivered;
            let moved = f.rate * dt;
            if moved >= remaining - COMPLETION_EPS_BYTES {
                let at = SimTime::from_secs(
                    (self.last_advance.as_secs() + (remaining / f.rate).max(0.0))
                        .min(now.as_secs()),
                );
                f.delivered = f.total;
                f.phase = FlowPhase::Done;
                self.completed_at[i] = Some(at);
                completions.push(FluidCompletion {
                    conn: f.conn,
                    src: f.src,
                    delivered: f.total as u64,
                    at,
                });
            } else {
                f.delivered += moved;
            }
        }
        // Completion order = analytic completion time, ties by conn.
        completions.sort_by(|x, y| x.at.cmp(&y.at).then(x.conn.cmp(&y.conn)));
        self.last_advance = now;
    }

    /// One epoch: advance the ledgers, admit arrivals, re-estimate the
    /// foreground load, recompute the max-min fair allocation from the
    /// current endpoint positions, and report when the next epoch is due.
    ///
    /// `position` must resolve a node's position at `now` (the engine passes
    /// the memoised `World::position_of`).  The epoch's per-region rates
    /// stay readable through [`FluidState::region_rates`] until the next one.
    pub(crate) fn epoch(
        &mut self,
        now: SimTime,
        mut position: impl FnMut(NodeId) -> Position,
    ) -> EpochOutcome {
        let mut out = EpochOutcome::default();
        self.advance(now, &mut out.completions);
        while self.next_arrival < self.flows.len() && self.flows[self.next_arrival].start <= now {
            if self.flows[self.next_arrival].phase == FlowPhase::Pending {
                self.flows[self.next_arrival].phase = FlowPhase::Active;
            }
            self.next_arrival += 1;
        }
        // Foreground rate estimate over the elapsed interval (kept from the
        // previous epoch when no time has passed).
        let fg_dt = now.as_secs() - self.fg_since.as_secs();
        if fg_dt > 0.0 {
            for (r, rate) in self.fg_rate.iter_mut().enumerate() {
                *rate = self.fg_bytes[r] as f64 / fg_dt;
            }
            self.fg_bytes.iter_mut().for_each(|b| *b = 0);
            self.fg_since = now;
        }
        // Max-min fair shares over the residual capacity.
        let s = &mut self.scratch;
        s.active.clear();
        s.demands.clear();
        s.regions.clear();
        s.start.clear();
        s.start.push(0);
        let stride = self.grid.max_corridor();
        for (i, f) in self.flows.iter().enumerate() {
            if f.phase != FlowPhase::Active {
                continue;
            }
            s.regions.extend_from_slice(self.grid.corridor(
                position(f.src),
                position(f.dst),
                &mut self.anchors[i],
                &mut self.corridor_cells[i * stride..(i + 1) * stride],
            ));
            s.start.push(s.regions.len() as u32);
            s.demands.push(f.demand);
            s.active.push(i);
        }
        // Fluid flows own a reserved slice (`region_capacity`) of the channel;
        // foreground squeezes that slice only once it crowds the *whole*
        // channel, not byte-for-byte — otherwise any corridor with live packet
        // traffic would zero the background there and the coupling would never
        // touch the very regions the foreground occupies.
        s.residual.clear();
        s.residual.extend(
            self.fg_rate
                .iter()
                .map(|&fg| self.region_capacity.min((self.channel_rate - fg).max(0.0))),
        );
        max_min_kernel(&s.residual, &s.start, &s.regions, &s.demands, &mut s.kernel);
        for sums in [&mut s.region_demand, &mut s.region_alloc] {
            sums.clear();
            sums.resize(self.busy_frac.len(), 0.0);
        }
        for (k, &i) in s.active.iter().enumerate() {
            let rate = s.kernel.alloc[k];
            self.flows[i].rate = rate;
            for &r in &s.regions[s.start[k] as usize..s.start[k + 1] as usize] {
                s.region_demand[r as usize] += s.demands[k];
                s.region_alloc[r as usize] += rate;
            }
        }
        for (busy, &a) in self.busy_frac.iter_mut().zip(&s.region_alloc) {
            // Every fluid byte costs `busy_overhead` bytes of airtime (hops,
            // framing, retries); the cap keeps a sliver of every pulse period
            // idle so foreground frames can never be starved outright.
            *busy = (a * self.cfg.busy_overhead / self.channel_rate).min(0.95);
        }
        // Next epoch: the earliest of next arrival, earliest analytic
        // completion, and the periodic cap — none once everything is done.
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(match next {
                None => t,
                Some(cur) => cur.min(t),
            });
        };
        if self.next_arrival < self.flows.len() {
            consider(self.flows[self.next_arrival].start.max(now));
        }
        let mut any_active = false;
        for f in &self.flows {
            if f.phase != FlowPhase::Active {
                continue;
            }
            any_active = true;
            if f.rate > 0.0 && f.total.is_finite() {
                // Floor the wait at 1 µs: a nearly-done flow must never
                // round its next epoch onto the current f64 timestamp, or
                // the engine would spin without advancing time.
                let wait = ((f.total - f.delivered).max(0.0) / f.rate).max(1e-6);
                consider(SimTime::from_secs(now.as_secs() + wait));
            }
        }
        if any_active {
            consider(now + self.cfg.max_epoch_gap);
        }
        out.next = next;
        out
    }

    /// The last epoch's background demand and max-min allocation per region,
    /// bytes/s, indexed by region.
    pub(crate) fn region_rates(&self) -> (&[f64], &[f64]) {
        (&self.scratch.region_demand, &self.scratch.region_alloc)
    }

    /// The state behind a run of same-instant epochs, for the engine's
    /// watchdog: a flow that is all but done and cannot finish is the known
    /// way to get one.
    pub(crate) fn stall_report(&self) -> String {
        let active = self.flows.iter().filter(|f| f.phase == FlowPhase::Active);
        let left = active.clone().map(|f| f.total - f.delivered);
        let (count, smallest) = (active.count(), left.fold(f64::INFINITY, f64::min));
        format!("{count} active flows, smallest remaining {smallest} bytes")
    }

    /// Final analytic advance at the end of the run: close the ledgers and
    /// return one row per flow (delivered bytes, completion time if any).
    /// Unstarted flows report zero bytes.
    pub(crate) fn final_rows(&mut self, now: SimTime) -> Vec<FluidLedgerRow> {
        let mut completions = Vec::new();
        self.advance(now, &mut completions);
        let mut rows: Vec<FluidLedgerRow> = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| FluidLedgerRow {
                conn: f.conn,
                src: f.src,
                dst: f.dst,
                offered: if f.total.is_finite() {
                    f.total as u64
                } else {
                    f.delivered as u64
                },
                delivered: f.delivered as u64,
                completed_at: self.completed_at[i],
            })
            .collect();
        rows.sort_by_key(|r| r.conn);
        rows
    }

    /// Flows that complete between the last epoch and `now`.  The engine
    /// calls this just before [`FluidState::final_rows`] at the end of the
    /// run so the trailing `flow_complete` telemetry is still emitted; the
    /// subsequent `final_rows` call at the same instant advances by zero
    /// time and cannot double-count.
    pub(crate) fn flush_completions(&mut self, now: SimTime) -> Vec<FluidCompletion> {
        let mut completions = Vec::new();
        self.advance(now, &mut completions);
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    /// The last epoch's nonzero `(region, demand, alloc)` rates, rounded as
    /// the telemetry sampler reports them.
    fn rates(fluid: &FluidState) -> Vec<(u32, u64, u64)> {
        let (demand, alloc) = fluid.region_rates();
        demand
            .iter()
            .zip(alloc)
            .enumerate()
            .filter(|(_, (&d, &a))| d > 0.0 || a > 0.0)
            .map(|(r, (&d, &a))| (r as u32, d.round() as u64, a.round() as u64))
            .collect()
    }

    /// The per-flow progressive filling [`max_min_kernel`] replaced, kept word
    /// for word: the kernel must reproduce every bit of it.
    fn max_min_reference(capacity: &[f64], paths: &[Vec<usize>], demands: &[f64]) -> Vec<f64> {
        assert_eq!(paths.len(), demands.len());
        let n = paths.len();
        let mut alloc = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        // Flows with an empty path (degenerate: both endpoints in one region —
        // the region still carries them) are given a synthetic single-hop path
        // upstream; here an empty path just means "unconstrained by capacity".
        let mut remaining: Vec<f64> = capacity.to_vec();
        let mut load: Vec<u32> = vec![0; capacity.len()];
        for (f, path) in paths.iter().enumerate() {
            if demands[f] <= 0.0 {
                frozen[f] = true;
                continue;
            }
            for &r in path {
                load[r] += 1;
            }
        }
        loop {
            let active = frozen.iter().filter(|&&z| !z).count();
            if active == 0 {
                break;
            }
            // Largest uniform increment every unfrozen flow can take: the
            // tightest per-resource fair share, or the smallest remaining demand.
            let mut delta = f64::INFINITY;
            for (r, &rem) in remaining.iter().enumerate() {
                if load[r] > 0 {
                    delta = delta.min(rem / f64::from(load[r]));
                }
            }
            for f in 0..n {
                if !frozen[f] {
                    delta = delta.min(demands[f] - alloc[f]);
                }
            }
            if !delta.is_finite() {
                // No flow crosses any finite-capacity resource: everyone gets
                // their full demand.
                for f in 0..n {
                    if !frozen[f] {
                        alloc[f] = demands[f];
                        frozen[f] = true;
                    }
                }
                break;
            }
            let delta = delta.max(0.0);
            for f in 0..n {
                if frozen[f] {
                    continue;
                }
                alloc[f] += delta;
                for &r in &paths[f] {
                    remaining[r] -= delta;
                }
            }
            // Freeze flows that hit their demand or cross an exhausted resource.
            let mut progressed = false;
            for f in 0..n {
                if frozen[f] {
                    continue;
                }
                let done =
                    alloc[f] >= demands[f] - 1e-9 || paths[f].iter().any(|&r| remaining[r] <= 1e-9);
                if done {
                    frozen[f] = true;
                    for &r in &paths[f] {
                        load[r] -= 1;
                    }
                    progressed = true;
                }
            }
            if !progressed && delta <= 0.0 {
                break; // numerical stall guard; cannot happen with positive slack
            }
        }
        alloc
    }

    #[test]
    fn equal_flows_split_a_single_link_evenly() {
        let alloc = max_min_allocate(&[9.0], &[vec![0], vec![0], vec![0]], &[100.0, 100.0, 100.0]);
        assert!(alloc.iter().all(|&a| close(a, 3.0)), "{alloc:?}");
    }

    #[test]
    fn small_demand_frees_capacity_for_the_rest() {
        let alloc = max_min_allocate(&[9.0], &[vec![0], vec![0]], &[1.0, 100.0]);
        assert!(close(alloc[0], 1.0), "{alloc:?}");
        assert!(close(alloc[1], 8.0), "{alloc:?}");
    }

    #[test]
    fn bottleneck_freezes_crossing_flows_only() {
        // Flow 0 crosses regions 0 and 1; flow 1 only region 1.  Region 0 is
        // the bottleneck for flow 0, letting flow 1 take the rest of 1.
        let alloc = max_min_allocate(&[2.0, 10.0], &[vec![0, 1], vec![1]], &[100.0, 100.0]);
        assert!(close(alloc[0], 2.0), "{alloc:?}");
        assert!(close(alloc[1], 8.0), "{alloc:?}");
    }

    #[test]
    fn unconstrained_flows_get_their_demand() {
        let alloc = max_min_allocate(&[5.0], &[vec![], vec![0]], &[7.0, 2.0]);
        assert!(close(alloc[0], 7.0), "{alloc:?}");
        assert!(close(alloc[1], 2.0), "{alloc:?}");
    }

    #[test]
    fn zero_demand_flows_stay_at_zero() {
        let alloc = max_min_allocate(&[5.0], &[vec![0], vec![0]], &[0.0, 10.0]);
        assert!(close(alloc[0], 0.0));
        assert!(close(alloc[1], 5.0));
    }

    /// Strategy: a small random sharing problem (3 regions, up to 6 flows).
    fn problems() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>, Vec<f64>)> {
        let caps = proptest::collection::vec(0.1f64..50.0, 3..4);
        let flows = proptest::collection::vec(
            (proptest::collection::vec(0usize..3, 1..3), 0.1f64..40.0),
            1..6,
        );
        (caps, flows).prop_map(|(caps, flows)| {
            let mut paths = Vec::new();
            let mut demands = Vec::new();
            for (mut path, d) in flows {
                path.sort_unstable();
                path.dedup();
                paths.push(path);
                demands.push(d);
            }
            (caps, paths, demands)
        })
    }

    proptest! {
        #[test]
        fn allocations_sum_to_at_most_capacity(problem in problems()) {
            let (caps, paths, demands) = problem;
            let alloc = max_min_allocate(&caps, &paths, &demands);
            for (r, &cap) in caps.iter().enumerate() {
                let used: f64 = alloc
                    .iter()
                    .zip(&paths)
                    .filter(|(_, p)| p.contains(&r))
                    .map(|(a, _)| a)
                    .sum();
                prop_assert!(used <= cap + 1e-6, "region {r}: used {used} > cap {cap}");
            }
            for (f, &a) in alloc.iter().enumerate() {
                prop_assert!(a >= 0.0 && a <= demands[f] + 1e-6);
            }
        }

        #[test]
        fn allocation_is_monotone_in_demand(problem in problems()) {
            let (caps, paths, demands) = problem;
            let base = max_min_allocate(&caps, &paths, &demands);
            let mut raised = demands.clone();
            raised[0] *= 2.0;
            let more = max_min_allocate(&caps, &paths, &raised);
            // Raising one flow's demand never lowers that flow's allocation.
            prop_assert!(more[0] >= base[0] - 1e-6, "{} < {}", more[0], base[0]);
        }

        #[test]
        fn allocation_is_order_independent(problem in problems()) {
            let (caps, paths, demands) = problem;
            let forward = max_min_allocate(&caps, &paths, &demands);
            let rev_paths: Vec<Vec<usize>> = paths.iter().rev().cloned().collect();
            let rev_demands: Vec<f64> = demands.iter().rev().cloned().collect();
            let backward = max_min_allocate(&caps, &rev_paths, &rev_demands);
            for (f, &a) in forward.iter().enumerate() {
                let b = backward[backward.len() - 1 - f];
                prop_assert!(close(a, b), "flow {f}: {a} vs {b}");
            }
        }
    }

    /// A sharing problem like the epochs' and unlike them: up to 64 regions
    /// and 300 flows, paths of 0–8 regions that may repeat one, a share of
    /// zero capacities and zero demands, demands all equal or all different.
    fn random_problem(rng: &mut SmallRng) -> (Vec<f64>, Vec<Vec<usize>>, Vec<f64>) {
        let regions = rng.gen_range(1..=64usize);
        let flows = rng.gen_range(0..=300usize);
        let equal_caps = rng.gen_range(0..2u32) == 0;
        let caps = (0..regions)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                _ if equal_caps => 343_750.0,
                _ => rng.gen_range(0.0..400_000.0),
            })
            .collect();
        let equal_demands = rng.gen_range(0..2u32) == 0;
        let demands = (0..flows)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => 0.0,
                _ if equal_demands => 16_000.0,
                1 => 1e9,
                _ => rng.gen_range(0.0..40_000.0),
            })
            .collect();
        let paths = (0..flows)
            .map(|_| {
                let hops = rng.gen_range(0..=8usize);
                (0..hops).map(|_| rng.gen_range(0..regions)).collect()
            })
            .collect();
        (caps, paths, demands)
    }

    proptest! {
        #[test]
        fn kernel_reproduces_the_reference_bit_for_bit(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..4 {
                let (caps, paths, demands) = random_problem(&mut rng);
                let want = max_min_reference(&caps, &paths, &demands);
                let got = max_min_allocate(&caps, &paths, &demands);
                for (f, (w, g)) in want.iter().zip(&got).enumerate() {
                    prop_assert_eq!(w.to_bits(), g.to_bits(), "flow {} of {}: {} vs {}", f, want.len(), w, g);
                }
            }
        }

        #[test]
        fn kernel_scratch_carries_nothing_between_calls(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut scratch = MaxMinScratch::default();
            for _ in 0..4 {
                let (caps, paths, demands) = random_problem(&mut rng);
                let mut start = vec![0u32];
                let mut regions = Vec::new();
                for path in &paths {
                    regions.extend(path.iter().map(|&r| r as u32));
                    start.push(regions.len() as u32);
                }
                max_min_kernel(&caps, &start, &regions, &demands, &mut scratch);
                let want = max_min_reference(&caps, &paths, &demands);
                prop_assert_eq!(
                    want.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                    scratch.alloc.iter().map(|g| g.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "names region 3, out of range")]
    fn out_of_range_region_is_rejected() {
        max_min_allocate(&[1.0, 1.0, 1.0], &[vec![0, 3]], &[1.0]);
    }

    /// The corridor the pre-arena code sampled: `contains` for the dedup, a
    /// fresh vector per call.
    fn corridor_reference(grid: &RegionGrid, a: Position, b: Position) -> Vec<u32> {
        let mut out = Vec::new();
        let dist = a.distance_to(b);
        let steps = ((dist / (grid.cell_m * 0.5)).ceil() as usize).max(1);
        for s in 0..=steps {
            let t = s as f64 / steps as f64;
            let p = Position::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);
            let r = grid.region_of(p) as u32;
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }

    proptest! {
        /// Random-walk both endpoints and ask for the corridor at every step
        /// through one cache: it must equal a from-scratch sample whether the
        /// guard reused or resampled.  Steps are log-uniform in 1 cm – 50 m
        /// (the engine's own are ≤ 5 cm); the walks hug a region boundary,
        /// leave the field, and drag `dist` across multiples of the half cell,
        /// the three places where a corridor changes under a small move.
        #[test]
        fn cached_corridor_equals_a_fresh_sample_along_random_walks(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cell_m = 550.0;
            let grid = RegionGrid {
                cols: rng.gen_range(1..=7usize),
                rows: rng.gen_range(1..=7usize),
                cell_m,
            };
            let (w, h) = (grid.cols as f64 * cell_m, grid.rows as f64 * cell_m);
            let mode = rng.gen_range(0..4u32);
            let mut a = Position::new(rng.gen_range(0.0..w), rng.gen_range(0.0..h));
            let mut b = Position::new(rng.gen_range(0.0..w), rng.gen_range(0.0..h));
            match mode {
                // Along a boundary: `a` sits a hair off a horizontal grid line.
                1 => a.y = rng.gen_range(0..=grid.rows) as f64 * cell_m + rng.gen_range(-1e-3..1e-3),
                // Across the field edge: `a` starts just inside the left border.
                2 => a.x = rng.gen_range(0.0..1.0),
                // Through a step-count transition: `dist` is a hair off a
                // multiple of the half cell.
                3 => {
                    let half_cells = rng.gen_range(1..=8u32);
                    b = Position::new(a.x + f64::from(half_cells) * cell_m * 0.5 + rng.gen_range(-0.05..0.05), a.y);
                }
                _ => {}
            }
            let mut anchor = CorridorAnchor::default();
            let mut cells = vec![0u32; grid.max_corridor()];
            let mut reused = 0;
            for step in 0..300 {
                let got = grid.corridor(a, b, &mut anchor, &mut cells);
                prop_assert_eq!(got, &corridor_reference(&grid, a, b)[..], "step {} from {:?} to {:?}", step, a, b);
                reused += usize::from(anchor.a != a || anchor.b != b);
                for (p, pinned_y) in [(&mut a, mode == 1), (&mut b, false)] {
                    let len = 10f64.powf(rng.gen_range(-2.0..1.7));
                    let dir = rng.gen_range(0.0..std::f64::consts::TAU);
                    p.x += len * dir.cos();
                    // The boundary walker keeps to its line, give or take 0.1 mm.
                    p.y += if pinned_y { rng.gen_range(-1e-4..1e-4) } else { len * dir.sin() };
                }
                if mode == 3 {
                    // Keep `b` on `a`'s row so that only `dist` decides.
                    b.y = a.y;
                }
            }
            // The guard must not be vacuous: centimetre steps mostly reuse.
            prop_assert!(mode != 0 || reused > 0, "no reuse in 300 free steps");
        }
    }

    fn sim_for(nodes: u16) -> SimConfig {
        let mut sim = SimConfig::default();
        sim.num_nodes = nodes;
        sim
    }

    #[test]
    fn generated_flows_are_seed_deterministic_and_in_the_reserved_id_space() {
        let mut cfg = FluidConfig::default();
        cfg.flows = 10;
        cfg.flow_bytes = 50_000;
        let a = FluidState::new(&cfg, &sim_for(20));
        let b = FluidState::new(&cfg, &sim_for(20));
        assert_eq!(a.flows.len(), 10);
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(
                (x.conn, x.src, x.dst, x.start),
                (y.conn, y.src, y.dst, y.start)
            );
            assert!(x.conn >= FLUID_CONN_BASE);
            assert_ne!(x.src, x.dst);
        }
    }

    #[test]
    fn epoch_allocates_and_completes_flows_analytically() {
        let mut cfg = FluidConfig::default();
        cfg.explicit.push(FluidFlowSpec {
            conn: 1,
            src: NodeId(0),
            dst: NodeId(1),
            start: Duration::ZERO,
            bytes: 10_000,
            demand_bytes_per_sec: 10_000.0,
        });
        let mut fluid = FluidState::new(&cfg, &sim_for(2));
        let pos = |n: NodeId| Position::new(100.0 + 300.0 * f64::from(n.0), 100.0);
        let out = fluid.epoch(SimTime::ZERO, pos);
        assert!(out.completions.is_empty());
        // Uncontended: the flow gets its full demand, so it finishes in 1 s.
        let next = out.next.expect("an active flow schedules a next epoch");
        assert!(close(next.as_secs(), 1.0), "{next}");
        assert!(!rates(&fluid).is_empty());
        let out = fluid.epoch(next, pos);
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].conn, 1);
        assert_eq!(out.completions[0].delivered, 10_000);
        assert!(close(out.completions[0].at.as_secs(), 1.0));
        assert!(out.next.is_none(), "no flows left, no more epochs");
        let rows = fluid.final_rows(SimTime::from_secs(2.0));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].delivered, 10_000);
        assert!(rows[0].completed_at.is_some());
    }

    #[test]
    fn foreground_load_squeezes_fluid_allocation() {
        let mut cfg = FluidConfig::default();
        cfg.capacity_share = 0.1; // 137.5 kB/s per region at 11 Mb/s
        cfg.explicit.push(FluidFlowSpec {
            conn: 1,
            src: NodeId(0),
            dst: NodeId(1),
            start: Duration::ZERO,
            bytes: 0,
            demand_bytes_per_sec: 1e9,
        });
        let mut fluid = FluidState::new(&cfg, &sim_for(2));
        let pos = |_: NodeId| Position::new(100.0, 100.0);
        fluid.epoch(SimTime::ZERO, pos);
        let free_alloc = rates(&fluid)[0].2;
        // The fluid slice is *reserved*: moderate foreground (well under
        // channel − region_capacity) must leave it untouched…
        fluid.note_foreground(Position::new(100.0, 100.0), 100_000);
        fluid.epoch(SimTime::from_secs(1.0), pos);
        assert_eq!(
            rates(&fluid)[0].2,
            free_alloc,
            "light foreground load must not dent the reserved fluid slice"
        );
        // …but foreground crowding the whole channel (1.3 MB/s of a
        // 1.375 MB/s channel) squeezes the slice down to what is left.
        fluid.note_foreground(Position::new(100.0, 100.0), 1_300_000);
        fluid.epoch(SimTime::from_secs(2.0), pos);
        let loaded_alloc = rates(&fluid)[0].2;
        assert!(
            loaded_alloc < free_alloc,
            "saturating foreground load must shrink the fluid share \
             ({loaded_alloc} vs {free_alloc})"
        );
    }

    /// One state keeps its scratch and corridor cache for 200 epochs; its twin
    /// is rebuilt before every epoch from a clone with both emptied.  Stale
    /// scratch or a corridor reused past its guard would split them.
    #[test]
    fn reused_scratch_and_corridors_match_a_state_rebuilt_every_epoch() {
        let mut sim = sim_for(40);
        sim.field_width = 3000.0;
        sim.field_height = 2500.0;
        let mut cfg = FluidConfig::default();
        cfg.flows = 120;
        cfg.flow_bytes = 30_000;
        cfg.demand_bytes_per_sec = 40_000.0;
        cfg.capacity_share = 0.05;
        cfg.arrival_spread = Duration::from_secs(6.0);
        let mut kept = FluidState::new(&cfg, &sim);
        let mut rebuilt = kept.clone();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut nodes: Vec<Position> = (0..sim.num_nodes)
            .map(|_| Position::new(rng.gen_range(0.0..3000.0), rng.gen_range(0.0..2500.0)))
            .collect();
        let mut completed = 0;
        for k in 0..200u32 {
            let now = SimTime::from_secs(0.05 * f64::from(k));
            // Centimetre drift, and now and then a node far enough away that
            // its corridors must be resampled.
            for p in nodes.iter_mut() {
                let hop = if rng.gen_range(0..50u32) == 0 {
                    300.0
                } else {
                    0.05
                };
                p.x += rng.gen_range(-1.0..1.0) * hop;
                p.y += rng.gen_range(-1.0..1.0) * hop;
            }
            let at = nodes[rng.gen_range(0..nodes.len())];
            kept.note_foreground(at, 40_000);
            rebuilt.note_foreground(at, 40_000);
            rebuilt = FluidState {
                anchors: vec![CorridorAnchor::default(); rebuilt.flows.len()],
                scratch: EpochScratch::default(),
                ..rebuilt.clone()
            };
            let a = kept.epoch(now, |n| nodes[n.index()]);
            let b = rebuilt.epoch(now, |n| nodes[n.index()]);
            assert_eq!(a.next, b.next, "epoch {k}");
            assert_eq!(rates(&kept), rates(&rebuilt), "epoch {k}");
            completed += a.completions.len();
            let bits = |s: &FluidState| -> Vec<u64> {
                let rates = s.flows.iter().map(|f| f.rate.to_bits());
                rates
                    .chain(s.busy_frac.iter().map(|b| b.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&kept), bits(&rebuilt), "epoch {k}");
        }
        assert!(
            completed > 20,
            "flows must come and go: {completed} completed"
        );
        let reused = kept.anchors.iter().filter(|a| a.slack > 0.0).count();
        assert!(reused > 0, "the kept state must hold live corridors");
    }

    #[test]
    fn busy_pulse_is_deterministic_and_bounded() {
        let mut cfg = FluidConfig::default();
        cfg.capacity_share = 0.5;
        cfg.explicit.push(FluidFlowSpec {
            conn: 1,
            src: NodeId(0),
            dst: NodeId(1),
            start: Duration::ZERO,
            bytes: 0,
            demand_bytes_per_sec: 1e9,
        });
        let mut fluid = FluidState::new(&cfg, &sim_for(2));
        let pos = |_: NodeId| Position::new(100.0, 100.0);
        fluid.epoch(SimTime::ZERO, pos);
        let p = Position::new(100.0, 100.0);
        let period = cfg.pulse_period.as_secs();
        // At the start of a period the medium is virtually busy...
        let b = fluid.busy_until(p, SimTime::from_secs(10.0 * period));
        assert!(b > SimTime::from_secs(10.0 * period));
        // ... for at most capacity_share of the period ...
        assert!(b.as_secs() <= (10.0 + cfg.capacity_share) * period + 1e-9);
        // ... and idle at the end of the period.
        let idle = fluid.busy_until(p, SimTime::from_secs((10.0 + 0.9) * period));
        assert_eq!(idle, SimTime::ZERO);
        // A region with no fluid routed through it is never busy.
        let far = Position::new(900.0, 900.0);
        assert_eq!(
            fluid.busy_until(far, SimTime::from_secs(1.0)),
            SimTime::ZERO
        );
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let sim = sim_for(10);
        let mut cfg = FluidConfig::default();
        cfg.flows = 4;
        assert!(cfg.validate(sim.num_nodes).is_ok());
        cfg.capacity_share = 0.0;
        assert!(cfg.validate(sim.num_nodes).is_err());
        cfg.capacity_share = 0.25;
        cfg.demand_bytes_per_sec = 0.0;
        assert!(cfg.validate(sim.num_nodes).is_err());
        cfg.demand_bytes_per_sec = 1000.0;
        cfg.explicit.push(FluidFlowSpec {
            conn: FLUID_CONN_BASE,
            src: NodeId(0),
            dst: NodeId(1),
            start: Duration::ZERO,
            bytes: 1,
            demand_bytes_per_sec: 1.0,
        });
        assert!(cfg.validate(sim.num_nodes).is_err(), "reserved conn id");
        cfg.explicit[0].conn = 3;
        cfg.explicit[0].dst = NodeId(0);
        assert!(cfg.validate(sim.num_nodes).is_err(), "src == dst");
        cfg.explicit[0].dst = NodeId(1);
        assert!(cfg.validate(sim.num_nodes).is_ok());
        assert!(cfg.validate(1).is_err(), "2 nodes needed");
    }

    fn explicit_flow(conn: u32) -> FluidFlowSpec {
        FluidFlowSpec {
            conn,
            src: NodeId(0),
            dst: NodeId(1),
            start: Duration::ZERO,
            bytes: 1_000,
            demand_bytes_per_sec: 1_000.0,
        }
    }

    /// Everything a deserialised duration can be that `from_secs` refuses.
    const BAD_SECS: [f64; 3] = [-1.0, f64::INFINITY, f64::NAN];

    #[test]
    fn validate_rejects_two_explicit_flows_on_one_conn() {
        let mut cfg = FluidConfig::default();
        cfg.explicit = vec![explicit_flow(3), explicit_flow(4), explicit_flow(3)];
        let err = cfg.validate(10).expect_err("conn 3 is listed twice");
        assert!(err.contains("share conn 3"), "{err}");
        cfg.explicit[2].conn = 5;
        assert!(cfg.validate(10).is_ok());
    }

    #[test]
    fn validate_rejects_a_bad_arrival_spread() {
        let mut cfg = FluidConfig::default();
        cfg.flows = 4;
        for secs in BAD_SECS {
            cfg.arrival_spread = Duration::unchecked(secs);
            let err = cfg.validate(10).expect_err("bad arrival_spread");
            assert!(err.contains("arrival_spread"), "{secs}: {err}");
        }
        cfg.arrival_spread = Duration::ZERO;
        assert!(
            cfg.validate(10).is_ok(),
            "all flows arriving at once is fine"
        );
    }

    #[test]
    fn validate_rejects_a_bad_explicit_start() {
        let mut cfg = FluidConfig::default();
        cfg.explicit = vec![explicit_flow(3)];
        for secs in BAD_SECS {
            cfg.explicit[0].start = Duration::unchecked(secs);
            let err = cfg.validate(10).expect_err("bad start");
            assert!(err.contains("flow 3 start"), "{secs}: {err}");
        }
    }

    #[test]
    fn validate_rejects_a_non_finite_pulse_period() {
        let mut cfg = FluidConfig::default();
        cfg.flows = 4;
        for secs in [0.0, f64::INFINITY, f64::NAN] {
            cfg.pulse_period = Duration::unchecked(secs);
            let err = cfg.validate(10).expect_err("bad pulse_period");
            assert!(err.contains("pulse_period"), "{secs}: {err}");
        }
    }

    #[test]
    fn validate_rejects_a_non_finite_max_epoch_gap() {
        let mut cfg = FluidConfig::default();
        cfg.flows = 4;
        for secs in [0.0, f64::INFINITY, f64::NAN] {
            cfg.max_epoch_gap = Duration::unchecked(secs);
            let err = cfg.validate(10).expect_err("bad max_epoch_gap");
            assert!(err.contains("max_epoch_gap"), "{secs}: {err}");
        }
    }
}
