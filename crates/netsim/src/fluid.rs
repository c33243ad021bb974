//! Analytic fluid model for background traffic: the hybrid engine's coarse
//! traffic level, beside the per-frame packet path.
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
//! each.  An epoch costs its active flows, not all flows: the max-min
//! kernel's inputs are kept between epochs and change only with an arrival,
//! a completion or a corridor that moves to new regions, and a cached
//! corridor is not even looked at while a kinetic validity window proves
//! that its endpoints cannot have moved far enough to change it
//! (docs/TRAFFIC.md, "Inputs kept between epochs").
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

/// First connection id used for generated background flows.  Foreground
/// (scenario) connections are indices below `u16::MAX`, and the stack asserts
/// that bound, so generated fluid flows can never collide with them.
pub const FLUID_CONN_BASE: u32 = 1 << 16;

/// One explicitly placed background flow (used by the experiment runner to
/// route scenario flows through the fluid engine; generated flows draw their
/// endpoints from the seed instead).
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
/// demand.  Demands must not be NaN (asserted).  A thin wrapper: it flattens
/// the paths and adds each flow to fresh `MaxMinInputs` for
/// `max_min_kernel`, the update a fluid epoch applies to an arriving flow.
pub fn max_min_allocate(capacity: &[f64], paths: &[Vec<usize>], demands: &[f64]) -> Vec<f64> {
    assert_eq!(paths.len(), demands.len());
    if let Some(f) = demands.iter().position(|d| d.is_nan()) {
        panic!("flow {f} has a NaN demand");
    }
    let mut start = Vec::with_capacity(paths.len() + 1);
    let mut regions = Vec::new();
    let mut entries = vec![0; capacity.len()];
    start.push(0);
    for path in paths {
        for &r in path {
            assert!(r < capacity.len(), "path names region {r}, out of range");
            regions.push(u32::try_from(r).expect("region index fits u32"));
            entries[r] += 1;
        }
        start.push(regions.len());
    }
    let path = |f: usize| &regions[start[f]..start[f + 1]];
    let mut inputs = MaxMinInputs::new(capacity.len(), demands.to_vec());
    for (crossing, &n) in inputs.crossing.iter_mut().zip(&entries) {
        crossing.reserve_exact(n);
    }
    // A flow without positive demand takes no capacity and stays at 0.
    // Added by ascending demand, every insertion into the demand order is an
    // append; the order is the same multiset whatever the order of adding.
    let mut order: Vec<usize> = (0..paths.len()).filter(|&f| demands[f] > 0.0).collect();
    order.sort_unstable_by(|&a, &b| demands[a].total_cmp(&demands[b]));
    for f in order {
        inputs.join(f);
        inputs.cross(f, path(f));
    }
    let mut scratch = MaxMinScratch::default();
    max_min_kernel(capacity, &inputs, path, &mut scratch);
    scratch.alloc
}

/// Regions the kernel's subtraction chain advances in step.
const LANES: usize = 8;

/// [`max_min_kernel`]'s inputs, kept up to date by the flows that join,
/// leave or change their path rather than rebuilt per call.  Flows are ids
/// `0..demand.len()`; only joined flows take part, and they must have a
/// positive demand.  The rest stay at rate 0.
#[derive(Debug, Clone, Default)]
struct MaxMinInputs {
    /// Every id's demand cap, taking part or not.
    demand: Vec<f64>,
    /// Path entries of the joined flows per region (a repeated region counts
    /// once per mention), zero-padded to a multiple of [`LANES`].
    load: Vec<u32>,
    /// The joined flows, by ascending demand; ties in any order.
    by_demand: Vec<u32>,
    /// Region → crossing flows, one per path entry, in any order.
    crossing: Vec<Vec<u32>>,
}

impl MaxMinInputs {
    fn new(regions: usize, demand: Vec<f64>) -> Self {
        MaxMinInputs {
            demand,
            load: vec![0; regions.next_multiple_of(LANES)],
            by_demand: Vec::new(),
            crossing: vec![Vec::new(); regions],
        }
    }

    /// Put flow `f` into the demand order, after its ties.
    fn join(&mut self, f: usize) {
        let d = self.demand[f];
        debug_assert!(d > 0.0, "flow {f} joins with demand {d}");
        let at = match self.by_demand.last() {
            // Flows mostly join in demand order: equal generated demands, or
            // the wrapper's sorted flows.
            Some(&g) if self.demand[g as usize] > d => self
                .by_demand
                .partition_point(|&g| self.demand[g as usize] <= d),
            _ => self.by_demand.len(),
        };
        self.by_demand.insert(at, f as u32);
    }

    /// Take flow `f` out of the demand order.
    fn leave(&mut self, f: usize) {
        let d = self.demand[f];
        let ties = self
            .by_demand
            .partition_point(|&g| self.demand[g as usize] < d);
        let at = ties
            + self.by_demand[ties..]
                .iter()
                .position(|&g| g as usize == f)
                .expect("a leaving flow has joined");
        self.by_demand.remove(at);
    }

    /// Count flow `f`'s path into the loads and adjacency lists.
    fn cross(&mut self, f: usize, path: &[u32]) {
        for &r in path {
            self.load[r as usize] += 1;
            self.crossing[r as usize].push(f as u32);
        }
    }

    /// Take flow `f`'s path, as last crossed, back out.
    fn uncross(&mut self, f: usize, path: &[u32]) {
        for &r in path {
            self.load[r as usize] -= 1;
            let list = &mut self.crossing[r as usize];
            let at = list
                .iter()
                .position(|&g| g as usize == f)
                .expect("an uncrossed path was crossed");
            list.swap_remove(at);
        }
    }
}

/// [`max_min_kernel`]'s working vectors, kept between epochs so none
/// allocates.
#[derive(Debug, Clone, Default)]
struct MaxMinScratch {
    /// The result: `alloc[f]` is flow `f`'s rate.
    alloc: Vec<f64>,
    frozen: Vec<bool>,
    remaining: Vec<f64>,
    /// [`MaxMinInputs::load`] less the entries of the flows frozen so far.
    load: Vec<u32>,
}

/// [`max_min_allocate`] over maintained inputs: flow `f` crosses `path(f)`,
/// the path last passed to [`MaxMinInputs::cross`]; the rates land in
/// `s.alloc`.
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
/// free, ties in the demand order and the order of the adjacency lists
/// included, and an exhausted region's flows come from its adjacency list.
fn max_min_kernel<'p>(
    capacity: &[f64],
    inputs: &MaxMinInputs,
    path: impl Fn(usize) -> &'p [u32],
    s: &mut MaxMinScratch,
) {
    fn freeze(f: usize, level: f64, path: &[u32], s: &mut MaxMinScratch) {
        s.frozen[f] = true;
        s.alloc[f] = level;
        for &r in path {
            s.load[r as usize] -= 1;
        }
    }
    let demands = &inputs.demand;
    let by_demand = &inputs.by_demand;
    s.alloc.clear();
    s.alloc.resize(demands.len(), 0.0);
    s.frozen.clear();
    s.frozen.resize(demands.len(), false);
    // Padding regions carry no load, so no round looks at them.
    s.remaining.clear();
    s.remaining.extend_from_slice(capacity);
    s.remaining.resize(inputs.load.len(), 0.0);
    s.load.clear();
    s.load.extend_from_slice(&inputs.load);
    let mut level = 0.0f64;
    let mut active = by_demand.len();
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
        while s.frozen[by_demand[lowest] as usize] {
            lowest += 1;
        }
        delta = delta.min(demands[by_demand[lowest] as usize] - level);
        if !delta.is_finite() {
            // No flow crosses any finite-capacity resource: everyone gets
            // their full demand.
            for &f in &by_demand[lowest..] {
                let f = f as usize;
                if !s.frozen[f] {
                    s.alloc[f] = demands[f];
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
        while lowest < by_demand.len() {
            let f = by_demand[lowest] as usize;
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
        for (r, crossing) in inputs.crossing.iter().enumerate() {
            // Load left on an exhausted region: all of it freezes here, so
            // each adjacency list is walked at most once per call.
            if s.load[r] > 0 && s.remaining[r] <= 1e-9 {
                for &f in crossing {
                    let f = f as usize;
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
    for &f in &by_demand[lowest..] {
        let f = f as usize;
        if !s.frozen[f] {
            s.alloc[f] = level;
        }
    }
}

#[derive(Debug, Clone)]
struct Flow {
    conn: u32,
    src: NodeId,
    dst: NodeId,
    start: SimTime,
    /// Total bytes to transfer; `f64::INFINITY` for unbounded flows.
    total: f64,
    delivered: f64,
    rate: f64,
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

/// Margin the corridor guard withholds from the slack, metres: six orders
/// above the rounding in the sampled coordinates.
const GUARD_MARGIN_M: f64 = 1e-6;

/// Margin a validity window withholds on top of the guard's, metres: it
/// absorbs the rounding of position evaluation and of leg hand-overs, as
/// the neighbourhood cache's does.
const WINDOW_MARGIN_M: f64 = 1e-6;

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

impl CorridorAnchor {
    /// Max-norm displacement of endpoints at `a` and `b` from the sampled
    /// ones.
    fn moved(&self, a: Position, b: Position) -> f64 {
        (a.x - self.a.x)
            .abs()
            .max((a.y - self.a.y).abs())
            .max((b.x - self.b.x).abs())
            .max((b.y - self.b.y).abs())
    }

    /// The guard: endpoints `moved` (max-norm) from the sampled ones get the
    /// cached corridor from a fresh sample (see [`RegionGrid::sample`]).
    fn holds(&self, moved: f64) -> bool {
        std::f64::consts::SQRT_2 * moved < self.slack - GUARD_MARGIN_M
    }

    /// The validity window a guard check at `now` that measured `moved`
    /// opens: the guard holds at every instant before the one returned.  No
    /// endpoint moves faster than `top_speed` (`v̂`), so each axis of `moved`
    /// grows by at most `v̂·t` in `t` seconds and the guard holds for
    /// `(slack − 1e-6 − √2·moved − margin) / (√2·v̂)` more.
    fn window(&self, now: SimTime, moved: f64, top_speed: f64) -> SimTime {
        let sqrt2 = std::f64::consts::SQRT_2;
        let margin = self.slack - GUARD_MARGIN_M - sqrt2 * moved - WINDOW_MARGIN_M;
        if margin > 0.0 {
            // `v̂ = 0` divides to infinity: nothing moves until a leg does,
            // and that leg closes every window.
            now + Duration::from_secs((margin / (sqrt2 * top_speed)).min(f64::MAX))
        } else {
            now
        }
    }
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
    /// half-cell steps into the front of `cells` (room for `max_corridor`),
    /// and anchored in `anchor` with the slack [`CorridorAnchor::holds`]
    /// checks (endpoints drift centimetres per epoch; corridors change about
    /// once a simulated second).
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
    fn sample<'c>(
        &self,
        a: Position,
        b: Position,
        anchor: &mut CorridorAnchor,
        cells: &'c mut [u32],
    ) -> &'c [u32] {
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
    /// A resampled corridor's previous regions.
    old_path: Vec<u32>,
    residual: Vec<f64>,
    region_demand: Vec<f64>,
    region_alloc: Vec<f64>,
    kernel: MaxMinScratch,
}

/// Runtime state of the fluid layer (lives in `World.fluid`).
///
/// The max-min kernel's inputs live here between epochs and move only with
/// the flows: an arrival joins the demand order and crosses its corridor, a
/// completion leaves both, and a corridor that resamples to new regions is
/// uncrossed and crossed again.  Every other epoch input is read in place:
/// the corridors from `corridor_cells`, the demands from `inputs`.
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
    /// Index of the first flow not yet activated: flows before it are active
    /// or done, flows from it on are pending.
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
    /// Indices into `flows` of the active flows, ascending: the order the
    /// per-region sums add them in.
    active: Vec<u32>,
    /// The active flows with a byte budget, in any order: the only ones that
    /// can complete.
    bounded: Vec<u32>,
    /// Cached corridor of flow `i`: `corridor_cells[i × max_corridor..]`,
    /// valid as `anchors[i]` says.
    anchors: Vec<CorridorAnchor>,
    corridor_cells: Vec<u32>,
    /// Flow `i`'s validity window: before `valid_until[i]` its guard holds
    /// without evaluating either endpoint (see [`CorridorAnchor::window`]).
    valid_until: Vec<SimTime>,
    /// The max-min kernel's inputs over the active flows, by flow index.
    inputs: MaxMinInputs,
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
        let bytes = |b: u64| if b == 0 { f64::INFINITY } else { b as f64 };
        let mut flows = Vec::with_capacity(cfg.total_flows());
        for spec in &cfg.explicit {
            flows.push((
                Flow {
                    conn: spec.conn,
                    src: spec.src,
                    dst: spec.dst,
                    start: SimTime::ZERO + spec.start,
                    total: bytes(spec.bytes),
                    delivered: 0.0,
                    rate: 0.0,
                },
                spec.demand_bytes_per_sec,
            ));
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
            flows.push((
                Flow {
                    conn: FLUID_CONN_BASE + k,
                    src,
                    dst,
                    start: SimTime::from_secs(start),
                    total: bytes(cfg.flow_bytes),
                    delivered: 0.0,
                    rate: 0.0,
                },
                cfg.demand_bytes_per_sec,
            ));
        }
        flows.sort_by(|(a, _), (b, _)| a.start.cmp(&b.start).then(a.conn.cmp(&b.conn)));
        let (flows, demands): (Vec<Flow>, Vec<f64>) = flows.into_iter().unzip();
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
            active: Vec::new(),
            bounded: Vec::new(),
            anchors: vec![CorridorAnchor::default(); flows.len()],
            corridor_cells: vec![0; flows.len() * grid.max_corridor()],
            valid_until: vec![SimTime::ZERO; flows.len()],
            inputs: MaxMinInputs::new(regions, demands),
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

    /// Close every corridor's validity window: the engine calls this when a
    /// leg breaks the motion bound the windows assume (faster than `v̂`, or
    /// not starting where its node stands).  The guards stay valid, so the
    /// next epoch checks each corridor against them.
    pub(crate) fn close_windows(&mut self) {
        self.valid_until.fill(SimTime::ZERO);
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

    /// Resample flow `i`'s corridor for endpoints at `a` and `b` at `now`,
    /// moving its path in the kernel inputs with it when the regions changed
    /// (most resamples, forced by a guard that is only sufficient, do not).
    fn resample(&mut self, i: usize, a: Position, b: Position, now: SimTime, top_speed: f64) {
        let stride = self.grid.max_corridor();
        let cells = &mut self.corridor_cells[i * stride..(i + 1) * stride];
        let anchor = &mut self.anchors[i];
        let old = &mut self.scratch.old_path;
        old.clear();
        old.extend_from_slice(&cells[..anchor.len]);
        let path = self.grid.sample(a, b, anchor, cells);
        if path != &old[..] {
            self.inputs.uncross(i, old);
            self.inputs.cross(i, path);
        }
        self.valid_until[i] = anchor.window(now, 0.0, top_speed);
    }

    /// Activate flow `i` at `now`: it joins the active lists and the kernel
    /// inputs with a fresh corridor.  Building the inputs from nothing is
    /// this update applied to every active flow.
    fn admit(
        &mut self,
        i: usize,
        now: SimTime,
        top_speed: f64,
        position: &mut impl FnMut(NodeId) -> Position,
    ) {
        self.active.push(i as u32);
        if self.flows[i].total.is_finite() {
            self.bounded.push(i as u32);
        }
        self.inputs.join(i);
        let (a, b) = (position(self.flows[i].src), position(self.flows[i].dst));
        self.resample(i, a, b, now, top_speed);
    }

    /// Take the finished flow `i` out of the bounded list and the kernel
    /// inputs (the caller drops it from `active`).
    fn retire(&mut self, i: usize) {
        let at = self
            .bounded
            .iter()
            .position(|&g| g as usize == i)
            .expect("a finishing flow is bounded");
        self.bounded.swap_remove(at);
        let stride = self.grid.max_corridor();
        let path = &self.corridor_cells[i * stride..i * stride + self.anchors[i].len];
        self.inputs.uncross(i, path);
        self.inputs.leave(i);
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
        let mut kept = 0;
        for k in 0..self.active.len() {
            let i = self.active[k] as usize;
            let f = &mut self.flows[i];
            if f.rate > 0.0 {
                let remaining = f.total - f.delivered;
                let moved = f.rate * dt;
                if moved >= remaining - COMPLETION_EPS_BYTES {
                    let at = SimTime::from_secs(
                        (self.last_advance.as_secs() + (remaining / f.rate).max(0.0))
                            .min(now.as_secs()),
                    );
                    f.delivered = f.total;
                    self.completed_at[i] = Some(at);
                    completions.push(FluidCompletion {
                        conn: f.conn,
                        src: f.src,
                        delivered: f.total as u64,
                        at,
                    });
                    self.retire(i);
                    continue;
                }
                f.delivered += moved;
            }
            self.active[kept] = i as u32;
            kept += 1;
        }
        self.active.truncate(kept);
        // Completion order = analytic completion time, ties by conn.
        completions.sort_by(|x, y| x.at.cmp(&y.at).then(x.conn.cmp(&y.conn)));
        self.last_advance = now;
    }

    /// One epoch: advance the ledgers, admit arrivals, re-estimate the
    /// foreground load, bring the corridors up to date with the endpoint
    /// positions, recompute the max-min fair allocation, and report when the
    /// next epoch is due.
    ///
    /// `position` must resolve a node's position at `now` (the engine passes
    /// the memoised `World::position_of`), and no node may have moved faster
    /// than `top_speed` since the last [`FluidState::close_windows`].  A
    /// corridor inside its validity window evaluates neither endpoint.  The
    /// epoch's per-region rates stay readable through
    /// [`FluidState::region_rates`] until the next one.
    pub(crate) fn epoch(
        &mut self,
        now: SimTime,
        top_speed: f64,
        mut position: impl FnMut(NodeId) -> Position,
    ) -> EpochOutcome {
        let mut out = EpochOutcome::default();
        self.advance(now, &mut out.completions);
        for k in 0..self.active.len() {
            let i = self.active[k] as usize;
            let f = &self.flows[i];
            let anchor = &self.anchors[i];
            if now < self.valid_until[i] {
                #[cfg(debug_assertions)]
                {
                    let moved = anchor.moved(position(f.src), position(f.dst));
                    assert!(
                        anchor.holds(moved),
                        "fluid conn {} kept its corridor past the guard at {now}: \
                         moved {moved} m, slack {} m",
                        f.conn,
                        anchor.slack
                    );
                }
                continue;
            }
            let (a, b) = (position(f.src), position(f.dst));
            let moved = anchor.moved(a, b);
            if anchor.holds(moved) {
                self.valid_until[i] = anchor.window(now, moved, top_speed);
            } else {
                self.resample(i, a, b, now, top_speed);
            }
        }
        while self.next_arrival < self.flows.len() && self.flows[self.next_arrival].start <= now {
            self.admit(self.next_arrival, now, top_speed, &mut position);
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
        let stride = self.grid.max_corridor();
        let (cells, anchors) = (&self.corridor_cells, &self.anchors);
        let path = |i: usize| &cells[i * stride..i * stride + anchors[i].len];
        max_min_kernel(&s.residual, &self.inputs, path, &mut s.kernel);
        for sums in [&mut s.region_demand, &mut s.region_alloc] {
            sums.clear();
            sums.resize(self.busy_frac.len(), 0.0);
        }
        for &i in &self.active {
            let i = i as usize;
            let rate = s.kernel.alloc[i];
            self.flows[i].rate = rate;
            let demand = self.inputs.demand[i];
            for &r in path(i) {
                s.region_demand[r as usize] += demand;
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
        for &i in &self.bounded {
            let f = &self.flows[i as usize];
            if f.rate > 0.0 {
                // Floor the wait at 1 µs: a nearly-done flow must never
                // round its next epoch onto the current f64 timestamp, or
                // the engine would spin without advancing time.
                let wait = ((f.total - f.delivered).max(0.0) / f.rate).max(1e-6);
                consider(SimTime::from_secs(now.as_secs() + wait));
            }
        }
        if !self.active.is_empty() {
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
        let left = self.active.iter().map(|&i| {
            let f = &self.flows[i as usize];
            f.total - f.delivered
        });
        let smallest = left.fold(f64::INFINITY, f64::min);
        let count = self.active.len();
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
                let paths: Vec<Vec<u32>> = paths
                    .iter()
                    .map(|path| path.iter().map(|&r| r as u32).collect())
                    .collect();
                // Joined in flow order, not by demand: most insertions land
                // mid-order.
                let mut inputs = MaxMinInputs::new(caps.len(), demands.clone());
                for (f, path) in paths.iter().enumerate().filter(|&(f, _)| demands[f] > 0.0) {
                    inputs.join(f);
                    inputs.cross(f, path);
                }
                max_min_kernel(&caps, &inputs, |f| &paths[f], &mut scratch);
                let paths: Vec<Vec<usize>> = paths
                    .iter()
                    .map(|path| path.iter().map(|&r| r as usize).collect())
                    .collect();
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

    #[test]
    #[should_panic(expected = "flow 1 has a NaN demand")]
    fn nan_demand_is_rejected() {
        max_min_allocate(&[5.0], &[vec![0], vec![]], &[1.0, f64::NAN]);
    }

    /// The epoch's corridor lookup without the window: the cached corridor
    /// while the guard holds, a fresh sample otherwise.
    fn guarded_corridor<'c>(
        grid: &RegionGrid,
        a: Position,
        b: Position,
        anchor: &mut CorridorAnchor,
        cells: &'c mut [u32],
    ) -> &'c [u32] {
        if anchor.holds(anchor.moved(a, b)) {
            &cells[..anchor.len]
        } else {
            grid.sample(a, b, anchor, cells)
        }
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
                let got = guarded_corridor(&grid, a, b, &mut anchor, &mut cells);
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
        let out = fluid.epoch(SimTime::ZERO, 0.0, pos);
        assert!(out.completions.is_empty());
        // Uncontended: the flow gets its full demand, so it finishes in 1 s.
        let next = out.next.expect("an active flow schedules a next epoch");
        assert!(close(next.as_secs(), 1.0), "{next}");
        assert!(!rates(&fluid).is_empty());
        let out = fluid.epoch(next, 0.0, pos);
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
        fluid.epoch(SimTime::ZERO, 0.0, pos);
        let free_alloc = rates(&fluid)[0].2;
        // The fluid slice is *reserved*: moderate foreground (well under
        // channel − region_capacity) must leave it untouched…
        fluid.note_foreground(Position::new(100.0, 100.0), 100_000);
        fluid.epoch(SimTime::from_secs(1.0), 0.0, pos);
        assert_eq!(
            rates(&fluid)[0].2,
            free_alloc,
            "light foreground load must not dent the reserved fluid slice"
        );
        // …but foreground crowding the whole channel (1.3 MB/s of a
        // 1.375 MB/s channel) squeezes the slice down to what is left.
        fluid.note_foreground(Position::new(100.0, 100.0), 1_300_000);
        fluid.epoch(SimTime::from_secs(2.0), 0.0, pos);
        let loaded_alloc = rates(&fluid)[0].2;
        assert!(
            loaded_alloc < free_alloc,
            "saturating foreground load must shrink the fluid share \
             ({loaded_alloc} vs {free_alloc})"
        );
    }

    impl FluidState {
        /// `self` with its kernel inputs, corridors, windows and scratch
        /// thrown away and rebuilt by admitting every active flow again at
        /// `now`: the from-scratch state an epoch at `now` would start from
        /// without incremental upkeep.
        fn rebuilt(&self, now: SimTime, mut position: impl FnMut(NodeId) -> Position) -> Self {
            let mut twin = FluidState {
                active: Vec::new(),
                bounded: Vec::new(),
                anchors: vec![CorridorAnchor::default(); self.flows.len()],
                valid_until: vec![SimTime::ZERO; self.flows.len()],
                inputs: MaxMinInputs::new(self.busy_frac.len(), self.inputs.demand.clone()),
                scratch: EpochScratch::default(),
                ..self.clone()
            };
            for &i in &self.active {
                twin.admit(i as usize, now, 0.0, &mut position);
            }
            twin
        }

        /// Every f64 an epoch leaves behind, as bits: the flow rates, the
        /// busy fractions and both region-rate vectors.
        fn epoch_bits(&self) -> Vec<u64> {
            let rates = self.flows.iter().map(|f| f.rate);
            let (demand, alloc) = self.region_rates();
            let all = rates
                .chain(self.busy_frac.iter().copied())
                .chain(demand.iter().copied())
                .chain(alloc.iter().copied());
            all.map(f64::to_bits).collect()
        }
    }

    proptest! {
        /// One state keeps its kernel inputs, corridors and windows for 150
        /// epochs; its twin is rebuilt from nothing before every epoch.
        /// Drawn: generated flows, bounded or not, arriving spread out or all
        /// at once; explicit flows at two other demands, two of them starting
        /// together; nodes static (`v̂ = 0`) or moving at up to `v̂`; one
        /// epoch that raises `v̂` and one that teleports a node, both
        /// followed by [`FluidState::close_windows`]; now and then a second
        /// epoch at the same instant.  A stale input, a skipped corridor
        /// that a fresh sample would change, or a completion the maintained
        /// lists miss splits the two, bit for bit.
        #[test]
        fn reused_scratch_and_corridors_match_a_state_rebuilt_every_epoch(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sim = sim_for(40);
            sim.field_width = 3000.0;
            sim.field_height = 2500.0;
            let spec = |conn: u32, start: f64, bytes: u64, demand: f64, rng: &mut SmallRng| {
                let src = rng.gen_range(0..40u16);
                FluidFlowSpec {
                    conn,
                    src: NodeId(src),
                    dst: NodeId((src + rng.gen_range(1..40u16)) % 40),
                    start: Duration::from_secs(start),
                    bytes,
                    demand_bytes_per_sec: demand,
                }
            };
            let together = rng.gen_range(0.0..2.0);
            let cfg = FluidConfig {
                flows: rng.gen_range(0..120u32),
                flow_bytes: [0, 8_000, 20_000][rng.gen_range(0..3usize)],
                demand_bytes_per_sec: 40_000.0,
                capacity_share: 0.05,
                arrival_spread: Duration::from_secs([0.0, 6.0][rng.gen_range(0..2usize)]),
                explicit: vec![
                    spec(1, together, 4_000, 9_000.0, &mut rng),
                    spec(2, together, 0, 90_000.0, &mut rng),
                    spec(3, rng.gen_range(0.0..6.0), 0, 9_000.0, &mut rng),
                    spec(4, rng.gen_range(0.0..6.0), 25_000, 90_000.0, &mut rng),
                ],
                ..FluidConfig::default()
            };
            let mut kept = FluidState::new(&cfg, &sim);
            let mut twin = kept.clone();
            let mut nodes: Vec<Position> = (0..sim.num_nodes)
                .map(|_| Position::new(rng.gen_range(0.0..3000.0), rng.gen_range(0.0..2500.0)))
                .collect();
            // Velocities of at most `v̂`, a hair under it so that the
            // summed steps never outrun the bound by rounding.
            let mut top_speed = [0.0, rng.gen_range(0.5..20.0)][rng.gen_range(0..2usize)];
            let velocities = |v: f64, rng: &mut SmallRng| -> Vec<(f64, f64)> {
                (0..40)
                    .map(|_| {
                        let (speed, dir) = (v * rng.gen_range(0.0..0.999), rng.gen_range(0.0..std::f64::consts::TAU));
                        (speed * dir.cos(), speed * dir.sin())
                    })
                    .collect()
            };
            let mut velocity = velocities(top_speed, &mut rng);
            let (speed_up, teleport) = (rng.gen_range(1..150u32), rng.gen_range(1..150u32));
            let (mut evaluated_kept, mut evaluated_twin, mut completed) = (0u64, 0u64, 0);
            let mut now = SimTime::ZERO;
            for k in 0..150u32 {
                if k > 0 && rng.gen_range(0..10u32) != 0 {
                    let dt = 0.05;
                    now = SimTime::from_secs(now.as_secs() + dt);
                    for (p, (vx, vy)) in nodes.iter_mut().zip(&velocity) {
                        p.x += vx * dt;
                        p.y += vy * dt;
                    }
                }
                if k == speed_up {
                    top_speed = 3.0 * top_speed + 5.0;
                    velocity = velocities(top_speed, &mut rng);
                    kept.close_windows();
                }
                if k == teleport {
                    nodes[rng.gen_range(0..40usize)].x += 300.0;
                    kept.close_windows();
                }
                let at = nodes[rng.gen_range(0..nodes.len())];
                kept.note_foreground(at, 40_000);
                twin.note_foreground(at, 40_000);
                let mut twin_position = |n: NodeId| {
                    evaluated_twin += 1;
                    nodes[n.index()]
                };
                twin = twin.rebuilt(now, &mut twin_position);
                let b = twin.epoch(now, top_speed, &mut twin_position);
                let a = kept.epoch(now, top_speed, |n: NodeId| {
                    evaluated_kept += 1;
                    nodes[n.index()]
                });
                prop_assert_eq!(a.next, b.next, "epoch {}", k);
                let done = |out: &EpochOutcome| -> Vec<(u32, u64, SimTime)> {
                    out.completions.iter().map(|c| (c.conn, c.delivered, c.at)).collect()
                };
                prop_assert_eq!(done(&a), done(&b), "epoch {}", k);
                prop_assert!(kept.epoch_bits() == twin.epoch_bits(), "epoch {}: rates split", k);
                completed += a.completions.len();
            }
            prop_assert!(completed > 0, "no flow completed");
            prop_assert!(
                evaluated_kept <= evaluated_twin,
                "kept evaluated {} positions, rebuilt {}",
                evaluated_kept,
                evaluated_twin
            );
        }
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
        fluid.epoch(SimTime::ZERO, 0.0, pos);
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
