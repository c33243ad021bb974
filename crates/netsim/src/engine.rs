//! The discrete-event engine.
//!
//! [`Simulator`] owns the [`World`] (positions, MAC state, carrier-sense
//! state, the event queue, the recorder) and one [`NodeStack`] per node, and
//! runs the event loop until the configured duration elapses.
//!
//! # The medium
//!
//! A frame crosses the medium through one ordered path, one site per
//! concern:
//!
//! 1. **Pre-transmit.**  `World::mac_enqueue` sends a unicast between the
//!    wormhole endpoints through the tunnel (`World::tunnel`) instead of the
//!    radio.  Every other frame waits for a `MacAttempt` after
//!    `World::backoff` (DIFS plus a random backoff, nothing for a rusher),
//!    and defers while carrier sense finds the medium busy.
//! 2. **Outcome**, per receiver, at the frame's `TxEnd`
//!    (`World::received_intact`): collision, then jamming.  Each observes
//!    what destroyed the reception.  A wormhole endpoint's broadcast is then
//!    replayed through the tunnel to the far endpoint, unless radio got it
//!    there; third parties overhear a unicast promiscuously.
//! 3. **Hand-over** (`Simulator::hand_over`): the choice hook, if one is
//!    installed, decides each addressed reception (deliver, drop or delay;
//!    see [`crate::choice`]), and `Simulator::deliver` hands it to its
//!    stack.  The tunnel exit and a delayed reception end in the same
//!    `deliver`.
//!
//! The radio is a unit disk (see [`crate::radio`]).  The outcome stage
//! draws from the channel stream only for a targeted frame near a jammer,
//! so runs without a jammer are byte-identical to runs of an engine that
//! has none.
//!
//! # The broadcast hot path
//!
//! Every transmission must answer "who hears this?" twice: the receiver set
//! (transmission range) and the busy set (carrier-sense range).  The
//! engine-level optimisations that keep the steady-state transmission path
//! allocation- and copy-free, and better than O(N) per transmission:
//!
//! * a [`SpatialGrid`] neighbor index (see [`crate::grid`]) binning node
//!   anchors into cells of side ≥ carrier-sense range + slack, maintained
//!   incrementally: a node is rebinned when its waypoint leg changes and via
//!   a deferred drift-refresh queue processed lazily before each query.  The
//!   refresh queue is engine-private — it does **not** go through the main
//!   event queue, so the index schedules no event of its own.  Cells carry
//!   the anchor inline, so the query prefilters candidates by anchor
//!   distance over contiguous memory before any kinematic state is touched.
//!   Debug builds check every scan against the brute-force answer: each
//!   node whose exact position lies within the query radius must have been
//!   offered (`World::scan`).
//! * a dense precomputed per-leg kinematics table (unit direction and leg
//!   length computed once per leg change, not per evaluation) behind a
//!   per-(node, time) position cache for repeated same-instant lookups.
//! * **zero-copy payloads**: frames carry their [`NetPacket`] behind an
//!   `Arc` ([`manet_wire::SharedPacket`]), so a broadcast to k receivers
//!   shares one allocation; unicast deliveries move the engine's sole
//!   reference into the receiving stack, which can take ownership for free
//!   ([`Ctx::claim_packet`]).  The `payload_clones_avoided` /
//!   `payload_deep_clones` counters account every hand-off; clean runs are
//!   fully copy-free (asserted in `tests/queue_equivalence.rs`).
//! * a per-node cached neighbourhood (`neighborhood.rs` has the argument): the
//!   carrier-sense and receiver sets of a node's last scan are reused until
//!   motion could change them, so most transmissions scan nothing.  The
//!   receiver list is lent to the transmission in flight and handed back at
//!   its `TxEnd`; the per-receiver outcome list is recycled and the
//!   carrier-sense busy set lives in one dense 8-byte-per-node array, so
//!   steady-state transmissions allocate nothing.
//! * the future event list is a self-tuning calendar queue (amortised O(1);
//!   see [`crate::calendar`]) that pops in exactly a binary heap's order,
//!   which debug builds assert on every pop.
//!
//! Counters for all of these are surfaced through
//! [`Recorder::engine_perf`](crate::recorder::Recorder::engine_perf).

use crate::calendar::CalendarQueue;
use crate::choice::{ChoiceDecision, ChoicePoint, DeliveryChoiceHook};
use crate::config::SimConfig;
use crate::event::{Event, EventQueue, QueuedFrame, TxId};
use crate::fluid::{FluidCompletion, FluidState};
use crate::geometry::Position;
use crate::grid::SpatialGrid;
use crate::mac::{airtime, InFlight, MacState, RxInterval};
use crate::mobility::{MobilityModel, Waypoint};
use crate::neighborhood::{Neighborhood, SCAN_HORIZON_M};
use crate::node::{Ctx, NodeStack, TimerToken};
use crate::recorder::{
    DropReason, EnginePerf, FluidFlowTotals, Observation, PacketRef, Recorder, TraceMode,
};
use crate::rng::RngStreams;
use crate::time::{Duration, SimTime};
use manet_telemetry::Telemetry;
use manet_wire::{Frame, MacDest, NetPacket, NodeId, SharedPacket};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Per-node mobility bookkeeping.
#[derive(Debug, Clone)]
struct NodeMotion {
    leg: Waypoint,
    epoch: u64,
}

/// Precomputed kinematic state of one node's current leg, dense and
/// sqrt-free: [`Waypoint::position_at`] recomputes the leg length and unit
/// direction (two square roots) on every evaluation, but both are constants
/// of the leg — the engine hot path evaluates tens of candidate positions
/// per transmission, so they are computed once per leg change here instead.
/// `position_at` reproduces the `Waypoint` math bit-for-bit.
#[derive(Debug, Clone, Copy)]
struct Kinematics {
    from: Position,
    to: Position,
    dir: crate::geometry::Vector2,
    dist: f64,
    speed: f64,
    start: SimTime,
}

impl Kinematics {
    fn of(leg: &Waypoint) -> Self {
        let dist = leg.from.distance_to(leg.to);
        let dir = if dist == 0.0 {
            crate::geometry::Vector2::default()
        } else {
            (leg.to - leg.from).normalized()
        };
        Kinematics {
            from: leg.from,
            to: leg.to,
            dir,
            dist,
            speed: leg.speed,
            start: leg.start,
        }
    }

    /// Identical to [`Waypoint::position_at`] on the source leg, with the
    /// per-leg constants precomputed.
    #[inline]
    fn position_at(&self, now: SimTime) -> Position {
        if self.speed <= 0.0 || now <= self.start {
            return self.from;
        }
        if self.dist == 0.0 {
            return self.to;
        }
        let travelled = (now.since(self.start).as_secs() * self.speed).min(self.dist);
        self.from + self.dir * travelled
    }
}

/// Engine performance counters.  `Cell`-based so read-only query paths
/// (`&World`) can count without threading `&mut` everywhere; the engine is
/// single-threaded, so plain `Cell` suffices.
#[derive(Debug, Default)]
struct PerfCells {
    neighbor_queries: Cell<u64>,
    neighbor_cache_hits: Cell<u64>,
    candidates_scanned: Cell<u64>,
    grid_rebinds: Cell<u64>,
    grid_refreshes: Cell<u64>,
    position_cache_hits: Cell<u64>,
    position_cache_misses: Cell<u64>,
    payload_clones_avoided: Cell<u64>,
    payload_deep_clones: Cell<u64>,
    stale_tx_ends: Cell<u64>,
}

fn inc(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

fn add(c: &Cell<u64>, k: u64) {
    c.set(c.get() + k);
}

impl PerfCells {
    fn snapshot(&self) -> EnginePerf {
        EnginePerf {
            neighbor_queries: self.neighbor_queries.get(),
            neighbor_cache_hits: self.neighbor_cache_hits.get(),
            candidates_scanned: self.candidates_scanned.get(),
            grid_rebinds: self.grid_rebinds.get(),
            grid_refreshes: self.grid_refreshes.get(),
            position_cache_hits: self.position_cache_hits.get(),
            position_cache_misses: self.position_cache_misses.get(),
            payload_clones_avoided: self.payload_clones_avoided.get(),
            payload_deep_clones: self.payload_deep_clones.get(),
            stale_tx_ends: self.stale_tx_ends.get(),
            // The event-queue counters are filled in by `Simulator::finalize`.
            ..EnginePerf::default()
        }
    }
}

/// The spatial grid plus its drift-refresh machinery.
///
/// `refresh_queue` holds at most one live `(due, node, generation)` entry per
/// node: when it comes due (checked lazily before each query), the node has
/// drifted up to `slack` metres from its anchor and is rebinned.  Generations
/// invalidate queued entries when a leg change rebins a node early.
#[derive(Debug)]
struct NeighborGrid {
    spatial: SpatialGrid,
    refresh_queue: BinaryHeap<Reverse<(SimTime, NodeId, u64)>>,
    gens: Vec<u64>,
}

impl NeighborGrid {
    /// Next drift-refresh due time for a node rebinned at `now` on `leg`, or
    /// `None` if the leg cannot drift past the slack before it ends (the
    /// `WaypointReached` rebin covers it from there).
    fn refresh_due(slack: f64, leg: &Waypoint, now: SimTime) -> Option<SimTime> {
        if leg.speed <= 0.0 {
            return None;
        }
        let moving_from = if leg.start > now { leg.start } else { now };
        let due = moving_from + Duration::from_secs(slack / leg.speed);
        (due < leg.arrival_time()).then_some(due)
    }
}

/// Everything in the simulation except the protocol stacks.
///
/// Kept separate from the stacks so a stack callback can freely mutate the
/// world through its [`Ctx`] while the engine holds a mutable borrow of the
/// stack itself.
pub struct World {
    /// Simulation parameters.
    pub config: SimConfig,
    /// Current simulation time.
    pub now: SimTime,
    queue: EventQueue,
    rngs: RngStreams,
    recorder: Recorder,
    motions: Vec<NodeMotion>,
    /// Dense precomputed per-leg kinematics, mirroring `motions` (see
    /// [`Kinematics`]); the transmit-path candidate scan evaluates positions
    /// through this array without touching the position cache.
    kin: Vec<Kinematics>,
    macs: Vec<MacState>,
    mobility: Box<dyn MobilityModel>,
    next_tx_id: u64,
    events_processed: u64,
    /// Neighbor index.  Behind a `RefCell` because deferred refreshes run
    /// lazily inside `&self` query paths.
    grid: RefCell<NeighborGrid>,
    /// Memoised position per node, keyed by the evaluation time.
    pos_cache: Vec<Cell<Option<(SimTime, Position)>>>,
    perf: PerfCells,
    /// Each node's cached neighbourhood (see [`crate::neighborhood`]).
    hoods: Vec<Neighborhood>,
    /// `v̂`: the largest leg speed the mobility model has issued so far.
    top_speed: f64,
    /// Scratch for the per-receiver outcomes of one `TxEnd`: `None` for a
    /// reception the medium destroyed, otherwise the hand-over decision.
    outcomes_scratch: Vec<(NodeId, Option<ChoiceDecision>)>,
    /// Carrier-sense state, dense: the medium at node `i` is busy until
    /// `busy[i]`.  Kept outside [`MacState`] (and behind `Cell`) so the
    /// busy-set update of a transmission walks one contiguous 8-byte-per-node
    /// array inside the `&self` grid-query closure instead of scattering
    /// writes across the much larger per-node MAC structs.
    busy: Vec<Cell<SimTime>>,
    /// Adversarial delivery-choice hook (bounded model checking; see
    /// [`crate::choice`]).  `None` on every ordinary run — the hot path pays
    /// one branch.
    choice: Option<Box<dyn DeliveryChoiceHook>>,
    /// Background fluid-traffic state (`None` unless
    /// [`SimConfig::background`] is set — the common case pays one branch on
    /// the carrier-sense path and nothing else; see [`crate::fluid`]).
    /// Boxed so the rare feature does not inflate the `World` struct.
    fluid: Option<Box<FluidState>>,
}

impl World {
    /// Number of nodes.
    pub fn num_nodes(&self) -> u16 {
        self.config.num_nodes
    }

    /// Current position of `node` (memoised per event timestamp).
    pub fn position_of(&self, node: NodeId) -> Position {
        let cell = &self.pos_cache[node.index()];
        if let Some((at, pos)) = cell.get() {
            if at == self.now {
                inc(&self.perf.position_cache_hits);
                return pos;
            }
        }
        let pos = self.kin[node.index()].position_at(self.now);
        cell.set(Some((self.now, pos)));
        inc(&self.perf.position_cache_misses);
        pos
    }

    /// Collect the nodes within transmission range of `node` into `out`
    /// (cleared first), sorted by node id.  Reusing one buffer across calls
    /// makes repeated neighborhood queries allocation-free.
    pub fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let p = self.position_of(node);
        let range = self.config.radio.range_m;
        let range_sq = range * range;
        self.query_range(p, range, |other| {
            if other != node && self.position_of(other).distance_sq(p) <= range_sq {
                out.push(other);
            }
        });
        // Grid cells are visited in cell order; sort so results (and any
        // downstream iteration) do not depend on where nodes are binned.
        out.sort_unstable();
    }

    /// True if `a` and `b` are within transmission range of each other.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        let range_sq = self.config.radio.range_m * self.config.radio.range_m;
        self.position_of(a).distance_sq(self.position_of(b)) <= range_sq
    }

    /// Visit every candidate node for a range query around `center`: a
    /// superset of the nodes within `radius`, which the caller must filter by
    /// exact distance.
    fn query_range(&self, center: Position, radius: f64, f: impl FnMut(NodeId)) {
        inc(&self.perf.neighbor_queries);
        self.grid_sync();
        add(&self.perf.candidates_scanned, self.scan(center, radius, f));
    }

    /// The candidate walk behind [`World::query_range`] and
    /// [`World::scan_into`], counting nothing: returns how many entries it
    /// scanned.  The grid must be in sync.
    fn scan(&self, center: Position, radius: f64, mut f: impl FnMut(NodeId)) -> u64 {
        #[cfg(debug_assertions)]
        let mut offered = vec![false; self.kin.len()];
        let scanned = self
            .grid
            .borrow()
            .spatial
            .for_each_candidate(center, radius, |node| {
                #[cfg(debug_assertions)]
                {
                    offered[node.index()] = true;
                }
                f(node);
            });
        #[cfg(debug_assertions)]
        self.assert_scan_covers(center, radius, &offered);
        scanned
    }

    /// The brute-force oracle of debug builds: a scan must offer every node
    /// whose exact position lies within `radius` of `center`, the superset
    /// that makes a filtered grid scan equal a full scan.  Reads the
    /// kinematics directly, so no cache or counter sees the check.
    #[cfg(debug_assertions)]
    fn assert_scan_covers(&self, center: Position, radius: f64, offered: &[bool]) {
        let radius_sq = radius * radius;
        for (i, kin) in self.kin.iter().enumerate() {
            let pos = kin.position_at(self.now);
            assert!(
                offered[i] || pos.distance_sq(center) > radius_sq,
                "grid scan at {} missed node {i} at {pos:?}, within {radius} m of {center:?}",
                self.now
            );
        }
    }

    /// Classify every candidate within `radius` of `node` (standing at `at`)
    /// into `hood`; returns how many entries were scanned and the smallest
    /// distance from a scanned node to either circle.
    fn scan_into(
        &self,
        node: NodeId,
        at: Position,
        radius: f64,
        hood: &mut Neighborhood,
    ) -> (u64, f64) {
        let range = self.config.radio.range_m;
        let cs_range = self.config.radio.carrier_sense_range();
        let mut gap = f64::INFINITY;
        hood.begin();
        let scanned = self.scan(at, radius, |other| {
            if other != node {
                // Direct kinematic evaluation: the per-(node, time) position
                // cache never hits inside a single candidate scan (every
                // candidate is distinct), so skip its read/write traffic.
                let d_sq = self.kin[other.index()]
                    .position_at(self.now)
                    .distance_sq(at);
                gap = gap.min(hood.offer(other, d_sq, range, cs_range));
            }
        });
        (scanned, gap)
    }

    /// Make `hood` — `node`'s cached neighbourhood — hold at this instant:
    /// kept while its validity lasts, otherwise rescanned over carrier-sense
    /// range plus the horizon.
    fn resolve_neighborhood(&self, node: NodeId, at: Position, hood: &mut Neighborhood) {
        inc(&self.perf.neighbor_queries);
        // Due drift refreshes run on a hit too, so the grid's history does
        // not depend on the hit rate.
        self.grid_sync();
        let cs_range = self.config.radio.carrier_sense_range();
        if hood.holds_at(self.now) {
            inc(&self.perf.neighbor_cache_hits);
            #[cfg(debug_assertions)]
            {
                let mut fresh = Neighborhood::default();
                self.scan_into(node, at, cs_range, &mut fresh);
                assert!(
                    fresh.same_sets(hood),
                    "stale neighbourhood cache at node {node} at {}: cached {hood:?}, scan {fresh:?}",
                    self.now
                );
            }
            return;
        }
        let (scanned, gap) = self.scan_into(node, at, cs_range + SCAN_HORIZON_M, hood);
        add(&self.perf.candidates_scanned, scanned);
        hood.seal(self.now, gap, self.top_speed);
    }

    /// Process every due entry of the drift-refresh queue, restoring the grid
    /// invariant (anchor within slack of the true position) before a query.
    fn grid_sync(&self) {
        let mut g = self.grid.borrow_mut();
        let now = self.now;
        while let Some(&Reverse((due, node, gen))) = g.refresh_queue.peek() {
            if due > now {
                break;
            }
            g.refresh_queue.pop();
            if g.gens[node.index()] != gen {
                continue; // superseded by a leg-change rebin
            }
            inc(&self.perf.grid_refreshes);
            let leg = &self.motions[node.index()].leg;
            let pos = self.position_of(node);
            if g.spatial.rebin(node, pos) {
                inc(&self.perf.grid_rebinds);
            }
            if let Some(due) = NeighborGrid::refresh_due(g.spatial.slack(), leg, now) {
                g.refresh_queue.push(Reverse((due, node, gen)));
            }
        }
    }

    /// Rebin `node` after its waypoint leg changed and restart its
    /// drift-refresh chain.
    fn grid_rebin_for_new_leg(&mut self, node: NodeId) {
        let mut g = self.grid.borrow_mut();
        let idx = node.index();
        let leg = &self.motions[idx].leg;
        let pos = leg.position_at(self.now);
        if g.spatial.rebin(node, pos) {
            inc(&self.perf.grid_rebinds);
        }
        g.gens[idx] += 1;
        let gen = g.gens[idx];
        if let Some(due) = NeighborGrid::refresh_due(g.spatial.slack(), leg, self.now) {
            g.refresh_queue.push(Reverse((due, node, gen)));
        }
    }

    /// Protocol random stream.
    pub fn protocol_rng(&mut self) -> &mut SmallRng {
        self.rngs.protocol()
    }

    /// Mutable access to the recorder.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Read access to the recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Engine performance counters so far (also published to the recorder at
    /// the end of the run).
    pub fn engine_perf(&self) -> EnginePerf {
        let mut perf = self.perf.snapshot();
        perf.events_processed = self.events_processed;
        perf
    }

    /// Number of frames queued at `node`'s MAC.
    pub fn mac_queue_len(&self, node: NodeId) -> usize {
        self.macs[node.index()].queue.len()
    }

    /// Schedule a protocol timer.
    pub fn schedule_timer(&mut self, node: NodeId, delay: Duration, token: TimerToken) {
        self.schedule_timer_at(node, self.now + delay, token);
    }

    /// Schedule a timer event for `node` at the instant `at`.
    pub(crate) fn schedule_timer_at(&mut self, node: NodeId, at: SimTime, token: TimerToken) {
        debug_assert!(at >= self.now, "timer at {at:?} is in the past");
        self.queue.schedule(at, Event::Timer { node, token });
    }

    /// The far wormhole endpoint, if `node` is a tunnel endpoint.
    fn wormhole_peer(&self, node: NodeId) -> Option<NodeId> {
        self.config.wormhole.as_ref().and_then(|w| w.peer_of(node))
    }

    /// Carry `packet` from wormhole endpoint `from` to its peer `to` through
    /// the out-of-band tunnel: it arrives after the tunnel delay as a
    /// `TunnelDeliver`, with no airtime, carrier sense or retries.
    fn tunnel(&mut self, from: NodeId, to: NodeId, packet: SharedPacket) {
        let delay = self
            .config
            .wormhole
            .as_ref()
            .map_or(Duration::ZERO, |w| w.delay);
        self.recorder
            .observe(self.now, Observation::Tunnel { packet: &packet });
        let deliver = Event::TunnelDeliver { to, from, packet };
        self.queue.schedule(self.now + delay, deliver);
    }

    /// The delay before `node`'s next transmission attempt: DIFS plus a
    /// random contention backoff, or nothing at all for a rushing attacker,
    /// which then consumes no MAC randomness either.
    fn backoff(&mut self, node: NodeId) -> Duration {
        let rushing = self.config.rush.as_ref();
        if rushing.is_some_and(|rush| rush.rushers.contains(&node)) {
            return Duration::ZERO;
        }
        self.macs[node.index()].draw_backoff(&self.config.mac, self.rngs.mac())
    }

    /// Queue a frame at `node`'s MAC and make sure a transmission attempt is
    /// scheduled.  A unicast between the wormhole endpoints takes the tunnel
    /// instead of the radio.
    pub fn mac_enqueue(&mut self, node: NodeId, frame: Frame) {
        if let MacDest::Unicast(dst) = frame.mac_dst {
            if self.wormhole_peer(node) == Some(dst) {
                self.tunnel(node, dst, frame.payload);
                return;
            }
        }
        let capacity = self.config.mac.queue_capacity;
        let mac = &mut self.macs[node.index()];
        if let Err(frame) = mac.enqueue(frame, capacity) {
            let obs = Observation::Drop {
                node,
                reason: DropReason::QueueOverflow,
                packet: PacketRef::Net(&frame.payload),
            };
            self.recorder.observe(self.now, obs);
            return;
        }
        let obs = Observation::Enqueue {
            node,
            frame: &mac.queue.back().expect("just queued").frame,
            queue: mac.queue.len() as u32,
        };
        self.recorder.observe(self.now, obs);
        self.ensure_attempt(node, Duration::ZERO);
    }

    /// Make sure a `MacAttempt` event is pending for `node`, `extra` from now
    /// at the earliest (plus DIFS + random backoff).
    fn ensure_attempt(&mut self, node: NodeId, extra: Duration) {
        let idx = node.index();
        if self.macs[idx].attempt_pending || self.macs[idx].transmitting.is_some() {
            return;
        }
        let backoff = self.backoff(node);
        self.macs[idx].attempt_pending = true;
        let at = self.now + extra + backoff;
        self.queue.schedule(at, Event::MacAttempt { node });
    }

    /// The outcome stage for one receiver `r` of the frame `from` sent from
    /// `start` to `end`: collision, then jamming.  Observes what destroyed
    /// the reception and returns whether it arrived intact.
    fn received_intact(
        &mut self,
        from: NodeId,
        r: NodeId,
        tx: TxId,
        start: SimTime,
        end: SimTime,
        payload: &NetPacket,
    ) -> bool {
        let m = &self.macs[r.index()];
        let collided =
            m.reception_collided(tx, start, end) || m.was_transmitting_during(start, end);
        if collided {
            let obs = Observation::Collision { node: r, from };
            self.recorder.observe(self.now, obs);
        }
        // The jammer draws for a collided reception too, so the channel
        // stream does not depend on collisions.
        if self.jammed(from, r, payload) && !collided {
            let obs = Observation::Drop {
                node: r,
                reason: DropReason::Jammed,
                packet: PacketRef::Net(payload),
            };
            self.recorder.observe(self.now, obs);
            return false;
        }
        !collided
    }

    /// Does a selective jammer corrupt `r`'s reception of a frame from
    /// `from`?  A jammer acts near itself, but neither on frames arriving at
    /// itself nor on its own frames (half-duplex: it cannot jam while
    /// sending).  Draws from the channel stream only for a targeted frame
    /// near a jammer, and never with no jammer or a `loss_prob` of 0.
    fn jammed(&mut self, from: NodeId, r: NodeId, payload: &NetPacket) -> bool {
        let Some(jam) = &self.config.jamming else {
            return false;
        };
        if jam.loss_prob <= 0.0 || !jam.target.matches(payload.is_control()) {
            return false;
        }
        let radius = jam.effective_range(self.config.radio.range_m);
        let radius_sq = radius * radius;
        let rx_pos = self.position_of(r);
        let near = jam
            .jammers
            .iter()
            .any(|&j| j != r && j != from && self.position_of(j).distance_sq(rx_pos) <= radius_sq);
        near && self.rngs.channel().gen::<f64>() < jam.loss_prob
    }

    fn fresh_tx_id(&mut self) -> TxId {
        let id = TxId(self.next_tx_id);
        self.next_tx_id += 1;
        id
    }

    /// Take ownership of a shared packet: free when the reference is unique
    /// (every steady-state unicast delivery), a counted deep copy otherwise.
    pub(crate) fn claim_packet(&self, packet: SharedPacket) -> NetPacket {
        match Arc::try_unwrap(packet) {
            Ok(p) => p,
            Err(shared) => {
                inc(&self.perf.payload_deep_clones);
                (*shared).clone()
            }
        }
    }

    /// Number of events processed so far (diagnostic).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// The simulator: world + one protocol stack per node.
pub struct Simulator {
    world: World,
    stacks: Vec<Box<dyn NodeStack>>,
    /// Same-timestamp epoch watchdog: the instant of the latest fluid epoch
    /// that asked for its successor at or before its own time, and how many
    /// did so at that instant.
    fluid_stall: (SimTime, u32),
}

/// Fluid epochs that may re-arm at one unchanged instant before the run is
/// declared stalled.  Legitimate same-instant epochs (an arrival, a forced
/// reallocation) come in ones and twos.
const FLUID_STALL_LIMIT: u32 = 10_000;

impl Simulator {
    /// Build a simulator.
    ///
    /// `stacks` must contain exactly `config.num_nodes` protocol stacks
    /// (index = node id).  `mobility` provides initial placement and movement.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the stack count mismatches.
    pub fn new(
        config: SimConfig,
        mut mobility: Box<dyn MobilityModel>,
        stacks: Vec<Box<dyn NodeStack>>,
    ) -> Self {
        config.validate().expect("invalid simulation configuration");
        assert_eq!(
            stacks.len(),
            config.num_nodes as usize,
            "need exactly one stack per node"
        );
        let mut rngs = RngStreams::new(config.seed);
        let mut motions = Vec::with_capacity(config.num_nodes as usize);
        let mut queue = EventQueue::calendar(CalendarQueue::width_for_mac(&config.mac));
        for i in 0..config.num_nodes as usize {
            let pos = mobility.initial_position(i, rngs.mobility());
            let leg = mobility.next_leg(i, pos, SimTime::ZERO, 0, rngs.mobility());
            if leg.speed > 0.0 {
                queue.schedule(
                    leg.arrival_time(),
                    Event::WaypointReached {
                        node: NodeId(i as u16),
                        epoch: 0,
                    },
                );
            }
            motions.push(NodeMotion { leg, epoch: 0 });
        }
        queue.schedule(SimTime::ZERO + config.duration, Event::Stop);
        // Background fluid layer: built only when configured with at least
        // one flow; the first epoch (generation 0) runs at t = 0.  With
        // `background: None` no event is scheduled and no state exists, so
        // runs are byte-identical to pre-hybrid traces.
        let fluid = config
            .background
            .as_ref()
            .filter(|bg| bg.total_flows() > 0)
            .map(|bg| Box::new(FluidState::new(bg, &config)));
        if fluid.is_some() {
            queue.schedule(SimTime::ZERO, Event::FluidEpoch { gen: 0 });
        }
        let kin = motions.iter().map(|m| Kinematics::of(&m.leg)).collect();
        let top_speed = motions.iter().map(|m| m.leg.speed).fold(0.0, f64::max);
        let macs = (0..config.num_nodes).map(|_| MacState::new()).collect();
        let mut spatial = SpatialGrid::new(
            config.field_width,
            config.field_height,
            config.radio.carrier_sense_range(),
            config.grid_slack_m,
            config.num_nodes as usize,
        );
        let mut refresh_queue = BinaryHeap::new();
        for (i, motion) in motions.iter().enumerate() {
            let node = NodeId(i as u16);
            spatial.rebin(node, motion.leg.position_at(SimTime::ZERO));
            if let Some(due) =
                NeighborGrid::refresh_due(spatial.slack(), &motion.leg, SimTime::ZERO)
            {
                refresh_queue.push(Reverse((due, node, 0)));
            }
        }
        let grid = RefCell::new(NeighborGrid {
            spatial,
            refresh_queue,
            gens: vec![0; config.num_nodes as usize],
        });
        let pos_cache = (0..config.num_nodes).map(|_| Cell::new(None)).collect();
        let mut recorder = Recorder::new();
        recorder.telemetry = Telemetry::from_config(&config.telemetry);
        let world = World {
            now: SimTime::ZERO,
            queue,
            rngs,
            recorder,
            motions,
            kin,
            macs,
            mobility,
            next_tx_id: 0,
            events_processed: 0,
            grid,
            pos_cache,
            perf: PerfCells::default(),
            hoods: (0..config.num_nodes)
                .map(|_| Neighborhood::default())
                .collect(),
            top_speed,
            outcomes_scratch: Vec::new(),
            busy: (0..config.num_nodes)
                .map(|_| Cell::new(SimTime::ZERO))
                .collect(),
            choice: None,
            fluid,
            config,
        };
        Simulator {
            world,
            stacks,
            fluid_stall: (SimTime::ZERO, 0),
        }
    }

    /// Choose what the recorder keeps of the trace (must be called before
    /// [`Simulator::run`]): [`TraceMode::Keep`] for the human-readable
    /// trace, [`TraceMode::Fingerprint`] to identify a traced run without
    /// buffering its events.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.world.recorder.trace_mode = mode;
    }

    /// Install an adversarial delivery-choice hook (must be called before
    /// [`Simulator::run`]; see [`crate::choice`]).  The engine offers every
    /// addressed reception to the hook, which may deliver, omit or delay it —
    /// the bounded model-checking explorer in `crates/mck` enumerates these
    /// decisions.  A hook answering only [`ChoiceDecision::Deliver`] leaves
    /// the run byte-identical to a hook-free run.
    pub fn set_choice_hook(&mut self, hook: Box<dyn DeliveryChoiceHook>) {
        self.world.choice = Some(hook);
    }

    /// Borrow the world (e.g. to inspect positions in tests).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Borrow the recorder.
    pub fn recorder(&self) -> &Recorder {
        self.world.recorder()
    }

    /// Borrow a protocol stack (for post-run inspection in tests and metrics).
    pub fn stack(&self, node: NodeId) -> &dyn NodeStack {
        self.stacks[node.index()].as_ref()
    }

    /// Run the simulation to completion and return the recorder.
    pub fn run(mut self) -> Recorder {
        self.start_stacks();
        while let Some(ev) = self.world.queue.pop() {
            debug_assert!(
                ev.time >= self.world.now,
                "event time must not go backwards"
            );
            self.world.now = ev.time;
            self.world.events_processed += 1;
            match ev.event {
                Event::Stop => break,
                other => self.dispatch(other),
            }
        }
        self.finish_stacks();
        self.finalize()
    }

    /// Publish the final perf counters to the recorder and return it.
    fn finalize(mut self) -> Recorder {
        let mut perf = self.world.perf.snapshot();
        perf.events_processed = self.world.events_processed;
        let queue = self.world.queue.perf();
        perf.queue_pushes = queue.pushes;
        perf.queue_pops = queue.pops;
        perf.queue_max_occupancy = queue.max_occupancy;
        perf.calendar_resizes = queue.calendar_resizes;
        let now = self.world.now;
        self.world
            .recorder
            .observe(now, Observation::Finalize { perf });
        self.world.recorder
    }

    fn start_stacks(&mut self) {
        for i in 0..self.stacks.len() {
            let node = NodeId(i as u16);
            let mut ctx = Ctx {
                world: &mut self.world,
                node,
            };
            self.stacks[i].start(&mut ctx);
        }
    }

    fn finish_stacks(&mut self) {
        self.flush_fluid();
        for i in 0..self.stacks.len() {
            let node = NodeId(i as u16);
            let mut ctx = Ctx {
                world: &mut self.world,
                node,
            };
            self.stacks[i].on_run_end(&mut ctx);
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Timer { node, token } => {
                let mut ctx = Ctx {
                    world: &mut self.world,
                    node,
                };
                self.stacks[node.index()].on_timer(&mut ctx, token);
            }
            Event::MacAttempt { node } => self.mac_attempt(node),
            Event::TxEnd { node, tx } => self.tx_end(node, tx),
            Event::WaypointReached { node, epoch } => self.waypoint_reached(node, epoch),
            Event::TunnelDeliver { to, from, packet } => self.tunnel_deliver(to, from, packet),
            Event::DelayedDeliver { to, from, packet } => self.delayed_deliver(to, from, packet),
            Event::FluidEpoch { gen } => self.fluid_epoch(gen),
            Event::Stop => unreachable!("Stop handled in run()"),
        }
    }

    // ---- mobility -------------------------------------------------------------

    fn waypoint_reached(&mut self, node: NodeId, epoch: u64) {
        let idx = node.index();
        if self.world.motions[idx].epoch != epoch {
            return; // stale event from a superseded leg
        }
        let arrived_at = self.world.motions[idx].leg.to;
        let new_epoch = epoch + 1;
        let leg = {
            let World {
                mobility,
                rngs,
                now,
                ..
            } = &mut self.world;
            mobility.next_leg(idx, arrived_at, *now, new_epoch, rngs.mobility())
        };
        if leg.speed > 0.0 {
            self.world.queue.schedule(
                leg.arrival_time(),
                Event::WaypointReached {
                    node,
                    epoch: new_epoch,
                },
            );
        }
        // The cached neighbourhoods and the fluid corridors' validity windows
        // assume continuous motion at no more than `top_speed`; a leg that
        // breaks either assumption empties them all.
        if leg.speed > self.world.top_speed || leg.from != arrived_at {
            self.world.top_speed = self.world.top_speed.max(leg.speed);
            self.world
                .hoods
                .iter_mut()
                .for_each(Neighborhood::invalidate);
            if let Some(fluid) = self.world.fluid.as_deref_mut() {
                fluid.close_windows();
            }
        }
        self.world.kin[idx] = Kinematics::of(&leg);
        self.world.motions[idx] = NodeMotion {
            leg,
            epoch: new_epoch,
        };
        // The leg handoff preserves the node's position at this instant, but
        // the cached evaluation belongs to the old leg — invalidate it and
        // re-anchor the node in the grid for the new leg's drift profile.
        self.world.pos_cache[idx].set(None);
        self.world.grid_rebin_for_new_leg(node);
        // A fluid endpoint changed legs: its region path is stale, so force a
        // reallocation now.  Bumping the generation invalidates the epoch
        // already scheduled for the old geometry.
        let bumped = self.world.fluid.as_deref_mut().and_then(|fluid| {
            fluid.is_endpoint(node).then(|| {
                fluid.gen += 1;
                fluid.gen
            })
        });
        if let Some(gen) = bumped {
            let now = self.world.now;
            self.world.queue.schedule(now, Event::FluidEpoch { gen });
        }
    }

    // ---- background fluid layer ----------------------------------------------

    /// Run one fluid epoch: advance the analytic ledgers to `now`, admit
    /// arrivals, recompute the max-min fair allocation against residual
    /// capacity, and schedule the next epoch.  Stale generations (superseded
    /// by an endpoint leg change) are dropped, mirroring the waypoint
    /// stale-epoch guard.
    fn fluid_epoch(&mut self, gen: u64) {
        let Some(mut fluid) = self.world.fluid.take() else {
            return;
        };
        if fluid.gen != gen {
            self.world.fluid = Some(fluid);
            return; // superseded by a forced reallocation
        }
        let now = self.world.now;
        let out = {
            let world = &self.world;
            fluid.epoch(now, world.top_speed, |n| world.position_of(n))
        };
        // An epoch that asks for the next one at its own instant makes no
        // progress in simulated time.  A long run of them is a spin (PR 9's
        // f64 completion bug looked exactly like this): fail with the state
        // that explains it instead of hanging.
        if out.next.is_some_and(|next| next <= now) {
            if self.fluid_stall.0 != now {
                self.fluid_stall = (now, 0);
            }
            self.fluid_stall.1 += 1;
            assert!(
                self.fluid_stall.1 <= FLUID_STALL_LIMIT,
                "fluid layer stalled: {FLUID_STALL_LIMIT} consecutive epochs at {now}, \
                 generation {gen}, each asked for the next at or before it; {}",
                fluid.stall_report()
            );
        }
        self.observe_fluid_completions(&out.completions);
        let (demand, alloc) = fluid.region_rates();
        let obs = Observation::FluidRates { demand, alloc };
        self.world.recorder.observe(now, obs);
        self.world.fluid = Some(fluid);
        if let Some(next) = out.next {
            self.world
                .queue
                .schedule(next.max(now), Event::FluidEpoch { gen });
        }
    }

    /// Observe fluid completions.  Each completion is reported once, at the
    /// flow's source, stamped at the current simulation time (epochs fire at
    /// the analytic completion instant, so the stamp and the analytic time
    /// normally coincide; the exact analytic time always lands in the
    /// recorder ledger).
    fn observe_fluid_completions(&mut self, completions: &[FluidCompletion]) {
        for c in completions {
            let obs = Observation::FlowComplete {
                node: c.src,
                conn: c.conn,
                bytes: c.delivered,
            };
            self.world.recorder.observe(self.world.now, obs);
        }
    }

    /// Final fluid bookkeeping at `Stop`: advance the ledgers to the stop
    /// instant, emit trailing completions, and write one recorder row per
    /// flow so fluid bytes stay in a ledger separate from the
    /// packet byte counters (conservation invariants remain exact).
    fn flush_fluid(&mut self) {
        let Some(mut fluid) = self.world.fluid.take() else {
            return;
        };
        let now = self.world.now;
        let completions = fluid.flush_completions(now);
        let rows = fluid.final_rows(now);
        self.world.fluid = Some(fluid);
        self.observe_fluid_completions(&completions);
        for row in rows {
            let totals = FluidFlowTotals {
                src: row.src,
                dst: row.dst,
                offered_bytes: row.offered,
                delivered_bytes: row.delivered,
                completion_secs: row.completed_at.map(|t| t.as_secs()),
            };
            let obs = Observation::FluidFlow {
                conn: row.conn,
                totals,
            };
            self.world.recorder.observe(now, obs);
        }
    }

    // ---- MAC ------------------------------------------------------------------

    fn mac_attempt(&mut self, node: NodeId) {
        let idx = node.index();
        self.world.macs[idx].attempt_pending = false;
        if self.world.macs[idx].transmitting.is_some() {
            return;
        }
        if self.world.macs[idx].queue.is_empty() {
            return;
        }
        let now = self.world.now;
        // Carrier sense: defer while the medium is busy — either a real
        // in-flight transmission or the background fluid layer's virtual
        // busy pulse (see [`crate::fluid`]).
        let mut busy_until = self.world.busy[idx].get();
        if let Some(fluid) = self.world.fluid.as_deref() {
            let fb = fluid.busy_until(self.world.position_of(node), now);
            if fb > busy_until {
                busy_until = fb;
            }
        }
        if busy_until > now {
            let wait = busy_until.since(now);
            self.world.macs[idx].attempt_pending = true;
            let backoff = self.world.backoff(node);
            self.world
                .queue
                .schedule(now + wait + backoff, Event::MacAttempt { node });
            return;
        }
        // Start transmitting the head-of-queue frame.
        let queued = self.world.macs[idx]
            .queue
            .pop_front()
            .expect("queue checked non-empty");
        let tx = self.world.fresh_tx_id();
        let dest = queued.frame.mac_dst;
        let bytes = queued.frame.size_bytes();
        let duration = airtime(bytes, dest, &self.world.config.mac);
        let end = now + duration;

        // Record the transmission for the overhead metrics.
        let World {
            recorder, queue, ..
        } = &mut self.world;
        let obs = Observation::TxStart {
            node,
            packet: &queued.frame.payload,
            bytes,
            events: queue,
        };
        recorder.observe(now, obs);

        // Determine receivers (transmission range) and busy set (carrier-sense
        // range): from the node's cached neighbourhood while it holds, from a
        // fresh scan otherwise.  Only membership comes from the cache; every
        // write below happens per transmission.
        let my_pos = self.world.position_of(node);
        // Foreground load feedback: the fluid layer subtracts measured packet
        // throughput from each region's capacity at the next epoch.
        if let Some(fluid) = self.world.fluid.as_deref_mut() {
            fluid.note_foreground(my_pos, u64::from(bytes));
        }
        let mut hood = std::mem::take(&mut self.world.hoods[idx]);
        self.world.resolve_neighborhood(node, my_pos, &mut hood);
        for n in &hood.sensed {
            let b = &self.world.busy[n.index()];
            if b.get() < end {
                b.set(end);
            }
        }
        // Register reception intervals (for collision detection).
        for r in &hood.receivers {
            let m = &mut self.world.macs[r.index()];
            m.gc_intervals(now);
            // An already-ongoing reception at r collides with this new one; we
            // only need to record the interval — overlap is evaluated at TxEnd.
            m.rx_intervals.push(RxInterval {
                tx,
                start: now,
                end,
            });
        }
        // The receiver list rides with the transmission until its `TxEnd`.
        let receivers = std::mem::take(&mut hood.receivers);
        self.world.hoods[idx] = hood;
        let busy = &self.world.busy[idx];
        busy.set(busy.get().max(end));
        let mac = &mut self.world.macs[idx];
        mac.gc_intervals(now);
        mac.tx_intervals.push((now, end));
        mac.transmitting = Some(InFlight {
            tx,
            frame: queued,
            start: now,
            end,
            receivers,
        });
        self.world.queue.schedule(end, Event::TxEnd { node, tx });
    }

    fn tx_end(&mut self, node: NodeId, tx: TxId) {
        let idx = node.index();
        let inflight = match self.world.macs[idx].transmitting.take() {
            Some(t) if t.tx == tx => t,
            other => {
                // A `TxEnd` is scheduled only with the transmission it ends,
                // so this cannot happen: counted, and loud in debug builds.
                debug_assert!(false, "stale TxEnd {tx:?} at node {node}");
                inc(&self.world.perf.stale_tx_ends);
                self.world.macs[idx].transmitting = other;
                return;
            }
        };
        let InFlight {
            tx: _,
            frame: queued,
            start,
            end,
            receivers,
        } = inflight;
        // Outcome stage: which receivers got the frame intact.
        let mut outcomes = std::mem::take(&mut self.world.outcomes_scratch);
        for &r in &receivers {
            let payload = &queued.frame.payload;
            let intact = self.world.received_intact(node, r, tx, start, end, payload);
            outcomes.push((r, intact.then_some(ChoiceDecision::Deliver)));
        }
        self.world.hoods[idx].receivers = receivers;

        let failed_unicast = match queued.frame.mac_dst {
            MacDest::Broadcast => {
                // Wormhole replay: a broadcast *by* a tunnel endpoint also
                // reaches the far endpoint (unless radio already got it
                // there), so discovery floods cross the tunnel.
                if let Some(peer) = self.world.wormhole_peer(node) {
                    if !outcomes.iter().any(|&(r, o)| r == peer && o.is_some()) {
                        add(&self.world.perf.payload_clones_avoided, 1);
                        let packet = Arc::clone(&queued.frame.payload);
                        self.world.tunnel(node, peer, packet);
                    }
                }
                None
            }
            MacDest::Unicast(dst) => {
                // Third parties overhear promiscuously whether or not the
                // addressed receiver got the frame; only `dst` stays
                // addressed.
                for (r, outcome) in &mut outcomes {
                    if *r != dst && outcome.take().is_some() {
                        self.account_reception(*r, node, &queued.frame.payload, false);
                        let mut ctx = Ctx {
                            world: &mut self.world,
                            node: *r,
                        };
                        self.stacks[r.index()].on_promiscuous(&mut ctx, &queued.frame);
                    }
                }
                (!outcomes.iter().any(|(_, o)| o.is_some())).then_some(dst)
            }
        };
        match failed_unicast {
            None => {
                self.world.macs[idx].reset_backoff();
                let broadcast = queued.frame.mac_dst == MacDest::Broadcast;
                self.hand_over(node, broadcast, &mut outcomes, queued.frame.payload);
            }
            Some(dst) => self.retry_or_fail(node, dst, queued),
        }
        // Recycle the scratch buffer for the next transmission.
        outcomes.clear();
        self.world.outcomes_scratch = outcomes;
        // Keep the pipeline moving.
        if !self.world.macs[idx].queue.is_empty() {
            self.world.ensure_attempt(node, Duration::ZERO);
        }
    }

    /// The choice and hand-over stages of one frame `from` a transmitter:
    /// `outcomes` holds `Some(Deliver)` for each addressed reception that
    /// arrived intact, in receiver order.
    ///
    /// With a choice hook installed, each of them is offered to it first
    /// (see [`crate::choice`]); a `Drop` is a receiver-side omission, since
    /// the sender's MAC already saw success.  Every reception that still
    /// needs the payload shares its one allocation, and the last is handed
    /// the engine's own reference, so a sole receiver (and the last of many,
    /// once the earlier stacks dropped theirs) takes ownership without a
    /// copy.  An all-`Deliver` hook reproduces the hook-free run.
    fn hand_over(
        &mut self,
        from: NodeId,
        broadcast: bool,
        outcomes: &mut [(NodeId, Option<ChoiceDecision>)],
        payload: SharedPacket,
    ) {
        let now = self.world.now;
        if let Some(hook) = self.world.choice.as_mut() {
            for (to, outcome) in outcomes.iter_mut() {
                if let Some(decision) = outcome {
                    *decision = hook.decide(&ChoicePoint {
                        at: now,
                        from,
                        to: *to,
                        broadcast,
                        payload: &payload,
                    });
                }
            }
        }
        // A schedule drop after the last hand-over finds the payload gone.
        let dropped = PacketRef::summary(&payload);
        let last = outcomes
            .iter()
            .rposition(|&(_, o)| o.is_some_and(|d| d != ChoiceDecision::Drop));
        let mut payload = Some(payload);
        for (i, &(to, outcome)) in outcomes.iter().enumerate() {
            let Some(decision) = outcome else { continue };
            if decision == ChoiceDecision::Drop {
                self.observe_schedule_drop(to, dropped);
                continue;
            }
            let packet = if Some(i) == last {
                payload.take()
            } else {
                payload.clone()
            }
            .expect("the payload is held until the last hand-over");
            match decision {
                ChoiceDecision::Delay(by) => {
                    let delayed = Event::DelayedDeliver { to, from, packet };
                    self.world.queue.schedule(now + by, delayed);
                }
                _ => {
                    add(&self.world.perf.payload_clones_avoided, 1);
                    self.deliver(to, from, packet);
                }
            }
        }
    }

    /// A unicast `dst` did not receive: retry it, or past the retry limit
    /// report a link failure to the sender's stack.
    fn retry_or_fail(&mut self, node: NodeId, dst: NodeId, mut queued: QueuedFrame) {
        let mac = &mut self.world.macs[node.index()];
        queued.attempts += 1;
        if queued.attempts < self.world.config.mac.retry_limit {
            mac.escalate_backoff();
            mac.requeue_front(queued);
            return;
        }
        mac.reset_backoff();
        let obs = Observation::LinkFailure {
            node,
            next_hop: dst,
            packet: &queued.frame.payload,
        };
        self.world.recorder.observe(self.world.now, obs);
        let packet = self.world.claim_packet(queued.frame.payload);
        let mut ctx = Ctx {
            world: &mut self.world,
            node,
        };
        self.stacks[node.index()].on_link_failure(&mut ctx, dst, packet);
    }

    /// Deliver a tunneled packet at the far wormhole endpoint.  The receiving
    /// stack sees an ordinary `on_receive` from the near endpoint, so honest
    /// routing logic treats the pair as direct neighbours.
    fn tunnel_deliver(&mut self, to: NodeId, from: NodeId, packet: SharedPacket) {
        let obs = Observation::TunnelExit {
            node: to,
            packet: &packet,
        };
        self.world.recorder.observe(self.world.now, obs);
        self.deliver(to, from, packet);
    }

    /// Deliver a reception the choice hook delayed: its outcome was resolved
    /// at the frame's `TxEnd`.
    fn delayed_deliver(&mut self, to: NodeId, from: NodeId, packet: SharedPacket) {
        add(&self.world.perf.payload_clones_avoided, 1);
        self.deliver(to, from, packet);
    }

    /// The one hand-over of an addressed reception to its stack: the
    /// recorder's relay/delivery accounting, then `on_receive`.
    fn deliver(&mut self, to: NodeId, from: NodeId, packet: SharedPacket) {
        self.account_reception(to, from, &packet, true);
        let mut ctx = Ctx {
            world: &mut self.world,
            node: to,
        };
        self.stacks[to.index()].on_receive(&mut ctx, from, packet);
    }

    /// Update the recorder for a successful reception of `payload` at `node`.
    /// `from` is the transmitting (previous-hop) node; `addressed` is true
    /// when `node` was the MAC destination (or the frame was a broadcast),
    /// false for promiscuous overhearing.
    fn account_reception(
        &mut self,
        node: NodeId,
        from: NodeId,
        payload: &NetPacket,
        addressed: bool,
    ) {
        if let NetPacket::Data(packet) = payload {
            let obs = match (addressed, packet.dst == node) {
                (true, true) => Observation::Deliver { node, from, packet },
                (true, false) => Observation::Relay { node, packet },
                (false, _) => Observation::Overheard { node, packet },
            };
            self.world.recorder.observe(self.world.now, obs);
        }
    }

    /// Observe a schedule-controlled omission (see [`crate::choice`]): a
    /// [`DropReason::ScheduleDrop`] of `packet` at `at`.
    fn observe_schedule_drop(&mut self, at: NodeId, packet: PacketRef<'_>) {
        let obs = Observation::Drop {
            node: at,
            reason: DropReason::ScheduleDrop,
            packet,
        };
        self.world.recorder.observe(self.world.now, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::StaticPlacement;
    use manet_wire::{ConnectionId, DataPacket, PacketId, TcpSegment};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A stack that floods a single data packet hop-by-hop along a chain.
    struct ChainForwarder {
        me: NodeId,
        last: NodeId,
        sent: Rc<RefCell<Vec<(NodeId, NodeId)>>>,
        origin: bool,
    }

    impl NodeStack for ChainForwarder {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            if self.origin {
                let dp = DataPacket::new(
                    PacketId(1),
                    self.me,
                    self.last,
                    TcpSegment::data(ConnectionId(0), 0, 0, 1000),
                );
                ctx.observe(Observation::Originate {
                    node: self.me,
                    packet: &dp,
                });
                let next = NodeId(self.me.0 + 1);
                ctx.send_unicast(next, NetPacket::Data(dp));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
        fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
            self.sent.borrow_mut().push((from, self.me));
            if let NetPacket::Data(dp) = &*packet {
                if dp.dst != self.me {
                    let next = NodeId(self.me.0 + 1);
                    // Forward the shared packet as-is: no copy on the relay path.
                    ctx.send_unicast(next, packet);
                }
            }
        }
        fn on_link_failure(&mut self, _ctx: &mut Ctx<'_>, _next_hop: NodeId, _packet: NetPacket) {}
    }

    fn chain_sim(n: u16, spacing: f64) -> (Simulator, Rc<RefCell<Vec<(NodeId, NodeId)>>>) {
        let mut config = SimConfig::default();
        config.num_nodes = n;
        config.duration = Duration::from_secs(5.0);
        config.mobility.max_speed = 0.0;
        let log = Rc::new(RefCell::new(Vec::new()));
        let last = NodeId(n - 1);
        let stacks: Vec<Box<dyn NodeStack>> = (0..n)
            .map(|i| {
                Box::new(ChainForwarder {
                    me: NodeId(i),
                    last,
                    sent: Rc::clone(&log),
                    origin: i == 0,
                }) as Box<dyn NodeStack>
            })
            .collect();
        let sim = Simulator::new(
            config,
            Box::new(StaticPlacement::chain(n as usize, spacing)),
            stacks,
        );
        (sim, log)
    }

    #[test]
    fn packet_traverses_a_static_chain() {
        let (sim, log) = chain_sim(4, 200.0);
        let rec = sim.run();
        // Each hop delivered exactly once: 0->1, 1->2, 2->3.
        let hops = log.borrow();
        assert_eq!(hops.len(), 3, "hops: {:?}", *hops);
        assert_eq!(rec.delivered_data_packets(), 1);
        assert_eq!(rec.originated_data_packets(), 1);
        // Intermediate nodes 1 and 2 are relays.
        assert_eq!(rec.relay_counts().len(), 2);
        assert!(rec.mean_delay_secs() > 0.0);
    }

    /// A fluid state no validated config can build: with a zero epoch gap
    /// every epoch with an active flow (the one flow arrives at 0.5 s) asks
    /// for the next at its own instant.  The watchdog must end the run with
    /// the state that explains it, not spin.
    #[test]
    #[should_panic(
        expected = "10000 consecutive epochs at t=0.500000s, generation 0, each asked for \
                    the next at or before it; 1 active flows, smallest remaining 5000 bytes"
    )]
    fn fluid_epochs_stuck_at_one_instant_trip_the_watchdog() {
        let (mut sim, _log) = chain_sim(2, 200.0);
        let mut stuck = crate::fluid::FluidConfig::default();
        stuck.flows = 1;
        stuck.flow_bytes = 5_000;
        stuck.max_epoch_gap = Duration::ZERO;
        sim.world.fluid = Some(Box::new(FluidState::new(&stuck, &sim.world.config)));
        sim.world
            .queue
            .schedule(SimTime::ZERO, Event::FluidEpoch { gen: 0 });
        sim.run();
    }

    #[test]
    fn out_of_range_next_hop_triggers_link_failure() {
        // Spacing larger than the 250 m radio range: node 1 is unreachable.
        let (sim, log) = chain_sim(2, 400.0);
        let rec = sim.run();
        assert!(log.borrow().is_empty());
        assert_eq!(rec.delivered_data_packets(), 0);
        assert_eq!(rec.link_failures(), 1);
        assert_eq!(rec.drops(DropReason::RetryLimit), 1);
    }

    #[test]
    fn promiscuous_neighbors_overhear_unicast_data() {
        // Three nodes all within range of each other; packet goes 0 -> 1 -> 2,
        // so node 2 overhears the 0 -> 1 transmission.
        let (sim, _log) = chain_sim(3, 100.0);
        let rec = sim.run();
        assert_eq!(rec.delivered_data_packets(), 1);
        // Node 2 heard the packet both promiscuously and as the destination's
        // relay path; its unique heard set contains packet 1.
        assert!(rec.heard_count(NodeId(2)) >= 1 || rec.heard_count(NodeId(1)) >= 1);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let mut config = SimConfig::default();
            config.num_nodes = 10;
            config.duration = Duration::from_secs(3.0);
            config.seed = seed;
            let stacks: Vec<Box<dyn NodeStack>> = (0..10)
                .map(|i| {
                    Box::new(ChainForwarder {
                        me: NodeId(i),
                        last: NodeId(9),
                        sent: Rc::new(RefCell::new(Vec::new())),
                        origin: i == 0,
                    }) as Box<dyn NodeStack>
                })
                .collect();
            let sim = Simulator::new(
                SimConfig { seed, ..config },
                Box::new(StaticPlacement::chain(10, 150.0)),
                stacks,
            );
            let rec = sim.run();
            (
                rec.delivered_data_packets(),
                rec.data_transmissions(),
                rec.collisions(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn waypoint_events_move_nodes() {
        // One mobile node moving within a small field; just verify the run
        // completes and the node's position changed from its start.
        let mut config = SimConfig::default();
        config.num_nodes = 2;
        config.duration = Duration::from_secs(30.0);
        config.mobility.max_speed = 10.0;
        config.mobility.min_speed = 5.0;
        struct Idle;
        impl NodeStack for Idle {
            fn start(&mut self, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
            fn on_receive(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _packet: SharedPacket) {}
            fn on_link_failure(&mut self, _c: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
        }
        let stacks: Vec<Box<dyn NodeStack>> = vec![Box::new(Idle), Box::new(Idle)];
        let mobility = crate::mobility::RandomWaypoint::new(1000.0, 1000.0, config.mobility);
        let sim = Simulator::new(config, Box::new(mobility), stacks);
        let rec = sim.run();
        // No traffic, so nothing recorded; the run simply terminates.
        assert_eq!(rec.delivered_data_packets(), 0);
    }

    #[test]
    fn selective_jamming_corrupts_targeted_receptions() {
        use crate::config::{JamConfig, JamTarget};
        let run = |target: JamTarget| {
            let n = 3u16;
            let mut config = SimConfig::default();
            config.num_nodes = n;
            config.duration = Duration::from_secs(5.0);
            config.mobility.max_speed = 0.0;
            config.jamming = Some(JamConfig {
                jammers: vec![NodeId(2)],
                target,
                loss_prob: 1.0,
                range_m: 0.0,
            });
            let log = Rc::new(RefCell::new(Vec::new()));
            let stacks: Vec<Box<dyn NodeStack>> = (0..n)
                .map(|i| {
                    Box::new(ChainForwarder {
                        me: NodeId(i),
                        last: NodeId(n - 1),
                        sent: Rc::clone(&log),
                        origin: i == 0,
                    }) as Box<dyn NodeStack>
                })
                .collect();
            let sim = Simulator::new(
                config,
                Box::new(StaticPlacement::chain(n as usize, 100.0)),
                stacks,
            );
            sim.run()
        };
        // Data-frame jamming: node 2 is within range of node 1, so the 0 -> 1
        // hop is destroyed every attempt and the packet never arrives.
        let rec = run(JamTarget::Data);
        assert_eq!(rec.delivered_data_packets(), 0);
        assert!(rec.jammed_data_frames() > 0);
        assert_eq!(rec.jammed_control_frames(), 0);
        assert!(rec.link_failures() > 0);
        // Control-frame jamming: the chain only carries data, so nothing is
        // jammed and the packet goes through.
        let rec = run(JamTarget::Control);
        assert_eq!(rec.delivered_data_packets(), 1);
        assert_eq!(rec.jammed_frames(), 0);
    }

    #[test]
    fn jammer_does_not_jam_its_own_frames() {
        use crate::config::{JamConfig, JamTarget};
        // Chain 0 -> 1 -> 2 where the only jammer is relay node 1: receptions
        // at the jammer are exempt (it is the receiver) and receptions of the
        // 1 -> 2 hop are exempt (the jammer is the transmitter; half-duplex
        // radios cannot jam while sending).  The packet must go through.
        let n = 3u16;
        let mut config = SimConfig::default();
        config.num_nodes = n;
        config.duration = Duration::from_secs(5.0);
        config.mobility.max_speed = 0.0;
        config.jamming = Some(JamConfig {
            jammers: vec![NodeId(1)],
            target: JamTarget::Data,
            loss_prob: 1.0,
            range_m: 0.0,
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        let stacks: Vec<Box<dyn NodeStack>> = (0..n)
            .map(|i| {
                Box::new(ChainForwarder {
                    me: NodeId(i),
                    last: NodeId(n - 1),
                    sent: Rc::clone(&log),
                    origin: i == 0,
                }) as Box<dyn NodeStack>
            })
            .collect();
        let sim = Simulator::new(
            config,
            Box::new(StaticPlacement::chain(n as usize, 200.0)),
            stacks,
        );
        let rec = sim.run();
        assert_eq!(rec.delivered_data_packets(), 1);
        assert_eq!(rec.jammed_frames(), 0);
    }

    #[test]
    fn jamming_disabled_keeps_runs_identical() {
        // A config with `jamming: None` must consume no extra randomness:
        // byte-identical counters with the pre-adversary behaviour (here we
        // just assert determinism across two constructions).
        let (sim_a, _) = chain_sim(4, 200.0);
        let (sim_b, _) = chain_sim(4, 200.0);
        let a = sim_a.run();
        let b = sim_b.run();
        assert_eq!(a.delivered_data_packets(), b.delivered_data_packets());
        assert_eq!(a.data_transmissions(), b.data_transmissions());
        assert_eq!(a.jammed_frames(), 0);
        assert_eq!(a.adversary_drops(), 0);
    }

    #[test]
    fn wormhole_tunnels_unicast_across_any_distance() {
        use crate::config::WormholeConfig;
        // Two nodes 800 m apart (far beyond the 250 m radio range): without a
        // wormhole the unicast dies at the retry limit; with the tunnel it is
        // delivered out-of-band.
        let run = |wormhole: Option<WormholeConfig>| {
            let mut config = SimConfig::default();
            config.num_nodes = 2;
            config.duration = Duration::from_secs(5.0);
            config.mobility.max_speed = 0.0;
            config.wormhole = wormhole;
            let log = Rc::new(RefCell::new(Vec::new()));
            let stacks: Vec<Box<dyn NodeStack>> = (0..2)
                .map(|i| {
                    Box::new(ChainForwarder {
                        me: NodeId(i),
                        last: NodeId(1),
                        sent: Rc::clone(&log),
                        origin: i == 0,
                    }) as Box<dyn NodeStack>
                })
                .collect();
            let sim = Simulator::new(config, Box::new(StaticPlacement::chain(2, 800.0)), stacks);
            sim.run()
        };
        let clean = run(None);
        assert_eq!(clean.delivered_data_packets(), 0);
        assert_eq!(clean.tunneled_frames(), 0);
        let tunneled = run(Some(WormholeConfig {
            a: NodeId(0),
            b: NodeId(1),
            delay: Duration::from_micros(1.0),
        }));
        assert_eq!(tunneled.delivered_data_packets(), 1);
        assert!(tunneled.tunneled_frames() > 0);
        assert_eq!(tunneled.link_failures(), 0, "the tunnel never fails");
        assert_eq!(
            tunneled.tunneled_data_set().len(),
            1,
            "the data packet is in the capture set"
        );
    }

    #[test]
    fn wormhole_replays_endpoint_broadcasts_to_the_far_endpoint() {
        use crate::config::WormholeConfig;
        // A stack that counts receptions and broadcasts once from node 0.
        struct Beacon {
            origin: bool,
            got: Rc<RefCell<Vec<NodeId>>>,
            me: NodeId,
        }
        impl NodeStack for Beacon {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                if self.origin {
                    let dp = DataPacket::new(
                        PacketId(7),
                        self.me,
                        NodeId(99),
                        TcpSegment::data(ConnectionId(0), 0, 0, 100),
                    );
                    ctx.send_broadcast(NetPacket::Data(dp));
                }
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
            fn on_receive(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _packet: SharedPacket) {
                self.got.borrow_mut().push(self.me);
            }
            fn on_link_failure(&mut self, _c: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut config = SimConfig::default();
        config.num_nodes = 3;
        config.duration = Duration::from_secs(2.0);
        config.mobility.max_speed = 0.0;
        // Chain spacing 400 m: node 1 is out of radio range of node 0, node 2
        // is 800 m away.  Tunnel 0 <-> 2: only node 2 hears the broadcast.
        config.wormhole = Some(WormholeConfig {
            a: NodeId(0),
            b: NodeId(2),
            delay: Duration::from_micros(1.0),
        });
        let stacks: Vec<Box<dyn NodeStack>> = (0..3)
            .map(|i| {
                Box::new(Beacon {
                    origin: i == 0,
                    got: Rc::clone(&got),
                    me: NodeId(i),
                }) as Box<dyn NodeStack>
            })
            .collect();
        let sim = Simulator::new(config, Box::new(StaticPlacement::chain(3, 400.0)), stacks);
        let rec = sim.run();
        assert_eq!(*got.borrow(), vec![NodeId(2)]);
        assert_eq!(rec.tunneled_frames(), 1);
    }

    #[test]
    fn rushing_node_transmits_without_backoff() {
        use crate::config::RushConfig;
        // Identical one-hop transfers; the rusher's MacAttempt fires with
        // zero DIFS/backoff, so its packet is delivered strictly earlier.
        let run = |rush: Option<RushConfig>| {
            let mut config = SimConfig::default();
            config.num_nodes = 2;
            config.duration = Duration::from_secs(2.0);
            config.mobility.max_speed = 0.0;
            config.rush = rush;
            let log = Rc::new(RefCell::new(Vec::new()));
            let stacks: Vec<Box<dyn NodeStack>> = (0..2)
                .map(|i| {
                    Box::new(ChainForwarder {
                        me: NodeId(i),
                        last: NodeId(1),
                        sent: Rc::clone(&log),
                        origin: i == 0,
                    }) as Box<dyn NodeStack>
                })
                .collect();
            let sim = Simulator::new(config, Box::new(StaticPlacement::chain(2, 100.0)), stacks);
            let rec = sim.run();
            rec.delivery_series()
                .first()
                .map(|&(at, _)| at)
                .expect("one-hop delivery must succeed")
        };
        let honest = run(None);
        let rushed = run(Some(RushConfig {
            rushers: vec![NodeId(0)],
        }));
        assert!(
            rushed < honest,
            "rushing must deliver earlier (rushed {rushed:?}, honest {honest:?})"
        );
    }

    #[test]
    fn wormhole_and_rush_disabled_keep_runs_identical() {
        // `wormhole: None` / `rush: None` must take no extra branches and
        // draw no randomness: byte-identical counters across constructions.
        let (sim_a, _) = chain_sim(4, 200.0);
        let (sim_b, _) = chain_sim(4, 200.0);
        let a = sim_a.run();
        let b = sim_b.run();
        assert_eq!(a.delivered_data_packets(), b.delivered_data_packets());
        assert_eq!(a.data_transmissions(), b.data_transmissions());
        assert_eq!(a.collisions(), b.collisions());
        assert_eq!(a.tunneled_frames(), 0);
    }

    #[test]
    fn engine_perf_counters_are_populated() {
        let (sim, _log) = chain_sim(4, 200.0);
        let rec = sim.run();
        let perf = rec.engine_perf();
        assert!(
            perf.neighbor_queries > 0,
            "transmissions must issue range queries"
        );
        assert!(perf.candidates_scanned >= perf.neighbor_queries);
        assert!(perf.position_cache_misses > 0);
        // Static chain: every node binned once at setup, never rebinned after.
        assert_eq!(perf.grid_refreshes, 0);
        assert!(perf.position_cache_hit_rate() >= 0.0);
    }

    #[test]
    fn mobile_runs_process_grid_refreshes() {
        let mut config = SimConfig::default();
        config.num_nodes = 12;
        config.duration = Duration::from_secs(30.0);
        config.mobility.min_speed = 5.0;
        config.mobility.max_speed = 20.0;
        struct Chatty;
        impl NodeStack for Chatty {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule_timer(Duration::from_secs(1.0), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
                let mut buf = Vec::new();
                ctx.neighbors_into(&mut buf);
                ctx.schedule_timer(Duration::from_secs(1.0), TimerToken(0));
            }
            fn on_receive(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _packet: SharedPacket) {}
            fn on_link_failure(&mut self, _c: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
        }
        let stacks: Vec<Box<dyn NodeStack>> = (0..12)
            .map(|_| Box::new(Chatty) as Box<dyn NodeStack>)
            .collect();
        let mobility = crate::mobility::RandomWaypoint::new(1000.0, 1000.0, config.mobility);
        let sim = Simulator::new(config, Box::new(mobility), stacks);
        let rec = sim.run();
        let perf = rec.engine_perf();
        assert!(
            perf.grid_refreshes > 0,
            "moving nodes must trigger drift refreshes"
        );
        assert!(perf.neighbor_queries > 0);
    }
}
