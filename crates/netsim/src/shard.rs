//! Sharded parallel execution: spatial partitions under conservative
//! lookahead with a deterministic merge.
//!
//! # Partitioning
//!
//! The field is cut into `shards` vertical stripes and every node is
//! **statically owned** by the stripe containing its *initial* position.
//! Ownership is purely a load-balancing assignment: each shard runs the
//! protocol stacks and MAC events of its owned nodes, but **mobility is
//! fully replicated** — every shard carries the complete motion state of
//! all nodes and replays the identical waypoint sequence (the mobility RNG
//! stream is shard-invariant, see [`crate::rng::RngStreams::for_shard`]).
//! A node that roams out of its home stripe therefore never needs to be
//! handed off: its owner keeps exact positions for the whole arena and
//! resolves its transmissions against bit-identical replica trajectories.
//!
//! # Conservative lookahead
//!
//! Shards advance in bounded windows.  The coordinator picks
//! `window_end = min(next event over unfinished shards) + W`, where the
//! default `W` is the minimum cross-shard propagation time of the smallest
//! frame — the PHY preamble — plus one MAC slot
//! ([`MacConfig::phy_overhead`](crate::config::MacConfig::phy_overhead) `+`
//! [`MacConfig::slot_time`](crate::config::MacConfig::slot_time)).  Within a
//! window each shard processes only its own events; no cross-shard effect
//! published at the closing barrier can predate the window, so every shard's
//! event order within the window is final when it runs.  Anchoring the
//! window at the globally earliest pending event (instead of marching fixed
//! steps) skips idle gaps while staying deterministic: the schedule depends
//! only on queue states, never on thread timing.
//!
//! # Barriers and the deterministic merge
//!
//! At each barrier the coordinator drains, in **shard-id order**:
//!
//! 1. *Transmission announcements* — transmissions that carrier-sensed or
//!    reached any node the source shard does not own.  Other shards apply
//!    the busy window and reception/transmission intervals to their
//!    replicas, so cross-boundary carrier sense and collisions are modelled
//!    with at most one window of staleness.
//! 2. *Cross-shard deliveries* — receptions whose channel outcome the
//!    sender's shard already resolved.  They are rescheduled as
//!    [`Event::RemoteDeliver`] on the receiver's owner shard at
//!    `max(t, window_end)`, entering its queue in source-shard-id + FIFO
//!    order: the tie-break is stable and independent of worker scheduling.
//! 3. *Forwarded events* — popped events that must run elsewhere (wormhole
//!    tunnel deliveries whose endpoint lives on another shard).
//!
//! After the run, the per-shard recorders reduce through
//! [`Recorder::merge`], which is itself deterministic (shard-id tie-breaks
//! throughout).
//!
//! # Determinism contract
//!
//! * `Sharded { shards: 1, .. }` is **byte-identical** to [`Execution::Serial`]:
//!   it runs the serial engine (same RNG streams, no shard bookkeeping).
//! * For a fixed `shards > 1`, results are deterministic and byte-identical
//!   across **worker counts** (and across repeated runs): workers only
//!   execute the window schedule; they never influence it.
//! * `shards > 1` is statistically — not byte — equivalent to serial: the
//!   MAC/channel/protocol RNG streams are per-shard, cross-shard deliveries
//!   land at the next barrier, and cross-boundary carrier sense is up to one
//!   window stale.  `tests/shard_equivalence.rs` pins both halves of the
//!   contract.

use crate::config::{Execution, SimConfig};
use crate::engine::{SimCore, World};
use crate::event::{Event, TxId};
use crate::mac::RxInterval;
use crate::mobility::MobilityModel;
use crate::node::{Ctx, NodeStack, TimerToken};
use crate::recorder::{Recorder, TraceMode};
use crate::rng::RngStreams;
use crate::time::{Duration, SimTime};
use manet_wire::{Frame, NodeId, SharedPacket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// The engine instantiation a shard runs: stacks must be `Send` so shards
/// can move across worker threads.
type ShardCore = SimCore<Box<dyn NodeStack + Send>>;

/// A transmission one shard started that touches nodes another shard owns.
/// Applied to every other shard's replicas at the closing barrier.
#[derive(Debug, Clone)]
pub(crate) struct TxAnnouncement {
    /// Transmitting node.
    pub(crate) sender: NodeId,
    /// Transmission id (per-shard id spaces are disjoint, see
    /// [`shard_tx_base`]).
    pub(crate) tx: TxId,
    /// Airtime start.
    pub(crate) start: SimTime,
    /// Airtime end.
    pub(crate) end: SimTime,
    /// Nodes within carrier-sense range at `start`.
    pub(crate) busy: Vec<NodeId>,
    /// Nodes within transmission range at `start`.
    pub(crate) rx: Vec<NodeId>,
    /// Bitmask of shards owning at least one touched node (`busy` ∪ `rx`).
    /// The barrier applies the announcement only at shards in the mask
    /// instead of fanning out all-to-all; shards ≥ 64 fall back to the
    /// all-ones mask (apply everywhere — correct, just not filtered).
    pub(crate) dst_mask: u64,
}

/// A resolved cross-shard reception awaiting replay at the receiver's owner.
#[derive(Debug)]
pub(crate) struct DeliverRecord {
    /// When the transmission ended on the sender's shard.
    pub(crate) at: SimTime,
    /// Receiving node (owned by the destination shard).
    pub(crate) to: NodeId,
    /// The frame as transmitted.
    pub(crate) frame: Frame,
    /// Addressed reception (`on_receive`) vs promiscuous overhearing.
    pub(crate) addressed: bool,
}

/// Outbox one shard accumulates for one destination shard during a window.
#[derive(Debug, Default)]
pub(crate) struct ShardMail {
    /// Cross-shard receptions resolved this window.
    pub(crate) deliveries: Vec<DeliverRecord>,
    /// Popped events that must run at the destination shard (tunnel
    /// deliveries to endpoints owned elsewhere), with their original times.
    pub(crate) forwarded: Vec<(SimTime, Event)>,
}

/// Per-shard traffic counters, folded into
/// [`EnginePerf`](crate::recorder::EnginePerf) at the end of the run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ShardCounters {
    /// Frames delivered across a shard boundary.
    pub(crate) cross_shard_frames: u64,
    /// Transmission announcements published to other shards.
    pub(crate) cross_shard_announcements: u64,
    /// Popped events re-routed to their owner shard.
    pub(crate) forwarded_events: u64,
    /// Announcements this shard did *not* have to apply because its owned
    /// nodes were outside the transmission's footprint (the destination-mask
    /// fan-out fix; proves the reduction vs. all-to-all).
    pub(crate) announcements_skipped: u64,
}

/// Everything a [`World`] needs to know about being one shard of a sharded
/// run.  `None` in the serial engine.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    /// This shard's id.
    pub(crate) id: u16,
    /// Owner shard of every node (index = node id), shared by all shards.
    pub(crate) owner: Arc<Vec<u16>>,
    /// Announcements accumulated this window.
    pub(crate) announcements: Vec<TxAnnouncement>,
    /// Outboxes indexed by destination shard (the self entry stays empty).
    pub(crate) mail: Vec<ShardMail>,
    /// Cross-shard traffic counters.
    pub(crate) counters: ShardCounters,
}

/// Placeholder stack for nodes a shard does not own: their mobility is
/// replicated here, but their protocol behaviour runs at the owner shard.
struct NullStack;

impl NodeStack for NullStack {
    fn start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
    fn on_receive(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _packet: SharedPacket) {}
    fn on_link_failure(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _next_hop: NodeId,
        _packet: manet_wire::NetPacket,
    ) {
    }
}

/// Base of shard `s`'s transmission-id space.  48 bits of per-shard ids is
/// far beyond any run length, so the spaces never collide and replica
/// reception intervals key on globally unique ids.
fn shard_tx_base(shard: u16) -> u64 {
    u64::from(shard) << 48
}

/// The default conservative lookahead: minimum airtime any frame occupies
/// before a neighbour can observe a consequence (the PHY preamble) plus one
/// MAC slot.
fn default_window(config: &SimConfig) -> Duration {
    config.mac.phy_overhead + config.mac.slot_time
}

/// Compute the static owner map: the vertical stripe of each node's initial
/// position.  Replays the engine constructor's mobility draws (initial
/// position + first leg per node, in node order) against a throwaway model
/// so the real per-shard constructors — which replay the identical
/// shard-invariant mobility stream — see exactly the positions this map was
/// derived from.
fn owner_map(
    config: &SimConfig,
    mut mobility: Box<dyn MobilityModel + Send>,
    shards: u16,
) -> Vec<u16> {
    let mut rngs = RngStreams::new(config.seed);
    let stripe = config.field_width / f64::from(shards);
    let mut owner = Vec::with_capacity(config.num_nodes as usize);
    for i in 0..config.num_nodes as usize {
        let pos = mobility.initial_position(i, rngs.mobility());
        let _ = mobility.next_leg(i, pos, SimTime::ZERO, 0, rngs.mobility());
        let s = if stripe > 0.0 {
            (pos.x / stripe).floor() as i64
        } else {
            0
        };
        owner.push(s.clamp(0, i64::from(shards) - 1) as u16);
    }
    owner
}

/// Apply one announced transmission to a replica world: extend the busy
/// windows it carrier-sensed and register the reception/transmission
/// intervals collision detection needs.  Interval GC uses the *announced
/// start* (not the barrier time) so evidence of overlaps the serial engine
/// would still see is never dropped early.
fn apply_announcement(world: &mut World, ann: &TxAnnouncement) {
    for &b in &ann.busy {
        let cell = &world.busy[b.index()];
        if cell.get() < ann.end {
            cell.set(ann.end);
        }
    }
    for &r in &ann.rx {
        let m = &mut world.macs[r.index()];
        m.gc_intervals(ann.start);
        m.rx_intervals.push(RxInterval {
            tx: ann.tx,
            start: ann.start,
            end: ann.end,
        });
    }
    let m = &mut world.macs[ann.sender.index()];
    m.gc_intervals(ann.start);
    m.tx_intervals.push((ann.start, ann.end));
}

/// Window end for the next round: the earliest pending event over all
/// unfinished shards plus the lookahead, or `None` when every shard has
/// finished.
fn next_window_end(cores: &[Mutex<ShardCore>], window: Duration) -> Option<SimTime> {
    let mut earliest: Option<SimTime> = None;
    for core in cores {
        let c = core.lock().expect("shard mutex");
        if c.is_finished() {
            continue;
        }
        if let Some(t) = c.peek_time() {
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        }
    }
    earliest.map(|e| e + window)
}

/// Drain every shard's announcements and outboxes and apply them, all in
/// shard-id order (the deterministic merge step of one barrier).
fn apply_barrier(cores: &[Mutex<ShardCore>], window_end: SimTime) {
    let shards = cores.len();
    let mut anns: Vec<Vec<TxAnnouncement>> = Vec::with_capacity(shards);
    let mut mails: Vec<Vec<ShardMail>> = Vec::with_capacity(shards);
    for core in cores {
        let mut c = core.lock().expect("shard mutex");
        let shard = c
            .world_mut()
            .shard
            .as_mut()
            .expect("sharded core has a shard context");
        anns.push(std::mem::take(&mut shard.announcements));
        mails.push(shard.mail.iter_mut().map(std::mem::take).collect());
    }
    // Announcements: each shard applies other shards' transmissions to its
    // replicas — but only the transmissions whose footprint touches a node
    // it owns (`dst_mask`).  Skipping the rest does not change any owned
    // node's MAC state: busy windows and reception intervals on *replica*
    // (non-owned) nodes are never read, because carrier sense and collision
    // resolution only run at a node's owner shard.  Source order is shard
    // id; the per-shard lists are in each source's own event order.
    for (dst, core) in cores.iter().enumerate() {
        let mut c = core.lock().expect("shard mutex");
        let world = c.world_mut();
        let dst_bit = 1u64 << (dst as u32 & 63);
        let mut skipped = 0u64;
        for (src, list) in anns.iter().enumerate() {
            if src == dst {
                continue;
            }
            for ann in list {
                if ann.dst_mask & dst_bit == 0 {
                    skipped += 1;
                    continue;
                }
                apply_announcement(world, ann);
            }
        }
        if let Some(shard) = world.shard.as_mut() {
            shard.counters.announcements_skipped += skipped;
        }
    }
    // Deliveries and forwarded events: scheduled on the destination queue in
    // source-shard order, then record order.  The destination queue's FIFO
    // sequence numbers make this ordering part of the event schedule itself,
    // so it is identical for every worker count.
    for mail in mails {
        for (dst, outbox) in mail.into_iter().enumerate() {
            if outbox.deliveries.is_empty() && outbox.forwarded.is_empty() {
                continue;
            }
            let mut c = cores[dst].lock().expect("shard mutex");
            let world = c.world_mut();
            for d in outbox.deliveries {
                let at = if d.at < window_end { window_end } else { d.at };
                world.queue.schedule(
                    at,
                    Event::RemoteDeliver {
                        to: d.to,
                        frame: d.frame,
                        addressed: d.addressed,
                    },
                );
            }
            for (t, ev) in outbox.forwarded {
                let at = if t < window_end { window_end } else { t };
                world.queue.schedule(at, ev);
            }
        }
    }
}

/// Run a simulation under the execution strategy in `config.execution`.
///
/// Because stacks must be constructed inside their owner shard (and the
/// mobility model is replicated per shard), the caller passes factories
/// instead of ready-made instances:
///
/// * `mobility_factory` is called once per shard (plus once for the owner
///   prepass) and must return equivalent models — each one replays the
///   shard-invariant mobility RNG stream, which keeps the replicas
///   bit-identical.
/// * `stack_factory` is called exactly once per node, at the shard that owns
///   it (in shard-major, node-minor order).
///
/// `trace` enables the human-readable recorder trace (needed for the
/// equivalence tests; costs memory).
///
/// With `Execution::Serial` or one shard this runs the serial engine —
/// byte-identical to [`Simulator::new`](crate::engine::Simulator) + `run`.
pub fn run_sharded<M, F>(
    config: SimConfig,
    mut mobility_factory: M,
    mut stack_factory: F,
    trace: bool,
) -> Recorder
where
    M: FnMut() -> Box<dyn MobilityModel + Send>,
    F: FnMut(NodeId) -> Box<dyn NodeStack + Send>,
{
    let shards = config.execution.shard_count();
    let workers = config.execution.worker_count().min(shards);
    let window = match config.execution {
        Execution::Sharded { window, .. } => window,
        Execution::Serial => None,
    }
    .unwrap_or_else(|| default_window(&config));

    if shards <= 1 {
        // One shard is the serial engine: same RNG streams, tx-id base 0, no
        // shard context, so the run is byte-identical to `Simulator::run`.
        let stacks: Vec<Box<dyn NodeStack + Send>> = (0..config.num_nodes)
            .map(|i| stack_factory(NodeId(i)))
            .collect();
        let rngs = RngStreams::new(config.seed);
        let mut core: ShardCore = SimCore::build(config, mobility_factory(), stacks, rngs, 0, None);
        if trace {
            core.set_trace_mode(TraceMode::Keep);
        }
        let mut recorder = core.run();
        let mut perf = recorder.engine_perf();
        perf.shards = 1;
        perf.shard_events_min = perf.events_processed;
        perf.shard_events_max = perf.events_processed;
        recorder.set_engine_perf(perf);
        return recorder;
    }

    let owner = Arc::new(owner_map(&config, mobility_factory(), shards));
    let cores: Vec<Mutex<ShardCore>> = (0..shards)
        .map(|s| {
            let stacks: Vec<Box<dyn NodeStack + Send>> = (0..config.num_nodes as usize)
                .map(|i| {
                    if owner[i] == s {
                        stack_factory(NodeId(i as u16))
                    } else {
                        Box::new(NullStack)
                    }
                })
                .collect();
            let ctx = ShardCtx {
                id: s,
                owner: Arc::clone(&owner),
                announcements: Vec::new(),
                mail: (0..shards).map(|_| ShardMail::default()).collect(),
                counters: ShardCounters::default(),
            };
            let rngs = RngStreams::for_shard(config.seed, s, shards);
            let mut core: ShardCore = SimCore::build(
                config.clone(),
                mobility_factory(),
                stacks,
                rngs,
                shard_tx_base(s),
                Some(ctx),
            );
            if trace {
                core.set_trace_mode(TraceMode::Keep);
            }
            Mutex::new(core)
        })
        .collect();

    // Start every shard's stacks before the first window (coordinator
    // thread, shard order) so the first `peek_time` sees their events.
    for core in &cores {
        core.lock().expect("shard mutex").ensure_started();
    }

    // Wall-clock phase profiling: where worker time goes, split into shard
    // execution, barrier waits, and the coordinator's barrier-merge
    // (announcement/delivery apply).  Published via `EnginePerf`; these sums
    // are the one nondeterministic part of the perf report.
    let execute_nanos = AtomicU64::new(0);
    let barrier_nanos = AtomicU64::new(0);
    let mut apply_nanos: u64 = 0;

    let mut windows: u64 = 0;
    if workers <= 1 {
        // Single worker: the coordinator advances the shards itself.  Same
        // schedule as the pooled path (the schedule never depends on
        // workers), without any thread machinery (and no barrier waits).
        while let Some(window_end) = next_window_end(&cores, window) {
            let t_exec = Instant::now();
            for core in &cores {
                let mut c = core.lock().expect("shard mutex");
                if !c.is_finished() {
                    c.run_window(window_end);
                }
            }
            execute_nanos.fetch_add(t_exec.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let t_apply = Instant::now();
            apply_barrier(&cores, window_end);
            apply_nanos += t_apply.elapsed().as_nanos() as u64;
            windows += 1;
        }
    } else {
        // Persistent worker pool: one start/end barrier pair per window,
        // shards claimed from a shared counter.  Which worker advances which
        // shard is timing-dependent; nothing downstream observes it.
        let claim = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let window_bits = AtomicU64::new(0);
        let start_barrier = Barrier::new(workers as usize + 1);
        let end_barrier = Barrier::new(workers as usize + 1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut execute: u64 = 0;
                    let mut barrier: u64 = 0;
                    loop {
                        let t_wait = Instant::now();
                        start_barrier.wait();
                        barrier += t_wait.elapsed().as_nanos() as u64;
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        let window_end =
                            SimTime::from_secs(f64::from_bits(window_bits.load(Ordering::Acquire)));
                        let t_exec = Instant::now();
                        loop {
                            let i = claim.fetch_add(1, Ordering::Relaxed);
                            if i >= cores.len() {
                                break;
                            }
                            let mut c = cores[i].lock().expect("shard mutex");
                            if !c.is_finished() {
                                c.run_window(window_end);
                            }
                        }
                        execute += t_exec.elapsed().as_nanos() as u64;
                        let t_wait = Instant::now();
                        end_barrier.wait();
                        barrier += t_wait.elapsed().as_nanos() as u64;
                    }
                    execute_nanos.fetch_add(execute, Ordering::Relaxed);
                    barrier_nanos.fetch_add(barrier, Ordering::Relaxed);
                });
            }
            while let Some(window_end) = next_window_end(&cores, window) {
                window_bits.store(window_end.as_secs().to_bits(), Ordering::Release);
                claim.store(0, Ordering::Release);
                start_barrier.wait();
                end_barrier.wait();
                let t_apply = Instant::now();
                apply_barrier(&cores, window_end);
                apply_nanos += t_apply.elapsed().as_nanos() as u64;
                windows += 1;
            }
            done.store(true, Ordering::Release);
            start_barrier.wait();
        });
    }

    let parts: Vec<Recorder> = cores
        .into_iter()
        .map(|m| m.into_inner().expect("shard mutex").finalize())
        .collect();
    let mut recorder = Recorder::merge(parts);
    let mut perf = recorder.engine_perf();
    perf.shards = u64::from(shards);
    perf.windows = windows;
    perf.window_micros = (window.as_secs() * 1e6).round() as u64;
    perf.phase_execute_nanos = execute_nanos.into_inner();
    perf.phase_barrier_nanos = barrier_nanos.into_inner();
    perf.phase_apply_nanos = apply_nanos;
    recorder.set_engine_perf(perf);
    recorder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MobilityConfig;
    use crate::mobility::RandomWaypoint;
    use proptest::prelude::*;

    fn waypoint_factory(config: &SimConfig) -> impl FnMut() -> Box<dyn MobilityModel + Send> + '_ {
        move || {
            Box::new(RandomWaypoint {
                width: config.field_width,
                height: config.field_height,
                config: config.mobility,
            })
        }
    }

    /// A mobility-only core (every node runs [`NullStack`]): serial when
    /// `shard` is `None`, otherwise one replica shard of a `shards`-way run.
    fn mobility_only_core(config: &SimConfig, shards: u16, shard: Option<u16>) -> ShardCore {
        let stacks: Vec<Box<dyn NodeStack + Send>> = (0..config.num_nodes)
            .map(|_| Box::new(NullStack) as Box<dyn NodeStack + Send>)
            .collect();
        let mut factory = waypoint_factory(config);
        match shard {
            None => SimCore::build(
                config.clone(),
                factory(),
                stacks,
                RngStreams::new(config.seed),
                0,
                None,
            ),
            Some(s) => {
                let owner = Arc::new(owner_map(config, factory(), shards));
                let ctx = ShardCtx {
                    id: s,
                    owner,
                    announcements: Vec::new(),
                    mail: (0..shards).map(|_| ShardMail::default()).collect(),
                    counters: ShardCounters::default(),
                };
                SimCore::build(
                    config.clone(),
                    factory(),
                    stacks,
                    RngStreams::for_shard(config.seed, s, shards),
                    shard_tx_base(s),
                    Some(ctx),
                )
            }
        }
    }

    /// Current stripe of a position (the stripe a node *would* be owned by if
    /// ownership followed it around — it does not; this is only used to count
    /// boundary crossings in the hand-off tests).
    fn stripe_of(x: f64, field_width: f64, shards: u16) -> u16 {
        let stripe = field_width / f64::from(shards);
        ((x / stripe).floor() as i64).clamp(0, i64::from(shards) - 1) as u16
    }

    fn roaming_config(seed: u64, max_speed: f64) -> SimConfig {
        SimConfig {
            num_nodes: 24,
            field_width: 600.0,
            field_height: 600.0,
            duration: Duration::from_secs(40.0),
            seed,
            mobility: MobilityConfig {
                min_speed: 1.0,
                max_speed,
                ..MobilityConfig::default()
            },
            ..SimConfig::default()
        }
    }

    proptest! {
        /// Shard hand-off property: nodes migrate across stripe boundaries
        /// mid-leg throughout the run, and because ownership is static while
        /// mobility is fully replicated, every shard's replica must agree
        /// with the serial engine on every node's position and neighbor set
        /// at every barrier — no matter where the node has roamed.
        #[test]
        fn boundary_migration_keeps_replica_neighbor_sets_identical(
            seed in 0u64..1_000,
            max_speed in 2.0f64..20.0,
        ) {
            let config = roaming_config(seed, max_speed);
            let shards = 3u16;
            let window = Duration::from_secs(0.5);
            let mut serial = mobility_only_core(&config, shards, None);
            let mut cores: Vec<ShardCore> = (0..shards)
                .map(|s| mobility_only_core(&config, shards, Some(s)))
                .collect();
            serial.ensure_started();
            for c in &mut cores {
                c.ensure_started();
            }
            while !serial.is_finished() {
                let t = serial.peek_time().expect("Stop still pending");
                let window_end = t + window;
                serial.run_window(window_end);
                for c in &mut cores {
                    c.run_window(window_end);
                }
                for i in 0..config.num_nodes {
                    let node = NodeId(i);
                    let want_pos = serial.world().position_of(node);
                    let want_neigh = serial.world().neighbors_of(node);
                    for c in &cores {
                        prop_assert_eq!(c.world().position_of(node), want_pos);
                        prop_assert_eq!(&c.world().neighbors_of(node), &want_neigh);
                    }
                }
            }
            for c in &cores {
                prop_assert!(c.is_finished(), "replicas stop at the same time");
            }
        }
    }

    #[test]
    fn nodes_do_cross_stripe_boundaries_mid_run() {
        // Companion to the proptest above: make sure the scenario it checks
        // actually exercises boundary migration (otherwise the hand-off
        // property would pass vacuously).
        let config = roaming_config(7, 10.0);
        let shards = 3u16;
        let owner = owner_map(&config, waypoint_factory(&config)(), shards);
        let mut core = mobility_only_core(&config, shards, None);
        core.ensure_started();
        let mut crossings = 0u32;
        while !core.is_finished() {
            let t = core.peek_time().expect("Stop still pending");
            core.run_window(t + Duration::from_secs(0.5));
            for i in 0..config.num_nodes {
                let pos = core.world().position_of(NodeId(i));
                if stripe_of(pos.x, config.field_width, shards) != owner[i as usize] {
                    crossings += 1;
                }
            }
        }
        assert!(
            crossings > 0,
            "expected nodes to roam outside their home stripe"
        );
    }

    #[test]
    fn owner_map_covers_every_shard_roughly_evenly() {
        let config = SimConfig {
            num_nodes: 400,
            ..SimConfig::default()
        };
        let shards = 4;
        let owner = owner_map(&config, waypoint_factory(&config)(), shards);
        assert_eq!(owner.len(), 400);
        let mut counts = vec![0usize; shards as usize];
        for &s in &owner {
            assert!(s < shards);
            counts[s as usize] += 1;
        }
        // Uniform placement: each vertical quarter should hold a sizeable
        // share (this is a determinism smoke test, not a statistics test).
        for &c in &counts {
            assert!(c > 40, "severely imbalanced owner map: {counts:?}");
        }
    }

    #[test]
    fn owner_map_is_deterministic() {
        let config = SimConfig {
            num_nodes: 100,
            ..SimConfig::default()
        };
        let a = owner_map(&config, waypoint_factory(&config)(), 8);
        let b = owner_map(&config, waypoint_factory(&config)(), 8);
        assert_eq!(a, b);
    }

    #[test]
    fn default_window_is_preamble_plus_slot() {
        let config = SimConfig::default();
        let w = default_window(&config);
        assert!((w.as_secs() - 212e-6).abs() < 1e-12);
    }

    #[test]
    fn shard_tx_bases_are_disjoint() {
        assert_eq!(shard_tx_base(0), 0);
        assert!(shard_tx_base(1) > u64::from(u32::MAX));
        assert_ne!(shard_tx_base(1), shard_tx_base(2));
    }
}
