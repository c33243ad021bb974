//! Shared routing building blocks.

use crate::agent::TimerClass;
use manet_netsim::FxHashMap;
use manet_netsim::{Ctx, DropReason, Observation, PacketRef, TimerToken};
use manet_netsim::{Duration, SimTime};
use manet_wire::{BroadcastId, DataPacket, NodeId};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Observe a routing-layer drop of a data packet at `me` (see
/// [`Observation::Drop`]).
pub fn record_data_drop(ctx: &mut Ctx<'_>, me: NodeId, reason: DropReason, packet: &DataPacket) {
    ctx.observe(Observation::Drop {
        node: me,
        reason,
        packet: PacketRef::Data(packet),
    });
}

/// Duplicate-suppression table for flooded packets.
///
/// A route request is uniquely identified by `(source, destination,
/// broadcast_id)` (paper §III-B).  Entries expire after `ttl`: expiry is
/// decided at the looked-up entry, so a call costs one map access, and a
/// full sweep once per TTL of simulated time keeps the table small over a
/// long run.  Callers pass non-decreasing times (a node's clock).
#[derive(Debug)]
pub struct SeenTable {
    ttl_secs: f64,
    entries: FxHashMap<(NodeId, NodeId, BroadcastId), SimTime>,
    /// Time of the next full sweep of expired entries.
    next_sweep: SimTime,
    #[cfg(test)]
    sweeps: u64,
}

impl SeenTable {
    /// Table whose entries live for `ttl_secs` seconds.
    pub fn new(ttl_secs: f64) -> Self {
        SeenTable {
            ttl_secs,
            entries: FxHashMap::default(),
            next_sweep: SimTime::ZERO,
            #[cfg(test)]
            sweeps: 0,
        }
    }

    /// Record the flood identified by the triple; returns `true` if it was
    /// seen for the first time (i.e. the caller should process/forward it).
    /// A duplicate refreshes the entry's timestamp; one arriving a full TTL
    /// after the last copy counts as new again.
    pub fn first_time(
        &mut self,
        source: NodeId,
        destination: NodeId,
        id: BroadcastId,
        now: SimTime,
    ) -> bool {
        if now >= self.next_sweep {
            self.sweep(now);
        }
        match self.entries.entry((source, destination, id)) {
            Entry::Vacant(v) => {
                v.insert(now);
                true
            }
            Entry::Occupied(mut o) => {
                let seen = o.insert(now);
                now.saturating_since(seen).as_secs() >= self.ttl_secs
            }
        }
    }

    /// Drop every expired entry and schedule the next sweep one TTL ahead.
    fn sweep(&mut self, now: SimTime) {
        let ttl = self.ttl_secs;
        self.entries
            .retain(|_, &mut seen| now.saturating_since(seen).as_secs() < ttl);
        self.next_sweep = now + Duration::from_secs(ttl);
        #[cfg(test)]
        {
            self.sweeps += 1;
        }
    }
}

impl Default for SeenTable {
    fn default() -> Self {
        // RREQ floods are over well within 30 s of network traversal.
        SeenTable::new(30.0)
    }
}

/// Seconds the source waits for a RREP before flooding again.
const RETRY_SECS: f64 = 1.0;
/// RREQ floods per discovery before it gives up.
const FLOODS: u32 = 3;
/// Seconds a destination stays held down after a failed discovery: no new
/// flood starts for it before then.
const HOLDDOWN_SECS: f64 = 5.0;

/// What a discovery retry timer asks of its agent (see
/// [`Discovery::on_timer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retry {
    /// Not a retry timer, or one whose discovery already ended.
    Stale,
    /// A route to this destination appeared without a RREP reaching the
    /// source; the discovery ended.
    Resolved(NodeId),
    /// No route yet: flood the RREQ for this destination again.
    Flood(NodeId),
    /// The last flood went unanswered: the buffered packets were dropped
    /// (each recorded as [`DropReason::DiscoveryFailed`]) and the destination
    /// is held down.
    GaveUp,
}

/// A discovery in flight towards one destination.
#[derive(Debug)]
struct Pending {
    floods: u32,
    /// Payload of the retry timer that is armed for it.
    generation: u64,
}

/// The on-demand route discovery DSR, AODV and MTS share (paper §III-B):
/// buffer the packet, flood a RREQ, flood again every second while no route
/// exists, and after the third unanswered flood drop the buffered packets and
/// hold the destination down for five seconds.
///
/// The agent keeps what differs between protocols: the RREQ it floods, its
/// has-route predicate and what a [`Retry`] triggers.  Discovery owns the
/// per-destination packet buffer (64 packets, each kept at most 8 s), the
/// pending discoveries, the hold-downs and the retry timers, which are
/// [`TimerClass::Routing`] tokens.
#[derive(Debug, Default)]
pub struct Discovery {
    buffer: PacketBuffer,
    pending: FxHashMap<NodeId, Pending>,
    holddown: FxHashMap<NodeId, SimTime>,
    generation: u64,
}

impl Discovery {
    /// Buffer a packet `me` originated until a route to its destination
    /// exists.  A packet evicted from a full buffer is observed as a
    /// [`DropReason::NoRoute`] drop.
    pub fn hold(&mut self, ctx: &mut Ctx<'_>, me: NodeId, packet: DataPacket) {
        let (dest, now) = (packet.dst, ctx.now());
        if let Some(evicted) = self.buffer.push(dest, packet, now) {
            record_data_drop(ctx, me, DropReason::NoRoute, &evicted);
        }
    }

    /// Start a discovery towards `dest` and arm its retry timer.  Returns
    /// false, doing nothing, while one is pending or `dest` is held down;
    /// on true the caller floods its RREQ.
    #[must_use = "the caller floods its RREQ when a discovery starts"]
    pub fn start(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) -> bool {
        let held_down = self.holddown.get(&dest).is_some_and(|&t| ctx.now() < t);
        if held_down || self.pending.contains_key(&dest) {
            return false;
        }
        let generation = self.arm(ctx);
        self.pending.insert(
            dest,
            Pending {
                floods: 1,
                generation,
            },
        );
        true
    }

    /// A RREP for `dest` reached the source: the discovery ends and any
    /// hold-down is lifted.
    pub fn resolved(&mut self, dest: NodeId) {
        self.pending.remove(&dest);
        self.holddown.remove(&dest);
    }

    /// Take every packet buffered for `dest`.  Those older than the buffer's
    /// age limit are observed as [`DropReason::DiscoveryFailed`] drops; the
    /// rest are returned in arrival order for the caller to route.
    #[must_use = "the returned packets must be routed"]
    pub fn release(&mut self, ctx: &mut Ctx<'_>, me: NodeId, dest: NodeId) -> Vec<DataPacket> {
        let (fresh, expired) = self.buffer.drain(dest, ctx.now());
        for p in &expired {
            record_data_drop(ctx, me, DropReason::DiscoveryFailed, p);
        }
        fresh
    }

    /// Handle a timer delivered to `me`; tokens of other classes are
    /// [`Retry::Stale`].  `has_route` is the agent's route predicate for the
    /// timer's destination.  Giving up observes every buffered packet as a
    /// [`DropReason::DiscoveryFailed`] drop.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        me: NodeId,
        token: TimerToken,
        has_route: impl FnOnce(NodeId) -> bool,
    ) -> Retry {
        if !TimerClass::Routing.owns(token) {
            return Retry::Stale;
        }
        let generation = token.payload();
        let Some((dest, floods)) = self
            .pending
            .iter()
            .find(|(_, p)| p.generation == generation)
            .map(|(&dest, p)| (dest, p.floods))
        else {
            return Retry::Stale;
        };
        if has_route(dest) {
            self.pending.remove(&dest);
            return Retry::Resolved(dest);
        }
        if floods >= FLOODS {
            self.pending.remove(&dest);
            self.holddown
                .insert(dest, ctx.now() + Duration::from_secs(HOLDDOWN_SECS));
            for p in &self.buffer.discard(dest) {
                record_data_drop(ctx, me, DropReason::DiscoveryFailed, p);
            }
            return Retry::GaveUp;
        }
        let generation = self.arm(ctx);
        let pending = self.pending.get_mut(&dest).expect("found above");
        pending.floods += 1;
        pending.generation = generation;
        Retry::Flood(dest)
    }

    /// Schedule the next retry timer and return its payload.
    fn arm(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        self.generation += 1;
        ctx.schedule_timer(
            Duration::from_secs(RETRY_SECS),
            TimerClass::Routing.token(self.generation),
        );
        self.generation
    }
}

/// Per-destination buffer of data packets awaiting a route.
///
/// On-demand protocols queue packets while a discovery is in flight; the
/// buffer is bounded (drop-oldest) and entries expire so that stale TCP
/// segments are not injected long after the transport has given up on them.
#[derive(Debug)]
struct PacketBuffer {
    capacity_per_dest: usize,
    max_age_secs: f64,
    queues: FxHashMap<NodeId, VecDeque<(DataPacket, SimTime)>>,
}

impl PacketBuffer {
    /// Buffer holding at most `capacity_per_dest` packets per destination,
    /// each for at most `max_age_secs` seconds.
    fn new(capacity_per_dest: usize, max_age_secs: f64) -> Self {
        PacketBuffer {
            capacity_per_dest,
            max_age_secs,
            queues: FxHashMap::default(),
        }
    }

    /// Queue a packet for `dest`.  When the per-destination queue is full the
    /// oldest packet is evicted and returned so the caller can account the
    /// drop.
    #[must_use = "the evicted packet (if any) must be accounted as a drop"]
    fn push(&mut self, dest: NodeId, packet: DataPacket, now: SimTime) -> Option<DataPacket> {
        let q = self.queues.entry(dest).or_default();
        let evicted = if q.len() >= self.capacity_per_dest {
            q.pop_front().map(|(p, _)| p)
        } else {
            None
        };
        q.push_back((packet, now));
        evicted
    }

    /// Take everything buffered for `dest`, split into still-fresh packets
    /// (first element, for the caller to re-route) and expired ones (second
    /// element, for the caller to account as drops).
    #[must_use = "expired packets (the second element) must be accounted as drops"]
    fn drain(&mut self, dest: NodeId, now: SimTime) -> (Vec<DataPacket>, Vec<DataPacket>) {
        let max_age = self.max_age_secs;
        let (mut fresh, mut expired) = (Vec::new(), Vec::new());
        if let Some(q) = self.queues.remove(&dest) {
            for (p, queued_at) in q {
                if now.saturating_since(queued_at).as_secs() <= max_age {
                    fresh.push(p);
                } else {
                    expired.push(p);
                }
            }
        }
        (fresh, expired)
    }

    /// Discard everything buffered for `dest`, returning the dropped packets.
    #[must_use = "discarded packets must be accounted as drops"]
    fn discard(&mut self, dest: NodeId) -> Vec<DataPacket> {
        self.queues
            .remove(&dest)
            .map_or_else(Vec::new, |q| q.into_iter().map(|(p, _)| p).collect())
    }

    /// Number of packets currently buffered for `dest`.
    #[cfg(test)]
    fn len_for(&self, dest: NodeId) -> usize {
        self.queues.get(&dest).map_or(0, |q| q.len())
    }
}

impl Default for PacketBuffer {
    fn default() -> Self {
        PacketBuffer::new(64, 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::RoutingAgent;
    use crate::testkit::{run_routing, TestFlow};
    use manet_netsim::mobility::StaticPlacement;
    use manet_netsim::SimConfig;
    use manet_wire::{ConnectionId, NetPacket, PacketId, SharedPacket, TcpSegment};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pkt(id: u64) -> DataPacket {
        DataPacket::new(
            PacketId(id),
            NodeId(0),
            NodeId(9),
            TcpSegment::data(ConnectionId(0), 0, 0, 100),
        )
    }

    #[test]
    fn seen_table_suppresses_duplicates() {
        let mut s = SeenTable::new(10.0);
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(5), t(0.0)));
        assert!(!s.first_time(NodeId(1), NodeId(2), BroadcastId(5), t(1.0)));
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(6), t(1.0)));
        // Every element of the triple is part of the key.
        assert!(s.first_time(NodeId(3), NodeId(2), BroadcastId(5), t(1.0)));
        assert!(s.first_time(NodeId(1), NodeId(4), BroadcastId(5), t(1.0)));
        assert!(!s.first_time(NodeId(1), NodeId(2), BroadcastId(6), t(2.0)));
    }

    #[test]
    fn seen_table_entries_expire() {
        let mut s = SeenTable::new(5.0);
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(0.0)));
        // After the TTL, the same triple counts as new again.
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(6.0)));
        // A duplicate refreshes the timestamp: 4 s after each copy is never
        // a full TTL after the last one.
        assert!(!s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(10.0)));
        assert!(!s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(14.0)));
        // Exactly one TTL later counts as expired (`>=`).
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(19.0)));
    }

    #[test]
    fn seen_table_expires_an_entry_between_two_sweeps() {
        let mut s = SeenTable::new(5.0);
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(0.0)));
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(2), t(3.0)));
        // This call sweeps (t = 6 is past the first deadline) and keeps flood
        // 2, which is 3 s old; the next sweep is not due before t = 11.
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(1), t(6.0)));
        assert_eq!((s.sweeps, s.entries.len()), (2, 2));
        // So at t = 8 flood 2 is still stored, exactly one TTL old: the
        // looked-up entry itself says "expired".
        assert!(s.first_time(NodeId(1), NodeId(2), BroadcastId(2), t(8.0)));
        assert!(!s.first_time(NodeId(1), NodeId(2), BroadcastId(2), t(9.0)));
        assert_eq!(s.sweeps, 2);
    }

    #[test]
    fn seen_table_sweeps_once_per_ttl_not_once_per_call() {
        let mut s = SeenTable::new(30.0);
        // A flood storm inside one TTL: 1 000 distinct floods, 100 copies each.
        for i in 0..100_000u32 {
            let now = t(f64::from(i) * 29.0 / 100_000.0);
            s.first_time(NodeId(1), NodeId(2), BroadcastId(i % 1_000), now);
        }
        assert!(s.sweeps <= 1, "{} sweeps inside one TTL", s.sweeps);
        assert_eq!(s.entries.len(), 1_000);
        // The next call past the deadline sweeps: every old entry was last
        // refreshed before t = 29 s, so at t = 60 s all of them are gone.
        assert!(s.first_time(NodeId(7), NodeId(8), BroadcastId(0), t(60.0)));
        assert_eq!(s.sweeps, 2);
        assert_eq!(s.entries.len(), 1);
    }

    /// The pre-PR-13 table: sweep the whole map on every call, then insert.
    struct EagerSeenTable {
        ttl_secs: f64,
        entries: FxHashMap<(NodeId, NodeId, BroadcastId), SimTime>,
    }

    impl EagerSeenTable {
        fn first_time(&mut self, key: (NodeId, NodeId, BroadcastId), now: SimTime) -> bool {
            let ttl = self.ttl_secs;
            self.entries
                .retain(|_, &mut seen| now.saturating_since(seen).as_secs() < ttl);
            self.entries.insert(key, now).is_none()
        }
    }

    proptest! {
        /// The lazy table answers exactly like the sweep-every-call table
        /// for any keys and any non-decreasing times, including steps that
        /// land on, just under and well past the TTL.
        #[test]
        fn lazy_seen_table_matches_the_eager_reference(
            ttl in (0usize..3).prop_map(|i| [1.0f64, 5.0, 30.0][i]),
            calls in proptest::collection::vec(
                // (source, destination, broadcast id, time step as a
                // fraction of the TTL): mostly small steps, some of exactly
                // one TTL, some around and beyond it.
                (0u16..3, 0u16..2, 0u32..4, (0u8..6, 0.0f64..1.0).prop_map(|(kind, x)| {
                    match kind {
                        0..=3 => 0.4 * x,
                        4 => 1.0,
                        _ => 0.9 + 1.6 * x,
                    }
                })),
                1..200,
            ),
        ) {
            let mut lazy = SeenTable::new(ttl);
            let mut eager = EagerSeenTable { ttl_secs: ttl, entries: FxHashMap::default() };
            let mut now = 0.0f64;
            for (src, dst, id, step) in calls {
                now += step * ttl;
                let key = (NodeId(src), NodeId(dst), BroadcastId(id));
                prop_assert_eq!(
                    lazy.first_time(key.0, key.1, key.2, t(now)),
                    eager.first_time(key, t(now)),
                    "key {:?} at t = {}", key, now
                );
                // The lazy table may hold expired entries until its next
                // sweep, never fewer than the eager one.
                prop_assert!(lazy.entries.len() >= eager.entries.len());
            }
        }
    }

    /// What a [`Probe`] saw, with the time in tenths of a second; a give-up
    /// carries the run's `DiscoveryFailed` drop count so far.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Started(u32),
        Flooded(u32),
        GaveUp(u32, u64),
        Released(u32, usize),
    }

    /// An agent that only runs a [`Discovery`]: it floods nothing and has a
    /// route from `route_from` seconds on.
    struct Probe {
        me: NodeId,
        discovery: Discovery,
        route_from: f64,
        log: Rc<RefCell<Vec<Step>>>,
    }

    fn tenths(ctx: &Ctx<'_>) -> u32 {
        (ctx.now().as_secs() * 10.0).round() as u32
    }

    impl RoutingAgent for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn send_data(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket) {
            let dest = packet.dst;
            self.discovery.hold(ctx, self.me, packet);
            if self.discovery.start(ctx, dest) {
                self.log.borrow_mut().push(Step::Started(tenths(ctx)));
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, _: SharedPacket) -> Option<DataPacket> {
            None
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            let route = ctx.now().as_secs() >= self.route_from;
            let step = match self.discovery.on_timer(ctx, self.me, token, |_| route) {
                Retry::Stale => return,
                Retry::Flood(_) => Step::Flooded(tenths(ctx)),
                Retry::GaveUp => Step::GaveUp(
                    tenths(ctx),
                    ctx.recorder().drops(DropReason::DiscoveryFailed),
                ),
                Retry::Resolved(dest) => {
                    let released = self.discovery.release(ctx, self.me, dest);
                    Step::Released(tenths(ctx), released.len())
                }
            };
            self.log.borrow_mut().push(step);
        }
        fn on_link_failure(&mut self, _: &mut Ctx<'_>, _: NodeId, _: NetPacket) {}
        fn route_switches(&self) -> u64 {
            0
        }
    }

    /// Run a probe at node 0 sending one packet every 0.7 s from t = 1 s to
    /// the out-of-range node 1 for `secs` seconds.
    fn probe_log(route_from: f64, secs: f64) -> Vec<Step> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut config = SimConfig::default();
        config.num_nodes = 2;
        config.duration = Duration::from_secs(secs);
        let flow = TestFlow {
            rate_pps: 1.0 / 0.7,
            ..TestFlow::simple(NodeId(0), NodeId(1))
        };
        run_routing(config, StaticPlacement::chain(2, 800.0), &[flow], |me| {
            Probe {
                me,
                discovery: Discovery::default(),
                route_from,
                log: Rc::clone(&log),
            }
        });
        log.take()
    }

    #[test]
    fn discovery_floods_three_times_then_holds_the_destination_down() {
        use Step::*;
        // Floods at 1, 2 and 3 s; giving up at 4 s drops the 5 packets sent
        // so far.  The 7 packets from 4.5 to 8.7 s are buffered but find the
        // destination held down until 9 s, so the next discovery starts at
        // 9.4 s, and giving up again drops them with the 5 sent since.
        assert_eq!(
            probe_log(f64::INFINITY, 13.0),
            [
                Started(10),
                Flooded(20),
                Flooded(30),
                GaveUp(40, 5),
                Started(94),
                Flooded(104),
                Flooded(114),
                GaveUp(124, 5 + 12),
            ]
        );
    }

    #[test]
    fn discovery_ends_when_a_route_appears_and_releases_the_buffer() {
        use Step::*;
        // A route exists from 2.5 s: the retry timer at 3 s finds it and the
        // 3 packets sent so far are released.  The next packet (3.1 s) finds
        // no discovery pending, so it starts one at once.
        assert_eq!(
            probe_log(2.5, 4.5),
            [
                Started(10),
                Flooded(20),
                Released(30, 3),
                Started(31),
                Released(41, 2),
            ]
        );
    }

    #[test]
    fn buffer_drain_splits_fresh_from_expired() {
        let mut b = PacketBuffer::new(10, 2.0);
        assert!(b.push(NodeId(9), pkt(1), t(0.0)).is_none());
        assert!(b.push(NodeId(9), pkt(2), t(3.0)).is_none());
        let (fresh, expired) = b.drain(NodeId(9), t(4.0));
        // Packet 1 is 4 s old (> 2 s max age) and expires; packet 2 survives.
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].id, PacketId(2));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, PacketId(1));
        assert_eq!(b.len_for(NodeId(9)), 0);
    }

    #[test]
    fn buffer_bounds_capacity_returning_the_evicted_oldest() {
        let mut b = PacketBuffer::new(2, 100.0);
        assert!(b.push(NodeId(9), pkt(1), t(0.0)).is_none());
        assert!(b.push(NodeId(9), pkt(2), t(0.1)).is_none());
        let evicted = b.push(NodeId(9), pkt(3), t(0.2));
        assert_eq!(evicted.map(|p| p.id), Some(PacketId(1)));
        assert_eq!(b.len_for(NodeId(9)), 2);
        let (fresh, expired) = b.drain(NodeId(9), t(0.3));
        assert_eq!(fresh.iter().map(|p| p.id.0).collect::<Vec<_>>(), vec![2, 3]);
        assert!(expired.is_empty());
    }

    #[test]
    fn buffer_discard_returns_the_dropped_packets() {
        let mut b = PacketBuffer::default();
        assert!(b.push(NodeId(4), pkt(1), t(0.0)).is_none());
        assert!(b.push(NodeId(4), pkt(2), t(0.0)).is_none());
        assert_eq!(b.len_for(NodeId(4)), 2);
        let dropped = b.discard(NodeId(4));
        assert_eq!(
            dropped.iter().map(|p| p.id.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(b.len_for(NodeId(4)), 0);
    }
}
