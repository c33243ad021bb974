//! Shared routing building blocks.

use manet_netsim::FxHashMap;
use manet_netsim::{Ctx, DropReason, Observation, PacketRef};
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

/// Per-destination buffer of data packets awaiting a route.
///
/// On-demand protocols queue packets while a discovery is in flight; the
/// buffer is bounded (drop-oldest) and entries expire so that stale TCP
/// segments are not injected long after the transport has given up on them.
#[derive(Debug)]
pub struct PacketBuffer {
    capacity_per_dest: usize,
    max_age_secs: f64,
    queues: FxHashMap<NodeId, VecDeque<(DataPacket, SimTime)>>,
    dropped: u64,
}

impl PacketBuffer {
    /// Buffer holding at most `capacity_per_dest` packets per destination,
    /// each for at most `max_age_secs` seconds.
    pub fn new(capacity_per_dest: usize, max_age_secs: f64) -> Self {
        PacketBuffer {
            capacity_per_dest,
            max_age_secs,
            queues: FxHashMap::default(),
            dropped: 0,
        }
    }

    /// Queue a packet for `dest`.  When the per-destination queue is full the
    /// oldest packet is evicted and returned so the caller can account the
    /// drop.
    #[must_use = "the evicted packet (if any) must be accounted as a drop"]
    pub fn push(&mut self, dest: NodeId, packet: DataPacket, now: SimTime) -> Option<DataPacket> {
        let q = self.queues.entry(dest).or_default();
        let evicted = if q.len() >= self.capacity_per_dest {
            self.dropped += 1;
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
    pub fn drain(&mut self, dest: NodeId, now: SimTime) -> (Vec<DataPacket>, Vec<DataPacket>) {
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
        self.dropped += expired.len() as u64;
        (fresh, expired)
    }

    /// Discard everything buffered for `dest`, returning the dropped packets.
    #[must_use = "discarded packets must be accounted as drops"]
    pub fn discard(&mut self, dest: NodeId) -> Vec<DataPacket> {
        let packets: Vec<DataPacket> = self
            .queues
            .remove(&dest)
            .map_or_else(Vec::new, |q| q.into_iter().map(|(p, _)| p).collect());
        self.dropped += packets.len() as u64;
        packets
    }

    /// Number of packets currently buffered for `dest`.
    pub fn len_for(&self, dest: NodeId) -> usize {
        self.queues.get(&dest).map_or(0, |q| q.len())
    }

    /// Total packets dropped from the buffer (overflow or discard).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True if a discovery is already worthwhile (anything buffered).
    pub fn has_packets_for(&self, dest: NodeId) -> bool {
        self.len_for(dest) > 0
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
    use manet_wire::{ConnectionId, PacketId, TcpSegment};
    use proptest::prelude::*;

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
        assert_eq!(b.dropped(), 1);
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
        assert_eq!(b.dropped(), 1);
        let (fresh, expired) = b.drain(NodeId(9), t(0.3));
        assert_eq!(fresh.iter().map(|p| p.id.0).collect::<Vec<_>>(), vec![2, 3]);
        assert!(expired.is_empty());
    }

    #[test]
    fn buffer_discard_returns_the_dropped_packets() {
        let mut b = PacketBuffer::default();
        assert!(b.push(NodeId(4), pkt(1), t(0.0)).is_none());
        assert!(b.push(NodeId(4), pkt(2), t(0.0)).is_none());
        assert!(b.has_packets_for(NodeId(4)));
        let dropped = b.discard(NodeId(4));
        assert_eq!(
            dropped.iter().map(|p| p.id.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(b.dropped(), 2);
        assert!(!b.has_packets_for(NodeId(4)));
    }
}
