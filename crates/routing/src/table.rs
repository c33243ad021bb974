//! Hop-by-hop routing table with destination sequence numbers (AODV / MTS).

use manet_netsim::FxHashMap;
use manet_netsim::SimTime;
use manet_wire::{NodeId, RouteError, SeqNo};
use std::collections::hash_map::Entry;

/// Seconds an installed or refreshed route stays usable (AODV's
/// `ACTIVE_ROUTE_TIMEOUT`).
const ROUTE_LIFETIME_SECS: f64 = 10.0;

/// One route entry: how to reach a destination.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteEntry {
    /// The neighbour to forward packets through.
    pub next_hop: NodeId,
    /// Hops to the destination (including the next hop).
    pub hop_count: u32,
    /// Last known destination sequence number (freshness).
    pub dest_seqno: SeqNo,
    /// The entry is unusable after this time unless refreshed.
    pub expires: SimTime,
    /// Invalidated entries keep their sequence number so later updates can be
    /// compared, but are not used for forwarding.
    pub valid: bool,
}

/// The routing table of one node.
#[derive(Debug, Default)]
pub struct RoutingTable {
    entries: FxHashMap<NodeId, RouteEntry>,
}

impl RoutingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Usable (valid and unexpired) route to `dest`, if any.
    pub fn lookup(&self, dest: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.entries
            .get(&dest)
            .filter(|e| e.valid && e.expires > now)
    }

    /// Any stored entry for `dest`, usable or not.
    pub fn entry(&self, dest: NodeId) -> Option<&RouteEntry> {
        self.entries.get(&dest)
    }

    /// Install or refresh the route to `dest` following AODV's update rule:
    /// accept if the new information is fresher (higher sequence number), or
    /// equally fresh but with a shorter hop count, or the existing entry is
    /// invalid/expired/missing.  Returns true if the table changed.
    pub fn update(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        hop_count: u32,
        dest_seqno: SeqNo,
        now: SimTime,
    ) -> bool {
        let expires = now + manet_netsim::Duration::from_secs(ROUTE_LIFETIME_SECS);
        let e = match self.entries.entry(dest) {
            Entry::Vacant(slot) => {
                slot.insert(RouteEntry {
                    next_hop,
                    hop_count,
                    dest_seqno,
                    expires,
                    valid: true,
                });
                return true;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        let stale = !e.valid || e.expires <= now;
        let fresher = dest_seqno.fresher_than(e.dest_seqno);
        let same_but_shorter = dest_seqno == e.dest_seqno && hop_count < e.hop_count;
        if stale || fresher || same_but_shorter {
            e.next_hop = next_hop;
            e.hop_count = hop_count;
            if fresher {
                e.dest_seqno = dest_seqno;
            }
            e.expires = expires;
            e.valid = true;
            true
        } else {
            // Keep the existing better route but extend its lifetime a
            // little, as AODV does for active routes.
            if e.valid && e.next_hop == next_hop {
                e.expires = e.expires.max(expires);
            }
            false
        }
    }

    /// The next hop of the usable route to `dest`, if any, whose lifetime
    /// is extended as [`RoutingTable::refresh`] does: the route carries the
    /// packet being forwarded.  One map probe.
    pub fn forward(&mut self, dest: NodeId, now: SimTime) -> Option<NodeId> {
        let e = self
            .entries
            .get_mut(&dest)
            .filter(|e| e.valid && e.expires > now)?;
        let new_exp = now + manet_netsim::Duration::from_secs(ROUTE_LIFETIME_SECS);
        e.expires = e.expires.max(new_exp);
        Some(e.next_hop)
    }

    /// Extend the lifetime of an active route (called when it carries data).
    pub fn refresh(&mut self, dest: NodeId, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&dest) {
            if e.valid {
                let new_exp = now + manet_netsim::Duration::from_secs(ROUTE_LIFETIME_SECS);
                e.expires = e.expires.max(new_exp);
            }
        }
    }

    /// Invalidate every route whose next hop is `next_hop`.  Returns the
    /// affected destinations with their (incremented) sequence numbers, ready
    /// to be advertised in a RERR.
    pub fn invalidate_via(&mut self, next_hop: NodeId) -> Vec<(NodeId, SeqNo)> {
        let mut broken = Vec::new();
        for (dest, e) in self.entries.iter_mut() {
            if e.valid && e.next_hop == next_hop {
                e.valid = false;
                e.dest_seqno.bump();
                broken.push((*dest, e.dest_seqno));
            }
        }
        broken
    }

    /// The route-error rule of AODV and MTS (RFC 3561 §6.11): invalidate
    /// each destination `rerr` lists whose valid route goes through `from`,
    /// taking the listed sequence number where it is fresher.  Returns those
    /// destinations with their listed sequence numbers, in list order: the
    /// contents of the RERR to pass on.  Allocates nothing when nothing was
    /// lost, which is where most copies of a broadcast RERR land.
    pub fn invalidate_listed(&mut self, from: NodeId, rerr: &RouteError) -> Vec<(NodeId, SeqNo)> {
        let mut lost = Vec::new();
        for (&dest, &seqno) in rerr.unreachable.iter().zip(&rerr.dest_seqnos) {
            let listed = self.entries.get_mut(&dest);
            if let Some(e) = listed.filter(|e| e.valid && e.next_hop == from) {
                e.valid = false;
                if seqno.fresher_than(e.dest_seqno) {
                    e.dest_seqno = seqno;
                }
                lost.push((dest, seqno));
            }
        }
        lost
    }

    /// All destinations with any entry.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    const D: NodeId = NodeId(9);

    #[test]
    fn lookup_only_returns_valid_unexpired_routes() {
        let mut rt = RoutingTable::new();
        assert!(rt.lookup(D, t(0.0)).is_none());
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        assert_eq!(rt.lookup(D, t(5.0)).unwrap().next_hop, NodeId(1));
        assert!(
            rt.lookup(D, t(11.0)).is_none(),
            "expired route must not be used"
        );
    }

    #[test]
    fn fresher_seqno_replaces_route() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        assert!(rt.update(D, NodeId(2), 5, SeqNo(2), t(1.0)));
        assert_eq!(rt.lookup(D, t(2.0)).unwrap().next_hop, NodeId(2));
    }

    #[test]
    fn same_seqno_prefers_shorter_route() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 4, SeqNo(1), t(0.0));
        assert!(
            !rt.update(D, NodeId(2), 6, SeqNo(1), t(0.1)),
            "longer route rejected"
        );
        assert!(
            rt.update(D, NodeId(3), 2, SeqNo(1), t(0.2)),
            "shorter route accepted"
        );
        assert_eq!(rt.lookup(D, t(1.0)).unwrap().next_hop, NodeId(3));
    }

    #[test]
    fn stale_seqno_rejected_even_if_shorter() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 4, SeqNo(5), t(0.0));
        assert!(!rt.update(D, NodeId(2), 1, SeqNo(4), t(0.1)));
        assert_eq!(rt.lookup(D, t(1.0)).unwrap().next_hop, NodeId(1));
    }

    #[test]
    fn invalidate_via_breaks_matching_routes_and_bumps_seqno() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        rt.update(NodeId(8), NodeId(1), 2, SeqNo(7), t(0.0));
        rt.update(NodeId(7), NodeId(2), 2, SeqNo(3), t(0.0));
        let broken = rt.invalidate_via(NodeId(1));
        assert_eq!(broken.len(), 2);
        assert!(rt.lookup(D, t(1.0)).is_none());
        assert!(rt.lookup(NodeId(7), t(1.0)).is_some());
        // Sequence numbers were bumped so the breakage propagates as fresher info.
        assert!(broken.iter().all(|(_, s)| s.0 >= 2));
    }

    #[test]
    fn invalidated_route_can_be_reinstalled() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        rt.invalidate_via(NodeId(1));
        assert!(rt.update(D, NodeId(4), 6, SeqNo(1), t(1.0)));
        assert_eq!(rt.lookup(D, t(2.0)).unwrap().next_hop, NodeId(4));
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        rt.refresh(D, t(4.0));
        assert!(rt.lookup(D, t(12.0)).is_some());
    }

    #[test]
    fn rerr_invalidation_requires_matching_next_hop() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        rt.update(NodeId(8), NodeId(2), 3, SeqNo(4), t(0.0));
        let listed = [(NodeId(7), SeqNo(2)), (D, SeqNo(9)), (NodeId(8), SeqNo(5))];
        let rerr = RouteError::new(NodeId(1), NodeId(3), &listed);
        assert!(rt.invalidate_listed(NodeId(3), &rerr).is_empty());
        // Only the listed route through the sender is lost, and it is
        // returned with the listed sequence number, which it adopts.
        assert_eq!(rt.invalidate_listed(NodeId(1), &rerr), [(D, SeqNo(9))]);
        assert!(rt.lookup(D, t(1.0)).is_none());
        assert_eq!(rt.entry(D).unwrap().dest_seqno, SeqNo(9));
        assert!(rt.lookup(NodeId(8), t(1.0)).is_some());
        assert!(
            rt.invalidate_listed(NodeId(1), &rerr).is_empty(),
            "lost once"
        );
    }

    /// The table's rules written out once more, over an ordered map: the
    /// reference [`RoutingTable`] must agree with call for call.
    #[derive(Default)]
    struct ModelTable {
        entries: BTreeMap<NodeId, RouteEntry>,
    }

    impl ModelTable {
        fn lifetime_end(now: SimTime) -> SimTime {
            now + manet_netsim::Duration::from_secs(ROUTE_LIFETIME_SECS)
        }

        fn lookup(&self, dest: NodeId, now: SimTime) -> Option<&RouteEntry> {
            let e = self.entries.get(&dest)?;
            (e.valid && e.expires > now).then_some(e)
        }

        fn update(
            &mut self,
            dest: NodeId,
            next_hop: NodeId,
            hop_count: u32,
            dest_seqno: SeqNo,
            now: SimTime,
        ) -> bool {
            let fresh = RouteEntry {
                next_hop,
                hop_count,
                dest_seqno,
                expires: Self::lifetime_end(now),
                valid: true,
            };
            let Some(old) = self.entries.get(&dest).cloned() else {
                self.entries.insert(dest, fresh);
                return true;
            };
            let usable = old.valid && old.expires > now;
            let better = dest_seqno.fresher_than(old.dest_seqno)
                || (dest_seqno == old.dest_seqno && hop_count < old.hop_count);
            if !usable || better {
                let seqno = if dest_seqno.fresher_than(old.dest_seqno) {
                    dest_seqno
                } else {
                    old.dest_seqno
                };
                self.entries.insert(
                    dest,
                    RouteEntry {
                        dest_seqno: seqno,
                        ..fresh
                    },
                );
                return true;
            }
            if old.valid && old.next_hop == next_hop {
                let e = self.entries.get_mut(&dest).unwrap();
                e.expires = old.expires.max(fresh.expires);
            }
            false
        }

        fn refresh(&mut self, dest: NodeId, now: SimTime) {
            if let Some(e) = self.entries.get_mut(&dest).filter(|e| e.valid) {
                e.expires = e.expires.max(Self::lifetime_end(now));
            }
        }

        fn forward(&mut self, dest: NodeId, now: SimTime) -> Option<NodeId> {
            let next = self.lookup(dest, now)?.next_hop;
            self.refresh(dest, now);
            Some(next)
        }

        fn invalidate_via(&mut self, next_hop: NodeId) -> Vec<(NodeId, SeqNo)> {
            let mut broken = Vec::new();
            for (&dest, e) in &mut self.entries {
                if e.valid && e.next_hop == next_hop {
                    e.valid = false;
                    e.dest_seqno = SeqNo(e.dest_seqno.0.wrapping_add(1));
                    broken.push((dest, e.dest_seqno));
                }
            }
            broken
        }

        /// Each listed destination held valid via `from` is lost, in turn,
        /// so a destination listed twice is lost at most once.  Sorted.
        fn invalidate_listed(
            &mut self,
            from: NodeId,
            listed: &[(NodeId, SeqNo)],
        ) -> Vec<(NodeId, SeqNo)> {
            let mut lost = Vec::new();
            for &(dest, seqno) in listed {
                let Some(e) = self.entries.get_mut(&dest) else {
                    continue;
                };
                if e.valid && e.next_hop == from {
                    e.valid = false;
                    if seqno.fresher_than(e.dest_seqno) {
                        e.dest_seqno = seqno;
                    }
                    lost.push((dest, seqno));
                }
            }
            lost.sort_unstable();
            lost
        }
    }

    proptest! {
        /// Random updates, refreshes, invalidations (by next hop and by a
        /// RERR's list), lookups and forwards at non-decreasing times, some
        /// steps landing exactly on a route's expiry: every return value and,
        /// after every call, every stored entry equal the model's.
        #[test]
        fn routing_table_matches_the_ordered_model(
            calls in proptest::collection::vec(
                // ((operation, RERR list), destination, (next hop, hop
                // count), (sequence number, time step in seconds)).
                (
                    (0u8..6, proptest::collection::vec((0u16..5, 0u32..4), 0..4)),
                    0u16..5,
                    (0u16..3, 1u32..6),
                    (0u32..4, (0u8..8, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
                        0..=4 => 2.0 * x,
                        5 => 0.0,
                        6 => ROUTE_LIFETIME_SECS,
                        _ => ROUTE_LIFETIME_SECS * (1.0 + x),
                    })),
                ),
                1..120,
            ),
        ) {
            let mut table = RoutingTable::new();
            let mut model = ModelTable::default();
            let mut now = 0.0f64;
            for ((op, listed), dest, (via, hops), (seq, step)) in calls {
                now += step;
                let (at, dest, via, seq) = (t(now), NodeId(dest), NodeId(via), SeqNo(seq));
                match op {
                    0 => prop_assert_eq!(
                        table.update(dest, via, hops, seq, at),
                        model.update(dest, via, hops, seq, at),
                        "update({:?}, {:?}, {}, {:?}) at {}", dest, via, hops, seq, now
                    ),
                    1 => {
                        table.refresh(dest, at);
                        model.refresh(dest, at);
                    }
                    2 => {
                        let mut broken = table.invalidate_via(via);
                        broken.sort_unstable();
                        prop_assert_eq!(broken, model.invalidate_via(via), "invalidate_via({:?})", via);
                    }
                    3 => {
                        let listed: Vec<(NodeId, SeqNo)> =
                            listed.into_iter().map(|(d, s)| (NodeId(d), SeqNo(s))).collect();
                        let rerr = RouteError::new(NodeId(7), via, &listed);
                        let mut lost = table.invalidate_listed(via, &rerr);
                        lost.sort_unstable();
                        prop_assert_eq!(
                            lost,
                            model.invalidate_listed(via, &listed),
                            "invalidate_listed({:?}, {:?})", via, listed
                        );
                    }
                    4 => prop_assert_eq!(
                        table.forward(dest, at),
                        model.forward(dest, at),
                        "forward({:?}) at {}", dest, now
                    ),
                    _ => prop_assert_eq!(
                        table.lookup(dest, at),
                        model.lookup(dest, at),
                        "lookup({:?}) at {}", dest, now
                    ),
                }
                let mut stored: Vec<NodeId> = table.destinations().collect();
                stored.sort_unstable();
                prop_assert!(stored.iter().eq(model.entries.keys()), "destinations differ");
                for (dest, expected) in &model.entries {
                    prop_assert_eq!(table.entry(*dest), Some(expected), "entry {:?}", dest);
                }
            }
        }
    }
}
