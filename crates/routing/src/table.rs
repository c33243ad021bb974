//! Hop-by-hop routing table with destination sequence numbers (AODV / MTS).

use manet_netsim::FxHashMap;
use manet_netsim::SimTime;
use manet_wire::{NodeId, SeqNo};

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
    /// Upstream neighbours that route through this node towards the
    /// destination (receive RERRs when the route breaks).
    pub precursors: Vec<NodeId>,
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
        match self.entries.get_mut(&dest) {
            None => {
                self.entries.insert(
                    dest,
                    RouteEntry {
                        next_hop,
                        hop_count,
                        dest_seqno,
                        expires,
                        valid: true,
                        precursors: Vec::new(),
                    },
                );
                true
            }
            Some(e) => {
                let stale = !e.valid || e.expires <= now;
                let fresher = dest_seqno.fresher_than(e.dest_seqno);
                let same_but_shorter = dest_seqno == e.dest_seqno && hop_count < e.hop_count;
                if stale || fresher || same_but_shorter {
                    e.next_hop = next_hop;
                    e.hop_count = hop_count;
                    e.dest_seqno = if dest_seqno.fresher_than(e.dest_seqno) {
                        dest_seqno
                    } else {
                        e.dest_seqno
                    };
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
        }
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

    /// Add an upstream precursor for `dest`.
    pub fn add_precursor(&mut self, dest: NodeId, precursor: NodeId) {
        if let Some(e) = self.entries.get_mut(&dest) {
            if !e.precursors.contains(&precursor) {
                e.precursors.push(precursor);
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

    /// Invalidate the route to `dest` if it goes through `next_hop` (RERR
    /// processing).  Returns true if an entry was invalidated.
    pub fn invalidate_dest_via(&mut self, dest: NodeId, next_hop: NodeId, seqno: SeqNo) -> bool {
        if let Some(e) = self.entries.get_mut(&dest) {
            if e.valid && e.next_hop == next_hop {
                e.valid = false;
                if seqno.fresher_than(e.dest_seqno) {
                    e.dest_seqno = seqno;
                }
                return true;
            }
        }
        false
    }

    /// All destinations with any entry.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn precursors_are_deduplicated() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        rt.add_precursor(D, NodeId(5));
        rt.add_precursor(D, NodeId(5));
        rt.add_precursor(D, NodeId(6));
        assert_eq!(rt.entry(D).unwrap().precursors, vec![NodeId(5), NodeId(6)]);
    }

    #[test]
    fn rerr_invalidation_requires_matching_next_hop() {
        let mut rt = RoutingTable::new();
        rt.update(D, NodeId(1), 3, SeqNo(1), t(0.0));
        assert!(!rt.invalidate_dest_via(D, NodeId(2), SeqNo(9)));
        assert!(rt.invalidate_dest_via(D, NodeId(1), SeqNo(9)));
        assert!(rt.lookup(D, t(1.0)).is_none());
        assert_eq!(rt.entry(D).unwrap().dest_seqno, SeqNo(9));
    }
}
