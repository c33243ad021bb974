//! Routing-protocol control messages.
//!
//! A single set of message structs serves DSR, AODV and MTS: the paper's RREQ
//! carries the union of the fields those protocols need (type, source and
//! destination addresses, broadcast id, hop count, list of intermediate
//! nodes, destination sequence number).  Each protocol simply ignores the
//! fields it does not use.

use crate::ids::{BroadcastId, CheckId, NodeId, SeqNo};
use crate::sizes;

/// Route request, flooded by the source during route discovery (paper §III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRequest {
    /// Originator of the discovery.
    pub source: NodeId,
    /// Target of the discovery.
    pub destination: NodeId,
    /// Flood identifier; `(source, destination, broadcast_id)` uniquely names
    /// one RREQ.
    pub broadcast_id: BroadcastId,
    /// Hops travelled so far.
    pub hop_count: u32,
    /// Intermediate nodes traversed so far, in order from the source
    /// (excludes the source and the destination).
    pub route: Vec<NodeId>,
    /// Last sequence number the source knows for the destination
    /// (AODV-style freshness requirement; 0 if unknown).
    pub dest_seqno: SeqNo,
    /// Source's own sequence number at emission time.
    pub source_seqno: SeqNo,
}

impl RouteRequest {
    /// Size on the wire (IP header + fixed fields + accumulated node list).
    pub fn size_bytes(&self) -> u32 {
        sizes::IP_HEADER_BYTES + sizes::RREQ_FIXED_BYTES + sizes::node_list_bytes(self.route.len())
    }

    /// The copy that relay `me` rebroadcasts: one more hop, with `me`
    /// appended to the route.  The route is allocated once at its final
    /// length, since every flood relay makes exactly one such copy.
    pub fn relayed_by(&self, me: NodeId) -> RouteRequest {
        let mut route = Vec::with_capacity(self.route.len() + 1);
        route.extend_from_slice(&self.route);
        route.push(me);
        RouteRequest {
            hop_count: self.hop_count + 1,
            route,
            ..*self
        }
    }

    /// The full path from the source to the node currently holding this RREQ,
    /// i.e. `source, route...`.
    pub fn path_from_source(&self) -> Vec<NodeId> {
        let mut p = Vec::with_capacity(self.route.len() + 1);
        p.push(self.source);
        p.extend_from_slice(&self.route);
        p
    }
}

/// Route reply, unicast from the destination back to the source along the
/// reverse path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteReply {
    /// Source of the original discovery (the node the RREP travels towards).
    pub source: NodeId,
    /// Destination that generated this reply.
    pub destination: NodeId,
    /// Identifier of the reply (mirrors the broadcast id it answers).
    pub reply_id: BroadcastId,
    /// Hops from the destination travelled so far.
    pub hop_count: u32,
    /// Intermediate nodes of the discovered route, in order from the source
    /// to the destination (excludes both endpoints).
    pub route: Vec<NodeId>,
    /// Destination's current sequence number.
    pub dest_seqno: SeqNo,
}

impl RouteReply {
    /// Size on the wire.
    pub fn size_bytes(&self) -> u32 {
        sizes::IP_HEADER_BYTES + sizes::RREP_FIXED_BYTES + sizes::node_list_bytes(self.route.len())
    }

    /// Full node sequence source..=destination for this route.
    pub fn full_path(&self) -> Vec<NodeId> {
        let mut p = Vec::with_capacity(self.route.len() + 2);
        p.push(self.source);
        p.extend_from_slice(&self.route);
        p.push(self.destination);
        p
    }
}

/// Route error, propagated towards the source when a link on an active route
/// breaks (MAC-layer feedback, paper §III-E).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError {
    /// Node that detected the broken link (upstream endpoint).
    pub reporter: NodeId,
    /// Unreachable next hop.
    pub broken_next_hop: NodeId,
    /// Destinations that became unreachable through that next hop.
    pub unreachable: Vec<NodeId>,
    /// Sequence numbers associated with the unreachable destinations
    /// (AODV semantics; DSR ignores it).
    pub dest_seqnos: Vec<SeqNo>,
}

impl RouteError {
    /// The error `reporter` sends when its routes through `broken_next_hop`
    /// to the destinations of `lost` broke: one `(destination, sequence
    /// number)` pair per unreachable destination, in order.
    pub fn new(reporter: NodeId, broken_next_hop: NodeId, lost: &[(NodeId, SeqNo)]) -> Self {
        RouteError {
            reporter,
            broken_next_hop,
            unreachable: lost.iter().map(|&(dest, _)| dest).collect(),
            dest_seqnos: lost.iter().map(|&(_, seqno)| seqno).collect(),
        }
    }

    /// Size on the wire.
    pub fn size_bytes(&self) -> u32 {
        sizes::IP_HEADER_BYTES
            + sizes::RERR_FIXED_BYTES
            + sizes::node_list_bytes(self.unreachable.len())
            + sizes::node_list_bytes(self.dest_seqnos.len())
    }
}

/// MTS route-checking packet, sent periodically by the destination along each
/// stored disjoint path (paper §III-D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCheck {
    /// Source of the TCP session (the node the checking packet travels to).
    pub source: NodeId,
    /// Destination of the TCP session (the emitter of the checking packet).
    pub destination: NodeId,
    /// Checking round identifier, cached by intermediate nodes as the entry
    /// id (freshness stamp) for the forward path.
    pub check_id: CheckId,
    /// Hops travelled so far.
    pub hop_count: u32,
    /// The full intermediate node list of the path being checked, in order
    /// from the source to the destination (excludes both endpoints).
    pub path: Vec<NodeId>,
    /// Index of this path within the destination's stored disjoint set.
    pub path_index: u8,
}

impl RouteCheck {
    /// Size on the wire.
    pub fn size_bytes(&self) -> u32 {
        sizes::IP_HEADER_BYTES + sizes::CHECK_FIXED_BYTES + sizes::node_list_bytes(self.path.len())
    }

    /// Full node sequence source..=destination for the checked path.
    pub fn full_path(&self) -> Vec<NodeId> {
        let mut p = Vec::with_capacity(self.path.len() + 2);
        p.push(self.source);
        p.extend_from_slice(&self.path);
        p.push(self.destination);
        p
    }
}

/// MTS checking-error packet: reports that a checking packet could not be
/// forwarded, so the destination should delete the failed path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Node that observed the failure.
    pub reporter: NodeId,
    /// Destination (emitter of the checking packets) the report goes back to.
    pub destination: NodeId,
    /// Source of the session whose path failed.
    pub source: NodeId,
    /// Checking round during which the failure was observed.
    pub check_id: CheckId,
    /// Index of the failed path within the destination's stored set.
    pub path_index: u8,
}

impl CheckError {
    /// Size on the wire.
    pub fn size_bytes(&self) -> u32 {
        sizes::IP_HEADER_BYTES + sizes::CHECK_ERROR_FIXED_BYTES
    }
}

/// DSR-style source-routed data envelope: the full route travels with the
/// packet and each hop forwards to the next listed node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceRoutedData {
    /// Complete node sequence, `route[0]` = source, `route.last()` = destination.
    pub route: Vec<NodeId>,
    /// Index (into `route`) of the hop currently holding the packet.
    pub cursor: usize,
}

impl SourceRoutedData {
    /// Create a new envelope positioned at the source.
    pub fn new(route: Vec<NodeId>) -> Self {
        SourceRoutedData { route, cursor: 0 }
    }

    /// The next hop the packet should be forwarded to, if any.
    pub fn next_hop(&self) -> Option<NodeId> {
        self.route.get(self.cursor + 1).copied()
    }

    /// True once the cursor sits on the final entry (the destination).
    pub fn at_destination(&self) -> bool {
        self.cursor + 1 >= self.route.len()
    }

    /// Advance the cursor by one hop.
    pub fn advance(&mut self) {
        self.cursor += 1;
    }

    /// Extra header bytes contributed by the source route.
    pub fn header_bytes(&self) -> u32 {
        sizes::node_list_bytes(self.route.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rreq(route: Vec<NodeId>) -> RouteRequest {
        RouteRequest {
            source: NodeId(0),
            destination: NodeId(9),
            broadcast_id: BroadcastId(3),
            hop_count: route.len() as u32,
            route,
            dest_seqno: SeqNo(0),
            source_seqno: SeqNo(1),
        }
    }

    #[test]
    fn rreq_size_grows_with_route() {
        let empty = rreq(vec![]);
        let longer = rreq(vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(longer.size_bytes() > empty.size_bytes());
        assert_eq!(
            longer.size_bytes() - empty.size_bytes(),
            sizes::node_list_bytes(3)
        );
    }

    #[test]
    fn rreq_path_from_source_prepends_source() {
        let r = rreq(vec![NodeId(4), NodeId(5)]);
        assert_eq!(r.path_from_source(), vec![NodeId(0), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn relayed_copy_appends_the_relay_with_an_exact_allocation() {
        let r = rreq(vec![NodeId(4), NodeId(5)]);
        let fwd = r.relayed_by(NodeId(6));
        assert_eq!(fwd.route, vec![NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(fwd.route.capacity(), fwd.route.len());
        assert_eq!(fwd.hop_count, r.hop_count + 1);
        let expected = RouteRequest {
            hop_count: 3,
            route: fwd.route.clone(),
            ..r.clone()
        };
        assert_eq!(fwd, expected, "every other field is copied unchanged");
        let first = rreq(vec![]).relayed_by(NodeId(1));
        assert_eq!(first.route, vec![NodeId(1)]);
        assert_eq!(first.route.capacity(), 1);
    }

    #[test]
    fn rrep_full_path_includes_endpoints() {
        let rep = RouteReply {
            source: NodeId(0),
            destination: NodeId(9),
            reply_id: BroadcastId(1),
            hop_count: 2,
            route: vec![NodeId(3), NodeId(7)],
            dest_seqno: SeqNo(5),
        };
        assert_eq!(
            rep.full_path(),
            vec![NodeId(0), NodeId(3), NodeId(7), NodeId(9)]
        );
    }

    #[test]
    fn check_full_path_includes_endpoints() {
        let c = RouteCheck {
            source: NodeId(0),
            destination: NodeId(9),
            check_id: CheckId(2),
            hop_count: 0,
            path: vec![NodeId(5)],
            path_index: 1,
        };
        assert_eq!(c.full_path(), vec![NodeId(0), NodeId(5), NodeId(9)]);
    }

    #[test]
    fn source_route_cursor_walks_to_destination() {
        let mut sr = SourceRoutedData::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sr.next_hop(), Some(NodeId(1)));
        assert!(!sr.at_destination());
        sr.advance();
        assert_eq!(sr.next_hop(), Some(NodeId(2)));
        sr.advance();
        assert!(sr.at_destination());
        assert_eq!(sr.next_hop(), None);
    }

    #[test]
    fn rerr_size_counts_both_lists() {
        let e = RouteError::new(
            NodeId(1),
            NodeId(2),
            &[(NodeId(9), SeqNo(1)), (NodeId(8), SeqNo(2))],
        );
        assert_eq!(e.unreachable, [NodeId(9), NodeId(8)]);
        assert_eq!(e.dest_seqnos, [SeqNo(1), SeqNo(2)]);
        assert_eq!(
            e.size_bytes(),
            sizes::IP_HEADER_BYTES + sizes::RERR_FIXED_BYTES + 2 * sizes::node_list_bytes(2)
        );
    }
}
