//! Strongly-typed identifiers used throughout the stack.
//!
//! Every identifier is a thin newtype over a small integer so that it is
//! `Copy`, hashes cheaply and cannot be confused with another kind of id at
//! compile time (e.g. a node index versus a broadcast id).

use std::fmt;

/// Identifier of a node in the simulated network.
///
/// Nodes are indexed densely from `0..n`, which lets the simulator store
/// per-node state in plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into per-node vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Broadcast id of a route request.  Together with the source and destination
/// addresses it uniquely identifies one route-discovery flood (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BroadcastId(pub u32);

impl BroadcastId {
    /// The next broadcast id (ids increase by one per RREQ the source emits).
    #[inline]
    pub fn next(self) -> Self {
        BroadcastId(self.0.wrapping_add(1))
    }
}

/// Checking-packet id used by MTS route checking (paper §III-D).  Incremented
/// each time the destination emits a round of checking packets; cached by the
/// intermediate nodes as a freshness stamp ("entry ID").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CheckId(pub u32);

impl CheckId {
    /// The next checking round id.
    #[inline]
    pub fn next(self) -> Self {
        CheckId(self.0.wrapping_add(1))
    }
}

/// Destination sequence number (AODV-style).  Monotonically increasing; a
/// higher value means fresher routing information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u32);

impl SeqNo {
    /// Increment the sequence number (wrapping, as in the AODV draft).
    #[inline]
    pub fn bump(&mut self) {
        self.0 = self.0.wrapping_add(1);
    }

    /// True if `self` is strictly fresher than `other`.
    #[inline]
    pub fn fresher_than(self, other: SeqNo) -> bool {
        // Wrapping comparison as specified for AODV sequence numbers.
        (self.0.wrapping_sub(other.0) as i32) > 0
    }
}

/// Globally unique identifier of a network-layer data packet.  Used by the
/// security metrics to count *unique* intercepted packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Identifier of one TCP connection (source/destination application pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        for raw in [0u16, 1, 49, 1000] {
            assert_eq!(NodeId(raw).index(), raw as usize);
        }
    }

    #[test]
    fn broadcast_id_next_increments() {
        assert_eq!(BroadcastId(0).next(), BroadcastId(1));
        assert_eq!(BroadcastId(u32::MAX).next(), BroadcastId(0));
    }

    #[test]
    fn seqno_freshness_is_strict_and_wrapping() {
        assert!(SeqNo(2).fresher_than(SeqNo(1)));
        assert!(!SeqNo(1).fresher_than(SeqNo(1)));
        assert!(!SeqNo(1).fresher_than(SeqNo(2)));
        // Wrap-around: 0 is fresher than u32::MAX - 1.
        assert!(SeqNo(0).fresher_than(SeqNo(u32::MAX - 1)));
    }

    #[test]
    fn seqno_bump_increments() {
        let mut s = SeqNo(41);
        s.bump();
        assert_eq!(s, SeqNo(42));
    }

    #[test]
    fn display_format_for_node() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
