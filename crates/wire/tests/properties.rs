//! Property-based tests for the wire formats.

use manet_wire::sizes;
use manet_wire::{
    BroadcastId, ConnectionId, DataPacket, Frame, MacDest, NetPacket, NodeId, PacketId,
    RouteRequest, SeqNo, SourceRoutedData, TcpSegment,
};
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u16..200).prop_map(NodeId)
}

fn arb_segment() -> impl Strategy<Value = TcpSegment> {
    (0u64..1_000_000, 0u64..1_000_000, 0u32..2000)
        .prop_map(|(seq, ack, len)| TcpSegment::data(ConnectionId(0), seq, ack, len))
}

proptest! {
    /// Frame size always includes the MAC header and the payload size.
    #[test]
    fn frame_size_is_mac_header_plus_payload(seg in arb_segment(), src in arb_node(), dst in arb_node()) {
        let pkt = NetPacket::Data(DataPacket::new(PacketId(1), src, dst, seg));
        let frame = Frame::unicast(src, dst, pkt.clone());
        prop_assert_eq!(frame.size_bytes(), sizes::MAC_HEADER_BYTES + pkt.size_bytes());
    }

    /// TCP end_seq is always seq + payload (+1 per SYN/FIN flag).
    #[test]
    fn segment_end_seq_is_monotone(seg in arb_segment()) {
        prop_assert!(seg.end_seq() >= seg.seq);
        prop_assert_eq!(seg.end_seq() - seg.seq, u64::from(seg.payload_len));
        prop_assert!(seg.size_bytes() >= sizes::IP_HEADER_BYTES + sizes::TCP_HEADER_BYTES);
    }

    /// RREQ size grows by exactly ADDRESS_BYTES per intermediate node.
    #[test]
    fn rreq_size_grows_linearly(route in proptest::collection::vec(arb_node(), 0..20)) {
        let mk = |route: Vec<NodeId>| RouteRequest {
            source: NodeId(0),
            destination: NodeId(1),
            broadcast_id: BroadcastId(0),
            hop_count: route.len() as u32,
            route,
            dest_seqno: SeqNo(0),
            source_seqno: SeqNo(0),
        };
        let base = mk(vec![]).size_bytes();
        let full = mk(route.clone()).size_bytes();
        prop_assert_eq!(full - base, sizes::node_list_bytes(route.len()));
    }

    /// Source-route cursor always terminates at the destination after
    /// exactly `route.len() - 1` advances, visiting each listed next hop.
    #[test]
    fn source_route_walk_terminates(route in proptest::collection::vec(arb_node(), 2..12)) {
        let mut sr = SourceRoutedData::new(route.clone());
        let mut hops = Vec::new();
        while let Some(next) = sr.next_hop() {
            hops.push(next);
            sr.advance();
            prop_assert!(hops.len() <= route.len(), "cursor must not overrun the route");
        }
        prop_assert!(sr.at_destination());
        prop_assert_eq!(hops.len(), route.len() - 1);
        prop_assert_eq!(hops.last().copied(), route.last().copied());
    }

    /// NetPacket round-trips losslessly through a clone: equality is
    /// structural and the modelled on-air size is a pure function of the
    /// fields.
    #[test]
    fn net_packet_clone_round_trip(seg in arb_segment(), src in arb_node(), dst in arb_node()) {
        let pkt = NetPacket::Data(DataPacket::new(PacketId(42), src, dst, seg));
        let back = pkt.clone();
        prop_assert_eq!(pkt.size_bytes(), back.size_bytes());
        prop_assert_eq!(pkt, back);
    }

    /// Sequence-number freshness is a strict, antisymmetric relation.
    #[test]
    fn seqno_freshness_is_antisymmetric(a in any::<u32>(), b in any::<u32>()) {
        let (sa, sb) = (SeqNo(a), SeqNo(b));
        if sa == sb {
            prop_assert!(!sa.fresher_than(sb) && !sb.fresher_than(sa));
        } else {
            // At most one direction can claim freshness (exactly one unless
            // the two values are 2^31 apart, where the comparison saturates).
            prop_assert!(!(sa.fresher_than(sb) && sb.fresher_than(sa)));
        }
    }

    /// Broadcast-vs-unicast classification matches the MacDest variant.
    #[test]
    fn broadcast_flag_matches_dest(seg in arb_segment(), src in arb_node(), dst in arb_node()) {
        let pkt = NetPacket::Data(DataPacket::new(PacketId(7), src, dst, seg));
        prop_assert!(Frame::broadcast(src, pkt.clone()).is_broadcast());
        let uni = Frame::unicast(src, dst, pkt);
        prop_assert!(!uni.is_broadcast());
        prop_assert_eq!(uni.mac_dst, MacDest::Unicast(dst));
    }
}
