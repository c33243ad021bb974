//! Network-layer packet container and MAC addressing.

use crate::ids::{NodeId, PacketId};
use crate::routing_msgs::{
    CheckError, RouteCheck, RouteError, RouteReply, RouteRequest, SourceRoutedData,
};
use crate::tcp::TcpSegment;
use manet_telemetry::FrameKind;

/// Link-layer destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacDest {
    /// Every node within radio range receives the frame (no MAC ACK).
    Broadcast,
    /// Only the named node accepts the frame (MAC ACK + retries apply).
    Unicast(NodeId),
}

/// A network-layer data packet carrying one TCP segment end-to-end.
///
/// `id` is globally unique and survives hop-by-hop forwarding, which lets the
/// security metrics count *unique* packets intercepted by an eavesdropper and
/// the delay metric match send and arrival times.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// Globally unique packet identifier.
    pub id: PacketId,
    /// Originating node (TCP endpoint).
    pub src: NodeId,
    /// Final destination node (TCP endpoint).
    pub dst: NodeId,
    /// The TCP segment carried by this packet.
    pub segment: TcpSegment,
    /// Hops traversed so far (incremented by each forwarder).
    pub hop_count: u32,
    /// DSR-style source route, when the routing protocol uses one.
    pub source_route: Option<SourceRoutedData>,
}

impl DataPacket {
    /// New hop-by-hop routed data packet (AODV / MTS style).
    pub fn new(id: PacketId, src: NodeId, dst: NodeId, segment: TcpSegment) -> Self {
        DataPacket {
            id,
            src,
            dst,
            segment,
            hop_count: 0,
            source_route: None,
        }
    }

    /// New source-routed data packet (DSR style).
    pub fn with_source_route(
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        segment: TcpSegment,
        route: Vec<NodeId>,
    ) -> Self {
        DataPacket {
            id,
            src,
            dst,
            segment,
            hop_count: 0,
            source_route: Some(SourceRoutedData::new(route)),
        }
    }

    /// Size on the wire: the TCP segment plus any source-route header.
    pub fn size_bytes(&self) -> u32 {
        self.segment.size_bytes() + self.source_route.as_ref().map_or(0, |sr| sr.header_bytes())
    }

    /// True if the packet carries TCP payload (as opposed to a pure ACK or
    /// connection-control segment).
    pub fn carries_data(&self) -> bool {
        self.segment.carries_data()
    }
}

/// Every kind of packet the network layer can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum NetPacket {
    /// Route request (flooded).
    Rreq(RouteRequest),
    /// Route reply (unicast along the reverse path).
    Rrep(RouteReply),
    /// Route error (unicast towards the source).
    Rerr(RouteError),
    /// MTS route-checking packet (unicast along a stored disjoint path).
    Check(RouteCheck),
    /// MTS checking-error packet (unicast back to the destination).
    CheckErr(CheckError),
    /// TCP data / ACK packet.
    Data(DataPacket),
}

impl NetPacket {
    /// Size of the packet at the network layer, in bytes.
    pub fn size_bytes(&self) -> u32 {
        match self {
            NetPacket::Rreq(p) => p.size_bytes(),
            NetPacket::Rrep(p) => p.size_bytes(),
            NetPacket::Rerr(p) => p.size_bytes(),
            NetPacket::Check(p) => p.size_bytes(),
            NetPacket::CheckErr(p) => p.size_bytes(),
            NetPacket::Data(p) => p.size_bytes(),
        }
    }

    /// True for routing-protocol control packets (everything except data).
    /// This is the class counted by the paper's control-overhead metric
    /// (Fig. 11).
    pub fn is_control(&self) -> bool {
        !matches!(self, NetPacket::Data(_))
    }

    /// The packet's kind, as the telemetry stream records it.
    pub fn frame_kind(&self) -> FrameKind {
        match self {
            NetPacket::Rreq(_) => FrameKind::Rreq,
            NetPacket::Rrep(_) => FrameKind::Rrep,
            NetPacket::Rerr(_) => FrameKind::Rerr,
            NetPacket::Check(_) => FrameKind::Check,
            NetPacket::CheckErr(_) => FrameKind::CheckErr,
            NetPacket::Data(_) => FrameKind::Data,
        }
    }

    /// Borrow the inner data packet, if this is a data packet.
    pub fn as_data(&self) -> Option<&DataPacket> {
        match self {
            NetPacket::Data(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BroadcastId, ConnectionId, SeqNo};
    use crate::sizes;

    fn data_pkt() -> DataPacket {
        DataPacket::new(
            PacketId(1),
            NodeId(0),
            NodeId(5),
            TcpSegment::data(ConnectionId(0), 0, 0, sizes::DEFAULT_MSS),
        )
    }

    #[test]
    fn control_classification_matches_paper_metric() {
        let rreq = NetPacket::Rreq(RouteRequest {
            source: NodeId(0),
            destination: NodeId(1),
            broadcast_id: BroadcastId(0),
            hop_count: 0,
            route: vec![],
            dest_seqno: SeqNo(0),
            source_seqno: SeqNo(0),
        });
        assert!(rreq.is_control());
        assert!(!NetPacket::Data(data_pkt()).is_control());
    }

    #[test]
    fn data_packet_with_source_route_is_larger() {
        let plain = data_pkt();
        let routed = DataPacket::with_source_route(
            PacketId(2),
            NodeId(0),
            NodeId(5),
            TcpSegment::data(ConnectionId(0), 0, 0, sizes::DEFAULT_MSS),
            vec![NodeId(0), NodeId(2), NodeId(5)],
        );
        assert!(routed.size_bytes() > plain.size_bytes());
    }

    #[test]
    fn kind_labels_are_distinct() {
        let d = NetPacket::Data(data_pkt());
        assert_eq!(d.frame_kind(), FrameKind::Data);
        assert_eq!(d.frame_kind().label(), "DATA");
        assert!(d.as_data().is_some());
    }

    #[test]
    fn clone_round_trip() {
        // A clone is a distinct value that compares equal field-for-field and
        // reports the same on-air size.
        let p = NetPacket::Data(data_pkt());
        let back = p.clone();
        assert_eq!(p, back);
        assert_eq!(p.size_bytes(), back.size_bytes());
        assert_eq!(p.frame_kind(), back.frame_kind());
    }
}
