//! # manet-wire
//!
//! Packet and frame formats shared by every layer of the MTS reproduction
//! stack.  This crate is deliberately free of behaviour: it only defines the
//! data that travels over the (simulated) air so that the MAC, the routing
//! protocols (DSR, AODV, MTS) and TCP Reno can interoperate without circular
//! crate dependencies.
//!
//! The formats follow the fields the paper lists for each packet type
//! (Section III of Li & Kwok, ICPPW 2005) plus the fields the baseline
//! protocols (DSR, AODV) need.  Sizes in bytes are modelled explicitly because
//! the MAC charges airtime per byte and the paper's control-overhead metric
//! (Fig. 11) counts routing packets.

pub mod ids;
pub mod net;
pub mod routing_msgs;
pub mod sizes;
pub mod tcp;

pub use ids::{BroadcastId, CheckId, ConnectionId, NodeId, PacketId, SeqNo};
pub use net::{DataPacket, MacDest, NetPacket};
pub use routing_msgs::{
    CheckError, RouteCheck, RouteError, RouteReply, RouteRequest, SourceRoutedData,
};
pub use tcp::{TcpFlags, TcpSegment};

use std::sync::Arc;

/// A reference-counted network packet.
///
/// Frames carry their payload behind an `Arc` so a link-layer broadcast to
/// `k` receivers shares **one** allocation instead of deep-cloning the packet
/// per receiver.  Receivers that only inspect the packet borrow it through
/// the `Arc`; receivers that need ownership (to mutate and forward) take it
/// with `Arc::try_unwrap` (the simulator exposes this as
/// `Ctx::claim_packet`), which is free when the reference is unique — every
/// unicast delivery — and copies only when the packet is genuinely still
/// shared.
pub type SharedPacket = Arc<NetPacket>;

/// A link-layer frame: one MAC transmission.
///
/// `mac_src` / `mac_dst` describe the current hop; the network-layer
/// addresses live inside [`NetPacket`].
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Transmitting node of this hop.
    pub mac_src: NodeId,
    /// Link-layer destination of this hop (unicast or broadcast).
    pub mac_dst: MacDest,
    /// Network-layer payload, shared across receivers of one transmission.
    pub payload: SharedPacket,
}

impl Frame {
    /// Build a unicast frame for the given next hop.
    ///
    /// Accepts an owned [`NetPacket`] (freshly built packets) or an already
    /// shared [`SharedPacket`] (forwarding a received packet re-uses its
    /// allocation).
    pub fn unicast(mac_src: NodeId, next_hop: NodeId, payload: impl Into<SharedPacket>) -> Self {
        Frame {
            mac_src,
            mac_dst: MacDest::Unicast(next_hop),
            payload: payload.into(),
        }
    }

    /// Build a link-layer broadcast frame.
    pub fn broadcast(mac_src: NodeId, payload: impl Into<SharedPacket>) -> Self {
        Frame {
            mac_src,
            mac_dst: MacDest::Broadcast,
            payload: payload.into(),
        }
    }

    /// Total size of the frame on the air, in bytes (MAC header + payload).
    pub fn size_bytes(&self) -> u32 {
        sizes::MAC_HEADER_BYTES + self.payload.size_bytes()
    }

    /// True if this frame is a link-layer broadcast.
    pub fn is_broadcast(&self) -> bool {
        matches!(self.mac_dst, MacDest::Broadcast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_constructors_set_mac_fields() {
        let pkt = NetPacket::Data(DataPacket::new(
            PacketId(7),
            NodeId(1),
            NodeId(2),
            TcpSegment::data(ConnectionId(0), 0, 0, 512),
        ));
        let u = Frame::unicast(NodeId(3), NodeId(4), pkt.clone());
        assert_eq!(u.mac_src, NodeId(3));
        assert_eq!(u.mac_dst, MacDest::Unicast(NodeId(4)));
        assert!(!u.is_broadcast());

        let b = Frame::broadcast(NodeId(3), pkt);
        assert!(b.is_broadcast());
    }

    #[test]
    fn frame_size_includes_mac_header() {
        let pkt = NetPacket::Data(DataPacket::new(
            PacketId(1),
            NodeId(0),
            NodeId(1),
            TcpSegment::data(ConnectionId(0), 0, 0, 1000),
        ));
        let f = Frame::unicast(NodeId(0), NodeId(1), pkt.clone());
        assert_eq!(f.size_bytes(), sizes::MAC_HEADER_BYTES + pkt.size_bytes());
    }
}
