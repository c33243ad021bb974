//! On-air byte sizes of headers and packets.
//!
//! The MAC charges airtime per byte, so every packet type reports a concrete
//! size.  The constants follow the conventional sizes used by ns-2 era MANET
//! studies: an 802.11 data header plus an IP header for every network-layer
//! packet, 20-byte TCP headers, and routing headers whose size grows with the
//! number of node addresses they carry (4 bytes per address).

/// Bytes of MAC/PHY header accounted per frame (802.11 data header + FCS).
pub const MAC_HEADER_BYTES: u32 = 34;

/// Bytes of IP header carried by every network-layer packet.
pub const IP_HEADER_BYTES: u32 = 20;

/// Bytes of TCP header (no options).
pub const TCP_HEADER_BYTES: u32 = 20;

/// Fixed part of a route request (type, addresses, broadcast id, hop count,
/// destination sequence number).
pub const RREQ_FIXED_BYTES: u32 = 24;

/// Fixed part of a route reply.
pub const RREP_FIXED_BYTES: u32 = 20;

/// Fixed part of a route error.
pub const RERR_FIXED_BYTES: u32 = 12;

/// Fixed part of an MTS route-checking packet (type, check id, hop count).
pub const CHECK_FIXED_BYTES: u32 = 16;

/// Fixed part of an MTS checking-error packet.
pub const CHECK_ERROR_FIXED_BYTES: u32 = 12;

/// Bytes per node address carried in a node list (source routes, intermediate
/// node lists, route-error destination lists).
pub const ADDRESS_BYTES: u32 = 4;

/// Default TCP maximum segment size (payload bytes per data segment).
pub const DEFAULT_MSS: u32 = 1000;

/// Size in bytes of a node-address list with `n` entries.
#[inline]
pub fn node_list_bytes(n: usize) -> u32 {
    ADDRESS_BYTES * n as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_list_scales_linearly() {
        assert_eq!(node_list_bytes(0), 0);
        assert_eq!(node_list_bytes(1), ADDRESS_BYTES);
        assert_eq!(node_list_bytes(10), 10 * ADDRESS_BYTES);
    }

    #[test]
    fn header_constants_are_sane() {
        const {
            assert!(MAC_HEADER_BYTES > 0);
            assert!(IP_HEADER_BYTES >= 20);
            assert!(TCP_HEADER_BYTES >= 20);
            assert!(DEFAULT_MSS >= 512);
        }
    }
}
