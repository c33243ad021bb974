//! TCP segment format.
//!
//! Only the fields that TCP Reno's control loop needs are modelled: sequence
//! and acknowledgement numbers in *bytes*, the SYN/FIN/ACK flags and the
//! payload length.  Checksums and ports are unnecessary because the simulator
//! delivers packets to the correct connection by [`ConnectionId`].

use crate::ids::ConnectionId;
use crate::sizes;

/// TCP header flags (only the ones Reno uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Connection-establishment flag.
    pub syn: bool,
    /// Connection-teardown flag.
    pub fin: bool,
    /// The acknowledgement number is valid.
    pub ack: bool,
}

/// One TCP segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment {
    /// The connection this segment belongs to.
    pub conn: ConnectionId,
    /// First payload byte carried by this segment (bytes).
    pub seq: u64,
    /// Cumulative acknowledgement: next byte expected by the sender of this
    /// segment (valid when `flags.ack`).
    pub ack: u64,
    /// Header flags.
    pub flags: TcpFlags,
    /// Payload length in bytes (0 for pure ACKs).
    pub payload_len: u32,
}

impl TcpSegment {
    /// A data segment carrying `payload_len` bytes starting at `seq`, with a
    /// piggybacked cumulative acknowledgement `ack`.
    pub fn data(conn: ConnectionId, seq: u64, ack: u64, payload_len: u32) -> Self {
        TcpSegment {
            conn,
            seq,
            ack,
            flags: TcpFlags {
                ack: true,
                ..Default::default()
            },
            payload_len,
        }
    }

    /// A pure acknowledgement segment.
    pub fn pure_ack(conn: ConnectionId, ack: u64) -> Self {
        TcpSegment {
            conn,
            seq: 0,
            ack,
            flags: TcpFlags {
                ack: true,
                ..Default::default()
            },
            payload_len: 0,
        }
    }

    /// A SYN segment (connection establishment).
    pub fn syn(conn: ConnectionId, seq: u64) -> Self {
        TcpSegment {
            conn,
            seq,
            ack: 0,
            flags: TcpFlags {
                syn: true,
                ..Default::default()
            },
            payload_len: 0,
        }
    }

    /// A SYN+ACK segment.
    pub fn syn_ack(conn: ConnectionId, seq: u64, ack: u64) -> Self {
        TcpSegment {
            conn,
            seq,
            ack,
            flags: TcpFlags {
                syn: true,
                ack: true,
                fin: false,
            },
            payload_len: 0,
        }
    }

    /// A FIN segment.
    pub fn fin(conn: ConnectionId, seq: u64, ack: u64) -> Self {
        TcpSegment {
            conn,
            seq,
            ack,
            flags: TcpFlags {
                fin: true,
                ack: true,
                syn: false,
            },
            payload_len: 0,
        }
    }

    /// True if this segment carries application payload.
    #[inline]
    pub fn carries_data(&self) -> bool {
        self.payload_len > 0
    }

    /// Sequence number of the byte just after this segment's payload
    /// (SYN and FIN each consume one sequence number, as in real TCP).
    #[inline]
    pub fn end_seq(&self) -> u64 {
        self.seq
            + self.payload_len as u64
            + if self.flags.syn { 1 } else { 0 }
            + if self.flags.fin { 1 } else { 0 }
    }

    /// Size of this segment at the network layer (IP + TCP headers + payload).
    pub fn size_bytes(&self) -> u32 {
        sizes::IP_HEADER_BYTES + sizes::TCP_HEADER_BYTES + self.payload_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: ConnectionId = ConnectionId(1);

    #[test]
    fn data_segment_carries_payload_and_ack_flag() {
        let s = TcpSegment::data(C, 1000, 500, 960);
        assert!(s.carries_data());
        assert!(s.flags.ack);
        assert!(!s.flags.syn);
        assert_eq!(s.end_seq(), 1960);
    }

    #[test]
    fn pure_ack_has_no_payload() {
        let s = TcpSegment::pure_ack(C, 4242);
        assert!(!s.carries_data());
        assert_eq!(s.end_seq(), 0);
        assert_eq!(
            s.size_bytes(),
            sizes::IP_HEADER_BYTES + sizes::TCP_HEADER_BYTES
        );
    }

    #[test]
    fn syn_and_fin_consume_one_sequence_number() {
        assert_eq!(TcpSegment::syn(C, 10).end_seq(), 11);
        assert_eq!(TcpSegment::fin(C, 20, 0).end_seq(), 21);
        assert_eq!(TcpSegment::syn_ack(C, 0, 1).end_seq(), 1);
    }

    #[test]
    fn size_accounts_for_headers() {
        let s = TcpSegment::data(C, 0, 0, sizes::DEFAULT_MSS);
        assert_eq!(
            s.size_bytes(),
            sizes::IP_HEADER_BYTES + sizes::TCP_HEADER_BYTES + sizes::DEFAULT_MSS
        );
    }
}
