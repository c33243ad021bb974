//! The TCP receiving endpoint.
//!
//! Generates cumulative acknowledgements and buffers out-of-order segments.
//! Every data segment triggers an immediate ACK (no delayed ACKs), so a gap
//! in the sequence space produces the duplicate-ACK train that drives the
//! sender's fast retransmit — and, for concurrent multipath, the spurious
//! congestion-control reactions the paper's related work warns about.

use manet_wire::{ConnectionId, TcpSegment};
use std::collections::BTreeMap;

/// Statistics the receiver exposes for the experiment metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Data segments received (including duplicates and out-of-order ones).
    pub segments_received: u64,
    /// Distinct in-order payload bytes delivered to the application.
    pub bytes_delivered: u64,
    /// Segments that arrived out of order (a gap existed below them).
    pub out_of_order: u64,
    /// Duplicate segments (entirely below the cumulative ACK point).
    pub duplicates: u64,
    /// Acknowledgements generated.
    pub acks_sent: u64,
}

/// The receiving half of one TCP connection.
#[derive(Debug)]
pub struct TcpReceiver {
    conn: ConnectionId,
    /// Next byte expected in order.
    rcv_nxt: u64,
    /// Out-of-order segments waiting for the gap to fill: start -> end.
    pending: BTreeMap<u64, u64>,
    stats: ReceiverStats,
}

impl TcpReceiver {
    /// New receiver for connection `conn`.
    pub fn new(conn: ConnectionId) -> Self {
        TcpReceiver {
            conn,
            rcv_nxt: 0,
            pending: BTreeMap::new(),
            stats: ReceiverStats::default(),
        }
    }

    /// The connection this receiver belongs to.
    pub fn connection(&self) -> ConnectionId {
        self.conn
    }

    /// Next in-order byte expected (the cumulative ACK value).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Receiver statistics.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Process a data segment; returns the acknowledgement to send back.
    pub fn on_segment(&mut self, segment: &TcpSegment) -> TcpSegment {
        debug_assert_eq!(segment.conn, self.conn);
        self.stats.segments_received += 1;
        let start = segment.seq;
        let end = segment.end_seq();
        if end <= self.rcv_nxt {
            // Entirely old data.
            self.stats.duplicates += 1;
        } else if start > self.rcv_nxt {
            // A gap exists: buffer the segment and emit a duplicate ACK.
            self.stats.out_of_order += 1;
            let entry = self.pending.entry(start).or_insert(end);
            *entry = (*entry).max(end);
        } else {
            // In-order (possibly partially overlapping) data: advance.
            self.stats.bytes_delivered += end - self.rcv_nxt;
            self.rcv_nxt = end;
            // Pull any buffered segments that are now contiguous.
            while let Some((&s, &e)) = self.pending.range(..=self.rcv_nxt).next_back() {
                if s > self.rcv_nxt {
                    break;
                }
                self.pending.remove(&s);
                if e > self.rcv_nxt {
                    self.stats.bytes_delivered += e - self.rcv_nxt;
                    self.rcv_nxt = e;
                }
            }
        }
        self.stats.acks_sent += 1;
        TcpSegment::pure_ack(self.conn, self.rcv_nxt)
    }

    /// Number of buffered (out-of-order) byte ranges.
    pub fn pending_ranges(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONN: ConnectionId = ConnectionId(7);

    fn data(seq: u64, len: u32) -> TcpSegment {
        TcpSegment::data(CONN, seq, 0, len)
    }

    #[test]
    fn in_order_segments_advance_the_ack_point() {
        let mut r = TcpReceiver::new(CONN);
        assert_eq!(r.on_segment(&data(0, 100)).ack, 100);
        assert_eq!(r.on_segment(&data(100, 100)).ack, 200);
        assert_eq!(r.stats().bytes_delivered, 200);
        assert_eq!(r.stats().out_of_order, 0);
        assert_eq!(r.pending_ranges(), 0);
    }

    #[test]
    fn gaps_generate_duplicate_acks_until_filled() {
        let mut r = TcpReceiver::new(CONN);
        assert_eq!(r.on_segment(&data(0, 100)).ack, 100);
        // Segment 100..200 lost; 200..300 and 300..400 arrive.
        assert_eq!(r.on_segment(&data(200, 100)).ack, 100);
        assert_eq!(r.on_segment(&data(300, 100)).ack, 100);
        assert_eq!(r.stats().out_of_order, 2);
        assert_eq!(r.pending_ranges(), 2);
        // The retransmission fills the gap and the ACK jumps to 400.
        assert_eq!(r.on_segment(&data(100, 100)).ack, 400);
        assert_eq!(r.stats().bytes_delivered, 400);
        assert_eq!(r.pending_ranges(), 0);
    }

    #[test]
    fn duplicates_do_not_inflate_delivery() {
        let mut r = TcpReceiver::new(CONN);
        let _ = r.on_segment(&data(0, 100));
        let ack = r.on_segment(&data(0, 100));
        assert_eq!(ack.ack, 100);
        assert_eq!(r.stats().duplicates, 1);
        assert_eq!(r.stats().bytes_delivered, 100);
    }

    #[test]
    fn overlapping_segment_only_delivers_new_bytes() {
        let mut r = TcpReceiver::new(CONN);
        let _ = r.on_segment(&data(0, 100));
        // Segment covering 50..250 only contributes 150 new bytes.
        let ack = r.on_segment(&data(50, 200));
        assert_eq!(ack.ack, 250);
        assert_eq!(r.stats().bytes_delivered, 250);
    }

    #[test]
    fn out_of_order_buffer_merges_contiguous_ranges() {
        let mut r = TcpReceiver::new(CONN);
        let _ = r.on_segment(&data(100, 100)); // gap: 0..100 missing
        let _ = r.on_segment(&data(200, 100));
        let _ = r.on_segment(&data(400, 100)); // second gap at 300..400
        assert_eq!(r.pending_ranges(), 3);
        let ack = r.on_segment(&data(0, 100));
        // 0..300 is now contiguous; 400..500 still waits for 300..400.
        assert_eq!(ack.ack, 300);
        assert_eq!(r.pending_ranges(), 1);
        let ack = r.on_segment(&data(300, 100));
        assert_eq!(ack.ack, 500);
    }
}
