//! Property-based tests for the TCP Reno endpoints: reassembly correctness at
//! the receiver and window-arithmetic invariants at the sender / controller.

use manet_netsim::SimTime;
use manet_tcp::{RenoController, RtoEstimator, TcpConfig, TcpReceiver, TcpSender};
use manet_wire::{ConnectionId, TcpSegment};
use proptest::prelude::*;

const CONN: ConnectionId = ConnectionId(1);

proptest! {
    /// Delivering a stream of fixed-size segments in any order yields exactly
    /// the full byte range once every segment has arrived, and the cumulative
    /// ACK never decreases along the way.
    #[test]
    fn receiver_reassembles_any_permutation(order in Just((0u64..20).collect::<Vec<_>>()).prop_shuffle()) {
        let seg_len = 100u32;
        let mut rx = TcpReceiver::new(CONN);
        let mut last_ack = 0u64;
        for &i in &order {
            let seg = TcpSegment::data(CONN, i * u64::from(seg_len), 0, seg_len);
            let ack = rx.on_segment(&seg);
            prop_assert!(ack.ack >= last_ack, "cumulative ACK must never move backwards");
            last_ack = ack.ack;
        }
        prop_assert_eq!(last_ack, 20 * u64::from(seg_len));
        prop_assert_eq!(rx.stats().bytes_delivered, 20 * u64::from(seg_len));
        prop_assert_eq!(rx.pending_ranges(), 0);
    }

    /// Duplicated deliveries never inflate the delivered byte count.
    #[test]
    fn receiver_ignores_duplicates(dups in proptest::collection::vec(0u64..10, 1..40)) {
        let seg_len = 50u32;
        let mut rx = TcpReceiver::new(CONN);
        // Deliver everything once, in order.
        for i in 0..10u64 {
            let _ = rx.on_segment(&TcpSegment::data(CONN, i * u64::from(seg_len), 0, seg_len));
        }
        let delivered = rx.stats().bytes_delivered;
        // Then replay arbitrary duplicates.
        for &i in &dups {
            let _ = rx.on_segment(&TcpSegment::data(CONN, i * u64::from(seg_len), 0, seg_len));
        }
        prop_assert_eq!(rx.stats().bytes_delivered, delivered);
        prop_assert_eq!(rx.rcv_nxt(), delivered);
    }

    /// Under any sequence of ACK / dupACK / timeout events the congestion
    /// window stays at least one segment and ssthresh at least two.
    #[test]
    fn reno_window_never_collapses(events in proptest::collection::vec(0u8..4, 1..200)) {
        let mut reno = RenoController::new();
        for e in events {
            match e {
                0 => reno.on_new_ack(),
                1 => reno.on_extra_dupack(),
                2 => reno.on_fast_retransmit(reno.cwnd()),
                _ => reno.on_timeout(reno.cwnd()),
            }
            prop_assert!(reno.cwnd() >= 1.0, "cwnd fell below one segment");
            prop_assert!(reno.ssthresh() >= 2.0, "ssthresh fell below two segments");
            prop_assert!(reno.usable_window() >= 1);
        }
    }

    /// The RTO always stays within its configured bounds, whatever mix of
    /// samples and back-offs is applied.
    #[test]
    fn rto_respects_bounds(ops in proptest::collection::vec((0u8..2, 0.0f64..5.0), 1..100)) {
        let (min_rto, max_rto) = (0.5, 30.0);
        let mut est = RtoEstimator::new(min_rto, max_rto, 8);
        for (op, value) in ops {
            if op == 0 {
                est.sample(value);
            } else {
                est.back_off();
            }
            let rto = est.rto().as_secs();
            prop_assert!(rto >= min_rto - 1e-12 && rto <= max_rto + 1e-12, "rto {rto} out of bounds");
        }
    }

    /// A lossless sender/receiver pair makes monotone progress: bytes acked
    /// never decreases and never exceeds bytes the receiver delivered.
    #[test]
    fn lossless_transfer_is_consistent(rounds in 1usize..60) {
        let config = TcpConfig::default();
        let mut tx = TcpSender::new(CONN, config);
        let mut rx = TcpReceiver::new(CONN);
        let mut now = 0.0f64;
        let mut in_flight = tx.pump(SimTime::from_secs(now)).segments;
        for _ in 0..rounds {
            now += 0.1;
            let mut acks = Vec::new();
            for seg in in_flight.drain(..) {
                acks.push(rx.on_segment(&seg));
            }
            let mut next = Vec::new();
            for ack in acks {
                let out = tx.on_ack(&ack, SimTime::from_secs(now));
                next.extend(out.segments);
            }
            in_flight = next;
            prop_assert!(tx.bytes_acked() <= rx.stats().bytes_delivered);
            prop_assert_eq!(tx.retransmissions(), 0, "no loss means no retransmissions");
        }
    }
}
