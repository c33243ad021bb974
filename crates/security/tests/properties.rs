//! Property-based tests for the confidentiality metrics.

use manet_netsim::{Observation, Recorder, SimTime};
use manet_security::interception::{highest_interception_ratio, interception_ratio};
use manet_security::{participating_nodes, relay_distribution};
use manet_wire::{ConnectionId, DataPacket, NodeId, PacketId, TcpSegment};
use proptest::prelude::*;

/// A 1000-byte data segment of connection 0 with id `id`, for node 999.
fn data(id: u64) -> DataPacket {
    let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
    DataPacket::new(PacketId(id), NodeId(0), NodeId(999), segment)
}

/// `node` relays packet `id` at time 0.
fn relay(rec: &mut Recorder, node: u16, id: u64) {
    let packet = &data(id);
    rec.observe(
        SimTime::ZERO,
        Observation::Relay {
            node: NodeId(node),
            packet,
        },
    );
}

/// Build a recorder from `(node, relay_count)` pairs plus `delivered` packets
/// arriving at node 999.
fn build_recorder(relays: &[(u16, u64)], delivered: u64) -> Recorder {
    let mut rec = Recorder::new();
    for id in 0..delivered {
        let packet = &data(id);
        rec.observe(
            SimTime::ZERO,
            Observation::Originate {
                node: NodeId(0),
                packet,
            },
        );
        let at = SimTime::from_secs(1.0);
        rec.observe(
            at,
            Observation::Deliver {
                node: NodeId(999),
                from: NodeId(0),
                packet,
            },
        );
    }
    let mut pid = 10_000u64;
    for &(node, count) in relays {
        for _ in 0..count {
            relay(&mut rec, node, pid);
            pid += 1;
        }
    }
    rec
}

proptest! {
    /// The relay shares always sum to one (when anything was relayed), each
    /// share is in [0, 1], and the standard deviation is bounded by 1.
    #[test]
    fn relay_shares_form_a_distribution(
        relays in proptest::collection::vec((0u16..50, 1u64..500), 1..20)
    ) {
        let rec = build_recorder(&relays, 10);
        let dist = relay_distribution(&rec);
        prop_assert!(dist.participants() >= 1);
        let sum: f64 = dist.rows.iter().map(|r| r.gamma).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(dist.rows.iter().all(|r| (0.0..=1.0).contains(&r.gamma)));
        prop_assert!(dist.std_dev >= 0.0 && dist.std_dev <= 1.0 + 1e-9);
        prop_assert_eq!(dist.alpha, dist.rows.iter().map(|r| r.beta).sum::<u64>());
    }

    /// Participating-node count equals the number of distinct relay nodes.
    #[test]
    fn participation_counts_distinct_nodes(
        relays in proptest::collection::vec((0u16..30, 1u64..5), 1..40)
    ) {
        let rec = build_recorder(&relays, 5);
        let distinct: std::collections::HashSet<u16> = relays.iter().map(|(n, _)| *n).collect();
        prop_assert_eq!(participating_nodes(&rec), distinct.len());
    }

    /// The highest interception ratio (worst-case relay, Fig. 7) dominates
    /// every individual node's designated-eavesdropper ratio when each node's
    /// haul consists of the packets it relayed (relaying implies hearing).
    #[test]
    fn highest_ratio_dominates_individuals(
        relayed in proptest::collection::vec((1u16..20, 0u64..30), 1..10),
        delivered in 1u64..40,
    ) {
        let mut rec = build_recorder(&[], delivered);
        for &(node, n) in &relayed {
            for id in 0..n {
                relay(&mut rec, node, id);
            }
        }
        let endpoints = [NodeId(0), NodeId(999)];
        let (highest, _) = highest_interception_ratio(&rec, 20, &endpoints);
        prop_assert!(highest >= 0.0);
        for node in 1u16..20 {
            let r = interception_ratio(&rec, NodeId(node));
            prop_assert!(r >= 0.0);
            prop_assert!(r <= highest + 1e-12);
        }
    }
}
