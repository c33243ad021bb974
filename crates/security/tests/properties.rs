//! Property-based tests for the confidentiality metrics.

use manet_netsim::{Observation, Recorder, SimTime};
use manet_security::interception::{highest_interception_ratio, interception_ratio};
use manet_security::{coalition_report, select_coalition_greedy};
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

const NUM_NODES: u16 = 20;
const DST: u16 = 19;

/// A 1000-byte data segment of connection 0 with id `id`, for node `DST`.
fn data_to_dst(id: u64) -> DataPacket {
    let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
    DataPacket::new(PacketId(id), NodeId(0), NodeId(DST), segment)
}

/// Build a coalition recorder from arbitrary relay assignments: `delivered` packets
/// 0..delivered reach node `DST`, and each `(node, packet)` pair records one
/// relay (packet ids are folded into the delivered range plus some undelivered
/// ids to exercise the delivered-only coverage filter).
fn coalition_recorder(delivered: u64, relays: &[(u16, u64)]) -> Recorder {
    let mut rec = Recorder::new();
    for id in 0..delivered {
        let packet = &data_to_dst(id);
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
                node: NodeId(DST),
                from: NodeId(0),
                packet,
            },
        );
    }
    for &(node, id) in relays {
        // Half the id space points at never-delivered packets.
        let packet = &data_to_dst(id);
        let node = NodeId(node % NUM_NODES);
        rec.observe(SimTime::ZERO, Observation::Relay { node, packet });
    }
    rec
}

fn endpoints() -> [NodeId; 2] {
    [NodeId(0), NodeId(DST)]
}

proptest! {
    /// Coalition interception ratios are always in [0, 1] for any member set
    /// — including members that relayed nothing and ids that were never
    /// delivered.
    #[test]
    fn coalition_ratios_stay_in_unit_interval(
        delivered in 0u64..30,
        relays in proptest::collection::vec((0u16..NUM_NODES, 0u64..60), 0..80),
        members in proptest::collection::vec(0u16..NUM_NODES, 0..8),
    ) {
        let rec = coalition_recorder(delivered, &relays);
        let members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
        let r = coalition_report(&rec, &members);
        let ratio = r.ratio();
        prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of range");
        prop_assert!(r.covered <= r.delivered.max(r.covered));
        prop_assert!(r.covered <= delivered);
    }

    /// Greedy coalitions are nested — the size-k list is a prefix of the
    /// size-k_max list — so coverage is monotone (non-decreasing) in the
    /// coalition size.
    #[test]
    fn coalition_coverage_is_monotone_in_k(
        delivered in 1u64..30,
        relays in proptest::collection::vec((0u16..NUM_NODES, 0u64..40), 1..80),
        k_max in 1usize..8,
    ) {
        let rec = coalition_recorder(delivered, &relays);
        let members = select_coalition_greedy(&rec, NUM_NODES, &endpoints(), k_max);
        prop_assert!(members.len() <= k_max);
        for k in 1..=members.len() {
            let smaller = select_coalition_greedy(&rec, NUM_NODES, &endpoints(), k);
            prop_assert_eq!(&smaller[..], &members[..k]);
        }
        let ratios: Vec<f64> = (1..=members.len())
            .map(|k| coalition_report(&rec, &members[..k]).ratio())
            .collect();
        for w in ratios.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12, "coverage shrank when the coalition grew");
        }
    }

    /// The greedy coalition of size k covers at least as much as any single
    /// node (it starts from the best single node).
    #[test]
    fn greedy_dominates_every_singleton(
        delivered in 1u64..30,
        relays in proptest::collection::vec((0u16..NUM_NODES, 0u64..40), 1..60),
        k in 1usize..5,
    ) {
        let rec = coalition_recorder(delivered, &relays);
        let greedy = select_coalition_greedy(&rec, NUM_NODES, &endpoints(), k);
        let greedy_ratio = coalition_report(&rec, &greedy).ratio();
        for n in 0..NUM_NODES {
            let node = NodeId(n);
            if endpoints().contains(&node) {
                continue;
            }
            let solo = coalition_report(&rec, &[node]).ratio();
            prop_assert!(solo <= greedy_ratio + 1e-12);
        }
    }

    /// `highest_interception_ratio` equals the maximum over the per-node
    /// ratios it is defined from: the delivered packets a node relayed,
    /// each counted once (a one-member coalition on the relayed basis), over
    /// the delivered packets.  Repeated and never-delivered relays add
    /// nothing, so the maximum is at most 1.
    #[test]
    fn highest_ratio_is_the_per_node_maximum(
        delivered in 1u64..40,
        relays in proptest::collection::vec((0u16..NUM_NODES, 0u64..40), 0..80),
    ) {
        let rec = coalition_recorder(delivered, &relays);
        let eps = endpoints();
        let (highest, worst) = highest_interception_ratio(&rec, NUM_NODES, &eps);
        let mut expected = 0.0f64;
        let mut expected_node = None;
        for n in 0..NUM_NODES {
            let node = NodeId(n);
            if eps.contains(&node) {
                continue;
            }
            let ratio = coalition_report(&rec, &[node]).ratio();
            if ratio > expected {
                expected = ratio;
                expected_node = Some(node);
            }
        }
        prop_assert!(highest <= 1.0);
        prop_assert!((highest - expected).abs() < 1e-12);
        if expected > 0.0 {
            prop_assert_eq!(worst, expected_node);
        } else {
            prop_assert_eq!(worst, None);
        }
    }
}
