//! Property-based tests for the coalition / interception metrics.

use manet_adversary::{
    coalition_curve, coalition_report, select_coalition_greedy, CoalitionPlacement, CoverageBasis,
};
use manet_netsim::{Observation, Recorder, SimTime};
use manet_security::interception::highest_interception_ratio;
use manet_wire::{ConnectionId, DataPacket, NodeId, PacketId, TcpSegment};
use proptest::prelude::*;

const NUM_NODES: u16 = 20;
const DST: u16 = 19;

/// A 1000-byte data segment of connection 0 with id `id`, for node `DST`.
fn data(id: u64) -> DataPacket {
    let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
    DataPacket::new(PacketId(id), NodeId(0), NodeId(DST), segment)
}

/// Build a recorder from arbitrary relay assignments: `delivered` packets
/// 0..delivered reach node `DST`, and each `(node, packet)` pair records one
/// relay (packet ids are folded into the delivered range plus some undelivered
/// ids to exercise the delivered-only coverage filter).
fn build_recorder(delivered: u64, relays: &[(u16, u64)]) -> Recorder {
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
                node: NodeId(DST),
                from: NodeId(0),
                packet,
            },
        );
    }
    for &(node, id) in relays {
        // Half the id space points at never-delivered packets.
        let packet = &data(id);
        let node = NodeId(node % NUM_NODES);
        rec.observe(SimTime::ZERO, Observation::Relay { node, packet });
    }
    rec
}

fn endpoints() -> [NodeId; 2] {
    [NodeId(0), NodeId(DST)]
}

proptest! {
    /// Coalition interception ratios are always in [0, 1], for both bases and
    /// any member set — including members that heard nothing and ids that
    /// were never delivered.
    #[test]
    fn coalition_ratios_stay_in_unit_interval(
        delivered in 0u64..30,
        relays in proptest::collection::vec((0u16..NUM_NODES, 0u64..60), 0..80),
        members in proptest::collection::vec(0u16..NUM_NODES, 0..8),
    ) {
        let rec = build_recorder(delivered, &relays);
        let members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
        for basis in [CoverageBasis::Relayed, CoverageBasis::Heard] {
            let r = coalition_report(&rec, &members, basis);
            let ratio = r.interception_ratio();
            prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of range");
            prop_assert!(r.covered_packets <= r.packets_delivered.max(r.covered_packets));
            prop_assert!(r.covered_packets <= delivered);
        }
    }

    /// Coalition coverage is monotone (non-decreasing) in the coalition size,
    /// for both placements.
    #[test]
    fn coalition_coverage_is_monotone_in_k(
        delivered in 1u64..30,
        relays in proptest::collection::vec((0u16..NUM_NODES, 0u64..40), 1..80),
        k_max in 1usize..8,
        seed in 0u64..1000,
    ) {
        let rec = build_recorder(delivered, &relays);
        for placement in [CoalitionPlacement::Random, CoalitionPlacement::Greedy] {
            let curve = coalition_curve(
                &rec,
                NUM_NODES,
                &endpoints(),
                k_max,
                placement,
                CoverageBasis::Relayed,
                seed,
            );
            prop_assert!(curve.len() <= k_max);
            for w in curve.windows(2) {
                prop_assert!(
                    w[1].interception_ratio() >= w[0].interception_ratio() - 1e-12,
                    "coverage shrank when the coalition grew ({placement:?})"
                );
            }
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
        let rec = build_recorder(delivered, &relays);
        let greedy = select_coalition_greedy(&rec, NUM_NODES, &endpoints(), k, CoverageBasis::Relayed);
        let greedy_ratio = coalition_report(&rec, &greedy, CoverageBasis::Relayed).interception_ratio();
        for n in 0..NUM_NODES {
            let node = NodeId(n);
            if endpoints().contains(&node) {
                continue;
            }
            let solo = coalition_report(&rec, &[node], CoverageBasis::Relayed).interception_ratio();
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
        let rec = build_recorder(delivered, &relays);
        let eps = endpoints();
        let (highest, worst) = highest_interception_ratio(&rec, NUM_NODES, &eps);
        let mut expected = 0.0f64;
        let mut expected_node = None;
        for n in 0..NUM_NODES {
            let node = NodeId(n);
            if eps.contains(&node) {
                continue;
            }
            let ratio = coalition_report(&rec, &[node], CoverageBasis::Relayed).interception_ratio();
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
