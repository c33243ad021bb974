//! Eavesdropper selection.
//!
//! The paper designates one randomly selected intermediate node as the
//! eavesdropper: it behaves exactly like every other node (it relays packets
//! normally) but also records all data it can hear within its radio range.
//! Because the simulator's recorder already tracks, for every node, the set of
//! unique data packets it relayed or overheard, the "eavesdropper" is purely
//! an analysis-time choice: any node that is not a traffic endpoint can be
//! evaluated as the eavesdropper (its [`crate::exposure()`] over its heard
//! set), and the worst case over all nodes gives the highest interception
//! ratio of Fig. 7.

use manet_wire::NodeId;
use rand::Rng;

/// The nodes that may eavesdrop: every node that is not a traffic endpoint,
/// in id order.  Endpoint ids out of range are ignored.
pub(crate) fn candidates(num_nodes: u16, endpoints: &[NodeId]) -> Vec<NodeId> {
    (0..num_nodes)
        .map(NodeId)
        .filter(|n| !endpoints.contains(n))
        .collect()
}

/// Pick the eavesdropping node uniformly at random among nodes that are not
/// traffic endpoints, with one `gen_range` draw (none when there is no
/// candidate).
///
/// Returns `None` when every node is an endpoint (degenerate two-node setups).
pub fn select_eavesdropper(
    num_nodes: u16,
    endpoints: &[NodeId],
    rng: &mut impl Rng,
) -> Option<NodeId> {
    let pool = candidates(num_nodes, endpoints);
    (!pool.is_empty()).then(|| pool[rng.gen_range(0..pool.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exposure::exposure;
    use manet_netsim::{Observation, Recorder, SimTime};
    use manet_wire::{ConnectionId, DataPacket, PacketId, TcpSegment};

    /// A 1000-byte data segment of connection 0 with id `id`, for node 9.
    fn data(id: u64) -> DataPacket {
        let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
        DataPacket::new(PacketId(id), NodeId(0), NodeId(9), segment)
    }
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn selection_excludes_endpoints() {
        let mut rng = SmallRng::seed_from_u64(1);
        let endpoints = [NodeId(0), NodeId(9)];
        for _ in 0..100 {
            let e = select_eavesdropper(10, &endpoints, &mut rng).unwrap();
            assert!(!endpoints.contains(&e));
            assert!(e.0 < 10);
        }
    }

    #[test]
    fn selection_fails_when_everyone_is_an_endpoint() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(select_eavesdropper(2, &[NodeId(0), NodeId(1)], &mut rng).is_none());
        // Duplicate endpoints must not be double-counted into a phantom
        // candidate, and no randomness is consumed on the degenerate path.
        let before: u64 = rng.clone().gen();
        assert!(
            select_eavesdropper(2, &[NodeId(0), NodeId(1), NodeId(0), NodeId(1)], &mut rng)
                .is_none()
        );
        assert_eq!(rng.gen::<u64>(), before, "degenerate case must not draw");
        // Out-of-range endpoint ids are ignored rather than panicking.
        let mut rng = SmallRng::seed_from_u64(2);
        let e = select_eavesdropper(3, &[NodeId(0), NodeId(1), NodeId(2), NodeId(99)], &mut rng);
        assert!(e.is_none());
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let endpoints = [NodeId(2), NodeId(7)];
        let draw = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..32)
                .map(|_| select_eavesdropper(20, &endpoints, &mut rng).unwrap())
                .collect::<Vec<NodeId>>()
        };
        assert_eq!(draw(5), draw(5), "same seed, same eavesdropper sequence");
        assert_ne!(draw(5), draw(6), "different seeds should differ");
    }

    #[test]
    fn selection_matches_collect_then_index_reference() {
        // The selection must consume and map randomness exactly like the
        // original collect-then-index implementation, so historical seeds
        // keep selecting the same eavesdropper.
        let reference = |num_nodes: u16, endpoints: &[NodeId], rng: &mut SmallRng| {
            let candidates: Vec<NodeId> = (0..num_nodes)
                .map(NodeId)
                .filter(|n| !endpoints.contains(n))
                .collect();
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[rng.gen_range(0..candidates.len())])
            }
        };
        for seed in 0..50u64 {
            let endpoints = [NodeId((seed % 10) as u16), NodeId(11)];
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            assert_eq!(
                select_eavesdropper(12, &endpoints, &mut a),
                reference(12, &endpoints, &mut b),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn report_computes_ratio_from_recorder() {
        let mut rec = Recorder::new();
        // 4 packets delivered to node 9; node 3 heard 2 of them.
        for id in 0..4u64 {
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
                    node: NodeId(9),
                    from: NodeId(0),
                    packet,
                },
            );
        }
        let (node, t0) = (NodeId(3), SimTime::ZERO);
        rec.observe(
            t0,
            Observation::Overheard {
                node,
                packet: &data(0),
            },
        );
        rec.observe(
            t0,
            Observation::Relay {
                node,
                packet: &data(1),
            },
        );
        // Packet 7 was heard but never delivered: it is not part of Pe.
        rec.observe(
            t0,
            Observation::Overheard {
                node,
                packet: &data(7),
            },
        );
        let report = exposure(&rec, rec.heard_set(NodeId(3)));
        assert_eq!(rec.heard_count(NodeId(3)), 3);
        assert_eq!(report.covered, 2);
        assert_eq!(report.delivered, 4);
        assert!((report.ratio() - 0.5).abs() < 1e-12);
        // A node that heard nothing has ratio 0.
        let silent = exposure(&rec, rec.heard_set(NodeId(7)));
        assert_eq!(silent.ratio(), 0.0);
    }

    #[test]
    fn zero_deliveries_yield_zero_ratio() {
        let rec = Recorder::new();
        let r = exposure(&rec, rec.heard_set(NodeId(1)));
        assert_eq!(r.ratio(), 0.0);
    }
}
