//! Interception-ratio metrics (paper Eq. 1 and Fig. 7).

use crate::eavesdropper::candidates;
use crate::exposure::exposure;
use manet_netsim::Recorder;
use manet_wire::NodeId;

/// Summary of interception exposure for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InterceptionSummary {
    /// Interception ratio of the designated (random) eavesdropper.
    pub designated_ratio: f64,
    /// Worst-case ratio over every candidate node (the paper's "highest
    /// interception ratio", Fig. 7).
    pub highest_ratio: f64,
    /// Node achieving the worst case, if any traffic flowed.
    pub worst_node: Option<NodeId>,
}

/// Interception ratio `Ri = Pe / Pr` for a specific eavesdropping node: the
/// exposure of everything it heard.
pub fn interception_ratio(recorder: &Recorder, eavesdropper: NodeId) -> f64 {
    exposure(recorder, recorder.heard_set(eavesdropper)).ratio()
}

/// The highest interception ratio over all candidate nodes (everyone except
/// the traffic endpoints), together with the node that achieves it.
///
/// The paper defines this worst case as "the most dependent node is the
/// eavesdropper": `Pe` is the number of delivered packets a single
/// intermediate node *received to relay*, not its promiscuous captures.  Eq. 1
/// is a ratio of packets, so `Pe` counts each delivered packet once, however
/// often MAC retries or TCP retransmissions made the node relay it (Table I's
/// β counts those relay events), and `Ri ≤ 1`.  A protocol that concentrates
/// its traffic on one relay therefore scores close to 1, while a protocol that
/// keeps moving the path across disjoint routes scores lower (Fig. 7).
pub fn highest_interception_ratio(
    recorder: &Recorder,
    num_nodes: u16,
    endpoints: &[NodeId],
) -> (f64, Option<NodeId>) {
    let mut best = (0.0f64, None);
    for node in candidates(num_nodes, endpoints) {
        let r = exposure(recorder, recorder.relayed_set(node)).ratio();
        if r > best.0 {
            best = (r, Some(node));
        }
    }
    best
}

/// Full interception summary for one run.
pub fn summarize(
    recorder: &Recorder,
    num_nodes: u16,
    endpoints: &[NodeId],
    designated: Option<NodeId>,
) -> InterceptionSummary {
    let (highest_ratio, worst_node) = highest_interception_ratio(recorder, num_nodes, endpoints);
    InterceptionSummary {
        designated_ratio: designated.map_or(0.0, |e| interception_ratio(recorder, e)),
        highest_ratio,
        worst_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_netsim::{Observation, SimTime};
    use manet_wire::{ConnectionId, DataPacket, PacketId, TcpSegment};

    /// A 1000-byte data segment of connection 0 with id `id`, for node 9.
    fn data(id: u64) -> DataPacket {
        let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
        DataPacket::new(PacketId(id), NodeId(0), NodeId(9), segment)
    }

    /// Build a recorder where node 9 receives `delivered` packets and each
    /// `(node, n)` pair relays (and therefore also hears) `n` unique packets.
    fn recorder_with(delivered: u64, relayed: &[(u16, u64)]) -> Recorder {
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
                    node: NodeId(9),
                    from: NodeId(0),
                    packet,
                },
            );
        }
        for &(node, n) in relayed {
            for id in 0..n {
                let packet = &data(id);
                rec.observe(
                    SimTime::ZERO,
                    Observation::Relay {
                        node: NodeId(node),
                        packet,
                    },
                );
            }
        }
        rec
    }

    #[test]
    fn ratio_matches_equation_one() {
        let rec = recorder_with(10, &[(3, 4)]);
        assert!((interception_ratio(&rec, NodeId(3)) - 0.4).abs() < 1e-12);
        assert_eq!(interception_ratio(&rec, NodeId(5)), 0.0);
    }

    #[test]
    fn highest_ratio_finds_the_most_exposed_node() {
        let rec = recorder_with(10, &[(3, 4), (4, 9), (5, 1)]);
        let (r, node) = highest_interception_ratio(&rec, 10, &[NodeId(0), NodeId(9)]);
        assert!((r - 0.9).abs() < 1e-12);
        assert_eq!(node, Some(NodeId(4)));
    }

    #[test]
    fn repeated_and_undelivered_relays_do_not_count() {
        // Node 3 relays packets 0..4 twice each (MAC retries) and packets
        // 10..16, which never arrive: Pe is the 4 delivered packets, once.
        let mut rec = recorder_with(5, &[(3, 4), (3, 4)]);
        for id in 10..16 {
            rec.observe(
                SimTime::ZERO,
                Observation::Relay {
                    node: NodeId(3),
                    packet: &data(id),
                },
            );
        }
        assert_eq!(rec.relay_count(NodeId(3)), 14, "beta still counts events");
        let (r, node) = highest_interception_ratio(&rec, 10, &[NodeId(0), NodeId(9)]);
        assert!((r - 0.8).abs() < 1e-12);
        assert_eq!(node, Some(NodeId(3)));
        assert!((interception_ratio(&rec, NodeId(3)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn endpoints_are_excluded_from_the_worst_case() {
        // Node 9 is the destination; even though it "hears" everything it is
        // not an eavesdropping candidate.
        let rec = recorder_with(10, &[(9, 10), (2, 3)]);
        let (r, node) = highest_interception_ratio(&rec, 10, &[NodeId(0), NodeId(9)]);
        assert!((r - 0.3).abs() < 1e-12);
        assert_eq!(node, Some(NodeId(2)));
    }

    #[test]
    fn summary_reports_designated_and_highest() {
        let rec = recorder_with(10, &[(2, 2), (3, 6)]);
        let s = summarize(&rec, 10, &[NodeId(0), NodeId(9)], Some(NodeId(2)));
        assert!((s.designated_ratio - 0.2).abs() < 1e-12);
        assert!((s.highest_ratio - 0.6).abs() < 1e-12);
        assert_eq!(s.worst_node, Some(NodeId(3)));
    }

    #[test]
    fn empty_run_produces_zeroes() {
        let rec = Recorder::new();
        let s = summarize(&rec, 5, &[NodeId(0), NodeId(4)], Some(NodeId(2)));
        assert_eq!(s.designated_ratio, 0.0);
        assert_eq!(s.highest_ratio, 0.0);
        assert_eq!(s.worst_node, None);
    }
}
