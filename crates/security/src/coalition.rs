//! Colluding eavesdropper coalitions.
//!
//! The paper evaluates a *single* passive eavesdropper (Eq. 1).  A coalition
//! of `k` colluding nodes pools what its members captured, so its ratio is
//! the [`exposure()`] of the members' packet sets:
//!
//! ```text
//! R(coalition) = |  U_{i in coalition} captured_i  ∩  delivered  |  /  Pr
//! ```
//!
//! The members are placed **greedily** (the classical max-k-coverage greedy
//! over the finished run's trace) on the packets each node *received to
//! relay*, the Fig. 7 basis.  Greedy covers at least `1 - 1/e` of what the
//! best size-`k` coalition covers (Nemhauser, Wolsey & Fisher, 1978): it is a
//! near-worst case, not an upper bound.  It is also nested: the size-`k`
//! coalition is a prefix of every larger one, so the prefixes of one greedy
//! list give the whole coverage curve, monotone in `k`.

use crate::eavesdropper::candidates;
use crate::exposure::{exposure, Exposure};
use manet_netsim::{PacketSet, Recorder};
use manet_wire::NodeId;

/// The exposure of the coalition `members` in a finished run: the union of
/// the packets they relayed.
pub fn coalition_report(recorder: &Recorder, members: &[NodeId]) -> Exposure {
    exposure(
        recorder,
        members.iter().filter_map(|&m| recorder.relayed_set(m)),
    )
}

/// Greedy near-worst-case coalition: repeatedly add the node with the largest
/// marginal coverage of delivered packets (ties broken towards the lowest
/// node id, so the result is deterministic).  Nodes adding no coverage are
/// appended in id order until `k` members are reached, keeping the size
/// comparable across protocols.
///
/// Each candidate's delivered captures are taken once; a marginal gain is
/// then one AND and popcount per 64-id chunk.
pub fn select_coalition_greedy(
    recorder: &Recorder,
    num_nodes: u16,
    endpoints: &[NodeId],
    k: usize,
) -> Vec<NodeId> {
    let mut pool: Vec<(NodeId, PacketSet)> = candidates(num_nodes, endpoints)
        .into_iter()
        .map(|n| {
            let part = recorder
                .relayed_set(n)
                .map_or_else(PacketSet::default, |set| recorder.delivered_part(set));
            (n, part)
        })
        .collect();
    let take = k.min(pool.len());
    let mut chosen: Vec<NodeId> = Vec::with_capacity(take);
    let mut covered = PacketSet::default();
    while chosen.len() < take {
        let mut best: Option<(usize, usize)> = None; // (pool index, gain)
        for (i, (_, part)) in pool.iter().enumerate() {
            let gain = part.len() - part.intersection_len(&covered);
            // Strictly-greater keeps the lowest node id on ties because the
            // pool is in id order.
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let (idx, _) = best.expect("pool is non-empty while chosen < take");
        let (node, part) = pool.remove(idx); // preserves the id order
        covered.union_with(&part);
        chosen.push(node);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_netsim::{Observation, SimTime};
    use manet_wire::{ConnectionId, DataPacket, PacketId, TcpSegment};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A 1000-byte data segment of connection 0 with id `id`, for node 9.
    fn data(id: u64) -> DataPacket {
        let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
        DataPacket::new(PacketId(id), NodeId(0), NodeId(9), segment)
    }

    /// A recorder where packets 0..delivered reach node 9 and each
    /// `(node, ids)` pair relayed exactly those packet ids.
    fn recorder_with(delivered: u64, relays: &[(u16, &[u64])]) -> Recorder {
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
        for &(node, ids) in relays {
            for &id in ids {
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
    fn union_coverage_counts_unique_delivered_packets() {
        // Nodes 2 and 3 overlap on packet 1; packet 77 was never delivered.
        let rec = recorder_with(4, &[(2, &[0, 1, 77]), (3, &[1, 2])]);
        let solo = coalition_report(&rec, &[NodeId(2)]);
        assert_eq!(solo.covered, 2); // 0 and 1; 77 not delivered
        let pair = coalition_report(&rec, &[NodeId(2), NodeId(3)]);
        assert_eq!(pair.covered, 3); // 0, 1, 2
        assert_eq!(pair.delivered, 4);
        assert!((pair.ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn greedy_picks_the_best_cover_first() {
        // Node 4 covers {0,1,2}, node 2 covers {0,1}, node 3 covers {3}.
        let rec = recorder_with(4, &[(2, &[0, 1]), (3, &[3]), (4, &[0, 1, 2])]);
        let picks = select_coalition_greedy(&rec, 10, &[NodeId(0), NodeId(9)], 3);
        assert_eq!(picks[0], NodeId(4));
        // Second pick is node 3: marginal gain 1 beats node 2's 0.
        assert_eq!(picks[1], NodeId(3));
        let curve: Vec<Exposure> = (1..=picks.len())
            .map(|k| coalition_report(&rec, &picks[..k]))
            .collect();
        assert_eq!(curve.len(), 3);
        assert!((curve[1].ratio() - 1.0).abs() < 1e-12);
        // Monotone and capped at 1.
        for w in curve.windows(2) {
            assert!(w[1].ratio() >= w[0].ratio());
        }
    }

    #[test]
    fn empty_run_gives_zero_ratio() {
        let rec = Recorder::new();
        let r = coalition_report(&rec, &[NodeId(1), NodeId(2)]);
        assert_eq!(r.ratio(), 0.0);
        assert_eq!(r.covered, 0);
    }

    /// The greedy placement written per packet id over hash sets, with the
    /// delivered ids given rather than read from the recorder: the reference
    /// the word-level greedy must match pick for pick.
    fn greedy_per_id(
        recorder: &Recorder,
        delivered: &HashSet<PacketId>,
        num_nodes: u16,
        endpoints: &[NodeId],
        k: usize,
    ) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = (0..num_nodes)
            .map(NodeId)
            .filter(|n| !endpoints.contains(n))
            .collect();
        let take = k.min(pool.len());
        let mut chosen: Vec<NodeId> = Vec::with_capacity(take);
        let mut covered: HashSet<PacketId> = HashSet::new();
        while chosen.len() < take {
            let mut best: Option<(usize, usize)> = None; // (pool index, gain)
            for (i, &n) in pool.iter().enumerate() {
                let gain = recorder.relayed_set(n).map_or(0, |set| {
                    set.iter()
                        .filter(|p| delivered.contains(p) && !covered.contains(p))
                        .count()
                });
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
            let (idx, gain) = best.expect("pool is non-empty while chosen < take");
            let n = pool.remove(idx);
            if gain > 0 {
                if let Some(set) = recorder.relayed_set(n) {
                    covered.extend(set.iter().filter(|p| delivered.contains(p)));
                }
            }
            chosen.push(n);
        }
        chosen
    }

    /// A packet id of one of four origins whose counter is dense or sits on
    /// either edge of a 64-id chunk.
    fn packet_id() -> impl Strategy<Value = u64> {
        (0u64..4, 0u8..3, 0u64..40).prop_map(|(origin, kind, n)| {
            let counter = match kind {
                0 => n,
                1 => n << 6,
                _ => (n << 6) | 63,
            };
            (origin << 40) | counter
        })
    }

    proptest! {
        /// Random recorders over several origins, with undelivered ids,
        /// overheard-only packets (which no coalition counts) and nodes that
        /// copy another node's relays (equal gains), and k up to above the
        /// candidate count: the word-level greedy picks what the per-id
        /// greedy picks, and every prefix's exposure is the per-id union of
        /// relayed sets over delivered ids.
        #[test]
        fn greedy_matches_the_per_id_reference(
            delivered in proptest::collection::vec(packet_id(), 0..60),
            captures in proptest::collection::vec((0u16..12, packet_id(), any::<bool>()), 0..120),
            copies in proptest::collection::vec((0u16..12, 0u16..12), 0..4),
            k in 0usize..14,
        ) {
            const NUM_NODES: u16 = 12;
            let endpoints = [NodeId(0), NodeId(NUM_NODES - 1)];
            let mut rec = Recorder::new();
            for &id in &delivered {
                let packet = &data(id);
                rec.observe(
                    SimTime::from_secs(1.0),
                    Observation::Deliver { node: NodeId(9), from: NodeId(0), packet },
                );
            }
            let mut observe = |node: u16, id: u64, overheard: bool| {
                let (node, packet) = (NodeId(node), &data(id));
                let observation = if overheard {
                    Observation::Overheard { node, packet }
                } else {
                    Observation::Relay { node, packet }
                };
                rec.observe(SimTime::ZERO, observation);
            };
            for &(node, id, overheard) in &captures {
                observe(node, id, overheard);
                for &(copier, original) in &copies {
                    if original == node {
                        observe(copier, id, overheard);
                    }
                }
            }
            let delivered: HashSet<PacketId> = delivered.into_iter().map(PacketId).collect();
            let picks = select_coalition_greedy(&rec, NUM_NODES, &endpoints, k);
            prop_assert_eq!(
                &picks,
                &greedy_per_id(&rec, &delivered, NUM_NODES, &endpoints, k)
            );
            for j in 0..=picks.len() {
                let union: HashSet<PacketId> = picks[..j]
                    .iter()
                    .filter_map(|&n| rec.relayed_set(n))
                    .flat_map(|set| set.iter())
                    .filter(|p| delivered.contains(p))
                    .collect();
                let exposure = coalition_report(&rec, &picks[..j]);
                prop_assert_eq!(exposure.covered, union.len() as u64);
                prop_assert_eq!(exposure.delivered, delivered.len() as u64);
            }
        }
    }
}
