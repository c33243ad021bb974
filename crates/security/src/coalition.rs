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
//! Two placements are provided: **random** (nested draws, so the size-`k`
//! coalition is a prefix of the size-`k+1` one and coverage is monotone in
//! `k`) and **greedy** (the classical max-k-coverage greedy over the finished
//! run's trace).  Greedy covers at least `1 - 1/e` of what the best
//! size-`k` coalition covers (Nemhauser, Wolsey & Fisher, 1978): it is a
//! near-worst case, not an upper bound.

use crate::eavesdropper::candidates;
use crate::exposure::{exposure, Exposure};
use manet_netsim::{PacketSet, Recorder};
use manet_wire::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How colluding eavesdroppers are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoalitionPlacement {
    /// `k` distinct non-endpoint nodes drawn uniformly from the scenario seed
    /// (nested: the size-`k` coalition is a prefix of the size-`k+1` one, so
    /// coverage is monotone in `k`).
    Random,
    /// Greedy near-worst case: after the run, repeatedly add the node with
    /// the largest marginal union coverage (the classical max-k-coverage
    /// greedy).
    Greedy,
}

impl CoalitionPlacement {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CoalitionPlacement::Random => "rand",
            CoalitionPlacement::Greedy => "greedy",
        }
    }
}

/// Which per-node packet set the coalition unions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageBasis {
    /// Packets *received to relay* (the paper's β, Fig. 7 worst-case basis).
    Relayed,
    /// Everything heard, including promiscuous overhearing (the paper's
    /// designated-eavesdropper basis, Eq. 1).
    Heard,
}

/// The packet set a node contributes under the chosen basis.
fn captured_set(recorder: &Recorder, node: NodeId, basis: CoverageBasis) -> Option<&PacketSet> {
    match basis {
        CoverageBasis::Relayed => recorder.relayed_set(node),
        CoverageBasis::Heard => recorder.heard_set(node),
    }
}

/// The exposure of the coalition `members` in a finished run.
pub fn coalition_report(recorder: &Recorder, members: &[NodeId], basis: CoverageBasis) -> Exposure {
    exposure(
        recorder,
        members
            .iter()
            .filter_map(|&m| captured_set(recorder, m, basis)),
    )
}

/// Draw a random coalition of (up to) `k` distinct non-endpoint nodes.
///
/// The draw is *nested*: the first `j` members of a size-`k` draw equal the
/// size-`j` draw for the same RNG state, which makes coalition coverage
/// monotone in `k` by construction.
pub fn select_coalition_random(
    num_nodes: u16,
    endpoints: &[NodeId],
    k: usize,
    rng: &mut impl Rng,
) -> Vec<NodeId> {
    let mut pool = candidates(num_nodes, endpoints);
    let take = k.min(pool.len());
    // Partial Fisher–Yates: position i receives a uniform choice from the
    // remaining pool, so prefixes are themselves uniform draws.
    for i in 0..take {
        let j = i + rng.gen_range(0..pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
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
    basis: CoverageBasis,
) -> Vec<NodeId> {
    let mut pool: Vec<(NodeId, PacketSet)> = candidates(num_nodes, endpoints)
        .into_iter()
        .map(|n| {
            let part = captured_set(recorder, n, basis)
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

/// The coalition-coverage curve for `k = 1..=k_max` under one placement.
///
/// Random placements are seeded from `seed`, so the curve is reproducible;
/// both placements produce nested coalitions, so the returned ratios are
/// non-decreasing in `k`.
pub fn coalition_curve(
    recorder: &Recorder,
    num_nodes: u16,
    endpoints: &[NodeId],
    k_max: usize,
    placement: CoalitionPlacement,
    basis: CoverageBasis,
    seed: u64,
) -> Vec<Exposure> {
    let members = match placement {
        CoalitionPlacement::Random => {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0a1_1710);
            select_coalition_random(num_nodes, endpoints, k_max, &mut rng)
        }
        CoalitionPlacement::Greedy => {
            select_coalition_greedy(recorder, num_nodes, endpoints, k_max, basis)
        }
    };
    (1..=members.len())
        .map(|k| coalition_report(recorder, &members[..k], basis))
        .collect()
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
        let solo = coalition_report(&rec, &[NodeId(2)], CoverageBasis::Relayed);
        assert_eq!(solo.covered, 2); // 0 and 1; 77 not delivered
        let pair = coalition_report(&rec, &[NodeId(2), NodeId(3)], CoverageBasis::Relayed);
        assert_eq!(pair.covered, 3); // 0, 1, 2
        assert_eq!(pair.delivered, 4);
        assert!((pair.ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn heard_basis_includes_overhearing() {
        let mut rec = recorder_with(2, &[(2, &[0])]);
        let packet = &data(1);
        rec.observe(
            SimTime::ZERO,
            Observation::Overheard {
                node: NodeId(2),
                packet,
            },
        );
        let relayed = coalition_report(&rec, &[NodeId(2)], CoverageBasis::Relayed);
        let heard = coalition_report(&rec, &[NodeId(2)], CoverageBasis::Heard);
        assert_eq!(relayed.covered, 1);
        assert_eq!(heard.covered, 2);
    }

    #[test]
    fn greedy_picks_the_best_cover_first() {
        // Node 4 covers {0,1,2}, node 2 covers {0,1}, node 3 covers {3}.
        let rec = recorder_with(4, &[(2, &[0, 1]), (3, &[3]), (4, &[0, 1, 2])]);
        let picks =
            select_coalition_greedy(&rec, 10, &[NodeId(0), NodeId(9)], 2, CoverageBasis::Relayed);
        assert_eq!(picks[0], NodeId(4));
        // Second pick is node 3: marginal gain 1 beats node 2's 0.
        assert_eq!(picks[1], NodeId(3));
        let curve = coalition_curve(
            &rec,
            10,
            &[NodeId(0), NodeId(9)],
            3,
            CoalitionPlacement::Greedy,
            CoverageBasis::Relayed,
            1,
        );
        assert_eq!(curve.len(), 3);
        assert!((curve[1].ratio() - 1.0).abs() < 1e-12);
        // Monotone and capped at 1.
        for w in curve.windows(2) {
            assert!(w[1].ratio() >= w[0].ratio());
        }
    }

    #[test]
    fn random_selection_is_nested_deterministic_and_avoids_endpoints() {
        let endpoints = [NodeId(0), NodeId(9)];
        let draw = |seed: u64, k: usize| {
            let mut rng = SmallRng::seed_from_u64(seed);
            select_coalition_random(20, &endpoints, k, &mut rng)
        };
        let five = draw(42, 5);
        let three = draw(42, 3);
        assert_eq!(&five[..3], &three[..], "draws must be nested");
        assert_eq!(five, draw(42, 5), "same seed, same coalition");
        assert!(five.iter().all(|n| !endpoints.contains(n)));
        let distinct: HashSet<NodeId> = five.iter().copied().collect();
        assert_eq!(distinct.len(), 5, "members must be distinct");
        // Degenerate: everyone is an endpoint.
        let none = select_coalition_random(
            2,
            &[NodeId(0), NodeId(1)],
            3,
            &mut SmallRng::seed_from_u64(1),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn empty_run_gives_zero_ratio() {
        let rec = Recorder::new();
        let r = coalition_report(&rec, &[NodeId(1), NodeId(2)], CoverageBasis::Heard);
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
        basis: CoverageBasis,
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
                let gain = captured_set(recorder, n, basis).map_or(0, |set| {
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
                if let Some(set) = captured_set(recorder, n, basis) {
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
        /// overheard-only packets and nodes that copy another node's relays
        /// (equal gains), and k up to above the candidate count: the
        /// word-level greedy picks what the per-id greedy picks, and every
        /// prefix's exposure is the per-id union over delivered ids.
        #[test]
        fn greedy_matches_the_per_id_reference(
            delivered in proptest::collection::vec(packet_id(), 0..60),
            captures in proptest::collection::vec((0u16..12, packet_id(), any::<bool>()), 0..120),
            copies in proptest::collection::vec((0u16..12, 0u16..12), 0..4),
            k in 0usize..14,
            heard in any::<bool>(),
        ) {
            const NUM_NODES: u16 = 12;
            let endpoints = [NodeId(0), NodeId(NUM_NODES - 1)];
            let basis = if heard { CoverageBasis::Heard } else { CoverageBasis::Relayed };
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
            let picks = select_coalition_greedy(&rec, NUM_NODES, &endpoints, k, basis);
            prop_assert_eq!(
                &picks,
                &greedy_per_id(&rec, &delivered, NUM_NODES, &endpoints, k, basis)
            );
            for j in 0..=picks.len() {
                let union: HashSet<PacketId> = picks[..j]
                    .iter()
                    .filter_map(|&n| captured_set(&rec, n, basis))
                    .flat_map(|set| set.iter())
                    .filter(|p| delivered.contains(p))
                    .collect();
                let exposure = coalition_report(&rec, &picks[..j], basis);
                prop_assert_eq!(exposure.covered, union.len() as u64);
                prop_assert_eq!(exposure.delivered, delivered.len() as u64);
            }
        }
    }
}
