//! Colluding eavesdropper coalitions.
//!
//! The paper evaluates a *single* passive eavesdropper (Eq. 1).  A coalition
//! of `k` colluding nodes generalizes the interception ratio to the union of
//! what the members captured:
//!
//! ```text
//! R(coalition) = |  U_{i in coalition} captured_i  ∩  delivered  |  /  Pr
//! ```
//!
//! where `Pr` is the number of unique data packets delivered to the
//! destination.  Restricting the union to delivered packets keeps the ratio
//! a true coverage in `[0, 1]` and makes it comparable across protocols.
//!
//! Two placements are provided: **random** (nested draws, so the size-`k`
//! coalition is a prefix of the size-`k+1` one and coverage is monotone in
//! `k`) and **greedy** worst case (classical max-k-coverage greedy over the
//! finished run's trace — an upper bound no random placement can beat by more
//! than the usual `1 - 1/e` factor).

use crate::config::{CoalitionPlacement, CoverageBasis};
use manet_netsim::{PacketSet, Recorder};
use manet_wire::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a specific coalition captured during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalitionReport {
    /// Colluding nodes, in placement order.
    pub members: Vec<NodeId>,
    /// Unique *delivered* data packets captured by at least one member.
    pub covered_packets: u64,
    /// Unique data packets delivered to the destination (`Pr`).
    pub packets_delivered: u64,
}

impl CoalitionReport {
    /// The coalition interception ratio `Pe(coalition) / Pr` (0 when nothing
    /// was delivered).  Always in `[0, 1]`.
    pub fn interception_ratio(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.covered_packets as f64 / self.packets_delivered as f64
        }
    }

    /// Coalition size.
    pub fn k(&self) -> usize {
        self.members.len()
    }
}

/// The packet set a node contributes under the chosen basis.
fn captured_set(recorder: &Recorder, node: NodeId, basis: CoverageBasis) -> Option<&PacketSet> {
    match basis {
        CoverageBasis::Relayed => recorder.relayed_set(node),
        CoverageBasis::Heard => recorder.heard_set(node),
    }
}

/// Evaluate a given coalition against a finished run.
pub fn coalition_report(
    recorder: &Recorder,
    members: &[NodeId],
    basis: CoverageBasis,
) -> CoalitionReport {
    let mut covered = PacketSet::default();
    for &m in members {
        if let Some(set) = captured_set(recorder, m, basis) {
            covered.extend(set.iter().filter(|&p| recorder.was_delivered(p)));
        }
    }
    CoalitionReport {
        members: members.to_vec(),
        covered_packets: covered.len() as u64,
        packets_delivered: recorder.delivered_data_packets(),
    }
}

/// Non-endpoint candidate nodes, in node-id order.
fn candidates(num_nodes: u16, endpoints: &[NodeId]) -> Vec<NodeId> {
    let mut is_endpoint = vec![false; num_nodes as usize];
    for e in endpoints {
        if let Some(slot) = is_endpoint.get_mut(e.index()) {
            *slot = true;
        }
    }
    (0..num_nodes)
        .map(NodeId)
        .filter(|n| !is_endpoint[n.index()])
        .collect()
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

/// Greedy worst-case coalition: repeatedly add the node with the largest
/// marginal coverage of delivered packets (ties broken towards the lowest
/// node id, so the result is deterministic).  Nodes adding no coverage are
/// appended in id order until `k` members are reached, keeping the size
/// comparable across protocols.
pub fn select_coalition_greedy(
    recorder: &Recorder,
    num_nodes: u16,
    endpoints: &[NodeId],
    k: usize,
    basis: CoverageBasis,
) -> Vec<NodeId> {
    let mut pool = candidates(num_nodes, endpoints);
    let take = k.min(pool.len());
    let mut chosen: Vec<NodeId> = Vec::with_capacity(take);
    let mut covered = PacketSet::default();
    while chosen.len() < take {
        let mut best: Option<(usize, usize)> = None; // (pool index, gain)
        for (i, &n) in pool.iter().enumerate() {
            let gain = captured_set(recorder, n, basis).map_or(0, |set| {
                set.iter()
                    .filter(|&p| recorder.was_delivered(p) && !covered.contains(p))
                    .count()
            });
            // Strictly-greater keeps the lowest node id on ties because the
            // pool is in id order.
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let (idx, gain) = best.expect("pool is non-empty while chosen < take");
        let n = pool.remove(idx); // preserves the id order the tie-break uses
        if gain > 0 {
            if let Some(set) = captured_set(recorder, n, basis) {
                covered.extend(set.iter().filter(|&p| recorder.was_delivered(p)));
            }
        }
        chosen.push(n);
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
) -> Vec<CoalitionReport> {
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
        assert_eq!(solo.covered_packets, 2); // 0 and 1; 77 not delivered
        let pair = coalition_report(&rec, &[NodeId(2), NodeId(3)], CoverageBasis::Relayed);
        assert_eq!(pair.covered_packets, 3); // 0, 1, 2
        assert!((pair.interception_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(pair.k(), 2);
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
        assert_eq!(relayed.covered_packets, 1);
        assert_eq!(heard.covered_packets, 2);
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
        assert!((curve[1].interception_ratio() - 1.0).abs() < 1e-12);
        // Monotone and capped at 1.
        for w in curve.windows(2) {
            assert!(w[1].interception_ratio() >= w[0].interception_ratio());
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
        assert_eq!(r.interception_ratio(), 0.0);
        assert_eq!(r.covered_packets, 0);
    }
}
