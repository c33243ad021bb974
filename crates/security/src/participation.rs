//! Participation and relay-distribution metrics (paper Eqs. 2–4, Table I,
//! Figs. 5–6).
//!
//! * A **participating node** is any intermediate node that relayed at least
//!   one data packet during the session (Fig. 5: more participants means the
//!   traffic is spread more widely, so a single eavesdropper sees less).
//! * The **relay distribution** normalizes each participant's relay count
//!   β_i by the total α = Σ β_i (Eq. 2–3) and reports the standard deviation
//!   of the shares γ_i (Eq. 4, Fig. 6, worked example in Table I).  A lower
//!   standard deviation means the relay burden — and therefore the exposure —
//!   is spread more evenly.

use manet_netsim::Recorder;
use manet_wire::NodeId;

/// One row of the paper's Table I: a participating node with its raw relay
/// count β and normalized share γ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayTableRow {
    /// Participating node.
    pub node: NodeId,
    /// Relay events of data packets at the node (β_i): a packet relayed
    /// again after a MAC retry or a TCP retransmission counts again.
    pub beta: u64,
    /// Normalized share of the total relays (γ_i ∈ [0, 1]).
    pub gamma: f64,
}

/// The normalized relay distribution of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelayDistribution {
    /// Per-node rows, sorted by node id (Table I layout).
    pub rows: Vec<RelayTableRow>,
    /// Sum of all relay counts (α in Eq. 2).
    pub alpha: u64,
    /// Standard deviation of the shares (σ in Eq. 4).
    pub std_dev: f64,
}

impl RelayDistribution {
    /// Number of participating nodes.
    pub fn participants(&self) -> usize {
        self.rows.len()
    }

    /// The largest share held by any single participant.
    pub fn max_share(&self) -> f64 {
        self.rows.iter().map(|r| r.gamma).fold(0.0, f64::max)
    }
}

/// Number of participating nodes (intermediate nodes that relayed at least
/// one data packet), the metric of Fig. 5.
pub fn participating_nodes(recorder: &Recorder) -> usize {
    recorder.relay_counts().values().filter(|&&c| c > 0).count()
}

/// Compute the normalized relay distribution (Eqs. 2–4 / Table I).
pub fn relay_distribution(recorder: &Recorder) -> RelayDistribution {
    let counts = recorder.relay_counts();
    let mut rows: Vec<RelayTableRow> = counts
        .iter()
        .filter(|(_, &beta)| beta > 0)
        .map(|(&node, &beta)| RelayTableRow {
            node,
            beta,
            gamma: 0.0,
        })
        .collect();
    rows.sort_by_key(|r| r.node);
    let alpha: u64 = rows.iter().map(|r| r.beta).sum();
    if alpha == 0 || rows.is_empty() {
        return RelayDistribution {
            rows,
            alpha,
            std_dev: 0.0,
        };
    }
    for row in &mut rows {
        row.gamma = row.beta as f64 / alpha as f64;
    }
    let n = rows.len() as f64;
    let mean = rows.iter().map(|r| r.gamma).sum::<f64>() / n;
    let sum_sq = rows.iter().map(|r| (r.gamma - mean).powi(2)).sum::<f64>();
    // Eq. 4 writes the population form (divide by N), but the worked example
    // in Table I (σ = 19.6 % for these β values) only matches the *sample*
    // standard deviation (divide by N − 1).  We follow the worked example so
    // the reproduced Table I is numerically comparable; see EXPERIMENTS.md.
    let variance = if rows.len() > 1 {
        sum_sq / (n - 1.0)
    } else {
        sum_sq / n
    };
    RelayDistribution {
        rows,
        alpha,
        std_dev: variance.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_netsim::{Observation, SimTime};
    use manet_wire::{ConnectionId, DataPacket, PacketId, TcpSegment};

    fn recorder_with_relays(counts: &[(u16, u64)]) -> Recorder {
        let mut rec = Recorder::new();
        let mut pid = 0u64;
        for &(node, n) in counts {
            for _ in 0..n {
                let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
                let packet = &DataPacket::new(PacketId(pid), NodeId(0), NodeId(9), segment);
                rec.observe(
                    SimTime::ZERO,
                    Observation::Relay {
                        node: NodeId(node),
                        packet,
                    },
                );
                pid += 1;
            }
        }
        rec
    }

    #[test]
    fn participants_count_nodes_with_any_relay() {
        let rec = recorder_with_relays(&[(2, 5), (3, 1), (7, 100)]);
        assert_eq!(participating_nodes(&rec), 3);
        assert_eq!(participating_nodes(&Recorder::new()), 0);
    }

    #[test]
    fn shares_sum_to_one_and_alpha_matches() {
        let rec = recorder_with_relays(&[(2, 10), (3, 30), (4, 60)]);
        let d = relay_distribution(&rec);
        assert_eq!(d.alpha, 100);
        assert_eq!(d.participants(), 3);
        let total: f64 = d.rows.iter().map(|r| r.gamma).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((d.max_share() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn uniform_distribution_has_zero_std_dev() {
        let rec = recorder_with_relays(&[(1, 50), (2, 50), (3, 50), (4, 50)]);
        let d = relay_distribution(&rec);
        assert!(d.std_dev < 1e-12);
    }

    #[test]
    fn concentrated_distribution_has_higher_std_dev_than_even_one() {
        let even = relay_distribution(&recorder_with_relays(&[(1, 25), (2, 25), (3, 25), (4, 25)]));
        let skewed = relay_distribution(&recorder_with_relays(&[(1, 97), (2, 1), (3, 1), (4, 1)]));
        assert!(skewed.std_dev > even.std_dev);
    }

    #[test]
    fn table1_style_worked_example() {
        // A distribution shaped like the paper's Table I (two heavy relays,
        // several light ones) must give a standard deviation in the right
        // ballpark (the paper reports 19.6 % for its example).
        let rec = recorder_with_relays(&[
            (2, 10581),
            (3, 283),
            (17, 1),
            (21, 3886),
            (23, 1),
            (28, 15458),
            (36, 275),
            (45, 1),
        ]);
        let d = relay_distribution(&rec);
        assert_eq!(d.alpha, 30486);
        assert_eq!(d.participants(), 8);
        assert!((d.std_dev - 0.196).abs() < 0.005, "std_dev = {}", d.std_dev);
        // The heaviest relay (node 28) carries just over half the load.
        assert!((d.max_share() - 0.507).abs() < 0.001);
    }

    #[test]
    fn empty_run_yields_empty_distribution() {
        let d = relay_distribution(&Recorder::new());
        assert_eq!(d.participants(), 0);
        assert_eq!(d.alpha, 0);
        assert_eq!(d.std_dev, 0.0);
        assert_eq!(d.max_share(), 0.0);
    }

    #[test]
    fn rows_are_sorted_by_node_id() {
        let rec = recorder_with_relays(&[(9, 1), (2, 1), (5, 1)]);
        let d = relay_distribution(&rec);
        let ids: Vec<u16> = d.rows.iter().map(|r| r.node.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
