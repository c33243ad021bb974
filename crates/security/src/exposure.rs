//! Exposure: the one quantity behind every confidentiality ratio.
//!
//! The interception ratio `Ri = Pe / Pr` (Eq. 1), its worst case over the
//! relays (Fig. 7), a coalition's ratio and the attackers' capture ratio are
//! all
//!
//! ```text
//! exposure(S_1, …, S_n) = | (S_1 ∪ … ∪ S_n)  ∩  delivered |  /  | delivered |
//! ```
//!
//! over different packet sets: one node's heard set (the designated
//! eavesdropper), one node's relayed set (the worst-case scan), the members'
//! sets of a coalition, or the hostile nodes' relayed sets and the wormhole's
//! tunneled set (capture).  `delivered` is the set of unique data packets
//! that reached their destination.  Restricting the union to it keeps every
//! ratio a coverage in `[0, 1]` that compares across protocols: a packet
//! heard but never delivered is not part of the session, and a protocol that
//! delivers nothing exposes nothing.

use manet_netsim::{PacketSet, Recorder};

/// How much of a run's delivered data a union of packet sets covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exposure {
    /// Unique delivered data packets in at least one of the sets (`Pe`).
    pub covered: u64,
    /// Unique data packets delivered to their destination (`Pr`).
    pub delivered: u64,
}

impl Exposure {
    /// `covered / delivered`, in `[0, 1]` (0 when nothing was delivered).
    pub fn ratio(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.covered as f64 / self.delivered as f64
        }
    }
}

/// The exposure of `sets` in a finished run: their union, built 64 ids at a
/// time, counted by [`Recorder::delivered_in`].
pub fn exposure<'a>(
    recorder: &Recorder,
    sets: impl IntoIterator<Item = &'a PacketSet>,
) -> Exposure {
    let mut sets = sets.into_iter().filter(|set| !set.is_empty());
    let covered = match (sets.next(), sets.next()) {
        (None, _) => 0,
        // The per-node scans, and a capture without a wormhole, leave one
        // set, which needs no union.
        (Some(only), None) => recorder.delivered_in(only),
        (Some(first), Some(second)) => {
            let mut union = first.clone();
            union.union_with(second);
            sets.for_each(|set| union.union_with(set));
            recorder.delivered_in(&union)
        }
    };
    Exposure {
        covered,
        delivered: recorder.delivered_data_packets(),
    }
}
