//! Route-check hardening: cross-validation of suspicious route replies and
//! per-relay suspicion scores.
//!
//! The MTS protocol's route checking (paper §III-D) detects *broken* paths,
//! but an insider that answers discoveries with forged, maximally fresh
//! route replies (the classical black-hole attraction) is never caught by
//! it: the forged reply poisons routing tables before a single checking
//! packet flows.  This module supplies the two defenses the hardened MTS
//! mode is built from, following AODVSEC's cross-validation idea
//! (arXiv:1208.1959) and trust-based multipath selection (arXiv:2006.01404):
//!
//! * the hardening constants ([`SEQNO_JUMP_THRESHOLD`],
//!   [`SUSPICION_THRESHOLD`], the two penalties and [`SUSPICION_DECAY`]).
//!   The mode itself is one switch of the MTS configuration; with it off
//!   (the default) the hardened code paths are never entered, so runs are
//!   byte-identical to the unhardened protocol.
//! * [`SuspicionTable`] — per-relay suspicion scores accumulated from failed
//!   route checks; path-set admission biases away from repeat offenders.
//!
//! The freshness test itself is [`seqno_is_suspicious`]: a
//! reply whose destination sequence number jumps implausibly far beyond the
//! best *credibly learned* value is quarantined instead of installed, and the
//! still-pending discovery retry doubles as the second, disjoint probe that
//! either confirms the destination through an independent reply or exposes
//! the forgery.

use manet_netsim::FxHashMap;
use manet_wire::{NodeId, SeqNo};

/// A route reply is *suspicious* when its destination sequence number
/// exceeds the best credibly learned value by more than this jump.  Genuine
/// sequence numbers bump once per discovery or reply, so a few thousand is
/// far beyond anything a run can legitimately reach while still catching the
/// near-maximal forgeries attackers need to win the AODV freshness
/// comparison.
pub const SEQNO_JUMP_THRESHOLD: u32 = 4096;

/// Suspicion score at which a relay is shunned: the destination rejects
/// candidate paths through it and quarantined replies it delivered are never
/// admitted.
pub const SUSPICION_THRESHOLD: f64 = 2.0;

/// Total score distributed evenly across the intermediates of a path that
/// fails a route check (the culprit cannot be singled out, so the blame is
/// shared; repeat offenders accumulate it anyway).
pub const CHECK_FAILURE_PENALTY: f64 = 1.0;

/// Score added to the relay that delivered a reply which stayed unconfirmed
/// (quarantined, then displaced by a credible route).
pub const FORGERY_PENALTY: f64 = 2.0;

/// Multiplicative decay applied to every score each checking round, so a
/// relay that behaves recovers instead of being blacklisted forever.
pub const SUSPICION_DECAY: f64 = 0.95;

/// Is a reply carrying `advertised` suspicious given the best credibly
/// learned sequence number `credible` for the same destination?
///
/// With no credible baseline the comparison runs against zero: sequence
/// numbers start near zero, so a first contact advertising a huge value is
/// exactly the forgery pattern this defense exists for.
///
/// # Examples
///
/// ```
/// use manet_routing::suspicion::seqno_is_suspicious;
/// use manet_wire::SeqNo;
///
/// // A genuine reply a few sequence numbers ahead is credible ...
/// assert!(!seqno_is_suspicious(SeqNo(12), Some(SeqNo(9))));
/// // ... a black hole's near-maximal forgery is not.
/// assert!(seqno_is_suspicious(SeqNo(0x00FF_FFFF), Some(SeqNo(9))));
/// ```
pub fn seqno_is_suspicious(advertised: SeqNo, credible: Option<SeqNo>) -> bool {
    let baseline = credible.map_or(0, |s| s.0);
    advertised.0 > baseline.saturating_add(SEQNO_JUMP_THRESHOLD)
}

/// Per-relay suspicion scores.
///
/// Scores only ever matter in hardened mode; an empty table costs one hash
/// lookup per query and decays are no-ops.
///
/// # Examples
///
/// ```
/// use manet_routing::suspicion::SuspicionTable;
/// use manet_wire::NodeId;
///
/// let mut table = SuspicionTable::new();
/// table.penalize(NodeId(7), 1.5);
/// table.penalize(NodeId(7), 1.0);
/// assert!(table.is_suspect(NodeId(7), 2.0));
/// assert!(!table.is_suspect(NodeId(8), 2.0));
///
/// // Scores decay multiplicatively, so behaving relays recover.
/// for _ in 0..32 {
///     table.decay_all(0.5);
/// }
/// assert!(!table.is_suspect(NodeId(7), 2.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuspicionTable {
    scores: FxHashMap<NodeId, f64>,
}

impl SuspicionTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` to `node`'s suspicion score.
    pub fn penalize(&mut self, node: NodeId, amount: f64) {
        if amount > 0.0 {
            *self.scores.entry(node).or_insert(0.0) += amount;
        }
    }

    /// Current score of `node` (0 if never penalized).
    pub fn score(&self, node: NodeId) -> f64 {
        self.scores.get(&node).copied().unwrap_or(0.0)
    }

    /// True when `node`'s score has reached `threshold`.
    pub fn is_suspect(&self, node: NodeId, threshold: f64) -> bool {
        self.score(node) >= threshold
    }

    /// Sum of the scores of a path's intermediate nodes (used to bias the
    /// destination's path-set admission towards clean paths).
    pub fn path_score(&self, intermediates: &[NodeId]) -> f64 {
        intermediates.iter().map(|&n| self.score(n)).sum()
    }

    /// True when any node of `intermediates` is a suspect at `threshold`.
    pub fn any_suspect(&self, intermediates: &[NodeId], threshold: f64) -> bool {
        intermediates.iter().any(|&n| self.is_suspect(n, threshold))
    }

    /// Decay every score multiplicatively; scores that become negligible are
    /// dropped so the table stays small.
    pub fn decay_all(&mut self, factor: f64) {
        debug_assert!((0.0..=1.0).contains(&factor));
        self.scores.retain(|_, s| {
            *s *= factor;
            *s > 1e-3
        });
    }

    /// Number of relays with a live score (diagnostics / tests).
    pub fn tracked(&self) -> usize {
        self.scores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqno_suspicion_catches_forgeries_not_genuine_bumps() {
        // Genuine progress: small jumps over the credible baseline.
        assert!(!seqno_is_suspicious(SeqNo(5), None));
        assert!(!seqno_is_suspicious(SeqNo(300), Some(SeqNo(250))));
        assert!(!seqno_is_suspicious(SeqNo(4096), None), "boundary is ok");
        assert!(seqno_is_suspicious(SeqNo(4097), None));
        // Forgery: near-maximal values with no credible basis.
        assert!(seqno_is_suspicious(SeqNo(0x00FF_FFFF), None));
        assert!(seqno_is_suspicious(SeqNo(0x00FF_FFFF), Some(SeqNo(300))));
        // No overflow at the top of the seqno space.
        assert!(!seqno_is_suspicious(
            SeqNo(u32::MAX),
            Some(SeqNo(u32::MAX - 1))
        ));
    }

    #[test]
    fn suspicion_scores_accumulate_and_decay() {
        let mut t = SuspicionTable::new();
        assert_eq!(t.score(NodeId(1)), 0.0);
        t.penalize(NodeId(1), 1.0);
        t.penalize(NodeId(1), 1.0);
        t.penalize(NodeId(2), 0.5);
        t.penalize(NodeId(3), 0.0); // no-op
        assert_eq!(t.score(NodeId(1)), 2.0);
        assert!(t.is_suspect(NodeId(1), 2.0));
        assert!(!t.is_suspect(NodeId(2), 2.0));
        assert_eq!(t.tracked(), 2);
        assert_eq!(t.path_score(&[NodeId(1), NodeId(2), NodeId(9)]), 2.5);
        assert!(t.any_suspect(&[NodeId(5), NodeId(1)], 2.0));
        assert!(!t.any_suspect(&[NodeId(5), NodeId(9)], 2.0));
        // Decay to negligibility drops the entries entirely.
        for _ in 0..64 {
            t.decay_all(0.5);
        }
        assert_eq!(t.tracked(), 0);
        assert_eq!(t.score(NodeId(1)), 0.0);
    }
}
