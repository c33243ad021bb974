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
//! * [`RouteCheckConfig`] — the hardening knobs, carried inside the MTS
//!   configuration.  With `enabled: false` (the default) the hardened code
//!   paths are never entered, so runs are byte-identical to the unhardened
//!   protocol.
//! * [`SuspicionTable`] — per-relay suspicion scores accumulated from failed
//!   route checks; path-set admission biases away from repeat offenders.
//!
//! The freshness test itself is [`RouteCheckConfig::seqno_is_suspicious`]: a
//! reply whose destination sequence number jumps implausibly far beyond the
//! best *credibly learned* value is quarantined instead of installed, and the
//! still-pending discovery retry doubles as the second, disjoint probe that
//! either confirms the destination through an independent reply or exposes
//! the forgery.

use manet_netsim::FxHashMap;
use manet_wire::{NodeId, SeqNo};

/// Configuration of the MTS route-check hardening mode.
///
/// # Examples
///
/// The default configuration leaves hardening off — the protocol behaves
/// exactly like the paper's MTS; [`RouteCheckConfig::hardened`] switches the
/// defenses on with calibrated defaults:
///
/// ```
/// use manet_routing::suspicion::RouteCheckConfig;
/// use manet_wire::SeqNo;
///
/// let plain = RouteCheckConfig::default();
/// assert!(!plain.enabled);
///
/// let hard = RouteCheckConfig::hardened();
/// assert!(hard.enabled);
/// hard.validate().expect("hardened defaults are valid");
///
/// // A genuine reply a few sequence numbers ahead is credible ...
/// assert!(!hard.seqno_is_suspicious(SeqNo(12), Some(SeqNo(9))));
/// // ... a black hole's near-maximal forgery is not.
/// assert!(hard.seqno_is_suspicious(SeqNo(0x00FF_FFFF), Some(SeqNo(9))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteCheckConfig {
    /// Master switch.  `false` (default) leaves every hardened code path
    /// unentered: runs are byte-identical to the unhardened protocol.
    pub enabled: bool,
    /// A route reply is *suspicious* when its destination sequence number
    /// exceeds the best credibly learned value by more than this jump.
    /// Genuine sequence numbers bump once per discovery or reply, so a few
    /// thousand is far beyond anything a run can legitimately reach while
    /// still catching the near-maximal forgeries attackers need to win the
    /// AODV freshness comparison.
    pub seqno_jump_threshold: u32,
    /// Suspicion score at which a relay is shunned: the destination rejects
    /// candidate paths through it and quarantined replies it delivered are
    /// never admitted.
    pub suspicion_threshold: f64,
    /// Total score distributed evenly across the intermediates of a path
    /// that fails a route check (the culprit cannot be singled out, so the
    /// blame is shared; repeat offenders accumulate it anyway).
    pub check_failure_penalty: f64,
    /// Score added to the relay that delivered a reply which stayed
    /// unconfirmed (quarantined, then displaced by a credible route).
    pub forgery_penalty: f64,
    /// Multiplicative decay applied to every score each checking round, so a
    /// relay that behaves recovers instead of being blacklisted forever.
    pub suspicion_decay: f64,
}

impl Default for RouteCheckConfig {
    fn default() -> Self {
        RouteCheckConfig {
            enabled: false,
            seqno_jump_threshold: 4096,
            suspicion_threshold: 2.0,
            check_failure_penalty: 1.0,
            forgery_penalty: 2.0,
            suspicion_decay: 0.95,
        }
    }
}

impl RouteCheckConfig {
    /// The hardened configuration: defaults with the master switch on.
    pub fn hardened() -> Self {
        RouteCheckConfig {
            enabled: true,
            ..Self::default()
        }
    }

    /// Validate invariants.  Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.seqno_jump_threshold == 0 {
            return Err("seqno_jump_threshold must be at least 1".into());
        }
        if !(self.suspicion_threshold > 0.0 && self.suspicion_threshold.is_finite()) {
            return Err("suspicion_threshold must be positive and finite".into());
        }
        if self.check_failure_penalty < 0.0 || !self.check_failure_penalty.is_finite() {
            return Err("check_failure_penalty must be non-negative and finite".into());
        }
        if self.forgery_penalty < 0.0 || !self.forgery_penalty.is_finite() {
            return Err("forgery_penalty must be non-negative and finite".into());
        }
        if !(0.0..=1.0).contains(&self.suspicion_decay) {
            return Err("suspicion_decay must be in [0, 1]".into());
        }
        Ok(())
    }

    /// Is a reply carrying `advertised` suspicious given the best credibly
    /// learned sequence number `credible` for the same destination?
    ///
    /// With no credible baseline the comparison runs against zero: sequence
    /// numbers start near zero, so a first contact advertising a huge value
    /// is exactly the forgery pattern this defense exists for.
    pub fn seqno_is_suspicious(&self, advertised: SeqNo, credible: Option<SeqNo>) -> bool {
        let baseline = credible.map_or(0, |s| s.0);
        advertised.0 > baseline.saturating_add(self.seqno_jump_threshold)
    }
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
    fn default_is_disabled_and_valid() {
        let c = RouteCheckConfig::default();
        assert!(!c.enabled);
        c.validate().unwrap();
        let h = RouteCheckConfig::hardened();
        assert!(h.enabled);
        assert_eq!(
            RouteCheckConfig {
                enabled: false,
                ..h
            },
            c,
            "hardened() only flips the switch"
        );
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let bad = |f: fn(&mut RouteCheckConfig)| {
            let mut c = RouteCheckConfig::hardened();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.seqno_jump_threshold = 0));
        assert!(bad(|c| c.suspicion_threshold = 0.0));
        assert!(bad(|c| c.suspicion_threshold = f64::NAN));
        assert!(bad(|c| c.check_failure_penalty = -1.0));
        assert!(bad(|c| c.forgery_penalty = f64::INFINITY));
        assert!(bad(|c| c.suspicion_decay = 1.5));
    }

    #[test]
    fn seqno_suspicion_catches_forgeries_not_genuine_bumps() {
        let c = RouteCheckConfig::hardened();
        // Genuine progress: small jumps over the credible baseline.
        assert!(!c.seqno_is_suspicious(SeqNo(5), None));
        assert!(!c.seqno_is_suspicious(SeqNo(300), Some(SeqNo(250))));
        assert!(!c.seqno_is_suspicious(SeqNo(4096), None), "boundary is ok");
        // Forgery: near-maximal values with no credible basis.
        assert!(c.seqno_is_suspicious(SeqNo(0x00FF_FFFF), None));
        assert!(c.seqno_is_suspicious(SeqNo(0x00FF_FFFF), Some(SeqNo(300))));
        // No overflow at the top of the seqno space.
        let top = RouteCheckConfig {
            seqno_jump_threshold: u32::MAX,
            ..c
        };
        assert!(!top.seqno_is_suspicious(SeqNo(u32::MAX), Some(SeqNo(1))));
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
