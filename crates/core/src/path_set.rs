//! The destination's stored set of disjoint paths.
//!
//! The destination node collects candidate paths from the copies of each RREQ
//! flood it receives, keeps at most `max_paths` mutually disjoint ones
//! (next-hop / last-hop rule), prunes paths reported dead by checking-error
//! packets, and flushes everything when a fresh RREQ (larger broadcast id)
//! arrives (paper §III-B, §III-D).

use crate::disjoint::{first_last_hop_disjoint, has_loop};
use manet_netsim::SimTime;
use manet_wire::{BroadcastId, NodeId};

/// One stored path at the destination.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPath {
    /// Full node sequence `source, intermediates..., destination`.
    pub full_path: Vec<NodeId>,
    /// When the path was stored.
    pub stored_at: SimTime,
    /// Checking rounds this path has failed (reset on success).
    pub failed_checks: u32,
}

impl StoredPath {
    /// The intermediate node list (excludes both endpoints), as carried in
    /// checking packets.
    pub fn intermediates(&self) -> &[NodeId] {
        if self.full_path.len() <= 2 {
            &[]
        } else {
            &self.full_path[1..self.full_path.len() - 1]
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.full_path.len().saturating_sub(1)
    }
}

/// The disjoint path set one destination keeps for one source.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    max_paths: usize,
    /// Broadcast id of the flood the stored paths belong to.
    flood: Option<BroadcastId>,
    paths: Vec<StoredPath>,
}

impl PathSet {
    /// Path set bounded at `max_paths` entries.
    pub fn new(max_paths: usize) -> Self {
        PathSet {
            max_paths,
            flood: None,
            paths: Vec::new(),
        }
    }

    /// The stored paths, in insertion (RREQ arrival) order.
    pub fn paths(&self) -> &[StoredPath] {
        &self.paths
    }

    /// Number of stored paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no path is stored.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The broadcast id the stored paths belong to.
    pub fn flood(&self) -> Option<BroadcastId> {
        self.flood
    }

    /// Offer a candidate path from a RREQ copy belonging to flood `flood`.
    ///
    /// * A *newer* flood (larger broadcast id) flushes every stored path
    ///   first (paper §III-D: "When a new RREQ packet ... reaches the
    ///   destination, all the existing legitimate paths are flushed").
    /// * An *older* flood is ignored.
    /// * The candidate is stored if the set has room, the path is loop-free
    ///   and it passes the next-hop/last-hop disjointness rule against every
    ///   stored path.
    ///
    /// Returns `true` if the path was stored.
    pub fn offer(&mut self, flood: BroadcastId, full_path: Vec<NodeId>, now: SimTime) -> bool {
        match self.flood {
            Some(current) if flood.0 < current.0 => return false,
            Some(current) if flood.0 > current.0 => {
                self.paths.clear();
                self.flood = Some(flood);
            }
            None => self.flood = Some(flood),
            _ => {}
        }
        if full_path.len() < 2 || has_loop(&full_path) {
            return false;
        }
        if self.paths.len() >= self.max_paths {
            return false;
        }
        if self.paths.iter().any(|p| p.full_path == full_path) {
            return false;
        }
        let disjoint = self
            .paths
            .iter()
            .all(|p| first_last_hop_disjoint(&p.full_path, &full_path));
        if !disjoint {
            return false;
        }
        self.paths.push(StoredPath {
            full_path,
            stored_at: now,
            failed_checks: 0,
        });
        true
    }

    /// Remove the path at `index` (e.g. after a checking-error report).
    /// Returns the removed path, if the index was valid.
    pub fn remove(&mut self, index: usize) -> Option<StoredPath> {
        if index < self.paths.len() {
            Some(self.paths.remove(index))
        } else {
            None
        }
    }

    /// Remove the stored path whose node sequence matches `full_path`.
    pub fn remove_path(&mut self, full_path: &[NodeId]) -> bool {
        let before = self.paths.len();
        self.paths.retain(|p| p.full_path != full_path);
        self.paths.len() != before
    }

    /// Drop every stored path (new discovery under way).
    pub fn flush(&mut self) {
        self.paths.clear();
        self.flood = None;
    }

    /// Mark a failed checking round for the path at `index`; paths that fail
    /// `max_failures` consecutive rounds are removed.  Returns true if the
    /// path was removed.
    pub fn record_check_failure(&mut self, index: usize, max_failures: u32) -> bool {
        if let Some(p) = self.paths.get_mut(index) {
            p.failed_checks += 1;
            if p.failed_checks >= max_failures {
                self.paths.remove(index);
                return true;
            }
        }
        false
    }

    /// Reset the failure counter of the path at `index` (its checking packet
    /// reached the source).
    pub fn record_check_success(&mut self, index: usize) {
        if let Some(p) = self.paths.get_mut(index) {
            p.failed_checks = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn p(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn stores_up_to_max_disjoint_paths() {
        let mut set = PathSet::new(2);
        assert!(set.offer(BroadcastId(1), p(&[0, 1, 2, 9]), t(0.0)));
        assert!(set.offer(BroadcastId(1), p(&[0, 3, 4, 9]), t(0.1)));
        // Third disjoint path rejected: capacity reached.
        assert!(!set.offer(BroadcastId(1), p(&[0, 5, 6, 9]), t(0.2)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn rejects_non_disjoint_and_loopy_paths() {
        let mut set = PathSet::new(5);
        assert!(set.offer(BroadcastId(1), p(&[0, 1, 2, 9]), t(0.0)));
        // Same first hop.
        assert!(!set.offer(BroadcastId(1), p(&[0, 1, 5, 9]), t(0.1)));
        // Same last hop.
        assert!(!set.offer(BroadcastId(1), p(&[0, 6, 2, 9]), t(0.1)));
        // Loop.
        assert!(!set.offer(BroadcastId(1), p(&[0, 3, 3, 9]), t(0.1)));
        // Duplicate.
        assert!(!set.offer(BroadcastId(1), p(&[0, 1, 2, 9]), t(0.1)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn newer_flood_flushes_older_paths() {
        let mut set = PathSet::new(5);
        set.offer(BroadcastId(1), p(&[0, 1, 2, 9]), t(0.0));
        set.offer(BroadcastId(1), p(&[0, 3, 4, 9]), t(0.1));
        assert_eq!(set.len(), 2);
        // Newer flood: everything flushed, new path stored.
        assert!(set.offer(BroadcastId(2), p(&[0, 5, 6, 9]), t(1.0)));
        assert_eq!(set.len(), 1);
        assert_eq!(set.flood(), Some(BroadcastId(2)));
        // Stale flood ignored.
        assert!(!set.offer(BroadcastId(1), p(&[0, 7, 8, 9]), t(1.1)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn remove_and_flush() {
        let mut set = PathSet::new(5);
        set.offer(BroadcastId(1), p(&[0, 1, 2, 9]), t(0.0));
        set.offer(BroadcastId(1), p(&[0, 3, 4, 9]), t(0.1));
        let removed = set.remove(0).unwrap();
        assert_eq!(removed.full_path, p(&[0, 1, 2, 9]));
        assert!(set.remove(5).is_none());
        assert!(set.remove_path(&p(&[0, 3, 4, 9])));
        assert!(!set.remove_path(&p(&[0, 3, 4, 9])));
        set.offer(BroadcastId(1), p(&[0, 5, 6, 9]), t(0.2));
        set.flush();
        assert!(set.is_empty());
        assert_eq!(set.flood(), None);
    }

    #[test]
    fn check_failures_evict_after_threshold() {
        let mut set = PathSet::new(5);
        set.offer(BroadcastId(1), p(&[0, 1, 2, 9]), t(0.0));
        assert!(!set.record_check_failure(0, 2));
        set.record_check_success(0);
        assert!(!set.record_check_failure(0, 2));
        assert!(set.record_check_failure(0, 2));
        assert!(set.is_empty());
    }

    #[test]
    fn stored_path_accessors() {
        let sp = StoredPath {
            full_path: p(&[0, 1, 2, 9]),
            stored_at: t(0.0),
            failed_checks: 0,
        };
        assert_eq!(sp.intermediates(), &p(&[1, 2])[..]);
        assert_eq!(sp.hops(), 3);
        let single = StoredPath {
            full_path: p(&[0, 9]),
            stored_at: t(0.0),
            failed_checks: 0,
        };
        assert!(single.intermediates().is_empty());
    }
}
