//! Source-side route state: the adaptive "current best route".
//!
//! The source receives one checking packet per stored path per checking
//! round.  The paper's rule is simple: the route whose checking packet
//! arrives *first* in a round is the best one and becomes the current route
//! immediately (§III-E).  This module tracks per-round arrivals, exposes the
//! current next hop, and — for the SMR-like ablation — the list of every path
//! that reported alive in the latest round (for round-robin striping).

use manet_netsim::SimTime;
use manet_wire::{CheckId, NodeId};

/// One checking-packet arrival observed by the source.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArrival {
    /// Checking round.
    pub round: CheckId,
    /// Neighbour the checking packet arrived from — the next hop of the
    /// corresponding forward path.
    pub next_hop: NodeId,
    /// Full path (source..destination) the checking packet travelled.
    pub path: Vec<NodeId>,
    /// Arrival time.
    pub at: SimTime,
}

/// The source's view of its routes towards one destination.
#[derive(Debug, Clone, Default)]
pub struct SourceRouteState {
    /// Current best next hop (None until a RREP or checking packet arrives).
    current_next_hop: Option<NodeId>,
    /// Full path of the current route, when known.
    current_path: Vec<NodeId>,
    /// Latest checking round observed.
    latest_round: Option<CheckId>,
    /// Arrivals of the latest round, in arrival order (first = best).
    round_arrivals: Vec<CheckArrival>,
    /// Round-robin cursor for the concurrent-striping ablation.
    stripe_cursor: usize,
}

impl SourceRouteState {
    /// Fresh, route-less state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current best next hop, if any.
    pub fn next_hop(&self) -> Option<NodeId> {
        self.current_next_hop
    }

    /// Full node list of the current route (empty if unknown).
    pub fn current_path(&self) -> &[NodeId] {
        &self.current_path
    }

    /// Latest checking round the source has seen.
    pub fn latest_round(&self) -> Option<CheckId> {
        self.latest_round
    }

    /// Arrivals observed in the latest round, in arrival order.
    pub fn round_arrivals(&self) -> &[CheckArrival] {
        &self.round_arrivals
    }

    /// Install the route learned from the initial RREP (before any checking
    /// packet has been received).
    pub fn install_initial(&mut self, next_hop: NodeId, path: Vec<NodeId>) {
        self.current_next_hop = Some(next_hop);
        self.current_path = path;
    }

    /// Process a checking-packet arrival.  Returns `true` if the current
    /// route changed (the arrival was the first of a new round and named a
    /// different next hop).
    pub fn on_check_arrival(&mut self, arrival: CheckArrival) -> bool {
        let new_round = match self.latest_round {
            None => true,
            Some(r) => arrival.round.0 > r.0,
        };
        if new_round {
            // First packet of a new round: this is the best route now.
            self.latest_round = Some(arrival.round);
            self.round_arrivals.clear();
            self.stripe_cursor = 0;
            let changed = self.current_next_hop != Some(arrival.next_hop);
            self.current_next_hop = Some(arrival.next_hop);
            self.current_path = arrival.path.clone();
            self.round_arrivals.push(arrival);
            changed
        } else if self.latest_round == Some(arrival.round) {
            // Later arrival of the same round: remember it (striping /
            // fallback) but do not switch.
            if !self
                .round_arrivals
                .iter()
                .any(|a| a.next_hop == arrival.next_hop)
            {
                self.round_arrivals.push(arrival);
            }
            false
        } else {
            // Stale round: ignore.
            false
        }
    }

    /// The route broke (link failure / RERR): forget it.  The next checking
    /// round or discovery will re-establish one.
    pub fn invalidate(&mut self) {
        self.current_next_hop = None;
        self.current_path.clear();
    }

    /// Invalidate only if the current next hop is `hop`.  Returns true if the
    /// route was dropped.
    pub fn invalidate_via(&mut self, hop: NodeId) -> bool {
        if self.current_next_hop == Some(hop) {
            self.invalidate();
            true
        } else {
            false
        }
    }

    /// Next hop to use for the concurrent-striping ablation: round-robins
    /// across every path that reported alive in the latest round, falling
    /// back to the current best.
    pub fn striped_next_hop(&mut self) -> Option<NodeId> {
        if self.round_arrivals.is_empty() {
            return self.current_next_hop;
        }
        let hop = self.round_arrivals[self.stripe_cursor % self.round_arrivals.len()].next_hop;
        self.stripe_cursor = self.stripe_cursor.wrapping_add(1);
        Some(hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn arrival(round: u32, hop: u16, at: f64) -> CheckArrival {
        CheckArrival {
            round: CheckId(round),
            next_hop: NodeId(hop),
            path: vec![NodeId(0), NodeId(hop), NodeId(9)],
            at: t(at),
        }
    }

    #[test]
    fn first_arrival_of_a_round_wins() {
        let mut s = SourceRouteState::new();
        assert!(s.on_check_arrival(arrival(1, 3, 1.0)));
        assert_eq!(s.next_hop(), Some(NodeId(3)));
        // Second arrival of the same round does not displace the first.
        assert!(!s.on_check_arrival(arrival(1, 4, 1.1)));
        assert_eq!(s.next_hop(), Some(NodeId(3)));
        assert_eq!(s.round_arrivals().len(), 2);
    }

    #[test]
    fn new_round_switches_to_its_first_arrival() {
        let mut s = SourceRouteState::new();
        s.on_check_arrival(arrival(1, 3, 1.0));
        assert!(s.on_check_arrival(arrival(2, 5, 4.0)));
        assert_eq!(s.next_hop(), Some(NodeId(5)));
        // Same next hop in a later round: not a switch.
        assert!(!s.on_check_arrival(arrival(3, 5, 7.0)));
        assert_eq!(s.next_hop(), Some(NodeId(5)));
    }

    #[test]
    fn stale_round_is_ignored() {
        let mut s = SourceRouteState::new();
        s.on_check_arrival(arrival(5, 3, 1.0));
        assert!(!s.on_check_arrival(arrival(4, 7, 1.5)));
        assert_eq!(s.next_hop(), Some(NodeId(3)));
    }

    #[test]
    fn initial_rrep_installs_route_and_invalidation_clears_it() {
        let mut s = SourceRouteState::new();
        s.install_initial(NodeId(2), vec![NodeId(0), NodeId(2), NodeId(9)]);
        assert_eq!(s.next_hop(), Some(NodeId(2)));
        assert_eq!(s.current_path().len(), 3);
        assert!(!s.invalidate_via(NodeId(4)));
        assert!(s.invalidate_via(NodeId(2)));
        assert_eq!(s.next_hop(), None);
        assert!(s.current_path().is_empty());
    }

    #[test]
    fn striping_round_robins_over_round_arrivals() {
        let mut s = SourceRouteState::new();
        s.on_check_arrival(arrival(1, 3, 1.0));
        s.on_check_arrival(arrival(1, 4, 1.1));
        s.on_check_arrival(arrival(1, 5, 1.2));
        let hops: Vec<u16> = (0..6).map(|_| s.striped_next_hop().unwrap().0).collect();
        assert_eq!(hops, vec![3, 4, 5, 3, 4, 5]);
        // Without any arrivals, fall back to the best route.
        let mut empty = SourceRouteState::new();
        empty.install_initial(NodeId(7), vec![]);
        assert_eq!(empty.striped_next_hop(), Some(NodeId(7)));
    }
}
