//! A transmitter's cached neighbourhood and how long it may be reused.
//!
//! A relay sends a couple of hundred frames per second, while the sets a
//! transmission needs — who carrier-senses it, who receives it — change only
//! when some node crosses one of two circles around the transmitter.  The
//! engine therefore keeps, per node, the result of its last candidate scan
//! together with an instant `valid_until` before which no crossing is
//! possible, and skips the scan until then.
//!
//! # Why a hit equals a scan
//!
//! * The scan covers radius `cs_range + H`.  Every node it classified is
//!   `gap` metres from the nearer circle, every node it never saw is farther
//!   than `cs_range + H` from the transmitter, so `m = min(H, smallest gap)`
//!   is a margin no node is inside.
//! * Two nodes approach or part at no more than `2·v̂`, `v̂` being the largest
//!   leg speed the mobility model has issued; a distance needs `m / (2·v̂)`
//!   seconds to move by `m`.
//! * `valid_until = now + (m − 1 µm) / (2·v̂)`; the micrometre absorbs the
//!   rounding of position evaluation and of leg hand-overs.
//! * A leg faster than `v̂`, or one that does not start where its node
//!   stands, breaks the bound: the engine then invalidates every cache.
//! * Only membership is cached.  Busy-window writes, reception intervals,
//!   receiver order and everything at `TxEnd` run as after a scan.
//!
//! Debug builds re-derive both sets on every hit and assert equality, and
//! check every scan against the brute-force answer (`World::scan`), which
//! is what the "never saw ⇒ farther than `cs_range + H`" step rests on.

use crate::time::{Duration, SimTime};
use manet_wire::NodeId;

/// `H`: how far beyond carrier-sense range a scan looks, which caps the
/// margin a cache entry can claim.  Larger values buy longer validity from a
/// costlier scan; 25–60 m measured alike, 120 m worse.
pub(crate) const SCAN_HORIZON_M: f64 = 50.0;

/// Margin withheld from every entry; an entry with no more than this is not
/// cached at all.
const MARGIN_SLACK_M: f64 = 1e-6;

/// The sets one transmission from a node needs, and until when they hold.
#[derive(Debug, Default)]
pub(crate) struct Neighborhood {
    /// Nodes within carrier-sense range, in scan order.
    pub(crate) sensed: Vec<NodeId>,
    /// Nodes within transmission range, sorted by id.  Lent to the
    /// transmission in flight and handed back at its `TxEnd`.
    pub(crate) receivers: Vec<NodeId>,
    /// The sets hold at every instant strictly before this one.
    valid_until: SimTime,
}

impl Neighborhood {
    /// True if the sets may be used at `now` without a scan.
    #[inline]
    pub(crate) fn holds_at(&self, now: SimTime) -> bool {
        now < self.valid_until
    }

    /// Forget the validity (the lists keep their capacity).
    pub(crate) fn invalidate(&mut self) {
        self.valid_until = SimTime::ZERO;
    }

    /// Start a rescan.
    pub(crate) fn begin(&mut self) {
        self.sensed.clear();
        self.receivers.clear();
    }

    /// Classify one scanned node `d_sq` squared metres from the transmitter;
    /// returns its distance to the nearer circle.
    #[inline]
    pub(crate) fn offer(&mut self, other: NodeId, d_sq: f64, range_m: f64, cs_m: f64) -> f64 {
        if d_sq <= cs_m * cs_m {
            self.sensed.push(other);
        }
        if d_sq <= range_m * range_m {
            self.receivers.push(other);
        }
        let d = d_sq.sqrt();
        (d - range_m).abs().min((d - cs_m).abs())
    }

    /// Finish a rescan made at `now`: order the receivers (their order fixes
    /// RNG consumption and callback order at `TxEnd`, so it must not depend
    /// on how candidates were visited) and set the validity.  `gap` is the
    /// smallest distance [`Neighborhood::offer`] returned and `top_speed` is
    /// `v̂`.
    pub(crate) fn seal(&mut self, now: SimTime, gap: f64, top_speed: f64) {
        self.receivers.sort_unstable();
        self.valid_until = valid_until(now, gap, top_speed);
    }

    /// True if both sets have the same members as `other`'s.
    #[cfg(debug_assertions)]
    pub(crate) fn same_sets(&self, other: &Neighborhood) -> bool {
        let sorted = |v: &[NodeId]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        sorted(&self.sensed) == sorted(&other.sensed)
            && sorted(&self.receivers) == sorted(&other.receivers)
    }
}

/// Until when sets scanned at `now` hold, given the smallest `gap` to either
/// circle among the scanned nodes and the speed bound `top_speed` (`v̂`).
fn valid_until(now: SimTime, gap: f64, top_speed: f64) -> SimTime {
    let margin = gap.min(SCAN_HORIZON_M) - MARGIN_SLACK_M;
    if margin <= 0.0 {
        return now;
    }
    // `v̂ = 0` divides to infinity: nothing has moved yet, and the first leg
    // that does invalidates the entry, so it holds for the rest of the run.
    now + Duration::from_secs((margin / (2.0 * top_speed)).min(f64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::ZERO;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn the_margin_is_capped_at_the_scan_horizon() {
        // No scanned node at all, or one 400 m from either circle: unscanned
        // nodes may sit just past the horizon, so H is all that can be claimed.
        let capped = (SCAN_HORIZON_M - MARGIN_SLACK_M) / 40.0;
        assert_eq!(valid_until(at(3.0), f64::INFINITY, 20.0), at(3.0 + capped));
        assert_eq!(valid_until(at(3.0), 400.0, 20.0), at(3.0 + capped));
        // Inside the horizon the gap itself counts, less the slack, at the
        // closing speed of two nodes.
        assert_eq!(
            valid_until(T, 10.0, 5.0),
            at((10.0 - MARGIN_SLACK_M) / 10.0)
        );
    }

    #[test]
    fn a_world_that_never_moved_is_cached_for_the_whole_run() {
        assert!(valid_until(at(7.0), 0.5, 0.0) > at(1e12));
        assert!(valid_until(at(7.0), f64::INFINITY, 0.0) > at(1e12));
    }

    #[test]
    fn a_node_on_a_circle_is_never_cached() {
        for v in [0.0, 0.05, 20.0] {
            assert_eq!(valid_until(at(2.0), 0.0, v), at(2.0));
            assert_eq!(valid_until(at(2.0), MARGIN_SLACK_M, v), at(2.0));
            assert!(valid_until(at(2.0), 2.0 * MARGIN_SLACK_M, v) > at(2.0));
        }
    }

    #[test]
    fn offers_are_classified_by_the_engines_comparisons() {
        let mut hood = Neighborhood::default();
        let offer =
            |hood: &mut Neighborhood, id: u16, d: f64| hood.offer(NodeId(id), d * d, 250.0, 450.0);
        hood.begin();
        let gaps = [
            offer(&mut hood, 9, 250.0), // on the range circle
            offer(&mut hood, 4, 450.0), // on the carrier-sense circle
            offer(&mut hood, 2, 100.0),
            offer(&mut hood, 7, 480.0), // scanned, outside both
        ];
        assert_eq!(gaps, [0.0, 0.0, 150.0, 30.0]);
        hood.seal(at(1.0), 0.0, 20.0);
        assert_eq!(hood.sensed, vec![NodeId(9), NodeId(4), NodeId(2)]);
        assert_eq!(hood.receivers, vec![NodeId(2), NodeId(9)]);
        assert!(!hood.holds_at(at(1.0)), "a node on a circle: no margin");

        hood.begin();
        let gap = offer(&mut hood, 2, 100.0).min(offer(&mut hood, 7, 480.0));
        hood.seal(at(1.0), gap, 20.0);
        let until = 1.0 + (30.0 - MARGIN_SLACK_M) / 40.0;
        assert!(hood.holds_at(at(1.0)) && hood.holds_at(at(until - 1e-9)));
        assert!(!hood.holds_at(at(until)));
        hood.invalidate();
        assert!(!hood.holds_at(T));
    }
}
