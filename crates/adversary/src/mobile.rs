//! A mobile eavesdropper that hunts the source–destination corridor.
//!
//! The paper's eavesdropper roams with the same random-waypoint process as
//! everyone else, so at any instant it is probably nowhere near the traffic.
//! A smarter passive attacker biases its movement toward the corridor
//! between the TCP endpoints, maximising the share of the session it can
//! overhear without ever transmitting a hostile byte.
//!
//! [`CorridorMobility`] wraps the ordinary [`RandomWaypoint`] model.  Because
//! a mobility model produces the legs of *every* node, it always knows the
//! most recent waypoint it handed the source and the destination; the
//! eavesdropper's next waypoint is sampled on the segment between those two
//! anchors plus a bounded perpendicular jitter, clamped to the field.
//!
//! The pursuit is deliberately aggressive: the eavesdropper moves at the
//! model's top speed and never commits to a leg longer than [`HOP_M`] metres,
//! so it re-plans every few seconds and keeps tracking the endpoints as they
//! move (an ordinary waypoint draw can pin a node to one slow straight line
//! for hundreds of seconds).  All other nodes behave exactly like the
//! wrapped model.

use manet_netsim::geometry::{Position, Vector2};
use manet_netsim::mobility::{MobilityModel, RandomWaypoint, Waypoint};
use manet_netsim::SimTime;
use manet_wire::NodeId;
use rand::{Rng, RngCore};

/// Maximum leg length of the hunting eavesdropper, metres.  Short hops make
/// the pursuit re-plan frequently enough to track moving endpoints.
pub const HOP_M: f64 = 150.0;

/// Half-width of the corridor band the mobile eavesdropper's waypoints land
/// in, metres: the largest perpendicular offset from the line between the
/// endpoints' anchors.
pub const CORRIDOR_JITTER_M: f64 = 100.0;

/// Random waypoint with one corridor-steered node.
#[derive(Debug, Clone)]
pub struct CorridorMobility {
    inner: RandomWaypoint,
    eavesdropper: usize,
    src: usize,
    dst: usize,
    jitter_m: f64,
    src_anchor: Option<Position>,
    dst_anchor: Option<Position>,
}

impl CorridorMobility {
    /// Steer `eavesdropper` toward the corridor between `src` and `dst`.
    ///
    /// `jitter_m` bounds how far from the corridor's centre line the
    /// eavesdropper's waypoints may land.
    pub fn new(
        inner: RandomWaypoint,
        eavesdropper: NodeId,
        src: NodeId,
        dst: NodeId,
        jitter_m: f64,
    ) -> Self {
        CorridorMobility {
            inner,
            eavesdropper: eavesdropper.index(),
            src: src.index(),
            dst: dst.index(),
            jitter_m: jitter_m.max(0.0),
            src_anchor: None,
            dst_anchor: None,
        }
    }

    /// Remember the freshest known anchor of an endpoint.
    fn observe(&mut self, idx: usize, pos: Position) {
        if idx == self.src {
            self.src_anchor = Some(pos);
        } else if idx == self.dst {
            self.dst_anchor = Some(pos);
        }
    }

    /// A waypoint on the corridor between the two anchors, jittered and
    /// clamped to the field.
    fn corridor_point(&self, a: Position, b: Position, rng: &mut dyn RngCore) -> Position {
        let t: f64 = rng.gen_range(0.0..1.0);
        let along = a + (b - a) * t;
        let dir = (b - a).normalized();
        // Perpendicular of the corridor direction; for a degenerate corridor
        // (the endpoints share an anchor) jitter on a fixed axis instead.
        let perp = if dir == Vector2::default() {
            Vector2::new(0.0, 1.0)
        } else {
            Vector2::new(-dir.y, dir.x)
        };
        let offset = if self.jitter_m > 0.0 {
            rng.gen_range(-self.jitter_m..self.jitter_m)
        } else {
            0.0
        };
        let p = along + perp * offset;
        Position::new(
            p.x.clamp(0.0, self.inner.width),
            p.y.clamp(0.0, self.inner.height),
        )
    }
}

impl MobilityModel for CorridorMobility {
    fn initial_position(&mut self, idx: usize, rng: &mut dyn RngCore) -> Position {
        let p = self.inner.initial_position(idx, rng);
        self.observe(idx, p);
        p
    }

    fn next_leg(
        &mut self,
        idx: usize,
        current: Position,
        now: SimTime,
        epoch: u64,
        rng: &mut dyn RngCore,
    ) -> Waypoint {
        let mut leg = self.inner.next_leg(idx, current, now, epoch, rng);
        self.observe(idx, leg.to);
        if idx == self.eavesdropper {
            // Steer toward the corridor; with only one endpoint anchor known
            // (the other endpoint has a higher node id and no leg yet) hunt
            // that anchor, and with none keep the random target.
            match (self.src_anchor, self.dst_anchor) {
                (Some(a), Some(b)) => leg.to = self.corridor_point(a, b, rng),
                (Some(a), None) | (None, Some(a)) => leg.to = self.corridor_point(a, a, rng),
                (None, None) => {}
            }
            // Hunt dynamics: full speed, bounded hops, so the pursuit
            // re-plans every few seconds instead of committing to one long
            // slow line (zero-max-speed models stay pinned like everyone
            // else).
            if self.inner.config.max_speed > 0.0 {
                leg.speed = self.inner.config.max_speed;
            }
            let dist = leg.from.distance_to(leg.to);
            if dist > HOP_M {
                leg.to = leg.from + (leg.to - leg.from).normalized() * HOP_M;
            }
        }
        leg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_netsim::config::MobilityConfig;
    use manet_netsim::Duration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model(jitter: f64) -> CorridorMobility {
        let cfg = MobilityConfig {
            min_speed: 1.0,
            max_speed: 10.0,
            pause: Duration::from_secs(1.0),
        };
        CorridorMobility::new(
            RandomWaypoint::new(1000.0, 1000.0, cfg),
            NodeId(2),
            NodeId(0),
            NodeId(1),
            jitter,
        )
    }

    /// Distance from `p` to the segment `a`–`b`.
    fn dist_to_segment(p: Position, a: Position, b: Position) -> f64 {
        let ab = b - a;
        let len_sq = ab.x * ab.x + ab.y * ab.y;
        if len_sq == 0.0 {
            return p.distance_to(a);
        }
        let ap = p - a;
        let t = ((ap.x * ab.x + ap.y * ab.y) / len_sq).clamp(0.0, 1.0);
        p.distance_to(a + ab * t)
    }

    #[test]
    fn eavesdropper_pursuit_converges_onto_the_corridor() {
        let mut m = model(50.0);
        let mut rng = SmallRng::seed_from_u64(3);
        // Seed the endpoint anchors via their initial placements.
        let a = m.initial_position(0, &mut rng);
        let b = m.initial_position(1, &mut rng);
        let mut pos = m.initial_position(2, &mut rng);
        let mut converged = false;
        for epoch in 0..50 {
            let leg = m.next_leg(2, pos, SimTime::ZERO, epoch, &mut rng);
            // Hunt dynamics: top speed, bounded hops, inside the field.
            assert_eq!(leg.speed, 10.0, "the hunter moves at the model's top speed");
            assert!(leg.from.distance_to(leg.to) <= HOP_M + 1e-9);
            assert!((0.0..=1000.0).contains(&leg.to.x) && (0.0..=1000.0).contains(&leg.to.y));
            let before = dist_to_segment(pos, a, b);
            let after = dist_to_segment(leg.to, a, b);
            if after <= 50.0 + 1e-9 {
                converged = true;
            } else {
                // Still far away: every hop closes in on the corridor.
                assert!(
                    after < before,
                    "hop {:?} -> {:?} moved away from corridor {:?}-{:?}",
                    pos,
                    leg.to,
                    a,
                    b
                );
            }
            pos = leg.to;
        }
        assert!(converged, "50 hops must reach the corridor band");
    }

    #[test]
    fn corridor_follows_endpoint_legs() {
        let mut m = model(10.0);
        let mut rng = SmallRng::seed_from_u64(9);
        let _ = m.initial_position(0, &mut rng);
        let _ = m.initial_position(1, &mut rng);
        let _ = m.initial_position(2, &mut rng);
        // Move the source: its new leg target becomes the corridor anchor.
        let src_leg = m.next_leg(0, Position::new(0.0, 0.0), SimTime::ZERO, 1, &mut rng);
        assert_eq!(m.src_anchor, Some(src_leg.to));
        let dst_leg = m.next_leg(1, Position::new(0.0, 0.0), SimTime::ZERO, 1, &mut rng);
        assert_eq!(m.dst_anchor, Some(dst_leg.to));
    }

    #[test]
    fn other_nodes_are_untouched_by_the_wrapper() {
        // Same seed: a non-special node's first leg must match the plain model.
        let cfg = MobilityConfig {
            min_speed: 1.0,
            max_speed: 10.0,
            pause: Duration::from_secs(1.0),
        };
        let mut plain = RandomWaypoint::new(1000.0, 1000.0, cfg);
        let mut wrapped = model(100.0);
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        let pa = plain.initial_position(5, &mut rng_a);
        let pb = wrapped.initial_position(5, &mut rng_b);
        assert_eq!(pa, pb);
        let la = plain.next_leg(5, pa, SimTime::ZERO, 0, &mut rng_a);
        let lb = wrapped.next_leg(5, pb, SimTime::ZERO, 0, &mut rng_b);
        assert_eq!(la.to, lb.to);
        assert_eq!(la.speed, lb.speed);
    }

    #[test]
    fn degenerate_corridor_still_produces_valid_waypoints() {
        let mut m = model(0.0);
        m.src_anchor = Some(Position::new(500.0, 500.0));
        m.dst_anchor = Some(Position::new(500.0, 500.0));
        let mut rng = SmallRng::seed_from_u64(1);
        // One hop from the origin toward the collapsed corridor point.
        let leg = m.next_leg(2, Position::new(0.0, 0.0), SimTime::ZERO, 0, &mut rng);
        let dir = (Position::new(500.0, 500.0) - Position::new(0.0, 0.0)).normalized();
        let expected = Position::new(0.0, 0.0) + dir * HOP_M;
        assert!(leg.to.distance_to(expected) < 1e-9);
        // A second hop from within reach lands exactly on it.
        let leg = m.next_leg(2, Position::new(450.0, 450.0), SimTime::ZERO, 1, &mut rng);
        assert_eq!(leg.to, Position::new(500.0, 500.0));
    }

    #[test]
    fn single_known_anchor_is_hunted_before_the_corridor_forms() {
        let mut m = model(0.0);
        m.src_anchor = Some(Position::new(800.0, 200.0));
        m.dst_anchor = None;
        let mut rng = SmallRng::seed_from_u64(4);
        let leg = m.next_leg(2, Position::new(800.0, 100.0), SimTime::ZERO, 0, &mut rng);
        assert_eq!(leg.to, Position::new(800.0, 200.0));
    }
}
