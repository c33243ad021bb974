//! Node mobility models.
//!
//! The paper uses the random waypoint model: each node picks a uniformly
//! random destination in the field and a uniformly random speed in
//! `[min_speed, max_speed]`, moves there in a straight line, pauses for a
//! fixed time, then repeats.  Positions are evaluated lazily from the current
//! leg (no per-tick position events); the engine schedules one
//! `WaypointReached` event per leg to pick the next waypoint.

use crate::config::MobilityConfig;
use crate::geometry::Position;
use crate::time::{Duration, SimTime};
use rand::{Rng, RngCore};

/// One leg of movement: from `from` towards `to` at `speed`, starting at
/// `start` (after any pause has elapsed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Position at the start of the leg.
    pub from: Position,
    /// Target position of the leg.
    pub to: Position,
    /// Movement speed, m/s (0 while pausing or for static nodes).
    pub speed: f64,
    /// Time the node starts moving along this leg.
    pub start: SimTime,
    /// Monotonically increasing leg counter; guards against stale
    /// `WaypointReached` events after a model reset.
    pub epoch: u64,
}

impl Waypoint {
    /// Time at which the node arrives at `to`.
    pub fn arrival_time(&self) -> SimTime {
        if self.speed <= 0.0 {
            // Never arrives (static node): report the start, callers treat a
            // zero-speed leg as pinned.
            return self.start;
        }
        let dist = self.from.distance_to(self.to);
        self.start + Duration::from_secs(dist / self.speed)
    }

    /// Position along the leg at time `now` (clamped to the endpoints).
    pub fn position_at(&self, now: SimTime) -> Position {
        if self.speed <= 0.0 || now <= self.start {
            return self.from;
        }
        let dist = self.from.distance_to(self.to);
        if dist == 0.0 {
            return self.to;
        }
        let travelled = (now.since(self.start).as_secs() * self.speed).min(dist);
        let dir = (self.to - self.from).normalized();
        self.from + dir * travelled
    }
}

/// A mobility model provides per-node movement legs.
pub trait MobilityModel {
    /// Initial position of node `idx` (also the `from` of its first leg).
    fn initial_position(&mut self, idx: usize, rng: &mut dyn RngCore) -> Position;

    /// Produce the next leg for node `idx`, given where it currently is and
    /// the current time.  `epoch` is the leg counter the engine will store.
    fn next_leg(
        &mut self,
        idx: usize,
        current: Position,
        now: SimTime,
        epoch: u64,
        rng: &mut dyn RngCore,
    ) -> Waypoint;
}

/// The random waypoint model over a rectangular field (paper Section IV-A).
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    /// Field width, metres.
    pub width: f64,
    /// Field height, metres.
    pub height: f64,
    /// Speed and pause parameters.
    pub config: MobilityConfig,
}

impl RandomWaypoint {
    /// New model over a `width × height` field.
    pub fn new(width: f64, height: f64, config: MobilityConfig) -> Self {
        RandomWaypoint {
            width,
            height,
            config,
        }
    }

    fn random_point(&self, rng: &mut dyn RngCore) -> Position {
        Position::new(
            rng.gen_range(0.0..self.width),
            rng.gen_range(0.0..self.height),
        )
    }

    fn random_speed(&self, rng: &mut dyn RngCore) -> f64 {
        let lo = self.config.min_speed.max(0.0);
        let hi = self.config.max_speed.max(lo);
        if hi <= lo {
            return lo;
        }
        // The paper's "uniformly distributed between 0 and MAXSPEED", with a
        // tiny floor to avoid the well-known RWP zero-speed stall pathology.
        rng.gen_range(lo..hi).max(0.05)
    }
}

impl MobilityModel for RandomWaypoint {
    fn initial_position(&mut self, _idx: usize, rng: &mut dyn RngCore) -> Position {
        self.random_point(rng)
    }

    fn next_leg(
        &mut self,
        _idx: usize,
        current: Position,
        now: SimTime,
        epoch: u64,
        rng: &mut dyn RngCore,
    ) -> Waypoint {
        let to = self.random_point(rng);
        let speed = self.random_speed(rng);
        Waypoint {
            from: current,
            to,
            speed,
            start: now + self.config.pause,
            epoch,
        }
    }
}

/// A static placement: nodes never move.  Useful for unit tests and for the
/// examples that trace route discovery on a fixed topology.
#[derive(Debug, Clone)]
pub struct StaticPlacement {
    /// Fixed node positions, indexed by node.
    pub positions: Vec<Position>,
}

impl StaticPlacement {
    /// Place nodes at the given positions.
    pub fn new(positions: Vec<Position>) -> Self {
        StaticPlacement { positions }
    }

    /// Place `n` nodes evenly on a line with `spacing` metres between
    /// neighbours — a convenient chain topology for protocol tests.
    pub fn chain(n: usize, spacing: f64) -> Self {
        StaticPlacement {
            positions: (0..n)
                .map(|i| Position::new(i as f64 * spacing, 0.0))
                .collect(),
        }
    }

    /// Place `n` nodes on a regular grid with `spacing` metres between
    /// adjacent nodes.
    pub fn grid(n: usize, columns: usize, spacing: f64) -> Self {
        assert!(columns > 0, "grid needs at least one column");
        StaticPlacement {
            positions: (0..n)
                .map(|i| {
                    Position::new(
                        (i % columns) as f64 * spacing,
                        (i / columns) as f64 * spacing,
                    )
                })
                .collect(),
        }
    }
}

impl MobilityModel for StaticPlacement {
    fn initial_position(&mut self, idx: usize, _rng: &mut dyn RngCore) -> Position {
        self.positions[idx]
    }

    fn next_leg(
        &mut self,
        idx: usize,
        current: Position,
        now: SimTime,
        epoch: u64,
        _rng: &mut dyn RngCore,
    ) -> Waypoint {
        // A zero-speed leg pins the node in place forever.
        let _ = idx;
        Waypoint {
            from: current,
            to: current,
            speed: 0.0,
            start: now,
            epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cfg(max: f64) -> MobilityConfig {
        MobilityConfig {
            min_speed: 0.0,
            max_speed: max,
            pause: Duration::from_secs(1.0),
        }
    }

    #[test]
    fn waypoint_interpolates_linearly_and_clamps() {
        let w = Waypoint {
            from: Position::new(0.0, 0.0),
            to: Position::new(100.0, 0.0),
            speed: 10.0,
            start: SimTime::from_secs(5.0),
            epoch: 0,
        };
        // Before the leg starts: at `from`.
        assert_eq!(w.position_at(SimTime::from_secs(1.0)), w.from);
        // Half way.
        let mid = w.position_at(SimTime::from_secs(10.0));
        assert!((mid.x - 50.0).abs() < 1e-9);
        // After arrival: clamped at `to`.
        let end = w.position_at(SimTime::from_secs(100.0));
        assert!((end.x - 100.0).abs() < 1e-9);
        assert_eq!(w.arrival_time(), SimTime::from_secs(15.0));
    }

    #[test]
    fn zero_speed_waypoint_is_pinned() {
        let w = Waypoint {
            from: Position::new(3.0, 4.0),
            to: Position::new(9.0, 9.0),
            speed: 0.0,
            start: SimTime::ZERO,
            epoch: 0,
        };
        assert_eq!(w.position_at(SimTime::from_secs(50.0)), w.from);
    }

    #[test]
    fn random_waypoint_stays_in_field() {
        let mut m = RandomWaypoint::new(1000.0, 1000.0, cfg(20.0));
        let mut rng = SmallRng::seed_from_u64(11);
        for i in 0..200 {
            let p = m.initial_position(i, &mut rng);
            assert!((0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y));
            let leg = m.next_leg(i, p, SimTime::ZERO, 1, &mut rng);
            assert!((0.0..=1000.0).contains(&leg.to.x) && (0.0..=1000.0).contains(&leg.to.y));
            assert!(leg.speed > 0.0 && leg.speed <= 20.0);
            // Pause is honoured before movement starts.
            assert_eq!(leg.start, SimTime::ZERO + Duration::from_secs(1.0));
        }
    }

    #[test]
    fn speeds_respect_configured_maximum() {
        for max in [2.0, 5.0, 10.0, 15.0, 20.0] {
            let mut m = RandomWaypoint::new(1000.0, 1000.0, cfg(max));
            let mut rng = SmallRng::seed_from_u64(7);
            for i in 0..100 {
                let leg = m.next_leg(i, Position::new(0.0, 0.0), SimTime::ZERO, 0, &mut rng);
                assert!(
                    leg.speed <= max + 1e-9,
                    "speed {} exceeds max {}",
                    leg.speed,
                    max
                );
            }
        }
    }

    #[test]
    fn chain_placement_spaces_nodes() {
        let c = StaticPlacement::chain(4, 200.0);
        assert_eq!(c.positions.len(), 4);
        assert!((c.positions[3].x - 600.0).abs() < 1e-12);
        let mut m = c.clone();
        let mut rng = SmallRng::seed_from_u64(0);
        let leg = m.next_leg(2, c.positions[2], SimTime::from_secs(3.0), 5, &mut rng);
        assert_eq!(leg.speed, 0.0);
        assert_eq!(leg.epoch, 5);
    }

    #[test]
    fn grid_placement_dimensions() {
        let g = StaticPlacement::grid(6, 3, 100.0);
        assert_eq!(g.positions.len(), 6);
        assert_eq!(g.positions[4], Position::new(100.0, 100.0));
    }
}
