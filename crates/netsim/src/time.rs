//! Simulation clock.
//!
//! Time is a non-negative `f64` number of seconds wrapped in [`SimTime`].
//! The wrapper provides a total order (NaN is rejected at construction) so it
//! can be used as a binary-heap key, plus convenience constructors for the
//! units that appear throughout the MAC and protocol code (µs, ms, s).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A length of simulated time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Duration(pub(crate) f64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Duration from seconds.  Panics on negative or non-finite input.
    pub fn from_secs(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative, got {s}"
        );
        Duration(s)
    }

    /// Duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Any f64 as a duration, unchecked: what a deserialised config can
    /// carry past [`Duration::from_secs`], for the validation tests.
    #[cfg(test)]
    pub(crate) fn unchecked(s: f64) -> Self {
        Duration(s)
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Multiply the duration by a non-negative scalar.
    pub fn scaled(self, k: f64) -> Self {
        Self::from_secs(self.0 * k)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Eq for Duration {}

impl Ord for Duration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("durations are never NaN")
    }
}

impl PartialOrd for Duration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

/// An absolute instant of simulated time, in seconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Instant from seconds.  Panics on negative or non-finite input.
    pub fn from_secs(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "sim time must be finite and non-negative, got {s}"
        );
        SimTime(s)
    }

    /// Value in seconds since the start of the run.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration elapsed since `earlier`.  Panics if `earlier` is later
    /// than `self` (the simulator never observes time running backwards).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_secs(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_secs((self.0 - earlier.0).max(0.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_secs())
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_secs();
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("sim times are never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_add_and_scale() {
        let d = Duration::from_millis(250.0) + Duration::from_millis(750.0);
        assert!((d.as_secs() - 1.0).abs() < 1e-12);
        assert!((d.scaled(2.0).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn micros_and_millis_constructors() {
        assert!((Duration::from_micros(1500.0).as_secs() - 0.0015).abs() < 1e-12);
        assert!((Duration::from_millis(2.0).as_secs() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn sim_time_ordering_and_arithmetic() {
        let t0 = SimTime::from_secs(1.0);
        let t1 = t0 + Duration::from_secs(2.5);
        assert!(t1 > t0);
        assert!((t1.since(t0).as_secs() - 2.5).abs() < 1e-12);
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = Duration::from_secs(-1.0);
    }

    #[test]
    #[should_panic]
    fn time_running_backwards_panics() {
        let _ = SimTime::from_secs(1.0).since(SimTime::from_secs(2.0));
    }

    #[test]
    fn add_assign_advances_clock() {
        let mut t = SimTime::ZERO;
        t += Duration::from_secs(3.0);
        assert_eq!(t, SimTime::from_secs(3.0));
    }
}
