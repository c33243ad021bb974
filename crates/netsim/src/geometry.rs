//! 2-D geometry for node placement and mobility.

use std::ops::{Add, Mul, Sub};

/// A point in the simulation field, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
}

/// A displacement / direction vector, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector2 {
    /// X component, metres.
    pub x: f64,
    /// Y component, metres.
    pub y: f64,
}

impl Position {
    /// Construct a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, in metres.
    pub fn distance_to(self, other: Position) -> f64 {
        (self - other).length()
    }

    /// Squared distance (avoids the square root for range comparisons).
    pub fn distance_sq(self, other: Position) -> f64 {
        let d = self - other;
        d.x * d.x + d.y * d.y
    }
}

impl Vector2 {
    /// Construct a vector.
    pub fn new(x: f64, y: f64) -> Self {
        Vector2 { x, y }
    }

    /// Euclidean length, metres.
    pub fn length(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit-length copy of this vector; the zero vector stays zero.
    pub fn normalized(self) -> Vector2 {
        let len = self.length();
        if len == 0.0 {
            Vector2::default()
        } else {
            Vector2::new(self.x / len, self.y / len)
        }
    }
}

impl Sub for Position {
    type Output = Vector2;
    fn sub(self, rhs: Position) -> Vector2 {
        Vector2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vector2> for Position {
    type Output = Position;
    fn add(self, rhs: Vector2) -> Position {
        Position::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Mul<f64> for Vector2 {
    type Output = Vector2;
    fn mul(self, k: f64) -> Vector2 {
        Vector2::new(self.x * k, self.y * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn vector_normalization() {
        let v = Vector2::new(0.0, 10.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-12);
        assert_eq!(Vector2::default().normalized(), Vector2::default());
    }

    #[test]
    fn position_plus_scaled_direction_moves_towards_target() {
        let from = Position::new(0.0, 0.0);
        let to = Position::new(10.0, 0.0);
        let dir = (to - from).normalized();
        let mid = from + dir * 5.0;
        assert!((mid.x - 5.0).abs() < 1e-12);
        assert!((mid.y).abs() < 1e-12);
    }
}
