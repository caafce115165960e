//! Planar displacement vectors.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A displacement (or velocity, when interpreted per second) in the local
/// east/north metric frame.
///
/// The linear-prediction dead-reckoning protocol predicts
/// `pos + dir * v * (t - t0)` — `dir` is a unit `Vec2`, `v` a scalar speed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// East component (metres, or m/s for velocities).
    pub x: f64,
    /// North component (metres, or m/s for velocities).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// Unit vector pointing east.
    pub const EAST: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// Unit vector pointing north.
    pub const NORTH: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Creates a vector from east/north components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector for a heading given in radians clockwise from north
    /// (compass convention, the convention used for object headings
    /// throughout this workspace).
    #[inline]
    pub fn from_heading(heading_rad: f64) -> Self {
        Vec2::new(heading_rad.sin(), heading_rad.cos())
    }

    /// Heading of this vector in radians clockwise from north, in `[0, 2π)`.
    /// Returns `0.0` for the zero vector.
    #[inline]
    pub fn heading(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        self.x.atan2(self.y).rem_euclid(std::f64::consts::TAU)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub(crate) fn norm_squared(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Returns a unit-length copy, or `None` if the vector is (numerically)
    /// zero.
    #[inline]
    pub(crate) fn normalized(&self) -> Option<Vec2> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(Vec2::new(self.x / n, self.y / n))
        }
    }

    /// Like `Vec2::normalized` but falls back to `Vec2::NORTH` for the zero
    /// vector. Convenient when a heading is required and "standing still"
    /// should behave deterministically.
    #[inline]
    pub fn normalized_or_north(&self) -> Vec2 {
        self.normalized().unwrap_or(Vec2::NORTH)
    }

    /// Scales the vector by `s`.
    #[inline]
    pub(crate) fn scale(&self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }

    /// The vector rotated by `angle` radians counter-clockwise.
    #[inline]
    pub fn rotated(&self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Perpendicular vector (rotated 90° counter-clockwise).
    #[inline]
    pub fn perp(&self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Angle between `self` and `other` in radians, in `[0, π]`.
    /// Returns `0.0` if either vector is zero.
    pub fn angle_to(&self, other: &Vec2) -> f64 {
        let denom = self.norm() * other.norm();
        if denom <= f64::EPSILON {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0).acos()
    }

    /// Returns `true` if the vector is exactly zero.
    #[inline]
    pub(crate) fn is_zero(&self) -> bool {
        self.x == 0.0 && self.y == 0.0
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        self.scale(rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs.scale(self)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn heading_of_cardinal_directions() {
        assert!(approx_eq(Vec2::NORTH.heading(), 0.0));
        assert!(approx_eq(Vec2::EAST.heading(), FRAC_PI_2));
        assert!(approx_eq(Vec2::new(0.0, -1.0).heading(), PI));
        assert!(approx_eq(Vec2::new(-1.0, 0.0).heading(), 1.5 * PI));
    }

    #[test]
    fn from_heading_roundtrip() {
        for deg in [0.0f64, 30.0, 90.0, 123.0, 250.0, 359.0] {
            let h = deg.to_radians();
            let v = Vec2::from_heading(h);
            assert!(approx_eq(v.norm(), 1.0));
            assert!((v.heading() - h).abs() < 1e-9, "deg {deg}");
        }
    }

    #[test]
    fn norm_and_dot() {
        let v = Vec2::new(3.0, 4.0);
        assert!(approx_eq(v.norm(), 5.0));
        assert!(approx_eq(v.dot(&v), 25.0));
        assert!(approx_eq(Vec2::EAST.dot(&Vec2::NORTH), 0.0));
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Vec2::ZERO.normalized().is_none());
        assert_eq!(Vec2::ZERO.normalized_or_north(), Vec2::NORTH);
        let v = Vec2::new(0.0, 10.0).normalized().unwrap();
        assert!(approx_eq(v.norm(), 1.0));
    }

    #[test]
    fn rotation_by_quarter_turn() {
        let v = Vec2::EAST.rotated(FRAC_PI_2);
        assert!(approx_eq(v.x, 0.0));
        assert!(approx_eq(v.y, 1.0));
        assert_eq!(Vec2::EAST.perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn angle_between_vectors() {
        assert!(approx_eq(Vec2::EAST.angle_to(&Vec2::NORTH), FRAC_PI_2));
        assert!(approx_eq(Vec2::EAST.angle_to(&Vec2::EAST), 0.0));
        assert!(approx_eq(Vec2::EAST.angle_to(&(-Vec2::EAST)), PI));
        assert!(approx_eq(Vec2::ZERO.angle_to(&Vec2::EAST), 0.0));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Vec2::new(4.0, 1.0));
        c -= b;
        assert_eq!(c, a);
    }
}
