//! Positions in the local metric frame and in WGS-84 coordinates.

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A position in the local metric frame used by the protocols and the map.
///
/// `x` grows towards the east, `y` towards the north, both in metres relative
/// to the projection origin (see [`crate::projection::LocalProjection`]). All
/// deviation checks in the dead-reckoning protocols — "is the actual position
/// farther than `u_s` from the predicted position?" — are Euclidean distances
/// between `Point`s in this frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// The origin of the local frame.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from easting/northing metres.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in metres.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when only
    /// comparisons are needed, e.g. nearest-link selection).
    #[inline]
    pub(crate) fn distance_squared(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The point translated by `v`.
    #[inline]
    pub(crate) fn translate(&self, v: Vec2) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    ///
    /// `t` is not clamped; callers that need clamping (e.g. projecting onto a
    /// segment) do it explicitly.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub(crate) fn midpoint(&self, other: &Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Returns `true` if every coordinate is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2} m, {:.2} m)", self.x, self.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        self.translate(rhs)
    }
}

impl AddAssign<Vec2> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vec2> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub<Point> for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

/// A geodetic position on the WGS-84 ellipsoid, in decimal degrees.
///
/// The paper's traces are DGPS output; [`crate::projection::LocalProjection`]
/// maps them into the local metric frame in which the protocols operate.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north. Valid range −90…90.
    pub lat: f64,
    /// Longitude in degrees, positive east. Valid range −180…180.
    pub lon: f64,
}

impl GeoPoint {
    /// Mean Earth radius used by the spherical distance formulas, in metres
    /// (IUGG mean radius).
    pub(crate) const EARTH_RADIUS_M: f64 = 6_371_008.8;

    /// Creates a geodetic point, checking coordinate ranges in debug builds.
    #[inline]
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!((-90.0..=90.0).contains(&lat), "latitude out of range: {lat}");
        debug_assert!((-180.0..=180.0).contains(&lon), "longitude out of range: {lon}");
        GeoPoint { lat, lon }
    }

    /// Great-circle (haversine) distance to `other` in metres.
    pub fn haversine_distance(&self, other: &GeoPoint) -> f64 {
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().atan2((1.0 - a).sqrt());
        Self::EARTH_RADIUS_M * c
    }

    /// Returns `true` if the point lies inside the valid coordinate ranges.
    #[inline]
    pub(crate) fn is_valid(&self) -> bool {
        (-90.0..=90.0).contains(&self.lat)
            && (-180.0..=180.0).contains(&self.lon)
            && self.lat.is_finite()
            && self.lon.is_finite()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}°, {:.6}°)", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(3.0, 4.0);
        let b = Point::new(0.0, 0.0);
        assert!(approx_eq(a.distance(&b), 5.0));
        assert!(approx_eq(b.distance(&a), 5.0));
        assert!(approx_eq(a.distance(&a), 0.0));
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point::new(-2.0, 7.5);
        let b = Point::new(10.0, -3.25);
        assert!(approx_eq(a.distance_squared(&b), a.distance(&b).powi(2)));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.midpoint(&b), Point::new(5.0, 10.0));
    }

    #[test]
    fn point_vector_arithmetic_roundtrip() {
        let p = Point::new(1.0, 2.0);
        let v = Vec2::new(3.0, -4.0);
        let q = p + v;
        assert_eq!(q, Point::new(4.0, -2.0));
        assert_eq!(q - v, p);
        assert_eq!(q - p, v);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut p = Point::new(1.0, 1.0);
        p += Vec2::new(2.0, 3.0);
        assert_eq!(p, Point::new(3.0, 4.0));
        p -= Vec2::new(1.0, 1.0);
        assert_eq!(p, Point::new(2.0, 3.0));
    }

    #[test]
    fn haversine_distance_known_value() {
        // Stuttgart city centre to the IPVR campus in Vaihingen: roughly 8 km.
        let mitte = GeoPoint::new(48.7758, 9.1829);
        let vaihingen = GeoPoint::new(48.7266, 9.1077);
        let d = mitte.haversine_distance(&vaihingen);
        assert!((7_000.0..9_500.0).contains(&d), "got {d}");
        // Symmetry.
        assert!((d - vaihingen.haversine_distance(&mitte)).abs() < 1e-6);
    }

    #[test]
    fn haversine_zero_on_identical_points() {
        let p = GeoPoint::new(48.0, 9.0);
        assert!(p.haversine_distance(&p).abs() < 1e-9);
    }

    #[test]
    fn geopoint_validity() {
        assert!(GeoPoint { lat: 48.0, lon: 9.0 }.is_valid());
        assert!(!GeoPoint { lat: 95.0, lon: 9.0 }.is_valid());
        assert!(!GeoPoint { lat: f64::NAN, lon: 9.0 }.is_valid());
    }

    #[test]
    fn point_display_formats_metres() {
        let s = format!("{}", Point::new(1.234, 5.678));
        assert!(s.contains("1.23") && s.contains("5.68"));
    }

    #[test]
    fn conversions_from_tuple() {
        let p: Point = (1.0, 2.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
    }
}
