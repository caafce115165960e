//! Line segments and perpendicular projection onto them.
//!
//! Projecting a sensed position perpendicularly onto a road link (Fig. 5 of
//! the paper) is the central geometric operation of map matching; a link with
//! shape points is a chain of [`Segment`]s (see [`crate::polyline::Polyline`]).

use crate::point::Point;
use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// A directed straight-line segment from `a` to `b` in the local metric frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

/// Result of projecting a point onto a [`Segment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentProjection {
    /// The closest point on the segment (clamped to the segment's extent).
    pub point: Point,
    /// Normalised parameter along the segment in `[0, 1]` (0 = `a`, 1 = `b`).
    pub t: f64,
    /// Distance from the query point to [`SegmentProjection::point`], metres.
    pub distance: f64,
}

impl Segment {
    /// Creates a segment from `a` to `b`.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment in metres.
    #[inline]
    pub(crate) fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Direction from `a` to `b` as a (possibly zero) vector.
    #[inline]
    pub(crate) fn direction(&self) -> Vec2 {
        self.b - self.a
    }

    /// Unit direction from `a` to `b`; north for degenerate (zero-length)
    /// segments so that headings stay well defined.
    #[inline]
    pub(crate) fn unit_direction(&self) -> Vec2 {
        self.direction().normalized_or_north()
    }

    /// Heading of the segment in radians clockwise from north.
    #[inline]
    pub(crate) fn heading(&self) -> f64 {
        self.direction().heading()
    }

    /// The point at normalised parameter `t` (clamped to `[0, 1]`).
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        self.a.lerp(&self.b, t.clamp(0.0, 1.0))
    }

    /// The point at arc-length `s` metres from `a` (clamped to the segment).
    #[inline]
    pub(crate) fn point_at_distance(&self, s: f64) -> Point {
        let len = self.length();
        if len <= f64::EPSILON {
            return self.a;
        }
        self.point_at(s / len)
    }

    /// Projects `p` perpendicularly onto the segment, clamping to the
    /// endpoints when the foot of the perpendicular falls outside it.
    pub fn project(&self, p: &Point) -> SegmentProjection {
        let d = self.direction();
        let len2 = d.norm_squared();
        let t =
            if len2 <= f64::EPSILON { 0.0 } else { ((*p - self.a).dot(&d) / len2).clamp(0.0, 1.0) };
        let point = self.a.lerp(&self.b, t);
        SegmentProjection { point, t, distance: p.distance(&point) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn seg() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0))
    }

    #[test]
    fn length_and_direction() {
        let s = seg();
        assert!(approx_eq(s.length(), 10.0));
        assert_eq!(s.unit_direction(), Vec2::EAST);
        assert!(approx_eq(s.heading(), std::f64::consts::FRAC_PI_2));
    }

    #[test]
    fn projection_inside_segment_is_perpendicular() {
        let s = seg();
        let proj = s.project(&Point::new(4.0, 3.0));
        assert!(approx_eq(proj.point.x, 4.0));
        assert!(approx_eq(proj.point.y, 0.0));
        assert!(approx_eq(proj.t, 0.4));
        assert!(approx_eq(proj.distance, 3.0));
    }

    #[test]
    fn projection_clamps_to_endpoints() {
        let s = seg();
        let before = s.project(&Point::new(-5.0, 2.0));
        assert_eq!(before.point, s.a);
        assert!(approx_eq(before.t, 0.0));
        let after = s.project(&Point::new(20.0, -2.0));
        assert_eq!(after.point, s.b);
        assert!(approx_eq(after.t, 1.0));
    }

    #[test]
    fn degenerate_segment_projects_to_its_point() {
        let s = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        let proj = s.project(&Point::new(4.0, 5.0));
        assert_eq!(proj.point, s.a);
        assert!(approx_eq(proj.distance, 5.0));
        assert_eq!(s.point_at_distance(3.0), s.a);
    }

    #[test]
    fn point_at_distance_walks_along_segment() {
        let s = seg();
        assert_eq!(s.point_at_distance(0.0), s.a);
        assert_eq!(s.point_at_distance(10.0), s.b);
        assert_eq!(s.point_at_distance(2.5), Point::new(2.5, 0.0));
        // Clamped beyond the end.
        assert_eq!(s.point_at_distance(50.0), s.b);
    }

    #[test]
    fn distance_to_matches_projection_distance() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(0.0, 8.0));
        assert!(approx_eq(s.project(&Point::new(3.0, 4.0)).distance, 3.0));
        assert!(approx_eq(s.project(&Point::new(0.0, 12.0)).distance, 4.0));
    }
}
