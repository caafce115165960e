//! Axis-aligned bounding boxes for the spatial index and range queries.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box in the local metric frame.
///
/// Used as the key geometry of the spatial indexes in `mbdr-spatial` and for
/// the location-service range queries ("all users currently inside a
/// department of a store").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum (south-west) corner.
    pub min: Point,
    /// Maximum (north-east) corner.
    pub max: Point,
}

impl Aabb {
    /// Creates a bounding box from two corner points, normalising the corner
    /// order so that `min <= max` component-wise.
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A degenerate box containing exactly one point.
    #[inline]
    pub(crate) fn from_point(p: Point) -> Self {
        Aabb { min: p, max: p }
    }

    /// The smallest box containing all points of the iterator, or `None` if
    /// the iterator is empty.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = Aabb::from_point(first);
        for p in it {
            bb.expand_to_include(&p);
        }
        Some(bb)
    }

    /// Width (east–west extent) in metres.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (north–south extent) in metres.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Centre point of the box.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Returns `true` if `p` lies inside or on the boundary of the box.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` if `other` is entirely inside (or equal to) `self`.
    #[inline]
    pub fn contains_box(&self, other: &Aabb) -> bool {
        self.contains(&other.min) && self.contains(&other.max)
    }

    /// Returns `true` if the two boxes overlap (boundary contact counts).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Grows the box in place so that it contains `p`.
    pub(crate) fn expand_to_include(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The union of two boxes (smallest box containing both).
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The box grown by `margin` metres on every side.
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Shortest distance from `p` to the box (zero if the point is inside).
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// A square box of side `2 * radius` centred on `p`; the query shape used
    /// by the map matcher when looking for candidate links within `u_m`.
    pub fn around(p: Point, radius: f64) -> Aabb {
        debug_assert!(radius >= 0.0);
        Aabb {
            min: Point::new(p.x - radius, p.y - radius),
            max: Point::new(p.x + radius, p.y + radius),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn corners_are_normalised() {
        let bb = Aabb::new(Point::new(5.0, -1.0), Point::new(-2.0, 3.0));
        assert_eq!(bb.min, Point::new(-2.0, -1.0));
        assert_eq!(bb.max, Point::new(5.0, 3.0));
        assert!(approx_eq(bb.width(), 7.0));
        assert!(approx_eq(bb.height(), 4.0));
    }

    #[test]
    fn containment_and_intersection() {
        let a = Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let b = Aabb::new(Point::new(5.0, 5.0), Point::new(15.0, 15.0));
        let c = Aabb::new(Point::new(20.0, 20.0), Point::new(30.0, 30.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.contains(&Point::new(10.0, 10.0)));
        assert!(!a.contains(&Point::new(10.1, 10.0)));
        assert!(a.contains_box(&Aabb::new(Point::new(1.0, 1.0), Point::new(9.0, 9.0))));
        assert!(!a.contains_box(&b));
    }

    #[test]
    fn union_and_expand() {
        let mut a = Aabb::from_point(Point::new(1.0, 1.0));
        a.expand_to_include(&Point::new(-1.0, 4.0));
        assert_eq!(a.min, Point::new(-1.0, 1.0));
        assert_eq!(a.max, Point::new(1.0, 4.0));
        let b = Aabb::new(Point::new(10.0, 10.0), Point::new(12.0, 12.0));
        let u = a.union(&b);
        assert_eq!(u.min, Point::new(-1.0, 1.0));
        assert_eq!(u.max, Point::new(12.0, 12.0));
    }

    #[test]
    fn from_points_handles_empty_and_many() {
        assert!(Aabb::from_points(std::iter::empty()).is_none());
        let bb = Aabb::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, -2.0),
            Point::new(1.0, 5.0),
        ])
        .unwrap();
        assert_eq!(bb.min, Point::new(0.0, -2.0));
        assert_eq!(bb.max, Point::new(3.0, 5.0));
    }

    #[test]
    fn distance_to_point_is_zero_inside() {
        let bb = Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        assert!(approx_eq(bb.distance_to_point(&Point::new(5.0, 5.0)), 0.0));
        assert!(approx_eq(bb.distance_to_point(&Point::new(13.0, 14.0)), 5.0));
        assert!(approx_eq(bb.distance_to_point(&Point::new(-3.0, 5.0)), 3.0));
    }

    #[test]
    fn around_builds_centred_square() {
        let bb = Aabb::around(Point::new(2.0, 3.0), 50.0);
        assert_eq!(bb.center(), Point::new(2.0, 3.0));
        assert!(approx_eq(bb.width(), 100.0));
        assert!(approx_eq(bb.height(), 100.0));
    }

    #[test]
    fn inflated_grows_every_side() {
        let bb = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)).inflated(1.0);
        assert_eq!(bb.min, Point::new(-1.0, -1.0));
        assert_eq!(bb.max, Point::new(3.0, 3.0));
    }
}
