//! Polylines: the geometry of a road link with shape points.
//!
//! In the paper's map model (Fig. 4) a link connects two intersections and may
//! be subdivided by *shape points* into sub-links so that curved roads can be
//! represented. A [`Polyline`] stores that vertex chain together with
//! cumulative arc lengths, and supports the two operations the protocols need:
//! projecting a sensed position onto the link (map matching) and walking a
//! given distance along the link (map-based prediction).

use crate::bbox::Aabb;
use crate::point::Point;
use crate::segment::Segment;
use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// A chain of at least two vertices in the local metric frame, with
/// precomputed cumulative arc lengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// `cumulative[i]` is the arc length from the first vertex to vertex `i`.
    cumulative: Vec<f64>,
}

/// Result of projecting a point onto a [`Polyline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolyProjection {
    /// Closest point on the polyline.
    pub point: Point,
    /// Distance from the query point to `point`, metres.
    pub distance: f64,
    /// Arc length from the start of the polyline to `point`, metres.
    pub arc_length: f64,
    /// Index of the segment (vertex `i` → vertex `i + 1`) containing `point`.
    pub segment_index: usize,
}

impl Polyline {
    /// Builds a polyline from a vertex chain.
    ///
    /// # Panics
    /// Panics if fewer than two vertices are supplied; a road link always has
    /// two endpoints.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 2, "a polyline needs at least two vertices");
        let mut cumulative = Vec::with_capacity(vertices.len());
        let mut acc = 0.0;
        cumulative.push(0.0);
        for w in vertices.windows(2) {
            acc += w[0].distance(&w[1]);
            cumulative.push(acc);
        }
        Polyline { vertices, cumulative }
    }

    /// A straight two-vertex polyline.
    pub fn straight(a: Point, b: Point) -> Self {
        Polyline::new(vec![a, b])
    }

    /// The vertex chain.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of line segments (vertices − 1).
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.vertices.len() - 1
    }

    /// The `i`-th segment.
    #[inline]
    pub(crate) fn segment(&self, i: usize) -> Segment {
        Segment::new(self.vertices[i], self.vertices[i + 1])
    }

    /// Iterator over all segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total arc length in metres.
    #[inline]
    pub fn length(&self) -> f64 {
        *self.cumulative.last().expect("polyline has at least two vertices")
    }

    /// First vertex.
    #[inline]
    pub fn first(&self) -> Point {
        self.vertices[0]
    }

    /// Last vertex.
    #[inline]
    pub fn last(&self) -> Point {
        *self.vertices.last().expect("polyline has at least two vertices")
    }

    /// Axis-aligned bounding box of the polyline.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_points(self.vertices.iter().copied())
            .expect("polyline has at least two vertices")
    }

    /// The point at arc length `s` from the start, clamped to `[0, length]`.
    ///
    /// One `O(log n)` binary search over the precomputed cumulative table —
    /// no per-call allocation and no linear walk over the segments, however
    /// long the link. This (together with [`Polyline::sample_at_arc_length`])
    /// is the inner loop of map-based prediction: every client deviation
    /// check and every server query-time prediction lands here.
    pub fn point_at_arc_length(&self, s: f64) -> Point {
        if s <= 0.0 {
            return self.first();
        }
        if s >= self.length() {
            return self.last();
        }
        let idx = self.segment_index_at(s);
        self.segment(idx).point_at_distance(s - self.cumulative[idx])
    }

    /// Heading (radians clockwise from north) of the segment containing arc
    /// length `s` (binary search, like [`Polyline::point_at_arc_length`]).
    pub fn heading_at_arc_length(&self, s: f64) -> f64 {
        let idx = self.segment_index_at(s);
        self.segment(idx).heading()
    }

    /// Direction (unit vector) of the segment containing arc length `s`
    /// (binary search, like [`Polyline::point_at_arc_length`]).
    pub fn direction_at_arc_length(&self, s: f64) -> Vec2 {
        let idx = self.segment_index_at(s);
        self.segment(idx).unit_direction()
    }

    /// The point *and* travel direction at arc length `s`, resolved with a
    /// single binary search — for callers (the map predictor's
    /// heading-disambiguation step) that would otherwise pay two lookups on
    /// the same arc length.
    pub fn sample_at_arc_length(&self, s: f64) -> (Point, Vec2) {
        let idx = self.segment_index_at(s);
        let seg = self.segment(idx);
        let along = (s - self.cumulative[idx]).clamp(0.0, seg.length());
        (seg.point_at_distance(along), seg.unit_direction())
    }

    /// Index of the segment containing arc length `s` (clamped to the valid
    /// range): an `O(log n)` binary search over the cumulative arc-length
    /// table built once at construction.
    fn segment_index_at(&self, s: f64) -> usize {
        if s <= 0.0 {
            return 0;
        }
        if s >= self.length() {
            return self.segment_count() - 1;
        }
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&s).unwrap()) {
            Ok(i) => i.min(self.segment_count() - 1),
            Err(i) => i - 1,
        }
    }

    /// Projects `p` onto the polyline, returning the globally closest point
    /// over all segments: the first segment, in order, whose
    /// [`Segment::project`] distance is strictly the smallest, with exactly
    /// the point, distance and arc length that projection gives.
    ///
    /// Per segment it divides only when the foot of the perpendicular falls
    /// inside the segment (`0 ≤ (p − a)·d ≤ |d|²`; outside, the clamped
    /// parameter is 0 or 1 without it) and compares squared distances,
    /// taking the square root only on a strict squared improvement: `sqrt`
    /// is monotone and correctly rounded, so a segment skipped there could
    /// never have won the `<` test on distances. The arc length is computed
    /// once, for the winner.
    pub fn project(&self, p: &Point) -> PolyProjection {
        let mut best = PolyProjection {
            point: self.first(),
            distance: f64::INFINITY,
            arc_length: 0.0,
            segment_index: 0,
        };
        let (mut best_squared, mut best_t) = (f64::INFINITY, None);
        for (i, seg) in self.segments().enumerate() {
            let d = seg.direction();
            let len2 = d.norm_squared();
            let along = (*p - seg.a).dot(&d);
            let t = if len2 <= f64::EPSILON || along < 0.0 {
                0.0
            } else if along > len2 {
                1.0
            } else {
                along / len2
            };
            let point = seg.a.lerp(&seg.b, t);
            let squared = p.distance_squared(&point);
            if squared < best_squared {
                let distance = squared.sqrt();
                if distance < best.distance {
                    best_squared = squared;
                    best_t = Some(t);
                    best.point = point;
                    best.distance = distance;
                    best.segment_index = i;
                }
            }
        }
        if let Some(t) = best_t {
            let i = best.segment_index;
            best.arc_length = self.cumulative[i] + t * self.segment(i).length();
        }
        best
    }

    /// Shortest distance from `p` to the polyline, metres.
    #[inline]
    pub fn distance_to(&self, p: &Point) -> f64 {
        self.project(p).distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// An L-shaped polyline: 10 m east, then 10 m north.
    fn ell() -> Polyline {
        Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(10.0, 10.0)])
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn rejects_single_vertex() {
        let _ = Polyline::new(vec![Point::ORIGIN]);
    }

    #[test]
    fn length_is_sum_of_segment_lengths() {
        assert!(approx_eq(ell().length(), 20.0));
        assert!(approx_eq(Polyline::straight(Point::ORIGIN, Point::new(3.0, 4.0)).length(), 5.0));
    }

    #[test]
    fn cumulative_lengths_are_monotone() {
        let p = ell();
        assert!(approx_eq(p.cumulative[0], 0.0));
        assert!(approx_eq(p.cumulative[1], 10.0));
        assert!(approx_eq(p.cumulative[2], 20.0));
    }

    #[test]
    fn point_at_arc_length_walks_both_segments() {
        let p = ell();
        assert_eq!(p.point_at_arc_length(0.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at_arc_length(5.0), Point::new(5.0, 0.0));
        assert_eq!(p.point_at_arc_length(10.0), Point::new(10.0, 0.0));
        assert_eq!(p.point_at_arc_length(15.0), Point::new(10.0, 5.0));
        assert_eq!(p.point_at_arc_length(20.0), Point::new(10.0, 10.0));
        // Clamping.
        assert_eq!(p.point_at_arc_length(-3.0), p.first());
        assert_eq!(p.point_at_arc_length(99.0), p.last());
    }

    #[test]
    fn heading_changes_at_the_corner() {
        let p = ell();
        assert!(approx_eq(p.heading_at_arc_length(5.0), std::f64::consts::FRAC_PI_2));
        assert!(approx_eq(p.heading_at_arc_length(15.0), 0.0));
    }

    #[test]
    fn sample_agrees_with_the_separate_lookups() {
        let p = ell();
        for s in [-3.0, 0.0, 4.5, 10.0, 13.0, 20.0, 50.0] {
            let (point, direction) = p.sample_at_arc_length(s);
            assert_eq!(point, p.point_at_arc_length(s), "s={s}");
            assert_eq!(direction, p.direction_at_arc_length(s), "s={s}");
        }
    }

    #[test]
    fn projection_picks_the_nearest_segment() {
        let p = ell();
        // Point nearer the second (northbound) segment.
        let proj = p.project(&Point::new(12.0, 6.0));
        assert_eq!(proj.segment_index, 1);
        assert!(approx_eq(proj.point.x, 10.0));
        assert!(approx_eq(proj.point.y, 6.0));
        assert!(approx_eq(proj.distance, 2.0));
        assert!(approx_eq(proj.arc_length, 16.0));
    }

    #[test]
    fn projection_at_the_corner_is_consistent() {
        let p = ell();
        let proj = p.project(&Point::new(12.0, -2.0));
        // Closest point is the corner vertex at (10, 0), arc length 10.
        assert!(approx_eq(proj.point.x, 10.0));
        assert!(approx_eq(proj.point.y, 0.0));
        assert!(approx_eq(proj.arc_length, 10.0));
    }

    /// The projection as a full scan of [`Segment::project`] computes it,
    /// every segment's square root and arc length included.
    fn project_by_full_scan(line: &Polyline, p: &Point) -> PolyProjection {
        let mut best = PolyProjection {
            point: line.first(),
            distance: f64::INFINITY,
            arc_length: 0.0,
            segment_index: 0,
        };
        for (i, seg) in line.segments().enumerate() {
            let proj = seg.project(p);
            if proj.distance < best.distance {
                best = PolyProjection {
                    point: proj.point,
                    distance: proj.distance,
                    arc_length: line.cumulative[i] + proj.t * seg.length(),
                    segment_index: i,
                };
            }
        }
        best
    }

    fn assert_bit_equal(got: &PolyProjection, want: &PolyProjection, what: &str) {
        let bits = |r: &PolyProjection| {
            (r.point.x.to_bits(), r.point.y.to_bits(), r.distance.to_bits(), r.arc_length.to_bits())
        };
        assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
        assert_eq!(got.segment_index, want.segment_index, "{what}");
    }

    #[test]
    fn projection_equals_the_full_scan_bit_for_bit() {
        let mut rng = crate::rng::SplitMix64::new(0x9E0_2001);
        let mut coordinate = |span: u64| rng.below(2 * span + 1) as f64 - span as f64;
        for round in 0..400 {
            // Short chains on a coarse lattice, so vertices repeat (zero-length
            // segments) and points fall on vertices, on segments and on the
            // bisectors between them (equidistant from two segments).
            let lattice = if round % 2 == 0 { 4 } else { 1_000 };
            let count = 2 + (round % 7);
            let vertices: Vec<Point> =
                (0..count).map(|_| Point::new(coordinate(lattice), coordinate(lattice))).collect();
            let line = Polyline::new(vertices);
            for probe in 0..40 {
                let p = Point::new(coordinate(lattice + 2), coordinate(lattice + 2));
                let p = if probe % 8 == 7 { Point::new(p.x + 0.5, p.y - 0.25) } else { p };
                let what = format!("round {round}, probe {probe}, p {p:?}");
                assert_bit_equal(&line.project(&p), &project_by_full_scan(&line, &p), &what);
            }
        }
    }

    #[test]
    fn projection_edge_cases_equal_the_full_scan() {
        let degenerate = Polyline::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]);
        let repeated = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
        ]);
        // Two parallel segments 2 m either side of y = 0, and a V whose arms
        // are mirror images about x = 0: points on y = 0 or x = 0 are
        // equidistant from two segments, and the first one must win.
        let parallel = Polyline::new(vec![
            Point::new(0.0, 2.0),
            Point::new(8.0, 2.0),
            Point::new(8.0, -2.0),
            Point::new(0.0, -2.0),
        ]);
        let vee =
            Polyline::new(vec![Point::new(-3.0, 5.0), Point::new(0.0, 0.0), Point::new(3.0, 5.0)]);
        let points = [
            Point::new(3.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(0.0, 3.0),
            Point::new(-0.0, 7.5),
            Point::new(4.0, 0.0),
            Point::new(-2.0, -2.0),
            Point::new(f64::NAN, 1.0),
            Point::new(1.0, f64::NAN),
            Point::new(f64::INFINITY, 0.0),
            Point::new(1e300, -1e300),
        ];
        for (name, line) in [
            ("degenerate", &degenerate),
            ("repeated", &repeated),
            ("parallel", &parallel),
            ("vee", &vee),
        ] {
            for p in &points {
                let what = format!("{name}, p {p:?}");
                assert_bit_equal(&line.project(p), &project_by_full_scan(line, p), &what);
            }
        }
        let nan = parallel.project(&Point::new(f64::NAN, 0.0));
        assert_eq!((nan.segment_index, nan.arc_length), (0, 0.0), "a NaN point matches nothing");
        assert!(nan.distance.is_infinite());
    }

    #[test]
    fn bounding_box_covers_all_vertices() {
        let bb = ell().bounding_box();
        assert!(bb.contains(&Point::new(0.0, 0.0)));
        assert!(bb.contains(&Point::new(10.0, 10.0)));
        assert!(!bb.contains(&Point::new(-1.0, 0.0)));
    }

    #[test]
    fn distance_to_far_point() {
        let p = Polyline::straight(Point::ORIGIN, Point::new(10.0, 0.0));
        assert!(approx_eq(p.distance_to(&Point::new(5.0, 7.0)), 7.0));
    }
}
