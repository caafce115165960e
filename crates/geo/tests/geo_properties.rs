//! Property-based tests for the geometry substrate: each property runs over
//! 64 seeded cases.

use mbdr_geo::rng::{for_each_seed, SplitMix64};
use mbdr_geo::{
    angle_between, normalize_angle, Aabb, GeoPoint, LocalProjection, Point, Polyline, Segment, Vec2,
};

const CASES: u64 = 64;

fn point(rng: &mut SplitMix64) -> Point {
    Point::new(rng.range(-50_000.0, 50_000.0), rng.range(-50_000.0, 50_000.0))
}

fn vector(rng: &mut SplitMix64) -> Vec2 {
    Vec2::new(rng.range(-1_000.0, 1_000.0), rng.range(-1_000.0, 1_000.0))
}

/// Two to seven vertices.
fn vertices(rng: &mut SplitMix64) -> Vec<Point> {
    (0..2 + rng.below(6)).map(|_| point(rng)).collect()
}

#[test]
fn distance_is_a_metric() {
    for_each_seed(CASES, |rng| {
        let (a, b, c) = (point(rng), point(rng), point(rng));
        let ab = a.distance(&b);
        let ba = b.distance(&a);
        assert!((ab - ba).abs() < 1e-6);
        assert!(ab >= 0.0);
        // Triangle inequality with a small tolerance for rounding.
        assert!(a.distance(&c) <= ab + b.distance(&c) + 1e-6);
    });
}

#[test]
fn heading_roundtrip_through_unit_vector() {
    for_each_seed(CASES, |rng| {
        let angle = rng.range(0.0, std::f64::consts::TAU);
        let v = Vec2::from_heading(angle);
        assert!((v.norm() - 1.0).abs() < 1e-9);
        assert!(angle_between(v.heading(), angle) < 1e-6);
    });
}

#[test]
fn normalize_angle_is_idempotent_and_in_range() {
    for_each_seed(CASES, |rng| {
        let n = normalize_angle(rng.range(-100.0, 100.0));
        assert!((0.0..std::f64::consts::TAU).contains(&n));
        assert!((normalize_angle(n) - n).abs() < 1e-12);
    });
}

#[test]
fn angle_between_is_symmetric_and_bounded() {
    for_each_seed(CASES, |rng| {
        let (a, b) = (rng.range(-20.0, 20.0), rng.range(-20.0, 20.0));
        let d = angle_between(a, b);
        assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&d));
        assert!((d - angle_between(b, a)).abs() < 1e-9);
    });
}

#[test]
fn segment_projection_is_closest_among_samples() {
    for_each_seed(CASES, |rng| {
        let (a, b, q) = (point(rng), point(rng), point(rng));
        let seg = Segment::new(a, b);
        let proj = seg.project(&q);
        // The reported distance must not exceed the distance to any sampled
        // point of the segment.
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            let sample = seg.point_at(t);
            assert!(proj.distance <= q.distance(&sample) + 1e-6);
        }
        // The projected point actually lies on the segment's bounding box.
        let bb = Aabb::new(a, b).inflated(1e-6);
        assert!(bb.contains(&proj.point));
    });
}

#[test]
fn polyline_arc_length_walk_is_consistent() {
    for_each_seed(CASES, |rng| {
        let poly = Polyline::new(vertices(rng));
        let total = poly.length();
        let s = rng.next_f64() * total;
        let p = poly.point_at_arc_length(s);
        // The point must lie on the polyline (distance ~ 0).
        assert!(poly.distance_to(&p) < 1e-6);
        // Walking the full length lands on the final vertex.
        assert!(poly.point_at_arc_length(total).distance(&poly.last()) < 1e-6);
    });
}

#[test]
fn polyline_projection_within_vertex_distance() {
    for_each_seed(CASES, |rng| {
        let pts = vertices(rng);
        let q = point(rng);
        let poly = Polyline::new(pts.clone());
        let proj = poly.project(&q);
        // Projection distance is never worse than the distance to any vertex.
        for v in &pts {
            assert!(proj.distance <= q.distance(v) + 1e-6);
        }
        assert!(proj.arc_length >= -1e-9);
        assert!(proj.arc_length <= poly.length() + 1e-6);
    });
}

#[test]
fn projection_roundtrip_is_sub_millimetre() {
    for_each_seed(CASES, |rng| {
        let proj = LocalProjection::stuttgart();
        let geo = GeoPoint::new(48.745 + rng.range(-0.3, 0.3), 9.105 + rng.range(-0.3, 0.3));
        let local = proj.to_local(&geo);
        let back = proj.to_geo(&local);
        assert!(geo.haversine_distance(&back) < 1e-3);
    });
}

#[test]
fn local_distances_track_geodesic_distances() {
    for_each_seed(CASES, |rng| {
        let proj = LocalProjection::stuttgart();
        let a = GeoPoint::new(48.745, 9.105);
        let b = GeoPoint::new(48.745 + rng.range(-0.2, 0.2), 9.105 + rng.range(-0.2, 0.2));
        let hav = a.haversine_distance(&b);
        let loc = proj.to_local(&a).distance(&proj.to_local(&b));
        // Within 1 % over a ~±22 km area (GPS noise is orders of magnitude larger).
        assert!((hav - loc).abs() <= hav.max(1.0) * 0.01 + 0.01);
    });
}

#[test]
fn aabb_union_contains_both() {
    for_each_seed(CASES, |rng| {
        let b1 = Aabb::new(point(rng), point(rng));
        let b2 = Aabb::new(point(rng), point(rng));
        let u = b1.union(&b2);
        assert!(u.contains_box(&b1));
        assert!(u.contains_box(&b2));
    });
}

#[test]
fn aabb_distance_zero_iff_contained() {
    for_each_seed(CASES, |rng| {
        let p = point(rng);
        let bb = Aabb::new(point(rng), point(rng));
        let d = bb.distance_to_point(&p);
        if bb.contains(&p) {
            assert!(d.abs() < 1e-9);
        } else {
            assert!(d > 0.0);
        }
    });
}

#[test]
fn vec_rotation_preserves_norm() {
    for_each_seed(CASES, |rng| {
        let v = vector(rng);
        let r = v.rotated(rng.range(-10.0, 10.0));
        assert!((r.norm() - v.norm()).abs() < 1e-6);
    });
}
