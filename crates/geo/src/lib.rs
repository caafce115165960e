//! # mbdr-geo — geometry substrate
//!
//! Planar and geodetic geometry primitives used throughout the map-based
//! dead-reckoning (MBDR) reproduction:
//!
//! * [`Point`] / [`Vec2`] — positions and displacements in a local metric
//!   (east/north) frame, the frame in which all protocol distance checks run.
//! * [`GeoPoint`] and [`projection::LocalProjection`] — WGS-84 coordinates and
//!   an equirectangular local tangent-plane projection, so synthetic maps and
//!   traces can round-trip through latitude/longitude like the paper's DGPS
//!   traces did.
//! * [`Segment`] / [`Polyline`] — road-link geometry (links with shape points
//!   are polylines); perpendicular projection of a sensed position onto a link
//!   is the core primitive of the paper's map matching (Fig. 5).
//! * [`Aabb`] — axis-aligned bounding boxes for the spatial index.
//! * [`bearing`] — headings and angular differences (the map-based predictor
//!   chooses the outgoing link "with the smallest angle to the previous link").
//! * [`estimate`] — speed and direction estimation from the last *n* position
//!   sightings (the paper interpolates over 2, 4 or 8 fixes depending on the
//!   movement pattern).
//! * [`units`] — km/h ↔ m/s conversion and Table 1's `h:mm` durations.
//!
//! Everything is `f64`, allocation-free on the hot paths, and independent of
//! the rest of the workspace so the substrate can be reused on its own.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bbox;
pub mod bearing;
pub mod estimate;
pub mod point;
pub mod polyline;
pub mod projection;
pub mod segment;
pub mod units;
pub mod vec2;

pub use bbox::Aabb;
pub use bearing::{angle_between, normalize_angle, signed_angle_between};
pub use estimate::{MotionEstimate, MotionEstimator};
pub use point::{GeoPoint, Point};
pub use polyline::{PolyProjection, Polyline};
pub use projection::LocalProjection;
pub use segment::{Segment, SegmentProjection};
pub use units::{format_duration_hm, kmh_to_ms, ms_to_kmh, Seconds};
pub use vec2::Vec2;

/// Numerical tolerance used by geometric comparisons in this crate (metres).
///
/// One tenth of a millimetre: far below both the DGPS accuracy (2–5 m) and the
/// smallest requested accuracy the paper evaluates (20 m), but large enough to
/// absorb floating-point noise in projections and arc-length computations.
pub const EPSILON: f64 = 1e-4;

/// Returns `true` if two scalar values are equal within [`EPSILON`].
#[cfg(test)]
pub(crate) fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(1.0, 1.0 + EPSILON / 2.0));
        assert!(!approx_eq(1.0, 1.0 + EPSILON * 10.0));
    }
}
