//! WGS-84 ↔ local metric frame projection.
//!
//! The paper's traces are DGPS latitude/longitude samples while all protocol
//! logic (deviation thresholds, map matching tolerances) is expressed in
//! metres. [`LocalProjection`] provides an equirectangular local tangent-plane
//! projection around a reference point: accurate to well under a metre for the
//! tens-of-kilometres extents the traces cover, which is far below the 20 m
//! minimum accuracy the paper evaluates.

use crate::point::{GeoPoint, Point};
use serde::{Deserialize, Serialize};

/// Equirectangular projection centred on a reference geodetic point.
///
/// East/north offsets are computed as arc lengths along the reference
/// latitude's parallel and the meridian respectively. The projection is exact
/// at the reference point and its error grows quadratically with distance;
/// over a 200 km × 200 km area the distortion stays below ~0.3 %, which is
/// negligible relative to GPS noise and the accuracy bounds studied here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalProjection {
    origin: GeoPoint,
    /// Metres per degree of latitude at the origin.
    m_per_deg_lat: f64,
    /// Metres per degree of longitude at the origin.
    m_per_deg_lon: f64,
}

impl LocalProjection {
    /// Creates a projection centred on `origin`.
    pub(crate) fn new(origin: GeoPoint) -> Self {
        debug_assert!(origin.is_valid(), "projection origin must be a valid GeoPoint");
        let lat_rad = origin.lat.to_radians();
        // First-order WGS-84 series expansions for the length of one degree.
        let m_per_deg_lat = 111_132.92 - 559.82 * (2.0 * lat_rad).cos()
            + 1.175 * (4.0 * lat_rad).cos()
            - 0.0023 * (6.0 * lat_rad).cos();
        let m_per_deg_lon = 111_412.84 * lat_rad.cos() - 93.5 * (3.0 * lat_rad).cos()
            + 0.118 * (5.0 * lat_rad).cos();
        LocalProjection { origin, m_per_deg_lat, m_per_deg_lon }
    }

    /// A projection centred on the University of Stuttgart campus, the region
    /// where the paper's traces were recorded. Used as the default origin for
    /// synthetic maps and traces.
    pub fn stuttgart() -> Self {
        LocalProjection::new(GeoPoint::new(48.745, 9.105))
    }

    /// Projects a geodetic point into the local metric frame.
    #[inline]
    pub fn to_local(&self, geo: &GeoPoint) -> Point {
        Point::new(
            (geo.lon - self.origin.lon) * self.m_per_deg_lon,
            (geo.lat - self.origin.lat) * self.m_per_deg_lat,
        )
    }

    /// Inverse projection from the local metric frame back to WGS-84.
    #[inline]
    pub fn to_geo(&self, p: &Point) -> GeoPoint {
        GeoPoint {
            lat: self.origin.lat + p.y / self.m_per_deg_lat,
            lon: self.origin.lon + p.x / self.m_per_deg_lon,
        }
    }
}

impl Default for LocalProjection {
    fn default() -> Self {
        LocalProjection::stuttgart()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_maps_to_zero() {
        let proj = LocalProjection::stuttgart();
        let p = proj.to_local(&proj.origin);
        assert!(p.distance(&Point::ORIGIN) < 1e-9);
    }

    #[test]
    fn roundtrip_is_exact_up_to_float_noise() {
        let proj = LocalProjection::stuttgart();
        let geo = GeoPoint::new(48.80, 9.20);
        let back = proj.to_geo(&proj.to_local(&geo));
        assert!((back.lat - geo.lat).abs() < 1e-10);
        assert!((back.lon - geo.lon).abs() < 1e-10);
    }

    #[test]
    fn local_distance_close_to_haversine() {
        let proj = LocalProjection::stuttgart();
        let a = GeoPoint::new(48.745, 9.105);
        let b = GeoPoint::new(48.80, 9.20); // ~9 km away
        let local = proj.to_local(&a).distance(&proj.to_local(&b));
        let hav = a.haversine_distance(&b);
        let rel_err = (local - hav).abs() / hav;
        assert!(rel_err < 0.005, "relative error {rel_err}");
    }

    #[test]
    fn one_degree_of_latitude_is_about_111_km() {
        let proj = LocalProjection::stuttgart();
        assert!((proj.m_per_deg_lat - 111_000.0).abs() < 1_000.0);
        // At ~48.7° N a degree of longitude is shorter than a degree of latitude.
        assert!(proj.m_per_deg_lon < proj.m_per_deg_lat);
    }

    #[test]
    fn default_is_stuttgart() {
        assert_eq!(LocalProjection::default().origin, LocalProjection::stuttgart().origin);
    }

    #[test]
    fn equator_projection_is_roughly_isotropic() {
        let proj = LocalProjection::new(GeoPoint::new(0.0, 0.0));
        let ratio = proj.m_per_deg_lon / proj.m_per_deg_lat;
        assert!((ratio - 1.0).abs() < 0.01, "ratio {ratio}");
    }
}
