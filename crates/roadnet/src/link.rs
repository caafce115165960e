//! Links: road segments between two intersections, with shape points.

use crate::ids::{LinkId, NodeId};
use mbdr_geo::{kmh_to_ms, Aabb, Polyline, Vec2};
use serde::{Deserialize, Serialize};

/// Functional classification of a road, carrying a default speed limit.
///
/// The paper notes that "further information, like information about main
/// roads or the speed limit on a road, can be extracted from this road map, to
/// further improve the performance of the map-based protocol", and the
/// future-work section proposes speed-limit-aware prediction. The generators
/// tag every link with a class so those extensions can be exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadClass {
    /// Autobahn / freeway carriageway.
    Freeway,
    /// Inter-urban main road ("Bundesstraße").
    Trunk,
    /// Urban main road.
    Arterial,
    /// Urban side street.
    Residential,
    /// Footpath / campus walkway (not drivable).
    Footpath,
}

impl RoadClass {
    /// Default speed limit for the class, km/h.
    pub(crate) fn default_speed_limit_kmh(self) -> f64 {
        match self {
            RoadClass::Freeway => 130.0,
            RoadClass::Trunk => 100.0,
            RoadClass::Arterial => 50.0,
            RoadClass::Residential => 30.0,
            RoadClass::Footpath => 6.0,
        }
    }

    /// A relative importance used when a predictor prefers "main roads"
    /// (higher = more important).
    pub fn priority(self) -> u8 {
        match self {
            RoadClass::Freeway => 5,
            RoadClass::Trunk => 4,
            RoadClass::Arterial => 2,
            RoadClass::Residential => 1,
            RoadClass::Footpath => 0,
        }
    }
}

/// A link of the road network: an undirected road segment between two
/// intersections, geometrically described by a polyline whose interior
/// vertices are the link's *shape points*.
///
/// Links are traversable in both directions (the paper's model has no one-way
/// information); direction of travel is expressed by entering the link from
/// either its `from` or its `to` node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Unique identifier of the link.
    pub id: LinkId,
    /// Intersection at the geometric start of the polyline.
    pub from: NodeId,
    /// Intersection at the geometric end of the polyline.
    pub to: NodeId,
    /// Geometry: first vertex = `from` position, last vertex = `to` position,
    /// interior vertices are shape points.
    pub geometry: Polyline,
    /// Road classification.
    pub class: RoadClass,
    /// Speed limit in km/h (defaults to the class's value).
    pub speed_limit_kmh: f64,
}

impl Link {
    /// Creates a link with the class's default speed limit.
    pub(crate) fn new(
        id: LinkId,
        from: NodeId,
        to: NodeId,
        geometry: Polyline,
        class: RoadClass,
    ) -> Self {
        Link { id, from, to, geometry, class, speed_limit_kmh: class.default_speed_limit_kmh() }
    }

    /// Length of the link along its geometry, metres.
    #[inline]
    pub fn length(&self) -> f64 {
        self.geometry.length()
    }

    /// Speed limit in m/s.
    #[inline]
    pub fn speed_limit_ms(&self) -> f64 {
        kmh_to_ms(self.speed_limit_kmh)
    }

    /// Bounding box of the link geometry.
    #[inline]
    pub(crate) fn bounding_box(&self) -> Aabb {
        self.geometry.bounding_box()
    }

    /// The node at the other end of the link, seen from `node`; `None` if
    /// `node` is not an endpoint of this link.
    pub fn other_end(&self, node: NodeId) -> Option<NodeId> {
        if node == self.from {
            Some(self.to)
        } else if node == self.to {
            Some(self.from)
        } else {
            None
        }
    }

    /// Returns `true` if `node` is one of the link's endpoints.
    #[inline]
    pub fn touches(&self, node: NodeId) -> bool {
        node == self.from || node == self.to
    }

    /// The direction (unit vector) of travel along the link when *leaving*
    /// the given endpoint, taken from the geometry immediately adjacent to
    /// that endpoint. Returns `None` if `node` is not an endpoint.
    ///
    /// This is the vector the map-based predictor compares against the
    /// previous direction of travel to pick the "smallest angle" outgoing link
    /// at an intersection.
    pub(crate) fn departure_direction(&self, node: NodeId) -> Option<Vec2> {
        if node == self.from {
            Some(self.geometry.direction_at_arc_length(0.0))
        } else if node == self.to {
            // Leaving from the `to` end means travelling the geometry backwards.
            Some(-self.geometry.direction_at_arc_length(self.geometry.length()))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::Point;

    fn ell_link() -> Link {
        // 10 m east then 10 m north, with one shape point at the corner.
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            Polyline::new(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
            ]),
            RoadClass::Residential,
        )
    }

    #[test]
    fn length_and_shape_points() {
        let l = ell_link();
        assert!((l.length() - 20.0).abs() < 1e-9);
        assert_eq!(l.geometry.vertices().len(), 3);
        assert_eq!(l.speed_limit_kmh, 30.0);
        assert!((l.speed_limit_ms() - 30.0 / 3.6).abs() < 1e-9);
    }

    #[test]
    fn other_end_and_touches() {
        let l = ell_link();
        assert_eq!(l.other_end(NodeId(0)), Some(NodeId(1)));
        assert_eq!(l.other_end(NodeId(1)), Some(NodeId(0)));
        assert_eq!(l.other_end(NodeId(9)), None);
        assert!(l.touches(NodeId(0)) && l.touches(NodeId(1)) && !l.touches(NodeId(2)));
    }

    #[test]
    fn departure_directions_point_away_from_each_endpoint() {
        let l = ell_link();
        let from_dir = l.departure_direction(NodeId(0)).unwrap();
        assert!((from_dir.x - 1.0).abs() < 1e-9, "leaves eastwards from the start");
        let to_dir = l.departure_direction(NodeId(1)).unwrap();
        assert!((to_dir.y + 1.0).abs() < 1e-9, "leaves southwards from the end");
        assert!(l.departure_direction(NodeId(5)).is_none());
    }

    #[test]
    fn road_class_properties() {
        assert!(
            RoadClass::Freeway.default_speed_limit_kmh()
                > RoadClass::Residential.default_speed_limit_kmh()
        );
        assert!(RoadClass::Freeway.priority() > RoadClass::Arterial.priority());
    }

    #[test]
    fn bounding_box_covers_geometry() {
        let bb = ell_link().bounding_box();
        assert!(bb.contains(&Point::new(10.0, 10.0)));
        assert!(bb.contains(&Point::new(0.0, 0.0)));
    }
}
