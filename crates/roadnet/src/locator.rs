//! Spatial lookup of links near a position.
//!
//! The paper's map matcher initialises itself by "querying a spatial index for
//! the map information with the mobile object's current position" and keeps
//! re-querying while the object is off the map. [`LinkLocator`] keeps an
//! [`mbdr_spatial::MovingIndex`] grid — the index every location-service
//! shard runs — over per-segment bounding boxes of every link, and returns
//! candidate links together with their exact (polyline-projected) distance,
//! corrected position and arc length, nearest first with ties broken by the
//! lower link id.

use crate::ids::LinkId;
use crate::network::RoadNetwork;
use mbdr_geo::{Aabb, Point};
use mbdr_spatial::{MovingIndex, SeenScratch};

/// Side of the locator's grid cells, metres — the location service's
/// default cell.
const CELL_M: f64 = 250.0;

/// A candidate link produced by a locator query, with the exact projection of
/// the query position onto the link geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMatch {
    /// The matched link.
    pub link: LinkId,
    /// Exact distance from the query point to the link geometry, metres.
    pub distance: f64,
    /// The corrected position `p_c`: the query point projected perpendicularly
    /// onto the link (Fig. 5 of the paper).
    pub position_on_link: Point,
    /// Arc length of the corrected position from the link's `from` node.
    pub arc_length: f64,
}

/// Spatial index over the links of a [`RoadNetwork`].
///
/// Each link is indexed once per geometry segment so that long curved links do
/// not produce huge, useless bounding boxes. Queries dedup by link id and
/// return the best projection per link.
#[derive(Debug, Clone)]
pub struct LinkLocator {
    /// The link of every geometry segment, pushed link by link.
    links: Vec<LinkId>,
    /// One entry per segment bbox, under the segment's position in `links`.
    index: MovingIndex<u32>,
}

impl LinkLocator {
    /// Builds a locator for the given network.
    pub fn build(network: &RoadNetwork) -> Self {
        let count = network.links().iter().map(|link| link.geometry.segment_count()).sum();
        let (mut links, mut boxes) = (Vec::with_capacity(count), Vec::with_capacity(count));
        for link in network.links() {
            for seg in link.geometry.segments() {
                links.push(link.id);
                boxes.push(Aabb::from_points([seg.a, seg.b]).expect("segment has two points"));
            }
        }
        LinkLocator { index: MovingIndex::bulk(CELL_M, (0u32..).zip(boxes)), links }
    }

    /// All links whose geometry comes within `max_distance` metres of `p`,
    /// each once with its best projection. `max_distance` is the paper's
    /// matching tolerance `u_m`.
    ///
    /// Sorted by ascending exact distance; **equal distances go to the lower
    /// link id first**. Ties are common — a fix that projects onto a shared
    /// node is equally far from every link meeting there — and the first
    /// match decides where the matcher starts, so the rule is part of the
    /// answer. A non-finite `p`, or a `max_distance` that is negative or NaN,
    /// matches nothing.
    pub fn links_within(
        &self,
        network: &RoadNetwork,
        p: &Point,
        max_distance: f64,
    ) -> Vec<LinkMatch> {
        let mut out: Vec<LinkMatch> = Vec::new();
        if !p.is_finite() || max_distance.is_nan() || max_distance < 0.0 {
            return out;
        }
        // Segment positions come sorted, and a link's segments hold adjacent
        // positions, so each link is projected once.
        let mut segments = Vec::new();
        self.index.query_keys_into(
            &Aabb::around(*p, max_distance),
            &mut SeenScratch::new(),
            &mut segments,
        );
        let link_of = |at: u32| self.links[at as usize];
        segments.dedup_by_key(|at| link_of(*at));
        for link_id in segments.into_iter().map(link_of) {
            let proj = network.link(link_id).geometry.project(p);
            if proj.distance <= max_distance {
                out.push(LinkMatch {
                    link: link_id,
                    distance: proj.distance,
                    position_on_link: proj.point,
                    arc_length: proj.arc_length,
                });
            }
        }
        out.sort_unstable_by(|a, b| a.distance.total_cmp(&b.distance).then(a.link.cmp(&b.link)));
        out
    }

    /// The single nearest link to `p` within `max_distance`, if any.
    ///
    /// This is the initialisation step of the paper's map matching: "the link
    /// with the shortest distance is then selected, if it is not farther away
    /// than `u_m`".
    pub fn nearest_link(
        &self,
        network: &RoadNetwork,
        p: &Point,
        max_distance: f64,
    ) -> Option<LinkMatch> {
        self.links_within(network, p, max_distance).into_iter().next()
    }

    /// Projects `p` onto a specific link (convenience wrapper used by the
    /// matcher when it already has a current-link hypothesis).
    pub fn project_onto(&self, network: &RoadNetwork, link: LinkId, p: &Point) -> LinkMatch {
        let proj = network.link(link).geometry.project(p);
        LinkMatch {
            link,
            distance: proj.distance,
            position_on_link: proj.point,
            arc_length: proj.arc_length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::link::RoadClass;

    /// Two parallel east-west streets 100 m apart, connected by a north-south
    /// street at x = 0.
    fn h_network() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(-200.0, 0.0));
        let c = b.add_node(Point::new(200.0, 0.0));
        let d = b.add_node(Point::new(-200.0, 100.0));
        let e = b.add_node(Point::new(200.0, 100.0));
        let f = b.add_node(Point::new(0.0, 0.0));
        let g = b.add_node(Point::new(0.0, 100.0));
        b.add_straight_link(a, f, RoadClass::Residential); // 0: south-west
        b.add_straight_link(f, c, RoadClass::Residential); // 1: south-east
        b.add_straight_link(d, g, RoadClass::Residential); // 2: north-west
        b.add_straight_link(g, e, RoadClass::Residential); // 3: north-east
        b.add_straight_link(f, g, RoadClass::Residential); // 4: connector
        b.build().unwrap()
    }

    #[test]
    fn nearest_link_picks_closest_street() {
        let net = h_network();
        let loc = LinkLocator::build(&net);
        // 10 m north of the southern street, east of the connector.
        let m = loc.nearest_link(&net, &Point::new(50.0, 10.0), 50.0).unwrap();
        assert_eq!(m.link, LinkId(1));
        assert!((m.distance - 10.0).abs() < 1e-6);
        assert!((m.position_on_link.y - 0.0).abs() < 1e-6);
        assert!((m.position_on_link.x - 50.0).abs() < 1e-6);
    }

    #[test]
    fn matching_respects_the_tolerance_um() {
        let net = h_network();
        let loc = LinkLocator::build(&net);
        let p = Point::new(50.0, 40.0); // 40 m from the southern street
        assert!(loc.nearest_link(&net, &p, 30.0).is_none());
        assert!(loc.nearest_link(&net, &p, 45.0).is_some());
    }

    #[test]
    fn links_within_returns_all_candidates_sorted() {
        let net = h_network();
        let loc = LinkLocator::build(&net);
        // Exactly between the two horizontal streets, near the connector.
        let matches = loc.links_within(&net, &Point::new(10.0, 50.0), 60.0);
        assert!(matches.len() >= 3, "connector + both streets, got {}", matches.len());
        assert!(matches.windows(2).all(|w| w[0].distance <= w[1].distance));
        // The connector (10 m away) must be first.
        assert_eq!(matches[0].link, LinkId(4));
        assert!((matches[0].distance - 10.0).abs() < 1e-6);
    }

    #[test]
    fn project_onto_specific_link() {
        let net = h_network();
        let loc = LinkLocator::build(&net);
        let m = loc.project_onto(&net, LinkId(4), &Point::new(30.0, 50.0));
        assert_eq!(m.link, LinkId(4));
        assert!((m.distance - 30.0).abs() < 1e-6);
        assert!((m.arc_length - 50.0).abs() < 1e-6);
    }

    #[test]
    fn indexed_segment_count_matches_geometry() {
        let net = h_network();
        let loc = LinkLocator::build(&net);
        // Five straight links → five segments.
        assert_eq!(loc.index.len(), 5);
    }
}
