//! The map-based prediction function.
//!
//! "The prediction function assumes that the object goes on following the
//! reported link with its current speed starting from the reported position.
//! When coming to an intersection, the prediction function selects an outgoing
//! link, which it assumes the object to keep on following in the same manner.
//! In our implementation, the link with the smallest angle to the previous
//! link is selected." (paper, Section 3)
//!
//! [`MapPredictor`] implements that walk over the road network. The
//! intersection choice is pluggable ([`IntersectionPolicy`]) so the
//! probability-enhanced variant and the ablation benches (main-road priority,
//! random choice) can reuse the same walker.

// Panic-free by construction: device-sent state reaches this code off the
// wire, so it answers bad input with typed errors, never with a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::predictor::{LinearPredictor, Predictor};
use crate::state::ObjectState;
use mbdr_geo::{Point, Vec2};
use mbdr_roadnet::{LinkId, NodeId, RoadNetwork, TransitionTable};
use std::sync::Arc;

/// How the predictor chooses the outgoing link at an intersection.
#[derive(Debug, Clone)]
pub enum IntersectionPolicy {
    /// The link whose departure direction has the smallest angle to the
    /// current direction of travel (the paper's choice).
    SmallestAngle,
    /// The link most frequently taken according to a transition table
    /// ("map-based with probability information"); falls back to the smallest
    /// angle when the situation has never been observed.
    HighestProbability(Arc<TransitionTable>),
    /// Prefer the link with the highest road-class priority (the paper's
    /// "ideally, the function would select the main road"); ties are broken by
    /// smallest angle.
    MainRoad,
    /// Deterministic pseudo-random choice (ablation lower bound): picks the
    /// link with the smallest id. Still deterministic so source and server
    /// agree.
    FirstLink,
}

/// Number of link transitions the predictor will walk through before giving
/// up and stopping at the last reached intersection. Bounds the work per
/// prediction; 64 links is far more than any realistic inter-update horizon.
const MAX_LINK_HOPS: usize = 64;

/// Map-based prediction function over a shared road network.
#[derive(Debug, Clone)]
pub struct MapPredictor {
    network: Arc<RoadNetwork>,
    policy: IntersectionPolicy,
}

impl MapPredictor {
    /// Creates a predictor with the paper's smallest-angle policy.
    pub fn new(network: Arc<RoadNetwork>) -> Self {
        MapPredictor { network, policy: IntersectionPolicy::SmallestAngle }
    }

    /// Creates a predictor with an explicit intersection policy.
    pub fn with_policy(network: Arc<RoadNetwork>, policy: IntersectionPolicy) -> Self {
        MapPredictor { network, policy }
    }

    /// Chooses the outgoing link at `node`, an endpoint of `arriving`, for an
    /// object arriving over `arriving`. Returns `None` when the node is a
    /// dead end.
    ///
    /// The paper's smallest-angle choice is a property of the map and was
    /// made when the map was built ([`RoadNetwork::straightest_continuation`]),
    /// so source and server share it by construction and a hop costs an array
    /// lookup. The other policies stay allocation-free by re-iterating the
    /// network's adjacency slice — this runs once per link hop inside every
    /// map-based prediction.
    fn choose_outgoing(&self, node: NodeId, arriving: LinkId) -> Option<LinkId> {
        let network = &*self.network;
        let candidates = || network.outgoing_links_iter(node, Some(arriving));
        match &self.policy {
            IntersectionPolicy::SmallestAngle => network.straightest_continuation(arriving, node),
            IntersectionPolicy::HighestProbability(table) => table
                .most_likely(node, arriving)
                .filter(|&l| candidates().any(|c| c == l))
                .or_else(|| network.straightest_continuation(arriving, node)),
            IntersectionPolicy::MainRoad => {
                let priority = |l: LinkId| network.link(l).class.priority();
                let best_priority = candidates().map(priority).max()?;
                network.smallest_angle_link(
                    arriving,
                    node,
                    candidates().filter(|&l| priority(l) == best_priority),
                )
            }
            IntersectionPolicy::FirstLink => candidates().min(),
        }
    }
}

impl Predictor for MapPredictor {
    fn predict(&self, reported: &ObjectState, t: f64) -> Point {
        // Off the map (or a non-map update): fall back to linear prediction,
        // exactly as the protocol does ("In this case, the linear prediction
        // protocol is used as a fall-back").
        let Some(link_id) = reported.link else {
            return LinearPredictor.predict(reported, t);
        };
        let Some(link) = self.network.get_link(link_id) else {
            return LinearPredictor.predict(reported, t);
        };

        let dt = (t - reported.timestamp).max(0.0);
        let mut remaining = reported.speed * dt;

        // Current position along the current link and the endpoint we walk
        // towards. `towards` arrives off the wire: only an endpoint of the
        // reported link is a direction. Anything else — absent, off the node
        // table, or a node elsewhere on the map — is derived from the
        // reported heading relative to the link geometry, so a hostile update
        // can neither index past the map nor restart the walk from an
        // unrelated intersection.
        let mut current_link = link_id;
        let mut towards = reported.towards.filter(|&n| link.touches(n)).unwrap_or_else(|| {
            let dir_at = link.geometry.direction_at_arc_length(reported.arc_length);
            let heading_vec = Vec2::from_heading(reported.heading);
            if dir_at.dot(&heading_vec) >= 0.0 {
                link.to
            } else {
                link.from
            }
        });
        // Distance from the reported position to the end of the link in the
        // direction of travel.
        let link_ref = link;
        let mut distance_to_end = if towards == link_ref.to {
            link_ref.length() - reported.arc_length
        } else {
            reported.arc_length
        }
        .max(0.0);

        let mut hops = 0usize;
        loop {
            if remaining <= distance_to_end || hops >= MAX_LINK_HOPS {
                // The predicted position lies on the current link.
                let l = self.network.link(current_link);
                let walk = remaining.min(distance_to_end);
                let arc = if towards == l.to {
                    // Moving towards `to`: arc length increases.
                    (l.length() - distance_to_end) + walk
                } else {
                    // Moving towards `from`: arc length decreases.
                    distance_to_end - walk
                };
                return l.geometry.point_at_arc_length(arc);
            }
            // Consume the rest of this link and cross the intersection.
            remaining -= distance_to_end;
            hops += 1;
            let node = towards;
            match self.choose_outgoing(node, current_link) {
                Some(next) => {
                    let next_link = self.network.link(next);
                    towards = next_link.other_end(node).unwrap_or(next_link.to);
                    distance_to_end = next_link.length();
                    current_link = next;
                }
                None => {
                    // Dead end: the prediction stops at the node.
                    return self.network.node(node).position;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.policy {
            IntersectionPolicy::SmallestAngle => "map-based",
            IntersectionPolicy::HighestProbability(_) => "map-based+prob",
            IntersectionPolicy::MainRoad => "map-based+mainroad",
            IntersectionPolicy::FirstLink => "map-based+first",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerTracker;
    use crate::state::{Update, UpdateKind};
    use mbdr_roadnet::{NetworkBuilder, RoadClass};

    /// A Y-junction: approach road heading east, then a slight-left branch
    /// (continues roughly east-northeast) and a sharp-right branch (south).
    ///
    /// ```text
    ///  A(0,0) ──── B(500,0) ──── C(1000,120)   (slight left, arterial)
    ///                   \
    ///                    D(520,-500)           (sharp right, residential)
    /// ```
    fn y_junction() -> (Arc<RoadNetwork>, LinkId, LinkId, LinkId) {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let bb = b.add_node(Point::new(500.0, 0.0));
        let c = b.add_node(Point::new(1000.0, 120.0));
        let d = b.add_node(Point::new(520.0, -500.0));
        let approach = b.add_straight_link(a, bb, RoadClass::Arterial);
        let left = b.add_straight_link(bb, c, RoadClass::Arterial);
        let right = b.add_straight_link(bb, d, RoadClass::Residential);
        (Arc::new(b.build().unwrap()), approach, left, right)
    }

    fn reported_on(link: LinkId, arc: f64, speed: f64, towards: NodeId) -> ObjectState {
        ObjectState {
            position: Point::new(arc, 0.0),
            speed,
            heading: std::f64::consts::FRAC_PI_2,
            timestamp: 0.0,
            link: Some(link),
            arc_length: arc,
            towards: Some(towards),
            turn_rate: 0.0,
        }
    }

    #[test]
    fn prediction_walks_along_the_current_link() {
        let (net, approach, _, _) = y_junction();
        let pred = MapPredictor::new(net);
        let state = reported_on(approach, 100.0, 10.0, NodeId(1));
        // After 20 s at 10 m/s the object should be 200 m farther along.
        let p = pred.predict(&state, 20.0);
        assert!((p.x - 300.0).abs() < 1e-6);
        assert!(p.y.abs() < 1e-6);
        // At t = report time: exactly the reported position.
        assert!(pred.predict(&state, 0.0).distance(&Point::new(100.0, 0.0)) < 1e-9);
    }

    #[test]
    fn smallest_angle_policy_goes_straight_on_at_the_junction() {
        let (net, approach, left, _) = y_junction();
        let pred = MapPredictor::new(Arc::clone(&net));
        let state = reported_on(approach, 400.0, 10.0, NodeId(1));
        // 30 s → 300 m: 100 m to the junction, 200 m onto the slight-left
        // branch (the smallest-angle continuation).
        let p = pred.predict(&state, 30.0);
        let expected = net.link(left).geometry.point_at_arc_length(200.0);
        assert!(p.distance(&expected) < 1e-6, "got {p}, expected {expected}");
    }

    #[test]
    fn probability_policy_overrides_geometry() {
        let (net, approach, _, right) = y_junction();
        // The object habitually turns right at this junction.
        let mut table = TransitionTable::new();
        for _ in 0..5 {
            table.record(NodeId(1), approach, right);
        }
        let pred = MapPredictor::with_policy(
            Arc::clone(&net),
            IntersectionPolicy::HighestProbability(Arc::new(table)),
        );
        let state = reported_on(approach, 400.0, 10.0, NodeId(1));
        let p = pred.predict(&state, 30.0);
        let expected = net.link(right).geometry.point_at_arc_length(200.0);
        assert!(p.distance(&expected) < 1e-6, "got {p}, expected {expected}");
        assert_eq!(pred.name(), "map-based+prob");
    }

    #[test]
    fn unobserved_situations_fall_back_to_smallest_angle() {
        let (net, approach, left, _) = y_junction();
        let pred = MapPredictor::with_policy(
            Arc::clone(&net),
            IntersectionPolicy::HighestProbability(Arc::new(TransitionTable::new())),
        );
        let state = reported_on(approach, 400.0, 10.0, NodeId(1));
        let p = pred.predict(&state, 30.0);
        let expected = net.link(left).geometry.point_at_arc_length(200.0);
        assert!(p.distance(&expected) < 1e-6);
    }

    #[test]
    fn main_road_policy_prefers_the_higher_class() {
        // Make the sharp-right branch a trunk road; main-road policy must take
        // it even though the angle is worse.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let bb = b.add_node(Point::new(500.0, 0.0));
        let c = b.add_node(Point::new(1000.0, 120.0));
        let d = b.add_node(Point::new(520.0, -500.0));
        let approach = b.add_straight_link(a, bb, RoadClass::Arterial);
        let _left = b.add_straight_link(bb, c, RoadClass::Residential);
        let right = b.add_straight_link(bb, d, RoadClass::Trunk);
        let net = Arc::new(b.build().unwrap());
        let pred = MapPredictor::with_policy(Arc::clone(&net), IntersectionPolicy::MainRoad);
        let state = reported_on(approach, 400.0, 10.0, NodeId(1));
        let p = pred.predict(&state, 30.0);
        let expected = net.link(right).geometry.point_at_arc_length(200.0);
        assert!(p.distance(&expected) < 1e-6);
    }

    #[test]
    fn dead_end_stops_the_prediction_at_the_node() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let e = b.add_node(Point::new(300.0, 0.0));
        let l = b.add_straight_link(a, e, RoadClass::Residential);
        let net = Arc::new(b.build().unwrap());
        let pred = MapPredictor::new(Arc::clone(&net));
        let state = reported_on(l, 100.0, 20.0, NodeId(1));
        // 60 s at 20 m/s = 1200 m, but the road ends after 300 m.
        let p = pred.predict(&state, 60.0);
        assert!(p.distance(&Point::new(300.0, 0.0)) < 1e-6);
    }

    #[test]
    fn off_map_state_uses_linear_prediction() {
        let (net, _, _, _) = y_junction();
        let pred = MapPredictor::new(net);
        let state =
            ObjectState::basic(Point::new(0.0, 0.0), 10.0, std::f64::consts::FRAC_PI_2, 0.0);
        let p = pred.predict(&state, 10.0);
        assert!((p.x - 100.0).abs() < 1e-9);
    }

    #[test]
    fn travelling_towards_the_from_node_walks_backwards() {
        let (net, approach, _, _) = y_junction();
        let pred = MapPredictor::new(Arc::clone(&net));
        let mut state = reported_on(approach, 400.0, 10.0, NodeId(0));
        state.heading = 1.5 * std::f64::consts::PI; // west
        let p = pred.predict(&state, 20.0);
        assert!((p.x - 200.0).abs() < 1e-6, "got {p}");
    }

    #[test]
    fn zero_speed_prediction_stays_put() {
        let (net, approach, _, _) = y_junction();
        let pred = MapPredictor::new(net);
        let state = reported_on(approach, 250.0, 0.0, NodeId(1));
        let p = pred.predict(&state, 500.0);
        assert!(p.distance(&Point::new(250.0, 0.0)) < 1e-9);
    }

    /// What the server answers at `t` for an object reported 100 m before the
    /// Y-junction, after the update crossed the wire with the given `towards`.
    fn served_after_the_wire(towards: Option<NodeId>, t: f64) -> Point {
        let (net, approach, _, _) = y_junction();
        let state = ObjectState { towards, ..reported_on(approach, 400.0, 10.0, NodeId(1)) };
        let bytes = Update { sequence: 0, state, kind: UpdateKind::Initial }.encode().unwrap();
        let mut tracker = ServerTracker::new(Arc::new(MapPredictor::new(net)));
        tracker.apply(&Update::decode(&bytes).expect("wire-legal"));
        tracker.position_at(t).expect("tracked")
    }

    #[test]
    fn a_towards_beyond_the_node_table_is_handled_as_absent() {
        // Wire-legal (only 0xFFFF_FFFF is reserved), far past the 4 nodes of
        // the map, and the walk crosses the link end at both instants.
        for t in [30.0, 120.0] {
            assert_eq!(
                served_after_the_wire(Some(NodeId(4_000_000)), t),
                served_after_the_wire(None, t)
            );
        }
    }

    #[test]
    fn a_towards_that_is_not_an_endpoint_of_the_link_is_handled_as_absent() {
        // Node 3 (D) is on the map but not on the approach link: the walk
        // must neither turn around nor restart from D's intersection.
        for t in [5.0, 30.0, 120.0] {
            assert_eq!(served_after_the_wire(Some(NodeId(3)), t), served_after_the_wire(None, t));
        }
        // …and "absent" means eastwards, onto the smallest-angle branch.
        let (net, _, left, _) = y_junction();
        let expected = net.link(left).geometry.point_at_arc_length(200.0);
        assert!(served_after_the_wire(Some(NodeId(3)), 30.0).distance(&expected) < 1e-6);
    }
}
