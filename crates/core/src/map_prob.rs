//! Map-based dead reckoning with probability information.
//!
//! "To improve the prediction of the subsequent direction after a mobile
//! object has passed an intersection, the links in the map can be enhanced
//! with probability information. These probabilities may describe what
//! percentage of all users follows a certain link (user-independent) or how
//! many times a certain object follows this link when moving over the
//! intersection (user-specific). The prediction function then assumes that the
//! object is following the link with the highest probability." (paper,
//! Section 2)
//!
//! The protocol is the map-based protocol with the
//! [`IntersectionPolicy::HighestProbability`] policy; the transition table can
//! be trained offline from past routes ([`learn_transitions_from_route`]) —
//! the "certain effort to capture these probabilities" the paper mentions —
//! and shared user-independently or kept per object.

use crate::map_based::MapBasedDeadReckoning;
use crate::map_predictor::IntersectionPolicy;
use crate::predictor::Predictor;
use crate::protocol::{ProtocolConfig, Sighting, UpdateProtocol};
use crate::state::Update;
use mbdr_roadnet::{RoadNetwork, Route, TransitionTable};
use std::sync::Arc;

/// Map-based dead reckoning whose intersection choice follows the
/// highest-probability link.
pub struct ProbabilityMapDeadReckoning {
    inner: MapBasedDeadReckoning,
}

impl ProbabilityMapDeadReckoning {
    /// Creates the protocol with a (possibly pre-trained) transition table.
    pub fn new(
        network: Arc<RoadNetwork>,
        table: Arc<TransitionTable>,
        config: ProtocolConfig,
        interpolation_window: usize,
        matching_tolerance: f64,
    ) -> Self {
        ProbabilityMapDeadReckoning {
            inner: MapBasedDeadReckoning::with_policy(
                network,
                config,
                interpolation_window,
                matching_tolerance,
                IntersectionPolicy::HighestProbability(table),
            ),
        }
    }
}

impl UpdateProtocol for ProbabilityMapDeadReckoning {
    fn name(&self) -> &str {
        "map-based dead reckoning with probabilities"
    }

    fn on_sighting(&mut self, s: Sighting) -> Option<Update> {
        self.inner.on_sighting(s)
    }

    fn predictor(&self) -> Arc<dyn Predictor> {
        self.inner.predictor()
    }

    fn config(&self) -> ProtocolConfig {
        self.inner.config()
    }
}

/// Records every intersection transition of a route into a transition table.
///
/// Driving the same commute repeatedly and feeding each trip's route through
/// this function produces the user-specific probabilities; feeding the trips
/// of many users into one table produces the user-independent variant.
pub fn learn_transitions_from_route(
    network: &RoadNetwork,
    route: &Route,
    table: &mut TransitionTable,
) {
    for i in 1..route.links.len() {
        let node = route.nodes[i];
        let from_link = route.links[i - 1];
        let to_link = route.links[i];
        // Only genuine decision points are informative.
        if network.degree(node) >= 3 {
            table.record(node, from_link, to_link);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_based::MapBasedDeadReckoning;
    use mbdr_geo::Point;
    use mbdr_roadnet::{NetworkBuilder, NodeId, RoadClass};

    /// A junction where the habitual route turns sharply right, so the
    /// smallest-angle heuristic systematically guesses wrong.
    ///
    /// ```text
    ///  A(0,0) ─── B(1000,0) ─── C(2000,50)    (straight on, slight left)
    ///                  │
    ///                  D(1000,-1000)          (the habitual sharp right)
    /// ```
    fn habit_network() -> (Arc<RoadNetwork>, Route) {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let bb = b.add_node(Point::new(1_000.0, 0.0));
        let c = b.add_node(Point::new(2_000.0, 50.0));
        let d = b.add_node(Point::new(1_000.0, -1_000.0));
        let approach = b.add_straight_link(a, bb, RoadClass::Arterial);
        let _straight = b.add_straight_link(bb, c, RoadClass::Arterial);
        let right = b.add_straight_link(bb, d, RoadClass::Arterial);
        let net = Arc::new(b.build().unwrap());
        let route =
            Route { nodes: vec![NodeId(0), NodeId(1), NodeId(3)], links: vec![approach, right] };
        assert!(route.is_valid(&net));
        (net, route)
    }

    /// Positions of a drive along the habitual route at 20 m/s.
    fn habitual_drive(net: &RoadNetwork, route: &Route) -> Vec<Point> {
        let poly = mbdr_geo::Polyline::new(route.path_points(net));
        let mut out = Vec::new();
        let mut s = 0.0;
        while s <= poly.length() {
            out.push(poly.point_at_arc_length(s));
            s += 20.0;
        }
        out
    }

    fn count_updates(protocol: &mut dyn UpdateProtocol, positions: &[Point]) -> usize {
        positions
            .iter()
            .enumerate()
            .filter(|(t, p)| {
                protocol
                    .on_sighting(Sighting { t: *t as f64, position: **p, accuracy: 3.0 })
                    .is_some()
            })
            .count()
    }

    #[test]
    fn learning_extracts_decision_point_transitions() {
        let (net, route) = habit_network();
        let mut table = TransitionTable::new();
        learn_transitions_from_route(&net, &route, &mut table);
        assert_eq!(table.observations(), 1);
        assert_eq!(table.most_likely(NodeId(1), route.links[0]), Some(route.links[1]));
    }

    #[test]
    fn probability_variant_beats_plain_map_based_on_habitual_routes() {
        let (net, route) = habit_network();
        let positions = habitual_drive(&net, &route);
        // Train the table from previous identical commutes.
        let mut table = TransitionTable::new();
        for _ in 0..5 {
            learn_transitions_from_route(&net, &route, &mut table);
        }
        let config = ProtocolConfig::new(80.0);
        let mut plain = MapBasedDeadReckoning::new(Arc::clone(&net), config, 2, 30.0);
        let mut prob =
            ProbabilityMapDeadReckoning::new(Arc::clone(&net), Arc::new(table), config, 2, 30.0);
        let plain_updates = count_updates(&mut plain, &positions);
        let prob_updates = count_updates(&mut prob, &positions);
        // The smallest-angle policy predicts "straight on" and must correct
        // itself after the turn; the probability policy knows the habit.
        assert!(
            prob_updates < plain_updates,
            "prob {prob_updates} should beat plain {plain_updates} at the habitual turn"
        );
    }

    #[test]
    fn untrained_table_behaves_like_plain_map_based() {
        let (net, route) = habit_network();
        let positions = habitual_drive(&net, &route);
        let config = ProtocolConfig::new(80.0);
        let mut plain = MapBasedDeadReckoning::new(Arc::clone(&net), config, 2, 30.0);
        let mut prob = ProbabilityMapDeadReckoning::new(
            Arc::clone(&net),
            Arc::new(TransitionTable::new()),
            config,
            2,
            30.0,
        );
        assert_eq!(count_updates(&mut plain, &positions), count_updates(&mut prob, &positions));
        assert!(prob.name().contains("probabilit"));
        assert_eq!(prob.predictor().name(), "map-based+prob");
    }
}
