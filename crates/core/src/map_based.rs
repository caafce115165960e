//! The map-based dead-reckoning protocol — the paper's contribution.
//!
//! At the source (Section 3):
//!
//! 1. every sensor sighting is map-matched: the sensed position `p_p` is
//!    projected onto the current link to obtain the corrected position `p_c`,
//!    with forward/backward tracking when the object leaves the link and a
//!    spatial-index re-acquisition when it is off the map;
//! 2. speed is interpolated from the last *n* sightings as in the linear
//!    protocol;
//! 3. the shared prediction function walks along the road network from the
//!    reported `(link, position)` at the reported speed, choosing the
//!    smallest-angle outgoing link at intersections;
//! 4. an update `(p_c, v, link)` is sent whenever the actual position deviates
//!    from the predicted position by more than `u_s` (minus the sensor
//!    uncertainty), or when the protocol changes mode (loses the map and falls
//!    back to linear prediction, or returns to the map).

use crate::map_predictor::{IntersectionPolicy, MapPredictor};
use crate::predictor::Predictor;
use crate::protocol::{DeadReckoningEngine, ProtocolConfig, Sighting, UpdateProtocol};
use crate::state::{ObjectState, Update, UpdateKind};
use mbdr_geo::{MotionEstimator, Vec2};
use mbdr_mapmatch::{MapMatcher, MatchResult, MatcherConfig};
use mbdr_roadnet::{LinkLocator, NodeId, RoadNetwork};
use std::sync::Arc;

/// The map-based dead-reckoning protocol.
pub struct MapBasedDeadReckoning {
    engine: DeadReckoningEngine,
    estimator: MotionEstimator,
    matcher: MapMatcher,
    network: Arc<RoadNetwork>,
    /// Whether the last transmitted state carried a link (map mode) or not
    /// (linear-prediction fallback mode).
    server_in_map_mode: Option<bool>,
}

impl std::fmt::Debug for MapBasedDeadReckoning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapBasedDeadReckoning")
            .field("engine", &self.engine)
            .field("window", &self.estimator.window())
            .field("server_in_map_mode", &self.server_in_map_mode)
            .finish()
    }
}

impl MapBasedDeadReckoning {
    /// Creates the protocol with the paper's smallest-angle intersection
    /// policy.
    pub fn new(
        network: Arc<RoadNetwork>,
        config: ProtocolConfig,
        interpolation_window: usize,
        matching_tolerance: f64,
    ) -> Self {
        Self::with_policy(
            network,
            config,
            interpolation_window,
            matching_tolerance,
            IntersectionPolicy::SmallestAngle,
        )
    }

    /// Creates the protocol with an explicit intersection policy (used by the
    /// probability-enhanced variant and by the ablation benches).
    pub(crate) fn with_policy(
        network: Arc<RoadNetwork>,
        config: ProtocolConfig,
        interpolation_window: usize,
        matching_tolerance: f64,
        policy: IntersectionPolicy,
    ) -> Self {
        let locator = Arc::new(LinkLocator::build(&network));
        Self::with_locator(
            network,
            locator,
            config,
            interpolation_window,
            matching_tolerance,
            policy,
        )
    }

    /// Creates the protocol reusing an existing [`LinkLocator`] (building the
    /// spatial index once per map and sharing it across protocol instances is
    /// what a real deployment — and the fleet simulator — does).
    pub fn with_locator(
        network: Arc<RoadNetwork>,
        locator: Arc<LinkLocator>,
        config: ProtocolConfig,
        interpolation_window: usize,
        matching_tolerance: f64,
        policy: IntersectionPolicy,
    ) -> Self {
        let predictor = Arc::new(MapPredictor::with_policy(Arc::clone(&network), policy));
        let matcher = MapMatcher::new(
            Arc::clone(&network),
            locator,
            MatcherConfig::with_tolerance(matching_tolerance),
        );
        MapBasedDeadReckoning {
            engine: DeadReckoningEngine::new(config, predictor),
            estimator: MotionEstimator::new(interpolation_window),
            matcher,
            network,
            server_in_map_mode: None,
        }
    }

    /// Builds the reported object state from a match result and the motion
    /// estimate.
    fn build_state(
        network: &RoadNetwork,
        m: &MatchResult,
        speed: f64,
        heading: f64,
        t: f64,
    ) -> ObjectState {
        match m.link {
            Some(link_id) => {
                let link = network.link(link_id);
                // Which endpoint is the object heading towards? Compare the
                // estimated heading with the link direction at the matched
                // position.
                let link_dir = link.geometry.direction_at_arc_length(m.arc_length);
                let heading_vec = Vec2::from_heading(heading);
                let towards: NodeId =
                    if link_dir.dot(&heading_vec) >= 0.0 { link.to } else { link.from };
                ObjectState {
                    position: m.corrected,
                    speed,
                    heading,
                    timestamp: t,
                    link: Some(link_id),
                    arc_length: m.arc_length,
                    towards: Some(towards),
                    turn_rate: 0.0,
                }
            }
            None => ObjectState::basic(m.corrected, speed, heading, t),
        }
    }
}

impl UpdateProtocol for MapBasedDeadReckoning {
    fn name(&self) -> &str {
        "map-based dead reckoning"
    }

    fn on_sighting(&mut self, s: Sighting) -> Option<Update> {
        self.estimator.record(s.t, s.position);
        let m = self.matcher.update(s.position);

        // Losing the map forces an update: "When after forward- or
        // back-tracking no matching link could be found, the source sends an
        // update message with an empty link to the server." Returning to the
        // map needs no forced update — the last *reported* state (with its
        // empty link) is what both ends predict from, so they stay consistent
        // and the next bound violation naturally carries the new link.
        let now_in_map_mode = m.is_matched();
        let force = match self.server_in_map_mode {
            Some(true) if !now_in_map_mode => Some(UpdateKind::ModeChange),
            _ => None,
        };

        let (network, estimator) = (&self.network, &self.estimator);
        let update = self.engine.decide(s.t, s.position, s.accuracy, force, || {
            let estimate = estimator.estimate();
            Self::build_state(network, &m, estimate.speed, estimate.heading, s.t)
        });
        if update.is_some() {
            self.server_in_map_mode = Some(now_in_map_mode);
        }
        update
    }

    fn predictor(&self) -> Arc<dyn Predictor> {
        self.engine.predictor()
    }

    fn config(&self) -> ProtocolConfig {
        self.engine.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearDeadReckoning;
    use mbdr_geo::Point;
    use mbdr_geo::Polyline;
    use mbdr_roadnet::{NetworkBuilder, RoadClass};

    /// A curving road: 2 km of gentle S-curve with shape points every 100 m,
    /// as a single link between two nodes, followed by a straight continuation.
    fn curvy_network() -> (Arc<RoadNetwork>, Vec<Point>) {
        let mut vertices = Vec::new();
        for i in 0..=20 {
            let x = 100.0 * i as f64;
            let y = 150.0 * (x / 2_000.0 * std::f64::consts::TAU).sin();
            vertices.push(Point::new(x, y));
        }
        let mut b = NetworkBuilder::new();
        let a = b.add_node(vertices[0]);
        let c = b.add_node(*vertices.last().unwrap());
        b.add_link_with_geometry(a, c, Polyline::new(vertices.clone()), RoadClass::Trunk);
        // Straight continuation so the prediction has somewhere to go.
        let d = b.add_node(Point::new(4_000.0, 0.0));
        b.add_straight_link(c, d, RoadClass::Trunk);
        let net = Arc::new(b.build().unwrap());
        // Ground-truth drive: follow the link geometry at 20 m/s (1 sample/s).
        let poly = Polyline::new(vertices);
        let mut positions = Vec::new();
        let mut s = 0.0;
        while s < poly.length() {
            positions.push(poly.point_at_arc_length(s));
            s += 20.0;
        }
        (net, positions)
    }

    fn run(protocol: &mut dyn UpdateProtocol, positions: &[Point]) -> usize {
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
    fn follows_curves_that_defeat_linear_prediction() {
        let (net, positions) = curvy_network();
        let config = ProtocolConfig::new(50.0);
        let mut map_based = MapBasedDeadReckoning::new(Arc::clone(&net), config, 2, 30.0);
        let mut linear = LinearDeadReckoning::new(config, 2);
        let map_updates = run(&mut map_based, &positions);
        let linear_updates = run(&mut linear, &positions);
        assert!(
            map_updates < linear_updates,
            "map-based {map_updates} must beat linear {linear_updates} on a curvy road"
        );
        // On a constant-speed drive along the known geometry the map-based
        // protocol needs very few updates.
        assert!(map_updates <= 3, "got {map_updates}");
    }

    #[test]
    fn update_carries_the_link_and_corrected_position() {
        let (net, positions) = curvy_network();
        let mut p =
            MapBasedDeadReckoning::new(Arc::clone(&net), ProtocolConfig::new(50.0), 2, 30.0);
        let first = p
            .on_sighting(Sighting { t: 0.0, position: positions[0], accuracy: 3.0 })
            .expect("initial update");
        assert!(first.state.link.is_some(), "map-based update must carry the link id");
        assert!(first.state.towards.is_some());
        // The corrected position lies on the link (distance ~ 0 from geometry).
        let link = net.link(first.state.link.unwrap());
        assert!(link.geometry.distance_to(&first.state.position) < 1e-6);
    }

    #[test]
    fn leaving_the_map_forces_a_mode_change_update_with_empty_link() {
        let (net, positions) = curvy_network();
        let mut p =
            MapBasedDeadReckoning::new(Arc::clone(&net), ProtocolConfig::new(500.0), 2, 30.0);
        // Start on the road…
        p.on_sighting(Sighting { t: 0.0, position: positions[0], accuracy: 3.0 });
        p.on_sighting(Sighting { t: 1.0, position: positions[1], accuracy: 3.0 });
        // …then teleport far away from every link (e.g. into a car park).
        let off = Point::new(positions[1].x, positions[1].y + 500.0);
        let u = p
            .on_sighting(Sighting { t: 2.0, position: off, accuracy: 3.0 })
            .expect("losing the map must force an update even inside the accuracy bound");
        assert_eq!(u.kind, UpdateKind::ModeChange);
        assert!(u.state.link.is_none(), "the forced update carries an empty link");
        // Returning to the road triggers no *forced* mode-change update; here
        // the teleport made the linear prediction diverge far beyond the
        // bound, so a regular deviation-bound update follows and carries the
        // re-acquired link.
        let back = p
            .on_sighting(Sighting { t: 3.0, position: positions[2], accuracy: 3.0 })
            .expect("the bogus off-road velocity makes the prediction miss by far");
        assert_eq!(back.kind, UpdateKind::DeviationBound);
        assert!(back.state.link.is_some());
    }

    #[test]
    fn stationary_object_sends_only_the_initial_update() {
        let (net, positions) = curvy_network();
        let mut p = MapBasedDeadReckoning::new(net, ProtocolConfig::new(50.0), 2, 30.0);
        let mut updates = 0;
        for t in 0..120 {
            if p.on_sighting(Sighting { t: t as f64, position: positions[0], accuracy: 3.0 })
                .is_some()
            {
                updates += 1;
            }
        }
        assert_eq!(updates, 1);
    }

    #[test]
    fn exposes_configuration() {
        let (net, _) = curvy_network();
        let p = MapBasedDeadReckoning::new(net, ProtocolConfig::new(75.0), 4, 25.0);
        assert_eq!(p.config().requested_accuracy, 75.0);
        assert_eq!(p.matcher.config().tolerance, 25.0);
        assert_eq!(p.predictor().name(), "map-based");
        assert!(p.name().contains("map-based"));
    }
}
