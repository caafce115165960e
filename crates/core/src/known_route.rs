//! Dead reckoning with a pre-known route (Wolfson et al. \[12\]).
//!
//! "If the route of the mobile object is known beforehand, the protocol only
//! needs to consider the object's speed and not the direction of its movement.
//! With a known route, a dead-reckoning protocol has the same performance as
//! an optimal map-based protocol, which chooses the right direction at all
//! intersections." (paper, Section 2)
//!
//! Both ends know the route geometry; an update reports how far along the
//! route the object is and how fast it is going, and the shared predictor
//! simply advances that arc length at the reported speed.

use crate::predictor::Predictor;
use crate::protocol::{DeadReckoningEngine, ProtocolConfig, Sighting, UpdateProtocol};
use crate::state::{ObjectState, Update};
use mbdr_geo::{MotionEstimator, Point, Polyline};
use std::sync::Arc;

/// Prediction along a pre-known route: walk the route polyline from the
/// reported arc length at the reported speed.
#[derive(Debug, Clone)]
pub(crate) struct RoutePredictor {
    route: Arc<Polyline>,
}

impl RoutePredictor {
    /// Creates a predictor for the given route geometry.
    pub(crate) fn new(route: Arc<Polyline>) -> Self {
        RoutePredictor { route }
    }
}

impl Predictor for RoutePredictor {
    fn predict(&self, reported: &ObjectState, t: f64) -> Point {
        let dt = (t - reported.timestamp).max(0.0);
        // For this predictor `arc_length` is the distance along the *route*
        // (not along a link).
        let s = reported.arc_length + reported.speed * dt;
        self.route.point_at_arc_length(s)
    }

    fn name(&self) -> &'static str {
        "known-route"
    }
}

/// The known-route dead-reckoning protocol.
pub struct KnownRouteDeadReckoning {
    engine: DeadReckoningEngine,
    estimator: MotionEstimator,
    route: Arc<Polyline>,
}

impl KnownRouteDeadReckoning {
    /// Creates the protocol for a route whose geometry is known to source and
    /// server in advance.
    pub fn new(route: Arc<Polyline>, config: ProtocolConfig, interpolation_window: usize) -> Self {
        let predictor = Arc::new(RoutePredictor::new(Arc::clone(&route)));
        KnownRouteDeadReckoning {
            engine: DeadReckoningEngine::new(config, predictor),
            estimator: MotionEstimator::new(interpolation_window),
            route,
        }
    }
}

impl UpdateProtocol for KnownRouteDeadReckoning {
    fn name(&self) -> &str {
        "known-route dead reckoning"
    }

    fn on_sighting(&mut self, s: Sighting) -> Option<Update> {
        self.estimator.record(s.t, s.position);
        // Project the sensed position onto the known route to obtain the
        // current arc length (the route-equivalent of map matching).
        let proj = self.route.project(&s.position);
        let estimator = &self.estimator;
        self.engine.decide(s.t, s.position, s.accuracy, None, || {
            let estimate = estimator.estimate();
            ObjectState {
                position: proj.point,
                speed: estimate.speed,
                heading: estimate.heading,
                timestamp: s.t,
                link: None,
                arc_length: proj.arc_length,
                towards: None,
                turn_rate: 0.0,
            }
        })
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

    /// An S-curved route, driven at constant speed.
    fn s_route() -> (Arc<Polyline>, Vec<Point>) {
        let mut vertices = Vec::new();
        for i in 0..=60 {
            let x = 50.0 * i as f64;
            let y = 200.0 * (x / 3_000.0 * std::f64::consts::TAU).sin();
            vertices.push(Point::new(x, y));
        }
        let poly = Arc::new(Polyline::new(vertices));
        let mut positions = Vec::new();
        let mut s = 0.0;
        while s < poly.length() {
            positions.push(poly.point_at_arc_length(s));
            s += 18.0; // 18 m/s, 1 Hz
        }
        (poly, positions)
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
    fn constant_speed_on_the_known_route_needs_almost_no_updates() {
        let (route, positions) = s_route();
        let mut p = KnownRouteDeadReckoning::new(route, ProtocolConfig::new(50.0), 2);
        let updates = count_updates(&mut p, &positions);
        assert!(updates <= 3, "got {updates}");
    }

    #[test]
    fn beats_linear_prediction_on_a_curved_route() {
        let (route, positions) = s_route();
        let config = ProtocolConfig::new(50.0);
        let mut known = KnownRouteDeadReckoning::new(route, config, 2);
        let mut linear = LinearDeadReckoning::new(config, 2);
        assert!(count_updates(&mut known, &positions) < count_updates(&mut linear, &positions));
    }

    #[test]
    fn speed_changes_still_require_updates() {
        let (route, _) = s_route();
        let mut p = KnownRouteDeadReckoning::new(Arc::clone(&route), ProtocolConfig::new(50.0), 2);
        let mut updates = 0;
        let mut s = 0.0;
        for t in 0..400 {
            // Stop-and-go traffic: 20 m/s for 100 s, standstill for 100 s, …
            let v = if (t / 100) % 2 == 0 { 20.0 } else { 0.0 };
            s += v;
            let pos = route.point_at_arc_length(s);
            if p.on_sighting(Sighting { t: t as f64, position: pos, accuracy: 3.0 }).is_some() {
                updates += 1;
            }
        }
        assert!(updates >= 4, "stop-and-go must force repeated updates, got {updates}");
        assert!(p.route.length() > 0.0);
        assert_eq!(p.predictor().name(), "known-route");
    }
}
