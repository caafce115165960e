//! Linear-prediction dead reckoning.
//!
//! "This simple dead-reckoning protocol assumes that the mobile object keeps
//! on moving along a line given by the reported position and direction and
//! with the reported speed" (paper, Section 2). Speed and direction are not
//! taken from the sensor directly but interpolated from the last *n* position
//! sightings (2 on the freeway, 4 in inter-urban/city traffic, 8 when
//! walking), which is what [`mbdr_geo::MotionEstimator`] implements.

use crate::predictor::{LinearPredictor, Predictor};
use crate::protocol::{DeadReckoningEngine, ProtocolConfig, Sighting, UpdateProtocol};
use crate::state::{ObjectState, Update};
use mbdr_geo::MotionEstimator;
use std::sync::Arc;

/// The linear-prediction dead-reckoning protocol.
#[derive(Debug, Clone)]
pub struct LinearDeadReckoning {
    engine: DeadReckoningEngine,
    estimator: MotionEstimator,
}

impl LinearDeadReckoning {
    /// Creates the protocol with the given accuracy bound and speed/direction
    /// interpolation window (number of sightings, ≥ 2).
    pub fn new(config: ProtocolConfig, interpolation_window: usize) -> Self {
        LinearDeadReckoning {
            engine: DeadReckoningEngine::new(config, Arc::new(LinearPredictor)),
            estimator: MotionEstimator::new(interpolation_window),
        }
    }
}

impl UpdateProtocol for LinearDeadReckoning {
    fn name(&self) -> &str {
        "linear-prediction dead reckoning"
    }

    fn on_sighting(&mut self, s: Sighting) -> Option<Update> {
        // The estimate is read only when an update is sent.
        self.estimator.record(s.t, s.position);
        let estimator = &self.estimator;
        self.engine.decide(s.t, s.position, s.accuracy, None, || {
            let estimate = estimator.estimate();
            ObjectState::basic(s.position, estimate.speed, estimate.heading, s.t)
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
    use crate::distance_based::DistanceBasedReporting;
    use mbdr_geo::Point;

    fn drive_straight(protocol: &mut dyn UpdateProtocol, seconds: usize, speed: f64) -> usize {
        let mut updates = 0;
        for t in 0..seconds {
            let s = Sighting {
                t: t as f64,
                position: Point::new(speed * t as f64, 0.0),
                accuracy: 3.0,
            };
            if protocol.on_sighting(s).is_some() {
                updates += 1;
            }
        }
        updates
    }

    #[test]
    fn straight_constant_speed_motion_needs_almost_no_updates() {
        let mut p = LinearDeadReckoning::new(ProtocolConfig::new(50.0), 2);
        let updates = drive_straight(&mut p, 600, 28.0);
        // The first couple of sightings establish the speed estimate; after
        // that the prediction is exact.
        assert!(updates <= 3, "got {updates}");
    }

    #[test]
    fn beats_distance_based_reporting_on_straight_roads() {
        let mut linear = LinearDeadReckoning::new(ProtocolConfig::new(50.0), 2);
        let mut baseline = DistanceBasedReporting::new(ProtocolConfig::new(50.0));
        let linear_updates = drive_straight(&mut linear, 600, 28.0);
        let baseline_updates = drive_straight(&mut baseline, 600, 28.0);
        assert!(
            (linear_updates as f64) < baseline_updates as f64 * 0.2,
            "linear {linear_updates} vs distance-based {baseline_updates}"
        );
    }

    #[test]
    fn turning_forces_updates() {
        let mut p = LinearDeadReckoning::new(ProtocolConfig::new(50.0), 2);
        let mut updates = 0;
        // Drive east for 60 s, then north for 60 s at 20 m/s.
        for t in 0..120 {
            let pos = if t < 60 {
                Point::new(20.0 * t as f64, 0.0)
            } else {
                Point::new(20.0 * 59.0, 20.0 * (t - 59) as f64)
            };
            if p.on_sighting(Sighting { t: t as f64, position: pos, accuracy: 3.0 }).is_some() {
                updates += 1;
            }
        }
        assert!(updates >= 2, "the turn must force at least one extra update, got {updates}");
        assert!(updates <= 6, "but not a flood of them, got {updates}");
    }

    #[test]
    fn speed_change_forces_an_update() {
        let mut p = LinearDeadReckoning::new(ProtocolConfig::new(50.0), 2);
        let mut updates = 0;
        let mut x = 0.0;
        for t in 0..240 {
            let speed = if t < 120 { 30.0 } else { 5.0 }; // hard braking at t=120
            x += speed;
            if p.on_sighting(Sighting { t: t as f64, position: Point::new(x, 0.0), accuracy: 3.0 })
                .is_some()
            {
                updates += 1;
            }
        }
        assert!((2..=5).contains(&updates), "got {updates}");
    }

    #[test]
    fn tighter_accuracy_means_more_updates_on_noisy_motion() {
        let run = |us: f64| {
            let mut p = LinearDeadReckoning::new(ProtocolConfig::new(us), 4);
            let mut updates = 0;
            // A slalom: heading oscillates, so linear prediction keeps failing.
            for t in 0..600 {
                let pos = Point::new(15.0 * t as f64, 120.0 * ((t as f64) * 0.05).sin());
                if p.on_sighting(Sighting { t: t as f64, position: pos, accuracy: 3.0 }).is_some() {
                    updates += 1;
                }
            }
            updates
        };
        assert!(run(30.0) > run(200.0), "tighter accuracy must cost more updates");
    }

    #[test]
    fn exposes_window_and_predictor() {
        let p = LinearDeadReckoning::new(ProtocolConfig::new(100.0), 8);
        assert_eq!(p.estimator.window(), 8);
        assert_eq!(p.predictor().name(), "linear");
    }
}
