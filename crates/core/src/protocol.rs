//! The source-side protocol interface and the shared dead-reckoning engine.

use crate::predictor::Predictor;
use crate::state::{ObjectState, Update, UpdateKind};
use mbdr_geo::Point;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One positioning-sensor reading as consumed by the protocols.
///
/// (Deliberately minimal and local to this crate so that the protocol family
/// does not depend on the trace-generation substrate; the simulator converts
/// its `Fix` type into `Sighting`s.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sighting {
    /// Timestamp, seconds.
    pub t: f64,
    /// Sensed position.
    pub position: Point,
    /// 1-σ sensor accuracy `u_p`, metres.
    pub accuracy: f64,
}

/// Configuration shared by all update protocols.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Requested accuracy `u_s` at the server, metres: the maximum deviation
    /// between the server-side predicted position and the actual position that
    /// the protocol guarantees.
    pub requested_accuracy: f64,
    /// Sensor uncertainty `u_p`, metres, added to the measured deviation when
    /// checking the bound ("if the source detects that the distance between
    /// the mobile object's actual and its reported position is greater than a
    /// certain accuracy `u_s` requested at the server", with the sensed
    /// position only known to within `u_p`).
    pub sensor_uncertainty: f64,
}

impl ProtocolConfig {
    /// Creates a configuration with the given requested accuracy and the
    /// DGPS-grade sensor uncertainty used in the paper's simulations.
    pub fn new(requested_accuracy: f64) -> Self {
        ProtocolConfig { requested_accuracy, sensor_uncertainty: 3.0 }
    }

    /// Overrides the sensor uncertainty `u_p`.
    pub fn with_sensor_uncertainty(mut self, up: f64) -> Self {
        self.sensor_uncertainty = up;
        self
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::new(100.0)
    }
}

/// Source-side update protocol: consumes sensor sightings, produces update
/// messages when the accuracy guarantee requires one.
pub trait UpdateProtocol {
    /// Human-readable protocol name (used in reports and plots).
    fn name(&self) -> &str;

    /// Processes one sensor sighting. Returns `Some(update)` when an update
    /// must be transmitted to the server, `None` when the server's prediction
    /// is still good enough.
    fn on_sighting(&mut self, sighting: Sighting) -> Option<Update>;

    /// The prediction function this protocol shares with the server. The
    /// simulator hands it to the [`crate::server::ServerTracker`] so that both
    /// ends provably use the same `pred()`.
    fn predictor(&self) -> Arc<dyn Predictor>;

    /// The protocol configuration (accuracy bound) in force.
    fn config(&self) -> ProtocolConfig;
}

/// The shared dead-reckoning send decision: keeps the last reported state,
/// predicts with the shared predictor and decides whether a new update is due.
///
/// All dead-reckoning variants (linear, higher-order, map-based, …) delegate
/// to this engine; they differ only in how they construct the reported
/// [`ObjectState`] and which [`Predictor`] they share with the server.
#[derive(Clone)]
pub(crate) struct DeadReckoningEngine {
    config: ProtocolConfig,
    predictor: Arc<dyn Predictor>,
    last_reported: Option<ObjectState>,
    sequence: u64,
}

impl std::fmt::Debug for DeadReckoningEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadReckoningEngine")
            .field("config", &self.config)
            .field("predictor", &self.predictor.name())
            .field("last_reported", &self.last_reported)
            .field("sequence", &self.sequence)
            .finish()
    }
}

impl DeadReckoningEngine {
    /// Creates an engine around a shared predictor.
    pub(crate) fn new(config: ProtocolConfig, predictor: Arc<dyn Predictor>) -> Self {
        DeadReckoningEngine { config, predictor, last_reported: None, sequence: 0 }
    }

    /// The shared predictor.
    pub(crate) fn predictor(&self) -> Arc<dyn Predictor> {
        Arc::clone(&self.predictor)
    }

    /// The configuration in force.
    pub(crate) fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// Decides whether an update is needed for an object whose *actual*
    /// (sensed) position at time `t` is `actual`, and whose full current state
    /// (the state that would be transmitted) is produced by `make_state`.
    ///
    /// `force` requests an update regardless of the deviation (used by the
    /// map-based protocol on mode changes, e.g. when it loses the map).
    pub(crate) fn decide(
        &mut self,
        t: f64,
        actual: Point,
        sensor_uncertainty: f64,
        force: Option<UpdateKind>,
        make_state: impl FnOnce() -> ObjectState,
    ) -> Option<Update> {
        let kind = match (&self.last_reported, force) {
            (None, _) => UpdateKind::Initial,
            (Some(_), Some(kind)) => kind,
            (Some(last), None) => {
                let predicted = self.predictor.predict(last, t);
                let deviation = actual.distance(&predicted) + sensor_uncertainty;
                if deviation <= self.config.requested_accuracy {
                    return None;
                }
                UpdateKind::DeviationBound
            }
        };
        let state = make_state();
        self.last_reported = Some(state);
        let update = Update { sequence: self.sequence, state, kind };
        self.sequence += 1;
        Some(update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::LinearPredictor;

    #[test]
    fn first_sighting_always_produces_an_initial_update() {
        let mut e = DeadReckoningEngine::new(ProtocolConfig::new(50.0), Arc::new(LinearPredictor));
        let u = e
            .decide(0.0, Point::new(0.0, 0.0), 3.0, None, || {
                ObjectState::basic(Point::new(0.0, 0.0), 10.0, 0.0, 0.0)
            })
            .expect("initial update");
        assert_eq!(u.kind, UpdateKind::Initial);
        assert_eq!(u.sequence, 0);
        assert!(e.last_reported.is_some());
    }

    #[test]
    fn no_update_while_prediction_holds() {
        let mut e = DeadReckoningEngine::new(ProtocolConfig::new(50.0), Arc::new(LinearPredictor));
        // Report: heading north at 10 m/s from the origin.
        e.decide(0.0, Point::new(0.0, 0.0), 3.0, None, || {
            ObjectState::basic(Point::new(0.0, 0.0), 10.0, 0.0, 0.0)
        });
        // Object follows the prediction: no updates.
        for t in 1..20 {
            let actual = Point::new(0.0, 10.0 * t as f64);
            assert!(e
                .decide(t as f64, actual, 3.0, None, || unreachable!("must not build a state"))
                .is_none());
        }
    }

    #[test]
    fn deviation_beyond_the_bound_triggers_an_update() {
        let mut e = DeadReckoningEngine::new(ProtocolConfig::new(50.0), Arc::new(LinearPredictor));
        e.decide(0.0, Point::new(0.0, 0.0), 3.0, None, || {
            ObjectState::basic(Point::new(0.0, 0.0), 10.0, 0.0, 0.0)
        });
        // The object actually turned east: deviation grows with time.
        let mut sent_at = None;
        for t in 1..30 {
            let actual = Point::new(10.0 * t as f64, 0.0);
            let result = e.decide(t as f64, actual, 3.0, None, || {
                ObjectState::basic(actual, 10.0, std::f64::consts::FRAC_PI_2, t as f64)
            });
            if let Some(u) = result {
                assert_eq!(u.kind, UpdateKind::DeviationBound);
                sent_at = Some(t);
                break;
            }
        }
        // Deviation after t seconds is ~14.1·t m (two perpendicular 10 m/s
        // motions); the 50 m bound (minus u_p) is crossed at t = 4.
        assert_eq!(sent_at, Some(4));
    }

    #[test]
    fn forced_updates_bypass_the_deviation_check() {
        let mut e = DeadReckoningEngine::new(ProtocolConfig::new(500.0), Arc::new(LinearPredictor));
        e.decide(0.0, Point::new(0.0, 0.0), 3.0, None, || {
            ObjectState::basic(Point::new(0.0, 0.0), 10.0, 0.0, 0.0)
        });
        let u = e
            .decide(1.0, Point::new(0.0, 10.0), 3.0, Some(UpdateKind::ModeChange), || {
                ObjectState::basic(Point::new(0.0, 10.0), 10.0, 0.0, 1.0)
            })
            .expect("forced update");
        assert_eq!(u.kind, UpdateKind::ModeChange);
        assert_eq!(u.sequence, 1);
    }

    #[test]
    fn server_prediction_matches_the_shared_predictor() {
        let mut e = DeadReckoningEngine::new(ProtocolConfig::new(50.0), Arc::new(LinearPredictor));
        assert!(e.last_reported.is_none());
        e.decide(0.0, Point::new(0.0, 0.0), 3.0, None, || {
            ObjectState::basic(Point::new(0.0, 0.0), 10.0, 0.0, 0.0)
        });
        let p = e.predictor.predict(e.last_reported.as_ref().unwrap(), 5.0);
        assert!((p.y - 50.0).abs() < 1e-9);
    }
}
