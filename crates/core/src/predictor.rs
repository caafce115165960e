//! Prediction functions shared by source and server.
//!
//! "Both the source and the server use an identical function `pred()` to
//! predict a current position of the mobile object based on the last reported
//! object state" (paper, Section 2). A [`Predictor`] is exactly that function;
//! the concrete implementations here cover the non-map variants, and
//! [`crate::map_predictor::MapPredictor`] adds the map-based ones.

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

use crate::state::ObjectState;
use mbdr_geo::{Point, Vec2};

/// A deterministic prediction function `pred(reported_state, t) → position`.
///
/// Implementations must be pure with respect to their inputs: given the same
/// reported state and query time they must return the same position on the
/// source and on the server, otherwise the accuracy guarantee breaks.
pub trait Predictor: Send + Sync {
    /// Predicted position of the object at time `t`, based on the last
    /// reported state.
    fn predict(&self, reported: &ObjectState, t: f64) -> Point;

    /// Short human-readable name (for reports and plots).
    fn name(&self) -> &'static str;
}

/// "The object stays where it last reported": the prediction of the non-DR
/// distance-based reporting protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPredictor;

impl Predictor for StaticPredictor {
    fn predict(&self, reported: &ObjectState, _t: f64) -> Point {
        reported.position
    }
    fn name(&self) -> &'static str {
        "static"
    }
}

/// Linear prediction: the object continues on a straight line given by the
/// reported position and heading at the reported speed
/// (`pos + dir · v · (t − t₀)`, Fig. 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearPredictor;

impl Predictor for LinearPredictor {
    fn predict(&self, reported: &ObjectState, t: f64) -> Point {
        let dt = (t - reported.timestamp).max(0.0);
        let dir = Vec2::from_heading(reported.heading);
        reported.position + dir * (reported.speed * dt)
    }
    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Higher-order prediction: the object follows a circular arc determined by
/// the reported heading, speed and turn rate. With a zero turn rate this
/// degenerates to linear prediction, so it is a strict generalisation
/// ("curves or splines which, for example, could capture the object's
/// movements in a curve of the road", paper Section 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArcPredictor;

impl Predictor for ArcPredictor {
    fn predict(&self, reported: &ObjectState, t: f64) -> Point {
        let dt = (t - reported.timestamp).max(0.0);
        let omega = reported.turn_rate;
        if omega.abs() < 1e-6 {
            return LinearPredictor.predict(reported, t);
        }
        // Constant-speed, constant-turn-rate motion: the object moves along a
        // circle of radius v/ω. Integrate the heading analytically.
        let v = reported.speed;
        let h0 = reported.heading;
        let h1 = h0 + omega * dt;
        // Displacement = ∫ v·[sin h(t), cos h(t)] dt with h(t) = h0 + ω t.
        let dx = v / omega * (-(h1).cos() + h0.cos());
        let dy = v / omega * ((h1).sin() - h0.sin());
        reported.position + Vec2::new(dx, dy)
    }
    fn name(&self) -> &'static str {
        "arc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn state(heading: f64, speed: f64) -> ObjectState {
        ObjectState::basic(Point::new(100.0, 50.0), speed, heading, 10.0)
    }

    #[test]
    fn static_predictor_never_moves() {
        let s = state(0.0, 30.0);
        assert_eq!(StaticPredictor.predict(&s, 10.0), s.position);
        assert_eq!(StaticPredictor.predict(&s, 1_000.0), s.position);
        assert_eq!(StaticPredictor.name(), "static");
    }

    #[test]
    fn linear_predictor_moves_along_the_heading() {
        let s = state(FRAC_PI_2, 10.0); // heading east at 10 m/s
        let p = LinearPredictor.predict(&s, 15.0);
        assert!((p.x - 150.0).abs() < 1e-9);
        assert!((p.y - 50.0).abs() < 1e-9);
        // At the report time itself the prediction is the reported position.
        assert_eq!(LinearPredictor.predict(&s, 10.0), s.position);
        // Queries before the report time clamp to the reported position.
        assert_eq!(LinearPredictor.predict(&s, 5.0), s.position);
    }

    #[test]
    fn arc_predictor_with_zero_turn_rate_equals_linear() {
        let s = state(1.0, 20.0);
        for dt in [0.0, 1.0, 5.0, 30.0] {
            let a = ArcPredictor.predict(&s, 10.0 + dt);
            let l = LinearPredictor.predict(&s, 10.0 + dt);
            assert!(a.distance(&l) < 1e-9);
        }
    }

    #[test]
    fn arc_predictor_turns_at_the_requested_rate() {
        // Heading north, turning clockwise (towards east) at π/20 rad/s while
        // driving 10 m/s: after 10 s the heading is east and the object has
        // traced a quarter circle of radius v/ω = 200/π·... — just verify the
        // end point is east and north of the start and the path length is
        // correct to first order.
        let mut s = state(0.0, 10.0);
        s.turn_rate = std::f64::consts::FRAC_PI_2 / 10.0;
        let p = ArcPredictor.predict(&s, 20.0);
        assert!(p.x > s.position.x, "turned towards east");
        assert!(p.y > s.position.y, "still progressed north");
        // Chord of a quarter circle with arc length 100 → radius ≈ 63.7,
        // chord ≈ 90.0.
        let chord = p.distance(&s.position);
        assert!((chord - 90.03).abs() < 1.0, "chord {chord}");
    }

    #[test]
    fn arc_predictor_turning_left_mirrors_turning_right() {
        let mut right = state(0.0, 15.0);
        right.turn_rate = 0.05;
        let mut left = right;
        left.turn_rate = -0.05;
        let pr = ArcPredictor.predict(&right, 30.0);
        let pl = ArcPredictor.predict(&left, 30.0);
        // Same northward progress, mirrored east-west displacement.
        assert!((pr.y - pl.y).abs() < 1e-9);
        assert!((pr.x - right.position.x + (pl.x - right.position.x)).abs() < 1e-9);
    }

    #[test]
    fn predictors_are_object_safe() {
        let predictors: Vec<Box<dyn Predictor>> =
            vec![Box::new(StaticPredictor), Box::new(LinearPredictor), Box::new(ArcPredictor)];
        let s = state(0.3, 5.0);
        for p in &predictors {
            let pos = p.predict(&s, 12.0);
            assert!(pos.is_finite());
            assert!(!p.name().is_empty());
        }
    }
}
