//! Driver / pedestrian behaviour profiles.
//!
//! A profile captures everything about *how* an object moves that is not
//! dictated by the map geometry: acceleration limits, willingness to corner
//! fast, adherence to speed limits, and how often and how long it stops at
//! intersections (traffic lights, bus stops, window shopping). The four
//! presets correspond to the paper's four movement patterns.

use mbdr_geo::kmh_to_ms;
use serde::{Deserialize, Serialize};

/// Behavioural parameters of the simulated mobile object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriverProfile {
    /// Maximum speed the object will ever travel, m/s (vehicle capability or
    /// personal walking pace).
    pub max_speed: f64,
    /// Factor applied to posted speed limits (1.05 = drives 5 % above).
    pub speed_limit_compliance: f64,
    /// Maximum forward acceleration, m/s².
    pub max_acceleration: f64,
    /// Maximum comfortable deceleration, m/s².
    pub max_deceleration: f64,
    /// Maximum comfortable lateral acceleration in curves, m/s². Determines
    /// how much the object slows down for tight geometry.
    pub max_lateral_acceleration: f64,
    /// Probability of stopping when passing a decision node (intersection with
    /// degree ≥ 3): red lights, stop signs, …
    pub stop_probability: f64,
    /// Mean stop duration, seconds.
    pub mean_stop_duration: f64,
    /// Relative amplitude of slow speed wander around the target speed
    /// (models imperfect cruise keeping / crowd walking speed variation).
    pub speed_wander: f64,
}

impl DriverProfile {
    /// Freeway driving: high speeds, gentle accelerations, essentially no
    /// stops (Table 1: average 103 km/h, maximum 155 km/h).
    pub(crate) fn freeway_car() -> Self {
        DriverProfile {
            max_speed: kmh_to_ms(155.0),
            speed_limit_compliance: 1.1,
            max_acceleration: 1.2,
            max_deceleration: 2.0,
            max_lateral_acceleration: 3.0,
            stop_probability: 0.0,
            mean_stop_duration: 0.0,
            speed_wander: 0.08,
        }
    }

    /// Inter-urban driving on country roads through villages (Table 1:
    /// average 60 km/h, maximum 116 km/h).
    pub(crate) fn interurban_car() -> Self {
        DriverProfile {
            max_speed: kmh_to_ms(116.0),
            speed_limit_compliance: 1.05,
            max_acceleration: 1.6,
            max_deceleration: 2.5,
            max_lateral_acceleration: 2.6,
            stop_probability: 0.25,
            mean_stop_duration: 18.0,
            speed_wander: 0.10,
        }
    }

    /// City driving: low speeds, frequent stops at lights (Table 1: average
    /// 34 km/h, maximum 65 km/h).
    pub fn city_car() -> Self {
        DriverProfile {
            max_speed: kmh_to_ms(65.0),
            speed_limit_compliance: 1.05,
            max_acceleration: 1.8,
            max_deceleration: 2.8,
            max_lateral_acceleration: 2.2,
            stop_probability: 0.45,
            mean_stop_duration: 25.0,
            speed_wander: 0.12,
        }
    }

    /// A walking person (Table 1: average 4.6 km/h, maximum 7.2 km/h).
    pub(crate) fn pedestrian() -> Self {
        DriverProfile {
            max_speed: kmh_to_ms(7.2),
            speed_limit_compliance: 1.0,
            max_acceleration: 0.8,
            max_deceleration: 1.2,
            // Walkers corner without slowing much relative to their speed.
            max_lateral_acceleration: 1.5,
            stop_probability: 0.15,
            mean_stop_duration: 20.0,
            speed_wander: 0.20,
        }
    }

    /// The speed this profile actually drives on a road with the given posted
    /// limit (m/s), before curve or stop constraints.
    pub(crate) fn cruise_speed(&self, speed_limit_ms: f64) -> f64 {
        (speed_limit_ms * self.speed_limit_compliance).min(self.max_speed)
    }

    /// Maximum speed through a curve of radius `radius_m` (m/s), from
    /// `v² / r ≤ a_lat`.
    pub(crate) fn curve_speed(&self, radius_m: f64) -> f64 {
        if !radius_m.is_finite() {
            return self.max_speed;
        }
        (self.max_lateral_acceleration * radius_m.max(1.0)).sqrt().min(self.max_speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::ms_to_kmh;

    #[test]
    fn presets_are_ordered_by_speed() {
        let f = DriverProfile::freeway_car();
        let i = DriverProfile::interurban_car();
        let c = DriverProfile::city_car();
        let p = DriverProfile::pedestrian();
        assert!(f.max_speed > i.max_speed);
        assert!(i.max_speed > c.max_speed);
        assert!(c.max_speed > p.max_speed);
        assert!((ms_to_kmh(p.max_speed) - 7.2).abs() < 1e-9);
    }

    #[test]
    fn cruise_speed_respects_both_limit_and_capability() {
        let c = DriverProfile::city_car();
        // 50 km/h limit → drives slightly above it.
        let v = c.cruise_speed(kmh_to_ms(50.0));
        assert!(v > kmh_to_ms(50.0) && v < kmh_to_ms(56.0));
        // 200 km/h limit → capped by vehicle capability.
        assert!((c.cruise_speed(kmh_to_ms(200.0)) - c.max_speed).abs() < 1e-9);
    }

    #[test]
    fn curve_speed_decreases_with_radius() {
        let f = DriverProfile::freeway_car();
        assert!(f.curve_speed(1_000.0) > f.curve_speed(100.0));
        assert!(f.curve_speed(100.0) > f.curve_speed(10.0));
        // A straight road does not limit speed.
        assert!((f.curve_speed(f64::INFINITY) - f.max_speed).abs() < 1e-9);
        // Degenerate radii do not produce NaN.
        assert!(f.curve_speed(0.0) > 0.0);
    }

    #[test]
    fn stop_behaviour_differs_between_freeway_and_city() {
        assert_eq!(DriverProfile::freeway_car().stop_probability, 0.0);
        assert!(DriverProfile::city_car().stop_probability > 0.3);
    }
}
