//! The accuracy guarantee: the deviation between the server-side predicted
//! position and the true position stays within the requested accuracy (plus
//! sensor error), for every dead-reckoning protocol, on every scenario —
//! including a property-based test over random straight-line motions.

use mbdr_core::{
    DistanceBasedReporting, LinearDeadReckoning, ProtocolConfig, ServerTracker, Sighting,
    UpdateProtocol,
};
use mbdr_geo::rng::for_each_seed;
use mbdr_geo::{Point, Vec2};
use mbdr_sim::protocols::ProtocolContext;
use mbdr_sim::runner::{run_protocol, RunConfig};
use mbdr_sim::ProtocolKind;
use mbdr_trace::{Scenario, ScenarioKind};

#[test]
fn bound_violations_are_negligible_on_all_scenarios_and_protocols() {
    for kind in ScenarioKind::ALL {
        let data = Scenario { kind, scale: 0.05, seed: 31 }.build();
        let ctx = ProtocolContext::for_scenario(&data);
        for protocol in [
            ProtocolKind::DistanceBased,
            ProtocolKind::Linear,
            ProtocolKind::HigherOrder,
            ProtocolKind::MapBased,
            ProtocolKind::MapProbability,
            ProtocolKind::KnownRoute,
        ] {
            let outcome =
                run_protocol(&data.trace, protocol.build(&ctx, 100.0), RunConfig::default());
            let d = &outcome.metrics.deviation;
            // The bound is enforced against the sensed position once per
            // second; GPS error and intra-second motion can push individual
            // samples slightly over. Allow 1 % of samples and 25 m of slack on
            // the maximum.
            assert!(
                d.bound_violations as f64 <= d.samples as f64 * 0.01,
                "{kind:?}/{protocol:?}: {} of {} samples violated the bound",
                d.bound_violations,
                d.samples
            );
            assert!(
                d.max <= 100.0 + 25.0,
                "{kind:?}/{protocol:?}: max deviation {:.1} m far exceeds the 100 m bound",
                d.max
            );
        }
    }
}

/// For noiseless straight-line motion at constant speed, the server-side
/// error of linear dead reckoning must never exceed the requested accuracy,
/// and distance-based reporting must respect it too.
#[test]
fn linear_dr_guarantee_on_random_straight_motion() {
    for_each_seed(48, |rng| {
        let speed = rng.range(1.0, 40.0);
        let heading = rng.range(0.0, std::f64::consts::TAU);
        let us = rng.range(20.0, 300.0);
        let duration = 60 + rng.below(540) as usize;
        let config = ProtocolConfig::new(us).with_sensor_uncertainty(0.0);
        let mut linear = LinearDeadReckoning::new(config, 2);
        let mut baseline = DistanceBasedReporting::new(config);
        let mut linear_server = ServerTracker::new(linear.predictor());
        let mut baseline_server = ServerTracker::new(baseline.predictor());
        let dir = Vec2::from_heading(heading);
        for t in 0..duration {
            let position = Point::ORIGIN + dir * (speed * t as f64);
            let sighting = Sighting { t: t as f64, position, accuracy: 0.0 };
            if let Some(u) = linear.on_sighting(sighting) {
                linear_server.apply(&u);
            }
            if let Some(u) = baseline.on_sighting(sighting) {
                baseline_server.apply(&u);
            }
            let linear_err = linear_server.position_at(t as f64).unwrap().distance(&position);
            let baseline_err = baseline_server.position_at(t as f64).unwrap().distance(&position);
            assert!(linear_err <= us + 1e-6, "linear error {linear_err} > u_s {us}");
            assert!(baseline_err <= us + 1e-6, "baseline error {baseline_err} > u_s {us}");
        }
    });
}

/// Even for motion that keeps turning (which linear prediction cannot
/// follow), the deviation check at the source keeps the server error
/// bounded: it can exceed `u_s` only by what accumulates within a single
/// 1 Hz sensor interval.
#[test]
fn linear_dr_guarantee_on_turning_motion() {
    for_each_seed(48, |rng| {
        let speed = rng.range(2.0, 30.0);
        let turn_rate = rng.range(-0.2, 0.2);
        let us = rng.range(30.0, 200.0);
        let config = ProtocolConfig::new(us).with_sensor_uncertainty(0.0);
        let mut protocol = LinearDeadReckoning::new(config, 2);
        let mut server = ServerTracker::new(protocol.predictor());
        let mut heading = 0.0f64;
        let mut position = Point::ORIGIN;
        for t in 0..400usize {
            if let Some(u) = protocol.on_sighting(Sighting { t: t as f64, position, accuracy: 0.0 })
            {
                server.apply(&u);
            }
            let err = server.position_at(t as f64).unwrap().distance(&position);
            assert!(err <= us + speed + 1e-6, "error {err} exceeds u_s {us} plus one step");
            heading += turn_rate;
            position += Vec2::from_heading(heading) * speed;
        }
    });
}
