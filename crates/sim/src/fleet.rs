//! Fleet simulation: many objects tracked concurrently on one shared map.
//!
//! The paper's motivating applications ("find the nearest taxi cab", "address
//! all users that are currently inside a department of a store") track whole
//! fleets against one location service. This module simulates that workload:
//! one city map, `objects` vehicles each driving its own errand route, every
//! vehicle running its own update protocol against its own server-side
//! tracker. Per-object simulations are independent and run on crossbeam
//! scoped threads.

use crate::metrics::RunMetrics;
use crate::protocols::{ProtocolContext, ProtocolKind};
use crate::runner::{run_protocol, RunConfig, RunOutcome};
use mbdr_core::Predictor;
use mbdr_locserver::ObjectId;
use mbdr_roadnet::NodeId;
use mbdr_trace::gps::GpsNoiseModel;
use mbdr_trace::motion::{simulate_motion, MotionConfig};
use mbdr_trace::route_plan::{plan_wandering_route, trip_from_route};
use mbdr_trace::{DriverProfile, Fix, Scenario, ScenarioData, ScenarioKind, Trace};
use std::sync::Arc;

/// Configuration of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of tracked objects.
    pub objects: usize,
    /// Trip length per object, metres.
    pub trip_length_m: f64,
    /// Requested accuracy `u_s`, metres.
    pub requested_accuracy: f64,
    /// Protocol every object runs.
    pub protocol: ProtocolKind,
    /// Random seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            objects: 16,
            trip_length_m: 8_000.0,
            requested_accuracy: 100.0,
            protocol: ProtocolKind::MapBased,
            seed: 0xF1EE7,
        }
    }
}

/// Result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-object run metrics.
    pub per_object: Vec<RunMetrics>,
    /// Per-object traces (for feeding a location service afterwards).
    pub traces: Vec<Trace>,
    /// Total updates across the fleet.
    pub total_updates: u64,
    /// Mean updates per hour per object.
    pub mean_updates_per_hour: f64,
}

/// Builds one object's scenario data on the shared city map.
fn object_scenario(
    base: &ScenarioData,
    object_index: usize,
    fleet_seed: u64,
    trip_length_m: f64,
) -> ScenarioData {
    let seed = fleet_seed ^ (object_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let network = &base.network;
    let start = NodeId((seed % network.node_count() as u64) as u32);
    let profile = DriverProfile::city_car();
    let route = plan_wandering_route(network, start, trip_length_m, seed);
    let trip = trip_from_route(network, route, &profile, seed ^ 0x7);
    let truth = simulate_motion(
        &trip.path,
        &trip.speed_limits,
        &trip.stops,
        &profile,
        &MotionConfig { seed: seed ^ 0x9, ..MotionConfig::default() },
    );
    let mut gps = GpsNoiseModel::dgps(seed ^ 0xB);
    let accuracy = gps.nominal_accuracy();
    let mut trace = Trace::new();
    let mut prev_t = None;
    for g in truth {
        let dt = prev_t.map(|p| g.t - p).unwrap_or(1.0);
        prev_t = Some(g.t);
        let sensed = gps.observe(g.position, dt);
        trace.push(g, Fix { t: g.t, position: sensed, accuracy });
    }
    ScenarioData { trace, trip, ..base.clone() }
}

/// One simulated vehicle: its service id, the predictor its protocol shares
/// with the server, what its protocol run produced, and the trace it drove.
pub(crate) struct Vehicle {
    pub(crate) id: ObjectId,
    pub(crate) predictor: Arc<dyn Predictor>,
    pub(crate) outcome: RunOutcome,
    pub(crate) trace: Trace,
}

/// Simulates the whole fleet on one shared city map: every vehicle drives its
/// own errand route and runs its own protocol instance over the trace, on
/// crossbeam scoped threads. Returns the base scenario (the shared map) and
/// the vehicles in id order. The fleet, the in-process replay
/// ([`crate::service_workload`]) and the TCP replay ([`crate::net_workload`])
/// all start here.
pub(crate) fn simulate_fleet(config: &FleetConfig) -> (ScenarioData, Vec<Vehicle>) {
    // One shared city map for the whole fleet (scale only controls the unused
    // base trip; the map itself is the full default grid).
    let base = Scenario { kind: ScenarioKind::City, scale: 0.02, seed: config.seed }.build();
    let base_ctx = ProtocolContext::for_scenario(&base);

    let mut slots: Vec<Option<Vehicle>> = Vec::new();
    slots.resize_with(config.objects, || None);
    let workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(config.objects);
    let chunk = config.objects.div_ceil(workers);
    crossbeam::thread::scope(|scope| {
        for (worker_index, out_chunk) in slots.chunks_mut(chunk).enumerate() {
            let base = &base;
            let base_ctx = &base_ctx;
            scope.spawn(move |_| {
                for (offset, slot) in out_chunk.iter_mut().enumerate() {
                    let object_index = worker_index * chunk + offset;
                    let data =
                        object_scenario(base, object_index, config.seed, config.trip_length_m);
                    // Each object gets its own protocol instance but shares the
                    // map and spatial index through the context.
                    let protocol = config.protocol.build(base_ctx, config.requested_accuracy);
                    let predictor = protocol.predictor();
                    let outcome = run_protocol(&data.trace, protocol, RunConfig::default());
                    *slot = Some(Vehicle {
                        id: ObjectId(object_index as u64),
                        predictor,
                        outcome,
                        trace: data.trace,
                    });
                }
            });
        }
    })
    .expect("fleet worker panicked");
    (base, slots.into_iter().map(|s| s.expect("every object ran")).collect())
}

/// Runs the fleet simulation.
pub fn run_fleet(config: &FleetConfig) -> FleetResult {
    assert!(config.objects > 0, "a fleet needs at least one object");
    let (_, vehicles) = simulate_fleet(config);
    let mut per_object = Vec::with_capacity(config.objects);
    let mut traces = Vec::with_capacity(config.objects);
    for vehicle in vehicles {
        per_object.push(vehicle.outcome.metrics);
        traces.push(vehicle.trace);
    }
    let total_updates = per_object.iter().map(|m| m.updates).sum();
    let mean_updates_per_hour =
        per_object.iter().map(|m| m.updates_per_hour).sum::<f64>() / per_object.len() as f64;
    FleetResult { per_object, traces, total_updates, mean_updates_per_hour }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_runs_every_object_and_aggregates() {
        let config = FleetConfig {
            objects: 4,
            trip_length_m: 2_000.0,
            requested_accuracy: 150.0,
            protocol: ProtocolKind::MapBased,
            seed: 9,
        };
        let result = run_fleet(&config);
        assert_eq!(result.per_object.len(), 4);
        assert_eq!(result.traces.len(), 4);
        assert!(result.total_updates >= 4, "each object sends at least the initial update");
        assert!(result.mean_updates_per_hour > 0.0);
        // Objects drive different routes, so their traces differ.
        assert_ne!(
            result.traces[0].fixes.last().map(|f| f.position),
            result.traces[1].fixes.last().map(|f| f.position)
        );
    }

    #[test]
    fn map_based_fleet_sends_fewer_updates_than_distance_based_fleet() {
        let base = FleetConfig {
            objects: 3,
            trip_length_m: 2_500.0,
            requested_accuracy: 100.0,
            protocol: ProtocolKind::MapBased,
            seed: 11,
        };
        let map = run_fleet(&base);
        let dist = run_fleet(&FleetConfig { protocol: ProtocolKind::DistanceBased, ..base });
        assert!(
            map.total_updates < dist.total_updates,
            "map-based {} vs distance-based {}",
            map.total_updates,
            dist.total_updates
        );
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_fleet_is_rejected() {
        let _ = run_fleet(&FleetConfig { objects: 0, ..FleetConfig::default() });
    }
}
