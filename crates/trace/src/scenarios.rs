//! The four evaluation scenarios of the paper (Table 1), as reproducible
//! presets.
//!
//! | scenario      | paper trace                    | synthetic map        |
//! |---------------|--------------------------------|----------------------|
//! | freeway       | 163 km, 1:35 h, avg 103 km/h   | curving freeway      |
//! | inter-urban   |  99 km, 1:39 h, avg  60 km/h   | towns + country road |
//! | city          |  89 km, 2:25 h, avg  34 km/h   | perturbed grid       |
//! | walking       |  10 km, 2:08 h, avg 4.6 km/h   | campus footpaths     |
//!
//! Each scenario also fixes the speed/direction interpolation window the paper
//! found optimal (2 fixes on the freeway, 4 in inter-urban and city traffic,
//! 8 when walking) and the map-matching tolerance `u_m`.

use crate::gps::GpsNoiseModel;
use crate::motion::{simulate_motion, MotionConfig};
use crate::profile::DriverProfile;
use crate::route_plan::{
    find_named_node, plan_freeway_traversal, plan_wandering_route, trip_from_route, PlannedTrip,
};
use crate::types::{Fix, Trace};
use mbdr_roadnet::gen::{campus, city_grid, freeway, interurban};
use mbdr_roadnet::{NodeId, RoadNetwork, Router};
use serde::{Deserialize, Serialize};

/// Which of the paper's four movement patterns to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Car on a freeway (Fig. 7).
    Freeway,
    /// Car in inter-urban traffic (Fig. 8).
    Interurban,
    /// Car in city traffic (Fig. 9).
    City,
    /// Walking person (Fig. 10).
    Walking,
}

impl ScenarioKind {
    /// All four scenarios in the order the paper presents them.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::Freeway,
        ScenarioKind::Interurban,
        ScenarioKind::City,
        ScenarioKind::Walking,
    ];

    /// Human-readable name matching the paper's Table 1 rows.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Freeway => "car, freeway",
            ScenarioKind::Interurban => "car, inter-urban",
            ScenarioKind::City => "car, city traffic",
            ScenarioKind::Walking => "walking person",
        }
    }

    /// Target trip length of the paper's trace for this scenario, metres.
    pub(crate) fn paper_length_m(self) -> f64 {
        match self {
            ScenarioKind::Freeway => 163_000.0,
            ScenarioKind::Interurban => 99_000.0,
            ScenarioKind::City => 89_000.0,
            ScenarioKind::Walking => 10_000.0,
        }
    }

    /// Number of consecutive position fixes from which speed and direction are
    /// interpolated in this scenario (paper, Section 4).
    pub(crate) fn interpolation_window(self) -> usize {
        match self {
            ScenarioKind::Freeway => 2,
            ScenarioKind::Interurban | ScenarioKind::City => 4,
            ScenarioKind::Walking => 8,
        }
    }

    /// The accuracy values `u_s` (metres) swept in the paper's figures for
    /// this scenario: 20–500 m for cars, 20–250 m for the walking person.
    pub fn accuracy_sweep(self) -> Vec<f64> {
        match self {
            ScenarioKind::Walking => vec![20.0, 50.0, 100.0, 150.0, 200.0, 250.0],
            _ => vec![20.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0],
        }
    }

    /// Driver/pedestrian behaviour profile for this scenario.
    pub(crate) fn profile(self) -> DriverProfile {
        match self {
            ScenarioKind::Freeway => DriverProfile::freeway_car(),
            ScenarioKind::Interurban => DriverProfile::interurban_car(),
            ScenarioKind::City => DriverProfile::city_car(),
            ScenarioKind::Walking => DriverProfile::pedestrian(),
        }
    }

    /// Map-matching tolerance `u_m` for this scenario, metres.
    pub(crate) fn matching_tolerance(self) -> f64 {
        match self {
            // Walking speeds are low and paths narrow; a tighter tolerance
            // avoids matching to parallel paths.
            ScenarioKind::Walking => 20.0,
            _ => 30.0,
        }
    }
}

/// A scenario specification: which pattern, at what scale, with which seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Movement pattern.
    pub kind: ScenarioKind,
    /// Fraction of the paper's trace length to simulate (1.0 = full length).
    /// Smaller scales are used in unit tests and smoke runs.
    pub scale: f64,
    /// Random seed controlling map generation, trip planning, stops and GPS
    /// noise.
    pub seed: u64,
}

impl Scenario {
    /// A reduced-scale scenario for fast tests (≈ 10 % of the paper length).
    pub fn quick(kind: ScenarioKind, seed: u64) -> Self {
        Scenario { kind, scale: 0.1, seed }
    }

    /// Generates the map, plans the trip and simulates the trace.
    pub fn build(&self) -> ScenarioData {
        assert!(self.scale > 0.0 && self.scale <= 1.0, "scale must be in (0, 1]");
        let kind = self.kind;
        let target_length = kind.paper_length_m() * self.scale;

        let (network, route) = match kind {
            ScenarioKind::Freeway => {
                let net = freeway::generate(&freeway::FreewayConfig {
                    total_length_m: target_length * 1.05 + 5_000.0,
                    seed: self.seed,
                    ..freeway::FreewayConfig::default()
                });
                let route = plan_freeway_traversal(&net);
                (net, route)
            }
            ScenarioKind::Interurban => {
                // Enough towns that the corridor covers the target length.
                let cfg = interurban::InterurbanConfig {
                    towns: ((target_length / 9_000.0).ceil() as usize + 1).max(2),
                    seed: self.seed,
                    ..interurban::InterurbanConfig::default()
                };
                let net = interurban::generate(&cfg);
                let start = find_named_node(&net, "town 0 centre").expect("town 0 exists");
                let goal = find_named_node(&net, &format!("town {} centre", cfg.towns - 1))
                    .expect("last town exists");
                let route = Router::new(&net).route(start, goal).expect("corridor is connected");
                (net, route)
            }
            ScenarioKind::City => {
                let net = city_grid::generate(&city_grid::CityConfig {
                    seed: self.seed,
                    ..city_grid::CityConfig::default()
                });
                let route = plan_wandering_route(&net, NodeId(0), target_length, self.seed ^ 0x51);
                (net, route)
            }
            ScenarioKind::Walking => {
                let net = campus::generate(&campus::CampusConfig {
                    seed: self.seed,
                    ..campus::CampusConfig::default()
                });
                let route = plan_wandering_route(&net, NodeId(0), target_length, self.seed ^ 0x52);
                (net, route)
            }
        };

        let profile = kind.profile();
        let trip = trip_from_route(&network, route, &profile, self.seed ^ 0x7);
        let truth = simulate_motion(
            &trip.path,
            &trip.speed_limits,
            &trip.stops,
            &profile,
            &MotionConfig { seed: self.seed ^ 0x9, ..MotionConfig::default() },
        );

        // Corrupt the ground truth with the DGPS error model, 1 Hz.
        let mut gps = GpsNoiseModel::dgps(self.seed ^ 0xB);
        let accuracy = gps.nominal_accuracy();
        let mut trace = Trace::new();
        let mut prev_t = None;
        for g in truth {
            let dt = prev_t.map(|p| g.t - p).unwrap_or(1.0);
            prev_t = Some(g.t);
            let sensed = gps.observe(g.position, dt);
            trace.push(g, Fix { t: g.t, position: sensed, accuracy });
        }

        ScenarioData {
            scenario: *self,
            network,
            trip,
            trace,
            interpolation_window: kind.interpolation_window(),
            matching_tolerance: kind.matching_tolerance(),
        }
    }
}

/// Everything a protocol evaluation needs for one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// The scenario specification this data was built from.
    pub scenario: Scenario,
    /// The synthetic road map.
    pub network: RoadNetwork,
    /// The planned trip (route, geometry, limits, stops).
    pub trip: PlannedTrip,
    /// The simulated trace (sensor fixes + ground truth).
    pub trace: Trace,
    /// Speed/direction interpolation window (number of fixes).
    pub interpolation_window: usize,
    /// Map-matching tolerance `u_m`, metres.
    pub matching_tolerance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::ms_to_kmh;

    fn check_scenario(kind: ScenarioKind, min_avg_kmh: f64, max_avg_kmh: f64) {
        let data = Scenario::quick(kind, 11).build();
        assert!(!data.trace.is_empty());
        assert!(data.trace.len() > 100, "trace should span minutes, got {}", data.trace.len());
        // Ground truth path length is close to the planned trip length.
        let planned = data.trip.path.length();
        let travelled = data.trace.path_length();
        assert!(
            (travelled - planned).abs() / planned < 0.2,
            "{kind:?}: travelled {travelled} planned {planned}"
        );
        // Average speed in the right ballpark.
        let avg_kmh = ms_to_kmh(travelled / data.trace.duration());
        assert!(
            (min_avg_kmh..max_avg_kmh).contains(&avg_kmh),
            "{kind:?}: average speed {avg_kmh} km/h"
        );
        // GPS fixes stay near the ground truth (DGPS-grade error).
        let max_err = data
            .trace
            .fixes
            .iter()
            .zip(data.trace.ground_truth.iter())
            .map(|(f, g)| f.position.distance(&g.position))
            .fold(0.0, f64::max);
        assert!(max_err < 25.0, "{kind:?}: max GPS error {max_err} m");
    }

    #[test]
    fn freeway_scenario_has_freeway_speeds() {
        check_scenario(ScenarioKind::Freeway, 70.0, 145.0);
    }

    #[test]
    fn interurban_scenario_has_interurban_speeds() {
        check_scenario(ScenarioKind::Interurban, 35.0, 95.0);
    }

    #[test]
    fn city_scenario_has_city_speeds() {
        check_scenario(ScenarioKind::City, 15.0, 55.0);
    }

    #[test]
    fn walking_scenario_has_walking_speeds() {
        check_scenario(ScenarioKind::Walking, 2.0, 7.0);
    }

    #[test]
    fn interpolation_windows_match_the_paper() {
        assert_eq!(ScenarioKind::Freeway.interpolation_window(), 2);
        assert_eq!(ScenarioKind::Interurban.interpolation_window(), 4);
        assert_eq!(ScenarioKind::City.interpolation_window(), 4);
        assert_eq!(ScenarioKind::Walking.interpolation_window(), 8);
    }

    #[test]
    fn accuracy_sweeps_match_the_paper_ranges() {
        for kind in ScenarioKind::ALL {
            let sweep = kind.accuracy_sweep();
            assert_eq!(*sweep.first().unwrap(), 20.0);
            let max = *sweep.last().unwrap();
            if kind == ScenarioKind::Walking {
                assert_eq!(max, 250.0);
            } else {
                assert_eq!(max, 500.0);
            }
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn scenario_builds_are_deterministic() {
        let a = Scenario::quick(ScenarioKind::City, 3).build();
        let b = Scenario::quick(ScenarioKind::City, 3).build();
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.trace.fixes.first(), b.trace.fixes.first());
        assert_eq!(a.trace.fixes.last(), b.trace.fixes.last());
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_is_rejected() {
        let _ = Scenario { kind: ScenarioKind::City, scale: 0.0, seed: 1 }.build();
    }

    #[test]
    fn every_scenario_map_carries_the_smallest_angle_choice_of_every_link_end() {
        // The table is built with the map; `mbdr-roadnet`'s own tests check
        // the rule against the per-hop oracle, this checks the four maps the
        // protocols actually run on were given the rule's answer.
        for kind in ScenarioKind::ALL {
            let net = Scenario { kind, scale: 0.05, seed: 2001 }.build().network;
            for link in net.links() {
                for node in [link.from, link.to] {
                    assert_eq!(
                        net.straightest_continuation(link.id, node),
                        net.smallest_angle_link(
                            link.id,
                            node,
                            net.outgoing_links_iter(node, Some(link.id))
                        ),
                        "{kind:?}: arriving over {} at {node}",
                        link.id
                    );
                }
            }
        }
    }
}
