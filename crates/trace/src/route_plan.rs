//! Trip planning: turning a road network into a concrete journey.
//!
//! A [`PlannedTrip`] bundles everything the motion simulator needs — the dense
//! path geometry, the posted speed limits along it and the planned stops — and
//! everything the protocol evaluation needs later: the exact sequence of links
//! travelled (ground truth for the known-route baseline and for training the
//! transition-probability tables).

use crate::motion::{PlannedStop, SpeedLimitChange};
use crate::profile::DriverProfile;
use mbdr_geo::Polyline;
use mbdr_roadnet::{NodeId, RoadClass, RoadNetwork, Route, Router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully planned journey over a road network.
#[derive(Debug, Clone)]
pub struct PlannedTrip {
    /// The link-level route (ground truth).
    pub route: Route,
    /// Dense geometry of the whole trip, oriented in travel direction.
    pub path: Polyline,
    /// Posted speed limit changes along the path (sorted by arc length).
    pub speed_limits: Vec<SpeedLimitChange>,
    /// Planned stops along the path (sorted by arc length).
    pub stops: Vec<PlannedStop>,
}

/// Builds a [`PlannedTrip`] from a route: extracts geometry, per-link speed
/// limits and randomly placed intersection stops according to the profile.
pub fn trip_from_route(
    network: &RoadNetwork,
    route: Route,
    profile: &DriverProfile,
    seed: u64,
) -> PlannedTrip {
    assert!(!route.is_empty(), "cannot plan a trip over an empty route");
    let mut rng = StdRng::seed_from_u64(seed);

    let points = route.path_points(network);
    let path = Polyline::new(points);

    // Speed limit changes at each link boundary.
    let mut speed_limits = Vec::with_capacity(route.links.len());
    let mut stops = Vec::new();
    let mut arc = 0.0;
    for (i, &link_id) in route.links.iter().enumerate() {
        let link = network.link(link_id);
        speed_limits.push(SpeedLimitChange { from_arc_length: arc, limit: link.speed_limit_ms() });
        arc += link.length();
        // Possible stop at the node reached at the end of this link (skip the
        // final destination; arriving there ends the trace anyway).
        if i + 1 < route.nodes.len() - 1 {
            let node = route.nodes[i + 1];
            if network.degree(node) >= 3 && rng.gen::<f64>() < profile.stop_probability {
                let duration = profile.mean_stop_duration * rng.gen_range(0.4..1.8);
                stops.push(PlannedStop { arc_length: arc, duration });
            }
        }
    }

    PlannedTrip { route, path, speed_limits, stops }
}

/// Plans a trip of roughly `target_length_m` by chaining shortest paths
/// between randomly chosen intermediate destinations, starting at `start`.
///
/// Consecutive legs never immediately backtrack (the next destination is
/// rejected if the new leg's first link equals the previous leg's last link),
/// which keeps the journey looking like an errand run rather than pacing back
/// and forth.
pub fn plan_wandering_route(
    network: &RoadNetwork,
    start: NodeId,
    target_length_m: f64,
    seed: u64,
) -> Route {
    assert!(!network.is_empty(), "cannot plan a route on an empty network");
    let mut rng = StdRng::seed_from_u64(seed);
    let router = Router::new(network);
    let mut combined = Route { nodes: vec![start], links: Vec::new() };
    let mut length = 0.0;
    let mut current = start;
    let mut attempts = 0usize;

    while length < target_length_m && attempts < 10_000 {
        attempts += 1;
        let candidate = NodeId(rng.gen_range(0..network.node_count() as u32));
        if candidate == current {
            continue;
        }
        let Some(leg) = router.route(current, candidate) else { continue };
        if leg.is_empty() {
            continue;
        }
        // Avoid immediate backtracking over the same link.
        if let (Some(&last), Some(&first)) = (combined.links.last(), leg.links.first()) {
            if last == first {
                continue;
            }
        }
        length += leg.length(network);
        combined.links.extend(leg.links.iter().copied());
        combined.nodes.extend(leg.nodes.iter().skip(1).copied());
        current = candidate;
    }
    combined
}

/// Plans the end-to-end traversal of a freeway map generated by
/// [`mbdr_roadnet::gen::freeway`]: from the first interchange to the farthest
/// one, which follows the main carriageway.
pub(crate) fn plan_freeway_traversal(network: &RoadNetwork) -> Route {
    // The far end is the freeway-link endpoint farthest from node 0.
    let origin = NodeId(0);
    let origin_pos = network.node(origin).position;
    let mut far_node = origin;
    let mut far_dist = 0.0;
    for link in network.links() {
        if link.class != RoadClass::Freeway {
            continue;
        }
        for node in [link.from, link.to] {
            let d = network.node(node).position.distance(&origin_pos);
            if d > far_dist {
                far_dist = d;
                far_node = node;
            }
        }
    }
    Router::with_metric(network, mbdr_roadnet::route::RouteMetric::TravelTime)
        .route(origin, far_node)
        .expect("freeway map is connected")
}

/// Finds the node whose name matches `name` exactly, if any (used to locate
/// the named town centres and interchanges the generators create).
pub(crate) fn find_named_node(network: &RoadNetwork, name: &str) -> Option<NodeId> {
    network.nodes().iter().find(|n| n.name.as_deref() == Some(name)).map(|n| n.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_roadnet::gen::{city_grid, freeway};

    #[test]
    fn wandering_route_reaches_the_target_length() {
        let net = city_grid::generate(&city_grid::CityConfig {
            columns: 10,
            rows: 10,
            ..city_grid::CityConfig::default()
        });
        let route = plan_wandering_route(&net, NodeId(0), 5_000.0, 1);
        assert!(route.is_valid(&net));
        assert!(route.length(&net) >= 5_000.0);
        assert!(route.length(&net) < 20_000.0, "should not grossly overshoot");
    }

    #[test]
    fn trip_from_route_produces_consistent_artifacts() {
        let net = city_grid::generate(&city_grid::CityConfig {
            columns: 10,
            rows: 10,
            ..city_grid::CityConfig::default()
        });
        let route = plan_wandering_route(&net, NodeId(0), 3_000.0, 2);
        let trip = trip_from_route(&net, route.clone(), &DriverProfile::city_car(), 3);
        assert!((trip.path.length() - route.length(&net)).abs() < 1.0);
        assert_eq!(trip.speed_limits.len(), trip.route.links.len());
        // Speed limits are sorted and start at zero.
        assert_eq!(trip.speed_limits[0].from_arc_length, 0.0);
        assert!(trip.speed_limits.windows(2).all(|w| w[0].from_arc_length <= w[1].from_arc_length));
        // Stops lie within the trip and are sorted.
        assert!(trip.stops.iter().all(|s| s.arc_length <= trip.path.length()));
        assert!(trip.stops.windows(2).all(|w| w[0].arc_length <= w[1].arc_length));
    }

    #[test]
    fn city_profile_generates_stops_on_a_long_trip() {
        let net = city_grid::generate(&city_grid::CityConfig {
            columns: 12,
            rows: 12,
            ..city_grid::CityConfig::default()
        });
        let route = plan_wandering_route(&net, NodeId(0), 15_000.0, 4);
        let trip = trip_from_route(&net, route, &DriverProfile::city_car(), 5);
        assert!(!trip.stops.is_empty(), "a long city trip should hit some red lights");
    }

    #[test]
    fn freeway_traversal_follows_the_carriageway() {
        let net = freeway::generate(&freeway::FreewayConfig {
            total_length_m: 30_000.0,
            ..freeway::FreewayConfig::default()
        });
        let route = plan_freeway_traversal(&net);
        assert!(route.is_valid(&net));
        // Nearly all links on the route are freeway links.
        let freeway_links =
            route.links.iter().filter(|&&l| net.link(l).class == RoadClass::Freeway).count();
        assert!(freeway_links as f64 >= route.links.len() as f64 * 0.9);
        assert!(route.length(&net) >= 30_000.0 * 0.9);
    }

    #[test]
    fn named_node_lookup_finds_interchanges() {
        let net = freeway::generate(&freeway::FreewayConfig {
            total_length_m: 20_000.0,
            ..freeway::FreewayConfig::default()
        });
        assert!(find_named_node(&net, "interchange 0").is_some());
        assert!(find_named_node(&net, "no such place").is_none());
    }

    #[test]
    #[should_panic(expected = "empty route")]
    fn empty_route_is_rejected() {
        let net = city_grid::generate(&city_grid::CityConfig {
            columns: 3,
            rows: 3,
            ..city_grid::CityConfig::default()
        });
        let _ = trip_from_route(&net, Route::empty(), &DriverProfile::city_car(), 1);
    }
}
