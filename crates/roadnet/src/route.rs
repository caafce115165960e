//! Routes over the network and shortest-path routing.
//!
//! Two consumers need routes:
//!
//! * the **trace generator** plans a trip (sequence of links) over the map and
//!   then drives a kinematic vehicle model along it;
//! * the **known-route dead-reckoning** baseline (Wolfson et al., discussed in
//!   Section 2 of the paper) assumes the server knows the object's route in
//!   advance and only the speed must be tracked.
//!
//! [`Router`] implements Dijkstra's algorithm over link lengths (optionally
//! weighted by expected travel time).

use crate::ids::{LinkId, NodeId};
use crate::network::RoadNetwork;
use mbdr_geo::Point;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A route: an ordered sequence of nodes and the links connecting them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Visited nodes, in order (one more than `links`).
    pub nodes: Vec<NodeId>,
    /// Traversed links, in order.
    pub links: Vec<LinkId>,
}

impl Route {
    /// An empty route.
    pub fn empty() -> Self {
        Route { nodes: Vec::new(), links: Vec::new() }
    }

    /// Returns `true` if the route contains no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Total length of the route along link geometry, metres.
    pub fn length(&self, network: &RoadNetwork) -> f64 {
        self.links.iter().map(|&l| network.link(l).length()).sum()
    }

    /// The full geometry of the route as a dense vertex chain, oriented in
    /// travel direction (used by the trace generator to drive along it).
    pub fn path_points(&self, network: &RoadNetwork) -> Vec<Point> {
        let mut out: Vec<Point> = Vec::new();
        for (i, &link_id) in self.links.iter().enumerate() {
            let link = network.link(link_id);
            let entering_at = self.nodes[i];
            let mut verts: Vec<Point> = link.geometry.vertices().to_vec();
            if link.to == entering_at {
                verts.reverse();
            }
            if !out.is_empty() {
                // Skip the duplicated junction vertex.
                verts.remove(0);
            }
            out.extend(verts);
        }
        out
    }

    /// Checks that consecutive links share the intermediate node and that the
    /// node list is consistent; returns `true` for structurally valid routes.
    pub fn is_valid(&self, network: &RoadNetwork) -> bool {
        if self.links.is_empty() {
            return self.nodes.len() <= 1;
        }
        if self.nodes.len() != self.links.len() + 1 {
            return false;
        }
        for (i, &link_id) in self.links.iter().enumerate() {
            let link = network.link(link_id);
            let a = self.nodes[i];
            let b = self.nodes[i + 1];
            if !(link.from == a && link.to == b || link.from == b && link.to == a) {
                return false;
            }
        }
        true
    }
}

/// Edge weight used by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMetric {
    /// Minimise total distance.
    Distance,
    /// Minimise expected travel time at each link's speed limit.
    TravelTime,
}

/// Dijkstra shortest-path router over a [`RoadNetwork`].
#[derive(Debug, Clone)]
pub struct Router<'a> {
    network: &'a RoadNetwork,
    metric: RouteMetric,
}

#[derive(PartialEq)]
struct QueueItem {
    cost: f64,
    node: NodeId,
}

impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest cost first.
        other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}

impl<'a> Router<'a> {
    /// Creates a distance-minimising router.
    pub fn new(network: &'a RoadNetwork) -> Self {
        Router { network, metric: RouteMetric::Distance }
    }

    /// Creates a router with an explicit metric.
    pub fn with_metric(network: &'a RoadNetwork, metric: RouteMetric) -> Self {
        Router { network, metric }
    }

    fn link_cost(&self, link: LinkId) -> f64 {
        let l = self.network.link(link);
        match self.metric {
            RouteMetric::Distance => l.length(),
            RouteMetric::TravelTime => l.length() / l.speed_limit_ms().max(0.1),
        }
    }

    /// Shortest route from `start` to `goal`, or `None` if unreachable.
    pub fn route(&self, start: NodeId, goal: NodeId) -> Option<Route> {
        if start == goal {
            return Some(Route { nodes: vec![start], links: Vec::new() });
        }
        let n = self.network.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[start.index()] = 0.0;
        heap.push(QueueItem { cost: 0.0, node: start });

        while let Some(QueueItem { cost, node }) = heap.pop() {
            if node == goal {
                break;
            }
            if cost > dist[node.index()] {
                continue; // stale entry
            }
            for &link_id in self.network.incident_links(node) {
                let Some(next) = self.network.link(link_id).other_end(node) else { continue };
                let next_cost = cost + self.link_cost(link_id);
                if next_cost < dist[next.index()] {
                    dist[next.index()] = next_cost;
                    prev[next.index()] = Some((node, link_id));
                    heap.push(QueueItem { cost: next_cost, node: next });
                }
            }
        }

        if dist[goal.index()].is_infinite() {
            return None;
        }
        // Reconstruct.
        let mut nodes = vec![goal];
        let mut links = Vec::new();
        let mut current = goal;
        while current != start {
            let (p, l) = prev[current.index()].expect("reached node has a predecessor");
            nodes.push(p);
            links.push(l);
            current = p;
        }
        nodes.reverse();
        links.reverse();
        Some(Route { nodes, links })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::link::RoadClass;

    /// A 3×3 grid of nodes with 100 m spacing, all residential streets.
    fn grid3() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let mut ids = Vec::new();
        for j in 0..3 {
            for i in 0..3 {
                ids.push(b.add_node(Point::new(i as f64 * 100.0, j as f64 * 100.0)));
            }
        }
        let at = |i: usize, j: usize| ids[j * 3 + i];
        for j in 0..3 {
            for i in 0..3 {
                if i + 1 < 3 {
                    b.add_straight_link(at(i, j), at(i + 1, j), RoadClass::Residential);
                }
                if j + 1 < 3 {
                    b.add_straight_link(at(i, j), at(i, j + 1), RoadClass::Residential);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn shortest_path_across_the_grid_has_correct_length() {
        let net = grid3();
        let router = Router::new(&net);
        let route = router.route(NodeId(0), NodeId(8)).unwrap();
        assert!(route.is_valid(&net));
        assert_eq!(route.links.len(), 4);
        assert!((route.length(&net) - 400.0).abs() < 1e-6);
        assert_eq!(route.nodes.first(), Some(&NodeId(0)));
        assert_eq!(route.nodes.last(), Some(&NodeId(8)));
    }

    #[test]
    fn route_to_self_is_empty() {
        let net = grid3();
        let router = Router::new(&net);
        let route = router.route(NodeId(4), NodeId(4)).unwrap();
        assert!(route.is_empty());
        assert!(route.is_valid(&net));
        assert_eq!(route.length(&net), 0.0);
    }

    #[test]
    fn unreachable_goal_returns_none() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(5_000.0, 0.0));
        let e = b.add_node(Point::new(5_100.0, 0.0));
        b.add_straight_link(a, c, RoadClass::Residential);
        b.add_straight_link(d, e, RoadClass::Residential);
        let net = b.build().unwrap();
        assert!(Router::new(&net).route(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn travel_time_metric_prefers_fast_roads() {
        // Two ways from A to B: a direct 1000 m residential street (30 km/h)
        // or a 1400 m detour over a trunk road (100 km/h). Time-wise the
        // detour wins, distance-wise the direct street wins.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let m = b.add_node(Point::new(700.0, 700.0));
        let z = b.add_node(Point::new(1000.0, 0.0));
        b.add_straight_link(a, z, RoadClass::Residential); // ~1000 m slow
        b.add_straight_link(a, m, RoadClass::Trunk); // ~990 m fast
        b.add_straight_link(m, z, RoadClass::Trunk); // ~762 m fast
        let net = b.build().unwrap();

        let by_distance = Router::new(&net).route(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(by_distance.links.len(), 1);

        let by_time =
            Router::with_metric(&net, RouteMetric::TravelTime).route(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(by_time.links.len(), 2, "the fast detour should win on time");
    }

    #[test]
    fn path_points_are_continuous_and_oriented() {
        let net = grid3();
        let router = Router::new(&net);
        let route = router.route(NodeId(0), NodeId(8)).unwrap();
        let pts = route.path_points(&net);
        assert_eq!(*pts.first().unwrap(), net.node(NodeId(0)).position);
        assert_eq!(*pts.last().unwrap(), net.node(NodeId(8)).position);
        // Consecutive points are never farther apart than one grid edge.
        for w in pts.windows(2) {
            assert!(w[0].distance(&w[1]) <= 100.0 + 1e-6);
        }
    }

    #[test]
    fn invalid_route_is_detected() {
        let net = grid3();
        let bogus = Route { nodes: vec![NodeId(0), NodeId(8)], links: vec![LinkId(0)] };
        assert!(!bogus.is_valid(&net));
    }
}
