//! The road network graph.

use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::node::Node;
use mbdr_geo::{Aabb, Vec2};
use serde::{Deserialize, Serialize};

/// A complete road map: intersections, links and their adjacency.
///
/// Nodes and links are stored in dense `Vec`s indexed by their ids (the
/// [`crate::NetworkBuilder`] guarantees contiguous ids), so every lookup on
/// the map-matching and prediction hot paths is an array access.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// For each node (by index), the ids of all incident links.
    adjacency: Vec<Vec<LinkId>>,
    /// For each link (by index), the smallest-angle outgoing link at its
    /// `[from, to]` end — [`RoadNetwork::straightest_continuation`]. The
    /// choice depends only on the map, so it is made once, when the map is
    /// built, for source and server alike.
    continuations: Vec<[Option<LinkId>; 2]>,
}

impl RoadNetwork {
    pub(crate) fn from_parts(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for link in &links {
            adjacency[link.from.index()].push(link.id);
            adjacency[link.to.index()].push(link.id);
        }
        let mut network = RoadNetwork { nodes, links, adjacency, continuations: Vec::new() };
        network.continuations = network
            .links
            .iter()
            .map(|l| {
                [l.from, l.to].map(|node| {
                    network.smallest_angle_link(
                        l.id,
                        node,
                        network.outgoing_links_iter(node, Some(l.id)),
                    )
                })
            })
            .collect();
        network
    }

    /// Number of intersections.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the network has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range (ids handed out by this crate are
    /// always valid).
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The link with the given id, or `None` if out of range.
    pub fn get_link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// All nodes in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links in id order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Ids of all links incident to `node` (in insertion order).
    #[inline]
    pub(crate) fn incident_links(&self, node: NodeId) -> &[LinkId] {
        &self.adjacency[node.index()]
    }

    /// Ids of the links incident to `node` except `arriving`, i.e. the
    /// candidate outgoing links the paper's forward-tracking and prediction
    /// consider when the object reaches an intersection. Allocation-free —
    /// this is the per-intersection step of the map matcher's tracking and
    /// of the prediction walk's multi-pass policies (main-road priority,
    /// membership checks), which re-iterate the cheap adjacency slice
    /// instead of collecting.
    pub fn outgoing_links_iter(
        &self,
        node: NodeId,
        arriving: Option<LinkId>,
    ) -> impl Iterator<Item = LinkId> + Clone + '_ {
        self.adjacency[node.index()].iter().copied().filter(move |&l| Some(l) != arriving)
    }

    /// The paper's intersection rule: of `candidates` leaving `node`, "the
    /// link with the smallest angle to the previous link" `arriving`; equal
    /// angles go to the smaller [`LinkId`], so source and server always
    /// agree. `None` when there are no candidates.
    ///
    /// The angle is taken between the direction of arrival (`arriving`'s
    /// geometry at `node`, oriented in travel direction) and each candidate's
    /// departure direction, each evaluated once.
    pub fn smallest_angle_link(
        &self,
        arriving: LinkId,
        node: NodeId,
        candidates: impl Iterator<Item = LinkId>,
    ) -> Option<LinkId> {
        // `departure_direction(node)` points *away* from the node along the
        // arriving link, i.e. back where the object came from — negate it.
        let arrival = self.link(arriving).departure_direction(node).map_or(Vec2::NORTH, |d| -d);
        candidates
            .map(|l| {
                let departure = self.link(l).departure_direction(node).unwrap_or(Vec2::NORTH);
                (arrival.angle_to(&departure), l)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, l)| l)
    }

    /// The link an object arriving over `arriving` at its endpoint `node`
    /// most plausibly continues on: [`RoadNetwork::smallest_angle_link`] over
    /// every other link at `node`, decided when the map was built, so this is
    /// an array lookup. `None` at a dead end, and when `node` is not an
    /// endpoint of `arriving` (or `arriving` is not on the map).
    #[inline]
    pub fn straightest_continuation(&self, arriving: LinkId, node: NodeId) -> Option<LinkId> {
        let link = self.links.get(arriving.index())?;
        let end = if node == link.from {
            0
        } else if node == link.to {
            1
        } else {
            return None;
        };
        self.continuations[arriving.index()][end]
    }

    /// Degree (number of incident links) of a node.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Ids of nodes adjacent to `node` (one hop over any incident link).
    pub(crate) fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.adjacency[node.index()].iter().filter_map(|&l| self.link(l).other_end(node)).collect()
    }

    /// Bounding box of the whole network, or `None` if it has no nodes.
    pub fn bounding_box(&self) -> Option<Aabb> {
        let mut bb = Aabb::from_points(self.nodes.iter().map(|n| n.position))?;
        for link in &self.links {
            bb = bb.union(&link.bounding_box());
        }
        Some(bb)
    }

    /// Checks structural invariants; returns a list of human-readable
    /// problems (empty = valid).
    ///
    /// Checked invariants:
    /// * link endpoints reference existing nodes,
    /// * link ids and node ids match their storage index,
    /// * link geometry starts/ends at its endpoints' positions,
    /// * no zero-length links.
    pub(crate) fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id.index() != i {
                problems.push(format!("node at index {i} has id {}", node.id));
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            if link.id.index() != i {
                problems.push(format!("link at index {i} has id {}", link.id));
            }
            if link.from.index() >= self.nodes.len() || link.to.index() >= self.nodes.len() {
                problems.push(format!("link {} references a missing node", link.id));
                continue;
            }
            let from_pos = self.node(link.from).position;
            let to_pos = self.node(link.to).position;
            if link.geometry.first().distance(&from_pos) > 0.5 {
                problems.push(format!(
                    "link {} geometry does not start at node {}",
                    link.id, link.from
                ));
            }
            if link.geometry.last().distance(&to_pos) > 0.5 {
                problems
                    .push(format!("link {} geometry does not end at node {}", link.id, link.to));
            }
            if link.length() < 1e-6 {
                problems.push(format!("link {} has zero length", link.id));
            }
        }
        problems
    }

    /// Returns `true` if every node can reach every other node over the links
    /// (the trace generator requires a connected map to plan routes).
    pub(crate) fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for neigh in self.neighbors(n) {
                if !seen[neigh.index()] {
                    seen[neigh.index()] = true;
                    count += 1;
                    stack.push(neigh);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::gen::campus::{self, CampusConfig};
    use crate::gen::city_grid::{self, CityConfig};
    use crate::gen::freeway::{self, FreewayConfig};
    use crate::gen::interurban::{self, InterurbanConfig};
    use crate::link::RoadClass;
    use mbdr_geo::{Point, Polyline};

    /// A triangle network with three nodes and three links.
    fn triangle() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(50.0, 80.0));
        b.add_straight_link(a, c, RoadClass::Residential);
        b.add_straight_link(c, d, RoadClass::Residential);
        b.add_straight_link(d, a, RoadClass::Residential);
        b.build().expect("valid network")
    }

    #[test]
    fn counts_and_lookup() {
        let net = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 3);
        assert!(!net.is_empty());
        assert_eq!(net.node(NodeId(1)).position, Point::new(100.0, 0.0));
        assert!(net.get_link(LinkId(99)).is_none());
    }

    #[test]
    fn adjacency_and_outgoing_links() {
        let net = triangle();
        assert_eq!(net.degree(NodeId(0)), 2);
        let incident = net.incident_links(NodeId(0));
        assert_eq!(incident.len(), 2);
        // Excluding the arriving link leaves exactly one "outgoing" candidate.
        let out: Vec<LinkId> = net.outgoing_links_iter(NodeId(0), Some(incident[0])).collect();
        assert_eq!(out.len(), 1);
        assert_ne!(out[0], incident[0]);
        // Without an arriving link, all incident links are candidates.
        assert_eq!(net.outgoing_links_iter(NodeId(0), None).count(), 2);
    }

    #[test]
    fn neighbors_of_triangle_node() {
        let net = triangle();
        let mut n = net.neighbors(NodeId(0));
        n.sort();
        assert_eq!(n, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn validation_passes_for_builder_output() {
        let net = triangle();
        assert!(net.validate().is_empty());
        assert!(net.is_connected());
    }

    #[test]
    fn bounding_box_and_total_length() {
        let net = triangle();
        let bb = net.bounding_box().unwrap();
        assert!(bb.contains(&Point::new(50.0, 40.0)));
    }

    #[test]
    fn empty_network() {
        let net = RoadNetwork::default();
        assert!(net.is_empty());
        assert!(net.bounding_box().is_none());
        assert!(net.is_connected());
        assert!(net.validate().is_empty());
    }

    #[test]
    fn disconnected_network_is_detected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let d = b.add_node(Point::new(1000.0, 0.0));
        let e = b.add_node(Point::new(1010.0, 0.0));
        b.add_straight_link(a, c, RoadClass::Residential);
        b.add_straight_link(d, e, RoadClass::Residential);
        let net = b.build().expect("structurally valid");
        assert!(!net.is_connected());
    }

    /// The choice as the predictor used to make it at every hop of every
    /// prediction, before the table: kept as the oracle the table is checked
    /// against.
    fn on_the_fly_smallest_angle(
        net: &RoadNetwork,
        arriving: LinkId,
        node: NodeId,
    ) -> Option<LinkId> {
        let arrival_direction = match net.link(arriving).departure_direction(node) {
            Some(d) => -d,
            None => Vec2::NORTH,
        };
        let departure_angle = |link: LinkId| {
            let departure = net.link(link).departure_direction(node).unwrap_or(Vec2::NORTH);
            arrival_direction.angle_to(&departure)
        };
        net.outgoing_links_iter(node, Some(arriving)).min_by(|&a, &b| {
            let (da, db) = (departure_angle(a), departure_angle(b));
            da.partial_cmp(&db).expect("angles are finite").then(a.cmp(&b))
        })
    }

    fn assert_table_is_the_rule(net: &RoadNetwork, what: &str) {
        assert_eq!(net.continuations.len(), net.link_count(), "{what}");
        for link in net.links() {
            for node in [link.from, link.to] {
                assert_eq!(
                    net.straightest_continuation(link.id, node),
                    on_the_fly_smallest_angle(net, link.id, node),
                    "{what}: arriving over {} at {node}",
                    link.id
                );
            }
        }
    }

    #[test]
    fn the_table_is_the_rule_on_every_generated_map() {
        for seed in [7, 2001] {
            let freeway = freeway::generate(&FreewayConfig { seed, ..FreewayConfig::default() });
            assert_table_is_the_rule(&freeway, "freeway");
            let interurban =
                interurban::generate(&InterurbanConfig { seed, ..InterurbanConfig::default() });
            assert_table_is_the_rule(&interurban, "inter-urban");
            let city = city_grid::generate(&CityConfig { seed, ..CityConfig::default() });
            assert_table_is_the_rule(&city, "city grid");
            let campus = campus::generate(&CampusConfig { seed, ..CampusConfig::default() });
            assert_table_is_the_rule(&campus, "campus");
        }
    }

    #[test]
    fn dead_end_has_no_continuation_and_a_degree_two_node_has_one() {
        // A ── B ── C: B is a degree-2 node, A and C are dead ends.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let mid = b.add_node(Point::new(100.0, 0.0));
        let c = b.add_node(Point::new(200.0, 50.0));
        let ab = b.add_straight_link(a, mid, RoadClass::Residential);
        let bc = b.add_straight_link(mid, c, RoadClass::Residential);
        let net = b.build().unwrap();
        assert_eq!(net.straightest_continuation(ab, a), None);
        assert_eq!(net.straightest_continuation(bc, c), None);
        assert_eq!(net.straightest_continuation(ab, mid), Some(bc));
        assert_eq!(net.straightest_continuation(bc, mid), Some(ab));
        // Not an endpoint of the link, not a link of the map: no continuation.
        assert_eq!(net.straightest_continuation(ab, c), None);
        assert_eq!(net.straightest_continuation(ab, NodeId(4_000_000)), None);
        assert_eq!(net.straightest_continuation(LinkId(99), mid), None);
        assert_table_is_the_rule(&net, "chain");
    }

    #[test]
    fn an_exact_angle_tie_goes_to_the_smaller_link_id() {
        // Arriving eastwards at B; two branches leave at exactly ±45°.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(-100.0, 0.0));
        let mid = b.add_node(Point::new(0.0, 0.0));
        let up = b.add_node(Point::new(100.0, 100.0));
        let down = b.add_node(Point::new(100.0, -100.0));
        let approach = b.add_straight_link(a, mid, RoadClass::Residential);
        let first = b.add_straight_link(mid, down, RoadClass::Residential);
        let second = b.add_straight_link(mid, up, RoadClass::Residential);
        let net = b.build().unwrap();
        let angle = |l: LinkId| Vec2::EAST.angle_to(&net.link(l).departure_direction(mid).unwrap());
        assert_eq!(angle(first).to_bits(), angle(second).to_bits(), "the tie must be exact");
        assert!(first < second);
        assert_eq!(net.straightest_continuation(approach, mid), Some(first));
        assert_table_is_the_rule(&net, "tie");
    }

    #[test]
    fn a_self_loop_is_excluded_when_arriving_over_it_and_a_candidate_otherwise() {
        // A ── B ── C with a loop B → (-50,80) → (50,80) → B.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(-100.0, 0.0));
        let mid = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, -100.0));
        let ab = b.add_straight_link(a, mid, RoadClass::Residential);
        let bc = b.add_straight_link(mid, c, RoadClass::Residential);
        let lp = b.add_link(
            mid,
            mid,
            vec![Point::new(-50.0, 80.0), Point::new(50.0, 80.0)],
            RoadClass::Residential,
        );
        let net = b.build().unwrap();
        // Arriving eastwards over A–B: B–C (south-east, 45° off) beats the
        // loop, which leaves north-north-west.
        assert_eq!(net.straightest_continuation(ab, mid), Some(bc));
        // Arriving over B–C (heading north-west) the loop (≈ 13° off) is the
        // straighter way on than A–B (45° off).
        assert_eq!(net.straightest_continuation(bc, mid), Some(lp));
        // Arriving over the loop never continues on the loop, and both of its
        // ends are the same node, so both entries agree.
        let over_the_loop = net.straightest_continuation(lp, mid);
        assert!(over_the_loop.is_some() && over_the_loop != Some(lp));
        assert_eq!(net.continuations[lp.index()][0], net.continuations[lp.index()][1]);
        assert_table_is_the_rule(&net, "self-loop");
    }

    #[test]
    fn a_zero_length_first_segment_departs_north() {
        // Arriving northwards at B. The branch to E really leaves eastwards,
        // but its geometry starts with a repeated vertex, so its departure
        // direction falls back to north and beats the north-east branch.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, -100.0));
        let mid = b.add_node(Point::new(0.0, 0.0));
        let ne = b.add_node(Point::new(100.0, 100.0));
        let e = b.add_node(Point::new(100.0, 0.0));
        let approach = b.add_straight_link(a, mid, RoadClass::Residential);
        let north_east = b.add_straight_link(mid, ne, RoadClass::Residential);
        let degenerate = b.add_link_with_geometry(
            mid,
            e,
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0), Point::new(100.0, 0.0)]),
            RoadClass::Residential,
        );
        let net = b.build().unwrap();
        assert_eq!(net.link(degenerate).departure_direction(mid), Some(Vec2::NORTH));
        assert_eq!(net.straightest_continuation(approach, mid), Some(degenerate));
        assert_eq!(net.straightest_continuation(north_east, mid), Some(approach));
        assert_table_is_the_rule(&net, "zero-length first segment");
    }

    #[test]
    fn the_empty_network_has_an_empty_table_and_clone_carries_it() {
        let empty = RoadNetwork::default();
        assert!(empty.continuations.is_empty());
        assert_eq!(empty.straightest_continuation(LinkId(0), NodeId(0)), None);
        let net = triangle();
        let copy = net.clone();
        assert_eq!(copy.continuations, net.continuations);
        assert_table_is_the_rule(&copy, "clone");
    }
}
