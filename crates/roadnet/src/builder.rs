//! Incremental construction of road networks with validation.

use crate::ids::{LinkId, NodeId};
use crate::link::{Link, RoadClass};
use crate::network::RoadNetwork;
use crate::node::Node;
use mbdr_geo::{Point, Polyline};
use std::fmt;

/// Error returned when a built network violates structural invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildError {
    /// Human-readable list of problems found by validation.
    pub problems: Vec<String>,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid road network: {}", self.problems.join("; "))
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`RoadNetwork`]s.
///
/// Hands out dense [`NodeId`]s/[`LinkId`]s in insertion order and validates
/// the finished graph in [`NetworkBuilder::build`]. The synthetic map
/// generators in [`crate::gen`] are all written against this builder.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Adds an intersection at `position` and returns its id.
    pub fn add_node(&mut self, position: Point) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, position));
        id
    }

    /// Adds a named intersection at `position` and returns its id.
    pub(crate) fn add_named_node(&mut self, position: Point, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::named(id, position, name));
        id
    }

    /// Position of a previously added node.
    pub(crate) fn node_position(&self, id: NodeId) -> Point {
        self.nodes[id.index()].position
    }

    /// Adds a link whose geometry is the straight line between the two nodes.
    pub fn add_straight_link(&mut self, from: NodeId, to: NodeId, class: RoadClass) -> LinkId {
        let geometry = Polyline::straight(self.node_position(from), self.node_position(to));
        self.add_link_with_geometry(from, to, geometry, class)
    }

    /// Adds a link with explicit shape points between the endpoints.
    ///
    /// The supplied `shape_points` are the *interior* vertices; the endpoint
    /// positions are prepended/appended automatically.
    pub(crate) fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        shape_points: Vec<Point>,
        class: RoadClass,
    ) -> LinkId {
        let mut vertices = Vec::with_capacity(shape_points.len() + 2);
        vertices.push(self.node_position(from));
        vertices.extend(shape_points);
        vertices.push(self.node_position(to));
        self.add_link_with_geometry(from, to, Polyline::new(vertices), class)
    }

    /// Adds a link with a fully specified geometry (must start and end at the
    /// endpoint node positions; checked in [`NetworkBuilder::build`]).
    pub fn add_link_with_geometry(
        &mut self,
        from: NodeId,
        to: NodeId,
        geometry: Polyline,
        class: RoadClass,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(id, from, to, geometry, class));
        id
    }

    /// Overrides the speed limit of an already-added link.
    pub(crate) fn set_speed_limit(&mut self, link: LinkId, kmh: f64) {
        self.links[link.index()].speed_limit_kmh = kmh;
    }

    /// Finishes the network, validating structural invariants.
    pub fn build(self) -> Result<RoadNetwork, BuildError> {
        let network = RoadNetwork::from_parts(self.nodes, self.links);
        let problems = network.validate();
        if problems.is_empty() {
            Ok(network)
        } else {
            Err(BuildError { problems })
        }
    }

    /// Finishes the network without validation (used by generators whose
    /// output is validated in their own tests; avoids double work on large
    /// maps).
    pub(crate) fn build_unchecked(self) -> RoadNetwork {
        RoadNetwork::from_parts(self.nodes, self.links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_in_insertion_order() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_named_node(Point::new(10.0, 0.0), "corner");
        assert_eq!(n0, NodeId(0));
        assert_eq!(n1, NodeId(1));
        let l0 = b.add_straight_link(n0, n1, RoadClass::Residential);
        assert_eq!(l0, LinkId(0));
        assert_eq!(b.nodes.len(), 2);
        assert_eq!(b.links.len(), 1);
        let net = b.build().unwrap();
        assert_eq!(net.node(n1).name.as_deref(), Some("corner"));
    }

    #[test]
    fn add_link_inserts_shape_points_between_endpoints() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(20.0, 0.0));
        let l = b.add_link(a, c, vec![Point::new(10.0, 5.0)], RoadClass::Arterial);
        let net = b.build().unwrap();
        let link = net.link(l);
        assert_eq!(link.geometry.vertices().len(), 3);
        assert_eq!(link.geometry.first(), Point::new(0.0, 0.0));
        assert_eq!(link.geometry.last(), Point::new(20.0, 0.0));
    }

    #[test]
    fn build_rejects_geometry_that_misses_its_endpoints() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(20.0, 0.0));
        // Geometry that starts 10 m away from node `a`.
        b.add_link_with_geometry(
            a,
            c,
            Polyline::straight(Point::new(10.0, 10.0), Point::new(20.0, 0.0)),
            RoadClass::Residential,
        );
        let err = b.build().unwrap_err();
        assert!(err.problems.iter().any(|p| p.contains("does not start")));
        assert!(err.to_string().contains("invalid road network"));
    }

    #[test]
    fn speed_limit_override() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let l = b.add_straight_link(a, c, RoadClass::Arterial);
        b.set_speed_limit(l, 70.0);
        let net = b.build().unwrap();
        assert_eq!(net.link(l).speed_limit_kmh, 70.0);
    }

    #[test]
    fn build_unchecked_skips_validation() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(20.0, 0.0));
        b.add_link_with_geometry(
            a,
            c,
            Polyline::straight(Point::new(10.0, 10.0), Point::new(20.0, 0.0)),
            RoadClass::Residential,
        );
        // Does not panic or error even though the geometry is inconsistent.
        let net = b.build_unchecked();
        assert_eq!(net.link_count(), 1);
        assert!(!net.validate().is_empty());
    }
}
