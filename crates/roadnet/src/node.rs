//! Intersections (nodes) of the road network.

use crate::ids::NodeId;
use mbdr_geo::Point;
use serde::{Deserialize, Serialize};

/// An intersection: a uniquely identified point where links meet.
///
/// In the paper's map model an intersection is "described by a unique
/// identifier and their exact geographical location". Dead-end road endpoints
/// are also modelled as nodes (with a single incident link).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Unique identifier of the intersection.
    pub id: NodeId,
    /// Position in the local metric frame.
    pub position: Point,
    /// Optional human-readable name (useful in examples and debugging output).
    pub name: Option<String>,
}

impl Node {
    /// Creates an unnamed node.
    pub(crate) fn new(id: NodeId, position: Point) -> Self {
        Node { id, position, name: None }
    }

    /// Creates a named node.
    pub(crate) fn named(id: NodeId, position: Point, name: impl Into<String>) -> Self {
        Node { id, position, name: Some(name.into()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_distance() {
        let n = Node::new(NodeId(3), Point::new(3.0, 4.0));
        assert_eq!(n.id, NodeId(3));
        assert!(n.name.is_none());
    }

    #[test]
    fn named_node_keeps_name() {
        let n = Node::named(NodeId(1), Point::ORIGIN, "Schlossplatz");
        assert_eq!(n.name.as_deref(), Some("Schlossplatz"));
    }
}
