//! Typed identifiers for intersections and links.
//!
//! The paper requires both intersections and links to carry "a unique
//! identifier"; update messages of the map-based protocol transmit the current
//! link's identifier. Newtypes keep node and link ids from being confused and
//! keep the update message representation compact (a `u32` each).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an intersection (node) in a [`crate::RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a link (road segment between two intersections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The raw index value.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The raw index value.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for LinkId {
    fn from(v: u32) -> Self {
        LinkId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        assert_eq!(set.len(), 2);
        assert!(LinkId(3) < LinkId(10));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(LinkId(7).to_string(), "l7");
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(NodeId::from(9).index(), 9);
        assert_eq!(LinkId::from(4).index(), 4);
    }
}
