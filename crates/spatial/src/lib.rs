//! # mbdr-spatial — from-scratch spatial indexes
//!
//! The paper's map matcher finds candidate road links "by querying a spatial
//! index for the map information with the mobile object's current position"
//! (Section 3). This crate provides that substrate, built from scratch on top
//! of [`mbdr_geo`]:
//!
//! * [`RTree`] — a bulk-loaded STR (Sort-Tile-Recursive) R-tree with range and
//!   (k-)nearest-neighbour queries. Build-once: it indexes the static map
//!   geometry (`mbdr_roadnet`'s `LinkLocator` answers the map matcher's
//!   "which links are within `u_m` of me?" query through it).
//! * [`MovingIndex`] — a keyed uniform-grid index whose entries can be moved
//!   and removed after insertion; the location service maintains one per
//!   shard to keep its range/nearest queries index-pruned while objects move.
//!   Its nearest search and the service's share one first-ring policy,
//!   [`first_ring_radius`].
//! * [`SpatialIndex`] — the common query trait, so callers are index-agnostic
//!   (and the equivalence tests hold both implementations to one brute-force
//!   oracle).
//!
//! Entries are `(Aabb, T)` pairs; the caller decides what the payload `T` is
//! (a link id, an object id, …) and how precise the final distance filter must
//! be. Both indexes are conservative: a query returns every entry whose
//! bounding box satisfies the predicate, never fewer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cells;
pub mod moving;
pub mod rtree;

pub use cells::SeenScratch;
pub use moving::{first_ring_radius, MovingIndex};
pub use rtree::RTree;

use mbdr_geo::{Aabb, Point};

/// An entry stored in a spatial index: a bounding box plus an opaque payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<T> {
    /// Bounding box of the indexed geometry.
    pub bbox: Aabb,
    /// Caller-defined payload (e.g. a link id).
    pub item: T,
}

impl<T> Entry<T> {
    /// Creates an entry.
    pub fn new(bbox: Aabb, item: T) -> Self {
        Entry { bbox, item }
    }
}

/// A neighbour returned by a nearest-neighbour query.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor<'a, T> {
    /// Distance from the query point to the entry's bounding box (lower bound
    /// on the distance to the exact geometry), metres.
    pub distance: f64,
    /// The matching entry.
    pub entry: &'a Entry<T>,
}

/// Common interface of the spatial indexes in this crate.
pub trait SpatialIndex<T> {
    /// Number of entries in the index.
    fn len(&self) -> usize;

    /// Returns `true` if the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries whose bounding box intersects `query`.
    fn query_rect<'a>(&'a self, query: &Aabb) -> Vec<&'a Entry<T>>;

    /// All entries whose bounding box comes within `radius` metres of `p`.
    fn query_within<'a>(&'a self, p: &Point, radius: f64) -> Vec<&'a Entry<T>> {
        self.query_rect(&Aabb::around(*p, radius))
            .into_iter()
            .filter(|e| e.bbox.distance_to_point(p) <= radius)
            .collect()
    }

    /// The `k` entries whose bounding boxes are nearest to `p`, ordered by
    /// ascending distance.
    fn nearest<'a>(&'a self, p: &Point, k: usize) -> Vec<Neighbor<'a, T>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_holds_payload() {
        let e = Entry::new(Aabb::around(Point::new(1.0, 2.0), 5.0), 42u32);
        assert_eq!(e.item, 42);
        assert!(e.bbox.contains(&Point::new(1.0, 2.0)));
    }
}
