//! # mbdr-spatial — from-scratch spatial indexes
//!
//! The paper's map matcher finds candidate road links "by querying a spatial
//! index for the map information with the mobile object's current position"
//! (Section 3). This crate provides that substrate, built from scratch on top
//! of [`mbdr_geo`]:
//!
//! * [`MovingIndex`] — a keyed uniform-grid index whose entries can be moved
//!   and removed after insertion. The location service maintains one per
//!   shard to keep its range/nearest queries index-pruned while objects move,
//!   and `mbdr_roadnet`'s `LinkLocator` builds one over the static link
//!   segments of a map to answer the map matcher's "which links are within
//!   `u_m` of me?" query.
//! * [`first_ring_radius`] — the first ring of the service's expanding-ring
//!   nearest search, sized from the local cell occupancy.
//!
//! Entries are `(Aabb, T)` pairs; the caller decides what the payload `T` is
//! (a link id, an object id, …) and how precise the final distance filter must
//! be. The index is conservative: a query returns every entry whose bounding
//! box satisfies the predicate, never fewer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cells;
pub mod moving;

pub use cells::SeenScratch;
pub use moving::{first_ring_radius, BulkPlan, MovingIndex};

use mbdr_geo::Aabb;

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
    pub(crate) fn new(bbox: Aabb, item: T) -> Self {
        Entry { bbox, item }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::Point;

    #[test]
    fn entry_holds_payload() {
        let e = Entry::new(Aabb::around(Point::new(1.0, 2.0), 5.0), 42u32);
        assert_eq!(e.item, 42);
        assert!(e.bbox.contains(&Point::new(1.0, 2.0)));
    }
}
