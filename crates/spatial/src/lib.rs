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
//! An entry is a bounding box under an id the caller numbers densely (a
//! shard's slot, a link segment's position in the locator's list). The index
//! keeps its state in arenas indexed by that id and hands the same ids back
//! from every query, so a caller resolves a candidate with one array index of
//! its own. The index is conservative: a query returns every entry whose
//! bounding box satisfies the predicate, never fewer; the caller decides how
//! precise the final distance filter must be.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cells;
pub mod moving;

pub use cells::SeenScratch;
pub use moving::{first_ring_radius, BulkPlan, MovingIndex};
