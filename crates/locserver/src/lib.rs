//! # mbdr-locserver — the sharded location service
//!
//! The paper's motivation is a location service that "provides, for example,
//! the functionality to find the nearest taxi cab depending on the user's
//! current location or to address all users that are currently inside a
//! department of a store". This crate is that service, built on the
//! server-side trackers of `mbdr-core` and scaled for whole fleets:
//!
//! * [`LocationService`] partitions the object store into
//!   [`ServiceConfig::shards`] lock stripes (objects assigned by id hash).
//!   Update ingestion takes exactly one shard's write lock; queries take
//!   shard read locks one at a time — no operation ever holds a global lock.
//! * Each shard maintains a [`mbdr_spatial::MovingIndex`] over its objects,
//!   updated incrementally on every accepted update, so
//!   [`LocationService::objects_in_rect`] (range query) and
//!   [`LocationService::nearest_objects`] (k-nearest, "nearest taxi") are
//!   **index-pruned** instead of full scans — while returning exactly what a
//!   full scan over every tracker would. A nearest query's first ring is
//!   sized from `k` and the occupancy of the query point's cell
//!   ([`mbdr_spatial::first_ring_radius`]), so in a crowded cell it starts
//!   small and doubles only while the k-th distance lies outside it.
//! * position queries ([`LocationService::position_of`]) extrapolate with the
//!   object's own prediction function, exactly like the per-object server in
//!   the update protocol; [`zones::ZoneWatcher`] adds enter/leave
//!   subscriptions on top of the range query.
//!
//! ## The staleness-aware index invariant
//!
//! The spatial index stores, per object, a bounding box plus a validity
//! deadline with the invariant: *for every query time `t` up to the deadline,
//! the object's predicted position `pred(s, t)` lies inside the box*. It
//! holds because every prediction function is speed-bounded —
//! `|pred(s, t) − s.position| ≤ s.speed · (t − s.timestamp)` (linear and
//! map-based predictions travel at the reported speed; arc predictions follow
//! a circle at it; static ones do not move) — so a box centred on the last
//! reported position with radius `speed · (deadline − s.timestamp) + slack`
//! is conservative, where the [`ServiceConfig::slack_m`] growth (set it to
//! the protocols' requested accuracy `u_s`) additionally absorbs prediction
//! functions that deviate from the constant-speed model by up to the accuracy
//! bound. Between updates the box simply stands; a query arriving *past* the
//! deadline lazily re-grows the box (still anchored at the reported
//! position), so the entry of a silent mover widens over time — matching the
//! server's genuine uncertainty — while frequently-updating objects keep
//! tight boxes. A box that would span more than 64 grid cells per axis —
//! a silent mover's re-grow, or an accepted update at a very high speed —
//! leaves the grid for a per-shard wide list that every query takes as
//! candidates, so one update or re-grow registers about 64² cells at most. Conservative boxes can only ever add *candidates*, which the
//! exact per-object prediction then filters, so query answers are
//! bit-for-bit identical to the pre-shard full-scan implementation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Panic-free by construction: device-sent frames and journal bytes reach
// this code, so it answers bad input with typed errors.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod config;
mod durable;
mod legacy;
pub mod service;
mod shard;
pub mod zones;

pub use config::ServiceConfig;
pub use durable::{
    recover_and_attach, recover_and_attach_with_vfs, DurabilityStatsSnapshot, RecoverError,
    RecoveryReport, RecoveryStages, SnapshotStages,
};
pub use service::{IndexStats, LocationService, ObjectId, PositionReport, QueryScratch};
pub use zones::{ZoneEvent, ZoneEventKind, ZoneWatcher};
