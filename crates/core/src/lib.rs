//! # mbdr-core — the dead-reckoning update-protocol family
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! family of protocols for transmitting location information from a mobile
//! *source* to a location *server* such that the server-side position never
//! deviates from the true position by more than a requested accuracy `u_s`,
//! using as few update messages as possible.
//!
//! ## The general mechanism (paper, Section 2, Fig. 1)
//!
//! Source and server share a prediction function `pred()`. The server answers
//! position queries with `pred(last reported state, t)`. The source monitors
//! its sensor; whenever the distance between its actual position and the
//! predicted position (plus the sensor uncertainty `u_p`) exceeds `u_s`, it
//! sends an update carrying its current state. Because both sides run the
//! identical predictor, the server-side error is bounded by `u_s` between
//! updates.
//!
//! ## Protocol variants (Fig. 2)
//!
//! | module | protocol | prediction |
//! |---|---|---|
//! | [`distance_based`] | distance-based reporting (non-DR baseline, \[6\]) | object stays at last reported position |
//! | [`linear`] | linear-prediction dead reckoning | straight line at reported speed/heading |
//! | [`higher_order`] | higher-order prediction | circular arc (adds turn rate) |
//! | [`map_based`] | **map-based dead reckoning** (the paper's contribution) | along the road network, smallest-angle link at intersections |
//! | [`map_prob`] | map-based with probability information | along the road network, most-probable link at intersections |
//! | [`known_route`] | dead reckoning with known route (\[12\]) | along the pre-known route |
//! | [`adaptive`] | Wolfson-style adr/dtdr adaptive threshold policies | wraps any predictor |
//!
//! [`server::ServerTracker`] is the server-side replica that applies updates
//! and answers `position_at(t)`; [`protocol::UpdateProtocol`] is the
//! source-side trait all the variants implement. [`wire`] is the verified
//! codec the updates travel as: a round-trip-exact encoder/decoder pair plus
//! the [`wire::Frame`] batching many updates per transmission, each coded
//! against the one before it, and [`wire::query`] adds the serving-layer message kinds
//! (rect / nearest / zone queries and their responses) the `mbdr-net` TCP
//! layer speaks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod distance_based;
pub mod higher_order;
pub mod known_route;
pub mod linear;
pub mod map_based;
pub mod map_predictor;
pub mod map_prob;
pub mod predictor;
pub mod protocol;
pub mod server;
pub mod state;
pub mod wire;

pub use adaptive::{AdaptiveDeadReckoning, AdaptivePolicy};
pub use distance_based::DistanceBasedReporting;
pub use higher_order::HigherOrderDeadReckoning;
pub use known_route::KnownRouteDeadReckoning;
pub use linear::LinearDeadReckoning;
pub use map_based::MapBasedDeadReckoning;
pub use map_predictor::{IntersectionPolicy, MapPredictor};
pub use map_prob::ProbabilityMapDeadReckoning;
pub use predictor::{ArcPredictor, LinearPredictor, Predictor, StaticPredictor};
pub use protocol::{ProtocolConfig, Sighting, UpdateProtocol};
pub use server::ServerTracker;
pub use state::{ObjectState, Update, UpdateKind};
pub use wire::query::{
    DurabilityState, HealthStatus, PositionRecord, Request, Response, ServeError, ZoneEventRecord,
};
pub use wire::snapshot::{decode_snapshot, encode_snapshot_into, SnapshotEntry};
pub use wire::{DecodeError, EncodeError, Frame, FrameView, UpdateView};
