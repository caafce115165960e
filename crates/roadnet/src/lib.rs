//! # mbdr-roadnet — the road-map substrate
//!
//! The map-based dead-reckoning protocol needs "information about all
//! available intersections, which are described by a unique identifier and
//! their exact geographical location, and links, which are placed between two
//! such intersections and have again a unique identifier. To be able to model
//! roads more exactly, a link can be divided into a number of sub links by
//! specifying intermediate shape points" (paper, Section 3 / Fig. 4).
//!
//! This crate implements that model and everything the reproduction needs
//! around it:
//!
//! * [`Node`] (intersection), [`Link`] (with shape points, road class, speed
//!   limit) and [`RoadNetwork`] — the graph itself, with adjacency queries
//!   ("outgoing links of this intersection") used by the predictor's
//!   forward-tracking and smallest-angle link choice.
//! * [`NetworkBuilder`] — incremental construction with validation.
//! * [`LinkLocator`] — the spatial index over link geometry used by the map
//!   matcher ("querying a spatial index for the map information").
//! * [`route`] — route representations and Dijkstra routing, used by the trace
//!   generator to plan realistic trips over the map (and by the known-route
//!   dead-reckoning baseline).
//! * [`gen`] — synthetic map generators replacing the commercial navigation
//!   map the authors used: a curving freeway, an inter-urban town network, a
//!   perturbed city grid and a campus footpath network.
//! * [`transition`] — link-to-link transition statistics, feeding the
//!   "map-based with probability information" protocol variant.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod gen;
pub mod ids;
pub mod link;
pub mod locator;
pub mod network;
pub mod node;
pub mod route;
pub mod transition;

pub use builder::NetworkBuilder;
pub use ids::{LinkId, NodeId};
pub use link::{Link, RoadClass};
pub use locator::{LinkLocator, LinkMatch};
pub use network::RoadNetwork;
pub use node::Node;
pub use route::{Route, Router};
pub use transition::TransitionTable;
