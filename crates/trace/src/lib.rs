//! # mbdr-trace — movement and sensor simulation
//!
//! The paper evaluates its protocols on four real DGPS traces (Table 1):
//! a car on a freeway, a car in inter-urban traffic, a car in city traffic and
//! a walking person, each recorded at 1 Hz with a differential GPS receiver of
//! 2–5 m accuracy. Those recordings are not available, so this crate generates
//! the closest synthetic equivalent:
//!
//! 1. [`route_plan`] plans a trip of the desired length over a synthetic road
//!    network (from `mbdr-roadnet`),
//! 2. [`motion`] drives a kinematic vehicle/pedestrian model along that trip —
//!    bounded acceleration, curve slow-down, speed limits, stops at
//!    intersections (traffic lights) — producing a ground-truth trajectory,
//! 3. [`gps`] corrupts the ground truth with a correlated (Gauss–Markov) GPS
//!    error of the same magnitude as the paper's DGPS receiver and samples it
//!    at 1 Hz,
//! 4. [`scenarios`] packages map + trip + driver profile into the four
//!    Table 1 presets, and [`stats`] reports the Table 1 characteristics
//!    (length, duration, average/maximum speed) of any trace.
//!
//! What matters for reproducing the update-rate results is the *movement
//! character* — how steady the speed is, how curvy the geometry is, how often
//! intersections force direction changes — which the presets match to the
//! paper's traces. See DESIGN.md for the substitution argument.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gps;
pub mod motion;
pub mod profile;
pub mod route_plan;
pub mod scenarios;
pub mod stats;
pub mod types;

pub use gps::GpsNoiseModel;
pub use motion::{simulate_motion, MotionConfig};
pub use profile::DriverProfile;
pub use scenarios::{Scenario, ScenarioData, ScenarioKind};
pub use stats::TraceStats;
pub use types::{Fix, GroundTruth, Trace};
