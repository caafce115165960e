//! # mbdr-sim — the tracking simulator
//!
//! The paper evaluates its protocols by simulating a mobile object from
//! recorded traces and counting the update messages each protocol needs while
//! checking the accuracy actually delivered at the server (Section 4). This
//! crate is that simulator:
//!
//! * [`runner`] — runs one protocol over one trace: feeds every sensor fix to
//!   the source protocol, ships resulting updates over a [`channel`] with cost
//!   accounting, applies them to the server-side tracker, and samples the
//!   server's predicted position against the ground truth.
//! * [`metrics`] — what comes out: update counts, updates per hour, payload
//!   bytes, and the distribution of the server-side deviation.
//! * [`sweep`] — the experiment driver: a grid of (scenario × protocol ×
//!   requested accuracy) runs, executed in parallel with crossbeam scoped
//!   threads, producing the data behind Figures 7–10.
//! * [`degraded`] — the lossy-link channel model: a [`channel::MessageChannel`]
//!   carrying encoded frames that are dropped, duplicated, jittered and
//!   reordered under a seeded RNG, with per-cause statistics.
//! * [`lossy`] — the loss-rate sweep over the degraded link: encode → channel
//!   → decode → apply, reporting accuracy degradation and message overhead as
//!   functions of the loss rate (`reproduce wire` emits its JSON baseline).
//! * [`faultplan`] — the seeded disk-outage schedule: `(total_frames, seed)`
//!   → one deterministic kill/heal window, the pure-function contract behind
//!   `reproduce faults` (the fsync-kill must be reproducible from the seed
//!   alone).
//! * [`fleet`] — many objects tracked concurrently against one shared map
//!   (the location-service workload of the paper's introduction).
//! * [`service_workload`] — the whole fleet replayed against one shared,
//!   sharded [`mbdr_locserver::LocationService`]: concurrent producer threads
//!   ingesting updates while query threads issue the motivating range /
//!   nearest / zone queries, checking query-observed accuracy against an
//!   analytic skew bound.
//! * [`scale_workload`] — the million-object axis: synthetic fleets placed
//!   uniformly or with Zipf hotspot skew, ingested in full-fleet rounds and
//!   queried with rect / nearest traffic, exercising the spatial data plane
//!   at N up to 10⁶ (`reproduce scale` emits its baseline).
//! * [`net_workload`] — the same fleet driven over real loopback TCP through
//!   `mbdr_net`'s serving layer: producer connections stream encoded frames
//!   and query connections issue the binary query protocol at one pinned
//!   instant (`reproduce net` emits its baseline).
//! * [`connscale`] — the connection-count axis: thousands of mostly-idle
//!   TCP connections held on the server's fixed reactor pool while a small
//!   hot subset streams and queries (`reproduce connscale` emits its
//!   baseline).
//! * [`report`] — plain-text table/CSV rendering of the results, and the one
//!   JSON value tree (seed-determined numbers, single writer) every baseline
//!   document is built from.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod connscale;
pub mod degraded;
pub mod faultplan;
pub mod fleet;
pub mod lossy;
pub mod metrics;
pub mod net_workload;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod scale_workload;
pub mod service_workload;
pub mod sweep;

pub use channel::{MessageChannel, WirePayload};
pub use connscale::{run_connscale_workload, ConnScaleConfig, ConnScaleReport};
pub use degraded::{DegradedChannel, LinkConfig, LinkStats};
pub use faultplan::FaultPlan;
pub use fleet::{FleetConfig, FleetResult};
pub use lossy::{run_loss_sweep, LossPoint, LossSweepConfig, LossSweepResult};
pub use metrics::{DeviationStats, RunMetrics};
pub use net_workload::{run_net_workload, NetWorkloadConfig, NetWorkloadReport};
pub use protocols::ProtocolKind;
pub use report::{render_csv, render_json, render_table, Json, Metric};
pub use runner::{run_protocol, RunConfig};
pub use scale_workload::{run_scale_workload, ScaleConfig, ScaleReport};
pub use service_workload::{run_service_workload, QueryMix, WorkloadConfig, WorkloadReport};
pub use sweep::{sweep_scenario, SweepPoint, SweepResult};
