//! Concurrent fleet workload against one shared, sharded location service.
//!
//! [`crate::fleet`] measures per-object protocol cost, but every vehicle
//! there runs against its own private tracker — nothing exercises the shared
//! [`LocationService`] the paper's motivating queries need. This module closes
//! that gap: one service, `producers` threads ingesting the whole fleet's
//! update streams concurrently with `query_threads` threads issuing the
//! motivating queries (range, k-nearest, zone subscriptions), checking
//! *query-observed accuracy* — the deviation between what a dispatcher is
//! told and where the vehicles truly are.
//!
//! ## Replay model
//!
//! Updates are generated offline (phase 1) by running each vehicle's update
//! protocol over its trace, then replayed (phase 2) in virtual-time rounds of
//! one second: every producer applies its updates for round `r`, publishes its
//! frontier, and waits for the others before starting round `r + 1` (a
//! lockstep barrier, so producers never drift more than one virtual second
//! apart). Query threads read the minimum frontier `m` and query at
//! `t = m − ½`: every update with an earlier timestamp is guaranteed applied,
//! and at most 2.5 virtual seconds of "future" updates may additionally be
//! visible — which bounds the query-observed error by the protocol's
//! accuracy bound plus sensor noise plus 2.5 s of vehicle travel. Producers
//! can sprint ahead while a query thread is descheduled mid-sample, so an
//! accuracy sample only counts if the frontier is unchanged when it
//! completes; with that filter the bound holds regardless of thread
//! interleaving. The accuracy samples depend on that interleaving, so only
//! the report's counts go into its JSON; they are exact.

use crate::fleet::{simulate_fleet, FleetConfig, Vehicle};
use crate::protocols::ProtocolKind;
use crate::report::Json;
use mbdr_core::Update;
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, ServiceConfig, ZoneWatcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Relative weights of the three query kinds a query thread cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMix {
    /// Range queries ("all users inside a department").
    pub rect: u32,
    /// k-nearest queries ("nearest taxi").
    pub nearest: u32,
    /// Zone-watcher evaluations (enter/leave subscriptions).
    pub zone: u32,
}

impl QueryMix {
    /// Mostly range queries.
    pub const RECT_HEAVY: QueryMix = QueryMix { rect: 4, nearest: 1, zone: 1 };
    /// Mostly nearest-neighbour queries.
    pub const NEAREST_HEAVY: QueryMix = QueryMix { rect: 1, nearest: 4, zone: 1 };
    /// Even thirds.
    pub const BALANCED: QueryMix = QueryMix { rect: 1, nearest: 1, zone: 1 };

    /// Short label for reports.
    pub(crate) fn label(&self) -> String {
        format!("rect{}:near{}:zone{}", self.rect, self.nearest, self.zone)
    }

    fn total(&self) -> u32 {
        (self.rect + self.nearest + self.zone).max(1)
    }
}

/// Configuration of a service workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Fleet size.
    pub objects: usize,
    /// Shard count of the shared service.
    pub shards: usize,
    /// Threads ingesting updates.
    pub producers: usize,
    /// Threads issuing queries.
    pub query_threads: usize,
    /// Queries each query thread issues (exact, for deterministic counts).
    pub queries_per_thread: usize,
    /// Relative query-kind weights.
    pub query_mix: QueryMix,
    /// Trip length per vehicle, metres.
    pub trip_length_m: f64,
    /// Requested accuracy `u_s`, metres.
    pub requested_accuracy: f64,
    /// Update protocol every vehicle runs.
    pub protocol: ProtocolKind,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            objects: 64,
            shards: 16,
            producers: 4,
            query_threads: 4,
            queries_per_thread: 250,
            query_mix: QueryMix::BALANCED,
            trip_length_m: 1_500.0,
            requested_accuracy: 100.0,
            protocol: ProtocolKind::MapBased,
            seed: 0x5EAF00D,
        }
    }
}

/// Query-observed accuracy statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryAccuracy {
    /// Number of (query answer, ground truth) comparisons.
    pub samples: u64,
    /// Mean observed deviation, metres.
    pub mean_m: f64,
    /// Maximum observed deviation, metres.
    pub max_m: f64,
    /// The analytic bound the deviation is checked against: `u_s` + sensor
    /// accuracy + the distance a vehicle can travel within the replay's
    /// worst-case producer/query skew.
    pub bound_m: f64,
    /// Samples within the bound.
    pub within_bound: u64,
}

/// Outcome of a service workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Fleet size.
    pub objects: usize,
    /// Service shard count.
    pub shards: usize,
    /// Producer thread count.
    pub producers: usize,
    /// Query thread count.
    pub query_threads: usize,
    /// Query mix label.
    pub query_mix: String,
    /// Virtual (simulated) duration replayed, seconds.
    pub virtual_duration_s: f64,
    /// Updates generated by the protocols (phase 1).
    pub updates_sent: u64,
    /// Updates accepted by the service (phase 2; equals `updates_sent` —
    /// asserted by the tests).
    pub updates_applied: u64,
    /// Total queries issued (exactly `query_threads · queries_per_thread`).
    pub queries_issued: u64,
    /// Range queries issued.
    pub rect_queries: u64,
    /// Nearest queries issued.
    pub nearest_queries: u64,
    /// Zone evaluations issued.
    pub zone_queries: u64,
    /// Query-observed accuracy (interleaving-dependent, so not in the JSON).
    pub accuracy: QueryAccuracy,
}

impl WorkloadReport {
    /// The report as one JSON object, consumed by `reproduce throughput`:
    /// the configuration and the seed-determined counts. What the query
    /// threads saw depends on how far the producers had got, so it stays out.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("objects", Json::exact(self.objects as f64)),
            ("shards", Json::exact(self.shards as f64)),
            ("producers", Json::exact(self.producers as f64)),
            ("query_threads", Json::exact(self.query_threads as f64)),
            ("query_mix", Json::str(&*self.query_mix)),
            ("virtual_duration_s", Json::exact(self.virtual_duration_s).fixed(1)),
            ("updates_sent", Json::exact(self.updates_sent as f64)),
            ("updates_applied", Json::exact(self.updates_applied as f64)),
            ("queries_issued", Json::exact(self.queries_issued as f64)),
            ("rect_queries", Json::exact(self.rect_queries as f64)),
            ("nearest_queries", Json::exact(self.nearest_queries as f64)),
            ("zone_queries", Json::exact(self.zone_queries as f64)),
        ])
    }
}

/// What both replay drivers (this one and [`crate::net_workload`]) start
/// from: the simulated fleet, a service of `shards` stripes with every
/// vehicle registered under its protocol's predictor, the virtual duration
/// to replay and the shared map's bounds.
pub(crate) struct Replay {
    pub(crate) vehicles: Vec<Vehicle>,
    pub(crate) service: Arc<LocationService>,
    pub(crate) virtual_duration: f64,
    pub(crate) map_bounds: Aabb,
}

impl Replay {
    /// Phase 1: simulates the fleet and runs every vehicle's protocol
    /// offline, then registers the fleet with a fresh service.
    pub(crate) fn new(fleet: &FleetConfig, shards: usize) -> Replay {
        let (base, vehicles) = simulate_fleet(fleet);
        let service = Arc::new(LocationService::with_config(ServiceConfig {
            shards,
            slack_m: fleet.requested_accuracy,
            ..ServiceConfig::default()
        }));
        for vehicle in &vehicles {
            service.register(vehicle.id, Arc::clone(&vehicle.predictor));
        }
        let virtual_duration =
            vehicles.iter().map(|v| v.trace.duration()).fold(0.0, f64::max).max(1.0);
        let map_bounds =
            base.network.bounding_box().unwrap_or_else(|| Aabb::around(Point::ORIGIN, 1_000.0));
        Replay { vehicles, service, virtual_duration, map_bounds }
    }

    /// Updates the protocols generated, fleet-wide.
    pub(crate) fn updates_sent(&self) -> u64 {
        self.vehicles.iter().map(|v| v.outcome.updates.len() as u64).sum()
    }

    /// The two watched zones: the map's south-west and north-east quarters.
    pub(crate) fn zones(&self) -> [Aabb; 2] {
        let center = self.map_bounds.center();
        [Aabb::new(self.map_bounds.min, center), Aabb::new(center, self.map_bounds.max)]
    }
}

/// One motivating query.
pub(crate) enum Query {
    /// Everything inside the rectangle.
    Rect(Aabb),
    /// The `k` nearest objects to the point.
    Nearest(Point, usize),
    /// One evaluation of the watched zones.
    Zone,
}

/// The seeded query stream of one query thread or connection. Both replay
/// drivers draw from it, so for the same seed they issue the same queries.
pub(crate) struct QueryStream {
    /// The stream's generator; the in-process driver draws its accuracy
    /// sample from it after each query.
    pub(crate) rng: StdRng,
    bounds: Aabb,
    mix: QueryMix,
}

impl QueryStream {
    /// The stream of query thread (or connection) `index`.
    pub(crate) fn new(seed: u64, index: usize, bounds: Aabb, mix: QueryMix) -> QueryStream {
        let rng =
            StdRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        QueryStream { rng, bounds, mix }
    }

    /// Draws the next query: a point uniform in the map bounds, a kind by the
    /// mix's weights, then the rect's half-width (100 to 1 200 m) or `k`
    /// (1 to 7). A zone query draws the point too.
    pub(crate) fn next_query(&mut self) -> Query {
        let (min, max) = (self.bounds.min, self.bounds.max);
        let p = Point::new(
            min.x + self.rng.gen_range(0.0..1.0) * (max.x - min.x),
            min.y + self.rng.gen_range(0.0..1.0) * (max.y - min.y),
        );
        let draw = self.rng.gen_range(0..self.mix.total());
        if draw < self.mix.rect {
            Query::Rect(Aabb::around(p, self.rng.gen_range(100.0..1_200.0)))
        } else if draw < self.mix.rect + self.mix.nearest {
            Query::Nearest(p, self.rng.gen_range(1usize..8))
        } else {
            Query::Zone
        }
    }
}

/// Waits (yielding) until every frontier has reached `round`.
fn wait_for_round(frontiers: &[AtomicU64], round: u64) {
    while frontiers.iter().any(|f| f.load(Ordering::Acquire) < round) {
        std::thread::yield_now();
    }
}

/// The minimum producer frontier: every update with a timestamp below it has
/// been applied to the service.
fn min_frontier(frontiers: &[AtomicU64]) -> u64 {
    frontiers.iter().map(|f| f.load(Ordering::Acquire)).min().unwrap_or(0)
}

/// Per-query-thread tallies, merged into the report after the run.
#[derive(Default, Clone, Copy)]
struct QueryTally {
    rect: u64,
    nearest: u64,
    zone: u64,
    samples: u64,
    error_sum: f64,
    error_max: f64,
    within: u64,
}

/// Phase 2 + aggregation: runs the whole workload and reports its counts and
/// query-observed accuracy.
pub fn run_service_workload(config: &WorkloadConfig) -> WorkloadReport {
    assert!(config.objects > 0, "workload needs at least one object");
    assert!(config.producers > 0, "workload needs at least one producer");
    assert!(config.query_threads > 0, "workload needs at least one query thread");
    let fleet = FleetConfig {
        objects: config.objects,
        trip_length_m: config.trip_length_m,
        requested_accuracy: config.requested_accuracy,
        protocol: config.protocol,
        seed: config.seed,
    };
    let replay = Replay::new(&fleet, config.shards);
    let Replay { vehicles, service, map_bounds, .. } = &replay;
    let virtual_duration = replay.virtual_duration;
    let rounds = virtual_duration.ceil() as u64 + 1;

    // Partition the fleet round-robin over producers and pre-merge each
    // partition's updates by timestamp so replay is a single pass.
    let mut partitions: Vec<Vec<(ObjectId, &Update)>> = vec![Vec::new(); config.producers];
    for (i, vehicle) in vehicles.iter().enumerate() {
        let part = &mut partitions[i % config.producers];
        part.extend(vehicle.outcome.updates.iter().map(|u| (vehicle.id, u)));
    }
    for part in &mut partitions {
        part.sort_by(|a, b| {
            a.1.state
                .timestamp
                .total_cmp(&b.1.state.timestamp)
                .then(a.0.cmp(&b.0))
                .then(a.1.sequence.cmp(&b.1.sequence))
        });
    }

    let frontiers: Vec<AtomicU64> = (0..config.producers).map(|_| AtomicU64::new(0)).collect();
    // Skew bound for an *accepted* accuracy sample (frontier unchanged at
    // `m` across the sample): a producer only works round `r` once every
    // frontier reached `r`, so any state applied before the sample has
    // `r ≤ m` and a timestamp below `m + 1` — at most 1.5 virtual seconds
    // past the query time `m − ½`. The bound uses 2.5 s for margin; 10 m of
    // slack absorbs truth interpolation.
    let v_max = vehicles
        .iter()
        .flat_map(|v| v.trace.ground_truth.iter())
        .map(|g| g.speed)
        .fold(0.0, f64::max);
    let u_p = vehicles
        .iter()
        .filter_map(|v| v.trace.fixes.first())
        .map(|f| f.accuracy)
        .fold(0.0, f64::max);
    let accuracy_bound = config.requested_accuracy + u_p + v_max * 2.5 + 10.0;

    let mut ingest_results: Vec<u64> = Vec::new();
    let mut query_results: Vec<QueryTally> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut producer_handles = Vec::new();
        for (p, part) in partitions.iter().enumerate() {
            let frontiers = &frontiers;
            producer_handles.push(scope.spawn(move |_| {
                let mut pos = 0usize;
                let mut applied = 0u64;
                for r in 0..rounds {
                    let limit = (r + 1) as f64;
                    while let Some(&(id, update)) =
                        part.get(pos).filter(|(_, u)| u.state.timestamp < limit)
                    {
                        if service.apply_update(id, update) {
                            applied += 1;
                        }
                        pos += 1;
                    }
                    frontiers[p].store(r + 1, Ordering::Release);
                    wait_for_round(frontiers, r + 1);
                }
                applied
            }));
        }

        let mut query_handles = Vec::new();
        let [sw, ne] = replay.zones();
        for q in 0..config.query_threads {
            let frontiers = &frontiers;
            query_handles.push(scope.spawn(move |_| {
                let mut queries = QueryStream::new(config.seed, q, *map_bounds, config.query_mix);
                let mut tally = QueryTally::default();
                let mut watcher = ZoneWatcher::new();
                watcher.add_zone("sw", sw);
                watcher.add_zone("ne", ne);
                for _ in 0..config.queries_per_thread {
                    // Wait for the first completed round, then query just
                    // behind the slowest producer.
                    let mut m = min_frontier(frontiers);
                    while m == 0 {
                        std::thread::yield_now();
                        m = min_frontier(frontiers);
                    }
                    let t_q = (m as f64 - 0.5).min(virtual_duration);
                    // The answers' sizes depend on how far the producers
                    // got, so only the queries themselves are counted.
                    match queries.next_query() {
                        Query::Rect(area) => {
                            tally.rect += 1;
                            service.objects_in_rect(&area, t_q);
                        }
                        Query::Nearest(p, k) => {
                            tally.nearest += 1;
                            service.nearest_objects(&p, t_q, k);
                        }
                        Query::Zone => {
                            tally.zone += 1;
                            watcher.evaluate(service, t_q);
                        }
                    }
                    // Accuracy sample: what the service answers for one random
                    // vehicle vs. where that vehicle truly is at t_q. Only
                    // counted if the frontier did not advance while sampling —
                    // otherwise producers may have applied states arbitrarily
                    // far past t_q and the 2.5 s skew bound would not apply.
                    let vehicle = &vehicles[queries.rng.gen_range(0usize..vehicles.len())];
                    if t_q <= vehicle.trace.duration() {
                        if let (Some(report), Some(truth)) = (
                            service.position_of(vehicle.id, t_q),
                            vehicle.trace.true_position_at(t_q),
                        ) {
                            if min_frontier(frontiers) == m {
                                let error = report.position.distance(&truth);
                                tally.samples += 1;
                                tally.error_sum += error;
                                tally.error_max = tally.error_max.max(error);
                                if error <= accuracy_bound {
                                    tally.within += 1;
                                }
                            }
                        }
                    }
                }
                tally
            }));
        }

        for h in producer_handles {
            ingest_results.push(h.join().expect("producer panicked"));
        }
        for h in query_handles {
            query_results.push(h.join().expect("query thread panicked"));
        }
    })
    .expect("workload thread panicked");

    let updates_applied: u64 = ingest_results.iter().sum();
    let queries_issued = (config.query_threads * config.queries_per_thread) as u64;
    let samples: u64 = query_results.iter().map(|t| t.samples).sum();
    let accuracy = QueryAccuracy {
        samples,
        mean_m: if samples > 0 {
            query_results.iter().map(|t| t.error_sum).sum::<f64>() / samples as f64
        } else {
            0.0
        },
        max_m: query_results.iter().map(|t| t.error_max).fold(0.0, f64::max),
        bound_m: accuracy_bound,
        within_bound: query_results.iter().map(|t| t.within).sum(),
    };
    WorkloadReport {
        objects: config.objects,
        shards: service.shard_count(),
        producers: config.producers,
        query_threads: config.query_threads,
        query_mix: config.query_mix.label(),
        virtual_duration_s: virtual_duration,
        updates_sent: replay.updates_sent(),
        updates_applied,
        queries_issued,
        rect_queries: query_results.iter().map(|t| t.rect).sum(),
        nearest_queries: query_results.iter().map(|t| t.nearest).sum(),
        zone_queries: query_results.iter().map(|t| t.zone).sum(),
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_workload_completes_with_verifiable_metrics() {
        // The acceptance shape: ≥ 64 objects ingested by concurrent producers
        // while ≥ 4 query threads hammer the shared service.
        let config = WorkloadConfig {
            objects: 64,
            shards: 8,
            producers: 4,
            query_threads: 4,
            queries_per_thread: 60,
            trip_length_m: 400.0,
            ..WorkloadConfig::default()
        };
        let report = run_service_workload(&config);
        // Deterministic counts.
        assert_eq!(report.objects, 64);
        assert_eq!(report.updates_applied, report.updates_sent, "no update lost or rejected");
        assert!(report.updates_sent >= 64, "every vehicle sends at least its initial update");
        assert_eq!(report.queries_issued, 4 * 60);
        assert_eq!(
            report.rect_queries + report.nearest_queries + report.zone_queries,
            report.queries_issued
        );
        // Query-observed accuracy: every sample is bounded by the analytic
        // skew bound (up to the protocol's own rare boundary violations).
        assert!(report.accuracy.samples > 0, "accuracy was sampled");
        assert!(
            report.accuracy.within_bound as f64 >= report.accuracy.samples as f64 * 0.95,
            "{}/{} samples within {:.0} m",
            report.accuracy.within_bound,
            report.accuracy.samples,
            report.accuracy.bound_m
        );
        assert!(report.accuracy.mean_m < report.accuracy.bound_m);
    }

    #[test]
    fn workload_report_json_is_well_formed() {
        let config = WorkloadConfig {
            objects: 6,
            shards: 2,
            producers: 2,
            query_threads: 2,
            queries_per_thread: 10,
            trip_length_m: 300.0,
            query_mix: QueryMix::RECT_HEAVY,
            ..WorkloadConfig::default()
        };
        let report = run_service_workload(&config);
        let tree = report.to_json();
        assert_eq!(tree.get("query_mix"), Some(&Json::str("rect4:near1:zone1")));
        assert_eq!(tree.get("rect_queries"), Some(&Json::exact(report.rect_queries as f64)));
        // What the racing query threads saw is not seed-determined: it stays
        // out of the document.
        assert_eq!(tree.get("accuracy"), None);
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn zero_producers_are_rejected() {
        let _ = run_service_workload(&WorkloadConfig { producers: 0, ..WorkloadConfig::default() });
    }
}
