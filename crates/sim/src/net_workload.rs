//! The TCP serving-layer workload: the fleet's update streams and the
//! motivating queries driven over real loopback sockets.
//!
//! [`crate::service_workload`] drives the sharded store with in-process
//! calls; this module drives the same store behind `mbdr_net`'s serving
//! layer — every update crosses a socket as an encoded frame and every query
//! is a request–response round trip through codec, framing and kernel.
//!
//! ## Phases
//!
//! 1. **Ingest**: `producer_connections` threads each open one
//!    [`NetClient`], stream their share of the fleet's protocol-generated
//!    updates as frames of up to `frame_batch` updates (timestamp order per
//!    object, so every update is accepted), and end with a
//!    [`NetClient::flush`] barrier.
//! 2. **Query**: `query_connections` threads each open their own connection,
//!    subscribe two zones, and issue a seeded mix of rect / nearest / zone
//!    polls at the fixed query time `t = virtual_duration`.
//!
//! Because the query phase starts only after every producer flushed and
//! always queries the same instant, the *result counts* (objects returned,
//! zone events) are deterministic for a given seed — which is what lets
//! the `BENCH_net.json` gate hold them. The time each layer costs is measured
//! by `benchmark/`'s `tcp_fleet` workload, not here.

use crate::protocols::ProtocolKind;
use crate::report::Json;
use crate::service_workload::build_scripts;
use mbdr_core::Frame;
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ServiceConfig};
use mbdr_net::{NetClient, NetServer, ServerConfig, ServerStatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a serving-layer workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetWorkloadConfig {
    /// Fleet size.
    pub objects: usize,
    /// Producer connections streaming frames.
    pub producer_connections: usize,
    /// Query connections issuing the rect / nearest / zone mix.
    pub query_connections: usize,
    /// Queries each query connection issues (exact, for deterministic
    /// counts).
    pub queries_per_connection: usize,
    /// Updates batched per frame.
    pub frame_batch: usize,
    /// Shard count of the served location store.
    pub shards: usize,
    /// Ingest worker threads of the server.
    pub ingest_workers: usize,
    /// Trip length per vehicle, metres.
    pub trip_length_m: f64,
    /// Requested accuracy `u_s`, metres.
    pub requested_accuracy: f64,
    /// Update protocol every vehicle runs.
    pub protocol: ProtocolKind,
    /// Random seed.
    pub seed: u64,
}

impl Default for NetWorkloadConfig {
    fn default() -> Self {
        NetWorkloadConfig {
            objects: 48,
            producer_connections: 4,
            query_connections: 4,
            queries_per_connection: 200,
            frame_batch: 8,
            shards: 16,
            ingest_workers: 2,
            trip_length_m: 1_500.0,
            requested_accuracy: 100.0,
            protocol: ProtocolKind::MapBased,
            seed: 0x7CB_BEEF,
        }
    }
}

/// Outcome of a serving-layer workload run.
#[derive(Debug, Clone)]
pub struct NetWorkloadReport {
    /// Fleet size.
    pub objects: usize,
    /// Producer connection count.
    pub producer_connections: usize,
    /// Query connection count.
    pub query_connections: usize,
    /// Updates batched per frame.
    pub frame_batch: usize,
    /// Virtual (simulated) duration of the replayed traffic, seconds.
    pub virtual_duration_s: f64,
    /// Updates the protocols generated.
    pub updates_sent: u64,
    /// Frames the producers put on the wire.
    pub frames_sent: u64,
    /// Updates the server applied (equals `updates_sent` — asserted by the
    /// tests: TCP is reliable and per-object streams are in order).
    pub updates_applied: u64,
    /// Queries issued (exactly `query_connections · queries_per_connection`).
    pub queries_issued: u64,
    /// Rect queries issued.
    pub rect_queries: u64,
    /// Nearest queries issued.
    pub nearest_queries: u64,
    /// Zone polls issued.
    pub zone_polls: u64,
    /// Objects returned by rect queries.
    pub rect_results: u64,
    /// Objects returned by nearest queries.
    pub nearest_results: u64,
    /// Zone enter/leave events received.
    pub zone_events: u64,
    /// Bytes the clients put on the wire (length prefixes included).
    pub client_bytes_sent: u64,
    /// The server's final counters.
    pub server: ServerStatsSnapshot,
}

impl NetWorkloadReport {
    /// The report as one JSON object, consumed by `reproduce net`. The query
    /// phase runs after every producer flushed and always queries the same
    /// instant, so the result counts are exact here (unlike the thread-skewed
    /// in-process workload, whose document leaves them out).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("objects", Json::exact(self.objects as f64)),
            ("producer_connections", Json::exact(self.producer_connections as f64)),
            ("query_connections", Json::exact(self.query_connections as f64)),
            ("frame_batch", Json::exact(self.frame_batch as f64)),
            ("virtual_duration_s", Json::exact(self.virtual_duration_s).fixed(1)),
            ("updates_sent", Json::exact(self.updates_sent as f64)),
            ("frames_sent", Json::exact(self.frames_sent as f64)),
            ("updates_applied", Json::exact(self.updates_applied as f64)),
            ("queries_issued", Json::exact(self.queries_issued as f64)),
            ("rect_queries", Json::exact(self.rect_queries as f64)),
            ("nearest_queries", Json::exact(self.nearest_queries as f64)),
            ("zone_polls", Json::exact(self.zone_polls as f64)),
            ("rect_results", Json::exact(self.rect_results as f64)),
            ("nearest_results", Json::exact(self.nearest_results as f64)),
            ("zone_events", Json::exact(self.zone_events as f64)),
            ("client_bytes_sent", Json::exact(self.client_bytes_sent as f64)),
            ("server", server_counters(&self.server, &[])),
        ])
    }
}

/// The `server` object of the TCP documents: every [`ServerStatsSnapshot`]
/// counter not named in `omit`, by iterating its field list. The
/// readiness-loop diagnostics (how often a reactor woke, found nothing to
/// do, or pushed back on ingest) depend on kernel scheduling and batching,
/// never on the seed, so they are always left out; `benchmark/`'s
/// `tcp_fleet` reports them as `net.server.*` metrics.
pub(crate) fn server_counters(stats: &ServerStatsSnapshot, omit: &[&str]) -> Json {
    const KERNEL_SCHEDULED: [&str; 3] =
        ["backpressure_stalls", "readiness_wakeups", "spurious_wakeups"];
    Json::object(
        stats
            .fields()
            .filter(|(name, _)| !KERNEL_SCHEDULED.contains(name) && !omit.contains(name))
            .map(|(name, count)| (name, Json::exact(count as f64))),
    )
}

/// Per-query-connection tallies.
#[derive(Default, Clone)]
struct QueryTally {
    rect: u64,
    nearest: u64,
    zone: u64,
    rect_results: u64,
    nearest_results: u64,
    zone_events: u64,
    bytes_sent: u64,
}

/// Bounded wait for one of a *running* server's counters to reach
/// `expected`. The reactor accounts asynchronously to its clients — a peer
/// FIN is processed after the client dropped, `bytes_sent` is bumped after
/// `write()` returned and the client may already hold the answer — so a
/// snapshot taken right after the last client action could miss it, and the
/// baselines gate these counters strictly.
pub(crate) fn await_counter(
    server: &mbdr_net::NetServer,
    counter: fn(&ServerStatsSnapshot) -> u64,
    expected: u64,
) {
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while counter(&server.stats()) < expected && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Runs the whole serving-layer workload over loopback.
pub fn run_net_workload(config: &NetWorkloadConfig) -> NetWorkloadReport {
    assert!(config.objects > 0, "workload needs at least one object");
    assert!(config.producer_connections > 0, "workload needs at least one producer connection");
    assert!(config.query_connections > 0, "workload needs at least one query connection");
    assert!(config.frame_batch > 0, "frames must carry at least one update");
    let (base, scripts) = build_scripts(
        config.objects,
        config.trip_length_m,
        config.requested_accuracy,
        config.protocol,
        config.seed,
    );
    let service = Arc::new(LocationService::with_config(ServiceConfig {
        shards: config.shards,
        slack_m: config.requested_accuracy,
        ..ServiceConfig::default()
    }));
    for script in &scripts {
        service.register(script.id, Arc::clone(&script.predictor));
    }
    let updates_sent: u64 = scripts.iter().map(|s| s.updates.len() as u64).sum();
    let virtual_duration = scripts.iter().map(|s| s.trace.duration()).fold(0.0, f64::max).max(1.0);
    let map_bounds =
        base.network.bounding_box().unwrap_or_else(|| Aabb::around(Point::ORIGIN, 1_000.0));

    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig { ingest_workers: config.ingest_workers, ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Phase 1: concurrent producer connections, round-robin fleet partition.
    let mut ingest_results: Vec<(u64, u64, u64)> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..config.producer_connections {
            let scripts = &scripts;
            handles.push(scope.spawn(move |_| {
                let mut client = NetClient::connect(addr).expect("producer connects");
                let mut frames = 0u64;
                for script in scripts.iter().skip(p).step_by(config.producer_connections) {
                    for chunk in script.updates.chunks(config.frame_batch) {
                        let frame = Frame { source: script.id.0, updates: chunk.to_vec() };
                        client.send_frame(&frame).expect("producer sends");
                        frames += 1;
                    }
                }
                let flush = client.flush().expect("flush barrier");
                assert_eq!(flush.frames, frames, "server saw every frame");
                (frames, flush.updates_applied, client.bytes_sent())
            }));
        }
        for handle in handles {
            ingest_results.push(handle.join().expect("producer connection panicked"));
        }
    })
    .expect("producer scope panicked");

    let frames_sent: u64 = ingest_results.iter().map(|r| r.0).sum();
    let updates_applied: u64 = ingest_results.iter().map(|r| r.1).sum();

    // Phase 2: concurrent query connections at the fixed post-ingest instant.
    let t_q = virtual_duration;
    let mut query_results: Vec<QueryTally> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for q in 0..config.query_connections {
            handles.push(scope.spawn(move |_| {
                let mut client = NetClient::connect(addr).expect("query connection connects");
                let mut rng = StdRng::seed_from_u64(
                    config.seed ^ (q as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
                );
                let center = map_bounds.center();
                client
                    .subscribe_zone(0, &Aabb::new(map_bounds.min, center))
                    .expect("subscribe sw zone");
                client
                    .subscribe_zone(1, &Aabb::new(center, map_bounds.max))
                    .expect("subscribe ne zone");
                let span_x = map_bounds.max.x - map_bounds.min.x;
                let span_y = map_bounds.max.y - map_bounds.min.y;
                let mut tally = QueryTally::default();
                // One reusable record buffer per connection: the rect and
                // nearest answers decode into it without allocating per
                // response (the server side reuses its buffers too).
                let mut records = Vec::new();
                for _ in 0..config.queries_per_connection {
                    let p = Point::new(
                        map_bounds.min.x + rng.gen_range(0.0..1.0) * span_x,
                        map_bounds.min.y + rng.gen_range(0.0..1.0) * span_y,
                    );
                    match rng.gen_range(0u32..3) {
                        0 => {
                            let area = Aabb::around(p, rng.gen_range(100.0..1_200.0));
                            tally.rect += 1;
                            client
                                .objects_in_rect_into(&area, t_q, &mut records)
                                .expect("rect query");
                            tally.rect_results += records.len() as u64;
                        }
                        1 => {
                            let k = rng.gen_range(1u16..8);
                            tally.nearest += 1;
                            client
                                .nearest_objects_into(&p, t_q, k, &mut records)
                                .expect("nearest query");
                            tally.nearest_results += records.len() as u64;
                        }
                        _ => {
                            tally.zone += 1;
                            tally.zone_events +=
                                client.poll_zones(t_q).expect("zone poll").len() as u64;
                        }
                    }
                }
                tally.bytes_sent = client.bytes_sent();
                tally
            }));
        }
        for handle in handles {
            query_results.push(handle.join().expect("query connection panicked"));
        }
    })
    .expect("query scope panicked");

    let queries_issued = (config.query_connections * config.queries_per_connection) as u64;
    let client_bytes_sent = ingest_results.iter().map(|r| r.2).sum::<u64>()
        + query_results.iter().map(|t| t.bytes_sent).sum::<u64>();

    let clients = (config.producer_connections + config.query_connections) as u64;
    await_counter(&server, |s| s.connections_closed, clients);
    let server_stats = server.shutdown();
    NetWorkloadReport {
        objects: config.objects,
        producer_connections: config.producer_connections,
        query_connections: config.query_connections,
        frame_batch: config.frame_batch,
        virtual_duration_s: virtual_duration,
        updates_sent,
        frames_sent,
        updates_applied,
        queries_issued,
        rect_queries: query_results.iter().map(|t| t.rect).sum(),
        nearest_queries: query_results.iter().map(|t| t.nearest).sum(),
        zone_polls: query_results.iter().map(|t| t.zone).sum(),
        rect_results: query_results.iter().map(|t| t.rect_results).sum(),
        nearest_results: query_results.iter().map(|t| t.nearest_results).sum(),
        zone_events: query_results.iter().map(|t| t.zone_events).sum(),
        client_bytes_sent,
        server: server_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> NetWorkloadConfig {
        NetWorkloadConfig {
            objects: 12,
            producer_connections: 3,
            query_connections: 2,
            queries_per_connection: 30,
            trip_length_m: 400.0,
            ..NetWorkloadConfig::default()
        }
    }

    #[test]
    fn net_workload_completes_with_exact_counts() {
        let report = run_net_workload(&small_config());
        assert_eq!(report.objects, 12);
        assert_eq!(report.updates_applied, report.updates_sent, "no update lost on TCP");
        assert_eq!(report.server.frames_received, report.frames_sent);
        assert_eq!(report.server.updates_applied, report.updates_applied);
        assert_eq!(report.queries_issued, 2 * 30);
        assert_eq!(
            report.rect_queries + report.nearest_queries + report.zone_polls,
            report.queries_issued
        );
        assert_eq!(report.server.connections_accepted, 3 + 2);
        assert_eq!(report.server.connections_dropped, 0);
        assert_eq!(report.server.frame_decode_errors, 0);
        assert_eq!(report.server.request_decode_errors, 0);
    }

    #[test]
    fn query_results_are_deterministic_across_runs() {
        // The `BENCH_net.json` gate's contract: with the query phase pinned
        // to one post-flush instant, every count must reproduce exactly.
        let (a, b) = (run_net_workload(&small_config()), run_net_workload(&small_config()));
        assert_eq!(a.updates_sent, b.updates_sent);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.rect_results, b.rect_results);
        assert_eq!(a.nearest_results, b.nearest_results);
        assert_eq!(a.zone_events, b.zone_events);
        assert_eq!(a.client_bytes_sent, b.client_bytes_sent);
        assert_eq!(a.server.bytes_received, b.server.bytes_received);
        assert_eq!(a.server.bytes_sent, b.server.bytes_sent);
    }

    #[test]
    fn net_workload_json_is_well_formed() {
        let report = run_net_workload(&small_config());
        let tree = report.to_json();
        assert_eq!(tree.get("rect_results"), Some(&Json::exact(report.rect_results as f64)));
        // The server object is the counter block's own field list minus the
        // three scheduling diagnostics: nothing else can be declared in
        // `ServerStats` and left out of the document.
        let Some(server @ Json::Obj(fields)) = tree.get("server") else { panic!("server object") };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        let scheduled = ["backpressure_stalls", "readiness_wakeups", "spurious_wakeups"];
        let counters = report.server.fields().map(|(name, _)| name);
        assert_eq!(names, counters.filter(|name| !scheduled.contains(name)).collect::<Vec<_>>());
        let applied = report.updates_applied as f64;
        assert_eq!(server.get("updates_applied"), Some(&Json::exact(applied)));
    }

    #[test]
    #[should_panic(expected = "at least one producer connection")]
    fn zero_producer_connections_are_rejected() {
        let _ = run_net_workload(&NetWorkloadConfig {
            producer_connections: 0,
            ..NetWorkloadConfig::default()
        });
    }
}
