//! The high-connection-count axis of the serving layer: thousands of
//! mostly-idle connections with a small hot subset.
//!
//! [`crate::net_workload`] drives the wire with a handful of busy
//! connections; this workload drives the dimension the reactor refactor
//! exists for — *connection count*. It opens `connections` loopback
//! sockets, leaves all but `hot_connections` of them completely idle, and
//! drives the hot subset through the usual ingest → flush → rect-query
//! cycle. The server must hold every idle connection on its **fixed**
//! thread pool (asserted via [`ConnScaleReport::pool_threads`] against the
//! observed [`ConnScaleReport::resident_threads`]) while the hot subset's
//! counts stay exact: an idle crowd that slowed, dropped or corrupted the
//! hot path would show up in the strictly-gated counters.
//!
//! Determinism contract (what the `BENCH_connscale.json` gate holds):
//! update/frame counts, rect result counts, byte totals and the thread
//! accounting are all fixed by the seed. Connect and round-trip times are
//! `benchmark/`'s `tcp_fleet` metrics.

use crate::net_workload::{await_counter, server_counters};
use crate::report::Json;
use mbdr_core::{Frame, ObjectState, StaticPredictor, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, ServiceConfig};
use mbdr_net::{NetClient, NetServer, ServerConfig, ServerStatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Half-extent of the square world the hot objects live in, metres.
const WORLD_HALF_M: f64 = 5_000.0;

/// Configuration of a connection-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnScaleConfig {
    /// Total concurrent connections (idle crowd + hot subset).
    pub connections: usize,
    /// Connections that actually stream updates (one object each).
    pub hot_connections: usize,
    /// Frames each hot connection sends.
    pub frames_per_hot: usize,
    /// Updates batched per frame.
    pub updates_per_frame: usize,
    /// Rect queries issued after the hot subset flushed.
    pub rect_queries: usize,
    /// Threads opening the idle crowd concurrently.
    pub opener_threads: usize,
    /// Reactor threads of the server under test.
    pub reactor_workers: usize,
    /// Ingest worker threads of the server under test.
    pub ingest_workers: usize,
    /// Shard count of the served location store.
    pub shards: usize,
    /// Random seed (object placement and query rectangles).
    pub seed: u64,
}

impl Default for ConnScaleConfig {
    fn default() -> Self {
        ConnScaleConfig {
            connections: 4096,
            hot_connections: 64,
            frames_per_hot: 32,
            updates_per_frame: 4,
            rect_queries: 256,
            opener_threads: 8,
            reactor_workers: 2,
            ingest_workers: 2,
            shards: 16,
            seed: 0xC0_55CA1E,
        }
    }
}

/// Outcome of a connection-scale run.
#[derive(Debug, Clone)]
pub struct ConnScaleReport {
    /// Total concurrent connections held open.
    pub connections: usize,
    /// Hot (streaming) connections among them.
    pub hot_connections: usize,
    /// Updates the hot subset generated.
    pub updates_sent: u64,
    /// Updates the server applied (must equal `updates_sent`).
    pub updates_applied: u64,
    /// Frames the hot subset sent.
    pub frames_sent: u64,
    /// Rect queries issued (with the idle crowd attached).
    pub rect_queries: u64,
    /// Objects returned by those queries (seed-deterministic).
    pub rect_results: u64,
    /// The server's fixed pool size (accept + reactors + ingest workers).
    pub pool_threads: usize,
    /// OS threads of this process at full connection load (Linux: counted
    /// from `/proc/self/task`; 0 where unsupported). With every connection
    /// multiplexed, this stays at `pool_threads` plus the driver's own
    /// threads instead of growing with `connections`.
    pub resident_threads: usize,
    /// The server's counters at full load (before the crowd disconnects, so
    /// close accounting does not race the snapshot).
    pub server: ServerStatsSnapshot,
}

impl ConnScaleReport {
    /// The report as one JSON object, consumed by `reproduce connscale`.
    /// The close-side server counters are deliberately absent: the snapshot
    /// is taken at full load, where they are zero by construction and would
    /// otherwise race the teardown.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("connections", Json::exact(self.connections as f64)),
            ("hot_connections", Json::exact(self.hot_connections as f64)),
            ("updates_sent", Json::exact(self.updates_sent as f64)),
            ("updates_applied", Json::exact(self.updates_applied as f64)),
            ("frames_sent", Json::exact(self.frames_sent as f64)),
            ("rect_queries", Json::exact(self.rect_queries as f64)),
            ("rect_results", Json::exact(self.rect_results as f64)),
            ("pool_threads", Json::exact(self.pool_threads as f64)),
            ("resident_threads", Json::exact(self.resident_threads as f64)),
            (
                "server",
                server_counters(
                    &self.server,
                    &["connections_closed", "oversized_messages", "zone_events_emitted"],
                ),
            ),
        ])
    }
}

/// OS threads of this process (Linux `/proc/self/task`; 0 elsewhere).
pub fn resident_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|entries| entries.count()).unwrap_or(0)
}

/// The deterministic update script of one hot connection: `frames_per_hot`
/// frames for object `hot` walking a seeded path, sequences and timestamps
/// strictly increasing so every update is accepted.
pub fn hot_frames(config: &ConnScaleConfig, hot: usize) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (hot as u64 + 1).wrapping_mul(0x9E37_79B9));
    let mut x = rng.gen_range(-WORLD_HALF_M..WORLD_HALF_M);
    let mut y = rng.gen_range(-WORLD_HALF_M..WORLD_HALF_M);
    let mut sequence = 0u64;
    let mut frames = Vec::with_capacity(config.frames_per_hot);
    for f in 0..config.frames_per_hot {
        let mut updates = Vec::with_capacity(config.updates_per_frame);
        for u in 0..config.updates_per_frame {
            x = (x + rng.gen_range(-25.0..25.0)).clamp(-WORLD_HALF_M, WORLD_HALF_M);
            y = (y + rng.gen_range(-25.0..25.0)).clamp(-WORLD_HALF_M, WORLD_HALF_M);
            let t = (f * config.updates_per_frame + u) as f64;
            updates.push(Update {
                sequence,
                state: ObjectState::basic(Point::new(x, y), 0.0, 0.0, t),
                kind: UpdateKind::DeviationBound,
            });
            sequence += 1;
        }
        frames.push(Frame { source: hot as u64, updates });
    }
    frames
}

/// The instant the rect queries are pinned to (after the last update).
pub fn query_time(config: &ConnScaleConfig) -> f64 {
    (config.frames_per_hot * config.updates_per_frame) as f64
}

/// The seeded rect-query sequence the workload issues (exposed so tests can
/// replay the identical queries against a directly-driven service).
pub fn query_rects(config: &ConnScaleConfig) -> Vec<Aabb> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xBADC_AB1E);
    (0..config.rect_queries)
        .map(|_| {
            let center = Point::new(
                rng.gen_range(-WORLD_HALF_M..WORLD_HALF_M),
                rng.gen_range(-WORLD_HALF_M..WORLD_HALF_M),
            );
            Aabb::around(center, rng.gen_range(200.0..2_500.0))
        })
        .collect()
}

/// Builds the served store with one registered object per hot connection.
pub fn build_service(config: &ConnScaleConfig) -> Arc<LocationService> {
    let service = Arc::new(LocationService::with_config(ServiceConfig {
        shards: config.shards,
        ..ServiceConfig::default()
    }));
    for hot in 0..config.hot_connections {
        service.register(ObjectId(hot as u64), Arc::new(StaticPredictor));
    }
    service
}

/// Runs the connection-scale workload over loopback.
pub fn run_connscale_workload(config: &ConnScaleConfig) -> ConnScaleReport {
    assert!(config.connections > 0, "workload needs at least one connection");
    assert!(config.hot_connections > 0, "workload needs at least one hot connection");
    assert!(
        config.hot_connections <= config.connections,
        "hot subset cannot exceed the connection count"
    );
    let service = build_service(config);
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            reactor_workers: config.reactor_workers,
            ingest_workers: config.ingest_workers,
            max_connections: config.connections + 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Phase 1: open the whole crowd. The first `hot_connections` clients
    // will stream; the rest sit idle for the entire run.
    let openers = config.opener_threads.max(1).min(config.connections);
    let mut clients: Vec<NetClient> = Vec::with_capacity(config.connections);
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for o in 0..openers {
            let share = (config.connections + openers - 1 - o) / openers;
            handles.push(scope.spawn(move |_| {
                let mut batch = Vec::with_capacity(share);
                for _ in 0..share {
                    batch.push(NetClient::connect(addr).expect("crowd connects"));
                }
                batch
            }));
        }
        for handle in handles {
            clients.extend(handle.join().expect("opener panicked"));
        }
    })
    .expect("opener scope panicked");

    // The whole crowd is connected: this is the moment the fixed-pool claim
    // is about.
    let resident_threads = resident_thread_count();

    // Phase 2: drive the hot subset (flush barrier per connection).
    let mut hot: Vec<NetClient> = clients.drain(..config.hot_connections).collect();
    let drivers = config.hot_connections.clamp(1, 8);
    let per_driver = config.hot_connections.div_ceil(drivers);
    let mut applied_total = 0u64;
    let mut frames_total = 0u64;
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (d, chunk) in hot.chunks_mut(per_driver).enumerate() {
            let base = d * per_driver;
            handles.push(scope.spawn(move |_| {
                let mut applied = 0u64;
                let mut frames = 0u64;
                for (i, client) in chunk.iter_mut().enumerate() {
                    for frame in hot_frames(config, base + i) {
                        client.send_frame(&frame).expect("hot send");
                        frames += 1;
                    }
                    let flush = client.flush().expect("hot flush");
                    assert_eq!(flush.frames, config.frames_per_hot as u64);
                    applied += flush.updates_applied;
                }
                (applied, frames)
            }));
        }
        for handle in handles {
            let (applied, frames) = handle.join().expect("hot driver panicked");
            applied_total += applied;
            frames_total += frames;
        }
    })
    .expect("hot scope panicked");

    // Phase 3: rect queries at the pinned instant, idle crowd still attached.
    let t_q = query_time(config);
    let mut query_client = NetClient::connect(addr).expect("query connects");
    let mut records = Vec::new();
    let mut rect_results = 0u64;
    for area in query_rects(config) {
        query_client.objects_in_rect_into(&area, t_q, &mut records).expect("rect query");
        rect_results += records.len() as u64;
    }

    // Snapshot at full load, then let everything go. The reactor counts a
    // response's bytes after `write()` returns, so a client can hold an
    // answer the counter does not show yet: wait for it to catch up.
    let received = hot.iter().chain([&query_client]).map(NetClient::bytes_received).sum::<u64>();
    await_counter(&server, |s| s.bytes_sent, received);
    let stats = server.stats();
    let updates_sent =
        (config.hot_connections * config.frames_per_hot * config.updates_per_frame) as u64;
    let pool_threads = server.pool_threads();
    drop(query_client);
    drop(hot);
    drop(clients);
    drop(server);

    ConnScaleReport {
        connections: config.connections,
        hot_connections: config.hot_connections,
        updates_sent,
        updates_applied: applied_total,
        frames_sent: frames_total,
        rect_queries: config.rect_queries as u64,
        rect_results,
        pool_threads,
        resident_threads,
        server: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ConnScaleConfig {
        ConnScaleConfig {
            connections: 96,
            hot_connections: 8,
            frames_per_hot: 6,
            updates_per_frame: 3,
            rect_queries: 32,
            opener_threads: 4,
            ..ConnScaleConfig::default()
        }
    }

    #[test]
    fn connscale_holds_the_crowd_and_keeps_hot_counts_exact() {
        let config = small_config();
        let report = run_connscale_workload(&config);
        assert_eq!(report.connections, 96);
        assert_eq!(report.updates_sent, 8 * 6 * 3);
        assert_eq!(report.updates_applied, report.updates_sent, "no update lost");
        assert_eq!(report.frames_sent, 8 * 6);
        assert_eq!(report.server.frames_received, report.frames_sent);
        assert_eq!(report.server.connections_accepted, 96 + 1, "crowd + query connection");
        assert_eq!(report.server.connections_dropped, 0);
        assert_eq!(report.server.register_failures, 0);
        assert_eq!(report.server.evicted_slow, 0);
        assert_eq!(report.rect_queries, 32);
        assert_eq!(report.pool_threads, 1 + 2 + 2);
    }

    #[test]
    fn connscale_results_are_deterministic_and_json_is_well_formed() {
        let config = small_config();
        let (a, b) = (run_connscale_workload(&config), run_connscale_workload(&config));
        assert_eq!(a.rect_results, b.rect_results);
        assert_eq!(a.server.bytes_received, b.server.bytes_received);
        assert_eq!(a.server.bytes_sent, b.server.bytes_sent);
        let tree = a.to_json();
        assert_eq!(tree.get("pool_threads"), Some(&Json::exact(5.0)));
        let server = tree.get("server").expect("server object");
        assert!(server.get("connections_accepted").is_some());
        assert!(server.get("connections_closed").is_none(), "close counters race the teardown");
    }

    #[test]
    #[should_panic(expected = "hot subset cannot exceed")]
    fn oversized_hot_subset_is_rejected() {
        let _ = run_connscale_workload(&ConnScaleConfig {
            connections: 4,
            hot_connections: 8,
            ..small_config()
        });
    }
}
