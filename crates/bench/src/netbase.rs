//! The `reproduce net` and `reproduce connscale` baselines: the TCP
//! serving-layer workload of [`mbdr_sim::net_workload`] swept over a small
//! connections grid (schema `mbdr-net/1`), and the high-connection-count
//! workload of [`mbdr_sim::connscale`] swept over an idle-crowd grid
//! (schema `mbdr-connscale/1`).
//!
//! Every number is a count (updates, frames, bytes, query results, thread
//! accounting) and deterministic for a given seed — the query phases run
//! after flush barriers at one fixed instant — so the regression gate
//! compares them all. Round-trip and connect times are `benchmark/`'s
//! `tcp_fleet` metrics.

use mbdr_sim::{
    run_connscale_workload, run_net_workload, ConnScaleConfig, ConnScaleReport, Json,
    NetWorkloadConfig, NetWorkloadReport,
};

/// The (producer, query) connection counts the baseline sweeps: a serial
/// reference point and the concurrent shape the serving layer exists for.
pub(crate) const BASELINE_CONNECTIONS: [(usize, usize); 2] = [(1, 1), (4, 4)];

/// Runs the serving-layer baseline grid at the given scale (`scale` shrinks
/// fleet size, trip length and query counts together, like the throughput
/// baseline).
pub(crate) fn net_grid(scale: f64, seed: u64) -> Vec<NetWorkloadReport> {
    BASELINE_CONNECTIONS
        .iter()
        .map(|&(producers, queriers)| {
            run_net_workload(&NetWorkloadConfig {
                objects: ((48.0 * scale).round() as usize).max(8),
                producer_connections: producers,
                query_connections: queriers,
                queries_per_connection: ((400.0 * scale) as usize).max(30),
                trip_length_m: (3_000.0 * scale).max(400.0),
                seed,
                ..NetWorkloadConfig::default()
            })
        })
        .collect()
}

/// The grid as one JSON document (schema `mbdr-net/1`).
pub(crate) fn render_net_json(scale: f64, seed: u64, reports: &[NetWorkloadReport]) -> Json {
    let points = Json::array(reports.iter().map(NetWorkloadReport::to_json));
    Json::document("mbdr-net/1", scale, seed, [("points", points)])
}

/// The (total, hot) connection counts the connection-scale baseline sweeps:
/// a mid-size point and the multi-thousand shape the reactor exists for.
pub(crate) const BASELINE_CONNSCALE: [(usize, usize); 2] = [(1_024, 32), (4_096, 64)];

/// Runs the connection-scale grid at the given scale (`scale` shrinks the
/// idle crowd and hot subset together; counts never drop below a small
/// floor so the workload stays meaningful at CI smoke scales).
pub(crate) fn connscale_grid(scale: f64, seed: u64) -> Vec<ConnScaleReport> {
    BASELINE_CONNSCALE
        .iter()
        .map(|&(connections, hot)| {
            let connections = ((connections as f64 * scale).round() as usize).max(32);
            run_connscale_workload(&ConnScaleConfig {
                connections,
                hot_connections: ((hot as f64 * scale).round() as usize).max(4).min(connections),
                rect_queries: ((256.0 * scale).round() as usize).max(32),
                seed,
                ..ConnScaleConfig::default()
            })
        })
        .collect()
}

/// The connection-scale grid as one JSON document (schema
/// `mbdr-connscale/1`).
pub(crate) fn render_connscale_json(scale: f64, seed: u64, reports: &[ConnScaleReport]) -> Json {
    let points = Json::array(reports.iter().map(ConnScaleReport::to_json));
    Json::document("mbdr-connscale/1", scale, seed, [("points", points)])
}

/// The file-descriptor budget `connscale` needs at the given scale: two fds
/// per connection (client + server end, both in this process) for the
/// largest grid point, plus slack for the pollers, wakers, listeners and
/// whatever the process already has open.
pub fn connscale_fd_demand(scale: f64) -> u64 {
    let largest = BASELINE_CONNSCALE
        .iter()
        .map(|&(connections, _)| ((connections as f64 * scale).round() as u64).max(32))
        .max()
        .unwrap_or(32);
    2 * largest + 256
}

/// The soft `RLIMIT_NOFILE` of this process (Linux: parsed from
/// `/proc/self/limits`; `None` where that file does not exist), so
/// `reproduce connscale` can refuse with a clear message instead of dying
/// mid-run on `EMFILE`.
pub fn open_file_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_produces_json_with_exact_counts() {
        // Tiny smoke scale: the same path CI exercises.
        let reports = net_grid(0.05, 7);
        assert_eq!(reports.len(), BASELINE_CONNECTIONS.len());
        for r in &reports {
            assert_eq!(r.updates_applied, r.updates_sent);
            assert_eq!(r.server.frames_received, r.frames_sent);
            assert_eq!(r.server.connections_dropped, 0);
        }
        let tree = render_net_json(0.05, 7, &reports);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-net/1")));
        let Some(Json::Arr(points)) = tree.get("points") else { panic!("points array") };
        let sent = reports[0].updates_sent as f64;
        assert_eq!(points[0].get("updates_sent"), Some(&Json::exact(sent)));
        assert_eq!(points[1].get("producer_connections"), Some(&Json::exact(4.0)));
    }

    #[test]
    fn net_schema_gates_query_result_counts_strictly() {
        // The mbdr-net/1 emitter queries one post-flush instant, so what the
        // queries returned is as seed-determined as what was sent and is
        // printed as a leaf the regression gate holds. The scheduling
        // diagnostics are not in the document.
        let tree = render_net_json(0.05, 7, &net_grid(0.05, 7));
        let Some(Json::Arr(points)) = tree.get("points") else { panic!("points array") };
        for point in points {
            for key in ["rect_results", "nearest_results", "zone_events"] {
                assert!(matches!(point.get(key), Some(Json::Num(_))), "{key} must be a leaf");
            }
            let bytes_sent = point.get("server").and_then(|server| server.get("bytes_sent"));
            assert!(matches!(bytes_sent, Some(Json::Num(_))), "server.bytes_sent must be a leaf");
        }
        assert!(!tree.to_string().contains("wakeups"));
    }

    #[test]
    fn connscale_smoke_grid_holds_every_connection() {
        // Tiny smoke scale: the same path CI exercises (32+32 connections).
        let reports = connscale_grid(0.02, 7);
        assert_eq!(reports.len(), BASELINE_CONNSCALE.len());
        for r in &reports {
            assert_eq!(r.updates_applied, r.updates_sent);
            assert_eq!(r.server.connections_dropped, 0);
            assert_eq!(r.server.evicted_slow, 0);
            assert_eq!(r.server.register_failures, 0);
            assert_eq!(r.pool_threads, 5, "accept + 2 reactors + 2 ingest workers");
        }
        let tree = render_connscale_json(0.02, 7, &reports);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-connscale/1")));
        let Some(Json::Arr(points)) = tree.get("points") else { panic!("points array") };
        assert!(points[0].get("resident_threads").is_some());
    }

    #[test]
    fn fd_demand_scales_with_the_largest_grid_point() {
        assert_eq!(connscale_fd_demand(1.0), 2 * 4_096 + 256);
        assert!(connscale_fd_demand(0.02) < 1_000);
    }

    #[test]
    fn soft_fd_limit_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            let limit = open_file_soft_limit().expect("parse /proc/self/limits");
            assert!(limit >= 64, "soft limit {limit} suspiciously small");
        }
    }
}
