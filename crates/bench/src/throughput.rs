//! The service-throughput experiment: the concurrent fleet workload of
//! [`mbdr_sim::service_workload`] swept over a grid of
//! (objects × shards × query mix × ingest mode), emitted as JSON
//! (`reproduce throughput`) so every grid point's update and query counts are
//! gated. The sharded service's speed is `benchmark/`'s to measure.

use mbdr_sim::{run_service_workload, Json, QueryMix, WorkloadConfig, WorkloadReport};

/// The workload grid at the given scale — every combination of fleet size,
/// shard count, query mix and ingest mode (per-update vs per-round
/// `apply_batch`), so both ingest paths run under every lock-striping and
/// query-mix shape. `scale` shrinks fleet size, trip length and query counts
/// together, so `--scale 0.02` is a seconds-long smoke run while
/// `--scale 1.0` is the full grid.
pub fn throughput_grid(scale: f64, seed: u64) -> Vec<WorkloadReport> {
    let objects_axis = [64usize, 192];
    let shards_axis = [1usize, 16];
    let mix_axis = [QueryMix::RECT_HEAVY, QueryMix::NEAREST_HEAVY];
    let ingest_axis = [false, true];
    let mut reports = Vec::new();
    for &objects_base in &objects_axis {
        for &shards in &shards_axis {
            for &query_mix in &mix_axis {
                for &batched_ingest in &ingest_axis {
                    let config = WorkloadConfig {
                        objects: ((objects_base as f64 * scale).round() as usize).max(8),
                        shards,
                        producers: 4,
                        query_threads: 4,
                        queries_per_thread: ((600.0 * scale) as usize).max(40),
                        query_mix,
                        trip_length_m: (3_000.0 * scale).max(400.0),
                        requested_accuracy: 100.0,
                        protocol: mbdr_sim::ProtocolKind::MapBased,
                        batched_ingest,
                        seed,
                    };
                    reports.push(run_service_workload(&config));
                }
            }
        }
    }
    reports
}

/// The grid as one JSON document (schema `mbdr-throughput/1`).
pub fn render_throughput_json(scale: f64, seed: u64, reports: &[WorkloadReport]) -> Json {
    let points = Json::array(reports.iter().map(WorkloadReport::to_json));
    Json::document("mbdr-throughput/1", scale, seed, [("points", points)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_produces_json_with_throughput_fields() {
        // Tiny smoke scale: the same path CI exercises.
        let reports = throughput_grid(0.02, 7);
        assert_eq!(reports.len(), 16, "2 fleet sizes x 2 shard counts x 2 mixes x 2 ingest modes");
        assert_eq!(reports.iter().filter(|r| r.batched_ingest).count(), 8);
        for r in &reports {
            assert_eq!(r.updates_applied, r.updates_sent);
            assert_eq!(r.rect_queries + r.nearest_queries + r.zone_queries, r.queries_issued);
        }
        let tree = render_throughput_json(0.02, 7, &reports);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-throughput/1")));
        let Some(Json::Arr(points)) = tree.get("points") else { panic!("points array") };
        assert_eq!(points.len(), reports.len());
    }
}
