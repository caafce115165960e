//! The service-throughput experiment: the concurrent fleet workload of
//! [`mbdr_sim::service_workload`] swept over a grid of
//! (objects × shards × query mix), emitted as JSON
//! (`reproduce throughput`) so every grid point's update and query counts are
//! gated. The sharded service's speed is `benchmark/`'s to measure.

use mbdr_sim::{run_service_workload, Json, QueryMix, WorkloadConfig, WorkloadReport};

/// The workload grid at the given scale — every combination of fleet size,
/// shard count and query mix. `scale` shrinks fleet size, trip length and
/// query counts together, so `--scale 0.02` is a seconds-long smoke run
/// while `--scale 1.0` is the full grid. A fleet never shrinks below an
/// eighth of its full size, so the two sizes stay distinct at every scale
/// (8 and 24 objects at the smallest) and the fleet-size axis is gated.
pub(crate) fn throughput_grid(scale: f64, seed: u64) -> Vec<WorkloadReport> {
    let objects_axis = [64usize, 192];
    let shards_axis = [1usize, 16];
    let mix_axis = [QueryMix::RECT_HEAVY, QueryMix::NEAREST_HEAVY];
    let mut reports = Vec::new();
    for &objects_base in &objects_axis {
        for &shards in &shards_axis {
            for &query_mix in &mix_axis {
                let config = WorkloadConfig {
                    objects: ((objects_base as f64 * scale).round() as usize).max(objects_base / 8),
                    shards,
                    producers: 4,
                    query_threads: 4,
                    queries_per_thread: ((600.0 * scale) as usize).max(40),
                    query_mix,
                    trip_length_m: (3_000.0 * scale).max(400.0),
                    requested_accuracy: 100.0,
                    protocol: mbdr_sim::ProtocolKind::MapBased,
                    seed,
                };
                reports.push(run_service_workload(&config));
            }
        }
    }
    reports
}

/// The grid as one JSON document (schema `mbdr-throughput/1`).
pub(crate) fn render_throughput_json(scale: f64, seed: u64, reports: &[WorkloadReport]) -> Json {
    let points = Json::array(reports.iter().map(WorkloadReport::to_json));
    Json::document("mbdr-throughput/1", scale, seed, [("points", points)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_produces_json_with_throughput_fields() {
        // At the CI scale both fleet sizes sit on their floors, 8 and 24
        // objects, so every grid point is still a distinct shape.
        let reports = throughput_grid(0.02, 7);
        let points: std::collections::BTreeSet<_> =
            reports.iter().map(|r| (r.objects, r.shards, r.query_mix.as_str())).collect();
        assert_eq!(points.len(), 8, "2 fleet sizes x 2 shard counts x 2 mixes, all distinct");
        assert_eq!(reports.len(), 8);
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
