//! The million-object-scale baseline behind `reproduce scale`: the
//! [`mbdr_sim::scale_workload`] grid over N × {uniform, hotspot}, emitted as
//! JSON and gated against `baselines/BENCH_scale.json`.
//!
//! The committed baseline runs N up to 10⁵ at `--scale 1.0`, the largest
//! fleet any gate or benchmark workload uses. Result counts, occupancy
//! diagnostics and the candidate-dedup counters are single-threaded and
//! seed-determined, so the gate compares them strictly; wall clocks and
//! throughputs ride along as machine-dependent sanity checks.

use mbdr_sim::{run_scale_workload, Json, ScaleConfig, ScaleReport};

/// The N axis of the committed baseline (scaled by `--scale`, floored so a
/// smoke run still exercises a multi-cell, multi-shard fleet).
pub const SCALE_N_AXIS: [usize; 2] = [10_000, 100_000];

/// Runs the baseline grid: every N in [`SCALE_N_AXIS`] (multiplied by
/// `scale`) in uniform and hotspot mode.
pub fn scale_grid(scale: f64, seed: u64) -> Vec<ScaleReport> {
    let mut points = Vec::new();
    for &n in &SCALE_N_AXIS {
        let objects = ((n as f64 * scale).round() as usize).max(500);
        for hotspot in [false, true] {
            points.push(run_scale_workload(&ScaleConfig::standard(objects, hotspot, seed)));
        }
    }
    points
}

/// The grid as one JSON document (schema `mbdr-scale/1`). The workload is
/// single-threaded: everything but the wall clocks and rates is exact.
pub fn render_scale_json(scale: f64, seed: u64, points: &[ScaleReport]) -> Json {
    let point = |p: &ScaleReport| {
        Json::object([
            ("objects", Json::exact(p.objects as f64)),
            ("hotspot", Json::Bool(p.hotspot)),
            ("updates_applied", Json::exact(p.updates_applied as f64)),
            ("ingest_wall_s", Json::timing(p.ingest_wall_s, 4)),
            ("updates_per_sec", Json::timing(p.updates_per_sec, 1)),
            ("rect_queries", Json::exact(p.rect_queries as f64)),
            ("nearest_queries", Json::exact(p.nearest_queries as f64)),
            ("rect_hits", Json::exact(p.rect_hits as f64)),
            ("nearest_hits", Json::exact(p.nearest_hits as f64)),
            ("rect_wall_s", Json::timing(p.rect_wall_s, 4)),
            ("nearest_wall_s", Json::timing(p.nearest_wall_s, 4)),
            ("rect_per_sec", Json::timing(p.rect_per_sec, 1)),
            ("nearest_per_sec", Json::timing(p.nearest_per_sec, 1)),
            ("indexed", Json::exact(p.indexed as f64)),
            ("occupied_cells", Json::exact(p.occupied_cells as f64)),
            ("max_cell_occupancy", Json::exact(p.max_cell_occupancy as f64)),
            ("candidates_inspected", Json::exact(p.candidates_inspected as f64)),
            ("candidates_unique", Json::exact(p.candidates_unique as f64)),
        ])
    };
    Json::document("mbdr-scale/1", scale, seed, [("points", Json::array(points.iter().map(point)))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_renders_valid_deterministic_json() {
        let points = scale_grid(0.01, 7);
        assert_eq!(points.len(), 4, "two N points x two placement modes");
        assert!(points.iter().all(|p| p.indexed == p.objects));
        let tree = render_scale_json(0.01, 7, &points);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-scale/1")));
        // A second run of the same seed passes the gate against the first
        // run's printed document.
        let committed = crate::check::parse_json(tree.to_string()).expect("scale JSON parses");
        let again = render_scale_json(0.01, 7, &scale_grid(0.01, 7));
        let report = crate::check::compare_baseline(&committed, &again);
        assert!(report.passed(), "{:?}", report.mismatches);
    }
}
