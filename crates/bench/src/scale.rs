//! The large-N baseline behind `reproduce scale`: the
//! [`mbdr_sim::scale_workload`] grid over N × {uniform, hotspot}, emitted as
//! JSON and gated against `baselines/BENCH_scale.json`.
//!
//! The committed baseline runs N up to 10⁵ at `--scale 1.0`, the largest
//! fleet any gate or benchmark workload uses. Result counts, occupancy
//! diagnostics, the candidate-dedup counters and the heap high-water mark
//! per object are single-threaded and seed-determined, so the gate compares
//! them all.

use crate::alloccount::{counting_allocator_installed, peak_bytes, reset_peak};
use mbdr_sim::{run_scale_workload, Json, ScaleConfig, ScaleReport};

/// One point of the grid: the workload's report and what it cost the heap.
#[derive(Debug)]
pub(crate) struct ScalePoint {
    /// The workload's counts.
    pub report: ScaleReport,
    /// The most heap bytes the run held at once beyond those live when it
    /// started — the service with every object tracked and indexed, plus
    /// the workload's own fleet — divided by the object
    /// count. Requested sizes, not the system allocator's chunks. `None`
    /// unless the process installed the counting allocator
    /// ([`crate::alloccount`]).
    pub peak_heap_bytes_per_object: Option<f64>,
}

/// The N axis of the committed baseline (scaled by `--scale`, floored so a
/// smoke run still exercises a multi-cell, multi-shard fleet).
pub(crate) const SCALE_N_AXIS: [usize; 2] = [10_000, 100_000];

/// Runs the baseline grid: every N in [`SCALE_N_AXIS`] (multiplied by
/// `scale`) in uniform and hotspot mode.
pub(crate) fn scale_grid(scale: f64, seed: u64) -> Vec<ScalePoint> {
    let counting = counting_allocator_installed();
    let mut points = Vec::new();
    for &n in &SCALE_N_AXIS {
        let objects = ((n as f64 * scale).round() as usize).max(500);
        for hotspot in [false, true] {
            let config = ScaleConfig::standard(objects, hotspot, seed);
            let live = reset_peak();
            let report = run_scale_workload(&config);
            let peak = peak_bytes() - live;
            points.push(ScalePoint {
                report,
                peak_heap_bytes_per_object: counting.then(|| peak as f64 / objects as f64),
            });
        }
    }
    points
}

/// The grid as one JSON document (schema `mbdr-scale/1`).
pub(crate) fn render_scale_json(scale: f64, seed: u64, points: &[ScalePoint]) -> Json {
    let point = |p: &ScalePoint| {
        // Exhaustive, no `..`: a report field without a key is a compile
        // error.
        let ScaleReport {
            objects,
            hotspot,
            updates_applied,
            rect_queries,
            nearest_queries,
            rect_hits,
            nearest_hits,
            indexed,
            occupied_cells,
            max_cell_occupancy,
            candidates_inspected,
            candidates_unique,
            nearest_rings,
        } = p.report;
        let peak_heap = p.peak_heap_bytes_per_object.map_or(Json::Null, Json::exact);
        Json::object([
            ("objects", Json::exact(objects as f64)),
            ("hotspot", Json::Bool(hotspot)),
            ("updates_applied", Json::exact(updates_applied as f64)),
            ("rect_queries", Json::exact(rect_queries as f64)),
            ("nearest_queries", Json::exact(nearest_queries as f64)),
            ("rect_hits", Json::exact(rect_hits as f64)),
            ("nearest_hits", Json::exact(nearest_hits as f64)),
            ("indexed", Json::exact(indexed as f64)),
            ("occupied_cells", Json::exact(occupied_cells as f64)),
            ("max_cell_occupancy", Json::exact(max_cell_occupancy as f64)),
            ("peak_heap_bytes_per_object", peak_heap),
            ("candidates_inspected", Json::exact(candidates_inspected as f64)),
            ("candidates_unique", Json::exact(candidates_unique as f64)),
            ("nearest_rings", Json::exact(nearest_rings as f64)),
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
        assert!(points.iter().all(|p| p.report.indexed == p.report.objects));
        assert!(
            points.iter().all(|p| p.peak_heap_bytes_per_object.is_none()),
            "unit tests run without the counting allocator"
        );
        let tree = render_scale_json(0.01, 7, &points);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-scale/1")));
    }
}
