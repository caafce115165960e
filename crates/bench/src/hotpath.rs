//! The hot-path experiment: steady-state ingest / query / predict
//! allocations-per-operation, emitted as JSON (`reproduce hotpath`) and gated
//! against `baselines/BENCH_hotpath.json`.
//!
//! The workload is deliberately periodic: every object's position cycles
//! with period `POSITION_CYCLE` and all objects share one cell footprint,
//! so a warm-up pass through one full cycle touches every grid cell, heap
//! slot and buffer the measured phase will touch. After that warm-up the
//! ingest → predict → query pipeline is **allocation-free by design**:
//!
//! * ingest: `LocationService::apply_frame_bytes` consumes a borrowed
//!   `FrameView` (no `Vec<Update>`), re-anchoring index entries in-place;
//! * queries: `objects_in_rect_into` / `nearest_objects_into` run against
//!   caller-owned [`mbdr_locserver::QueryScratch`] and result buffers;
//! * prediction: `MapPredictor::predict` walks the arc-length-indexed link
//!   geometry and chooses outgoing links without collecting candidates;
//! * journaled ingest: the same schedule with a write-ahead
//!   `mbdr_journal::Journal` attached — `Journal::append_frame` writes the
//!   already-encoded frame bytes behind a stack-built record header, so
//!   durability must cost syscalls, never allocations.
//!
//! The allocations-per-operation numbers are exact integers divided by the
//! operation count, fully determined by the workload — the baseline pins
//! them at `0`, so a single accidental `clone()` on any of these paths fails
//! the `BENCH_hotpath.json` gate (and the `zero_alloc` integration test) with
//! a number, not a hunch. What the same paths cost in time is measured
//! layer by layer in `benchmark/` (`core.*`, `locserver.*`, `journal.*`).

use crate::alloccount;
use crate::recovery::{fleet, ScratchDir};
use mbdr_core::{MapPredictor, ObjectState, Predictor, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_journal::{FsyncPolicy, JournalConfig};
use mbdr_locserver::{recover_and_attach, PositionReport, QueryScratch};
use mbdr_roadnet::{NetworkBuilder, NodeId, RoadClass, RoadNetwork};
use mbdr_sim::Json;
use std::hint::black_box;
use std::sync::Arc;

/// Period of the position pattern: after one full cycle every grid cell the
/// workload will ever occupy has been occupied.
pub(crate) const POSITION_CYCLE: usize = 4;

/// Updates batched per frame (one uplink transmission).
const UPDATES_PER_FRAME: usize = 8;

/// Seconds between consecutive updates of one object.
const UPDATE_INTERVAL_S: f64 = 0.125;

/// One hot-path measurement (see the module docs). Every field is
/// determined by the workload; the `allocs_per_*` fields are the gates.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Tracked objects.
    pub objects: usize,
    /// Service lock stripes.
    pub shards: usize,
    /// Updates per ingest frame.
    pub updates_per_frame: usize,
    /// Measured ingest rounds (one frame per object per round).
    pub ingest_rounds: usize,
    /// Measured rect / nearest queries (each).
    pub queries: usize,
    /// Measured map predictions.
    pub predicts: usize,
    /// Whether the counting allocator is installed in this process — the
    /// `reproduce` binary installs it, so the committed baseline pins `true`
    /// and the zeros below are meaningful.
    pub counting_allocator: bool,
    /// Heap allocations per ingested update in steady state (gate: 0).
    pub allocs_per_update: f64,
    /// Heap allocations per ingested update with a write-ahead journal
    /// attached (gate: 0 — journaling must not add hot-path allocations; the
    /// record header lives on the stack and the segment file is pre-opened).
    pub allocs_per_journaled_update: f64,
    /// Heap allocations per rect query in steady state (gate: 0).
    pub allocs_per_rect_query: f64,
    /// Heap allocations per nearest query in steady state (gate: 0).
    pub allocs_per_nearest_query: f64,
    /// Heap allocations per map prediction in steady state (gate: 0).
    pub allocs_per_predict: f64,
    /// Total rect-query results (seed-deterministic, gated strictly).
    pub rect_hits: u64,
    /// Total nearest-query results (seed-deterministic, gated strictly).
    pub nearest_hits: u64,
}

/// Position of every object at logical update step `step` — shared by all
/// objects so their index footprints coincide (each grid cell always holds
/// every object of its shard, which is what keeps cell vectors alive and
/// re-anchoring allocation-free).
fn position_at(step: usize, base: Point) -> Point {
    let phase = (step % POSITION_CYCLE) as f64;
    Point::new(base.x + phase * 40.0, base.y - phase * 25.0)
}

fn update_at(step: usize, base: Point) -> Update {
    Update {
        sequence: step as u64,
        state: ObjectState::basic(
            position_at(step, base),
            10.0,
            1.0,
            step as f64 * UPDATE_INTERVAL_S,
        ),
        kind: UpdateKind::DeviationBound,
    }
}

/// The y-junction network the prediction measurement walks (an approach
/// link, a slight-left continuation and a sharp-right branch).
fn prediction_network() -> (Arc<RoadNetwork>, ObjectState) {
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(0.0, 0.0));
    let junction = b.add_node(Point::new(500.0, 0.0));
    let c = b.add_node(Point::new(1000.0, 120.0));
    let d = b.add_node(Point::new(520.0, -500.0));
    let approach = b.add_straight_link(a, junction, RoadClass::Arterial);
    b.add_straight_link(junction, c, RoadClass::Arterial);
    b.add_straight_link(junction, d, RoadClass::Residential);
    let network = Arc::new(b.build().expect("y-junction is valid"));
    let state = ObjectState {
        position: Point::new(100.0, 0.0),
        speed: 12.0,
        heading: std::f64::consts::FRAC_PI_2,
        timestamp: 0.0,
        link: Some(approach),
        arc_length: 100.0,
        towards: Some(NodeId(1)),
        turn_rate: 0.0,
    };
    (network, state)
}

/// Runs the hot-path measurement. Deterministic for a given `(scale, seed)`.
pub fn hotpath_report(scale: f64, seed: u64) -> HotpathReport {
    let objects = ((128.0 * scale).round() as usize).max(32);
    let warm_rounds = POSITION_CYCLE;
    let measured_rounds = ((64.0 * scale).round() as usize).max(8);
    let total_rounds = warm_rounds + measured_rounds;
    let queries = ((512.0 * scale).round() as usize).max(64);
    let predicts = ((20_000.0 * scale).round() as usize).max(2_000);
    // The seed shifts the whole pattern in space (same cells relative to one
    // another), so baselines written with different seeds genuinely differ.
    let base = Point::new(4_000.0 + (seed % 64) as f64, 4_000.0 - (seed % 32) as f64);

    let service = fleet(objects);

    // Pre-encode every frame (warm + measured) so the measured loop touches
    // only the ingest path itself.
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(total_rounds * objects);
    for round in 0..total_rounds {
        for object in 0..objects as u64 {
            let mut frame = mbdr_core::Frame::new(object);
            for j in 0..UPDATES_PER_FRAME {
                frame.push(update_at(round * UPDATES_PER_FRAME + j, base));
            }
            frames.push(frame.encode().expect("finite fixture states encode"));
        }
    }

    // --- Ingest: warm one full position cycle, then measure. ---
    let warm_frames = warm_rounds * objects;
    for bytes in &frames[..warm_frames] {
        service.apply_frame_bytes(bytes).expect("warm frame applies");
    }
    let measured_updates = (measured_rounds * objects * UPDATES_PER_FRAME) as u64;
    let allocs_before = alloccount::allocations();
    let mut applied = 0usize;
    for bytes in &frames[warm_frames..] {
        applied += service.apply_frame_bytes(bytes).expect("measured frame applies");
    }
    let ingest_allocs = alloccount::allocations() - allocs_before;
    assert_eq!(applied as u64, measured_updates, "every measured update is fresh");

    // --- Journaled ingest: the same schedule against a second service with a
    // write-ahead journal attached. One huge segment, no snapshots, and an
    // effectively-infinite fsync batch, so the measured loop is exactly
    // "append one pre-framed record + apply" — any allocation it performs is
    // the journal's fault and fails the strict 0 gate. ---
    let journal_dir = ScratchDir::new("hotpath-journal", scale, seed);
    let journaled = fleet(objects);
    let journal_config = JournalConfig {
        dir: journal_dir.path().to_path_buf(),
        segment_max_bytes: u64::MAX,
        fsync: FsyncPolicy::PerBatch(u32::MAX),
        snapshot_every_frames: 0,
    };
    let (journal, _) =
        recover_and_attach(&journaled, journal_config).expect("fresh scratch journal attaches");
    for bytes in &frames[..warm_frames] {
        journaled.apply_frame_bytes(bytes).expect("warm journaled frame applies");
    }
    let allocs_before = alloccount::allocations();
    let mut journaled_applied = 0usize;
    for bytes in &frames[warm_frames..] {
        journaled_applied +=
            journaled.apply_frame_bytes(bytes).expect("measured journaled frame applies");
    }
    let journaled_allocs = alloccount::allocations() - allocs_before;
    assert_eq!(journaled_applied as u64, measured_updates, "journaled run sees the same updates");
    drop(journal);
    drop(journaled);
    drop(journal_dir);

    // --- Queries at the last reported instant (inside every index entry's
    // validity horizon, so no lazy re-grow perturbs the read path). ---
    let t_q = (total_rounds * UPDATES_PER_FRAME - 1) as f64 * UPDATE_INTERVAL_S;
    let rect_for = |i: usize| {
        let phase = (i % POSITION_CYCLE) as f64;
        Aabb::around(Point::new(base.x + phase * 20.0, base.y), 400.0 + phase * 60.0)
    };
    let point_for = |i: usize| {
        let phase = (i % POSITION_CYCLE) as f64;
        Point::new(base.x + phase * 35.0, base.y + 10.0)
    };
    let mut scratch = QueryScratch::default();
    let mut out: Vec<PositionReport> = Vec::new();

    for i in 0..POSITION_CYCLE * 2 {
        service.objects_in_rect_into(&rect_for(i), t_q, &mut scratch, &mut out);
        service.nearest_objects_into(&point_for(i), t_q, 5, &mut scratch, &mut out);
    }
    let allocs_before = alloccount::allocations();
    let mut rect_hits = 0u64;
    for i in 0..queries {
        service.objects_in_rect_into(&rect_for(i), t_q, &mut scratch, &mut out);
        rect_hits += out.len() as u64;
    }
    let rect_allocs = alloccount::allocations() - allocs_before;
    let allocs_before = alloccount::allocations();
    let mut nearest_hits = 0u64;
    for i in 0..queries {
        service.nearest_objects_into(&point_for(i), t_q, 5, &mut scratch, &mut out);
        nearest_hits += out.len() as u64;
    }
    let nearest_allocs = alloccount::allocations() - allocs_before;

    // --- Map prediction over the y-junction (crosses the intersection for
    // the longer horizons, so the link-choice path is exercised). ---
    let (network, state) = prediction_network();
    let predictor = MapPredictor::new(network);
    for i in 0..64 {
        black_box(predictor.predict(&state, (i % 32) as f64 * 2.0));
    }
    let allocs_before = alloccount::allocations();
    let mut checksum = 0.0f64;
    for i in 0..predicts {
        checksum += predictor.predict(&state, (i % 32) as f64 * 2.0).x;
    }
    let predict_allocs = alloccount::allocations() - allocs_before;
    black_box(checksum);

    HotpathReport {
        objects,
        shards: service.shard_count(),
        updates_per_frame: UPDATES_PER_FRAME,
        ingest_rounds: measured_rounds,
        queries,
        predicts,
        counting_allocator: alloccount::counting_allocator_installed(),
        allocs_per_update: ingest_allocs as f64 / measured_updates as f64,
        allocs_per_journaled_update: journaled_allocs as f64 / measured_updates as f64,
        allocs_per_rect_query: rect_allocs as f64 / queries as f64,
        allocs_per_nearest_query: nearest_allocs as f64 / queries as f64,
        allocs_per_predict: predict_allocs as f64 / predicts as f64,
        rect_hits,
        nearest_hits,
    }
}

/// The report as one JSON document (schema `mbdr-hotpath/1`).
pub(crate) fn render_hotpath_json(scale: f64, seed: u64, r: &HotpathReport) -> Json {
    Json::document(
        "mbdr-hotpath/1",
        scale,
        seed,
        [
            ("objects", Json::exact(r.objects as f64)),
            ("shards", Json::exact(r.shards as f64)),
            ("updates_per_frame", Json::exact(r.updates_per_frame as f64)),
            ("ingest_rounds", Json::exact(r.ingest_rounds as f64)),
            ("queries", Json::exact(r.queries as f64)),
            ("predicts", Json::exact(r.predicts as f64)),
            ("counting_allocator", Json::Bool(r.counting_allocator)),
            ("allocs_per_update", Json::exact(r.allocs_per_update)),
            ("allocs_per_journaled_update", Json::exact(r.allocs_per_journaled_update)),
            ("allocs_per_rect_query", Json::exact(r.allocs_per_rect_query)),
            ("allocs_per_nearest_query", Json::exact(r.allocs_per_nearest_query)),
            ("allocs_per_predict", Json::exact(r.allocs_per_predict)),
            ("rect_hits", Json::exact(r.rect_hits as f64)),
            ("nearest_hits", Json::exact(r.nearest_hits as f64)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_and_renders_balanced_json() {
        let report = hotpath_report(0.02, 7);
        assert_eq!(report.objects, 32);
        // Every rect covers the whole (tightly clustered) fleet and nearest
        // always finds its k = 5 — fully determined by the fixture.
        assert_eq!(report.rect_hits, (report.objects * report.queries) as u64);
        assert_eq!(report.nearest_hits, 5 * report.queries as u64);
        // Unit tests run without the counting allocator: the counter never
        // moves, so the ratios must be exactly zero here too.
        if !report.counting_allocator {
            assert_eq!(report.allocs_per_update, 0.0);
            assert_eq!(report.allocs_per_journaled_update, 0.0);
        }
        let tree = render_hotpath_json(0.02, 7, &report);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-hotpath/1")));
        assert_eq!(tree.get("allocs_per_update"), Some(&Json::exact(report.allocs_per_update)));
    }
}
