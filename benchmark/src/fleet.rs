//! What the three server workloads share: building a registered service,
//! timing queries one by one, the full-scan reference, and the shadow layer
//! slices (codec → tracker → index) fed the same bytes as the service.

use crate::gen::{self, FrameBatch, Motion, Query, SplitMix64, CELL_M, SHARDS};
use crate::report::PhaseReport;
use crate::stats;
use crate::trace::Tracer;
use mbdr_core::{FrameView, LinearPredictor, Predictor, ServerTracker, Update};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, PositionReport, QueryScratch, ServiceConfig};
use mbdr_spatial::{MovingIndex, SeenScratch};
use std::sync::Arc;
use std::time::Instant;

/// Frames per batch span in the shadow passes.
pub const BATCH: usize = 256;
/// Every n-th timed query is also answered by the reference.
pub const CHECK_EVERY: usize = 50;

/// A service with `ScaleConfig::standard`'s geometry and `objects`
/// registered linear-prediction objects, nothing reported yet.
pub fn registered_service(objects: usize) -> LocationService {
    let service = LocationService::with_config(ServiceConfig {
        shards: SHARDS,
        cell_size_m: CELL_M,
        ..ServiceConfig::default()
    });
    let predictor: Arc<dyn Predictor> = Arc::new(LinearPredictor);
    for id in 0..objects as u64 {
        service.register(ObjectId(id), Arc::clone(&predictor));
    }
    service
}

/// Applies every frame of `batch`; returns `(updates applied, decode errors)`.
pub fn apply_batch(service: &LocationService, batch: &FrameBatch) -> (u64, u64) {
    let (mut applied, mut errors) = (0, 0);
    for frame in batch.iter() {
        match service.apply_frame_bytes(frame) {
            Ok(n) => applied += n as u64,
            Err(_) => errors += 1,
        }
    }
    (applied, errors)
}

/// Frames per clock reading in a timed ingest loop: about 4 ms of work, so
/// a run has hundreds of samples and the median leaves out the ones a busy
/// neighbour (or a snapshot) stretched.
pub const TIMED_FRAMES: usize = 1_000;

/// Applies frames `range` of `batch` with one span per call (an operation
/// that is a single public call is its own root span); the spans vanish
/// while the tracer is not recording, so timed loops call this one either
/// way. Returns `(updates applied, decode errors)`.
pub fn apply_range_traced(
    service: &LocationService,
    batch: &FrameBatch,
    range: std::ops::Range<usize>,
    tracer: &mut Tracer,
    span: &'static str,
) -> (u64, u64) {
    let (mut applied, mut errors) = (0, 0);
    for i in range {
        let s = tracer.begin(span);
        let result = service.apply_frame_bytes(batch.get(i));
        tracer.end(s, 1);
        match result {
            Ok(n) => applied += n as u64,
            Err(_) => errors += 1,
        }
    }
    (applied, errors)
}

/// Latency samples of one query mix, µs.
#[derive(Debug, Default)]
pub struct QueryTimes {
    pub rect_us: Vec<f64>,
    pub nearest_us: Vec<f64>,
    /// [`Query::class`] of each sample above.
    pub rect_class: Vec<u8>,
    pub nearest_class: Vec<u8>,
    pub rect_hits: u64,
    pub nearest_hits: u64,
}

impl QueryTimes {
    /// Writes the four latency metrics; a percentile with too few samples
    /// beyond it is left unset (and the run then fails as incomplete). The
    /// p99s are per-layer metrics: on the shared sandbox a tail measures the
    /// neighbours (spread 0.2–0.4 over ten runs), so no bound can hold it.
    pub fn report(&self, report: &mut PhaseReport) {
        for (p50, p99, samples, classes) in [
            ("rect_p50_us", "locserver.objects_in_rect_p99_us", &self.rect_us, &self.rect_class),
            (
                "nearest_p50_us",
                "locserver.nearest_objects_p99_us",
                &self.nearest_us,
                &self.nearest_class,
            ),
        ] {
            if let Some(v) = stats::grouped_p99(samples) {
                report.set(p99, v);
            }
            if let Some(v) = class_p50(samples, classes) {
                report.set(p50, v);
            }
        }
    }
}

/// The median latency of a mix whose classes cost up to ×100 apart: the
/// geometric mean of every class's own median. The plain median of such a
/// mix lies on the border between two classes — among the slowest queries of
/// the cheaper one — and moves with how many of those a seed happens to draw
/// (on `query_hotspot` exactly half the mix is cheap). `None` when a class
/// has too few samples for a median.
fn class_p50(samples: &[f64], classes: &[u8]) -> Option<f64> {
    let mut by_class: [Vec<f64>; gen::QUERY_CLASSES] = Default::default();
    for (us, class) in samples.iter().zip(classes) {
        by_class[*class as usize].push(*us);
    }
    let medians: Option<Vec<f64>> = by_class
        .iter()
        .filter(|class| !class.is_empty())
        .map(|class| stats::percentile(class, 0.5))
        .collect();
    stats::geometric_mean(&medians?)
}

/// Span names of an in-process query by kind and aim.
pub fn query_span(query: &Query, hot: bool) -> &'static str {
    match (query, hot) {
        (Query::Rect(_), true) => "locserver.objects_in_rect.hot",
        (Query::Rect(_), false) => "locserver.objects_in_rect.uniform",
        (Query::Nearest(..), true) => "locserver.nearest_objects.hot",
        (Query::Nearest(..), false) => "locserver.nearest_objects.uniform",
    }
}

/// Reusable buffers of the in-process query loop.
#[derive(Default)]
pub struct QueryBuffers {
    pub scratch: QueryScratch,
    pub out: Vec<PositionReport>,
}

/// Answers `query` at `t` through the reusable-buffer entry points; the
/// answer is left in `buffers.out`.
pub fn run_query(service: &LocationService, query: &Query, t: f64, buffers: &mut QueryBuffers) {
    match query {
        Query::Rect(area) => {
            service.objects_in_rect_into(area, t, &mut buffers.scratch, &mut buffers.out)
        }
        Query::Nearest(from, k) => {
            service.nearest_objects_into(from, t, *k, &mut buffers.scratch, &mut buffers.out)
        }
    }
}

/// [`run_query`], timed: one latency sample and one span.
pub fn timed_query(
    service: &LocationService,
    query: &Query,
    hot: bool,
    t: f64,
    buffers: &mut QueryBuffers,
    times: &mut QueryTimes,
    tracer: &mut Tracer,
) {
    // The clock interval holds the span, so recorded rounds show its cost.
    let started = Instant::now();
    let s = tracer.begin(query_span(query, hot));
    run_query(service, query, t, buffers);
    tracer.end(s, 1);
    let us = started.elapsed().as_nanos() as f64 / 1e3;
    match query {
        Query::Rect(_) => {
            times.rect_us.push(us);
            times.rect_class.push(query.class(hot) as u8);
            times.rect_hits += buffers.out.len() as u64;
        }
        Query::Nearest(..) => {
            times.nearest_us.push(us);
            times.nearest_class.push(query.class(hot) as u8);
            times.nearest_hits += buffers.out.len() as u64;
        }
    }
}

/// The `i`-th query of a mix that alternates rect and nearest.
pub fn mixed_query(i: usize, hot_half: bool, rng: &mut SplitMix64) -> (Query, bool) {
    let n = i / 2;
    let query = if i.is_multiple_of(2) {
        Query::Rect(gen::rect_query(n, hot_half, rng))
    } else {
        let (from, k) = gen::nearest_query(n, hot_half, rng);
        Query::Nearest(from, k)
    };
    (query, hot_half && gen::is_hot(n))
}

/// The naive reference: every object's `position_of` at one instant, which
/// rect and nearest answers are then filtered from by full scan.
pub struct FullScan {
    reports: Vec<PositionReport>,
}

impl FullScan {
    pub fn at(service: &LocationService, objects: usize, t: f64) -> FullScan {
        FullScan {
            reports: (0..objects as u64)
                .filter_map(|id| service.position_of(ObjectId(id), t))
                .collect(),
        }
    }

    /// The answer `query` must have: ascending ids for a rect; nearest first
    /// with ties broken by id for nearest.
    pub fn answer(&self, query: &Query) -> Vec<PositionReport> {
        match query {
            Query::Rect(area) => {
                self.reports.iter().filter(|r| area.contains(&r.position)).copied().collect()
            }
            Query::Nearest(from, k) => {
                let mut all: Vec<(f64, PositionReport)> =
                    self.reports.iter().map(|r| (from.distance(&r.position), *r)).collect();
                all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.object.cmp(&b.1.object)));
                all.truncate(*k);
                all.into_iter().map(|(_, r)| r).collect()
            }
        }
    }
}

/// Shadow copies of the layers below the shard, fed the same frame bytes:
/// one `ServerTracker` per object and one `MovingIndex<u64>` holding the
/// boxes the shards compute (`speed × horizon + slack` around the report).
pub struct LayerShadow {
    trackers: Vec<ServerTracker>,
    index: MovingIndex<u64>,
    decoded: Vec<(u64, Update)>,
    boxes: Vec<(u64, Aabb)>,
    sources: Vec<u64>,
    seen: SeenScratch,
    keys: Vec<u64>,
    horizon_s: f64,
    slack_m: f64,
}

impl LayerShadow {
    pub fn new(objects: usize) -> LayerShadow {
        let predictor: Arc<dyn Predictor> = Arc::new(LinearPredictor);
        let config = ServiceConfig::default();
        LayerShadow {
            trackers: (0..objects).map(|_| ServerTracker::new(Arc::clone(&predictor))).collect(),
            index: MovingIndex::new(CELL_M),
            decoded: Vec::new(),
            boxes: Vec::new(),
            sources: Vec::new(),
            seen: SeenScratch::new(),
            keys: Vec::new(),
            horizon_s: config.horizon_s,
            slack_m: config.slack_m,
        }
    }

    fn bbox(&self, update: &Update) -> Aabb {
        let speed = update.state.speed.abs();
        let radius =
            if speed < 1e-9 { self.slack_m } else { speed * self.horizon_s + self.slack_m };
        Aabb::around(update.state.position, radius)
    }

    /// Runs one round's frames through the slices, [`BATCH`] frames per
    /// span: parse, tracker apply, index re-anchor, and a prediction per
    /// object at `t`.
    pub fn pass(&mut self, batch: &FrameBatch, t: f64, tracer: &mut Tracer) {
        for range in gen::batches(batch.len(), BATCH) {
            let s = tracer.begin("core.wire.frameview_parse");
            for i in range.clone() {
                let _ = std::hint::black_box(FrameView::parse(batch.get(i)));
            }
            tracer.end(s, range.len() as u32);

            self.decoded.clear();
            self.sources.clear();
            for i in range {
                if let Ok(view) = FrameView::parse(batch.get(i)) {
                    self.sources.push(view.source());
                    self.decoded.extend(view.updates().map(|u| (view.source(), u)));
                }
            }
            let calls = self.decoded.len() as u32;
            let s = tracer.begin("core.tracker.apply");
            for (object, update) in &self.decoded {
                self.trackers[*object as usize].apply(update);
            }
            tracer.end(s, calls);

            let mut boxes = std::mem::take(&mut self.boxes);
            boxes.clear();
            boxes.extend(self.decoded.iter().map(|(o, u)| (*o, self.bbox(u))));
            let s = tracer.begin("spatial.moving.reanchor");
            for (object, bbox) in &boxes {
                self.index.insert(*object, *bbox);
            }
            tracer.end(s, calls);
            self.boxes = boxes;

            let s = tracer.begin("core.tracker.position_at");
            for object in &self.sources {
                std::hint::black_box(self.trackers[*object as usize].position_at(t));
            }
            tracer.end(s, self.sources.len() as u32);
        }
    }

    /// The index's candidate walk for one rect, as the shards run it.
    pub fn query_keys(&mut self, area: &Aabb, tracer: &mut Tracer) {
        let s = tracer.begin("spatial.moving.query_keys");
        self.index.query_keys_into(area, &mut self.seen, &mut self.keys);
        tracer.end(s, 1);
        std::hint::black_box(self.keys.len());
    }

    /// Snapshot entries of every tracker that has state, by object id.
    pub fn snapshot_entries(&self) -> Vec<mbdr_core::SnapshotEntry> {
        self.trackers
            .iter()
            .enumerate()
            .filter_map(|(object, tracker)| {
                Some(mbdr_core::SnapshotEntry {
                    object: object as u64,
                    updates_applied: tracker.updates_applied(),
                    bytes_received: tracker.bytes_received(),
                    update: Update {
                        sequence: tracker.last_sequence()?,
                        state: *tracker.last_state()?,
                        kind: mbdr_core::UpdateKind::Initial,
                    },
                })
            })
            .collect()
    }
}

/// `plain − parse − n·tracker.apply − n·reanchor`: what the shard adds on
/// top of the slices below it (lock, routing, expiry heap, stats), per frame.
pub fn shard_delta_ns(tracer: &Tracer, plain_span: &str, updates_per_frame: f64) -> Option<f64> {
    Some(
        tracer.median_ns(plain_span)?
            - tracer.median_ns("core.wire.frameview_parse")?
            - updates_per_frame * tracer.median_ns("core.tracker.apply")?
            - updates_per_frame * tracer.median_ns("spatial.moving.reanchor")?,
    )
}

/// The per-layer metrics every fleet-backed phase can report from its spans.
pub fn report_slices(report: &mut PhaseReport, tracer: &Tracer, service: &LocationService) {
    report.set_span("core.wire.frameview_parse_ns", tracer, "core.wire.frameview_parse", 1.0);
    report.set_span("core.tracker.apply_ns", tracer, "core.tracker.apply", 1.0);
    report.set_span("core.tracker.position_at_ns", tracer, "core.tracker.position_at", 1.0);
    report.set_span("spatial.moving.reanchor_ns", tracer, "spatial.moving.reanchor", 1.0);
    report.set_span("spatial.moving.query_keys_ns", tracer, "spatial.moving.query_keys", 1.0);
    let index = service.index_stats();
    report.set("spatial.moving.max_cell_occupancy", index.max_cell_occupancy as f64);
    report.set("spatial.moving.occupied_cells", index.occupied_cells as f64);
    for (name, spans) in [
        (
            "locserver.objects_in_rect_us",
            ["locserver.objects_in_rect.hot", "locserver.objects_in_rect.uniform"],
        ),
        (
            "locserver.nearest_objects_us",
            ["locserver.nearest_objects.hot", "locserver.nearest_objects.uniform"],
        ),
    ] {
        if let Some(ns) = tracer.median_ns_of(&spans) {
            report.set(name, ns / 1e3);
        }
    }
    for (name, span) in [
        ("locserver.objects_in_rect_us.hot", "locserver.objects_in_rect.hot"),
        ("locserver.objects_in_rect_us.uniform", "locserver.objects_in_rect.uniform"),
        ("locserver.nearest_objects_us.hot", "locserver.nearest_objects.hot"),
        ("locserver.nearest_objects_us.uniform", "locserver.nearest_objects.uniform"),
    ] {
        report.set_span(name, tracer, span, 1e-3);
    }
}

/// Folds the first and last frames of a round and its length into a digest
/// (folding every byte of every round would cost more than the round).
pub fn digest_round(report: &mut PhaseReport, batch: &FrameBatch) {
    report.inputs.u64(batch.len() as u64);
    if batch.len() > 0 {
        report.inputs.bytes(batch.get(0));
        report.inputs.bytes(batch.get(batch.len() - 1));
    }
}

/// Folds a query into the input digest.
pub fn digest_query(report: &mut PhaseReport, query: &Query) {
    let (a, b, c): (Point, Point, u64) = match query {
        Query::Rect(area) => (area.min, area.max, 0),
        Query::Nearest(from, k) => (*from, *from, *k as u64),
    };
    for v in [a.x, a.y, b.x, b.y] {
        report.inputs.f64(v);
    }
    report.inputs.u64(c);
}

/// Mover share of the query_hotspot fleet: 100 000 / 16 movers × 8 updates
/// = 50 000 mover updates per round.
pub const HOTSPOT_MOVER_FRACTION: f64 = 1.0 / 16.0;
/// Mover share of the uniform fleets (`ScaleConfig::standard`).
pub const UNIFORM_MOVER_FRACTION: f64 = 0.1;

/// Builds a fleet from its own seeded stream.
pub fn fleet(objects: usize, hotspot: bool, seed: u64) -> (Vec<Motion>, SplitMix64) {
    let mut rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
    let mover_fraction = if hotspot { HOTSPOT_MOVER_FRACTION } else { UNIFORM_MOVER_FRACTION };
    (gen::place_fleet(objects, hotspot, mover_fraction, &mut rng), rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_p50_is_the_geometric_mean_of_the_class_medians() {
        // Half the mix costs 10 (class 0), half 1 000 (class 3), 21 samples
        // each; one straggler of the cheap class is what a plain median of
        // the mix would report.
        let mut samples = vec![10.0; 21];
        samples[20] = 400.0;
        samples.extend([1_000.0; 21]);
        let mut classes = vec![0u8; 21];
        classes.extend([3u8; 21]);
        let p50 = class_p50(&samples, &classes).unwrap();
        assert!((p50 - 100.0).abs() < 1e-9, "{p50}");
        assert_eq!(stats::percentile(&samples, 0.5), Some(400.0));
        // A class with too few samples for a median refuses the whole metric.
        assert_eq!(class_p50(&samples[..30], &classes[..30]), None);
        assert_eq!(class_p50(&[], &[]), None);
    }
}
