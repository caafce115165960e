//! `query_hotspot`: read-heavy and skewed.
//!
//! 30 % of the fleet is Zipf-drawn into eight cells. Each round the movers
//! re-report (timed as ingest), then rect and nearest queries run through the
//! reusable-buffer entry points with one `QueryScratch`: half centred in the
//! hotspot block, half uniform, rect side ∈ {250 m, 1 km, 4 km}, k ∈ {1, 8,
//! 64}. One thread, closed loop, no journal, no sockets. Every
//! `CHECK_EVERY`-th answer is compared with a full scan over `position_of`.

use crate::fleet::{
    self, FullScan, LayerShadow, QueryBuffers, QueryTimes, CHECK_EVERY, TIMED_FRAMES,
};
use crate::gen::{self, FrameBatch, Motion, SplitMix64, UPDATES_PER_FRAME};
use crate::report::{Phase, PhaseCfg, PhaseReport};
use crate::stats;
use crate::trace::Tracer;
use mbdr_locserver::LocationService;
use std::time::Instant;

/// End-to-end metrics this phase measures.
pub const SUPPLIES: &[&str] =
    &["ingest_updates_per_s", "rect_p50_us", "nearest_p50_us", "wire_bytes_per_update"];

const OBJECTS: usize = 100_000;
const ROUNDS: usize = 10;
/// Rect plus nearest queries per round, alternating.
const QUERIES_PER_ROUND: usize = 1_000;
/// Timed set-ups per run (the fleet, its service, the placement round).
const SETUP_REPEATS: usize = 5;

/// The phase's state between slices; one slice is one round: the movers
/// re-report, then the round's queries run.
pub struct QueryHotspot {
    traced: bool,
    objects: usize,
    fleet: Vec<Motion>,
    rng: SplitMix64,
    service: LocationService,
    shadow: Option<LayerShadow>,
    batch: FrameBatch,
    rounds: u64,
    round: u64,
    times: QueryTimes,
    buffers: QueryBuffers,
    /// `[bare, recorded]` frames of the mover rounds, and microseconds
    /// spent in each kind of round's queries.
    frames: [u64; 2],
    query_us: [f64; 2],
    /// ns per mover frame, one sample per [`TIMED_FRAMES`] frames.
    ingest_ns: Vec<f64>,
    applied: u64,
    errors: u64,
    mismatches: u64,
    checked: u64,
    locks_before: u64,
    report: PhaseReport,
}

impl QueryHotspot {
    /// Set-up: place the fleet (round 0).
    pub fn new(cfg: &PhaseCfg, tracer: &mut Tracer) -> QueryHotspot {
        let mut report = PhaseReport::default();
        let traced = tracer.is_enabled();
        let objects = cfg.objects(OBJECTS, 64);
        // Enough rounds that each query kind has a p99 (≥ 1 000 samples + 10 %).
        let min_rounds = (2 * 1_100usize).div_ceil(QUERIES_PER_ROUND);
        let rounds = cfg.ops(ROUNDS, min_rounds) * if traced { 2 } else { 1 };

        let mut setups = Vec::new();
        let mut built = None;
        let mut batch = FrameBatch::default();
        for _ in 0..cfg.setups(SETUP_REPEATS) {
            drop(built.take());
            let started = Instant::now();
            let (fleet, rng) = fleet::fleet(objects, true, cfg.seed);
            let service = fleet::registered_service(objects);
            batch.fill(&fleet, 0..objects, 0, UPDATES_PER_FRAME, false);
            let (applied, errors) = fleet::apply_batch(&service, &batch);
            setups.push(started.elapsed().as_secs_f64());
            built = Some((
                fleet,
                rng,
                service,
                errors + (objects * UPDATES_PER_FRAME) as u64 - applied,
            ));
        }
        let (fleet, rng, service, bad_placements) = built.expect("one set-up ran");
        report.set("setup_s", stats::median(&setups).unwrap_or(0.0));
        report.check(objects as u64, bad_placements, "placement round");
        report.set("wire_bytes_per_update", batch.wire_bytes_per_update(UPDATES_PER_FRAME));
        let shadow = traced.then(|| {
            let mut shadow = LayerShadow::new(objects);
            tracer.set_recording(false);
            shadow.pass(&batch, gen::round_time(0), tracer);
            tracer.set_recording(true);
            shadow
        });
        QueryHotspot {
            traced,
            objects,
            fleet,
            rng,
            locks_before: service.write_lock_acquisitions(),
            service,
            shadow,
            batch,
            rounds: rounds as u64,
            round: 0,
            times: QueryTimes::default(),
            buffers: QueryBuffers::default(),
            frames: [0; 2],
            query_us: [0.0; 2],
            ingest_ns: Vec::new(),
            applied: 0,
            errors: 0,
            mismatches: 0,
            checked: 0,
            report,
        }
    }
}

impl Phase for QueryHotspot {
    fn slices(&self) -> usize {
        self.rounds as usize
    }

    fn step(&mut self, tracer: &mut Tracer) {
        if self.round >= self.rounds {
            return;
        }
        self.round += 1;
        let round = self.round;
        let recording = self.traced && round % 2 == 1;
        tracer.set_recording(recording);
        let r = usize::from(recording);
        self.batch.fill(&self.fleet, 0..self.objects, round, UPDATES_PER_FRAME, true);
        fleet::digest_round(&mut self.report, &self.batch);
        for frames in gen::batches(self.batch.len(), TIMED_FRAMES) {
            let started = Instant::now();
            let (a, e) = fleet::apply_range_traced(
                &self.service,
                &self.batch,
                frames.clone(),
                tracer,
                "locserver.apply_frame_bytes",
            );
            self.ingest_ns.push(started.elapsed().as_nanos() as f64 / frames.len() as f64);
            self.applied += a;
            self.errors += e;
        }
        self.frames[r] += self.batch.len() as u64;
        let t_q = gen::round_time(round);
        if let (true, Some(shadow)) = (recording, self.shadow.as_mut()) {
            shadow.pass(&self.batch, t_q, tracer);
        }

        let mut scan = None;
        let answered = (self.times.rect_us.len(), self.times.nearest_us.len());
        for i in 0..QUERIES_PER_ROUND {
            let (query, hot) = fleet::mixed_query(i, true, &mut self.rng);
            fleet::digest_query(&mut self.report, &query);
            fleet::timed_query(
                &self.service,
                &query,
                hot,
                t_q,
                &mut self.buffers,
                &mut self.times,
                tracer,
            );
            if let (true, Some(shadow), gen::Query::Rect(area)) =
                (recording, self.shadow.as_mut(), &query)
            {
                shadow.query_keys(area, tracer);
            }
            if i % CHECK_EVERY == 0 {
                let scan =
                    scan.get_or_insert_with(|| FullScan::at(&self.service, self.objects, t_q));
                self.checked += 1;
                self.mismatches += u64::from(scan.answer(&query) != self.buffers.out);
            }
        }
        self.query_us[r] += self.times.rect_us[answered.0..].iter().sum::<f64>()
            + self.times.nearest_us[answered.1..].iter().sum::<f64>();
        tracer.set_recording(self.traced);
    }

    fn finish(self: Box<Self>, tracer: &mut Tracer) -> PhaseReport {
        let QueryHotspot {
            traced,
            service,
            rounds,
            times,
            buffers,
            frames,
            query_us,
            ingest_ns,
            applied,
            errors,
            mismatches,
            checked,
            locks_before,
            mut report,
            ..
        } = *self;
        let frames_all = frames[0] + frames[1];
        let sent = frames_all * UPDATES_PER_FRAME as u64;
        report.check(
            frames_all,
            errors + (sent - applied),
            "mover frame did not apply all its updates",
        );
        report.check(
            rounds * QUERIES_PER_ROUND as u64,
            mismatches,
            "answer differs from the full scan",
        );
        report.counts.u64(applied);
        report.counts.u64(checked);
        report.counts.u64(times.rect_hits);
        report.counts.u64(times.nearest_hits);
        report.set(
            "ingest_updates_per_s",
            stats::median(&ingest_ns)
                .map_or(0.0, |ns| UPDATES_PER_FRAME as f64 * 1e9 / ns.max(1e-3)),
        );
        times.report(&mut report);

        if traced {
            fleet::report_slices(&mut report, tracer, &service);
            let plain = "locserver.apply_frame_bytes";
            report.set_span("locserver.apply_frame_bytes_ns", tracer, plain, 1.0);
            if let Some(delta) = fleet::shard_delta_ns(tracer, plain, UPDATES_PER_FRAME as f64) {
                report.set("locserver.shard_delta_ns", delta);
            }
            report.set(
                "locserver.write_lock_acquisitions_per_frame",
                (service.write_lock_acquisitions() - locks_before) as f64
                    / frames_all.max(1) as f64,
            );
            let (inspected, unique) = buffers.scratch.dedup_counters();
            report.set(
                "spatial.moving.candidates_per_unique",
                inspected as f64 / unique.max(1) as f64,
            );
            report.set(
                "locserver.hits_per_rect",
                times.rect_hits as f64 / times.rect_us.len().max(1) as f64,
            );
            // Overhead on the query path, which is what this workload is
            // about: recorded rounds against bare ones (equally many of each).
            let (bare, recorded) = (query_us[0], query_us[1]);
            report.set("trace.overhead_share", recorded / bare.max(1e-12) - 1.0);
        }
        report
    }
}
