//! `ingest_durable`: write-heavy, journaled.
//!
//! A uniform fleet sends 8-update frames in full-fleet rounds. Every round is
//! applied with `apply_frame_bytes` to a journaled service (default
//! `PerBatch(64)` fsync, 8 MiB segments, eight snapshot + compaction cycles
//! per run) and to a journal-less twin, in alternating order; the twin gives
//! plain ingest on the identical stream — hence the journal tax as a ratio —
//! and is the reference for bit-identical recovery. A round is applied in
//! chunks (one slice each), and uniform rect and nearest queries run after
//! every chunk, so their samples span the whole phase.
//! A quarter into the third snapshot cycle the journal directory is copied, one
//! more frame is appended to the copy and that last record is torn (killing a
//! process keeps the OS cache, so the benchmark itself discards the unflushed
//! write), and the twin's answers at that moment are kept. From then on the
//! slices take turns with recoveries: each restores the torn segment, times
//! one `recover_and_attach` into a fresh service and compares its answers
//! with the kept ones — so recovery, too, is sampled across the whole run.
//!
//! The timed journal runs `JournalConfig::new`'s defaults with one change:
//! the per-batch `fdatasync` is off ([`FsyncPolicy::PerBatch`]`(u32::MAX)`;
//! rotation, snapshots and `flush` still sync). On the sandbox's virtual disk
//! a sync every 64 frames is 85 % of journaled ingest time and swings by a
//! factor of two between runs, in wall-clock and in CPU time alike, so a rate
//! that included it could gate nothing. What is timed is the journal's own
//! work: checksum, copies, `write`, rotation, snapshots. The device sync is
//! measured where its swing does no harm — the traced run's scratch journal
//! keeps the default `PerBatch(64)` and reports `journal.append_frame_ns`,
//! `journal.flush_us` and the exact `journal.fsyncs`.

use crate::fleet::{self, LayerShadow, QueryBuffers, QueryTimes, BATCH, CHECK_EVERY, TIMED_FRAMES};
use crate::gen::{self, FrameBatch, Motion, UPDATES_PER_FRAME};
use crate::report::{Phase, PhaseCfg, PhaseReport};
use crate::stats;
use crate::trace::Tracer;
use mbdr_core::encode_snapshot_into;
use mbdr_journal::{FsyncPolicy, Journal, JournalConfig, RECORD_HEADER_LEN};
use mbdr_locserver::{recover_and_attach, LocationService, ObjectId, PositionReport};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics this phase measures.
pub const SUPPLIES: &[&str] = &[
    "ingest_updates_per_s",
    "plain_updates_per_s",
    "journal_tax",
    "recover_s",
    "rect_p50_us",
    "nearest_p50_us",
    "wire_bytes_per_update",
];

const OBJECTS: usize = 100_000;
/// Frames at full scale: six full-fleet rounds of 8-update frames, 4.8 M
/// updates into each service.
const FRAMES: usize = 600_000;
/// Snapshot + compaction cycles per run, whatever its length.
const SNAPSHOT_CYCLES: usize = 8;
const RECT_QUERIES: usize = 8_000;
const NEAREST_QUERIES: usize = 8_000;
const RECOVERIES: usize = 10;
/// Snapshot cycles before the crash copy is taken: recovery restores the
/// second snapshot and replays a quarter of a cycle of frames (and the
/// segment that straddles the snapshot).
const CRASH_AFTER_CYCLES: f64 = 2.25;
/// Timed set-ups per run (the fleet, two registered services, the journal).
const SETUP_REPEATS: usize = 3;
/// Frames applied per slice (a whole round when the fleet is smaller).
const CHUNK_FRAMES: usize = 10_000;
/// Untimed queries after each chunk: ingest leaves the query path's data
/// cold, by an amount that depends on what the kernel was flushing.
const WARMUP_QUERIES: usize = 16;

struct Built {
    fleet: Vec<Motion>,
    rng: gen::SplitMix64,
    journaled: LocationService,
    journal: Arc<Journal>,
    twin: LocationService,
    config: JournalConfig,
}

/// `JournalConfig::new`'s defaults with the run's snapshot cadence.
fn journal_config(dir: PathBuf, snapshot_every_frames: u64) -> JournalConfig {
    JournalConfig { snapshot_every_frames, ..JournalConfig::new(dir) }
}

/// The repeatable part of set-up: fleet, both services registered, journal
/// attached to an empty directory.
fn build(cfg: &PhaseCfg, objects: usize, snapshot_every: u64) -> Built {
    let dir = cfg.scratch.join("ingest-journal");
    let _ = fs::remove_dir_all(&dir);
    let (fleet, rng) = fleet::fleet(objects, false, cfg.seed);
    let journaled = fleet::registered_service(objects);
    let twin = fleet::registered_service(objects);
    // See the module docs: no fdatasync between snapshots on the timed journal.
    let config = JournalConfig {
        fsync: FsyncPolicy::PerBatch(u32::MAX),
        ..journal_config(dir, snapshot_every)
    };
    let (journal, _) =
        recover_and_attach(&journaled, config.clone()).expect("fresh journal directory attaches");
    Built { fleet, rng, journaled, journal, twin, config }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Flips the final byte of the numerically-last segment: the last byte of
/// the last record's payload, since records abut the end of the file.
/// Returns the torn file and its bytes.
fn tear_last_record(dir: &Path) -> std::io::Result<(PathBuf, Vec<u8>)> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "mbdrj"))
        .collect();
    segments.sort();
    let victim = segments.pop().ok_or_else(|| std::io::Error::other("no segment to tear"))?;
    let mut bytes = fs::read(&victim)?;
    let last = bytes.len().checked_sub(1).ok_or_else(|| std::io::Error::other("empty segment"))?;
    bytes[last] ^= 0xA5;
    fs::write(&victim, &bytes)?;
    Ok((victim, bytes))
}

fn largest_snapshot_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "mbdrs"))
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// A service's answers to a fixed probe set: every object's `position_of` at
/// two instants, and a spread of rect and nearest queries.
#[derive(PartialEq)]
struct Answers {
    positions: Vec<Option<PositionReport>>,
    queries: Vec<Vec<PositionReport>>,
}

impl Answers {
    fn of(service: &LocationService, objects: usize, t: f64, seed: u64) -> Answers {
        let positions = [t, t + 20.0]
            .into_iter()
            .flat_map(|t| (0..objects as u64).map(move |id| service.position_of(ObjectId(id), t)))
            .collect();
        let mut rng = gen::SplitMix64::new(seed ^ 0xC0FFEE);
        let queries = (0..64)
            .map(|i| match fleet::mixed_query(i, false, &mut rng).0 {
                gen::Query::Rect(area) => service.objects_in_rect(&area, t),
                gen::Query::Nearest(from, k) => service.nearest_objects(&from, t, k),
            })
            .collect();
        Answers { positions, queries }
    }
}

/// The traced run's scratch journal: same configuration as the real one,
/// fed the same bytes, snapshots built from the shadow trackers.
struct ShadowJournal {
    journal: Journal,
    dir: PathBuf,
}

impl ShadowJournal {
    fn open(cfg: &PhaseCfg, snapshot_every: u64) -> ShadowJournal {
        let dir = cfg.scratch.join("ingest-shadow-journal");
        let _ = fs::remove_dir_all(&dir);
        let journal = Journal::open(journal_config(dir.clone(), snapshot_every))
            .expect("scratch journal opens");
        ShadowJournal { journal, dir }
    }

    /// Appends one round, [`BATCH`] frames per span, installing a snapshot
    /// whenever the cadence asks for one, and flushes at the end.
    fn feed(&self, batch: &FrameBatch, shadow: &LayerShadow, tracer: &mut Tracer) {
        for range in gen::batches(batch.len(), BATCH) {
            let calls = range.len() as u32;
            let s = tracer.begin("journal.append_frame");
            for i in range {
                let _ = self.journal.append_frame(batch.get(i));
            }
            tracer.end(s, calls);
            let Some(frames) = self.journal.begin_snapshot() else {
                continue;
            };
            let mut body = Vec::new();
            match encode_snapshot_into(frames, &shadow.snapshot_entries(), &mut body) {
                Ok(()) => {
                    let s = tracer.begin("journal.install_snapshot");
                    let _ = self.journal.install_snapshot(frames, &body);
                    tracer.end(s, 1);
                }
                Err(_) => self.journal.abort_snapshot(),
            }
        }
        let s = tracer.begin("journal.flush");
        let _ = self.journal.flush();
        tracer.end(s, 1);
    }
}

/// The phase's state between slices; one slice is one chunk of a round
/// applied to both services plus its share of the queries.
pub struct Ingest {
    cfg: PhaseCfg,
    traced: bool,
    objects: usize,
    built: Built,
    shadow: Option<(LayerShadow, ShadowJournal)>,
    batch: FrameBatch,
    /// Frames still to apply, and the chunk about to run.
    frames_left: usize,
    chunk: usize,
    chunks: usize,
    /// The chunk after which the journal "crashes".
    crash_after: usize,
    queries_per_chunk: usize,
    /// Seconds of each ingest path, `[bare, recorded]` chunks apart.
    journaled_s: [f64; 2],
    plain_s: [f64; 2],
    frames_done: [u64; 2],
    /// The twin's ns per frame, one sample per [`TIMED_FRAMES`] frames.
    plain_ns: Vec<f64>,
    frame_bytes: u64,
    applied: u64,
    errors: u64,
    sent: u64,
    locks_before: u64,
    disk_peak: u64,
    times: QueryTimes,
    buffers: QueryBuffers,
    twin_buffers: QueryBuffers,
    queries: usize,
    mismatches: u64,
    crash: Option<Crash>,
    recover_s: Vec<f64>,
    replayed_frames: u64,
    bad_recoveries: u64,
    report: PhaseReport,
}

/// The crashed journal: a copy of the directory whose last record is torn.
struct Crash {
    dir: PathBuf,
    /// What the twin answered when the copy was taken, and the instant asked
    /// about: the recovered service must answer the same.
    reference: Answers,
    t_q: f64,
    /// The torn segment, rewritten before every recovery (recovery repairs it).
    torn_segment: (PathBuf, Vec<u8>),
    /// Bytes recovery must report as truncated: the torn record.
    torn_bytes: u64,
}

impl Ingest {
    /// Set-up. Building is timed [`SETUP_REPEATS`] times (median); the
    /// placement round, which writes the journal's first `objects` records,
    /// is timed once, on the build that runs.
    pub fn new(cfg: &PhaseCfg, tracer: &mut Tracer) -> Ingest {
        let mut report = PhaseReport::default();
        let traced = tracer.is_enabled();
        let objects = cfg.objects(OBJECTS, 64);
        // A traced run doubles its frames: every other chunk records spans,
        // the rest run bare, and the difference is the tracing overhead.
        let frames_total = cfg.ops(FRAMES, 2 * objects) * if traced { 2 } else { 1 };
        let chunk_frames = objects.min(CHUNK_FRAMES);
        let chunks = frames_total.div_ceil(chunk_frames);
        let snapshot_every = ((frames_total + objects) / SNAPSHOT_CYCLES).max(1) as u64;
        let crash_frames = (CRASH_AFTER_CYCLES * snapshot_every as f64) as usize;
        let crash_after =
            (crash_frames.saturating_sub(objects) / chunk_frames).min(chunks.saturating_sub(1));
        let queries = cfg.ops(RECT_QUERIES + NEAREST_QUERIES, 8 * stats::P99_GROUP);

        let mut setups = Vec::new();
        let mut built = None;
        for _ in 0..cfg.setups(SETUP_REPEATS) {
            drop(built.take());
            let started = Instant::now();
            built = Some(build(cfg, objects, snapshot_every));
            setups.push(started.elapsed().as_secs_f64());
        }
        let built = built.expect("one set-up ran");
        let mut batch = FrameBatch::default();
        let started = Instant::now();
        batch.fill(&built.fleet, 0..objects, 0, UPDATES_PER_FRAME, false);
        let (a, ea) = fleet::apply_batch(&built.journaled, &batch);
        let (b, eb) = fleet::apply_batch(&built.twin, &batch);
        let placement_s = started.elapsed().as_secs_f64();
        report.set("setup_s", stats::median(&setups).unwrap_or(0.0) + placement_s);
        let placed = (objects * UPDATES_PER_FRAME) as u64;
        report.check(2 * objects as u64, ea + eb + (2 * placed - a - b), "placement round");
        report.set("wire_bytes_per_update", batch.wire_bytes_per_update(UPDATES_PER_FRAME));

        let shadow = traced.then(|| {
            let mut shadow = LayerShadow::new(objects);
            tracer.set_recording(false);
            shadow.pass(&batch, gen::round_time(0), tracer);
            tracer.set_recording(true);
            (shadow, ShadowJournal::open(cfg, snapshot_every))
        });
        Ingest {
            cfg: cfg.clone(),
            traced,
            objects,
            locks_before: built.twin.write_lock_acquisitions(),
            built,
            shadow,
            batch,
            frames_left: frames_total,
            chunk: 0,
            chunks,
            crash_after,
            queries_per_chunk: queries.div_ceil(chunks),
            journaled_s: [0.0; 2],
            plain_s: [0.0; 2],
            frames_done: [0; 2],
            plain_ns: Vec::new(),
            frame_bytes: 0,
            applied: 0,
            errors: 0,
            sent: 0,
            disk_peak: dir_bytes(&cfg.scratch),
            times: QueryTimes::default(),
            buffers: QueryBuffers::default(),
            twin_buffers: QueryBuffers::default(),
            queries: 0,
            mismatches: 0,
            crash: None,
            recover_s: Vec::new(),
            replayed_frames: 0,
            bad_recoveries: 0,
            report,
        }
    }

    /// Flushes and copies the directory, appends to the copy one more frame
    /// (one that only reached the OS cache) and tears that record, and keeps
    /// the twin's answers — it holds exactly the frames that were flushed.
    fn crash(&mut self, round: u64) -> std::io::Result<Crash> {
        let other = |e: mbdr_journal::JournalError| std::io::Error::other(e.to_string());
        let Built { fleet, journal, twin, config, .. } = &self.built;
        journal.flush().map_err(other)?;
        let dir = self.cfg.scratch.join("ingest-recover");
        copy_dir(&config.dir, &dir)?;
        let extra = fleet[0]
            .frame(0, round + 1, UPDATES_PER_FRAME)
            .encode()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let copy =
            Journal::open(JournalConfig { dir: dir.clone(), ..config.clone() }).map_err(other)?;
        copy.append_frame(&extra).map_err(other)?;
        drop(copy);
        let torn_segment = tear_last_record(&dir)?;
        self.disk_peak = self.disk_peak.max(dir_bytes(&self.cfg.scratch));
        let t_q = gen::round_time(round);
        Ok(Crash {
            dir,
            reference: Answers::of(twin, self.objects, t_q, self.cfg.seed),
            t_q,
            torn_segment,
            torn_bytes: (RECORD_HEADER_LEN + extra.len()) as u64,
        })
    }

    /// One timed `recover_and_attach` of the crashed copy into a fresh
    /// service, compared with what the twin answered at the crash.
    fn recover(&mut self, tracer: &mut Tracer) {
        let ok = self.crash.as_ref().is_some_and(|crash| {
            if fs::write(&crash.torn_segment.0, &crash.torn_segment.1).is_err() {
                return false;
            }
            let recovered = fleet::registered_service(self.objects);
            let config = JournalConfig { dir: crash.dir.clone(), ..self.built.config.clone() };
            let s = tracer.begin("locserver.recover_and_attach");
            let started = Instant::now();
            let outcome = recover_and_attach(&recovered, config);
            self.recover_s.push(started.elapsed().as_secs_f64());
            tracer.end(s, 1);
            outcome.is_ok_and(|(_, r)| {
                self.replayed_frames = r.replayed_frames;
                r.truncated_bytes == crash.torn_bytes
                    && r.frame_decode_errors == 0
                    && Answers::of(&recovered, self.objects, crash.t_q, self.cfg.seed)
                        == crash.reference
            })
        });
        self.bad_recoveries += u64::from(!ok);
    }

    /// Recoveries that should have run once chunk `chunk` is done: none up to
    /// the crash, then evenly over the chunks that follow it.
    fn recoveries_due(&self, chunk: usize) -> usize {
        let last = self.chunks.saturating_sub(1);
        if chunk < self.crash_after {
            0
        } else if last == self.crash_after {
            RECOVERIES
        } else {
            (chunk - self.crash_after) * RECOVERIES / (last - self.crash_after)
        }
    }

    /// The round chunk `chunk` belongs to and the objects it covers.
    fn chunk_span(&self, chunk: usize) -> (u64, std::ops::Range<usize>) {
        let chunk_frames = self.objects.min(CHUNK_FRAMES);
        let per_round = self.objects.div_ceil(chunk_frames);
        let start = (chunk % per_round) * chunk_frames;
        let end = (start + chunk_frames).min(self.objects).min(start + self.frames_left);
        (1 + (chunk / per_round) as u64, start..end)
    }

    fn last_round(&self) -> u64 {
        self.chunk_span(self.chunks.saturating_sub(1)).0
    }
}

impl Phase for Ingest {
    fn slices(&self) -> usize {
        self.chunks
    }

    fn step(&mut self, tracer: &mut Tracer) {
        if self.chunk >= self.chunks || self.frames_left == 0 {
            return;
        }
        let (round, range) = self.chunk_span(self.chunk);
        let Built { fleet, journaled, twin, .. } = &mut self.built;
        self.batch.fill(fleet, range, round, UPDATES_PER_FRAME, false);
        let batch = &self.batch;
        self.frames_left -= batch.len();
        fleet::digest_round(&mut self.report, batch);
        self.frame_bytes += batch.bytes().len() as u64;
        self.sent += 2 * (batch.len() * UPDATES_PER_FRAME) as u64;
        let recording = self.traced && self.chunk % 2 == 1;
        tracer.set_recording(recording);
        let r = usize::from(recording);
        // The two services take the chunk in turns of TIMED_FRAMES frames,
        // alternating which goes first, so each pair of samples is taken at
        // one machine speed and neither always finds the frames cold.
        for (turn, frames) in gen::batches(batch.len(), TIMED_FRAMES).enumerate() {
            let journaled_first = (self.chunk + turn).is_multiple_of(2);
            for journaled_turn in [journaled_first, !journaled_first] {
                let (service, span) = if journaled_turn {
                    (&*journaled, "locserver.apply_frame_bytes.journaled")
                } else {
                    (&*twin, "locserver.apply_frame_bytes")
                };
                let started = Instant::now();
                let (a, e) =
                    fleet::apply_range_traced(service, batch, frames.clone(), tracer, span);
                let seconds = started.elapsed().as_secs_f64();
                if journaled_turn {
                    self.journaled_s[r] += seconds;
                } else {
                    self.plain_s[r] += seconds;
                    self.plain_ns.push(seconds * 1e9 / frames.len() as f64);
                }
                self.applied += a;
                self.errors += e;
            }
        }
        self.frames_done[r] += batch.len() as u64;
        self.disk_peak = self.disk_peak.max(dir_bytes(&self.cfg.scratch));
        if let (true, Some((shadow, shadow_journal))) = (recording, self.shadow.as_mut()) {
            shadow.pass(batch, gen::round_time(round), tracer);
            shadow_journal.feed(batch, shadow, tracer);
            self.disk_peak = self.disk_peak.max(dir_bytes(&self.cfg.scratch));
        }
        let Built { rng, journaled, twin, .. } = &mut self.built;

        // Queries at this round's last report instant, on the journaled
        // service; every CHECK_EVERY-th answer must equal the twin's.
        let t_q = gen::round_time(round);
        let mut warm_rng = rng.clone();
        for i in 0..WARMUP_QUERIES {
            let (query, _) = fleet::mixed_query(i, false, &mut warm_rng);
            fleet::run_query(journaled, &query, t_q, &mut self.buffers);
        }
        for _ in 0..self.queries_per_chunk {
            let (query, hot) = fleet::mixed_query(self.queries, false, rng);
            fleet::digest_query(&mut self.report, &query);
            fleet::timed_query(
                journaled,
                &query,
                hot,
                t_q,
                &mut self.buffers,
                &mut self.times,
                tracer,
            );
            if let (Some((shadow, _)), gen::Query::Rect(area)) = (self.shadow.as_mut(), &query) {
                shadow.query_keys(area, tracer);
            }
            if self.queries.is_multiple_of(CHECK_EVERY) {
                fleet::run_query(twin, &query, t_q, &mut self.twin_buffers);
                self.mismatches += u64::from(self.buffers.out != self.twin_buffers.out);
            }
            self.queries += 1;
        }
        tracer.set_recording(self.traced);

        if self.chunk == self.crash_after {
            self.crash = self.crash(round).ok();
        }
        while self.recover_s.len() + (self.bad_recoveries as usize)
            < self.recoveries_due(self.chunk)
        {
            self.recover(tracer);
        }
        self.chunk += 1;
    }

    fn finish(mut self: Box<Self>, tracer: &mut Tracer) -> PhaseReport {
        while self.recover_s.len() + (self.bad_recoveries as usize) < RECOVERIES {
            self.recover(tracer);
        }
        let last_round = self.last_round();
        let Ingest {
            cfg,
            traced,
            objects,
            built: Built { fleet, journaled, journal, twin, config, .. },
            shadow,
            journaled_s,
            plain_s,
            frames_done,
            plain_ns,
            frame_bytes,
            applied,
            errors,
            sent,
            locks_before,
            disk_peak,
            times,
            buffers,
            queries,
            mismatches,
            recover_s,
            replayed_frames,
            bad_recoveries,
            mut report,
            ..
        } = *self;
        let t_q = gen::round_time(last_round);
        let frames_all = frames_done[0] + frames_done[1];
        let journal_stats = journal.stats();
        report.check(
            2 * frames_all,
            errors + (sent - applied),
            "frame did not apply all its updates",
        );
        report.check(frames_all, journal_stats.append_errors, "journal append failed");
        report.check(queries as u64, mismatches, "journaled service and twin answered differently");
        // The twin's rate is its median turn. The tax is the ratio of all the
        // time each service took, snapshots and rotations included (each pair
        // of turns ran at one machine speed, so the ratio keeps none of it),
        // and the journaled rate is the twin's rate with the tax taken off.
        let plain_ups = stats::median(&plain_ns)
            .map_or(0.0, |ns| UPDATES_PER_FRAME as f64 * 1e9 / ns.max(1e-3));
        let tax = (journaled_s[0] + journaled_s[1]) / (plain_s[0] + plain_s[1]).max(1e-9);
        report.set("plain_updates_per_s", plain_ups);
        report.set("journal_tax", tax);
        report.set("ingest_updates_per_s", plain_ups / tax.max(1e-9));
        times.report(&mut report);
        report.counts.u64(applied);
        report.counts.u64(journal_stats.appends);
        report.counts.u64(journal_stats.fsyncs);
        report.counts.u64(journal_stats.snapshots);
        report.counts.u64(times.rect_hits);
        report.counts.u64(times.nearest_hits);

        report.check(RECOVERIES as u64, bad_recoveries, "recovered state differs from the twin");
        report.set("recover_s", stats::median(&recover_s).unwrap_or(0.0));
        report.counts.u64(replayed_frames);
        let copy = cfg.scratch.join("ingest-recover");

        if traced {
            // Replay alone, on one more torn copy: open repairs, replay streams.
            if copy_dir(&config.dir, &copy).and_then(|()| tear_last_record(&copy)).is_ok() {
                if let Ok(j) = Journal::open(JournalConfig { dir: copy.clone(), ..config.clone() })
                {
                    let started = Instant::now();
                    let delivered = j
                        .replay(|_, bytes| {
                            std::hint::black_box(bytes);
                        })
                        .unwrap_or(0);
                    let ns = started.elapsed().as_nanos() as f64;
                    report.set("journal.replay_ns_per_frame", ns / delivered.max(1) as f64);
                }
            }
            // Single-update frames and point lookups on the twin, last of
            // all so they cannot disturb what recovery was compared against.
            let singles = objects.min(cfg.ops(OBJECTS, 1_024));
            let mut single_batch = FrameBatch::default();
            single_batch.fill(&fleet, 0..singles, last_round + 2, 1, false);
            for range in gen::batches(single_batch.len(), BATCH) {
                let calls = range.len() as u32;
                let s = tracer.begin("locserver.apply_frame_bytes.single");
                for i in range.clone() {
                    let _ = twin.apply_frame_bytes(single_batch.get(i));
                }
                tracer.end(s, calls);
                let s = tracer.begin("locserver.position_of");
                for i in range {
                    std::hint::black_box(twin.position_of(ObjectId(i as u64), t_q));
                }
                tracer.end(s, calls);
            }

            fleet::report_slices(&mut report, tracer, &twin);
            let plain = "locserver.apply_frame_bytes";
            let journaled_span = "locserver.apply_frame_bytes.journaled";
            report.set_span("locserver.apply_frame_bytes_ns", tracer, plain, 1.0);
            report.set_span(
                "locserver.apply_frame_bytes.journaled_ns",
                tracer,
                journaled_span,
                1.0,
            );
            report.set_span(
                "locserver.apply_frame_bytes.single_ns",
                tracer,
                "locserver.apply_frame_bytes.single",
                1.0,
            );
            report.set_span("locserver.position_of_ns", tracer, "locserver.position_of", 1.0);
            if let Some(delta) = fleet::shard_delta_ns(tracer, plain, UPDATES_PER_FRAME as f64) {
                report.set("locserver.shard_delta_ns", delta);
            }
            if let (Some(j), Some(p)) = (tracer.median_ns(journaled_span), tracer.median_ns(plain))
            {
                report.set("locserver.journal_delta_ns", j - p);
            }
            // The journal tax again, from the recorded chunks alone.
            if plain_s[1] > 0.0 {
                report.set("locserver.journal_tax_from_slices", journaled_s[1] / plain_s[1]);
            }
            report.set(
                "locserver.write_lock_acquisitions_per_frame",
                (twin.write_lock_acquisitions() - locks_before) as f64
                    / (frames_all + single_batch.len() as u64) as f64,
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
            report.set_span(
                "locserver.recover_and_attach_s",
                tracer,
                "locserver.recover_and_attach",
                1e-9,
            );
            report.set("locserver.replayed_frames", replayed_frames as f64);
            report.set_span("journal.append_frame_ns", tracer, "journal.append_frame", 1.0);
            report.set_span("journal.flush_us", tracer, "journal.flush", 1e-3);
            report.set_span(
                "journal.install_snapshot_ms",
                tracer,
                "journal.install_snapshot",
                1e-6,
            );
            // Syncs of the default-policy scratch journal over the recorded
            // chunks: batches, rotations and snapshots.
            if let Some((_, shadow_journal)) = &shadow {
                report.set("journal.fsyncs", shadow_journal.journal.stats().fsyncs as f64);
            }
            report.set("journal.snapshots", journal_stats.snapshots as f64);
            report.set("journal.append_errors", journal_stats.append_errors as f64);
            let stored = frame_bytes
                + frames_all * RECORD_HEADER_LEN as u64
                + journal_stats.snapshots * largest_snapshot_bytes(&config.dir);
            report.set("journal.bytes_per_frame_byte", stored as f64 / frame_bytes.max(1) as f64);
            report.set("journal.disk_peak_mb", disk_peak as f64 / (1024.0 * 1024.0));
            let bare = journaled_s[0] / frames_done[0].max(1) as f64;
            let recorded = journaled_s[1] / frames_done[1].max(1) as f64;
            report.set("trace.overhead_share", recorded / bare.max(1e-12) - 1.0);
        }

        drop((journaled, journal));
        let _ = fs::remove_dir_all(&config.dir);
        let _ = fs::remove_dir_all(&copy);
        if let Some((_, shadow_journal)) = shadow {
            let dir = shadow_journal.dir.clone();
            drop(shadow_journal);
            let _ = fs::remove_dir_all(dir);
        }
        report
    }
}
