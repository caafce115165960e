//! `tcp_fleet`: the same frames and queries over loopback TCP.
//!
//! `NetServer::bind` with `ServerConfig::default()` (no journal) on
//! 127.0.0.1 in front of a uniform fleet; traffic crosses the host's
//! loopback only, not a real link. The generator is this process: at most
//! two threads and two open connections.
//!
//! * Phase A — latency at a fixed offered rate. Thread 1 is one producer
//!   connection, **open loop**: 25 eight-update frames every 10 ms (20 000
//!   updates/s), sleep-paced against fixed due times, `flush` every 250
//!   frames. Thread 2 is one query connection, **closed loop**: rect and
//!   nearest round trips, alternating.
//! * Phase B — saturation. The producer alone, closed loop: windows of 64
//!   frames then `flush`.
//! * Phase C — sequential connect → `health()` → drop, in bursts between
//!   the slices of phase B (the query connection is closed by then, so at
//!   most two connections are ever open).
//!
//! On the 2-vCPU sandbox the server's five threads and the generator's two
//! share two cores, and which threads share a core changes the numbers by a
//! factor of two from one second to the next. No timing of this workload
//! holds a bound of 25 %, so all of them are per-layer metrics (`net.*`);
//! the one bounded number it owns is `wire_bytes_per_update`, counted by the
//! server.

use crate::fleet::{self, BATCH};
use crate::gen::{self, FrameBatch, Motion, Pacer, Query, UPDATES_PER_FRAME};
use crate::report::{Phase, PhaseCfg, PhaseReport};
use crate::stats;
use crate::trace::Tracer;
use mbdr_core::wire::query::{decode_positions_into, encode_positions_into};
use mbdr_core::{Frame, PositionRecord, Request};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, PositionReport};
use mbdr_net::{NetClient, NetServer, ServerConfig, ServerStatsSnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics this phase measures.
pub const SUPPLIES: &[&str] = &["wire_bytes_per_update"];

/// Timed set-ups per run (the fleet, its service, the server start).
const SETUP_REPEATS: usize = 9;
const OBJECTS: usize = 20_000;
const TICK: Duration = Duration::from_millis(10);
const FRAMES_PER_TICK: usize = 25;
const FRAMES_PER_FLUSH: usize = 250;
/// Tail of each tick's wait that the producer spins instead of sleeping.
const SPIN: Duration = Duration::from_micros(300);
/// Phase A ticks at full scale (3 s of offered load) and the query round
/// trips that take about as long on the reference box.
const TICKS_A: usize = 300;
const QUERIES_A: usize = 20_000;
const WINDOW: usize = 64;
/// Slices phases B and C are cut into.
const SLICES_B: usize = 10;
const FRAMES_B: usize = 150_000;
const CONNECTS_C: usize = 5_000;
/// Post-flush answers compared with direct calls on the served service.
const CHECK_QUERIES: usize = 200;

/// The producer's position in the round-robin frame schedule: frame `n` is
/// object `n % objects` in round `1 + n / objects`.
struct Schedule {
    fleet: Vec<Motion>,
    next: u64,
}

impl Schedule {
    fn next_frame(&mut self, updates: usize) -> Frame {
        let objects = self.fleet.len() as u64;
        let (object, round) = (self.next % objects, 1 + self.next / objects);
        self.next += 1;
        self.fleet[object as usize].frame(object, round, updates)
    }

    /// The round whose frames are currently being sent.
    fn round(&self) -> u64 {
        1 + self.next / self.fleet.len() as u64
    }
}

struct ProducerA {
    late_us: Vec<f64>,
    flush_failures: u64,
    frames: u64,
}

/// Phase A's open-loop producer: `ticks` ticks of [`FRAMES_PER_TICK`] frames.
fn produce_open_loop(
    client: &mut NetClient,
    schedule: &mut Schedule,
    ticks: usize,
    digest: &mut stats::Digest,
) -> ProducerA {
    let pacer = Pacer::new(TICK);
    let mut out = ProducerA {
        late_us: Vec::with_capacity(ticks * FRAMES_PER_TICK),
        flush_failures: 0,
        frames: 0,
    };
    let mut frames: Vec<Frame> = Vec::with_capacity(FRAMES_PER_TICK);
    let mut scratch = Vec::new();
    let started = Instant::now();
    for tick in 0..ticks as u64 {
        frames.clear();
        frames.extend((0..FRAMES_PER_TICK).map(|_| schedule.next_frame(UPDATES_PER_FRAME)));
        // Sleep most of the way, spin the rest: a sleep alone overshoots by
        // up to a millisecond on a busy two-core box.
        std::thread::sleep(pacer.wait(tick, started.elapsed()).saturating_sub(SPIN));
        while !pacer.wait(tick, started.elapsed()).is_zero() {
            std::hint::spin_loop();
        }
        for frame in &frames {
            // Every frame of a tick was due at the tick's due time.
            out.late_us.push(pacer.lateness(tick, started.elapsed()).as_nanos() as f64 / 1e3);
            out.flush_failures += u64::from(client.send_frame(frame).is_err());
            out.frames += 1;
            if out.frames.is_multiple_of(FRAMES_PER_FLUSH as u64) {
                let expect = out.frames * UPDATES_PER_FRAME as u64;
                let ok = client
                    .flush()
                    .is_ok_and(|s| s.frames == out.frames && s.updates_applied == expect);
                out.flush_failures += u64::from(!ok);
            }
        }
        scratch.clear();
        if frames[0].encode_into(&mut scratch).is_ok() {
            digest.bytes(&scratch);
        }
    }
    out
}

fn as_reports(records: &[PositionRecord]) -> impl Iterator<Item = (u64, f64, f64, f64)> + '_ {
    records.iter().map(|r| (r.object, r.position.x, r.position.y, r.information_age))
}

fn matches_direct(records: &[PositionRecord], direct: &[PositionReport]) -> bool {
    as_reports(records)
        .eq(direct.iter().map(|r| (r.object.0, r.position.x, r.position.y, r.information_age)))
}

fn query_over_tcp(
    client: &mut NetClient,
    query: &Query,
    t: f64,
    out: &mut Vec<PositionRecord>,
) -> bool {
    match query {
        Query::Rect(area) => client.objects_in_rect_into(area, t, out).is_ok(),
        Query::Nearest(from, k) => client.nearest_objects_into(from, t, *k as u16, out).is_ok(),
    }
}

struct Served {
    fleet: Vec<Motion>,
    rng: gen::SplitMix64,
    server: NetServer,
    producer: NetClient,
    querier: NetClient,
}

fn serve(cfg: &PhaseCfg, objects: usize) -> std::io::Result<(Served, u64)> {
    let (fleet, rng) = fleet::fleet(objects, false, cfg.seed);
    let service = fleet::registered_service(objects);
    let mut batch = FrameBatch::default();
    batch.fill(&fleet, 0..objects, 0, UPDATES_PER_FRAME, false);
    let (applied, errors) = fleet::apply_batch(&service, &batch);
    let bad = errors + (objects * UPDATES_PER_FRAME) as u64 - applied;
    let server = NetServer::bind(Arc::new(service), "127.0.0.1:0", ServerConfig::default())?;
    let producer = NetClient::connect(server.local_addr())?;
    let querier = NetClient::connect(server.local_addr())?;
    Ok((Served { fleet, rng, server, producer, querier }, bad))
}

fn delta(after: &ServerStatsSnapshot, before: &ServerStatsSnapshot) -> ServerStatsSnapshot {
    let mut d = *after;
    d.frames_received -= before.frames_received;
    d.updates_applied -= before.updates_applied;
    d.queries_answered -= before.queries_answered;
    d.bytes_received -= before.bytes_received;
    d.readiness_wakeups -= before.readiness_wakeups;
    d.spurious_wakeups -= before.spurious_wakeups;
    d
}

/// The phase's state between slices: slice 0 is phase A; every later slice
/// is a run of phase-B windows followed by a burst of phase-C connects.
pub struct TcpFleet {
    cfg: PhaseCfg,
    traced: bool,
    rng: gen::SplitMix64,
    server: NetServer,
    producer: NetClient,
    /// Open during phase A only.
    querier: Option<NetClient>,
    schedule: Schedule,
    slice: usize,
    windows_per_slice: usize,
    connects_per_slice: usize,
    rtt: fleet::QueryTimes,
    late_us: Vec<f64>,
    connect_us: Vec<f64>,
    /// `[bare, recorded]` seconds and windows of phase B.
    window_s: [f64; 2],
    windows_done: [u64; 2],
    windows_run: usize,
    sent_frames: u64,
    /// Server counters of phase B alone.
    stats_b: ServerStatsSnapshot,
    report: PhaseReport,
}

impl TcpFleet {
    /// Set-up: fleet, placed service, server start, both connections.
    pub fn new(cfg: &PhaseCfg, tracer: &mut Tracer) -> TcpFleet {
        let mut report = PhaseReport::default();
        let traced = tracer.is_enabled();
        let objects = cfg.objects(OBJECTS, 64);
        let mut setups = Vec::new();
        let mut served = None;
        for _ in 0..cfg.setups(SETUP_REPEATS) {
            drop(served.take());
            let started = Instant::now();
            served = Some(serve(cfg, objects).expect("loopback server starts and accepts"));
            setups.push(started.elapsed().as_secs_f64());
        }
        report.set("setup_s", stats::median(&setups).unwrap_or(0.0));
        let (Served { fleet, rng, server, producer, querier }, bad_placements) =
            served.expect("one set-up ran");
        report.check(objects as u64, bad_placements, "placement round");
        let windows = cfg.ops(FRAMES_B, 4 * WINDOW).div_ceil(WINDOW) * if traced { 2 } else { 1 };
        TcpFleet {
            cfg: cfg.clone(),
            traced,
            rng,
            server,
            producer,
            querier: Some(querier),
            schedule: Schedule { fleet, next: 0 },
            slice: 0,
            windows_per_slice: windows.div_ceil(SLICES_B),
            connects_per_slice: cfg.ops(CONNECTS_C, 1_000).div_ceil(SLICES_B),
            rtt: fleet::QueryTimes::default(),
            late_us: Vec::new(),
            connect_us: Vec::new(),
            window_s: [0.0; 2],
            windows_done: [0; 2],
            windows_run: 0,
            sent_frames: 0,
            stats_b: ServerStatsSnapshot::default(),
            report,
        }
    }

    /// Phase A: the open-loop producer beside the closed-loop query thread.
    fn phase_a(&mut self, tracer: &mut Tracer) {
        let ticks = self.cfg.ops(TICKS_A, 48);
        let queries = self.cfg.ops(QUERIES_A, 2 * 1_100);
        let t_a = gen::round_time(1);
        let mut records = Vec::new();
        let mut query_failures = 0u64;
        let mut producer_digest = stats::Digest::default();
        let (producer, schedule) = (&mut self.producer, &mut self.schedule);
        let querier = self.querier.as_mut().expect("phase A runs first");
        let produced = std::thread::scope(|scope| {
            let handle =
                scope.spawn(|| produce_open_loop(producer, schedule, ticks, &mut producer_digest));
            for i in 0..queries {
                let (query, _) = fleet::mixed_query(i, false, &mut self.rng);
                fleet::digest_query(&mut self.report, &query);
                let span = match query {
                    Query::Rect(_) => "net.client.rect_rtt",
                    Query::Nearest(..) => "net.client.nearest_rtt",
                };
                let started = Instant::now();
                let s = tracer.begin(span);
                let ok = query_over_tcp(querier, &query, t_a, &mut records);
                tracer.end(s, 1);
                let us = started.elapsed().as_nanos() as f64 / 1e3;
                query_failures += u64::from(!ok);
                match query {
                    Query::Rect(_) => self.rtt.rect_us.push(us),
                    Query::Nearest(..) => self.rtt.nearest_us.push(us),
                }
            }
            handle.join().expect("producer thread does not panic")
        });
        self.report.inputs.u64(producer_digest.value());
        self.report.check(queries as u64, query_failures, "query round trip failed");
        self.report.check(
            produced.frames,
            produced.flush_failures,
            "phase A send or flush barrier",
        );
        self.late_us = produced.late_us;
        self.sent_frames = produced.frames;
        // Phase C opens one connection at a time beside the producer's, so
        // the query connection closes here: never more than two are open.
        self.querier = None;
    }

    /// One slice of phase B — closed-loop windows of [`WINDOW`] frames then
    /// `flush` — followed by one burst of phase C.
    fn phase_b_and_c(&mut self, tracer: &mut Tracer) {
        let before = self.server.stats();
        let mut frames: Vec<Frame> = Vec::with_capacity(WINDOW);
        let mut window_failures = 0u64;
        for _ in 0..self.windows_per_slice {
            let recording = self.traced && self.windows_run % 2 == 1;
            self.windows_run += 1;
            tracer.set_recording(recording);
            frames.clear();
            frames.extend((0..WINDOW).map(|_| self.schedule.next_frame(UPDATES_PER_FRAME)));
            let started = Instant::now();
            let root = tracer.begin("tcp.window");
            let s = tracer.begin("net.client.send_frame");
            let mut failed = 0u64;
            for frame in &frames {
                failed += u64::from(self.producer.send_frame(frame).is_err());
            }
            tracer.end(s, WINDOW as u32);
            let s = tracer.begin("net.client.flush");
            let summary = self.producer.flush();
            tracer.end(s, 1);
            tracer.end(root, 1);
            self.window_s[usize::from(recording)] += started.elapsed().as_secs_f64();
            self.windows_done[usize::from(recording)] += 1;
            self.sent_frames += WINDOW as u64;
            let expect = self.sent_frames * UPDATES_PER_FRAME as u64;
            let ok =
                summary.is_ok_and(|s| s.frames == self.sent_frames && s.updates_applied == expect);
            window_failures += failed + u64::from(!ok);
        }
        tracer.set_recording(self.traced);
        let d = delta(&self.server.stats(), &before);
        self.stats_b.frames_received += d.frames_received;
        self.stats_b.updates_applied += d.updates_applied;
        self.stats_b.queries_answered += d.queries_answered;
        self.stats_b.bytes_received += d.bytes_received;
        self.stats_b.readiness_wakeups += d.readiness_wakeups;
        self.stats_b.spurious_wakeups += d.spurious_wakeups;
        self.report.check(
            (self.windows_per_slice * WINDOW) as u64,
            window_failures,
            "phase B send or flush barrier",
        );

        let addr = self.server.local_addr();
        let mut connect_failures = 0u64;
        for _ in 0..self.connects_per_slice {
            let started = Instant::now();
            let ok = NetClient::connect(addr).is_ok_and(|mut c| c.health().is_ok());
            self.connect_us.push(started.elapsed().as_nanos() as f64 / 1e3);
            connect_failures += u64::from(!ok);
        }
        self.report.check(
            self.connects_per_slice as u64,
            connect_failures,
            "connect or first health() failed",
        );
    }
}

impl Phase for TcpFleet {
    fn slices(&self) -> usize {
        1 + SLICES_B
    }

    fn step(&mut self, tracer: &mut Tracer) {
        match self.slice {
            0 => self.phase_a(tracer),
            s if s <= SLICES_B => self.phase_b_and_c(tracer),
            _ => return,
        }
        self.slice += 1;
    }

    fn finish(self: Box<Self>, tracer: &mut Tracer) -> PhaseReport {
        let TcpFleet {
            cfg,
            traced,
            mut rng,
            server,
            mut producer,
            mut schedule,
            rtt,
            late_us,
            connect_us,
            window_s,
            windows_done,
            sent_frames,
            stats_b,
            mut report,
            ..
        } = *self;
        let frames_b = (windows_done[0] + windows_done[1]) * WINDOW as u64;
        let seconds_b = window_s[0] + window_s[1];
        report.counts.u64(sent_frames);
        report.set(
            "wire_bytes_per_update",
            stats_b.bytes_received as f64 / stats_b.updates_applied.max(1) as f64,
        );

        // Timings: per-layer only (see the module docs), from both runs.
        report.set(
            "net.ingest_updates_per_s",
            (frames_b * UPDATES_PER_FRAME as u64) as f64 / seconds_b.max(1e-9),
        );
        for (name, samples, q) in [
            ("net.client.rect_rtt_us", &rtt.rect_us, 0.5),
            ("net.client.nearest_rtt_us", &rtt.nearest_us, 0.5),
            ("net.client.connect_us", &connect_us, 0.5),
            ("gen.late_p99_us", &late_us, 0.99),
            ("net.client.rect_rtt_p99_us", &rtt.rect_us, 0.99),
            ("net.client.nearest_rtt_p99_us", &rtt.nearest_us, 0.99),
        ] {
            if let Some(v) = stats::percentile(samples, q) {
                report.set(name, v);
            }
        }

        // --- Reference: with ingest flushed, answers over TCP must equal
        // direct calls on the served service.
        let t_check = gen::round_time(schedule.round());
        let mut records: Vec<PositionRecord> = Vec::new();
        let mut mismatches = 0u64;
        match NetClient::connect(server.local_addr()) {
            Ok(mut querier) => {
                for i in 0..CHECK_QUERIES {
                    let (query, _) = fleet::mixed_query(i, false, &mut rng);
                    fleet::digest_query(&mut report, &query);
                    let ok = query_over_tcp(&mut querier, &query, t_check, &mut records);
                    let direct = match &query {
                        Query::Rect(area) => server.service().objects_in_rect(area, t_check),
                        Query::Nearest(from, k) => {
                            server.service().nearest_objects(from, t_check, *k)
                        }
                    };
                    report.counts.u64(direct.len() as u64);
                    mismatches += u64::from(!ok || !matches_direct(&records, &direct));
                }
                if traced {
                    traced_extras(
                        &cfg,
                        tracer,
                        &mut report,
                        &mut schedule,
                        &mut producer,
                        &mut querier,
                    );
                }
            }
            Err(_) => mismatches = CHECK_QUERIES as u64,
        }
        report.check(CHECK_QUERIES as u64, mismatches, "TCP answer differs from a direct call");

        if traced {
            let per_frame = seconds_b * 1e9 / frames_b.max(1) as f64;
            if let Some(direct) = report.metrics.get("locserver.apply_frame_bytes_ns").copied() {
                report.set("net.delta_ns", per_frame - direct);
            }
            let messages = (stats_b.frames_received + stats_b.queries_answered).max(1);
            report.set(
                "net.server.wakeups_per_message",
                stats_b.readiness_wakeups as f64 / messages as f64,
            );
            report.set(
                "net.server.spurious_wakeup_share",
                stats_b.spurious_wakeups as f64 / stats_b.readiness_wakeups.max(1) as f64,
            );
            report.set(
                "net.server.bytes_received_per_update",
                stats_b.bytes_received as f64 / stats_b.updates_applied.max(1) as f64,
            );
            let bare = window_s[0] / windows_done[0].max(1) as f64;
            let recorded = window_s[1] / windows_done[1].max(1) as f64;
            report.set("trace.overhead_share", recorded / bare.max(1e-12) - 1.0);
        }

        drop(producer);
        let last = server.shutdown();
        let hostile = last.frame_decode_errors
            + last.request_decode_errors
            + last.oversized_messages
            + last.evicted_slow
            + last.register_failures;
        report.check(1, hostile, "server counted decode errors, evictions or refusals");
        report.counts.u64(last.frames_received);
        report.set("net.server.backpressure_stalls", last.backpressure_stalls as f64);
        report.set("net.server.evicted_slow", last.evicted_slow as f64);
        report
    }
}

/// The traced run's extra slices: small round trips, single-update frames,
/// the wire codec, and the in-process cost of the same frames.
fn traced_extras(
    cfg: &PhaseCfg,
    tracer: &mut Tracer,
    report: &mut PhaseReport,
    schedule: &mut Schedule,
    producer: &mut NetClient,
    querier: &mut NetClient,
) {
    let mut failures = 0u64;
    let healths = cfg.ops(8_000, 256);
    for _ in 0..healths {
        let s = tracer.begin("net.client.health_rtt");
        failures += u64::from(querier.health().is_err());
        tracer.end(s, 1);
    }
    let single_windows = cfg.ops(2_000, 16);
    for _ in 0..single_windows {
        let frames: Vec<Frame> = (0..WINDOW).map(|_| schedule.next_frame(1)).collect();
        let s = tracer.begin("net.client.send_frame.single");
        for frame in &frames {
            failures += u64::from(producer.send_frame(frame).is_err());
        }
        tracer.end(s, WINDOW as u32);
        failures += u64::from(producer.flush().is_err());
    }
    report.check((healths + single_windows * (WINDOW + 1)) as u64, failures, "traced round trips");

    // The wire codec on this workload's own messages: frames as sent, a
    // rect request, and a 50-record answer.
    let fleet = &schedule.fleet;
    let mut buf = Vec::new();
    let mut decoded = Vec::new();
    let answer: Vec<PositionRecord> = (0..50)
        .map(|i| PositionRecord {
            object: i,
            position: Point::new(i as f64, -(i as f64)),
            information_age: 1.5,
        })
        .collect();
    let mut response = Vec::new();
    let _ = encode_positions_into(&answer, &mut response);
    let request = Request::Rect { area: Aabb::around(Point::new(0.0, 0.0), 500.0), t: 1.0 };
    for chunk in 0..cfg.ops(512, 16) {
        let frames: Vec<Frame> = (0..BATCH)
            .map(|i| fleet[(chunk * BATCH + i) % fleet.len()].frame(0, 1, UPDATES_PER_FRAME))
            .collect();
        let s = tracer.begin("core.wire.frame_encode");
        for frame in &frames {
            buf.clear();
            let _ = std::hint::black_box(frame.encode_into(&mut buf));
        }
        tracer.end(s, BATCH as u32);
        let s = tracer.begin("core.wire.request_encode");
        for _ in 0..BATCH {
            buf.clear();
            std::hint::black_box(&request).encode_into(&mut buf);
        }
        tracer.end(s, BATCH as u32);
        let s = tracer.begin("core.wire.positions_decode");
        for _ in 0..BATCH {
            let _ = std::hint::black_box(decode_positions_into(&response, &mut decoded));
        }
        tracer.end(s, BATCH as u32);
    }

    // The same frames applied in process: what TCP is a delta over.
    let direct: LocationService = fleet::registered_service(fleet.len());
    let mut batch = FrameBatch::default();
    for round in 0..cfg.ops(8, 2) as u64 {
        batch.fill(fleet, 0..fleet.len(), round, UPDATES_PER_FRAME, false);
        for range in gen::batches(batch.len(), BATCH) {
            let calls = range.len() as u32;
            let s = tracer.begin("locserver.apply_frame_bytes");
            for i in range {
                let _ = direct.apply_frame_bytes(batch.get(i));
            }
            tracer.end(s, calls);
        }
    }

    report.set_span("net.client.send_frame_ns", tracer, "net.client.send_frame", 1.0);
    report.set_span("net.client.send_frame.single_ns", tracer, "net.client.send_frame.single", 1.0);
    report.set_span("net.client.flush_us", tracer, "net.client.flush", 1e-3);
    report.set_span("net.client.health_rtt_us", tracer, "net.client.health_rtt", 1e-3);
    report.set_span("core.wire.frame_encode_ns", tracer, "core.wire.frame_encode", 1.0);
    report.set_span("core.wire.request_encode_ns", tracer, "core.wire.request_encode", 1.0);
    report.set_span("core.wire.positions_decode_ns", tracer, "core.wire.positions_decode", 1.0);
    report.set_span("locserver.apply_frame_bytes_ns", tracer, "locserver.apply_frame_bytes", 1.0);
}
