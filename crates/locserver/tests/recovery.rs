//! Kill-and-recover equivalence: a service rebuilt from its journal
//! (snapshot + tail replay) must answer every query **bit-identically** to an
//! uninterrupted twin that applied the same frames in memory — rect id sets
//! and positions, nearest-neighbour sequences, and zone enter/leave events.
//!
//! Recovery writes trackers only and derives every shard's spatial index once
//! at the end, so the second half of this file holds the *index* to the same
//! standard: a rebuilt index equals one maintained update by update, recovery
//! into a service that already holds indexed state re-derives it from the
//! trackers, and a refused attach touches neither disk nor service.

use mbdr_core::{decode_snapshot, encode_snapshot_into, Frame, SnapshotEntry};
use mbdr_core::{LinearPredictor, ObjectState, Update, UpdateKind};
use mbdr_geo::rng::SplitMix64;
use mbdr_geo::{Aabb, Point};
use mbdr_journal::{
    FsyncPolicy, Journal, JournalConfig, JournalError, RealFs, Vfs, VfsFile, JOURNAL_VERSION,
};
use mbdr_locserver::durable::recover_into;
use mbdr_locserver::{
    recover_and_attach, recover_and_attach_with_vfs, LocationService, ObjectId, RecoverError,
    RecoveryReport, ServiceConfig, ZoneWatcher,
};
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

const OBJECTS: u64 = 12;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("mbdr-locserver-recovery-{}-{tag}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fleet() -> LocationService {
    let service =
        LocationService::with_config(ServiceConfig { shards: 4, ..ServiceConfig::default() });
    for i in 0..OBJECTS {
        service.register(ObjectId(i), Arc::new(LinearPredictor));
    }
    service
}

/// Deterministic pre-encoded frames: round-robin over the fleet, three
/// updates per frame, positions from the seeded generator.
fn encoded_frames(rounds: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(0xF4A3_0000);
    let mut step = move || rng.below(4001) as f64 - 2000.0;
    let mut out = Vec::new();
    for round in 0..rounds {
        for object in 0..OBJECTS {
            let mut frame = Frame::new(object);
            for u in 0..3u64 {
                let t = round as f64 * 2.0 + u as f64 * 0.5;
                let state = ObjectState::basic(
                    Point::new(step(), step()),
                    4.0 + (object % 5) as f64,
                    0.25 * (u + 1) as f64,
                    t,
                );
                frame.updates.push(Update {
                    sequence: round * 3 + u,
                    state,
                    kind: UpdateKind::DeviationBound,
                });
            }
            out.push(frame.encode().expect("encode frame"));
        }
    }
    out
}

/// Asserts the two services answer rect, nearest and zone queries with
/// exactly the same bits, across a grid of query times and areas.
fn assert_equivalent(recovered: &LocationService, twin: &LocationService, t_max: f64) {
    assert_eq!(recovered.total_updates(), twin.total_updates(), "update counts diverge");
    let areas = [
        Aabb::new(Point::new(-2000.0, -2000.0), Point::new(2000.0, 2000.0)),
        Aabb::new(Point::new(-500.0, -500.0), Point::new(500.0, 500.0)),
        Aabb::new(Point::new(0.0, -2000.0), Point::new(2000.0, 0.0)),
    ];
    let vantage = [Point::new(0.0, 0.0), Point::new(-1500.0, 900.0)];
    let mut t = 0.0;
    while t <= t_max {
        for area in &areas {
            assert_eq!(
                recovered.objects_in_rect(area, t),
                twin.objects_in_rect(area, t),
                "rect answers diverge at t={t}"
            );
        }
        for from in &vantage {
            assert_eq!(
                recovered.nearest_objects(from, t, 5),
                twin.nearest_objects(from, t, 5),
                "nearest answers diverge at t={t}"
            );
        }
        for i in 0..OBJECTS {
            assert_eq!(
                recovered.position_of(ObjectId(i), t),
                twin.position_of(ObjectId(i), t),
                "position diverges for object {i} at t={t}"
            );
        }
        t += 7.5;
    }
    // Zone transitions depend on every intermediate evaluation, so two fresh
    // watchers walked over the same times must emit identical event streams.
    let mut watcher_a = ZoneWatcher::new();
    let mut watcher_b = ZoneWatcher::new();
    for w in [&mut watcher_a, &mut watcher_b] {
        w.add_zone("downtown", Aabb::new(Point::new(-800.0, -800.0), Point::new(800.0, 800.0)));
        w.add_zone("east", Aabb::new(Point::new(0.0, -2000.0), Point::new(2000.0, 2000.0)));
    }
    let mut t = 0.0;
    while t <= t_max {
        assert_eq!(
            watcher_a.evaluate(recovered, t),
            watcher_b.evaluate(twin, t),
            "zone events diverge at t={t}"
        );
        t += 5.0;
    }
}

fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig {
        dir: dir.to_path_buf(),
        segment_max_bytes: 4 * 1024, // force rotation
        fsync: FsyncPolicy::PerBatch(8),
        snapshot_every_frames: 40, // force snapshots + compaction
    }
}

#[test]
fn killed_service_recovers_bit_identical_to_uninterrupted_twin() {
    let dir = temp_dir("bit-identity");
    let frames = encoded_frames(30);
    let crash_at = (frames.len() * 7) / 10;

    // Primary: journaled, ingests a prefix, then "crashes" (dropped without
    // any explicit flush — durability must not depend on a clean shutdown).
    let primary = fleet();
    let (journal, report) =
        recover_and_attach(&primary, journal_config(&dir)).expect("initial attach");
    assert_eq!(report.replayed_frames, 0, "fresh dir: nothing to replay");
    for bytes in &frames[..crash_at] {
        primary.apply_frame_bytes(bytes).expect("primary apply");
    }
    let primary_stats = journal.stats();
    assert_eq!(primary_stats.appends, crash_at as u64);
    assert!(primary_stats.snapshots >= 1, "snapshot cadence must have fired");
    assert!(primary_stats.fsyncs > 0);
    drop(primary);
    drop(journal);

    // Twin: same frames, purely in memory, never interrupted.
    let twin = fleet();
    for bytes in &frames[..crash_at] {
        twin.apply_frame_bytes(bytes).expect("twin apply");
    }

    // Recovered: fresh process, state rebuilt from snapshot + tail.
    let recovered = fleet();
    let (journal, report) = recover_and_attach(&recovered, journal_config(&dir)).expect("recovery");
    assert!(report.snapshot_frames > 0, "snapshot must participate: {report:?}");
    assert_eq!(report.restored_objects, OBJECTS, "{report:?}");
    assert_eq!(report.frame_decode_errors, 0);
    assert_eq!(report.truncated_bytes, 0, "clean files: nothing torn");
    assert!(
        (report.replayed_frames as usize) < crash_at,
        "compaction must shorten replay: {report:?}"
    );
    // A retained segment can straddle the snapshot floor, so the replay may
    // overlap the snapshot — coverage is "at least", and the staleness rules
    // make the overlap harmless.
    assert!(
        report.snapshot_frames + report.replayed_frames >= crash_at as u64,
        "snapshot + tail must cover the journaled prefix: {report:?}"
    );
    assert_equivalent(&recovered, &twin, 70.0);

    // Both keep serving: apply the remaining frames to each and re-compare.
    // The recovered service keeps journaling while it does.
    for bytes in &frames[crash_at..] {
        recovered.apply_frame_bytes(bytes).expect("recovered apply");
        twin.apply_frame_bytes(bytes).expect("twin apply");
    }
    assert_equivalent(&recovered, &twin, 70.0);
    let stats = journal.stats();
    assert_eq!(
        stats.recovered_frames + stats.appends,
        (frames.len() - crash_at) as u64 + report.replayed_frames,
        "post-recovery appends continue the same journal: {stats:?}"
    );
    drop(recovered);
    drop(journal);

    // Third generation: recover again over the full history.
    let third = fleet();
    let (_journal, report) = recover_and_attach(&third, journal_config(&dir)).expect("recovery 2");
    assert!(report.snapshot_frames + report.replayed_frames >= frames.len() as u64, "{report:?}");
    assert_equivalent(&third, &twin, 70.0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_recovers_to_the_last_complete_frame() {
    let dir = temp_dir("torn-tail");
    let frames = encoded_frames(6);
    let config = JournalConfig {
        snapshot_every_frames: 0, // log only: keep the byte layout predictable
        segment_max_bytes: 64 * 1024 * 1024,
        ..journal_config(&dir)
    };

    let primary = fleet();
    let (journal, _) = recover_and_attach(&primary, config.clone()).expect("attach");
    for bytes in &frames {
        primary.apply_frame_bytes(bytes).expect("apply");
    }
    journal.flush().expect("flush");
    drop(primary);
    drop(journal);

    // Tear the tail: flip a byte in the final record's payload, then append
    // garbage after it — a crash mid-write followed by disk noise.
    let segment: PathBuf = fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "mbdrj"))
        .expect("segment file");
    let mut bytes = fs::read(&segment).expect("read segment");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&segment, &bytes).expect("write back");
    let mut file = OpenOptions::new().append(true).open(&segment).expect("open");
    file.write_all(&[0xEEu8; 37]).expect("garbage");
    drop(file);

    let recovered = fleet();
    let (_journal, report) = recover_and_attach(&recovered, config).expect("recovery");
    assert_eq!(report.replayed_frames, frames.len() as u64 - 1, "{report:?}");
    assert!(report.truncated_bytes > 0, "{report:?}");
    assert_eq!(report.frame_decode_errors, 0);

    // The twin that never saw the torn final frame is the ground truth.
    let twin = fleet();
    for bytes in &frames[..frames.len() - 1] {
        twin.apply_frame_bytes(bytes).expect("twin apply");
    }
    assert_equivalent(&recovered, &twin, 30.0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_entries_for_unregistered_objects_are_skipped() {
    let dir = temp_dir("unregistered");
    let config = JournalConfig { snapshot_every_frames: 0, ..journal_config(&dir) };
    // Hand-craft a journal whose snapshot mentions an object the recovering
    // service does not serve: counted as skipped, never a panic.
    let journal = Journal::open(config.clone()).expect("open");
    let known = ObjectState::basic(Point::new(1.0, 2.0), 3.0, 0.0, 1.0);
    let unknown = ObjectState::basic(Point::new(9.0, 9.0), 1.0, 0.0, 1.0);
    let entries = [
        SnapshotEntry {
            object: 0,
            updates_applied: 1,
            bytes_received: 42,
            update: Update { sequence: 5, state: known, kind: UpdateKind::Initial },
        },
        SnapshotEntry {
            object: OBJECTS + 100,
            updates_applied: 1,
            bytes_received: 42,
            update: Update { sequence: 5, state: unknown, kind: UpdateKind::Initial },
        },
    ];
    let mut body = Vec::new();
    encode_snapshot_into(2, &entries, &mut body).expect("encode snapshot");
    journal.install_snapshot(2, &body).expect("install");
    drop(journal);

    let recovered = fleet();
    let (_journal, report) = recover_and_attach(&recovered, config).expect("recovery");
    assert_eq!(report.restored_objects, 1, "{report:?}");
    assert_eq!(report.skipped_objects, 1, "{report:?}");
    assert!(recovered.position_of(ObjectId(0), 1.0).is_some());
    let _ = fs::remove_dir_all(&dir);
}

/// `count` seeded frames over `clocks.len()` objects (a fifth parked), 1–4
/// updates each, every object on its own advancing clock — continuing from
/// `clocks`, so a second call extends the first call's stream.
fn seeded_frames(rng: &mut SplitMix64, clocks: &mut [(u64, f64)], count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let object = rng.below(clocks.len() as u64);
            let (sequence, t) = &mut clocks[object as usize];
            let mut frame = Frame::new(object);
            for _ in 0..1 + rng.below(4) {
                *t += 0.25 + rng.below(8) as f64 * 0.25;
                let speed = if object.is_multiple_of(5) { 0.0 } else { 1.0 + rng.below(12) as f64 };
                let position = Point::new(
                    rng.below(8_000) as f64 - 4_000.0,
                    rng.below(8_000) as f64 - 4_000.0,
                );
                let state = ObjectState::basic(position, speed, rng.below(628) as f64 / 100.0, *t);
                frame.updates.push(Update {
                    sequence: *sequence,
                    state,
                    kind: UpdateKind::DeviationBound,
                });
                *sequence += 1;
            }
            frame.encode().expect("encode frame")
        })
        .collect()
}

/// Index occupancy plus rect and nearest answers at `t`, equal on both sides.
fn assert_same_index_and_answers(a: &LocationService, b: &LocationService, t: f64, what: &str) {
    let areas = [
        Aabb::new(Point::new(-4_000.0, -4_000.0), Point::new(4_000.0, 4_000.0)),
        Aabb::new(Point::new(-700.0, -900.0), Point::new(1_100.0, 600.0)),
        Aabb::around(Point::new(2_500.0, -2_500.0), 400.0),
    ];
    for area in &areas {
        assert_eq!(a.objects_in_rect(area, t), b.objects_in_rect(area, t), "{what}: rect, t={t}");
    }
    for from in [Point::new(0.0, 0.0), Point::new(-3_000.0, 3_500.0)] {
        for k in [1, 7] {
            assert_eq!(
                a.nearest_objects(&from, t, k),
                b.nearest_objects(&from, t, k),
                "{what}: nearest, t={t}"
            );
        }
    }
    // After the queries, so a lazy re-grow they triggered is compared too.
    assert_eq!(a.index_stats(), b.index_stats(), "{what}: index stats, t={t}");
}

/// The report of the serial recovery the parallel one must match: one
/// decode, then one tracker write per snapshot entry and per replayed frame,
/// in journal order. Read from a copy of `dir`, so the recovery under test
/// opens the directory as the crash left it.
fn serial_report(dir: &Path, registered: impl Fn(u64) -> bool) -> RecoveryReport {
    let copy = temp_dir("serial-oracle");
    fs::create_dir_all(&copy).expect("oracle dir");
    for entry in fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("entry").path();
        fs::copy(&path, copy.join(path.file_name().expect("file name"))).expect("copy");
    }
    let journal = Journal::open(JournalConfig::new(&copy)).expect("oracle open");
    let mut report = RecoveryReport::default();
    if let Some(blob) = journal.load_snapshot().expect("oracle snapshot") {
        let (frames, entries) = decode_snapshot(&blob.body).expect("oracle decode");
        report.snapshot_frames = frames;
        report.restored_objects = entries.iter().filter(|e| registered(e.object)).count() as u64;
        report.skipped_objects = entries.len() as u64 - report.restored_objects;
    }
    report.replayed_frames = journal
        .replay(|_, bytes| match Frame::decode(bytes) {
            Ok(frame) if registered(frame.source) => {
                report.replayed_updates += frame.updates.len() as u64;
            }
            Ok(_) => {}
            Err(_) => report.frame_decode_errors += 1,
        })
        .expect("oracle replay");
    report.truncated_bytes = journal.stats().truncated_bytes;
    drop(journal);
    let _ = fs::remove_dir_all(&copy);
    report
}

/// Recovery against an uninterrupted twin, and its report against the
/// serial oracle, over seeds that vary the shard count (one shard, fewer
/// shards than threads, an odd split, many small shards), the segment size
/// and the snapshot cadence. The primary also serves objects the recovering
/// service does not register, so snapshots carry entries recovery must
/// skip, and the crash leaves one checksummed record that is no frame. With
/// 16 shards and two or more cores, restore and replay run on two threads
/// or more.
#[test]
fn rebuilt_indexes_equal_an_uninterrupted_twins_across_seeds() {
    const FLEET: u64 = 60;
    /// Objects only the primary serves: their snapshot entries are skipped.
    const STRANGERS: u64 = 6;
    let mut snapshot_recoveries = 0;
    let mut skipping_recoveries = 0;
    for seed in 0..20u64 {
        let what = format!("seed {seed}");
        let shards = [1, 3, 4, 16][seed as usize % 4];
        // A short horizon keeps ten horizons of box growth to a few cells.
        let config = ServiceConfig { shards, horizon_s: 10.0, ..ServiceConfig::default() };
        let fleet = |objects: u64| {
            let service = LocationService::with_config(config);
            for i in 0..objects {
                service.register(ObjectId(i), Arc::new(LinearPredictor));
            }
            service
        };
        let mut rng = SplitMix64::new(0x5EED_0000 + seed);
        let mut clocks = vec![(0u64, 0.0f64); (FLEET + STRANGERS) as usize];
        let count = 120 + rng.below(500) as usize;
        let before = seeded_frames(&mut rng, &mut clocks, count);
        let crash_at = 1 + rng.below(before.len() as u64) as usize;
        let t_crash = clocks.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        clocks.truncate(FLEET as usize);
        let after = seeded_frames(&mut rng, &mut clocks, 2_000);
        // Checksummed but no frame: 1 to 19 bytes, so some are too short to
        // name a source and the rest fail the frame walk.
        let garbage = vec![0xEE; 1 + rng.below(19) as usize];
        let dir = temp_dir("rebuilt");
        let journal_config = JournalConfig {
            dir: dir.clone(),
            segment_max_bytes: 2 * 1024 + rng.below(16 * 1024),
            fsync: FsyncPolicy::PerBatch(64),
            // One seed in five recovers from the log alone.
            snapshot_every_frames: if seed % 5 == 4 { 0 } else { 15 + rng.below(150) },
        };

        let primary = fleet(FLEET + STRANGERS);
        let (journal, _) = recover_and_attach(&primary, journal_config.clone()).expect("attach");
        // The twin answers no query before the comparison: lazy re-grow is
        // query-driven, and a rebuilt index has seen none.
        let twin = fleet(FLEET);
        for bytes in &before[..crash_at] {
            primary.apply_frame_bytes(bytes).expect("primary apply");
            twin.apply_frame_bytes(bytes).expect("twin apply");
        }
        journal.append_frame(&garbage).expect("append garbage");
        drop(primary);
        drop(journal);

        let expected = serial_report(&dir, |object| object < FLEET);
        let recovered = fleet(FLEET);
        let (journal, report) = recover_and_attach(&recovered, journal_config).expect("recovery");
        assert_eq!(report, expected, "{what}: parallel and serial recovery disagree");
        assert_eq!(report.frame_decode_errors, 1, "{what}: {report:?}");
        assert!(
            report.snapshot_frames + report.replayed_frames > crash_at as u64,
            "{what}: {report:?}"
        );
        snapshot_recoveries += u64::from(report.restored_objects > 0);
        skipping_recoveries += u64::from(report.skipped_objects > 0);
        assert_eq!(recovered.index_stats(), twin.index_stats(), "{what}: right after recovery");
        assert_eq!(recovered.total_updates(), twin.total_updates(), "{what}");
        // At the crash instant, half a horizon on, and ten horizons on — the
        // last two re-grow entries of the rebuilt index.
        for t in [t_crash, t_crash + 0.5 * config.horizon_s, t_crash + 10.0 * config.horizon_s] {
            assert_same_index_and_answers(&recovered, &twin, t, &what);
        }
        // Placements are consistent after a rebuild: both keep ingesting (the
        // recovered one journaling and snapshotting) and stay equal.
        let t_end = clocks.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        for (i, bytes) in after.iter().enumerate() {
            recovered.apply_frame_bytes(bytes).expect("recovered apply");
            twin.apply_frame_bytes(bytes).expect("twin apply");
            if i % 500 == 499 {
                assert_same_index_and_answers(&recovered, &twin, t_end * 0.5, &what);
            }
        }
        assert_same_index_and_answers(&recovered, &twin, t_end, &what);
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(snapshot_recoveries >= 8, "most seeds restore a snapshot: {snapshot_recoveries}");
    assert!(skipping_recoveries >= 8, "most seeds skip strangers: {skipping_recoveries}");
}

#[test]
fn recovery_into_indexed_state_rederives_the_index_from_the_trackers() {
    let report_at = |sequence: u64, position: Point, speed: f64, t: f64| Update {
        sequence,
        state: ObjectState::basic(position, speed, 0.0, t),
        kind: UpdateKind::Initial,
    };
    let (a, b) = (Point::new(-1_000.0, 0.0), Point::new(4_000.0, 0.0)); // 5 km apart
    let (c, d) = (Point::new(0.0, 3_000.0), Point::new(0.0, -3_000.0));
    let near = |p: Point| Aabb::around(p, 50.0);
    let ids = |service: &LocationService, p: Point| -> Vec<u64> {
        service.objects_in_rect(&near(p), 1.0).iter().map(|r| r.object.0).collect()
    };

    // Live, indexed state: object 0 parked at A, object 2 creeping at C.
    // Object 1 is registered and has not reported.
    let service = fleet();
    assert!(service.apply_update(ObjectId(0), &report_at(3, a, 0.0, 1.0)));
    assert!(service.apply_update(ObjectId(2), &report_at(3, c, 0.5, 1.0)));
    assert_eq!(ids(&service, a), [0]);
    assert_eq!(ids(&service, c), [2]);

    // A journal whose snapshot says object 0 is at B, and whose log tail
    // reports object 1 at D. Object 2 appears in neither.
    let dir = temp_dir("indexed-state");
    let config = JournalConfig { snapshot_every_frames: 0, ..journal_config(&dir) };
    let journal = Journal::open(config.clone()).expect("open");
    let entries = [SnapshotEntry {
        object: 0,
        updates_applied: 9,
        bytes_received: 400,
        update: report_at(8, b, 0.0, 1.0),
    }];
    let mut body = Vec::new();
    encode_snapshot_into(0, &entries, &mut body).expect("encode snapshot");
    journal.install_snapshot(0, &body).expect("install");
    let frame = Frame::single(1, report_at(0, d, 0.5, 1.0)).encode().expect("encode frame");
    journal.append_frame(&frame).expect("append");
    drop(journal);

    let journal = Journal::open(config).expect("reopen");
    let report = recover_into(&service, &journal).expect("recover into live state");
    assert_eq!((report.restored_objects, report.replayed_frames), (1, 1), "{report:?}");
    assert_eq!(ids(&service, b), [0], "indexed where the snapshot put it");
    assert_eq!(ids(&service, a), [] as [u64; 0], "and no longer where it was");
    assert_eq!(ids(&service, d), [1], "the replayed report is indexed");
    assert_eq!(ids(&service, c), [2], "the rebuild reads the trackers, not the snapshot's list");
    assert_eq!(service.indexed_count(), 3);
    assert_eq!(service.nearest_objects(&b, 1.0, 1)[0].object, ObjectId(0));

    // A recovery with nothing to restore or replay leaves the shards alone.
    let empty_dir = temp_dir("indexed-state-empty");
    let empty = Journal::open(journal_config(&empty_dir)).expect("open empty");
    let locks = service.write_lock_acquisitions();
    assert_eq!(recover_into(&service, &empty).expect("recover"), RecoveryReport::default());
    assert_eq!(service.write_lock_acquisitions(), locks, "no shard write lock taken");
    assert_eq!(ids(&service, b), [0]);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&empty_dir);
}

#[test]
fn refused_attach_touches_neither_disk_nor_service() {
    let (dir_a, dir_b) = (temp_dir("refused-a"), temp_dir("refused-b"));
    let service = fleet();
    let (journal, _) = recover_and_attach(&service, journal_config(&dir_a)).expect("attach");
    for bytes in &encoded_frames(5) {
        service.apply_frame_bytes(bytes).expect("apply");
    }
    let stats = journal.stats();
    let positions: Vec<_> = (0..OBJECTS).map(|i| service.position_of(ObjectId(i), 12.0)).collect();
    let locks = service.write_lock_acquisitions();

    let refused = recover_and_attach(&service, journal_config(&dir_b));
    assert!(matches!(refused, Err(RecoverError::AlreadyAttached)), "second attach is refused");
    assert!(!dir_b.exists(), "refused before any journal was opened or created");
    assert_eq!(journal.stats(), stats, "the attached journal is untouched");
    assert_eq!(service.write_lock_acquisitions(), locks, "no shard was written");
    for (i, before) in positions.iter().enumerate() {
        assert_eq!(&service.position_of(ObjectId(i as u64), 12.0), before, "object {i}");
    }
    assert!(Arc::ptr_eq(service.journal().expect("still attached"), &journal));
    let _ = fs::remove_dir_all(&dir_a);
}

#[test]
fn each_recovery_pass_records_one_sample_per_stage() {
    let dir = temp_dir("stage-timers");
    let counts = |service: &LocationService| {
        let stages = service.recovery_stages();
        [stages.open_scan, stages.restore, stages.replay, stages.rebuild].map(|h| h.count())
    };
    let primary = fleet();
    assert_eq!(counts(&primary), [0; 4], "no pass yet");
    let (journal, _) = recover_and_attach(&primary, journal_config(&dir)).expect("attach");
    assert_eq!(counts(&primary), [1; 4], "a fresh directory is a pass too");
    for bytes in &encoded_frames(12) {
        primary.apply_frame_bytes(bytes).expect("apply");
    }
    assert!(matches!(
        recover_and_attach(&primary, journal_config(&dir)),
        Err(RecoverError::AlreadyAttached)
    ));
    assert_eq!(counts(&primary), [1; 4], "a refused attach runs no pass");
    drop(primary);
    drop(journal);

    // Snapshot, tail and rebuild: one sample each, and no more time in the
    // four stages than the call took.
    let recovered = fleet();
    let began = std::time::Instant::now();
    let (journal, report) = recover_and_attach(&recovered, journal_config(&dir)).expect("recover");
    let wall = u64::try_from(began.elapsed().as_nanos()).expect("a short pass");
    assert!(report.restored_objects > 0 && report.replayed_frames > 0, "{report:?}");
    assert_eq!(counts(&recovered), [1; 4]);
    let stages = recovered.recovery_stages();
    let total: u64 = [stages.open_scan, stages.restore, stages.replay, stages.rebuild]
        .map(|h| h.sum_ns())
        .iter()
        .sum();
    assert!(total <= wall, "stages {total} ns within the call's {wall} ns");
    assert!(
        stages.restore.sum_ns() > 0 && stages.replay.sum_ns() > 0 && stages.rebuild.sum_ns() > 0
    );

    // `recover_into` is a pass of its own.
    let offline = fleet();
    recover_into(&offline, &journal).expect("recover_into");
    assert_eq!(counts(&offline), [1; 4]);
    assert_eq!(counts(&recovered), [1; 4], "per service");
    let _ = fs::remove_dir_all(&dir);
}

/// A passthrough [`Vfs`] over [`RealFs`] that counts the bytes it reads.
#[derive(Default)]
struct CountingFs {
    read_bytes: AtomicU64,
}

impl Vfs for CountingFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealFs.open_append(path)
    }
    fn create_new_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealFs.create_new_append(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealFs.create(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = RealFs.read(path)?;
        self.read_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        RealFs.read_dir_names(dir)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        RealFs.truncate(path, len)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        RealFs.file_len(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealFs.sync_dir(dir)
    }
    fn now_nanos(&self) -> u64 {
        RealFs.now_nanos()
    }
}

/// Total length of the files in `dir` whose names end in `suffix`, and how
/// many there are.
fn files_ending_in(dir: &Path, suffix: &str) -> (u64, usize) {
    let lens: Vec<u64> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .map(|p| fs::metadata(&p).expect("metadata").len())
        .collect();
    (lens.iter().sum(), lens.len())
}

#[test]
fn recovery_reads_each_retained_file_once() {
    let dir = temp_dir("read-once");
    let config = JournalConfig { snapshot_every_frames: 200, ..journal_config(&dir) };
    let primary = fleet();
    let (journal, _) = recover_and_attach(&primary, config.clone()).expect("attach");
    for bytes in &encoded_frames(30) {
        primary.apply_frame_bytes(bytes).expect("apply");
    }
    journal.flush().expect("flush");
    drop(primary);
    drop(journal);
    let (snapshot_bytes, snapshots) = files_ending_in(&dir, ".mbdrs");
    let (segment_bytes, segments) = files_ending_in(&dir, ".mbdrj");
    assert_eq!(snapshots, 1, "compaction keeps the newest snapshot only");
    assert!(segments > 1, "a multi-segment tail: {segments}");

    let counting = Arc::new(CountingFs::default());
    let recovered = fleet();
    let (_journal, report) =
        recover_and_attach_with_vfs(&recovered, config, counting.clone()).expect("recovery");
    assert!(report.restored_objects > 0 && report.replayed_frames > 0, "{report:?}");
    assert_eq!(
        counting.read_bytes.load(Ordering::Relaxed),
        snapshot_bytes + segment_bytes,
        "each retained file is read once"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Every file in `dir` with its bytes, sorted by path.
fn dir_image(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .map(|p| (p.clone(), fs::read(&p).expect("read")))
        .collect();
    files.sort();
    files
}

#[test]
fn a_newer_segment_refuses_recovery_after_what_precedes_it_was_applied() {
    // A journal whose snapshot is followed by a three-segment tail.
    let dir = temp_dir("newer-segment");
    let config = JournalConfig { snapshot_every_frames: 0, ..journal_config(&dir) };
    let primary = fleet();
    let (journal, _) = recover_and_attach(&primary, config.clone()).expect("attach");
    let frames = encoded_frames(10);
    let (early, late) = frames.split_at(frames.len() / 2);
    for bytes in early {
        primary.apply_frame_bytes(bytes).expect("apply");
    }
    let floor = journal.begin_forced_snapshot().expect("snapshot slot");
    let entries = [SnapshotEntry {
        object: 0,
        updates_applied: 1,
        bytes_received: 42,
        update: Update {
            sequence: 0,
            state: ObjectState::basic(Point::new(1.0, 2.0), 3.0, 0.0, 0.0),
            kind: UpdateKind::Initial,
        },
    }];
    let mut body = Vec::new();
    encode_snapshot_into(floor, &entries, &mut body).expect("encode snapshot");
    journal.install_snapshot(floor, &body).expect("install");
    for bytes in late {
        primary.apply_frame_bytes(bytes).expect("apply");
    }
    journal.flush().expect("flush");
    drop(primary);
    drop(journal);
    let mut segments: Vec<PathBuf> = dir_image(&dir)
        .into_iter()
        .map(|(path, _)| path)
        .filter(|p| p.to_string_lossy().ends_with(".mbdrj"))
        .collect();
    segments.sort();
    assert!(segments.len() > 2, "a multi-segment tail: {segments:?}");
    let claim_newer_format = |path: &Path| {
        let mut bytes = fs::read(path).expect("read");
        bytes[8..10].copy_from_slice(&(JOURNAL_VERSION + 1).to_be_bytes());
        fs::write(path, &bytes).expect("write back");
    };
    let refuse = |service: &LocationService| {
        let before = dir_image(&dir);
        let refused = recover_and_attach(service, config.clone()).map(|(_, report)| report);
        assert!(
            matches!(
                refused,
                Err(RecoverError::Journal(JournalError::UnsupportedVersion { version, .. }))
                    if version == JOURNAL_VERSION + 1
            ),
            "{refused:?}"
        );
        assert_eq!(dir_image(&dir), before, "a refusal modifies no file");
        assert!(service.journal().is_none(), "nothing attached");
    };

    // The newest segment claims a format this build does not know: the
    // snapshot and the older segments were applied before the refusal, and
    // the index was rebuilt over what they wrote.
    let newest = segments.last().expect("a segment");
    let intact = fs::read(newest).expect("read");
    claim_newer_format(newest);
    let recovered = fleet();
    refuse(&recovered);
    let reporting: Vec<u64> =
        (0..OBJECTS).filter(|&i| recovered.position_of(ObjectId(i), 30.0).is_some()).collect();
    assert!(reporting.len() > 1, "the older segments reached the trackers: {reporting:?}");
    assert_eq!(recovered.indexed_count(), reporting.len());
    let everywhere = Aabb::new(Point::new(-1.0e5, -1.0e5), Point::new(1.0e5, 1.0e5));
    let mut indexed: Vec<u64> =
        recovered.objects_in_rect(&everywhere, 30.0).iter().map(|r| r.object.0).collect();
    indexed.sort_unstable();
    assert_eq!(indexed, reporting);

    // The first segment claims it instead: refused after the snapshot was
    // restored (it is applied before any segment is read) and before any
    // frame was replayed.
    fs::write(newest, &intact).expect("restore the newest segment");
    claim_newer_format(&segments[0]);
    let snapshot_only = fleet();
    refuse(&snapshot_only);
    let reporting: Vec<u64> =
        (0..OBJECTS).filter(|&i| snapshot_only.position_of(ObjectId(i), 30.0).is_some()).collect();
    assert_eq!(reporting, [0], "only the snapshot's one entry");
    assert_eq!(snapshot_only.total_updates(), 1, "its counters, no replayed update");
    assert_eq!(snapshot_only.indexed_count(), 1);
    let _ = fs::remove_dir_all(&dir);
}
