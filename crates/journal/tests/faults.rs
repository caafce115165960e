//! Seeded fault-injection suite: every corruption shape the hand-built
//! `corruption.rs` tests construct by editing bytes on disk is reproduced
//! here *from a seed alone*, by letting [`FaultFs`] strike the journal's own
//! writes at exact operation counts. The one exception is the future
//! format-version refusal — that is a format shape (bytes a newer build
//! wrote), not an I/O fault, so it stays hand-built in `corruption.rs`.
//!
//! Operation-index arithmetic (see the `vfs` module docs for what counts):
//! a fresh open consumes ops 0 (`create_new_append`) and 1 (segment header
//! `write_all`); with a large `PerBatch` fsync budget each append then
//! consumes exactly one op — header and payload in a single `write_all`.

use mbdr_geo::rng::SplitMix64;
use mbdr_journal::{FaultFs, FaultKind, FsyncPolicy, Journal, JournalConfig, RealFs, Vfs, VfsFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// Ops consumed by opening a journal in a fresh directory.
const OPEN_OPS: u64 = 2;
/// Ops consumed per append under a never-firing `PerBatch` fsync policy.
const APPEND_OPS: u64 = 1;

fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("mbdr-journal-faults-{}-{tag}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> JournalConfig {
    JournalConfig {
        dir: dir.to_path_buf(),
        segment_max_bytes: 8 * 1024 * 1024,
        fsync: FsyncPolicy::PerBatch(1000),
        snapshot_every_frames: 0,
    }
}

/// Op index of append `i`'s record write (0-based appends).
fn record_write_op(i: u64) -> u64 {
    OPEN_OPS + APPEND_OPS * i
}

fn replay_payloads(journal: &Journal) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    journal.replay(|_, payload| out.push(payload.to_vec())).expect("replay");
    out
}

/// `truncated_record_is_repaired_and_counted`, from a seed: the last append's
/// write tears mid-record and the rollback fails with it.
#[test]
fn seeded_torn_payload_write_is_repaired_at_reopen() {
    let seed = 42u64;
    let mut rng = SplitMix64::new(seed);
    let appends = 6 + rng.below(8); // 6..=13
    let payload = [0xA5u8; 12];
    // Past the 8-byte record header, short of the full payload.
    let keep = 8 + rng.below(payload.len() as u64 - 1) as usize;

    let dir = temp_dir("torn");
    let faults = FaultFs::over_real();
    faults.schedule_fault(record_write_op(appends - 1), FaultKind::TornWrite { keep });
    let journal = Journal::open_with_vfs(config(&dir), Arc::new(faults.clone())).expect("open");
    for i in 0..appends - 1 {
        journal.append_frame(&payload).unwrap_or_else(|e| panic!("append {i}: {e}"));
    }
    assert!(journal.append_frame(&payload).is_err(), "torn append reports failure");
    assert_eq!(journal.frames_appended(), appends - 1);
    assert_eq!(faults.pending_faults(), 0, "the scheduled fault fired");
    drop(journal);

    let journal = Journal::open(config(&dir)).expect("recovery open");
    assert_eq!(journal.frames_appended(), appends - 1, "torn record truncated away");
    assert_eq!(replay_payloads(&journal).len() as u64, appends - 1);
    assert!(journal.stats().truncated_bytes > 0, "repair is visible in stats");
    journal.append_frame(b"post-repair").expect("appends flow again");
    let _ = fs::remove_dir_all(&dir);
}

/// Header and payload travel in one `write_all`, so a tear can stop at any
/// byte of the record — inside the length, inside the checksum, anywhere in
/// the payload. Every cut is driven twice: with the journal's own rollback
/// succeeding (`ShortWrite`) and with it blocked (`TornWrite`, the crash
/// shape). Either way the append fails, the journal never counts the frame,
/// and both the live repair and a cold reopen replay exactly the records
/// that preceded it; only the blocked case leaves `keep` bytes to truncate.
#[test]
fn record_write_torn_at_every_byte_never_loses_or_invents_a_record() {
    let preceding: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 21]).collect();
    let victim = [0x3Cu8; 21];
    let record_len = 8 + victim.len();
    let clean_len = (18 + preceding.len() * record_len) as u64;

    for keep in 0..record_len {
        for rollback_blocked in [false, true] {
            for live_repair in [false, true] {
                let case = format!("keep {keep}, blocked {rollback_blocked}, live {live_repair}");
                let dir = temp_dir("tear-all");
                let faults = FaultFs::over_real();
                let kind = if rollback_blocked {
                    FaultKind::TornWrite { keep }
                } else {
                    FaultKind::ShortWrite { keep }
                };
                faults.schedule_fault(record_write_op(preceding.len() as u64), kind);
                let journal =
                    Journal::open_with_vfs(config(&dir), Arc::new(faults.clone())).expect("open");
                for payload in &preceding {
                    journal.append_frame(payload).expect("append");
                }
                assert!(journal.append_frame(&victim).is_err(), "{case}: torn append fails");
                assert_eq!(journal.frames_appended(), 3, "{case}");
                let segment = dir.join("seg-00000000000000000000.mbdrj");
                let torn = if rollback_blocked { keep as u64 } else { 0 };
                assert_eq!(fs::metadata(&segment).expect("meta").len(), clean_len + torn, "{case}");

                let mut expected = preceding.clone();
                if live_repair {
                    journal.repair_and_sync().expect("repair");
                    assert_eq!(journal.stats().truncated_bytes, torn, "{case}");
                    assert_eq!(fs::metadata(&segment).expect("meta").len(), clean_len, "{case}");
                    assert_eq!(replay_payloads(&journal), expected, "{case}");
                    // The next record lands right behind the last good one.
                    journal.append_frame(b"after-repair").expect("append after repair");
                    expected.push(b"after-repair".to_vec());
                }
                drop(journal);

                let journal = Journal::open(config(&dir)).expect("reopen");
                let left_behind = if live_repair { 0 } else { torn };
                assert_eq!(journal.stats().truncated_bytes, left_behind, "{case}");
                assert_eq!(replay_payloads(&journal), expected, "{case}");
                drop(journal);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

/// `flipped_checksum_byte_drops_the_record`, from a seed: the disk silently
/// corrupts the last payload byte (BitFlip reports success), so the journal
/// believes the append landed — only the reopen checksum catches it.
#[test]
fn seeded_bit_flip_drops_exactly_the_corrupted_record() {
    let seed = 7u64;
    let mut rng = SplitMix64::new(seed);
    let appends = 5 + rng.below(6); // 5..=10
    let mask = (rng.next_u64() as u8) | 1; // nonzero

    let dir = temp_dir("bitflip");
    let faults = FaultFs::over_real();
    faults.schedule_fault(record_write_op(appends - 1), FaultKind::BitFlip { mask });
    let journal = Journal::open_with_vfs(config(&dir), Arc::new(faults.clone())).expect("open");
    for i in 0..appends {
        journal.append_frame(&[i as u8; 9]).expect("silent corruption still reports Ok");
    }
    assert_eq!(journal.frames_appended(), appends, "the writer was lied to");
    drop(journal);

    let journal = Journal::open(config(&dir)).expect("recovery open");
    assert_eq!(journal.frames_appended(), appends - 1, "checksum failure truncates there");
    assert_eq!(replay_payloads(&journal).len() as u64, appends - 1);
    assert!(journal.stats().truncated_bytes > 0);
    let _ = fs::remove_dir_all(&dir);
}

/// ENOSPC strikes a record write: the append fails with nothing written, its
/// own rollback is a no-op, and the log stays byte-clean — later appends and
/// the reopen see no damage at all.
#[test]
fn seeded_enospc_fails_cleanly_without_torn_bytes() {
    let seed = 11u64;
    let mut rng = SplitMix64::new(seed);
    let victim = 2 + rng.below(4); // append 2..=5 of 8

    let dir = temp_dir("enospc");
    let faults = FaultFs::over_real();
    faults.schedule_fault(record_write_op(victim), FaultKind::NoSpace);
    let journal = Journal::open_with_vfs(config(&dir), Arc::new(faults.clone())).expect("open");
    let mut ok = 0u64;
    for i in 0..8u8 {
        match journal.append_frame(&[i; 10]) {
            Ok(()) => ok += 1,
            Err(err) => assert!(
                format!("{err}").contains("no space"),
                "expected the injected ENOSPC, got: {err}"
            ),
        }
    }
    assert_eq!(ok, 7, "exactly the victim append failed");
    assert_eq!(journal.frames_appended(), 7);
    journal.flush().expect("flush");
    drop(journal);

    let journal = Journal::open(config(&dir)).expect("recovery open");
    assert_eq!(journal.frames_appended(), 7);
    assert_eq!(journal.stats().truncated_bytes, 0, "the rollback left no torn bytes");
    let _ = fs::remove_dir_all(&dir);
}

/// An fsync failure *after* the record bytes landed: the append reports an
/// error (conservative — the caller must not assume durability), yet the
/// record is on disk and survives the reopen. The frame counter and the disk
/// agree; nothing is double-counted.
#[test]
fn seeded_fsync_failure_is_conservative_but_loses_nothing() {
    let seed = 3u64;
    let mut rng = SplitMix64::new(seed);
    let victim = 1 + rng.below(4); // append 1..=4 of 6
                                   // PerFrame: each append consumes record write, sync → 2 ops.
    let sync_op = OPEN_OPS + 2 * victim + 1;

    let dir = temp_dir("fsync");
    let mut config = config(&dir);
    config.fsync = FsyncPolicy::PerFrame;
    let faults = FaultFs::over_real();
    faults.schedule_fault(sync_op, FaultKind::FailFsync);
    let journal = Journal::open_with_vfs(config.clone(), Arc::new(faults.clone())).expect("open");
    let mut failures = 0u64;
    for i in 0..6u8 {
        if journal.append_frame(&[i; 8]).is_err() {
            failures += 1;
        }
    }
    assert_eq!(failures, 1, "only the victim append reported the fsync failure");
    assert_eq!(journal.frames_appended(), 6, "the bytes were written before the sync");
    drop(journal);

    let journal = Journal::open(config).expect("recovery open");
    assert_eq!(journal.frames_appended(), 6, "no record was actually lost");
    assert_eq!(journal.stats().truncated_bytes, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// `corrupt_snapshot_is_ignored_in_favor_of_the_log`, from a seed: the disk
/// flips a bit in the snapshot body on its way down; install reports success,
/// and the reopen discards the snapshot while the log still replays.
#[test]
fn seeded_snapshot_bit_flip_is_ignored_in_favor_of_the_log() {
    let seed = 19u64;
    let mut rng = SplitMix64::new(seed);
    let appends = 4 + rng.below(5); // 4..=8
    let mask = (rng.next_u64() as u8) | 1;
    // Install ops: create, header write, body write, sync_all, rename.
    let body_write_op = OPEN_OPS + APPEND_OPS * appends + 2;

    let dir = temp_dir("snap-flip");
    let faults = FaultFs::over_real();
    faults.schedule_fault(body_write_op, FaultKind::BitFlip { mask });
    let journal = Journal::open_with_vfs(config(&dir), Arc::new(faults.clone())).expect("open");
    for i in 0..appends {
        journal.append_frame(&[i as u8; 11]).expect("append");
    }
    let frames = journal.begin_forced_snapshot().expect("slot free");
    journal.install_snapshot(frames, b"tracker-state").expect("install believes the disk");
    journal.flush().expect("flush");
    drop(journal);

    let journal = Journal::open(config(&dir)).expect("recovery open");
    assert!(journal.load_snapshot().expect("no error").is_none(), "corrupt snapshot ignored");
    assert_eq!(journal.recovered_snapshot_frames(), None);
    assert_eq!(replay_payloads(&journal).len() as u64, appends, "the log still covers it");
    let _ = fs::remove_dir_all(&dir);
}

/// A rename failure during snapshot install: the install reports a typed
/// error, the temp file is swept at the next open, and no snapshot shadows
/// the log.
#[test]
fn seeded_rename_failure_aborts_snapshot_install() {
    let appends = 5u64;
    let rename_op = OPEN_OPS + APPEND_OPS * appends + 4;

    let dir = temp_dir("rename");
    let faults = FaultFs::over_real();
    faults.schedule_fault(rename_op, FaultKind::FailRename);
    let journal = Journal::open_with_vfs(config(&dir), Arc::new(faults.clone())).expect("open");
    for i in 0..appends {
        journal.append_frame(&[i as u8; 7]).expect("append");
    }
    let frames = journal.begin_forced_snapshot().expect("slot free");
    assert!(journal.install_snapshot(frames, b"body").is_err(), "rename fault surfaces");
    assert_eq!(journal.stats().snapshots, 0);
    journal.flush().expect("flush");
    drop(journal);

    let tmp_count = fs::read_dir(&dir)
        .expect("read dir")
        .filter(|e| e.as_ref().is_ok_and(|e| e.path().extension().is_some_and(|ext| ext == "tmp")))
        .count();
    assert_eq!(tmp_count, 1, "the orphaned temp file is on disk before reopen");
    let journal = Journal::open(config(&dir)).expect("recovery open");
    assert!(journal.load_snapshot().expect("no error").is_none());
    assert_eq!(replay_payloads(&journal).len() as u64, appends);
    let tmp_count = fs::read_dir(&dir)
        .expect("read dir")
        .filter(|e| e.as_ref().is_ok_and(|e| e.path().extension().is_some_and(|ext| ext == "tmp")))
        .count();
    assert_eq!(tmp_count, 0, "reopen swept the temp file");
    let _ = fs::remove_dir_all(&dir);
}

/// `garbage_and_partial_header_segments_are_discarded`, from a seed: a torn
/// write during rotation's segment-header write — with the best-effort
/// cleanup blocked too — leaves a partial-header orphan segment, exactly what
/// a crash mid-creation leaves. `repair_and_sync` (the degraded-mode probe's
/// disk half) removes it without a restart.
#[test]
fn seeded_partial_header_segment_from_failed_rotation_is_repaired() {
    let dir = temp_dir("rotation");
    let mut config = config(&dir);
    config.segment_max_bytes = 64; // 18-byte header + 24-byte records: rotate on append 1
    let faults = FaultFs::over_real();
    // Append 0: op 2 (record). Append 1 rotates first: sync_data=3,
    // create_new_append=4, segment-header write=5 (torn), then the cleanup
    // remove_file=6 (blocked so the orphan persists on disk).
    faults.schedule_fault(5, FaultKind::TornWrite { keep: 5 });
    faults.schedule_fault(6, FaultKind::FailRename);
    let journal = Journal::open_with_vfs(config.clone(), Arc::new(faults.clone())).expect("open");
    journal.append_frame(&[1u8; 16]).expect("append 0");
    assert!(journal.append_frame(&[2u8; 16]).is_err(), "rotation fault surfaces");
    assert_eq!(journal.frames_appended(), 1);
    let orphans = fs::read_dir(&dir)
        .expect("read dir")
        .filter(|e| {
            e.as_ref().is_ok_and(|e| e.path().extension().is_some_and(|ext| ext == "mbdrj"))
        })
        .count();
    assert_eq!(orphans, 2, "the partial-header orphan segment is on disk");

    // The live repair path removes the orphan and re-syncs the tail.
    journal.repair_and_sync().expect("repair");
    assert_eq!(journal.stats().truncated_bytes, 5, "orphan bytes counted");
    journal.append_frame(&[3u8; 16]).expect("appends flow again");
    journal.flush().expect("flush");
    drop(journal);

    let journal = Journal::open(config).expect("recovery open");
    assert_eq!(replay_payloads(&journal).len(), 2, "both real frames survive");
    let _ = fs::remove_dir_all(&dir);
}

/// The determinism contract itself: an arbitrary seed-derived schedule run
/// twice produces byte-identical logs, identical counters, and identical
/// injected-fault counts.
#[test]
fn seeded_schedules_replay_byte_identically() {
    fn run(seed: u64, dir: &Path) -> (Vec<Vec<u8>>, u64, u64) {
        let faults = FaultFs::over_real();
        faults.schedule_from_seed(seed, OPEN_OPS, 40, 6);
        let journal = Journal::open_with_vfs(config(dir), Arc::new(faults.clone())).expect("open");
        for i in 0..24u8 {
            // record_frame: the availability-over-durability wrapper.
            let _ = journal.record_frame(&[i; 13]);
        }
        let _ = journal.flush();
        let frames = journal.frames_appended();
        let injected = faults.injected_faults();
        drop(journal);
        let journal = Journal::open(config(dir)).expect("reopen");
        (replay_payloads(&journal), frames, injected)
    }

    let dir_a = temp_dir("det-a");
    let dir_b = temp_dir("det-b");
    let (log_a, frames_a, injected_a) = run(0xDEAD_BEEF, &dir_a);
    let (log_b, frames_b, injected_b) = run(0xDEAD_BEEF, &dir_b);
    assert_eq!(log_a, log_b, "same seed, same surviving records");
    assert_eq!(frames_a, frames_b);
    assert_eq!(injected_a, injected_b);
    assert!(injected_a > 0, "the schedule actually fired");

    let dir_c = temp_dir("det-c");
    let (log_c, _, _) = run(0xFEED_FACE, &dir_c);
    assert!(log_a != log_c || replay_is_trivial(&log_a), "a different seed takes a different path");
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
    let _ = fs::remove_dir_all(&dir_c);
}

fn replay_is_trivial(log: &[Vec<u8>]) -> bool {
    log.len() == 24 // every fault missed the write path; nothing to compare
}

/// A passthrough [`Vfs`] over [`RealFs`] that logs the directory-changing
/// operations and the directory syncs, in the order the journal makes them.
#[derive(Default)]
struct Recording {
    log: Mutex<Vec<&'static str>>,
}

impl Recording {
    fn note(&self, op: &'static str) {
        self.log.lock().expect("log lock").push(op);
    }
}

impl Vfs for Recording {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealFs.open_append(path)
    }
    fn create_new_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.note("create_segment");
        RealFs.create_new_append(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.note("create");
        RealFs.create(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.note("rename");
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.note("remove_file");
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
        self.note("sync_dir");
        RealFs.sync_dir(dir)
    }
    fn now_nanos(&self) -> u64 {
        RealFs.now_nanos()
    }
}

#[test]
fn directory_syncs_follow_new_segments_and_precede_compaction() {
    let dir = temp_dir("sync-dir");
    let recording = Arc::new(Recording::default());
    let config = JournalConfig { segment_max_bytes: 64, ..config(&dir) };
    let journal = Journal::open_with_vfs(config, recording.clone()).expect("open");
    for round in 0..3u8 {
        for i in 0..6u8 {
            journal.append_frame(&[round, i, 0xAB, 0xCD]).expect("append");
        }
        let frames = journal.begin_forced_snapshot().expect("snapshot slot");
        journal.install_snapshot(frames, &[round; 8]).expect("install");
    }
    let fsyncs = journal.stats().fsyncs;
    drop(journal);
    let log = recording.log.lock().expect("log lock").clone();
    assert!(log.iter().filter(|op| **op == "create_segment").count() > 3, "{log:?}");
    assert_eq!(log.iter().filter(|op| **op == "rename").count(), 3, "{log:?}");
    assert!(log.contains(&"remove_file"), "compaction unlinked segments: {log:?}");
    for (at, op) in log.iter().enumerate() {
        let next = log.get(at + 1).copied();
        match *op {
            "create_segment" => assert_eq!(next, Some("sync_dir"), "op {at} of {log:?}"),
            "rename" => assert_eq!(next, Some("sync_dir"), "op {at} of {log:?}"),
            _ => {}
        }
    }
    // Directory syncs are not data fsyncs: the counter holds one per
    // rotation and one per snapshot file, as before.
    let rotations = log.iter().filter(|op| **op == "create_segment").count() as u64 - 1;
    assert_eq!(fsyncs, rotations + 3);

    // FaultFs forwards the sync without consuming an operation index, and
    // refuses it only while the disk is dead.
    let faults = FaultFs::over_real();
    let ops = faults.ops();
    faults.sync_dir(&dir).expect("live disk syncs");
    assert_eq!(faults.ops(), ops, "sync_dir consumes no operation index");
    faults.set_dead(true);
    assert!(faults.sync_dir(&dir).is_err(), "a dead disk refuses the sync");
    assert_eq!(faults.ops(), ops);
    let _ = fs::remove_dir_all(&dir);
}
