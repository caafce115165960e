//! The torn-write corruption suite: every way a crash (or a hostile editor)
//! can mangle journal files must recover with typed errors and counted
//! truncation — never a panic, never silent acceptance of bad records.

use mbdr_journal::{
    FsyncPolicy, Journal, JournalConfig, JournalError, RealFs, Retained, JOURNAL_VERSION,
    SEGMENT_MAGIC,
};
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("mbdr-journal-corruption-{}-{tag}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> JournalConfig {
    JournalConfig {
        dir: dir.to_path_buf(),
        segment_max_bytes: 8 * 1024 * 1024,
        fsync: FsyncPolicy::PerBatch(4),
        snapshot_every_frames: 0,
    }
}

/// Appends `n` deterministic frames and closes the journal.
fn seed_journal(config: &JournalConfig, n: u8) {
    let journal = Journal::open(config.clone()).expect("seed open");
    for i in 0..n {
        journal.append_frame(&[i, 0xAB, i, 0xCD, i]).expect("seed append");
    }
    journal.flush().expect("seed flush");
}

fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "mbdrj"))
        .collect();
    out.sort();
    out
}

/// Opens `config` on the real filesystem and returns the snapshot the open
/// scan handed over, as `(frames, body)`.
fn open_taking_snapshot(config: JournalConfig) -> (Journal, Option<(u64, Vec<u8>)>) {
    let mut snapshot = None;
    let journal = Journal::open_and_recover(config, Arc::new(RealFs), |item| {
        if let Retained::Snapshot { frames, body } = item {
            snapshot = Some((frames, body.to_vec()));
        }
        Ok::<(), JournalError>(())
    })
    .expect("open");
    (journal, snapshot)
}

fn replay_count(journal: &Journal) -> u64 {
    journal.replay(|_, _| {}).expect("replay")
}

#[test]
fn truncated_record_is_repaired_and_counted() {
    let dir = temp_dir("truncated");
    let config = config(&dir);
    seed_journal(&config, 10);
    let segment = segment_paths(&dir).pop().expect("segment exists");
    let len = fs::metadata(&segment).expect("meta").len();
    // Chop into the middle of the last record: a torn write.
    let file = OpenOptions::new().write(true).open(&segment).expect("open");
    file.set_len(len - 3).expect("truncate");
    drop(file);

    let journal = Journal::open(config).expect("recovery open");
    assert_eq!(journal.frames_appended(), 9, "last record was torn away");
    assert_eq!(replay_count(&journal), 9);
    let stats = journal.stats();
    assert!(stats.truncated_bytes > 0, "repair must be visible: {stats:?}");
    // The repaired journal accepts appends again.
    journal.append_frame(b"post-repair").expect("append after repair");
    assert_eq!(journal.frames_appended(), 10);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_checksum_byte_drops_the_record() {
    let dir = temp_dir("crc");
    let config = config(&dir);
    seed_journal(&config, 10);
    let segment = segment_paths(&dir).pop().expect("segment exists");
    let mut bytes = fs::read(&segment).expect("read");
    // Flip one payload byte of the final record: its CRC no longer matches.
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&segment, &bytes).expect("write back");

    let journal = Journal::open(config).expect("recovery open");
    assert_eq!(journal.frames_appended(), 9, "checksum failure truncates there");
    assert_eq!(replay_count(&journal), 9);
    assert!(journal.stats().truncated_bytes > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_tail_is_truncated_without_losing_valid_records() {
    let dir = temp_dir("garbage-tail");
    let config = config(&dir);
    seed_journal(&config, 10);
    let segment = segment_paths(&dir).pop().expect("segment exists");
    let mut file = OpenOptions::new().append(true).open(&segment).expect("open");
    file.write_all(&[0xFFu8; 64]).expect("garbage");
    drop(file);

    let journal = Journal::open(config).expect("recovery open");
    assert_eq!(journal.frames_appended(), 10, "every valid record survives");
    assert_eq!(replay_count(&journal), 10);
    assert_eq!(journal.stats().truncated_bytes, 64);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_partial_header_segments_are_discarded() {
    let dir = temp_dir("bad-segment");
    let config = config(&dir);
    seed_journal(&config, 5);
    // Two bogus later segments: one pure junk, one cut off mid-header —
    // both what a crash during segment creation can leave behind.
    fs::write(dir.join("seg-00000000000000000005.mbdrj"), b"not a journal segment").unwrap();
    fs::write(dir.join("seg-00000000000000000099.mbdrj"), &SEGMENT_MAGIC[..5]).unwrap();

    let journal = Journal::open(config).expect("recovery open");
    assert_eq!(journal.frames_appended(), 5);
    assert_eq!(replay_count(&journal), 5);
    assert!(journal.stats().truncated_bytes > 0);
    assert_eq!(segment_paths(&dir).len(), 1, "bogus segments deleted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corruption_in_an_early_segment_discards_everything_after_it() {
    let dir = temp_dir("mid-log");
    let mut config = config(&dir);
    config.segment_max_bytes = 64; // many small segments
    seed_journal(&config, 20);
    let segments = segment_paths(&dir);
    assert!(segments.len() > 2, "need a multi-segment log, got {}", segments.len());
    // Corrupt a record in the SECOND segment: everything from that point on
    // is unreachable (records only become durable in order).
    let victim = &segments[1];
    let mut bytes = fs::read(victim).expect("read");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(victim, &bytes).expect("write back");

    let journal = Journal::open(config).expect("recovery open");
    let survivors = replay_count(&journal);
    assert!(survivors < 20, "later segments must not be replayed");
    assert_eq!(journal.frames_appended(), survivors);
    assert!(journal.stats().truncated_bytes > 0);
    // New appends continue from the repaired tail and survive a reopen.
    journal.append_frame(b"after-mid-log-repair").expect("append");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_format_version_is_a_typed_refusal_not_a_repair() {
    let dir = temp_dir("version");
    let config = config(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&SEGMENT_MAGIC);
    header.extend_from_slice(&(JOURNAL_VERSION + 1).to_be_bytes());
    header.extend_from_slice(&0u64.to_be_bytes());
    let path = dir.join("seg-00000000000000000000.mbdrj");
    fs::write(&path, &header).unwrap();

    let err = match Journal::open(config) {
        Ok(_) => panic!("newer format must refuse"),
        Err(err) => err,
    };
    assert!(
        matches!(err, JournalError::UnsupportedVersion { version, .. } if version == JOURNAL_VERSION + 1),
        "wrong error: {err}"
    );
    // Crucially the file was NOT deleted or truncated: a newer build's data
    // is never destructively "repaired" by an older one.
    assert_eq!(fs::read(&path).unwrap(), header);
    let _ = fs::remove_dir_all(&dir);
}

/// Every segment file in `dir` with its bytes: what a crash between a
/// snapshot's rename and compaction's unlinks keeps on disk.
fn segment_images(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    segment_paths(dir).into_iter().map(|p| (p.clone(), fs::read(&p).unwrap())).collect()
}

/// Puts back the segments `images` holds, as if the unlinks that deleted
/// them never reached the disk.
fn restore(images: &[(PathBuf, Vec<u8>)]) {
    for (path, bytes) in images {
        fs::write(path, bytes).unwrap();
    }
}

/// The snapshot file of `frames` holding `body`, written into `dir` beside
/// whatever segments are there — the layout a build from before snapshot
/// grants started segments left, where a segment straddles the floor. The
/// file is made by a scratch journal of `frames` appends, so its bytes are
/// the ones the journal writes.
fn place_snapshot(dir: &Path, frames: u8, body: &[u8]) {
    let scratch = temp_dir("snapshot-maker");
    let journal = Journal::open(config(&scratch)).expect("scratch open");
    for i in 0..frames {
        journal.append_frame(&[i]).expect("scratch append");
    }
    let granted = journal.begin_forced_snapshot().expect("snapshot slot");
    journal.install_snapshot(granted, body).expect("scratch install");
    drop(journal);
    let name = format!("snap-{:020}.mbdrs", frames);
    fs::copy(scratch.join(&name), dir.join(&name)).expect("place snapshot");
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn corrupt_snapshot_is_ignored_in_favor_of_the_log() {
    let dir = temp_dir("snapshot");
    let mut config = config(&dir);
    config.snapshot_every_frames = 4;
    let journal = Journal::open(config.clone()).expect("open");
    for i in 0..6u8 {
        journal.append_frame(&[i; 12]).expect("append");
    }
    journal.flush().expect("flush");
    let covered = segment_images(&dir);
    let frames = journal.begin_snapshot().expect("snapshot due");
    journal.install_snapshot(frames, b"tracker-state").expect("install");
    drop(journal);
    // A crash between the rename and the unlinks: the log still reaches
    // back past the snapshot.
    restore(&covered);
    // Flip a byte inside the snapshot body: checksum now fails.
    let snap: PathBuf = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "mbdrs"))
        .expect("snapshot file");
    let mut bytes = fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    fs::write(&snap, &bytes).unwrap();

    let (journal, snapshot) = open_taking_snapshot(config);
    assert_eq!(snapshot, None, "corrupt snapshot ignored");
    // The un-compacted log still replays, every frame of it.
    assert_eq!(replay_count(&journal), 6);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash after a snapshot's rename but before compaction's unlinks leaves
/// segments that hold covered frames only. The open scan does not read
/// them, hands over exactly the frames past the floor, and deletes them.
#[test]
fn an_interrupted_compaction_is_finished_at_open() {
    let dir = temp_dir("interrupted-compaction");
    let config = JournalConfig { segment_max_bytes: 64, ..config(&dir) };
    let journal = Journal::open(config.clone()).expect("open");
    for i in 0..7u8 {
        journal.append_frame(&[i; 12]).expect("append");
    }
    journal.flush().expect("flush");
    let covered = segment_images(&dir);
    assert!(covered.len() > 2, "a multi-segment log: {}", covered.len());
    let frames = journal.begin_forced_snapshot().expect("snapshot slot");
    journal.install_snapshot(frames, b"state at 7").expect("install");
    for i in 7..9u8 {
        journal.append_frame(&[i; 12]).expect("append");
    }
    journal.flush().expect("flush");
    drop(journal);
    let tail = segment_paths(&dir);
    restore(&covered);

    let mut handed = Vec::new();
    let journal = Journal::open_and_recover(config, Arc::new(RealFs), |item| {
        if let Retained::Segment(records) = item {
            handed.extend(records.map(|(index, _)| index));
        }
        Ok::<(), JournalError>(())
    })
    .expect("open");
    assert_eq!(handed, [7, 8], "only the frames past the floor are handed over");
    assert_eq!(journal.stats().truncated_bytes, 0, "finishing compaction truncates nothing");
    assert_eq!(segment_paths(&dir), tail, "the covered segments are gone");
    assert_eq!(journal.frames_appended(), 9);
    let _ = fs::remove_dir_all(&dir);
}

/// A covered segment that a crash left behind is never read, so a flipped
/// byte inside it truncates nothing: the uncovered segments after it
/// survive whole.
#[test]
fn a_flipped_byte_in_a_wholly_covered_segment_truncates_nothing() {
    let dir = temp_dir("covered-flip");
    let config = JournalConfig { segment_max_bytes: 64, ..config(&dir) };
    let journal = Journal::open(config.clone()).expect("open");
    for i in 0..5u8 {
        journal.append_frame(&[i; 12]).expect("append");
    }
    journal.flush().expect("flush");
    let covered = segment_images(&dir);
    let frames = journal.begin_forced_snapshot().expect("snapshot slot");
    journal.install_snapshot(frames, b"state at 5").expect("install");
    for i in 5..12u8 {
        journal.append_frame(&[i; 12]).expect("append");
    }
    journal.flush().expect("flush");
    drop(journal);
    restore(&covered);
    let (first, bytes) = covered.first().expect("a covered segment");
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    fs::write(first, &flipped).unwrap();

    let journal = Journal::open(config).expect("open");
    assert_eq!(journal.stats().truncated_bytes, 0);
    assert_eq!(journal.frames_appended(), 12);
    let mut seen = Vec::new();
    journal.replay(|index, payload| seen.push((index, payload.to_vec()))).expect("replay");
    let expected: Vec<(u64, Vec<u8>)> = (5..12u8).map(|i| (u64::from(i), vec![i; 12])).collect();
    assert_eq!(seen, expected, "every uncovered frame survives");
    assert!(!first.exists(), "the covered segment was deleted, not repaired");
    let _ = fs::remove_dir_all(&dir);
}

/// Every file in `dir` with its bytes, sorted by name.
fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), fs::read(&p).unwrap()))
        .collect();
    out.sort();
    out
}

#[test]
fn corrupt_snapshot_over_a_compacted_log_is_a_typed_refusal() {
    let dir = temp_dir("snapshot-compacted");
    let mut config = config(&dir);
    config.segment_max_bytes = 64; // two 20-byte records per segment
    config.snapshot_every_frames = 4;
    let journal = Journal::open(config.clone()).expect("open");
    for i in 0..7u8 {
        journal.append_frame(&[i; 12]).expect("append");
    }
    let frames = journal.begin_snapshot().expect("snapshot due");
    journal.install_snapshot(frames, b"tracker-state").expect("install");
    journal.flush().expect("flush");
    drop(journal);
    let first = segment_paths(&dir).into_iter().next().expect("a segment survives");
    assert!(
        !first.ends_with("seg-00000000000000000000.mbdrj"),
        "compaction must have deleted segment 0, oldest is {}",
        first.display()
    );
    // Flip a byte inside the snapshot body: the only copy of the compacted
    // frames' effect no longer validates.
    let snap = dir.join(format!("snap-{frames:020}.mbdrs"));
    let mut bytes = fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    fs::write(&snap, &bytes).unwrap();
    let before = dir_image(&dir);

    let err = match Journal::open(config) {
        Ok(_) => panic!("a log with a hole below it must not open as if it were whole"),
        Err(err) => err,
    };
    assert!(
        matches!(&err, JournalError::Corrupt { path, .. } if *path == first),
        "wrong error: {err}"
    );
    // No destructive repair: the corrupt snapshot and every segment are
    // exactly as they were, for an operator (or a newer build) to salvage.
    assert_eq!(dir_image(&dir), before);
    let _ = fs::remove_dir_all(&dir);
}

/// A grant that ends the traffic leaves a last segment that is all header,
/// so a byte flipped at the file's end lands in its base. Whether that base
/// now reads above or below the snapshot's floor, the header no longer
/// matches the file's name: the segment is discarded as a torn tail and the
/// journal opens at the snapshot's frame count.
#[test]
fn a_torn_base_in_a_record_less_segment_is_discarded() {
    for mask in [0xA5u8, 0x04] {
        let dir = temp_dir("torn-base");
        let config = config(&dir);
        let journal = Journal::open(config.clone()).expect("open");
        for i in 0..5u8 {
            journal.append_frame(&[i; 12]).expect("append");
        }
        let frames = journal.begin_forced_snapshot().expect("snapshot slot");
        journal.install_snapshot(frames, b"state at 5").expect("install");
        drop(journal);
        let segments = segment_paths(&dir);
        assert_eq!(segments.len(), 1, "{segments:?}");
        let mut bytes = fs::read(&segments[0]).unwrap();
        assert_eq!(bytes.len(), 18, "the grant's segment is all header");
        bytes[17] ^= mask;
        fs::write(&segments[0], &bytes).unwrap();

        let (journal, snapshot) = open_taking_snapshot(config.clone());
        assert_eq!(snapshot, Some((5, b"state at 5".to_vec())), "mask {mask:#x}");
        assert_eq!(journal.frames_appended(), 5, "mask {mask:#x}");
        assert_eq!(journal.stats().truncated_bytes, 18, "mask {mask:#x}");
        journal.append_frame(b"after").expect("append");
        drop(journal);
        let journal = Journal::open(config).expect("reopen");
        let mut seen = Vec::new();
        journal.replay(|index, payload| seen.push((index, payload.to_vec()))).expect("replay");
        assert_eq!(seen, [(5, b"after".to_vec())], "mask {mask:#x}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_log_repaired_below_the_snapshot_floor_keeps_every_later_frame() {
    let dir = temp_dir("below-floor");
    // 12-byte payloads make 20-byte records: 20 records fill a segment.
    let config = JournalConfig {
        segment_max_bytes: 18 + 20 * 20,
        fsync: FsyncPolicy::PerBatch(1),
        ..config(&dir)
    };
    let journal = Journal::open(config.clone()).expect("open");
    for i in 0..35u8 {
        journal.append_frame(&[i; 12]).expect("append");
    }
    drop(journal);
    // What a build from before snapshot grants started segments left: a
    // snapshot at 30, the segment below 20 compacted, and the segment based
    // at 20 (records 20..35) straddling the floor.
    place_snapshot(&dir, 30, b"state at 30");
    let segments = segment_paths(&dir);
    assert_eq!(segments.len(), 2, "{segments:?}");
    fs::remove_file(&segments[0]).expect("compact segment 0");
    assert!(segments[1].ends_with("seg-00000000000000000020.mbdrj"));
    // The scan hands over, and counts, only the records from the floor on.
    let mut handed = Vec::new();
    let journal = Journal::open_and_recover(config.clone(), Arc::new(RealFs), |item| {
        if let Retained::Segment(records) = item {
            handed.extend(records.map(|(index, _)| index));
        }
        Ok::<(), JournalError>(())
    })
    .expect("open");
    assert_eq!(handed, (30..35).collect::<Vec<u64>>());
    assert_eq!(journal.stats().recovered_frames, 5);
    drop(journal);
    // The records below the floor are still checksummed. Flip the last
    // payload byte of record 25: the log now ends below the floor.
    let mut bytes = fs::read(&segments[1]).expect("read");
    bytes[18 + 5 * 20 + 19] ^= 0x01;
    fs::write(&segments[1], &bytes).expect("write back");

    let (journal, snapshot) = open_taking_snapshot(config.clone());
    assert_eq!(snapshot, Some((30, b"state at 30".to_vec())));
    assert_eq!(journal.frames_appended(), 30, "the snapshot covers up to 30");
    assert_eq!(journal.stats().truncated_bytes, 10 * 20, "records 25..35 are torn away");
    for i in 0..40u8 {
        journal.append_frame(&[100 + i; 12]).expect("append after repair");
    }
    journal.flush().expect("flush");
    drop(journal);

    let journal = Journal::open(config).expect("third open");
    assert_eq!(journal.stats().truncated_bytes, 0, "nothing acknowledged is discarded");
    assert_eq!(journal.frames_appended(), 70);
    let mut seen = Vec::new();
    journal.replay(|index, payload| seen.push((index, payload.to_vec()))).expect("replay");
    let expected: Vec<(u64, Vec<u8>)> =
        (0..40u8).map(|i| (30 + u64::from(i), vec![100 + i; 12])).collect();
    assert_eq!(seen, expected, "every post-repair frame replays at its own index");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn errors_render_human_readable_messages() {
    let io = JournalError::Io(std::io::Error::other("disk on fire"));
    assert!(format!("{io}").contains("disk on fire"));
    let record = JournalError::RecordTooLarge { len: 7 };
    assert!(format!("{record}").contains('7'));
}
