//! The on-disk format is pinned by bytes, not only by constants:
//! `fixtures/journal-v1/` is a journal directory written by the build that
//! preceded the slicing-by-8 checksum and the single-write append, in format
//! version 1. This build must read it back clean; its open rewrites no file
//! and adds exactly one segment, of its own version, holding no record yet,
//! at the next frame index, so it never appends to a version-1 segment.
//! `fixtures/journal-v2/` was written
//! by the same call sequence in format version 2 (the version that marks
//! segments of the second frame layout), by the build before snapshot grants
//! started segments: its first segment straddles the snapshot's floor. This
//! build must read both back clean. `fixtures/journal-v2-aligned/` holds what
//! this build writes for that call sequence — the grant at frame 3 starts a
//! segment and compaction deletes the one below — and it must write the very
//! same bytes again; every record and the snapshot in it are byte-identical
//! to the ones in `journal-v2/`, so only the segment boundaries moved.

use mbdr_journal::{
    FsyncPolicy, Journal, JournalConfig, JournalError, RealFs, Retained, JOURNAL_VERSION,
    SEGMENT_MAGIC,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const RECORDS: u8 = 6;
const SNAPSHOT_AFTER: u8 = 3;

fn payload(i: u8) -> Vec<u8> {
    (0..10 + 7 * usize::from(i)).map(|b| (b as u8).wrapping_mul(31).wrapping_add(i)).collect()
}

fn snapshot_body() -> Vec<u8> {
    (0u8..100).map(|b| b.wrapping_mul(7) ^ 0x5A).collect()
}

fn config(dir: &Path) -> JournalConfig {
    JournalConfig {
        dir: dir.to_path_buf(),
        segment_max_bytes: 160, // rotates before record 4
        fsync: FsyncPolicy::PerBatch(4),
        snapshot_every_frames: 0,
    }
}

/// The exact call sequence that produced the committed fixture.
fn write_reference_journal(dir: &Path) {
    let journal = Journal::open(config(dir)).expect("open");
    for i in 0..RECORDS {
        if i == SNAPSHOT_AFTER {
            let frames = journal.begin_forced_snapshot().expect("slot free");
            journal.install_snapshot(frames, &snapshot_body()).expect("install");
        }
        journal.append_frame(&payload(i)).expect("append");
    }
    journal.flush().expect("flush");
}

fn fixture_dir(version: u16) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/journal-v{version}"))
}

/// The fixture this build writes: segments start at snapshot grants.
fn aligned_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal-v2-aligned")
}

/// A scratch copy of the fixture of `version`.
fn fixture_copy(version: u16, tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    for (name, bytes) in dir_image(&fixture_dir(version)) {
        fs::write(dir.join(name), bytes).expect("copy fixture");
    }
    dir
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mbdr-journal-fixture-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
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

/// Records as `(frame index, payload)`.
type OwnedRecords = Vec<(u64, Vec<u8>)>;

/// What one open scan handed over: the snapshot as `(frames, body)`, and
/// each segment's format version with its records.
#[derive(Debug, Default)]
struct Scanned {
    snapshot: Option<(u64, Vec<u8>)>,
    segments: Vec<(u16, OwnedRecords)>,
}

/// Opens `config` on the real filesystem and returns what the scan handed
/// over.
fn open_scanned(config: JournalConfig) -> (Journal, Scanned) {
    let mut scanned = Scanned::default();
    let journal = Journal::open_and_recover(config, Arc::new(RealFs), |item| {
        match item {
            Retained::Snapshot { frames, body } => scanned.snapshot = Some((frames, body.to_vec())),
            Retained::Segment(records) => {
                let version = records.version();
                scanned.segments.push((version, records.map(|(i, p)| (i, p.to_vec())).collect()));
            }
        }
        Ok::<(), JournalError>(())
    })
    .expect("open");
    (journal, scanned)
}

/// Opens a copy of the fixture of `version`, checks it reads back clean with
/// every segment of that version, and returns the open journal.
fn open_fixture_clean(version: u16, dir: &Path) -> Journal {
    let (journal, scanned) = open_scanned(config(dir));
    assert_eq!(journal.stats().truncated_bytes, 0, "every record and the snapshot validate");
    assert_eq!(journal.frames_appended(), u64::from(RECORDS));
    let snapshot = Some((u64::from(SNAPSHOT_AFTER), snapshot_body()));
    assert_eq!(scanned.snapshot, snapshot, "snapshot present");
    assert!(scanned.segments.iter().all(|(v, _)| *v == version), "{:?}", scanned.segments);
    let mut seen = Vec::new();
    journal.replay(|index, bytes| seen.push((index, bytes.to_vec()))).expect("replay");
    let expected: OwnedRecords = (0..RECORDS).map(|i| (u64::from(i), payload(i))).collect();
    assert_eq!(seen, expected);
    journal
}

#[test]
fn journal_written_by_the_previous_build_opens_clean_and_replays() {
    for version in [1, JOURNAL_VERSION] {
        // Open a copy: open positions a writer on the last segment.
        let dir = fixture_copy(version, "read");
        drop(open_fixture_clean(version, &dir));
        let mut expected = dir_image(&fixture_dir(version));
        if version < JOURNAL_VERSION {
            // The writer never sits on an older segment: open starts one of
            // this version, all header, at the next frame.
            let base = u64::from(RECORDS).to_be_bytes();
            let header = [&SEGMENT_MAGIC[..], &JOURNAL_VERSION.to_be_bytes(), &base].concat();
            expected.push((format!("seg-{RECORDS:020}.mbdrj"), header));
            expected.sort();
        }
        assert_eq!(dir_image(&dir), expected, "a clean open rewrites nothing");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn appends_after_a_version_1_journal_go_to_a_fresh_segment() {
    let dir = fixture_copy(1, "upgrade");
    let journal = open_fixture_clean(1, &dir);
    journal.append_frame(&payload(RECORDS)).expect("append");
    journal.append_frame(&payload(RECORDS + 1)).expect("append");
    journal.flush().expect("flush");
    drop(journal);
    // The version-1 segments are untouched; the appends go to the segment
    // of this version that open started at the next frame index.
    let before = dir_image(&fixture_dir(1));
    let after = dir_image(&dir);
    for (name, bytes) in &before {
        assert!(after.contains(&(name.clone(), bytes.clone())), "{name} was rewritten");
    }
    let fresh = format!("seg-{:020}.mbdrj", RECORDS);
    assert!(after.iter().any(|(name, _)| *name == fresh), "{after:?}");

    let (journal, scanned) = open_scanned(config(&dir));
    let versions: Vec<u16> = scanned.segments.iter().map(|(v, _)| *v).collect();
    assert_eq!(versions, [1, 1, JOURNAL_VERSION]);
    let records: OwnedRecords =
        scanned.segments.into_iter().flat_map(|(_, records)| records).collect();
    let expected: OwnedRecords = (0..RECORDS + 2).map(|i| (u64::from(i), payload(i))).collect();
    // The scan hands over exactly the records from the snapshot's floor on.
    assert_eq!(records, expected[usize::from(SNAPSHOT_AFTER)..], "{records:?}");
    assert_eq!(journal.frames_appended(), u64::from(RECORDS + 2));
    let mut seen = Vec::new();
    journal.replay(|index, bytes| seen.push((index, bytes.to_vec()))).expect("replay");
    assert_eq!(seen, expected);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn same_appends_and_snapshot_produce_byte_identical_files() {
    let dir = temp_dir("write");
    write_reference_journal(&dir);
    let written = dir_image(&dir);
    let fixture = dir_image(&aligned_fixture_dir());
    let names = |image: &[(String, Vec<u8>)]| -> Vec<String> {
        image.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&written), names(&fixture));
    for ((name, ours), (_, theirs)) in written.iter().zip(&fixture) {
        assert_eq!(ours, theirs, "{name} differs from the committed fixture");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The grant-aligned fixture holds the same records and the same snapshot
/// as the one the build before it wrote, byte for byte: the grant moved
/// where segments start, not what is in them. It reads back clean, and the
/// scan hands over exactly the frames past the snapshot's floor.
#[test]
fn grant_aligned_segments_hold_the_earlier_builds_bytes() {
    let records = |image: &[(String, Vec<u8>)]| -> Vec<u8> {
        let segments = image.iter().filter(|(name, _)| name.ends_with(".mbdrj"));
        segments.flat_map(|(_, bytes)| bytes[18..].to_vec()).collect()
    };
    let snapshot = |image: &[(String, Vec<u8>)]| -> Vec<(String, Vec<u8>)> {
        image.iter().filter(|(name, _)| name.ends_with(".mbdrs")).cloned().collect()
    };
    let aligned = dir_image(&aligned_fixture_dir());
    let earlier = dir_image(&fixture_dir(JOURNAL_VERSION));
    let names: Vec<&str> = aligned.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [format!("seg-{:020}.mbdrj", SNAPSHOT_AFTER), format!("snap-{:020}.mbdrs", SNAPSHOT_AFTER)]
    );
    assert_eq!(snapshot(&aligned), snapshot(&earlier));
    let earlier_records = records(&earlier);
    // Records 0..3 sit below the floor in the earlier build's first segment.
    let covered: usize = (0..SNAPSHOT_AFTER).map(|i| 8 + payload(i).len()).sum();
    assert_eq!(records(&aligned), earlier_records[covered..]);

    let dir = temp_dir("aligned-read");
    for (name, bytes) in &aligned {
        fs::write(dir.join(name), bytes).expect("copy fixture");
    }
    let (journal, scanned) = open_scanned(config(&dir));
    assert_eq!(journal.stats().truncated_bytes, 0);
    assert_eq!(journal.frames_appended(), u64::from(RECORDS));
    assert_eq!(scanned.snapshot, Some((u64::from(SNAPSHOT_AFTER), snapshot_body())));
    let handed: OwnedRecords =
        scanned.segments.into_iter().flat_map(|(_, records)| records).collect();
    let expected: OwnedRecords =
        (SNAPSHOT_AFTER..RECORDS).map(|i| (u64::from(i), payload(i))).collect();
    assert_eq!(handed, expected);
    drop(journal);
    assert_eq!(dir_image(&dir), aligned, "a clean open rewrites nothing");
    let _ = fs::remove_dir_all(&dir);
}
