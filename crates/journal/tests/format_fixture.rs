//! The on-disk format is pinned by bytes, not only by constants:
//! `fixtures/journal-v1/` is a journal directory written by the build that
//! preceded the slicing-by-8 checksum and the single-write append. This build
//! must read it back clean, and must write the very same bytes when fed the
//! very same appends and snapshot body.

use mbdr_journal::{FsyncPolicy, Journal, JournalConfig, JournalError, RealFs, Retained};
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

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal-v1")
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

#[test]
fn journal_written_by_the_previous_build_opens_clean_and_replays() {
    // Open a copy: open positions a writer on the last segment.
    let dir = temp_dir("read");
    for (name, bytes) in dir_image(&fixture_dir()) {
        fs::write(dir.join(name), bytes).expect("copy fixture");
    }
    let (journal, snapshot) = open_taking_snapshot(config(&dir));
    assert_eq!(journal.stats().truncated_bytes, 0, "every record and the snapshot validate");
    assert_eq!(journal.frames_appended(), u64::from(RECORDS));
    assert_eq!(snapshot, Some((u64::from(SNAPSHOT_AFTER), snapshot_body())), "snapshot present");
    let mut seen = Vec::new();
    journal.replay(|index, bytes| seen.push((index, bytes.to_vec()))).expect("replay");
    let expected: Vec<(u64, Vec<u8>)> = (0..RECORDS).map(|i| (u64::from(i), payload(i))).collect();
    assert_eq!(seen, expected);
    drop(journal);
    assert_eq!(dir_image(&dir), dir_image(&fixture_dir()), "a clean open rewrites nothing");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn same_appends_and_snapshot_produce_byte_identical_files() {
    let dir = temp_dir("write");
    write_reference_journal(&dir);
    let written = dir_image(&dir);
    let fixture = dir_image(&fixture_dir());
    let names = |image: &[(String, Vec<u8>)]| -> Vec<String> {
        image.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&written), names(&fixture));
    for ((name, ours), (_, theirs)) in written.iter().zip(&fixture) {
        assert_eq!(ours, theirs, "{name} differs from the committed fixture");
    }
    let _ = fs::remove_dir_all(&dir);
}
