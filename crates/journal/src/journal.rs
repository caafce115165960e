//! Segmented append-only frame log with snapshots, torn-tail repair, and
//! compaction. See the crate docs and `docs/WIRE.md` for the byte layouts.
//!
//! Every disk operation goes through the [`Vfs`] storage seam, so the same
//! code runs against the real filesystem ([`crate::RealFs`], the default) or
//! a deterministic fault injector ([`crate::FaultFs`]) in tests and the
//! `faults` benchmark workload.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::JournalError;
use crate::stats::{JournalStats, JournalStatsSnapshot};
use crate::vfs::{RealFs, Vfs, VfsFile};

/// First eight bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"MBDRJRNL";
/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MBDRSNAP";
/// On-disk format version written into segment and snapshot headers. Readers
/// accept any version `<=` their own and refuse (typed error, no destructive
/// repair) anything newer.
pub const JOURNAL_VERSION: u16 = 1;
/// Segment header: magic (8) + version (`u16`) + base frame index (`u64`).
pub const SEGMENT_HEADER_LEN: usize = 18;
/// Record header: payload length (`u32`) + CRC-32 of the payload (`u32`).
pub const RECORD_HEADER_LEN: usize = 8;
/// Snapshot header: magic (8) + version (`u16`) + covered frame count (`u64`)
/// + body length (`u32`) + CRC-32 of the body (`u32`).
pub const SNAPSHOT_HEADER_LEN: usize = 26;
/// Upper bound on a single record payload; longer claimed lengths are treated
/// as corruption during open-time scanning.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;
/// File-name suffix for segment files (`seg-<base, 20 digits>.mbdrj`).
pub const SEGMENT_FILE_SUFFIX: &str = ".mbdrj";
/// File-name suffix for snapshot files (`snap-<frames, 20 digits>.mbdrs`).
pub const SNAPSHOT_FILE_SUFFIX: &str = ".mbdrs";

/// Capacity the writer's record buffer is allocated with and shrunk back to
/// after an outsized record, so one [`MAX_RECORD_BYTES`] frame cannot pin
/// 16 MiB for the life of the journal.
const RECORD_BUF_CAPACITY: usize = 64 * 1024;

const SEGMENT_FILE_PREFIX: &str = "seg-";
const SNAPSHOT_FILE_PREFIX: &str = "snap-";

const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `[0]` is the classic byte-at-a-time table, and
/// `[k][n]` is the CRC of byte `n` followed by `k` zero bytes, so eight input
/// bytes fold into the running value with eight independent lookups.
#[expect(clippy::indexing_slicing, reason = "n < 256 and 1 <= k < 8 by the loop bounds")]
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut bytewise = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        bytewise[n] = c;
        n += 1;
    }
    let mut tables = [bytewise; 8];
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ bytewise[(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// IEEE CRC-32 (the zlib/zip polynomial) of `bytes`. Allocation-free; used for
/// every record and snapshot checksum in the journal format.
#[must_use]
#[expect(clippy::indexing_slicing, reason = "every index is a byte or masked to 0..=255")]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // Irrefutable in fact (`chunks_exact(8)`); the pattern is how the
        // eight bytes are named without a panicking index.
        let [a, b, c, d, e, f, g, h] = *chunk else { continue };
        let lo = crc ^ u32::from_le_bytes([a, b, c, d]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[usize::from(e)]
            ^ t2[usize::from(f)]
            ^ t1[usize::from(g)]
            ^ t0[usize::from(h)];
    }
    for &byte in chunks.remainder() {
        crc = t0[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended frame. Maximum durability, slowest.
    PerFrame,
    /// `fdatasync` once every `n` appended frames (`n` is clamped to `>= 1`).
    /// Bounds loss to the last `n - 1` frames on power failure.
    PerBatch(u32),
    /// `fdatasync` when at least this much time has passed since the last
    /// sync, checked on each append. Bounds loss by time, not frame count.
    /// Time is read through [`Vfs::now_nanos`], so tests can drive this
    /// branch with [`crate::FaultFs`]'s deterministic clock.
    Timer(Duration),
}

/// Configuration for [`Journal::open`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding segment and snapshot files; created if missing.
    pub dir: PathBuf,
    /// Rotate to a new segment once the active one would exceed this size.
    pub segment_max_bytes: u64,
    /// Flush-to-disk policy for appended frames.
    pub fsync: FsyncPolicy,
    /// Propose a snapshot once this many frames accumulate past the previous
    /// snapshot's floor; `0` disables snapshot proposals entirely.
    pub snapshot_every_frames: u64,
}

impl JournalConfig {
    /// Defaults: 8 MiB segments, fsync every 64 frames, snapshots disabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_max_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::PerBatch(64),
            snapshot_every_frames: 0,
        }
    }
}

/// A validated snapshot read back from disk: the frame count it covers and the
/// opaque body (encoded by the caller, e.g. `mbdr-core`'s snapshot codec).
#[derive(Debug, Clone)]
pub struct SnapshotBlob {
    /// Number of journal frames the snapshot covers (its compaction floor).
    pub frames: u64,
    /// Caller-encoded snapshot body; the journal treats it as opaque bytes.
    pub body: Vec<u8>,
}

/// An open segment file positioned for appending.
struct Segment {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Frame index of the segment's first record; file names and frame
    /// counts past this base are derived from `segment_bytes`.
    base: u64,
}

struct Writer {
    /// The active (last) segment.
    segment: Segment,
    /// Bytes of the active segment known to hold complete records (header
    /// included). Only advanced after a fully successful append, so it is
    /// always a safe truncation point for [`Journal::repair_and_sync`].
    segment_bytes: u64,
    unsynced: u32,
    last_sync_nanos: u64,
    /// Header + payload of the record being appended, assembled here so the
    /// file sees one `write_all` per record. Outlives segment rotation.
    record: Vec<u8>,
}

/// A segmented write-ahead log of already-encoded wire frames.
///
/// [`Journal::open`] repairs any torn tail left by a crash (truncating the
/// first invalid record and discarding unreachable later segments), selects
/// the newest valid snapshot, and positions the writer at the end of the log.
/// Appends are serialized by an internal mutex; all observability counters are
/// atomic and readable through [`Journal::stats`] without locking.
pub struct Journal {
    config: JournalConfig,
    stats: JournalStats,
    vfs: Arc<dyn Vfs>,
    writer: Mutex<Writer>,
    /// Total frames ever appended (monotonic across restarts and compaction).
    frames: AtomicU64,
    /// Frame count covered by the newest installed snapshot.
    snapshot_floor: AtomicU64,
    snapshot_active: AtomicBool,
    recovered_snapshot: Option<(u64, PathBuf)>,
}

impl Journal {
    /// Opens (or creates) the journal in `config.dir` on the real filesystem,
    /// repairing any torn tail.
    ///
    /// The open scan reads every retained file once: snapshots newest first
    /// until one validates, then every segment in frame order, checksumming
    /// each record. Repair policy: the first record with a bad length or
    /// checksum truncates its segment at that point, and every later segment
    /// is deleted (records only become durable in order, so nothing after a
    /// torn write is trustworthy). All discarded bytes are counted in
    /// [`JournalStatsSnapshot::truncated_bytes`]. Files written by a newer
    /// format version produce [`JournalError::UnsupportedVersion`] and are
    /// never modified. Likewise, if the oldest segment starts above the
    /// newest snapshot that still validates (its covering snapshot is corrupt
    /// or missing after compaction deleted the frames below), open returns
    /// [`JournalError::Corrupt`] and touches no file. A log that ends below
    /// the snapshot's frame count is wholly covered by the snapshot: its
    /// segments are dropped, as compaction would drop them, and appends
    /// continue in a fresh segment based at the snapshot's frame count.
    ///
    /// The bytes the scan validated are dropped when it returns; a recovering
    /// caller that wants them uses [`Journal::open_and_recover`] instead of
    /// reading them again.
    pub fn open(config: JournalConfig) -> Result<Journal, JournalError> {
        Journal::open_with_vfs(config, Arc::new(RealFs))
    }

    /// [`Journal::open`] against an explicit storage implementation — the
    /// entry point for fault-injection tests and the `faults` workload, which
    /// pass a [`crate::FaultFs`].
    pub fn open_with_vfs(
        config: JournalConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Journal, JournalError> {
        Ok(Journal::scan(config, vfs, |_| Ok::<(), JournalError>(()))?.0)
    }

    /// [`Journal::open_with_vfs`] that also hands what it validated to
    /// `sink`, so recovery reads and checksums every retained byte once: first
    /// the chosen snapshot's body (as [`Retained::Snapshot`]), then each
    /// retained segment's records in frame order (as [`Retained::Segment`]),
    /// the same sequence [`Journal::recover`] hands over for a journal that
    /// is already open. One file's bytes are in memory at a time — the
    /// snapshot image is dropped before the first segment is read — and none
    /// outlives the call.
    ///
    /// The snapshot is handed over before any segment is read, so a refusal
    /// can follow it: a coverage gap or a newer-version first segment before
    /// any segment has been handed over, a newer-version later segment after
    /// the earlier ones. No refusal modifies a file. An error the sink
    /// returns stops the scan where it is and is returned as is; files
    /// repaired up to that point stay repaired. Delivered records count in
    /// [`JournalStatsSnapshot::recovered_frames`].
    pub fn open_and_recover<E: From<JournalError>>(
        config: JournalConfig,
        vfs: Arc<dyn Vfs>,
        sink: impl FnMut(Retained<'_>) -> Result<(), E>,
    ) -> Result<Journal, E> {
        let (journal, delivered) = Journal::scan(config, vfs, sink)?;
        journal.stats.recovered_frames.fetch_add(delivered, Ordering::Relaxed);
        Ok(journal)
    }

    /// The open scan behind [`Journal::open_with_vfs`] and
    /// [`Journal::open_and_recover`]; returns the journal and the number of
    /// records handed to `sink`.
    fn scan<E: From<JournalError>>(
        config: JournalConfig,
        vfs: Arc<dyn Vfs>,
        mut sink: impl FnMut(Retained<'_>) -> Result<(), E>,
    ) -> Result<(Journal, u64), E> {
        vfs.create_dir_all(&config.dir).map_err(JournalError::Io)?;
        let stats = JournalStats::default();

        // Read-only first: pick the newest snapshot that validates, so the
        // coverage check below can refuse before anything is repaired.
        let snapshots =
            list_numbered(vfs.as_ref(), &config.dir, SNAPSHOT_FILE_PREFIX, SNAPSHOT_FILE_SUFFIX)?;
        let mut recovered_snapshot: Option<(u64, PathBuf)> = None;
        for (snap_frames, path) in snapshots.iter().rev() {
            if let Some(image) = read_snapshot(vfs.as_ref(), path, *snap_frames)? {
                recovered_snapshot = Some((*snap_frames, path.clone()));
                // Handed over and dropped before any segment is read, so the
                // image and a segment buffer are never in memory together.
                sink(snapshot_item(*snap_frames, &image))?;
                break;
            }
        }
        let snapshot_floor = recovered_snapshot.as_ref().map_or(0, |(n, _)| *n);

        let segments =
            list_numbered(vfs.as_ref(), &config.dir, SEGMENT_FILE_PREFIX, SEGMENT_FILE_SUFFIX)?;
        let mut retained: Vec<(u64, PathBuf)> = Vec::new();
        let mut frames: u64 = 0;
        let mut truncated: u64 = 0;
        let mut delivered: u64 = 0;
        let mut unreachable = false;
        for (_, path) in segments {
            if unreachable {
                truncated += vfs.file_len(&path).map_err(JournalError::Io)?;
                vfs.remove_file(&path).map_err(JournalError::Io)?;
                continue;
            }
            let bytes = vfs.read(&path).map_err(JournalError::Io)?;
            let file_len = bytes.len() as u64;
            let Some((base, records)) = segment_body(&path, &bytes)? else {
                // Header missing, short, or wrong magic: the file (and
                // everything after it) is an unreachable torn tail.
                truncated += file_len;
                vfs.remove_file(&path).map_err(JournalError::Io)?;
                unreachable = true;
                continue;
            };
            if retained.is_empty() {
                if base > snapshot_floor {
                    // Compaction only deletes segments a snapshot covers, so
                    // a log starting above every valid snapshot means that
                    // snapshot is gone or corrupt and the frames below `base`
                    // exist nowhere. Nothing has been modified yet (and no
                    // segment handed over); refuse rather than recover a
                    // partial state as if it were whole.
                    return Err(corrupt(
                        &path,
                        0,
                        "log starts above the newest valid snapshot; \
                         the compacted frames below it are unrecoverable",
                    )
                    .into());
                }
                frames = base;
            } else if base != frames {
                // Frame indices must be contiguous across segments.
                truncated += file_len;
                vfs.remove_file(&path).map_err(JournalError::Io)?;
                unreachable = true;
                continue;
            }
            let (count, valid) = validate_records(records);
            frames += count;
            let valid_end = (SEGMENT_HEADER_LEN + valid) as u64;
            if valid_end < file_len {
                vfs.truncate(&path, valid_end).map_err(JournalError::Io)?;
                truncated += file_len - valid_end;
                unreachable = true;
            }
            sink(Retained::Segment(Records {
                bytes: records.get(..valid).unwrap_or_default(),
                index: base,
            }))?;
            delivered += count;
            retained.push((base, path));
        }
        if truncated > 0 {
            stats.truncated_bytes.fetch_add(truncated, Ordering::Relaxed);
        }

        remove_tmp_files(vfs.as_ref(), &config.dir)?;
        for (_, path) in snapshots {
            // Stale (older than the newest valid one) or corrupt. A corrupt
            // snapshot is ignored — the coverage check above established that
            // the retained log reaches back past it — and removed so it
            // cannot shadow future ones.
            if recovered_snapshot.as_ref().is_none_or(|(_, keep)| *keep != path) {
                vfs.remove_file(&path).map_err(JournalError::Io)?;
            }
        }
        if frames < snapshot_floor {
            // The log ends below the snapshot (a repaired tail, or a snapshot
            // that outran the log): every retained record is covered. Appending
            // to the last segment would number its records from `frames` while
            // the counter and the next rotation continue from the floor, and a
            // later open would discard what followed as non-contiguous. Drop
            // the covered segments as compaction would; the writer starts a
            // fresh segment at the floor.
            for (_, path) in retained.drain(..) {
                vfs.remove_file(&path).map_err(JournalError::Io)?;
            }
        }
        let frames = frames.max(snapshot_floor);

        let (segment, segment_bytes) = match retained.pop() {
            Some((base, path)) => {
                let file = vfs.open_append(&path).map_err(JournalError::Io)?;
                let segment_bytes = vfs.file_len(&path).map_err(JournalError::Io)?;
                (Segment { file, path, base }, segment_bytes)
            }
            None => (create_segment(vfs.as_ref(), &config.dir, frames)?, SEGMENT_HEADER_LEN as u64),
        };
        let writer = Writer {
            segment,
            segment_bytes,
            unsynced: 0,
            last_sync_nanos: vfs.now_nanos(),
            record: Vec::with_capacity(RECORD_BUF_CAPACITY),
        };

        let journal = Journal {
            config,
            stats,
            vfs,
            writer: Mutex::new(writer),
            frames: AtomicU64::new(frames),
            snapshot_floor: AtomicU64::new(snapshot_floor),
            snapshot_active: AtomicBool::new(false),
            recovered_snapshot,
        };
        Ok((journal, delivered))
    }

    /// Appends one already-encoded wire frame as a journal record.
    ///
    /// Steady-state cost is one checksum pass over the payload, one copy of
    /// header + payload into the writer's reusable record buffer, and one
    /// `write_all` to the segment file, with zero heap allocation; the record
    /// has reached the kernel when this returns. Segment rotation and fsyncs
    /// are amortized per [`JournalConfig`]. On an I/O error the segment is
    /// truncated back to the last complete record so a partial record can
    /// never be followed by further appends. If that rollback itself fails
    /// (dead disk), the torn bytes stay behind and
    /// [`Journal::repair_and_sync`] removes them once the disk heals.
    pub fn append_frame(&self, bytes: &[u8]) -> Result<(), JournalError> {
        let len = bytes.len();
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(JournalError::RecordTooLarge { len });
        }
        // Checksummed before the writer lock is taken: appends from different
        // shards serialize only on the copy and the write.
        let crc = crc32(bytes);

        let mut writer = self.writer.lock();
        let record_len = (RECORD_HEADER_LEN + len) as u64;
        if writer.segment_bytes + record_len > self.config.segment_max_bytes
            && writer.segment_bytes > SEGMENT_HEADER_LEN as u64
        {
            self.rotate(&mut writer)?;
        }
        let Writer { segment, record, .. } = &mut *writer;
        record.clear();
        record.extend_from_slice(&(len as u32).to_be_bytes());
        record.extend_from_slice(&crc.to_be_bytes());
        record.extend_from_slice(bytes);
        let written = segment.file.write_all(record);
        if record.capacity() > RECORD_BUF_CAPACITY {
            record.clear();
            record.shrink_to(RECORD_BUF_CAPACITY);
        }
        if let Err(err) = written {
            let keep = writer.segment_bytes;
            let _ = writer.segment.file.set_len(keep);
            return Err(JournalError::Io(err));
        }
        writer.segment_bytes += record_len;
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.maybe_sync(&mut writer)
    }

    /// Infallible wrapper around [`Journal::append_frame`] for the ingest hot
    /// path: an append failure is counted in
    /// [`JournalStatsSnapshot::append_errors`] and otherwise dropped, trading
    /// strict durability for availability of the live service (the design
    /// trade-off is documented in `docs/ARCHITECTURE.md`). Returns whether
    /// the append succeeded so callers can track durability state.
    pub fn record_frame(&self, bytes: &[u8]) -> bool {
        let ok = self.append_frame(bytes).is_ok();
        if !ok {
            self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Counts a caller-side durability failure (e.g. a snapshot body that
    /// failed to encode) in [`JournalStatsSnapshot::append_errors`].
    pub fn note_write_error(&self) {
        self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Forces an `fdatasync` of the active segment if any appended frames are
    /// not yet known-durable. Called by graceful shutdown paths.
    pub fn flush(&self) -> Result<(), JournalError> {
        let mut writer = self.writer.lock();
        if writer.unsynced > 0 {
            writer.segment.file.sync_data()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            writer.unsynced = 0;
            writer.last_sync_nanos = self.vfs.now_nanos();
        }
        Ok(())
    }

    /// Restores the active segment to a clean, appendable, known-synced state
    /// after append failures: the disk-side half of a degraded-mode re-probe.
    ///
    /// Three messes a dying disk can leave are undone here once it heals:
    /// torn bytes a failed append's own rollback could not remove (the file
    /// is truncated back to the last complete record — `segment_bytes` only
    /// advances on fully successful appends, so it is always the safe
    /// boundary), orphan later segments left by a failed rotation (deleted),
    /// and an unknown sync state (an `fdatasync` is forced). All removed
    /// bytes are counted in [`JournalStatsSnapshot::truncated_bytes`]; none
    /// of them were ever acknowledged. Returns `Ok` only if the disk accepted
    /// every repair write, so a success means appends can flow again.
    pub fn repair_and_sync(&self) -> Result<(), JournalError> {
        let mut writer = self.writer.lock();
        let segments = list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SEGMENT_FILE_PREFIX,
            SEGMENT_FILE_SUFFIX,
        )?;
        for (base, path) in segments {
            if base > writer.segment.base {
                let len = self.vfs.file_len(&path).unwrap_or(0);
                self.vfs.remove_file(&path)?;
                self.stats.truncated_bytes.fetch_add(len, Ordering::Relaxed);
            }
        }
        let on_disk = self.vfs.file_len(&writer.segment.path)?;
        if on_disk > writer.segment_bytes {
            self.vfs.truncate(&writer.segment.path, writer.segment_bytes)?;
            self.stats.truncated_bytes.fetch_add(on_disk - writer.segment_bytes, Ordering::Relaxed);
        }
        writer.segment.file.sync_data()?;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        writer.unsynced = 0;
        writer.last_sync_nanos = self.vfs.now_nanos();
        Ok(())
    }

    /// Streams every retained record, in frame order, into `sink(index,
    /// payload)` and returns the number delivered. Intended to be called once
    /// at boot, after [`Journal::open`] and the snapshot restore, before live
    /// appends begin; the writer lock is held for the whole replay. Each
    /// segment is read once and checksummed in full before its first record
    /// is delivered. Records were validated at open, so a failure here is a
    /// typed [`JournalError::Corrupt`] indicating external modification.
    pub fn replay(&self, mut sink: impl FnMut(u64, &[u8])) -> Result<u64, JournalError> {
        let _writer = self.writer.lock();
        let delivered = self.each_segment(&mut |records| {
            for (index, payload) in records {
                sink(index, payload);
            }
            Ok::<(), JournalError>(())
        })?;
        self.stats.recovered_frames.fetch_add(delivered, Ordering::Relaxed);
        Ok(delivered)
    }

    /// Reads back the newest valid snapshot found at open, if any. The file is
    /// read again and its body revalidated against its checksum before being
    /// returned.
    pub fn load_snapshot(&self) -> Result<Option<SnapshotBlob>, JournalError> {
        let Some((frames, path)) = &self.recovered_snapshot else {
            return Ok(None);
        };
        let Some(mut bytes) = read_snapshot(self.vfs.as_ref(), path, *frames)? else {
            return Err(corrupt(path, 0, "snapshot failed revalidation"));
        };
        // A valid image is exactly header + body, so the body is handed out in
        // the buffer it was read into rather than in a second copy of it.
        bytes.drain(..SNAPSHOT_HEADER_LEN);
        Ok(Some(SnapshotBlob { frames: *frames, body: bytes }))
    }

    /// [`Journal::load_snapshot`] and [`Journal::replay`] in one pass for a
    /// journal that is already open: hands `sink` the snapshot found at open
    /// and then each retained segment's records, the sequence
    /// [`Journal::open_and_recover`] hands over, and returns the number of
    /// records delivered. Every file is read and checksummed once here; a
    /// file that no longer validates is a [`JournalError::Corrupt`]. The
    /// writer lock is held throughout, and an error from `sink` stops the
    /// pass and is returned as is.
    pub fn recover<E: From<JournalError>>(
        &self,
        mut sink: impl FnMut(Retained<'_>) -> Result<(), E>,
    ) -> Result<u64, E> {
        let _writer = self.writer.lock();
        if let Some((frames, path)) = &self.recovered_snapshot {
            let image = read_snapshot(self.vfs.as_ref(), path, *frames)?;
            let Some(image) = image else {
                return Err(corrupt(path, 0, "snapshot failed revalidation").into());
            };
            sink(snapshot_item(*frames, &image))?;
        }
        let delivered = self.each_segment(&mut |records| sink(Retained::Segment(records)))?;
        self.stats.recovered_frames.fetch_add(delivered, Ordering::Relaxed);
        Ok(delivered)
    }

    /// Reads every segment in the directory once, checksums it in full and
    /// hands its records to `sink`; returns the number of records handed
    /// over. The caller holds the writer lock.
    fn each_segment<E: From<JournalError>>(
        &self,
        sink: &mut impl FnMut(Records<'_>) -> Result<(), E>,
    ) -> Result<u64, E> {
        let segments = list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SEGMENT_FILE_PREFIX,
            SEGMENT_FILE_SUFFIX,
        )?;
        let mut delivered = 0u64;
        for (_, path) in segments {
            let bytes = self.vfs.read(&path).map_err(JournalError::Io)?;
            let Some((base, records)) = segment_body(&path, &bytes)? else {
                return Err(corrupt(&path, 0, "segment header failed revalidation").into());
            };
            let (count, valid) = validate_records(records);
            if valid < records.len() {
                let at = (SEGMENT_HEADER_LEN + valid) as u64;
                return Err(corrupt(&path, at, "record failed revalidation").into());
            }
            sink(Records { bytes: records, index: base })?;
            delivered += count;
        }
        Ok(delivered)
    }

    /// Cheap, lock-free check used once per ingested frame: is a snapshot
    /// worth proposing? True only when snapshots are enabled, none is already
    /// in progress, and at least `snapshot_every_frames` frames have
    /// accumulated past the current floor.
    pub fn snapshot_pending(&self) -> bool {
        let every = self.config.snapshot_every_frames;
        if every == 0 || self.snapshot_active.load(Ordering::Relaxed) {
            return false;
        }
        let frames = self.frames.load(Ordering::Relaxed);
        frames.saturating_sub(self.snapshot_floor.load(Ordering::Relaxed)) >= every
    }

    /// Claims the snapshot-in-progress slot and returns the frame count the
    /// snapshot must cover, or `None` if another snapshot is running or the
    /// threshold is not actually met. Every successful `begin_snapshot` must
    /// be paired with [`Journal::install_snapshot`] or
    /// [`Journal::abort_snapshot`].
    pub fn begin_snapshot(&self) -> Option<u64> {
        if self.config.snapshot_every_frames == 0 {
            return None;
        }
        if self
            .snapshot_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let frames = self.frames.load(Ordering::Relaxed);
        let floor = self.snapshot_floor.load(Ordering::Relaxed);
        if frames.saturating_sub(floor) < self.config.snapshot_every_frames {
            self.snapshot_active.store(false, Ordering::Release);
            return None;
        }
        Some(frames)
    }

    /// Claims the snapshot-in-progress slot *unconditionally* — ignoring the
    /// `snapshot_every_frames` threshold, and available even when periodic
    /// snapshots are disabled. Used by degraded-mode recovery to re-establish
    /// a durability floor from live tracker state. Returns `None` only while
    /// another snapshot is in progress; the same pairing rules as
    /// [`Journal::begin_snapshot`] apply.
    pub fn begin_forced_snapshot(&self) -> Option<u64> {
        if self
            .snapshot_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        Some(self.frames.load(Ordering::Relaxed))
    }

    /// Releases the snapshot-in-progress slot after a failed snapshot attempt.
    pub fn abort_snapshot(&self) {
        self.snapshot_active.store(false, Ordering::Release);
    }

    /// Durably installs a snapshot body covering `frames` journal frames:
    /// write to a temp file, fsync, rename into place, then compact — older
    /// snapshots and every segment lying entirely below `frames` are deleted.
    /// Releases the slot claimed by [`Journal::begin_snapshot`].
    pub fn install_snapshot(&self, frames: u64, body: &[u8]) -> Result<(), JournalError> {
        let result = self.install_snapshot_inner(frames, body);
        self.snapshot_active.store(false, Ordering::Release);
        result
    }

    /// Total frames ever appended to this journal (monotonic across restarts;
    /// compaction does not decrease it).
    pub fn frames_appended(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Frame count of the snapshot selected at open, if one was found.
    pub fn recovered_snapshot_frames(&self) -> Option<u64> {
        self.recovered_snapshot.as_ref().map(|(frames, _)| *frames)
    }

    /// Point-in-time copy of the journal's counters.
    pub fn stats(&self) -> JournalStatsSnapshot {
        self.stats.snapshot()
    }

    fn maybe_sync(&self, writer: &mut Writer) -> Result<(), JournalError> {
        writer.unsynced = writer.unsynced.saturating_add(1);
        let due = match self.config.fsync {
            FsyncPolicy::PerFrame => true,
            FsyncPolicy::PerBatch(n) => writer.unsynced >= n.max(1),
            FsyncPolicy::Timer(interval) => {
                let elapsed = self.vfs.now_nanos().saturating_sub(writer.last_sync_nanos);
                u128::from(elapsed) >= interval.as_nanos()
            }
        };
        if due {
            writer.segment.file.sync_data()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            writer.unsynced = 0;
            writer.last_sync_nanos = self.vfs.now_nanos();
        }
        Ok(())
    }

    fn rotate(&self, writer: &mut Writer) -> Result<(), JournalError> {
        writer.segment.file.sync_data()?;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        let base = self.frames.load(Ordering::Relaxed);
        writer.segment = create_segment(self.vfs.as_ref(), &self.config.dir, base)?;
        writer.segment_bytes = SEGMENT_HEADER_LEN as u64;
        writer.unsynced = 0;
        writer.last_sync_nanos = self.vfs.now_nanos();
        Ok(())
    }

    fn install_snapshot_inner(&self, frames: u64, body: &[u8]) -> Result<(), JournalError> {
        if body.len() > u32::MAX as usize {
            return Err(JournalError::RecordTooLarge { len: body.len() });
        }
        let final_path = self
            .config
            .dir
            .join(format!("{SNAPSHOT_FILE_PREFIX}{frames:020}{SNAPSHOT_FILE_SUFFIX}"));
        let tmp_path = final_path.with_extension("tmp");
        let mut header = Vec::with_capacity(SNAPSHOT_HEADER_LEN);
        header.extend_from_slice(&SNAPSHOT_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
        header.extend_from_slice(&frames.to_be_bytes());
        header.extend_from_slice(&(body.len() as u32).to_be_bytes());
        header.extend_from_slice(&crc32(body).to_be_bytes());
        {
            let mut file = self.vfs.create(&tmp_path)?;
            file.write_all(&header)?;
            file.write_all(body)?;
            file.sync_all()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.vfs.rename(&tmp_path, &final_path)?;
        // The rename must be durable before compaction unlinks the segments
        // the new snapshot covers: otherwise a power cut could keep the
        // unlinks and lose the rename.
        self.vfs.sync_dir(&self.config.dir)?;
        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_floor.store(frames, Ordering::Relaxed);
        self.compact(frames, &final_path)
    }

    fn compact(&self, floor: u64, keep_snapshot: &Path) -> Result<(), JournalError> {
        for (_, path) in list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SNAPSHOT_FILE_PREFIX,
            SNAPSHOT_FILE_SUFFIX,
        )? {
            if path != *keep_snapshot {
                let _ = self.vfs.remove_file(&path);
            }
        }
        // A segment is dead iff the NEXT segment starts at or below the floor
        // (all of its records are then covered by the snapshot). The active
        // segment is always last and therefore never removed; the writer lock
        // is held so rotation cannot race the deletions.
        let writer = self.writer.lock();
        let segments = list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SEGMENT_FILE_PREFIX,
            SEGMENT_FILE_SUFFIX,
        )?;
        for pair in segments.windows(2) {
            let (Some((_, path)), Some((next_base, _))) = (pair.first(), pair.get(1)) else {
                continue;
            };
            if *next_base <= floor && *path != writer.segment.path {
                let _ = self.vfs.remove_file(path);
            }
        }
        drop(writer);
        Ok(())
    }
}

/// One step of a recovery read, in journal order: the chosen snapshot (if
/// any) first, then every retained segment. Handed out by
/// [`Journal::open_and_recover`] and [`Journal::recover`]; the borrowed bytes
/// are the ones the checksum pass validated and live only for the call.
#[derive(Debug, Clone)]
pub enum Retained<'a> {
    /// The newest valid snapshot.
    Snapshot {
        /// Number of journal frames the snapshot covers.
        frames: u64,
        /// Caller-encoded snapshot body, checksummed.
        body: &'a [u8],
    },
    /// One retained segment's checksummed records.
    Segment(Records<'a>),
}

/// The checksummed records of one retained segment: iterates
/// `(frame index, payload)` in frame order, borrowing each payload from the
/// segment buffer the checksum pass read. The walk is the one
/// [`Journal::replay`] and the open scan use; it checks no checksum again.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    /// Record bytes after the segment header, every record validated.
    bytes: &'a [u8],
    /// Frame index of the next record.
    index: u64,
}

impl<'a> Iterator for Records<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        let (_, payload, rest) = next_record(self.bytes)?;
        let index = self.index;
        self.bytes = rest;
        self.index += 1;
        Some((index, payload))
    }
}

/// The [`Retained::Snapshot`] for a validated snapshot image.
fn snapshot_item(frames: u64, image: &[u8]) -> Retained<'_> {
    Retained::Snapshot { frames, body: image.get(SNAPSHOT_HEADER_LEN..).unwrap_or_default() }
}

/// Splits a segment image into its base frame index and the record bytes
/// after the header. `None` for a header that is missing, short, or has the
/// wrong magic; [`JournalError::UnsupportedVersion`] for a newer format.
fn segment_body<'a>(path: &Path, bytes: &'a [u8]) -> Result<Option<(u64, &'a [u8])>, JournalError> {
    if bytes.len() < SEGMENT_HEADER_LEN || bytes.get(..8) != Some(&SEGMENT_MAGIC[..]) {
        return Ok(None);
    }
    let Some(version) = bytes.get(8..).and_then(be_u16) else {
        return Ok(None);
    };
    if version > JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
            supported: JOURNAL_VERSION,
        });
    }
    let (Some(base), Some(records)) =
        (bytes.get(10..).and_then(be_u64), bytes.get(SEGMENT_HEADER_LEN..))
    else {
        return Ok(None);
    };
    Ok(Some((base, records)))
}

/// The one record walker: splits the record at the front of `bytes` into
/// its stored checksum, its payload and the bytes after it. `None` at the
/// end, or for a header that is short or claims an impossible length or a
/// body the bytes do not hold.
fn next_record(bytes: &[u8]) -> Option<(u32, &[u8], &[u8])> {
    let header = bytes.get(..RECORD_HEADER_LEN)?;
    let len = be_u32(header)? as usize;
    let crc = header.get(4..).and_then(be_u32)?;
    if len == 0 || len > MAX_RECORD_BYTES {
        return None;
    }
    let payload = bytes.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len)?;
    let rest = bytes.get(RECORD_HEADER_LEN + len..)?;
    Some((crc, payload, rest))
}

/// Checksums the records of `bytes` (a segment after its header) in order,
/// up to the first that does not validate. Returns how many validated and
/// how many bytes they span; a span shorter than `bytes` is a torn tail.
fn validate_records(bytes: &[u8]) -> (u64, usize) {
    let mut rest = bytes;
    let mut count = 0u64;
    while let Some((crc, payload, next)) = next_record(rest) {
        if crc32(payload) != crc {
            break;
        }
        count += 1;
        rest = next;
    }
    (count, bytes.len() - rest.len())
}

/// Reads the snapshot at `path` and returns its image if it validates for
/// `expect_frames` (`None` if it does not);
/// [`JournalError::UnsupportedVersion`] for a newer format.
fn read_snapshot(
    vfs: &dyn Vfs,
    path: &Path,
    expect_frames: u64,
) -> Result<Option<Vec<u8>>, JournalError> {
    let bytes = vfs.read(path)?;
    if bytes.get(..8) != Some(&SNAPSHOT_MAGIC[..]) {
        return Ok(None);
    }
    let Some(version) = bytes.get(8..).and_then(be_u16) else {
        return Ok(None);
    };
    if version > JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
            supported: JOURNAL_VERSION,
        });
    }
    let valid = matches!(parse_snapshot(&bytes), Some((frames, _)) if frames == expect_frames);
    Ok(valid.then_some(bytes))
}

/// Parses and checksum-validates a snapshot file image, returning the covered
/// frame count and the body slice.
fn parse_snapshot(bytes: &[u8]) -> Option<(u64, &[u8])> {
    if bytes.get(..8) != Some(&SNAPSHOT_MAGIC[..]) {
        return None;
    }
    let version = bytes.get(8..).and_then(be_u16)?;
    if version > JOURNAL_VERSION {
        return None;
    }
    let frames = bytes.get(10..).and_then(be_u64)?;
    let len = bytes.get(18..).and_then(be_u32)? as usize;
    let crc = bytes.get(22..).and_then(be_u32)?;
    let body = bytes.get(SNAPSHOT_HEADER_LEN..SNAPSHOT_HEADER_LEN + len)?;
    if SNAPSHOT_HEADER_LEN + len != bytes.len() || crc32(body) != crc {
        return None;
    }
    Some((frames, body))
}

/// Creates the segment based at `base`, writes its header and syncs the
/// directory, so the new entry survives a power cut before any record in it
/// is acknowledged.
fn create_segment(vfs: &dyn Vfs, dir: &Path, base: u64) -> Result<Segment, JournalError> {
    let path = dir.join(format!("{SEGMENT_FILE_PREFIX}{base:020}{SEGMENT_FILE_SUFFIX}"));
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
    header.extend_from_slice(&SEGMENT_MAGIC);
    header.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
    header.extend_from_slice(&base.to_be_bytes());
    let mut file = vfs.create_new_append(&path)?;
    if let Err(err) = file.write_all(&header).and_then(|()| vfs.sync_dir(dir)) {
        // Best effort: do not leave a partial-header or unsynced segment
        // behind. If even the remove fails (dead disk), open-time scanning or
        // `repair_and_sync` will discard it later.
        drop(file);
        let _ = vfs.remove_file(&path);
        return Err(JournalError::Io(err));
    }
    Ok(Segment { file, path, base })
}

fn list_numbered(
    vfs: &dyn Vfs,
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    for name in vfs.read_dir_names(dir)? {
        let Some(stem) = name.strip_prefix(prefix).and_then(|s| s.strip_suffix(suffix)) else {
            continue;
        };
        let Ok(value) = stem.parse::<u64>() else { continue };
        out.push((value, dir.join(&name)));
    }
    out.sort_unstable_by_key(|(value, _)| *value);
    Ok(out)
}

fn remove_tmp_files(vfs: &dyn Vfs, dir: &Path) -> Result<(), JournalError> {
    for name in vfs.read_dir_names(dir)? {
        if name.ends_with(".tmp") {
            let _ = vfs.remove_file(&dir.join(&name));
        }
    }
    Ok(())
}

fn corrupt(path: &Path, offset: u64, reason: &'static str) -> JournalError {
    JournalError::Corrupt { path: path.to_path_buf(), offset, reason }
}

fn be_u16(bytes: &[u8]) -> Option<u16> {
    let arr: [u8; 2] = bytes.get(..2)?.try_into().ok()?;
    Some(u16::from_be_bytes(arr))
}

fn be_u32(bytes: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    Some(u32::from_be_bytes(arr))
}

fn be_u64(bytes: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    Some(u64::from_be_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, FaultKind};
    use mbdr_geo::rng::SplitMix64;
    use std::fs;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("mbdr-journal-unit-{}-{tag}-{seq}", std::process::id()))
    }

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    /// Byte-at-a-time reference with each table entry computed on the fly, so
    /// it shares nothing with `CRC_TABLES`: the oracle for the slicing kernel.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in bytes {
            let mut c = (crc ^ u32::from(byte)) & 0xFF;
            for _ in 0..8 {
                c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            }
            crc = c ^ (crc >> 8);
        }
        !crc
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_oracle_at_every_short_length_and_offset() {
        let mut rng = SplitMix64::new(0xC0FF_EE00);
        let buffer = random_bytes(&mut rng, 64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_oracle_on_seeded_random_buffers() {
        let mut rng = SplitMix64::new(2001);
        for round in 0..64 {
            // Lengths spread over 0..=64 KiB, the last round pinned at the top.
            let len = if round == 63 { 64 * 1024 } else { rng.below(65_537) as usize };
            let bytes = random_bytes(&mut rng, len);
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "round {round}, len {len}");
        }
    }

    #[test]
    fn append_reopen_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let config = JournalConfig::new(&dir);
        let journal = Journal::open(config.clone()).expect("open");
        for i in 0u8..10 {
            journal.append_frame(&[i, i, i]).expect("append");
        }
        journal.flush().expect("flush");
        assert_eq!(journal.frames_appended(), 10);
        drop(journal);

        let journal = Journal::open(config).expect("reopen");
        assert_eq!(journal.frames_appended(), 10);
        let mut seen = Vec::new();
        let n =
            journal.replay(|index, payload| seen.push((index, payload.to_vec()))).expect("replay");
        assert_eq!(n, 10);
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], (0, vec![0, 0, 0]));
        assert_eq!(seen[9], (9, vec![9, 9, 9]));
        assert_eq!(journal.stats().recovered_frames, 10);
        cleanup(&dir);
    }

    #[test]
    fn rotation_keeps_frames_contiguous() {
        let dir = temp_dir("rotate");
        let mut config = JournalConfig::new(&dir);
        config.segment_max_bytes = 64; // force frequent rotation
        let journal = Journal::open(config.clone()).expect("open");
        for i in 0u8..20 {
            journal.append_frame(&[i; 16]).expect("append");
        }
        drop(journal);
        let journal = Journal::open(config).expect("reopen");
        let mut indices = Vec::new();
        journal.replay(|index, _| indices.push(index)).expect("replay");
        assert_eq!(indices, (0..20).collect::<Vec<_>>());
        cleanup(&dir);
    }

    #[test]
    fn snapshot_install_compacts_old_segments() {
        let dir = temp_dir("compact");
        let mut config = JournalConfig::new(&dir);
        config.segment_max_bytes = 64;
        config.snapshot_every_frames = 8;
        let journal = Journal::open(config.clone()).expect("open");
        for i in 0u8..10 {
            journal.append_frame(&[i; 16]).expect("append");
        }
        let frames = journal.begin_snapshot().expect("snapshot due");
        journal.install_snapshot(frames, b"snapshot-body").expect("install");
        assert_eq!(journal.stats().snapshots, 1);
        assert_eq!(journal.snapshot_floor.load(Ordering::Relaxed), frames);
        drop(journal);

        let journal = Journal::open(config).expect("reopen");
        let blob = journal.load_snapshot().expect("load").expect("present");
        assert_eq!(blob.frames, frames);
        assert_eq!(blob.body, b"snapshot-body");
        let mut first = None;
        journal
            .replay(|index, _| {
                if first.is_none() {
                    first = Some(index);
                }
            })
            .expect("replay");
        // Everything before the retained segment's base was compacted away.
        let first = first.expect("tail survives");
        assert!(first <= frames, "tail starts at {first}, floor {frames}");
        assert!(journal.frames_appended() >= frames);
        cleanup(&dir);
    }

    #[test]
    fn oversized_and_empty_records_are_rejected() {
        let dir = temp_dir("reject");
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
        assert!(matches!(journal.append_frame(&[]), Err(JournalError::RecordTooLarge { len: 0 })));
        assert_eq!(journal.stats().appends, 0);
        cleanup(&dir);
    }

    #[test]
    fn outsized_record_does_not_pin_the_record_buffer() {
        let dir = temp_dir("outsized");
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
        let big = vec![0xEEu8; 4 * RECORD_BUF_CAPACITY];
        journal.append_frame(&big).expect("append outsized");
        assert!(journal.writer.lock().record.capacity() < big.len(), "buffer shrank back");
        journal.append_frame(b"small").expect("append small");
        let mut seen = Vec::new();
        journal.replay(|_, payload| seen.push(payload.to_vec())).expect("replay");
        assert_eq!(seen, vec![big, b"small".to_vec()]);
        cleanup(&dir);
    }

    #[test]
    fn forced_snapshot_ignores_threshold_and_disabled_config() {
        let dir = temp_dir("forced-snap");
        // Snapshots disabled entirely: begin_snapshot refuses...
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
        for i in 0u8..3 {
            journal.append_frame(&[i; 4]).expect("append");
        }
        assert_eq!(journal.begin_snapshot(), None);
        // ...but a forced snapshot still claims the slot and installs.
        let frames = journal.begin_forced_snapshot().expect("forced");
        assert_eq!(frames, 3);
        assert_eq!(journal.begin_forced_snapshot(), None, "slot is exclusive");
        journal.install_snapshot(frames, b"forced-floor").expect("install");
        assert_eq!(journal.snapshot_floor.load(Ordering::Relaxed), 3);
        drop(journal);
        let journal = Journal::open(JournalConfig::new(&dir)).expect("reopen");
        assert_eq!(journal.load_snapshot().expect("load").expect("present").frames, 3);
        cleanup(&dir);
    }

    #[test]
    fn timer_policy_syncs_only_at_or_past_the_interval() {
        let dir = temp_dir("timer");
        let mut config = JournalConfig::new(&dir);
        let interval = Duration::from_millis(100);
        config.fsync = FsyncPolicy::Timer(interval);
        let faults = FaultFs::over_real();
        let journal = Journal::open_with_vfs(config, Arc::new(faults.clone())).expect("open");
        // last_sync was initialized at clock 0; elapsed is 0 < interval.
        journal.append_frame(b"t0").expect("append");
        assert_eq!(journal.stats().fsyncs, 0, "elapsed 0 is below the interval");
        // One nanosecond short of the boundary: still no sync.
        faults.advance_clock(interval - Duration::from_nanos(1));
        journal.append_frame(b"t1").expect("append");
        assert_eq!(journal.stats().fsyncs, 0, "interval - 1ns is below the boundary");
        // Exactly at the boundary: the policy is `>=`, so this syncs.
        faults.advance_clock(Duration::from_nanos(1));
        journal.append_frame(b"t2").expect("append");
        assert_eq!(journal.stats().fsyncs, 1, "exactly the interval fires the sync");
        // The sync reset the reference point: the next append is not due.
        journal.append_frame(b"t3").expect("append");
        assert_eq!(journal.stats().fsyncs, 1);
        // Far past the interval: due again.
        faults.advance_clock(interval * 3);
        journal.append_frame(b"t4").expect("append");
        assert_eq!(journal.stats().fsyncs, 2);
        cleanup(&dir);
    }

    #[test]
    fn timer_reference_point_also_resets_on_explicit_flush() {
        let dir = temp_dir("timer-flush");
        let mut config = JournalConfig::new(&dir);
        let interval = Duration::from_millis(50);
        config.fsync = FsyncPolicy::Timer(interval);
        let faults = FaultFs::over_real();
        let journal = Journal::open_with_vfs(config, Arc::new(faults.clone())).expect("open");
        journal.append_frame(b"a").expect("append");
        faults.advance_clock(interval - Duration::from_nanos(1));
        journal.flush().expect("flush");
        assert_eq!(journal.stats().fsyncs, 1, "flush always syncs pending frames");
        // flush() moved last_sync to now; the boundary is a full interval away.
        faults.advance_clock(interval - Duration::from_nanos(1));
        journal.append_frame(b"b").expect("append");
        assert_eq!(journal.stats().fsyncs, 1, "not due after the flush reset");
        faults.advance_clock(Duration::from_nanos(1));
        journal.append_frame(b"c").expect("append");
        assert_eq!(journal.stats().fsyncs, 2);
        cleanup(&dir);
    }

    #[test]
    fn repair_and_sync_removes_torn_bytes_and_orphan_segments() {
        let dir = temp_dir("repair");
        let faults = FaultFs::over_real();
        let journal = Journal::open_with_vfs(JournalConfig::new(&dir), Arc::new(faults.clone()))
            .expect("open");
        journal.append_frame(b"good-frame").expect("append");
        // Tear the next append's record header (4 of 8 bytes land) and let
        // the rollback fail too — the crash-consistent torn shape. Ops so
        // far: create=0, segment header=1, append write=2 → next is 3.
        faults.schedule_fault(3, FaultKind::TornWrite { keep: 4 });
        assert!(journal.append_frame(b"lost-frame").is_err());
        // While the disk is dead, repair itself fails cleanly.
        faults.set_dead(true);
        assert!(journal.repair_and_sync().is_err(), "repair needs a live disk");
        faults.set_dead(false);
        journal.repair_and_sync().expect("repair after heal");
        assert!(journal.stats().truncated_bytes > 0, "torn bytes were counted");
        // The journal accepts appends again and a reopen agrees on content.
        journal.append_frame(b"post-repair").expect("append");
        journal.flush().expect("flush");
        assert_eq!(journal.frames_appended(), 2);
        drop(journal);
        let journal = Journal::open(JournalConfig::new(&dir)).expect("reopen");
        let mut seen = Vec::new();
        journal.replay(|_, payload| seen.push(payload.to_vec())).expect("replay");
        assert_eq!(seen, vec![b"good-frame".to_vec(), b"post-repair".to_vec()]);
        assert_eq!(journal.stats().truncated_bytes, 0, "nothing left to repair");
        cleanup(&dir);
    }
}
