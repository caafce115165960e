//! Crash recovery: open the journal, restore the newest snapshot, replay the
//! retained frame tail, rebuild the spatial indexes from the recovered
//! trackers, then attach the journal for live appends.
//!
//! A retained segment can straddle the snapshot's floor: compaction deletes
//! only segments the snapshot covers whole. Its records below the floor are
//! walked and checksummed by the scan like every other, but never parsed or
//! applied ([`RecoveryReport::covered_frames`]). That skip is exact: the
//! snapshot was collected after every frame below its grant had been
//! applied, so the staleness-aware [`mbdr_core::ServerTracker`] apply rules
//! would reject each covered update anyway. The frames at and above the
//! floor go through those same rules as live traffic, so duplicates from an
//! imperfect kill point (frames appended after the grant and collected into
//! the snapshot too) are rejected exactly like reordered network deliveries
//! would be — no precise per-object replay cursor is needed.
//!
//! Recovery works per shard and reads the journal once. The journal's open
//! scan hands over the bytes it has just checksummed: the snapshot body, then
//! one segment buffer at a time ([`mbdr_journal::Journal::open_and_recover`]),
//! so one file's bytes are in memory at a time (the snapshot is restored and
//! its image dropped before the first segment is read) and every retained
//! byte is read and checksummed once. Snapshot entries and each
//! segment's frames are bucketed by shard (frames borrowed from the segment
//! buffer, in journal order), and each shard is written under one write-lock
//! hold, the shards spread over up to `available_parallelism` scoped
//! threads. The index rebuild at the end bulk-builds each shard's index
//! from its trackers: the calling thread plans each shard
//! ([`mbdr_spatial::MovingIndex::plan_bulk`], every buffer allocated) while
//! helpers fill the shards already planned ([`mbdr_spatial::BulkPlan::fill`]).
//! [`recover_into`] documents what an error leaves behind. Each pass records
//! the wall time of its four stages — open scan, restore, replay, rebuild —
//! into histograms on the service ([`LocationService::recovery_stages`]).
//!
//! Objects must be registered (with their predictors) on the service *before*
//! recovery runs: a snapshot records tracker state, not prediction functions.
//! Entries for unregistered objects are counted in
//! [`RecoveryReport::skipped_objects`] and dropped.

use crate::service::LocationService;
use mbdr_core::{decode_snapshot, DecodeError};
use mbdr_journal::{
    Histogram, HistogramSnapshot, Journal, JournalConfig, JournalError, RealFs, Retained, Vfs,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a recovery pass found and rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal frame count the restored snapshot covered (0 if none existed).
    pub snapshot_frames: u64,
    /// Snapshot entries restored into registered trackers.
    pub restored_objects: u64,
    /// Snapshot entries dropped because their object was not registered.
    pub skipped_objects: u64,
    /// Frame records the journal handed over from the retained log tail —
    /// `JournalStatsSnapshot::recovered_frames` of the pass — the
    /// snapshot-covered ones included.
    pub replayed_frames: u64,
    /// Of `replayed_frames`, the records whose frame index lies below
    /// `snapshot_frames`: the snapshot already holds their effect, so they
    /// are checksummed by the scan but never parsed or applied. The rest,
    /// `replayed_frames - covered_frames`, are decoded and applied.
    pub covered_frames: u64,
    /// Updates routed to registered trackers from the frames at or above the
    /// snapshot's floor. Duplicates still count here — the per-object
    /// staleness rules silently reject them inside the tracker — so this
    /// equals the update count of the uncovered frames whenever every
    /// source is registered. Covered frames' updates are not counted.
    pub replayed_updates: u64,
    /// Uncovered frames that failed wire decoding. Always 0 in practice —
    /// journal records are checksummed — but a truncated-then-repaired tail
    /// is reported rather than hidden. A covered record is never decoded,
    /// so it counts in `covered_frames` whatever its bytes.
    pub frame_decode_errors: u64,
    /// Bytes the journal discarded during torn-tail repair at open.
    pub truncated_bytes: u64,
}

/// Wall time of each recovery stage on one service: every recovery pass
/// records one sample into each (see [`LocationService::recovery_stages`]).
#[derive(Debug, Default)]
pub(crate) struct RecoveryTimers {
    open_scan: Histogram,
    restore: Histogram,
    replay: Histogram,
    rebuild: Histogram,
}

impl RecoveryTimers {
    pub(crate) fn snapshot(&self) -> RecoveryStages {
        RecoveryStages {
            open_scan: self.open_scan.snapshot(),
            restore: self.restore.snapshot(),
            replay: self.replay.snapshot(),
            rebuild: self.rebuild.snapshot(),
        }
    }
}

/// Point-in-time copy of a service's recovery stage timers, in nanoseconds,
/// one sample per stage per recovery pass. A stage a pass did not need
/// (no snapshot, no frames, nothing to rebuild) records a sample near 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStages {
    /// The journal's scan: reading and checksumming every retained file —
    /// the pass's wall time less the three stages below.
    pub open_scan: HistogramSnapshot,
    /// Decoding the snapshot and restoring its entries into the trackers.
    pub restore: HistogramSnapshot,
    /// Replaying the retained frames into the trackers.
    pub replay: HistogramSnapshot,
    /// Deriving every shard's spatial index and expiry heap.
    pub rebuild: HistogramSnapshot,
}

/// Typed failure modes of [`recover_and_attach`].
#[derive(Debug)]
pub enum RecoverError {
    /// The journal could not be opened, replayed, or read.
    Journal(JournalError),
    /// The snapshot blob passed its checksum but failed wire decoding.
    Snapshot(DecodeError),
    /// The service already has a journal attached; recovery must run on a
    /// freshly built service.
    AlreadyAttached,
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Journal(err) => write!(f, "journal recovery failed: {err}"),
            RecoverError::Snapshot(err) => write!(f, "snapshot decode failed: {err}"),
            RecoverError::AlreadyAttached => {
                write!(f, "service already has a journal attached")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Journal(err) => Some(err),
            RecoverError::Snapshot(err) => Some(err),
            RecoverError::AlreadyAttached => None,
        }
    }
}

impl From<JournalError> for RecoverError {
    fn from(err: JournalError) -> Self {
        RecoverError::Journal(err)
    }
}

/// Opens the journal at `config.dir` (repairing any torn tail), restores the
/// newest valid snapshot into `service`, replays the retained frame tail, and
/// finally attaches the journal so live ingest appends to it. Returns the
/// journal handle and a [`RecoveryReport`] of what was rebuilt.
///
/// The restore and the replay consume the bytes the journal's open scan
/// reads and checksums ([`Journal::open_and_recover`]), so every retained
/// journal byte is read and checksummed once; see [`recover_into`] for how
/// the work is spread over shards and threads and what an error leaves
/// behind.
///
/// On a fresh (empty) directory this degenerates to "create the journal and
/// attach it" with an all-zero report, so servers use one code path whether
/// or not a previous life existed.
///
/// A service that already has a journal is refused with
/// [`RecoverError::AlreadyAttached`] *before* anything is opened or restored:
/// a second `Journal::open` on a live directory would be a second writer
/// (its open sweeps in-flight `*.tmp` snapshots), and a restore would put
/// snapshot state over live trackers.
pub fn recover_and_attach(
    service: &LocationService,
    config: JournalConfig,
) -> Result<(Arc<Journal>, RecoveryReport), RecoverError> {
    recover_and_attach_with_vfs(service, config, Arc::new(RealFs))
}

/// [`recover_and_attach`] against an explicit storage implementation, as
/// [`Journal::open_with_vfs`] is to [`Journal::open`].
pub fn recover_and_attach_with_vfs(
    service: &LocationService,
    config: JournalConfig,
    vfs: Arc<dyn Vfs>,
) -> Result<(Arc<Journal>, RecoveryReport), RecoverError> {
    if service.journal().is_some() {
        return Err(RecoverError::AlreadyAttached);
    }
    let mut pass = Pass::new(service);
    let opened = Journal::open_and_recover(config, vfs, |item| pass.take(item));
    let journal = Arc::new(pass.finish(opened)?);
    let report = pass.report(&journal);
    // Still checked: a concurrent attach may have won since the test above.
    if !service.attach_journal(Arc::clone(&journal)) {
        return Err(RecoverError::AlreadyAttached);
    }
    Ok((journal, report))
}

/// The restore + replay half of [`recover_and_attach`], without attaching,
/// for a journal the caller has already opened (tests, offline inspection).
/// The open scan's bytes are gone by then, so this reads the snapshot and
/// every retained segment again, once each ([`Journal::recover`]).
///
/// The snapshot body is decoded in full before any tracker is touched, so a
/// [`RecoverError::Snapshot`] leaves the service as it was. Its entries are
/// then bucketed by shard and each shard restored under one write-lock
/// hold. Each segment's frames are bucketed by their source's shard in
/// journal order, borrowed from the segment buffer, and each shard replays
/// its frames under one write-lock hold. Both steps spread the shards over
/// up to [`std::thread::available_parallelism`] threads (the calling thread
/// and scoped helpers, never more than there are shards with work).
///
/// Snapshot entries and replayed frames are written to the trackers only;
/// the spatial indexes and expiry heaps are state *derived* from the
/// trackers' last reports, and are built once, afresh, one bulk build per
/// shard, as the last step: the calling thread plans the shards one after
/// the other ([`mbdr_spatial::MovingIndex::plan_bulk`] — every buffer the
/// index and the expiry heap keep is allocated there, so none lands in a
/// helper's malloc arena), and the fills ([`mbdr_spatial::BulkPlan::fill`])
/// run on up to [`std::thread::available_parallelism`] threads as the plans
/// are made. So until this function returns,
/// [`LocationService::position_of`] already answers from restored state
/// while rect and nearest queries see an index that does not cover it yet.
/// Serve queries only afterwards (`mbdr-net`'s `NetServer::bind_durable`
/// binds its listener after this returns). A pass that wrote to no tracker
/// — a fresh directory — spawns no thread and takes no shard lock at all.
///
/// The snapshot is restored before the journal reads a segment (so its
/// image is gone before the first segment buffer arrives), and each segment
/// is replayed as it is read. A refusal can therefore come after writes: a
/// coverage gap or a first segment in a newer format version after the
/// snapshot was restored, a later segment in a newer format version (or,
/// here, one that no longer validates) after the segments before it were
/// replayed too. The indexes are rebuilt over those trackers all the same,
/// so the service is consistent, but it holds a partial state; build a
/// fresh service before retrying. No refusal modifies a journal file, and a
/// snapshot that fails to decode touches no tracker.
pub fn recover_into(
    service: &LocationService,
    journal: &Journal,
) -> Result<RecoveryReport, RecoverError> {
    let mut pass = Pass::new(service);
    let outcome = journal.recover(|item| pass.take(item));
    pass.finish(outcome)?;
    Ok(pass.report(journal))
}

/// One recovery pass: applies what the journal hands over, counts it and
/// times its stages.
struct Pass<'s> {
    service: &'s LocationService,
    report: RecoveryReport,
    /// When the pass began: just before the journal's scan.
    started: Instant,
    /// Time spent restoring and replaying, inside the scan's callbacks.
    restore: Duration,
    replay: Duration,
}

impl<'s> Pass<'s> {
    fn new(service: &'s LocationService) -> Self {
        Pass {
            service,
            report: RecoveryReport::default(),
            started: Instant::now(),
            restore: Duration::ZERO,
            replay: Duration::ZERO,
        }
    }

    /// Applies one snapshot or segment to the trackers.
    fn take(&mut self, item: Retained<'_>) -> Result<(), RecoverError> {
        let began = Instant::now();
        match item {
            Retained::Snapshot { body, .. } => {
                let restored = self.restore_snapshot(body);
                self.restore += began.elapsed();
                restored
            }
            Retained::Segment(records) => {
                let floor = self.report.snapshot_frames;
                let mut covered = 0;
                let uncovered = records.filter_map(|(index, bytes)| {
                    let is_covered = index < floor;
                    covered += u64::from(is_covered);
                    (!is_covered).then_some(bytes)
                });
                let replayed = self.service.replay_frames(uncovered);
                self.report.covered_frames += covered;
                self.report.replayed_frames += covered + replayed.frames;
                self.report.replayed_updates += replayed.updates;
                self.report.frame_decode_errors += replayed.decode_errors;
                self.replay += began.elapsed();
                Ok(())
            }
        }
    }

    fn restore_snapshot(&mut self, body: &[u8]) -> Result<(), RecoverError> {
        let (frames, entries) = decode_snapshot(body).map_err(RecoverError::Snapshot)?;
        let (restored, skipped) = self.service.restore_entries(&entries);
        self.report.snapshot_frames = frames;
        self.report.restored_objects = restored;
        self.report.skipped_objects = skipped;
        Ok(())
    }

    /// Rebuilds the indexes if any tracker was written — before the pass's
    /// verdict is returned: a pass that failed midway has moved trackers
    /// too, and they must not be left behind a stale index — and records
    /// the pass's four stage times.
    fn finish<T>(&self, outcome: Result<T, RecoverError>) -> Result<T, RecoverError> {
        let scanned = self.started.elapsed().saturating_sub(self.restore + self.replay);
        let began = Instant::now();
        if self.report.restored_objects > 0 || self.report.replayed_updates > 0 {
            self.service.rebuild_indexes();
        }
        let timers = &self.service.recovery;
        timers.rebuild.record_duration(began.elapsed());
        timers.open_scan.record_duration(scanned);
        timers.restore.record_duration(self.restore);
        timers.replay.record_duration(self.replay);
        outcome
    }

    fn report(&self, journal: &Journal) -> RecoveryReport {
        RecoveryReport { truncated_bytes: journal.stats().truncated_bytes, ..self.report }
    }
}
