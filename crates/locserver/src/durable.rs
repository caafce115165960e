//! Crash recovery: open the journal, restore the newest snapshot, replay the
//! retained frame tail, rebuild the spatial indexes from the recovered
//! trackers, then attach the journal for live appends.
//!
//! Replayed frames go through the same staleness-aware
//! [`mbdr_core::ServerTracker`] apply rules as live traffic, so frames the
//! snapshot already covers — or duplicates from an imperfect kill point — are
//! rejected exactly like reordered network deliveries would be. That is what
//! makes *restore snapshot, then replay everything retained* correct without
//! tracking a precise per-object replay cursor.
//!
//! Objects must be registered (with their predictors) on the service *before*
//! recovery runs: a snapshot records tracker state, not prediction functions.
//! Entries for unregistered objects are counted in
//! [`RecoveryReport::skipped_objects`] and dropped.

use crate::service::LocationService;
use mbdr_core::{decode_snapshot, DecodeError};
use mbdr_journal::{Journal, JournalConfig, JournalError};
use std::fmt;
use std::sync::Arc;

/// What a recovery pass found and rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal frame count the restored snapshot covered (0 if none existed).
    pub snapshot_frames: u64,
    /// Snapshot entries restored into registered trackers.
    pub restored_objects: u64,
    /// Snapshot entries dropped because their object was not registered.
    pub skipped_objects: u64,
    /// Frame records replayed from the retained log tail.
    pub replayed_frames: u64,
    /// Updates routed to registered trackers while replaying the tail.
    /// Duplicates and snapshot-covered updates still count here — the
    /// per-object staleness rules silently reject them inside the tracker —
    /// so this equals the update count of the replayed frames whenever every
    /// source is registered.
    pub replayed_updates: u64,
    /// Replayed frames that failed wire decoding. Always 0 in practice —
    /// journal records are checksummed — but a truncated-then-repaired tail
    /// is reported rather than hidden.
    pub frame_decode_errors: u64,
    /// Bytes the journal discarded during torn-tail repair at open.
    pub truncated_bytes: u64,
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
    if service.journal().is_some() {
        return Err(RecoverError::AlreadyAttached);
    }
    let journal = Arc::new(Journal::open(config)?);
    let report = recover_into(service, &journal)?;
    // Still checked: a concurrent attach may have won since the test above.
    if !service.attach_journal(Arc::clone(&journal)) {
        return Err(RecoverError::AlreadyAttached);
    }
    Ok((journal, report))
}

/// The restore + replay half of [`recover_and_attach`], without attaching:
/// useful when the caller owns journal lifecycle (tests, offline inspection).
///
/// Snapshot entries and replayed frames are written to the trackers only; the
/// spatial indexes and expiry heaps are state *derived* from the trackers'
/// last reports, and are built once, from scratch, as the last step — so
/// until this function returns, [`LocationService::position_of`] already
/// answers from restored state while rect and nearest queries see an index
/// that does not cover it yet. Serve queries only afterwards
/// (`mbdr-net`'s `NetServer::bind_durable` binds its listener after this
/// returns). A pass that wrote to no tracker — a fresh directory — takes no
/// shard lock at all.
pub fn recover_into(
    service: &LocationService,
    journal: &Journal,
) -> Result<RecoveryReport, RecoverError> {
    let mut report = RecoveryReport::default();
    if let Some(blob) = journal.load_snapshot()? {
        let (frames, entries) = decode_snapshot(&blob.body).map_err(RecoverError::Snapshot)?;
        let (restored, skipped) = service.restore_entries(&entries);
        report.snapshot_frames = frames;
        report.restored_objects = restored;
        report.skipped_objects = skipped;
    }
    let mut updates = 0u64;
    let mut decode_errors = 0u64;
    let replayed = journal.replay(|_, bytes| match service.replay_frame_bytes(bytes) {
        Ok(n) => updates += n as u64,
        Err(_) => decode_errors += 1,
    });
    // Before the replay's verdict is looked at: a replay that failed midway
    // has moved trackers too, and they must not be left behind a stale index.
    if report.restored_objects > 0 || updates > 0 {
        service.rebuild_indexes();
    }
    report.replayed_frames = replayed?;
    report.replayed_updates = updates;
    report.frame_decode_errors = decode_errors;
    report.truncated_bytes = journal.stats().truncated_bytes;
    Ok(report)
}
