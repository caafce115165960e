//! Durability: crash recovery, and the degraded-mode state machine of a
//! journaled service.
//!
//! ## Recovery
//!
//! [`recover_and_attach`] is the one way to a journaled service: open the
//! journal, restore the newest snapshot, replay the retained frame tail,
//! rebuild the spatial indexes from the recovered trackers, then attach the
//! journal for live appends.
//!
//! Every snapshot grant starts a journal segment at the frame count it
//! grants, and installing the snapshot deletes every segment before that
//! one, so the journal this build writes holds the newest snapshot plus the
//! frames appended since its grant, and a recovery reads only frames it
//! replays (the open scan also finishes a compaction a crash cut short).
//! A journal written by an earlier build can still hold a segment that
//! straddles the snapshot's floor: the open scan checksums its records below
//! the floor like every other, but hands over only those from the floor on.
//! That skip is exact: the snapshot was collected after every frame below
//! its grant had been applied, so the staleness-aware
//! [`mbdr_core::ServerTracker`] apply rules would reject each covered update
//! anyway. The frames at and above the floor go through those same rules as
//! live traffic, so duplicates from an imperfect kill point (frames appended
//! after the grant and collected into the snapshot too) are rejected exactly
//! like reordered network deliveries would be — no precise per-object
//! replay cursor is needed.
//!
//! A directory written in an older format version is upgraded in place by
//! the first recovery that opens it (see [`recover_and_attach`]).
//!
//! ## Snapshot writes
//!
//! A journaled service proposes a snapshot when the journal's threshold is
//! reached ([`mbdr_journal::Journal::snapshot_pending`]). A grant refused
//! because another snapshot is in flight skips the snapshot. A grant whose
//! rotation the disk failed (counted in the journal's `append_errors`) is a
//! failed journal write: the rotation's sync covered the frames appended
//! since the last batch sync, and it may have left a segment at the grant's
//! base, so the service degrades exactly as on a failed append (see
//! *Degraded mode*). While degraded no threshold snapshot is proposed: the
//! re-probe repairs the journal before it grants its forced snapshot. A
//! snapshot that fails to write only delays compaction.
//! Each granted snapshot records the wall time
//! of its four stages — grant, collect, encode, install — into histograms
//! on the service ([`LocationService::snapshot_stages`]), off the serve
//! path.
//!
//! Recovery reads every retained journal byte once, writes each shard under
//! one write-lock hold per step and derives each shard's index once at the
//! end; [`recover_and_attach`] documents how, and what an error leaves
//! behind. Each pass records the wall time of its four stages — open scan,
//! restore, replay, rebuild — into histograms on the service
//! ([`LocationService::recovery_stages`]).
//!
//! Objects must be registered (with their predictors) on the service *before*
//! recovery runs: a snapshot records tracker state, not prediction functions.
//! Entries for unregistered objects are counted in
//! [`RecoveryReport::skipped_objects`] and dropped.
//!
//! ## Degraded mode
//!
//! A location server would rather serve stale-bounded answers than refuse
//! them: when the write-ahead journal's disk starts failing, the service
//! keeps applying frames to the in-memory trackers and only *flags* the lost
//! durability instead of erroring every ingest. `DurabilityControl` is the
//! small lock-free state block that tracks which regime the service is in:
//!
//! * [`DurabilityState::Durable`] — every applied frame is in the journal.
//! * [`DurabilityState::Degraded`] — a journal append, or the segment
//!   rotation of a snapshot grant, failed; serving continues, but applied frames are counted in
//!   `degraded_frames` instead of journaled. A crash in this window loses
//!   exactly those frames (the paper's dead-reckoning staleness bounds still
//!   hold for everything the server *answers* — only replay completeness is
//!   at risk).
//! * [`DurabilityState::Recovered`] — a re-probe
//!   ([`LocationService::probe_durability`]) found the disk writable
//!   again, repaired the journal tail ([`mbdr_journal::Journal::repair_and_sync`])
//!   and installed a forced snapshot of the *current* tracker state, which
//!   re-establishes the durability floor above the un-journaled window.
//!   `Recovered` journals appends exactly like `Durable`; it is a distinct
//!   state so operators can see that a degradation happened and healed.
//!   It stays a state, not an event: clients read it as state byte 2 of the
//!   wire's `RESP_HEALTH` (`docs/WIRE.md`), the `faults` baseline counts its
//!   transitions, and the service keeps no event ring that could carry it.
//!
//! Transitions are monotone within one incident (`Durable`/`Recovered` →
//! `Degraded` → `Recovered`) but the machine is re-entrant: a recovered
//! service that hits the disk again re-degrades, and both transition
//! counters keep counting. All fields are relaxed atomics — the state read
//! on the ingest hot path is a single `AtomicU8` load.

use crate::legacy;
use crate::service::LocationService;
use mbdr_core::{decode_snapshot, DecodeError, DurabilityState};
use mbdr_journal::{
    Histogram, HistogramSnapshot, Journal, JournalConfig, JournalError, RealFs, Retained, Vfs,
};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
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
    /// Frame records the journal handed over and the pass replayed —
    /// `JournalStatsSnapshot::recovered_frames` of the pass: the retained
    /// records from the snapshot's floor on (the open scan checksums, but
    /// never hands over, any below it; see the module docs).
    pub replayed_frames: u64,
    /// Updates routed to registered trackers from the replayed frames.
    /// Duplicates still count here — the per-object staleness rules
    /// silently reject them inside the tracker — so this equals the update
    /// count of the replayed frames whenever every source is registered.
    pub replayed_updates: u64,
    /// Replayed frames that failed wire decoding (for a frame of an older
    /// format version: that failed to decode or to re-encode in the current
    /// layout). Always 0 in practice — journal records are checksummed — but
    /// a truncated-then-repaired tail is reported rather than hidden.
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

/// Wall time of each stage of writing a snapshot to the journal, on one
/// service: every granted snapshot records one sample into each stage it
/// reaches (see [`LocationService::snapshot_stages`]).
#[derive(Debug, Default)]
pub(crate) struct SnapshotTimers {
    pub(crate) grant: Histogram,
    pub(crate) collect: Histogram,
    pub(crate) encode: Histogram,
    pub(crate) install: Histogram,
}

impl SnapshotTimers {
    pub(crate) fn snapshot(&self) -> SnapshotStages {
        SnapshotStages {
            grant: self.grant.snapshot(),
            collect: self.collect.snapshot(),
            encode: self.encode.snapshot(),
            install: self.install.snapshot(),
        }
    }
}

/// Point-in-time copy of a service's snapshot-write stage timers, in
/// nanoseconds, one sample per stage per granted snapshot (a refused grant
/// records nothing; an encode failure records no install).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStages {
    /// [`Journal::try_begin_snapshot`] / [`Journal::begin_forced_snapshot`]:
    /// claiming the slot and the rotation that starts a segment at the
    /// grant, the old segment's sync included.
    pub grant: HistogramSnapshot,
    /// Gathering every shard's tracker state under read locks and sorting
    /// it by object id.
    pub collect: HistogramSnapshot,
    /// Encoding the sorted entries into the snapshot body.
    pub encode: HistogramSnapshot,
    /// [`Journal::install_snapshot`]: writing, syncing and renaming the
    /// snapshot file, then compacting the segments below the grant.
    pub install: HistogramSnapshot,
}

/// Typed failure modes of [`recover_and_attach`].
#[derive(Debug)]
pub enum RecoverError {
    /// The journal could not be opened, replayed, or read.
    Journal(JournalError),
    /// The snapshot body passed its checksum but failed wire decoding.
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
/// journal byte is read and checksummed once. The snapshot body is decoded
/// in full before any tracker is touched, so a [`RecoverError::Snapshot`]
/// leaves the service as it was. Its entries are then bucketed by shard and
/// each shard restored under one write-lock hold. Each segment's frames are
/// bucketed by their source's shard in journal order, borrowed from the
/// segment buffer, and each shard replays its frames under one write-lock
/// hold. Both steps spread the shards over up to
/// [`std::thread::available_parallelism`] threads (the calling thread and
/// scoped helpers, never more than there are shards with work).
///
/// Snapshot entries and replayed frames are written to the trackers only;
/// the spatial indexes and expiry heaps are state *derived* from the
/// trackers' last reports, and are built once, afresh, one bulk build per
/// shard, as the last step: the calling thread plans the shards one after
/// the other ([`mbdr_spatial::MovingIndex::plan_bulk`] — every buffer the
/// index and the expiry heap keep is allocated there, so none lands in a
/// helper's malloc arena), and the fills ([`mbdr_spatial::BulkPlan::fill`])
/// run on up to as many threads as the plans are made. Until this function
/// returns, [`LocationService::position_of`] already answers from restored
/// state while rect and nearest queries see an index that does not cover it
/// yet; serve queries only afterwards (`mbdr-net`'s
/// `NetServer::bind_durable` binds its listener after this returns). A pass
/// that wrote to no tracker — a fresh directory — spawns no thread and takes
/// no shard lock at all.
///
/// On a fresh (empty) directory this degenerates to "create the journal and
/// attach it" with an all-zero report, so servers use one code path whether
/// or not a previous life existed.
///
/// A pass that replayed a segment of an older format version (re-encoded in
/// the current layout by the private `legacy` module) upgrades the directory
/// before it attaches the journal: a forced snapshot of the recovered
/// trackers, whose install compacts every older file away. A failed upgrade
/// snapshot is returned as [`RecoverError::Journal`] with nothing attached;
/// the directory still holds every acknowledged frame.
///
/// A service that already has a journal is refused with
/// [`RecoverError::AlreadyAttached`] *before* anything is opened or restored:
/// a second `Journal::open` on a live directory would be a second writer
/// (its open sweeps in-flight `*.tmp` snapshots), and a restore would put
/// snapshot state over live trackers.
///
/// The snapshot is restored before the journal reads a segment (so its
/// image is gone before the first segment buffer arrives), and each segment
/// is replayed as it is read. A refusal can therefore come after writes: a
/// coverage gap or a first segment in a newer format version after the
/// snapshot was restored, a later segment in a newer format version after
/// the segments before it were replayed too. The indexes are rebuilt over
/// those trackers all the same, so the service is consistent, but it holds
/// a partial state and no journal; build a fresh service before retrying.
/// No refusal modifies a journal file, and a snapshot that fails to decode
/// touches no tracker.
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
    let upgrade = pass.replayed_older;
    let (journal, report) = pass.finish(opened)?;
    if upgrade {
        service.write_forced_snapshot(&journal)?;
    }
    let journal = Arc::new(journal);
    // Still checked: a concurrent attach may have won since the test above.
    if !service.attach_journal(Arc::clone(&journal)) {
        return Err(RecoverError::AlreadyAttached);
    }
    Ok((journal, report))
}

/// One recovery pass: applies what the journal hands over, counts it and
/// times its stages.
struct Pass<'s> {
    service: &'s LocationService,
    report: RecoveryReport,
    /// A segment of an older format version was replayed.
    replayed_older: bool,
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
            replayed_older: false,
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
                let replayed = match legacy::current_frames(&records) {
                    Some(frames) => {
                        self.replayed_older = true;
                        self.service.replay_frames(frames.iter().map(Vec::as_slice))
                    }
                    None => self.service.replay_frames(records.map(|(_, bytes)| bytes)),
                };
                self.report.replayed_frames += replayed.frames;
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
    /// too, and they must not be left behind a stale index — records the
    /// pass's four stage times, and reports on the opened journal.
    fn finish(
        self,
        opened: Result<Journal, RecoverError>,
    ) -> Result<(Journal, RecoveryReport), RecoverError> {
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
        let journal = opened?;
        let report =
            RecoveryReport { truncated_bytes: journal.stats().truncated_bytes, ..self.report };
        Ok((journal, report))
    }
}

mbdr_journal::counters! {
    /// The monotone counters of one [`DurabilityControl`].
    pub(crate) struct DurabilityCounters {
        /// Frames applied to trackers *without* being journaled while
        /// degraded — the exact count of applies a crash in the degraded
        /// window would lose.
        degraded_frames,
        /// Durable/Recovered → Degraded transitions (distinct disk incidents).
        degraded_transitions,
        /// Degraded → Recovered transitions (healed incidents).
        recovered_transitions,
        /// Re-probe attempts made while degraded (successful or not).
        probe_attempts,
    }
    /// Point-in-time copy of a service's `DurabilityControl` (surfaced through
    /// `mbdr-net`'s `ServerStatsSnapshot`).
    pub snapshot DurabilityStatsSnapshot {
        /// Current durability regime.
        pub state: DurabilityState,
    }
}

/// Live durability state + counters for one [`crate::LocationService`].
///
/// Updated from the ingest path ([`DurabilityControl::enter_degraded`],
/// [`DurabilityControl::note_degraded_frame`]) and the re-probe path
/// ([`DurabilityControl::note_probe_attempt`],
/// [`DurabilityControl::mark_recovered`]); read via
/// [`DurabilityControl::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct DurabilityControl {
    /// Current [`DurabilityState`], stored as its wire byte (see
    /// [`DurabilityState::to_wire`]) so the hot-path check is one atomic load.
    state: AtomicU8,
    counters: DurabilityCounters,
}

impl DurabilityControl {
    /// The current state.
    pub(crate) fn state(&self) -> DurabilityState {
        // Only `to_wire` values are ever stored, so the fallback is dead code
        // kept for panic-freedom.
        DurabilityState::from_wire(self.state.load(Ordering::Relaxed))
            .unwrap_or(DurabilityState::Degraded)
    }

    /// Is the service currently in the degraded (non-journaling) regime?
    /// Single relaxed load — cheap enough for the ingest hot path.
    pub(crate) fn is_degraded(&self) -> bool {
        self.state.load(Ordering::Relaxed) == DurabilityState::Degraded.to_wire()
    }

    /// Flips to [`DurabilityState::Degraded`]. Counts a transition only when
    /// the previous state was not already degraded, so concurrent shard
    /// failures in one incident count once.
    pub(crate) fn enter_degraded(&self) {
        let prev = self.state.swap(DurabilityState::Degraded.to_wire(), Ordering::Relaxed);
        if prev != DurabilityState::Degraded.to_wire() {
            self.counters.degraded_transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one frame applied without journaling while degraded.
    pub(crate) fn note_degraded_frame(&self) {
        self.counters.degraded_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one re-probe attempt.
    pub(crate) fn note_probe_attempt(&self) {
        self.counters.probe_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Flips to [`DurabilityState::Recovered`] after a successful re-probe.
    /// Counts a transition only when the previous state was degraded.
    pub(crate) fn mark_recovered(&self) {
        let prev = self.state.swap(DurabilityState::Recovered.to_wire(), Ordering::Relaxed);
        if prev == DurabilityState::Degraded.to_wire() {
            self.counters.recovered_transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies state + counters into a plain-value snapshot.
    pub(crate) fn snapshot(&self) -> DurabilityStatsSnapshot {
        DurabilityStatsSnapshot { state: self.state(), ..self.counters.snapshot() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_count_incidents_not_calls() {
        let control = DurabilityControl::default();
        assert_eq!(control.state(), DurabilityState::Durable);
        assert!(!control.is_degraded());

        control.enter_degraded();
        control.enter_degraded(); // same incident, counted once
        assert!(control.is_degraded());
        assert_eq!(control.snapshot().degraded_transitions, 1);

        control.note_degraded_frame();
        control.note_degraded_frame();
        control.note_probe_attempt();
        control.mark_recovered();
        control.mark_recovered(); // already recovered: no second healing
        assert_eq!(control.state(), DurabilityState::Recovered);
        assert!(!control.is_degraded());

        // Re-entrant: a recovered service can degrade again.
        control.enter_degraded();
        control.mark_recovered();
        let snap = control.snapshot();
        assert_eq!(snap.state, DurabilityState::Recovered);
        assert_eq!(snap.degraded_frames, 2);
        assert_eq!(snap.degraded_transitions, 2);
        assert_eq!(snap.recovered_transitions, 2);
        assert_eq!(snap.probe_attempts, 1);
    }

    #[test]
    fn default_snapshot_is_durable_and_zeroed() {
        assert_eq!(DurabilityStatsSnapshot::default().state, DurabilityState::Durable);
        assert_eq!(DurabilityControl::default().snapshot(), DurabilityStatsSnapshot::default());
    }
}
