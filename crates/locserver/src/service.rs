//! The multi-object location store and its queries.
//!
//! The store is partitioned into [`ServiceConfig::shards`] lock stripes, each
//! holding the [`mbdr_core::ServerTracker`]s of the objects hashed to it plus
//! a [`mbdr_spatial::MovingIndex`] over conservative bounding boxes of their
//! predicted positions (see the private `shard` module for the index invariant). Update
//! ingestion touches exactly one shard; range and nearest queries visit the
//! shards' indexes and never hold a global lock, and their answers are
//! identical to what a full scan over every tracker would return.

use crate::config::ServiceConfig;
use crate::durability::{DurabilityControl, DurabilityStatsSnapshot};
use crate::durable::{RecoveryStages, RecoveryTimers};
use crate::shard::ShardState;
use crate::shard::{CandidateScratch, Shard};
use mbdr_core::wire::snapshot::{encode_snapshot_into, SnapshotEntry};
use mbdr_core::{DecodeError, FrameView, HealthStatus, Predictor, Update};
use mbdr_geo::{Aabb, Point};
use mbdr_journal::Journal;
use mbdr_spatial::first_ring_radius;
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::{Arc, OnceLock};
use std::thread;

/// Identifier of a tracked mobile object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

/// A position answer from the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionReport {
    /// The object the answer is about.
    pub object: ObjectId,
    /// Predicted position at the query time.
    pub position: Point,
    /// Age of the newest update this prediction is based on, seconds.
    pub information_age: f64,
}

/// Reusable buffers for the query hot paths
/// ([`LocationService::objects_in_rect_into`],
/// [`LocationService::nearest_objects_into`]).
///
/// Queries take shard *read* locks, so many readers run concurrently — the
/// scratch therefore belongs to the caller (one per connection or query
/// thread), not to the service: each reader reuses its own buffers and the
/// steady-state allocation count per query is zero once the buffers have
/// reached their high-water capacity.
///
/// Besides the candidate buffers, a scratch holds a second rect-answer
/// buffer for the radix sort, so a reader's high-water mark is about twice
/// its largest rect answer times 32 bytes (one for the caller's answer
/// `Vec`, one here); `mbdr-net` keeps one scratch per connection.
#[derive(Default)]
pub struct QueryScratch {
    /// Candidate walk + batch-prediction buffers (seen mask, candidate slot
    /// ids and the struct-of-arrays prediction output; see `crate::shard`).
    pub(crate) cand: CandidateScratch,
    /// The radix sort's second buffer for rect answers.
    radix: Vec<PositionReport>,
    /// Nearest-query candidates: exact distance + report.
    near: Vec<(f64, PositionReport)>,
    /// Nearest queries served with this scratch.
    nearest_queries: u64,
    /// Rings those queries collected, summed.
    rings: u64,
}

impl QueryScratch {
    /// Cumulative candidate-dedup counters over every query this scratch has
    /// served: `(candidates inspected, unique candidates)`. The ratio between
    /// the two is the direct observable of placement skew on the query path —
    /// an object spanning many visited cells is inspected once per cell but
    /// deduplicated to one candidate.
    pub fn dedup_counters(&self) -> (u64, u64) {
        self.cand.dedup_counters()
    }

    /// Cumulative ring counters over every nearest query this scratch has
    /// served: `(nearest queries, rings collected)`. Each ring is one
    /// candidate walk over every shard, so the ratio is how often the first
    /// ring had to grow; a query answered without a walk (`k = 0`, a
    /// non-finite point or time) counts with zero rings.
    pub fn ring_counters(&self) -> (u64, u64) {
        (self.nearest_queries, self.rings)
    }
}

/// Answers below this many reports are put in id order by a comparison
/// sort: the radix sort's fixed cost per pass (a 2 048-bucket histogram and
/// its prefix sum) only pays off above it. On a 2-vCPU x86-64 host the two
/// cross between 384 and 512 reports of ids below 10⁵.
const RADIX_MIN: usize = 384;

/// Bits per radix digit: six digits cover a 64-bit id.
const DIGIT_BITS: u32 = 11;

/// Buckets per radix digit.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Puts `reports` in ascending object-id order, using `spare` as the radix
/// sort's second buffer (see [`LocationService::objects_in_rect_into`]).
/// Ids must be unique; on return `reports` and `spare` may have swapped
/// allocations.
fn sort_by_object(reports: &mut Vec<PositionReport>, spare: &mut Vec<PositionReport>) {
    let Some(&first) = reports.first() else {
        return;
    };
    if reports.len() < RADIX_MIN {
        reports.sort_unstable_by_key(|r| r.object);
        return;
    }
    // A digit in which every id equals the first id's is already sorted.
    let differ = reports.iter().fold(0, |acc, r| acc | (r.object.0 ^ first.object.0));
    // Every pass overwrites all of `dst`, so stale contents may stay.
    spare.resize(reports.len(), first);
    for shift in (0..u64::BITS).step_by(DIGIT_BITS as usize) {
        if (differ >> shift) & (BUCKETS as u64 - 1) != 0 {
            radix_pass(reports, spare, shift);
            std::mem::swap(reports, spare);
        }
    }
}

/// One stable counting-sort pass of `src` into `dst` on the digit at `shift`.
#[expect(
    clippy::indexing_slicing,
    reason = "digits are masked below BUCKETS; the buckets partition `0..src.len() == dst.len()`"
)]
fn radix_pass(src: &[PositionReport], dst: &mut [PositionReport], shift: u32) {
    let digit = |r: &PositionReport| (r.object.0 >> shift) as usize & (BUCKETS - 1);
    let mut offsets = [0usize; BUCKETS];
    for r in src {
        offsets[digit(r)] += 1;
    }
    let mut start = 0;
    for offset in &mut offsets {
        let count = *offset;
        *offset = start;
        start += count;
    }
    for r in src {
        let at = &mut offsets[digit(r)];
        dst[*at] = *r;
        *at += 1;
    }
}

/// Aggregated spatial-index occupancy diagnostics across every shard
/// (see [`LocationService::index_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Objects currently carried in the shard indexes.
    pub indexed: usize,
    /// Occupied grid cells, summed over shards.
    pub occupied_cells: usize,
    /// Highest entry count in any single cell of any shard — the direct
    /// observable of hotspot skew.
    pub max_cell_occupancy: usize,
}

/// What [`LocationService::replay_frames`] did with one segment's frames.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Replayed {
    /// Frames handed in.
    pub(crate) frames: u64,
    /// Updates routed to registered trackers.
    pub(crate) updates: u64,
    /// Frames that failed wire decoding.
    pub(crate) decode_errors: u64,
}

/// A thread-safe, lock-striped location service tracking many objects.
pub struct LocationService {
    config: ServiceConfig,
    shards: Vec<Shard>,
    /// Write-ahead journal for ingested frames, set at most once (see
    /// [`LocationService::attach_journal`]). `OnceLock` keeps the steady-state
    /// read on the ingest path a plain atomic load.
    journal: OnceLock<Arc<Journal>>,
    /// Durable / Degraded / Recovered state machine (see [`crate::durability`]):
    /// which regime journaling is in, and the exact count of frames applied
    /// without durability while the journal's disk was failing.
    durability: DurabilityControl,
    /// Stage times of the recovery passes run on this service.
    pub(crate) recovery: RecoveryTimers,
}

impl Default for LocationService {
    fn default() -> Self {
        Self::new()
    }
}

impl LocationService {
    /// Creates an empty service with the default configuration.
    pub fn new() -> Self {
        LocationService::with_config(ServiceConfig::default())
    }

    /// Creates an empty service with the given shard count and index tuning.
    pub fn with_config(config: ServiceConfig) -> Self {
        let config = config.validated();
        let shards = (0..config.shards).map(|_| Shard::new(config)).collect();
        LocationService {
            config,
            shards,
            journal: OnceLock::new(),
            durability: DurabilityControl::default(),
            recovery: RecoveryTimers::default(),
        }
    }

    /// Attaches an opened [`Journal`]: every later
    /// [`LocationService::apply_frame_bytes`] call records the frame's exact
    /// bytes before applying them, and snapshot proposals run when the
    /// journal's threshold is reached. At most one journal can ever be
    /// attached; returns `false` (leaving the existing one in place) on a
    /// second attempt.
    ///
    /// Attach *after* restoring state — [`crate::durable::recover_and_attach`]
    /// runs the full open → restore → replay → attach sequence.
    pub fn attach_journal(&self, journal: Arc<Journal>) -> bool {
        self.journal.set(journal).is_ok()
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.get()
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard responsible for `object` (Fibonacci multiplicative
    /// hash so sequential fleet ids spread evenly over the stripes).
    fn shard_index(&self, object: ObjectId) -> usize {
        let h = (object.0 ^ (object.0 >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.shards.len()
    }

    /// The shard responsible for `object`.
    #[expect(clippy::indexing_slicing, reason = "shard_index is modulo shards.len()")]
    fn shard_of(&self, object: ObjectId) -> &Shard {
        &self.shards[self.shard_index(object)]
    }

    /// Registers an object with the prediction function its update protocol
    /// uses (source and server must share the predictor — see the protocol
    /// trait's `predictor()`).
    pub fn register(&self, object: ObjectId, predictor: Arc<dyn Predictor>) {
        self.shard_of(object).write(|s| s.register(object, predictor));
    }

    /// Removes an object from the service (store and spatial index). Returns
    /// `true` if the object was registered.
    pub fn deregister(&self, object: ObjectId) -> bool {
        self.shard_of(object).write(|s| s.deregister(object))
    }

    /// Number of registered objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read(|st| st.object_count())).sum()
    }

    /// Number of objects currently carried in the spatial indexes (objects
    /// become indexed with their first accepted update).
    pub fn indexed_count(&self) -> usize {
        self.shards.iter().map(|s| s.read(|st| st.indexed_count())).sum()
    }

    /// Ingests an update message for an object, re-anchoring its spatial-index
    /// entry. Returns `false` if the object is not registered.
    pub fn apply_update(&self, object: ObjectId, update: &Update) -> bool {
        self.shard_of(object).write(|s| s.apply_update(object, update))
    }

    /// Ingests a batch of updates, taking each stripe's write lock **once**
    /// for all of the batch's updates that hash to it instead of once per
    /// update. Updates are applied in batch order within every shard, so the
    /// observable service state is identical to calling
    /// [`LocationService::apply_update`] for each element in order. Returns
    /// the number of updates applied to registered objects.
    #[expect(clippy::indexing_slicing, reason = "`order` holds valid shard and batch indexes")]
    pub fn apply_batch(&self, batch: &[(ObjectId, Update)]) -> usize {
        // One allocation for the whole batch: sort (shard, batch index) pairs
        // so each stripe's updates form a contiguous run, in batch order
        // (unstable sort is fine — the index makes every key distinct).
        let mut order: Vec<(usize, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, (object, _))| (self.shard_index(*object), i))
            .collect();
        order.sort_unstable();
        let mut applied = 0;
        let mut run_start = 0;
        while run_start < order.len() {
            let shard_index = order[run_start].0;
            let run_end = run_start
                + order[run_start..].iter().take_while(|&&(s, _)| s == shard_index).count();
            applied += self.shards[shard_index].write(|s| {
                order[run_start..run_end]
                    .iter()
                    .filter(|&&(_, i)| {
                        let (object, update) = &batch[i];
                        s.apply_update(*object, update)
                    })
                    .count()
            });
            run_start = run_end;
        }
        applied
    }

    /// Decodes an encoded frame straight off the wire and ingests it — the
    /// receive path of the uplink protocol. Truncated or corrupted buffers
    /// report the codec's typed error instead of touching any shard.
    ///
    /// Zero-copy: the frame is validated and consumed through a borrowed
    /// [`FrameView`], decoding each update into a stack value under the
    /// shard's single write-lock hold — no intermediate `Vec<Update>` is
    /// ever built, so steady-state ingest performs no heap allocation (the
    /// property the `mbdr-bench` counting-allocator gate enforces).
    ///
    /// With a journal attached (see [`LocationService::attach_journal`]) the
    /// validated frame bytes are appended to the write-ahead log *inside* the
    /// shard's write-lock hold, immediately before they are applied: readers
    /// can never observe applied state whose frame is not yet in the journal,
    /// which is what makes snapshot collection under shard read locks
    /// consistent with the journal's frame count. The append reuses the
    /// borrowed slice (stack-built record header, no re-encode), so journaled
    /// steady-state ingest stays allocation-free too.
    ///
    /// A failed append does **not** fail the ingest: the service flips to the
    /// degraded regime (see [`crate::durability`]), keeps applying frames, and
    /// counts every un-journaled apply until
    /// [`LocationService::probe_durability`] heals the journal. The
    /// steady-state durable path pays one extra relaxed atomic load.
    pub fn apply_frame_bytes(&self, bytes: &[u8]) -> Result<usize, DecodeError> {
        let view = FrameView::parse(bytes)?;
        if view.is_empty() {
            return Ok(0);
        }
        let object = ObjectId(view.source());
        let journal = self.journal.get();
        let applied = self.shard_of(object).write(|s| {
            if let Some(journal) = journal {
                if self.durability.is_degraded() {
                    self.durability.note_degraded_frame();
                } else if !journal.record_frame(bytes) {
                    self.durability.enter_degraded();
                    self.durability.note_degraded_frame();
                }
            }
            view.updates().filter(|u| s.apply_update(object, u)).count()
        });
        if let Some(journal) = journal {
            if journal.snapshot_pending() {
                self.snapshot_to_journal(journal);
            }
        }
        Ok(applied)
    }

    /// Derives every shard's spatial index and expiry heap afresh from its
    /// trackers, one write-lock hold per shard — the last step of a recovery
    /// pass that restored or replayed anything. The shards run on the
    /// calling thread: on a helper thread [`LocationService::write_shards`]
    /// would put half of the indexes in the helper's malloc arena, which
    /// raised peak RSS by up to 4 % on 100 000 objects.
    pub(crate) fn rebuild_indexes(&self) {
        for shard in &self.shards {
            shard.write(|s| s.rebuild_index());
        }
    }

    /// Proposes and, if the journal grants it, installs a snapshot of the full
    /// tracker state. Collection takes each shard's read lock in turn; because
    /// appends happen inside the shard write hold *before* the apply, every
    /// frame counted by the journal at grant time is visible to the collection
    /// (frames appended concurrently after the grant may also be included,
    /// which is harmless: replaying them over the snapshot is rejected by the
    /// staleness rules). Failures are counted on the journal and swallowed —
    /// a snapshot that could not be written only delays compaction.
    pub(crate) fn snapshot_to_journal(&self, journal: &Journal) {
        let Some(frames) = journal.begin_snapshot() else {
            return;
        };
        self.write_snapshot(journal, frames);
    }

    /// Collects every shard's tracker state under read locks, sorted by
    /// object id (the snapshot codec's canonical order).
    fn collect_snapshot_entries(&self) -> Vec<SnapshotEntry> {
        let mut entries = Vec::with_capacity(self.object_count());
        for shard in &self.shards {
            shard.read(|s| s.snapshot_entries_into(&mut entries));
        }
        entries.sort_unstable_by_key(|e| e.object);
        entries
    }

    /// Encodes and installs a snapshot for a grant already obtained from
    /// [`Journal::begin_snapshot`] / [`Journal::begin_forced_snapshot`].
    /// Returns whether the snapshot was durably installed; failures are
    /// counted on the journal and release the grant.
    fn write_snapshot(&self, journal: &Journal, frames: u64) -> bool {
        let entries = self.collect_snapshot_entries();
        let mut body = Vec::new();
        match encode_snapshot_into(frames, &entries, &mut body) {
            Ok(()) => {
                if journal.install_snapshot(frames, &body).is_err() {
                    journal.note_write_error();
                    return false;
                }
                true
            }
            Err(_) => {
                journal.note_write_error();
                journal.abort_snapshot();
                false
            }
        }
    }

    /// One durability re-probe: if the service is degraded, checks whether
    /// the journal's disk accepts writes again
    /// ([`Journal::repair_and_sync`] — repairs the torn tail and forces an
    /// fsync) and, if so, installs a **forced** snapshot of the current
    /// tracker state. The snapshot covers every frame applied while degraded,
    /// so it re-establishes the durability floor above the un-journaled
    /// window, and the service flips to [`mbdr_core::DurabilityState::Recovered`]
    /// — appends journal normally again.
    ///
    /// Returns `true` when the service is durable after the call (including
    /// "was never degraded"); `false` means the disk is still failing and the
    /// caller should back off and retry (`mbdr-net`'s server runs this on a
    /// background thread with capped exponential backoff).
    pub fn probe_durability(&self) -> bool {
        if !self.durability.is_degraded() {
            return true;
        }
        let Some(journal) = self.journal.get() else {
            // Unreachable: the service only degrades on a failed journal
            // append, which requires an attached journal.
            return true;
        };
        self.durability.note_probe_attempt();
        if journal.repair_and_sync().is_err() {
            return false;
        }
        let Some(frames) = journal.begin_forced_snapshot() else {
            // A threshold snapshot is in flight; let it finish and retry.
            return false;
        };
        if !self.write_snapshot(journal, frames) {
            return false;
        }
        self.durability.mark_recovered();
        true
    }

    /// Wall time of each stage of every recovery pass run on this service
    /// (`recover_and_attach`, `recover_into`): open scan, restore, replay and
    /// index rebuild, one sample per stage per pass.
    pub fn recovery_stages(&self) -> RecoveryStages {
        self.recovery.snapshot()
    }

    /// Point-in-time copy of the durability state machine's counters.
    pub fn durability_stats(&self) -> DurabilityStatsSnapshot {
        self.durability.snapshot()
    }

    /// The service's health summary — the payload of the wire protocol's
    /// `REQ_HEALTH` / `RESP_HEALTH` pair: durability state, the degraded-window
    /// frame count, and the attached journal's recovery counters (zeros when
    /// no journal is attached).
    pub fn health_status(&self) -> HealthStatus {
        let durability = self.durability.snapshot();
        let journal = self.journal.get().map(|j| j.stats()).unwrap_or_default();
        HealthStatus {
            state: durability.state,
            degraded_frames: durability.degraded_frames,
            recovered_frames: journal.recovered_frames,
            truncated_bytes: journal.truncated_bytes,
            append_errors: journal.append_errors,
        }
    }

    /// Restores tracker state from decoded snapshot entries (trackers only;
    /// see [`LocationService::rebuild_indexes`]): the entries are bucketed by
    /// shard and each shard is restored under one write-lock hold, the
    /// shards spread over threads by [`LocationService::write_shards`].
    /// Returns `(restored, skipped)` — an entry is skipped when its object is
    /// not registered on this service (recovery cannot invent the predictor).
    #[expect(clippy::indexing_slicing, reason = "shard_index is modulo shards.len()")]
    pub(crate) fn restore_entries(&self, entries: &[SnapshotEntry]) -> (u64, u64) {
        let mut buckets: Vec<Vec<&SnapshotEntry>> = vec![Vec::new(); self.shards.len()];
        for entry in entries {
            buckets[self.shard_index(ObjectId(entry.object))].push(entry);
        }
        let restored: u64 = self
            .write_shards(&buckets, |s, bucket| {
                let restored = bucket.iter().filter(|e| {
                    s.restore_object(
                        ObjectId(e.object),
                        &e.update,
                        e.updates_applied,
                        e.bytes_received,
                    )
                });
                restored.count() as u64
            })
            .into_iter()
            .sum();
        (restored, entries.len() as u64 - restored)
    }

    /// Recovery twin of [`LocationService::apply_frame_bytes`] for one
    /// journal segment's frames: each frame goes to its source's shard in
    /// journal order (one object's frames always share a shard, so each
    /// object sees its frames in order), and each shard applies its frames
    /// under one write-lock hold, the shards spread over threads by
    /// [`LocationService::write_shards`]. The frames are borrowed from the
    /// segment buffer, never copied. Same staleness rules as live ingest,
    /// nothing re-journaled, and no index work: only an object's last state
    /// is ever indexed, so [`crate::durable::recover_into`] ends with one
    /// [`LocationService::rebuild_indexes`] instead of re-anchoring per
    /// replayed update.
    #[expect(clippy::indexing_slicing, reason = "shard_index is modulo shards.len()")]
    pub(crate) fn replay_frames<'a>(&self, frames: impl Iterator<Item = &'a [u8]>) -> Replayed {
        let mut replayed = Replayed::default();
        let mut buckets: Vec<Vec<&[u8]>> = vec![Vec::new(); self.shards.len()];
        for bytes in frames {
            replayed.frames += 1;
            match FrameView::peek_source(bytes) {
                Some(source) => buckets[self.shard_index(ObjectId(source))].push(bytes),
                None => replayed.decode_errors += 1,
            }
        }
        let per_shard = self.write_shards(&buckets, |s, bucket| {
            let mut counts = Replayed::default();
            for bytes in bucket {
                match FrameView::parse(bytes) {
                    Ok(view) => {
                        let routed = s.replay_updates(ObjectId(view.source()), view.updates());
                        counts.updates += routed as u64;
                    }
                    Err(_) => counts.decode_errors += 1,
                }
            }
            counts
        });
        for counts in per_shard {
            replayed.updates += counts.updates;
            replayed.decode_errors += counts.decode_errors;
        }
        replayed
    }

    /// Runs `work` on every shard whose bucket (`buckets[i]` belongs to shard
    /// `i`) is not empty, under one write-lock hold per shard, and returns
    /// the results in no particular order. The shards are dealt round-robin
    /// over `min(available_parallelism, non-empty shards)` threads: the
    /// calling thread and scoped helpers (a helper the OS refuses to start
    /// has its shards run on the calling thread). With nothing to do no
    /// thread is spawned and no lock is taken.
    fn write_shards<T: Sync, R: Send>(
        &self,
        buckets: &[Vec<T>],
        work: impl Fn(&mut ShardState, &[T]) -> R + Sync,
    ) -> Vec<R> {
        let jobs: Vec<(&Shard, &[T])> = self
            .shards
            .iter()
            .zip(buckets)
            .filter(|(_, bucket)| !bucket.is_empty())
            .map(|(shard, bucket)| (shard, bucket.as_slice()))
            .collect();
        let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get).min(jobs.len());
        let lane = |lane: usize| -> Vec<R> {
            let mine = jobs.iter().skip(lane).step_by(threads.max(1));
            mine.map(|&(shard, bucket)| shard.write(|s| work(s, bucket))).collect()
        };
        if threads <= 1 {
            return lane(0);
        }
        let lane = &lane;
        thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads)
                .map(|i| thread::Builder::new().spawn_scoped(scope, move || lane(i)).map_err(|_| i))
                .collect();
            let mut out = lane(0);
            for helper in helpers {
                out.extend(match helper {
                    Ok(handle) => handle.join().unwrap_or_else(|panic| resume_unwind(panic)),
                    Err(i) => lane(i),
                });
            }
            out
        })
    }

    /// Total write-lock acquisitions across all stripes — a cheap diagnostic
    /// that makes lock traffic observable (batched ingest takes one per
    /// stripe per batch; per-update ingest takes one per update).
    pub fn write_lock_acquisitions(&self) -> u64 {
        self.shards.iter().map(|s| s.write_acquisitions()).sum()
    }

    /// The predicted position of one object at time `t`, or `None` if the
    /// object is unknown or has not reported yet.
    pub fn position_of(&self, object: ObjectId, t: f64) -> Option<PositionReport> {
        self.shard_of(object).read(|s| s.report_for(object, t))
    }

    /// All objects whose predicted position at time `t` lies inside `area`
    /// (the "all users inside a department" query). Results are sorted by
    /// object id for determinism.
    ///
    /// Index-pruned: only objects whose conservative index box intersects
    /// `area` are examined, never the whole store.
    ///
    /// Allocates the result `Vec` (plus internal scratch) per call — hot
    /// callers should hold a [`QueryScratch`] and a result buffer and use
    /// [`LocationService::objects_in_rect_into`] instead.
    pub fn objects_in_rect(&self, area: &Aabb, t: f64) -> Vec<PositionReport> {
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        self.objects_in_rect_into(area, t, &mut scratch, &mut out);
        out
    }

    /// The reusable-buffer form of [`LocationService::objects_in_rect`]:
    /// writes the answer into `out` (cleared first), using `scratch` for the
    /// spatial-index candidate walk. Identical results; with warm buffers a
    /// query performs **zero** heap allocations (enforced by the
    /// counting-allocator gate in `mbdr-bench`).
    ///
    /// The answer is put in id order by an LSD radix sort on [`ObjectId`]
    /// with 11-bit digits that runs one pass per digit in which the
    /// answer's ids differ — two passes for ids below 2²² — through a second
    /// buffer kept in `scratch`. After a pass `out` and that buffer may have
    /// swapped allocations. Answers below a few hundred reports use a
    /// comparison sort instead. Ids are unique, so both orders are the same.
    ///
    /// A non-finite `t` gets an empty answer at once, before any lock (over
    /// the wire it cannot occur: request decoding rejects non-finite
    /// floats).
    pub fn objects_in_rect_into(
        &self,
        area: &Aabb,
        t: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<PositionReport>,
    ) {
        out.clear();
        if !t.is_finite() {
            return;
        }
        for shard in &self.shards {
            shard.read_fresh(t, |s| s.collect_in_rect(area, t, &mut scratch.cand, out));
        }
        sort_by_object(out, &mut scratch.radix);
    }

    /// The `k` objects whose predicted positions at time `t` are nearest to
    /// `from` (the "nearest taxi" query), nearest first (ties broken by id).
    ///
    /// Index-pruned: an expanding ring search over the shard indexes. The
    /// first ring is sized from `k` and the objects indexed in `from`'s grid
    /// cell ([`mbdr_spatial::first_ring_radius`] over
    /// [`LocationService::occupancy_at`]), so a crowded cell starts with a
    /// ring that holds a few times `k` objects rather than the whole cell.
    /// The ring then doubles until the k-th candidate's exact distance is
    /// inside it (or the ring provably covers every object), so dense fleets
    /// never get fully scanned and the answer does not depend on where the
    /// search started. The candidate set is cut down with a partial
    /// selection (`select_nth_unstable_by`) instead of a full sort.
    ///
    /// A non-finite `from` has no distance order and gets an empty answer
    /// at once, and so does a non-finite `t`, before any lock (over the wire
    /// neither can occur: request decoding rejects non-finite floats).
    ///
    /// Allocates the result `Vec` (plus internal scratch) per call — hot
    /// callers should use [`LocationService::nearest_objects_into`].
    pub fn nearest_objects(&self, from: &Point, t: f64, k: usize) -> Vec<PositionReport> {
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        self.nearest_objects_into(from, t, k, &mut scratch, &mut out);
        out
    }

    /// The reusable-buffer form of [`LocationService::nearest_objects`]:
    /// writes the answer into `out` (cleared first), keeping the ring
    /// search's candidate set and its ring counters
    /// ([`QueryScratch::ring_counters`]) in `scratch`. Identical results,
    /// empty for a non-finite `from` or `t`; with warm buffers a query
    /// performs zero heap allocations.
    #[expect(clippy::indexing_slicing, reason = "k >= 1; both indexes are checked against len")]
    pub fn nearest_objects_into(
        &self,
        from: &Point,
        t: f64,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<PositionReport>,
    ) {
        out.clear();
        let QueryScratch { cand, near: candidates, nearest_queries, rings, .. } = scratch;
        *nearest_queries += 1;
        if k == 0 || !from.is_finite() || !t.is_finite() {
            return;
        }
        // `total_cmp` agrees with `partial_cmp` on every value that can
        // occur here (distances: finite, non-negative, never -0.0) and stays
        // a total order if a NaN ever slipped in, so the sort can never
        // panic.
        let cmp = |a: &(f64, PositionReport), b: &(f64, PositionReport)| {
            a.0.total_cmp(&b.0).then(a.1.object.cmp(&b.1.object))
        };
        let mut radius = first_ring_radius(self.config.cell_size_m, self.occupancy_at(from), k);
        loop {
            *rings += 1;
            candidates.clear();
            // The termination extent is recomputed inside the same lock hold
            // as each shard's candidate collection, so lazily re-grown boxes
            // and concurrently moved objects are covered: when the ring
            // reaches a shard's extent, that shard was provably collected in
            // full at its own read time.
            let mut extent = self.config.cell_size_m;
            for shard in &self.shards {
                shard.read_fresh(t, |s| {
                    s.collect_near(from, radius, t, cand, candidates);
                    extent = extent.max(s.extent_radius(from));
                });
            }
            // Objects outside the ring are strictly farther than `radius`, so
            // once the k-th candidate distance fits inside the ring the true
            // k nearest are all among the candidates.
            let kth = (candidates.len() >= k).then(|| {
                candidates.select_nth_unstable_by(k - 1, cmp);
                candidates[k - 1].0
            });
            if kth.is_some_and(|d| d <= radius) || radius >= extent {
                let take = k.min(candidates.len());
                // Unstable sort on a total order (unique id tiebreak):
                // deterministic and allocation-free.
                candidates[..take].sort_unstable_by(cmp);
                out.extend(candidates[..take].iter().map(|(_, r)| *r));
                return;
            }
            radius = (radius * 2.0).max(kth.unwrap_or(0.0)).min(extent);
        }
    }

    /// Index entries registered in the grid cell containing `p`, summed
    /// over the shards — the local density a nearest query sizes its first
    /// ring from. Read as is, without re-growing expired entries, so it is a
    /// heuristic, not a count of the objects that are in the cell at any
    /// particular time.
    pub fn occupancy_at(&self, p: &Point) -> usize {
        self.shards.iter().map(|s| s.read(|st| st.occupancy_at(p))).sum()
    }

    /// Total number of updates ingested across all objects.
    pub fn total_updates(&self) -> u64 {
        self.shards.iter().map(|s| s.read(|st| st.total_updates())).sum()
    }

    /// Spatial-index occupancy diagnostics aggregated over every shard.
    /// O(occupied cells) under shard read locks — cheap enough for stats
    /// endpoints and benchmark reports, not meant for per-query use.
    pub fn index_stats(&self) -> IndexStats {
        let mut stats = IndexStats::default();
        for shard in &self.shards {
            shard.read(|s| {
                let (cells, max) = s.index_occupancy();
                stats.indexed += s.indexed_count();
                stats.occupied_cells += cells;
                stats.max_cell_occupancy = stats.max_cell_occupancy.max(max);
            });
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_core::{LinearPredictor, ObjectState, StaticPredictor, UpdateKind};
    use mbdr_geo::rng::SplitMix64;
    use std::collections::HashSet;

    #[test]
    fn write_shards_deals_shards_over_threads_and_skips_empty_buckets() {
        let s = LocationService::with_config(ServiceConfig::with_shards(16));
        // Nothing to do: no lock, no thread.
        let empty: Vec<Vec<u8>> = vec![Vec::new(); 16];
        assert!(s.write_shards(&empty, |_, _| thread::current().id()).is_empty());
        assert_eq!(s.write_lock_acquisitions(), 0);
        // Every shard busy: one lock hold each, on as many threads as the
        // machine offers (two or more on any multi-core host).
        let busy: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i]).collect();
        let ran = s.write_shards(&busy, |_, bucket| (thread::current().id(), bucket.to_vec()));
        assert_eq!(s.write_lock_acquisitions(), 16);
        let mut buckets: Vec<Vec<u8>> = ran.iter().map(|(_, bucket)| bucket.clone()).collect();
        buckets.sort();
        assert_eq!(buckets, busy, "each shard ran once, with its own bucket");
        let threads: HashSet<_> = ran.iter().map(|(id, _)| *id).collect();
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(threads.len(), cores.min(16));
        // Fewer busy shards than cores: one thread per busy shard at most.
        let one: Vec<Vec<u8>> =
            (0..16u8).map(|i| if i == 5 { vec![i] } else { Vec::new() }).collect();
        let ran = s.write_shards(&one, |_, _| thread::current().id());
        assert_eq!(ran, [thread::current().id()], "a lone shard runs on the calling thread");
    }

    fn update(seq: u64, t: f64, x: f64, y: f64, speed: f64, heading: f64) -> Update {
        Update {
            sequence: seq,
            state: ObjectState::basic(Point::new(x, y), speed, heading, t),
            kind: UpdateKind::DeviationBound,
        }
    }

    fn service_with_three_cars() -> LocationService {
        let s = LocationService::new();
        for i in 0..3 {
            s.register(ObjectId(i), Arc::new(StaticPredictor));
        }
        s.apply_update(ObjectId(0), &update(0, 0.0, 0.0, 0.0, 0.0, 0.0));
        s.apply_update(ObjectId(1), &update(0, 0.0, 100.0, 0.0, 0.0, 0.0));
        s.apply_update(ObjectId(2), &update(0, 0.0, 0.0, 300.0, 0.0, 0.0));
        s
    }

    #[test]
    fn register_apply_query_roundtrip() {
        let s = LocationService::new();
        s.register(ObjectId(7), Arc::new(LinearPredictor));
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.indexed_count(), 0, "not indexed before the first update");
        assert!(s.position_of(ObjectId(7), 5.0).is_none(), "no update yet");
        assert!(s.apply_update(
            ObjectId(7),
            &update(0, 0.0, 0.0, 0.0, 10.0, std::f64::consts::FRAC_PI_2)
        ));
        assert_eq!(s.indexed_count(), 1);
        let report = s.position_of(ObjectId(7), 5.0).unwrap();
        assert!((report.position.x - 50.0).abs() < 1e-9, "linear prediction applies");
        assert!((report.information_age - 5.0).abs() < 1e-9);
        assert_eq!(s.total_updates(), 1);
        assert!(s.deregister(ObjectId(7)));
        assert!(!s.deregister(ObjectId(7)), "second deregister is a no-op");
        assert_eq!(s.object_count(), 0);
        assert_eq!(s.indexed_count(), 0, "deregistration removes the index entry");
    }

    #[test]
    fn updates_for_unknown_objects_are_rejected() {
        let s = LocationService::new();
        assert!(!s.apply_update(ObjectId(9), &update(0, 0.0, 0.0, 0.0, 0.0, 0.0)));
    }

    #[test]
    fn range_query_finds_objects_inside_the_area() {
        let s = service_with_three_cars();
        let area = Aabb::new(Point::new(-10.0, -10.0), Point::new(150.0, 50.0));
        let inside = s.objects_in_rect(&area, 1.0);
        assert_eq!(inside.len(), 2);
        assert_eq!(inside[0].object, ObjectId(0));
        assert_eq!(inside[1].object, ObjectId(1));
    }

    #[test]
    fn nearest_query_orders_by_distance() {
        let s = service_with_three_cars();
        let nearest = s.nearest_objects(&Point::new(90.0, 0.0), 1.0, 2);
        assert_eq!(nearest.len(), 2);
        assert_eq!(nearest[0].object, ObjectId(1), "the 10 m away car first");
        assert_eq!(nearest[1].object, ObjectId(0));
        // k larger than the fleet returns everyone.
        assert_eq!(s.nearest_objects(&Point::ORIGIN, 1.0, 10).len(), 3);
        // k = 0 is empty.
        assert!(s.nearest_objects(&Point::ORIGIN, 1.0, 0).is_empty());
    }

    #[test]
    fn every_shard_count_answers_queries_identically() {
        for shards in [1, 3, 16, 64] {
            let s = LocationService::with_config(ServiceConfig::with_shards(shards));
            assert_eq!(s.shard_count(), shards);
            for i in 0..40u64 {
                s.register(ObjectId(i), Arc::new(StaticPredictor));
                s.apply_update(
                    ObjectId(i),
                    &update(0, 0.0, (i % 7) as f64 * 100.0, (i / 7) as f64 * 100.0, 0.0, 0.0),
                );
            }
            let area = Aabb::new(Point::new(-1.0, -1.0), Point::new(250.0, 250.0));
            let inside = s.objects_in_rect(&area, 10.0);
            assert_eq!(inside.len(), 9, "shards={shards}");
            assert!(inside.windows(2).all(|w| w[0].object < w[1].object), "sorted by id");
            let nearest = s.nearest_objects(&Point::new(310.0, 210.0), 10.0, 5);
            assert_eq!(nearest.len(), 5);
            assert_eq!(nearest[0].object, ObjectId(17), "(300, 200) is closest");
        }
    }

    #[test]
    fn queries_far_past_the_staleness_horizon_still_find_moving_objects() {
        let config = ServiceConfig { horizon_s: 5.0, slack_m: 10.0, ..ServiceConfig::default() };
        let s = LocationService::with_config(config);
        s.register(ObjectId(1), Arc::new(LinearPredictor));
        // Heading east at 10 m/s from the origin; index box initially covers
        // only ~5 s * 10 m/s of travel.
        s.apply_update(ObjectId(1), &update(0, 0.0, 0.0, 0.0, 10.0, std::f64::consts::FRAC_PI_2));
        // 500 s later the prediction is at x = 5000, far outside the original
        // box — the query must lazily re-grow the entry and still find it.
        let area = Aabb::around(Point::new(5_000.0, 0.0), 50.0);
        let inside = s.objects_in_rect(&area, 500.0);
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].object, ObjectId(1));
        let nearest = s.nearest_objects(&Point::new(5_100.0, 0.0), 500.0, 1);
        assert_eq!(nearest.len(), 1);
        assert!((nearest[0].position.x - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn rect_queries_prune_against_the_index() {
        // With everything clustered at the origin, a far-away rect query must
        // not visit any tracker — observable through a predictor that counts
        // its calls.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        struct CountingPredictor;
        impl Predictor for CountingPredictor {
            fn predict(&self, reported: &ObjectState, _t: f64) -> Point {
                CALLS.fetch_add(1, Ordering::Relaxed);
                reported.position
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }
        let s = LocationService::new();
        for i in 0..32u64 {
            s.register(ObjectId(i), Arc::new(CountingPredictor));
            s.apply_update(ObjectId(i), &update(0, 0.0, i as f64, 0.0, 0.0, 0.0));
        }
        CALLS.store(0, Ordering::Relaxed);
        let far = Aabb::around(Point::new(1.0e6, 1.0e6), 100.0);
        assert!(s.objects_in_rect(&far, 1.0).is_empty());
        assert_eq!(CALLS.load(Ordering::Relaxed), 0, "no tracker examined for a far-away rect");
    }

    #[test]
    fn apply_batch_matches_per_update_ingest_exactly() {
        // Same randomized update stream into two services — one batched, one
        // update-at-a-time — must leave bit-identical observable state.
        let make = |objects: u64| {
            let s = LocationService::with_config(ServiceConfig::with_shards(8));
            for i in 0..objects {
                s.register(ObjectId(i), Arc::new(LinearPredictor));
            }
            s
        };
        let objects = 24u64;
        let (batched, reference) = (make(objects), make(objects));
        let mut stream: Vec<(ObjectId, Update)> = Vec::new();
        let mut rng = SplitMix64::new(0xBA7C_4000);
        for step in 0..400u64 {
            let id = ObjectId(rng.below(objects + 4)); // some ids unregistered
            let (x, y) = (rng.below(5_000) as f64, rng.below(3_000) as f64);
            stream.push((id, update(step % 16, (step / 8) as f64, x, y, 8.0, 1.0)));
        }
        let mut batch_applied = 0;
        for chunk in stream.chunks(37) {
            batch_applied += batched.apply_batch(chunk);
        }
        let mut one_applied = 0;
        for (id, u) in &stream {
            if reference.apply_update(*id, u) {
                one_applied += 1;
            }
        }
        assert_eq!(batch_applied, one_applied);
        assert_eq!(batched.total_updates(), reference.total_updates());
        assert_eq!(batched.indexed_count(), reference.indexed_count());
        for i in 0..objects {
            let (b, r) =
                (batched.position_of(ObjectId(i), 60.0), reference.position_of(ObjectId(i), 60.0));
            assert_eq!(b.map(|p| p.position), r.map(|p| p.position), "object {i}");
        }
        let area = Aabb::new(Point::new(-1.0, -1.0), Point::new(6_000.0, 6_000.0));
        assert_eq!(batched.objects_in_rect(&area, 60.0), reference.objects_in_rect(&area, 60.0));
    }

    #[test]
    fn apply_batch_takes_each_stripe_lock_once() {
        let s = LocationService::with_config(ServiceConfig::with_shards(4));
        for i in 0..16u64 {
            s.register(ObjectId(i), Arc::new(StaticPredictor));
        }
        let batch: Vec<(ObjectId, Update)> = (0..128u64)
            .map(|i| (ObjectId(i % 16), update(i / 16, (i / 16) as f64, i as f64, 0.0, 0.0, 0.0)))
            .collect();
        let before = s.write_lock_acquisitions();
        assert_eq!(s.apply_batch(&batch), 128);
        let batched_locks = s.write_lock_acquisitions() - before;
        assert!(batched_locks <= 4, "one write lock per touched stripe, got {batched_locks}");
        // The same traffic one update at a time costs one lock per update.
        let before = s.write_lock_acquisitions();
        for (id, u) in &batch {
            s.apply_update(*id, u);
        }
        assert_eq!(s.write_lock_acquisitions() - before, 128);
    }

    #[test]
    fn apply_frame_ingests_a_decoded_wire_frame_under_one_lock() {
        use mbdr_core::Frame;
        let s = LocationService::new();
        s.register(ObjectId(9), Arc::new(LinearPredictor));
        let mut frame = Frame::new(9);
        for i in 0..5u64 {
            frame.push(update(i, i as f64, 100.0 * i as f64, 0.0, 10.0, 0.0));
        }
        let bytes = frame.encode().unwrap();
        let before = s.write_lock_acquisitions();
        assert_eq!(s.apply_frame_bytes(&bytes).unwrap(), 5);
        assert_eq!(s.write_lock_acquisitions() - before, 1, "one frame, one lock");
        let report = s.position_of(ObjectId(9), 4.0).unwrap();
        assert!((report.position.x - 400.0).abs() < 1e-6, "newest update wins");
        // A frame for an unregistered source applies nothing but decodes fine.
        assert_eq!(
            s.apply_frame_bytes(&Frame::single(77, frame.updates[0]).encode().unwrap()),
            Ok(0)
        );
        // Corrupted bytes report the codec's typed error without panicking.
        assert!(s.apply_frame_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert_eq!(s.total_updates(), 5);
    }

    #[test]
    fn buffer_reuse_queries_agree_with_the_allocating_ones() {
        let s = service_with_three_cars();
        let mut scratch = QueryScratch::default();
        // Stale buffer contents must be cleared, not appended to.
        let mut out = vec![PositionReport {
            object: ObjectId(999),
            position: Point::ORIGIN,
            information_age: 0.0,
        }];
        let area = Aabb::new(Point::new(-10.0, -10.0), Point::new(150.0, 50.0));
        s.objects_in_rect_into(&area, 1.0, &mut scratch, &mut out);
        assert_eq!(out, s.objects_in_rect(&area, 1.0));
        for k in [0, 1, 2, 10] {
            s.nearest_objects_into(&Point::new(90.0, 0.0), 1.0, k, &mut scratch, &mut out);
            assert_eq!(out, s.nearest_objects(&Point::new(90.0, 0.0), 1.0, k), "k={k}");
        }
    }

    #[test]
    fn non_finite_query_points_get_an_empty_answer_at_once() {
        let s = service_with_three_cars();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut scratch = QueryScratch::default();
            let mut out = Vec::new();
            for from in [
                Point::new(f64::NAN, 0.0),
                Point::new(0.0, f64::NAN),
                Point::new(f64::INFINITY, 0.0),
                Point::new(0.0, f64::NEG_INFINITY),
            ] {
                s.nearest_objects_into(&from, 1.0, 2, &mut scratch, &mut out);
                tx.send((from, out.len())).expect("receiver waits");
            }
        });
        for _ in 0..4 {
            let (from, found) = rx
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("a non-finite query point must not hang the search");
            assert_eq!(found, 0, "{from:?}");
        }
    }

    #[test]
    fn ring_counters_count_queries_and_the_rounds_they_took() {
        let s = service_with_three_cars();
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        assert_eq!(scratch.ring_counters(), (0, 0));
        // One car within the one-cell first ring: settled in one round.
        s.nearest_objects_into(&Point::new(90.0, 0.0), 1.0, 1, &mut scratch, &mut out);
        assert_eq!(scratch.ring_counters(), (1, 1));
        // All three: the ring grows until it covers the car 300 m away.
        s.nearest_objects_into(&Point::new(90.0, 0.0), 1.0, 3, &mut scratch, &mut out);
        let (queries, rings) = scratch.ring_counters();
        assert_eq!(queries, 2);
        assert!(rings > 2, "{rings}");
        s.nearest_objects_into(&Point::ORIGIN, 1.0, 0, &mut scratch, &mut out);
        s.nearest_objects_into(&Point::new(f64::NAN, 0.0), 1.0, 1, &mut scratch, &mut out);
        assert_eq!(scratch.ring_counters(), (4, rings), "k = 0 and NaN collect nothing");
    }

    #[test]
    fn non_finite_query_times_answer_empty_and_leave_the_index_intact() {
        // A mover heading east from the origin and a parked object. Before
        // the rule, one query at NaN re-grew the mover with a NaN box and no
        // heap entry, so later finite queries missed it; one at +∞ tried to
        // register an infinite box in every cell of i64.
        let s = LocationService::new();
        s.register(ObjectId(1), Arc::new(LinearPredictor));
        s.register(ObjectId(2), Arc::new(StaticPredictor));
        s.apply_update(ObjectId(1), &update(0, 0.0, 0.0, 0.0, 10.0, std::f64::consts::FRAC_PI_2));
        s.apply_update(ObjectId(2), &update(0, 0.0, 50.0, 0.0, 0.0, 0.0));
        let s = Arc::new(s);
        let (tx, rx) = std::sync::mpsc::channel();
        let service = Arc::clone(&s);
        std::thread::spawn(move || {
            let mut scratch = QueryScratch::default();
            let mut out = Vec::new();
            let area = Aabb::around(Point::ORIGIN, 1_000.0);
            for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
                service.objects_in_rect_into(&area, t, &mut scratch, &mut out);
                let rect = out.len();
                service.nearest_objects_into(&Point::ORIGIN, t, 2, &mut scratch, &mut out);
                tx.send((t, rect, out.len())).expect("receiver waits");
            }
        });
        for _ in 0..4 {
            let (t, rect, nearest) = rx
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("a non-finite query time must not hang the query");
            assert_eq!((rect, nearest), (0, 0), "t {t}");
        }
        assert_eq!(s.write_lock_acquisitions(), 4, "only the registrations and updates");
        let nearest: Vec<ObjectId> =
            s.nearest_objects(&Point::ORIGIN, 10.0, 2).iter().map(|r| r.object).collect();
        assert_eq!(nearest, [ObjectId(2), ObjectId(1)], "the mover at x = 100 is still found");
        let east = Aabb::around(Point::new(100.0, 0.0), 1.0);
        assert_eq!(s.objects_in_rect(&east, 10.0).len(), 1);
    }

    /// Reports whose ids are `ids` (in that order), with distinct positions.
    fn reports(ids: &[u64]) -> Vec<PositionReport> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| PositionReport {
                object: ObjectId(id),
                position: Point::new(i as f64, -(i as f64)),
                information_age: i as f64 * 0.5,
            })
            .collect()
    }

    #[test]
    fn radix_order_equals_the_comparison_sort_for_every_id_family() {
        let mut rng = SplitMix64::new(0xD161_7000);
        const BASE: u64 = 0x0123_4567_89AB_CDEF;
        // The `i`-th id of a family, given a fresh random `u64`.
        type Family = fn(u64, u64) -> u64;
        let families: [(&str, Family); 7] = [
            ("random over all 64 bits", |_, r| r),
            ("sequential from zero", |i, _| i),
            ("only the top digit", |i, _| BASE ^ (i << 55)),
            ("low digits and bit 63", |i, _| (BASE + (i >> 1)) ^ ((i & 1) << 63)),
            ("one middle digit", |i, _| BASE ^ (i << 33)),
            ("just below u64::MAX", |i, _| u64::MAX - i),
            ("every sixth bit", |i, _| (0..11).fold(0, |acc, b| acc | ((i >> b & 1) << (6 * b)))),
        ];
        let mut spare = reports(&[7; 9_000]); // stale contents must not leak
        for (name, id) in families {
            for n in [0, 1, 2, RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1, 2_047, 5_000] {
                let mut ids: Vec<u64> = (0..n as u64).map(|i| id(i, rng.next_u64())).collect();
                ids.sort_unstable();
                ids.dedup();
                // Shuffled, ascending and descending inputs.
                let mut shuffled = ids.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let descending: Vec<u64> = ids.iter().rev().copied().collect();
                for input in [shuffled, ids.clone(), descending] {
                    let mut expect = reports(&input);
                    expect.sort_by_key(|r| r.object);
                    let mut got = reports(&input);
                    sort_by_object(&mut got, &mut spare);
                    assert_eq!(got, expect, "{name}, n {n}");
                }
            }
        }
        // Ids that differ only in bit 63.
        let input = reports(&[BASE | 1 << 63, BASE]);
        let mut got = input.clone();
        sort_by_object(&mut got, &mut spare);
        assert_eq!(got, [input[1], input[0]]);
    }

    #[test]
    fn concurrent_updates_and_queries_do_not_deadlock() {
        let s = Arc::new(LocationService::new());
        for i in 0..8 {
            s.register(ObjectId(i), Arc::new(LinearPredictor));
        }
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for step in 0..200u64 {
                    let id = ObjectId((worker * 2 + step) % 8);
                    s.apply_update(
                        id,
                        &update(step, step as f64, step as f64, worker as f64, 5.0, 0.0),
                    );
                    let _ = s.nearest_objects(&Point::ORIGIN, step as f64, 3);
                    let _ = s.objects_in_rect(&Aabb::around(Point::ORIGIN, 500.0), step as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.total_updates() > 0);
    }
}
