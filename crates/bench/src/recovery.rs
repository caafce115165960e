//! The durability experiment behind `reproduce recovery`: journaled ingest,
//! kill-and-recover equivalence, and torn-tail repair, emitted as JSON and
//! gated against `baselines/BENCH_recovery.json`.
//!
//! Three phases, all seed-deterministic:
//!
//! 1. **Journaled ingest** — a [`LocationService`] with a write-ahead
//!    [`mbdr_journal::Journal`] attached (segment rotation and snapshot
//!    compaction both exercised) ingests a pre-encoded frame schedule. The
//!    journal counters (`appends`, `fsyncs`, `snapshots`) are strict gates:
//!    one record per frame, one batched fdatasync per
//!    [`FsyncPolicy::PerBatch`] window, snapshots exactly on cadence.
//! 2. **Kill and recover** — the service is dropped mid-flight (no clean
//!    shutdown) and a fresh one is rebuilt via
//!    [`mbdr_locserver::recover_and_attach`]. The rebuilt service is compared
//!    query-by-query (rect, nearest, per-object position over a time grid)
//!    against an uninterrupted in-memory twin; `bit_identical` is a strict
//!    `1` in the baseline, so any divergence — a float, an id, an ordering —
//!    fails the gate.
//! 3. **Torn tail** — a second journal (log-only, so the arithmetic stays
//!    exact) has the final byte of its last record flipped. Recovery must
//!    truncate exactly that record (`corrupt_truncated_bytes` is strict) and
//!    the result must equal a twin that never saw the final frame.
//!
//! How long recovery takes is `benchmark/`'s `recover_s` and
//! `journal.replay_ns_per_frame`.

use mbdr_core::{Frame, LinearPredictor, ObjectState, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_journal::{FsyncPolicy, JournalConfig, JournalStatsSnapshot, RECORD_HEADER_LEN};
use mbdr_locserver::{
    recover_and_attach, LocationService, ObjectId, RecoveryReport, ServiceConfig,
};
use mbdr_sim::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Updates batched per journaled frame.
pub(crate) const UPDATES_PER_FRAME: usize = 4;

/// Fdatasync batch window of the journaled ingest phase (strictly gated:
/// `fsyncs` counts one sync per full window plus rotation/snapshot syncs).
const FSYNC_BATCH: u32 = 16;

/// Snapshot cadence of phase 1, in frames. Chosen so the torn-tail phase can
/// never collide with a snapshot floor (phase 3 disables snapshots anyway).
const SNAPSHOT_EVERY_FRAMES: u64 = 67;

/// One durability measurement (see the module docs). Every count is
/// seed-deterministic.
#[derive(Debug, Clone)]
pub(crate) struct RecoveryBench {
    /// Tracked objects.
    pub objects: usize,
    /// Frames journaled and ingested in phase 1.
    pub frames: usize,
    /// Updates per frame (config echo).
    pub updates_per_frame: usize,
    /// Updates the primary service accepted (gate: every one is fresh).
    pub updates_applied: u64,
    /// The journal's counters after phase 1. Gates: `appends` is one per
    /// frame, `fsyncs` counts batch windows + rotations + snapshots,
    /// `snapshots` fires exactly on cadence.
    pub journal: JournalStatsSnapshot,
    /// What phase 2's recovery rebuilt. Gates: every object restored,
    /// `truncated_bytes` 0 (the files were intact); `replayed_frames` is
    /// exactly the frames past the snapshot's floor, each decoded
    /// (`replayed_updates`).
    pub recovery: RecoveryReport,
    /// `1` iff the recovered service answered every probe query with exactly
    /// the twin's bits (gate: 1).
    pub bit_identical: u64,
    /// What phase 3's recovery rebuilt after the torn tail. Gates:
    /// `truncated_bytes` is exactly the flipped record's header plus payload,
    /// `replayed_frames` is all but the torn one.
    pub torn_recovery: RecoveryReport,
    /// `1` iff post-repair recovery equals a twin that never saw the torn
    /// frame (gate: 1).
    pub corrupt_bit_identical: u64,
}

/// An 8-shard service with `objects` ids registered under the linear
/// predictor: the fleet every journaled experiment ingests into.
pub(crate) fn fleet(objects: usize) -> LocationService {
    let service =
        LocationService::with_config(ServiceConfig { shards: 8, ..ServiceConfig::default() });
    for i in 0..objects as u64 {
        service.register(ObjectId(i), Arc::new(LinearPredictor));
    }
    service
}

/// A scratch directory under the system temp dir, named
/// `mbdr-<kind>-<pid>-<seed>-<scale·1000>` so concurrent runs never share
/// one. Emptied when made, removed when dropped.
pub(crate) struct ScratchDir(PathBuf);

impl ScratchDir {
    pub(crate) fn new(kind: &str, scale: f64, seed: u64) -> ScratchDir {
        let pid = std::process::id();
        let dir = std::env::temp_dir()
            .join(format!("mbdr-{kind}-{pid}-{seed}-{}", (scale * 1000.0) as u64));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The pre-encoded frame schedule: round-robin over the fleet, positions from
/// a 64-bit LCG, timestamps strictly increasing per object.
pub(crate) fn encoded_frames(objects: usize, rounds: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng: u64 = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut step = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((rng >> 17) % 8001) as f64 - 4000.0
    };
    let mut out = Vec::with_capacity(objects * rounds);
    for round in 0..rounds {
        for object in 0..objects as u64 {
            let mut frame = Frame::new(object);
            for u in 0..UPDATES_PER_FRAME {
                let t = round as f64 * 2.0 + u as f64 * 0.4;
                frame.push(Update {
                    sequence: (round * UPDATES_PER_FRAME + u) as u64,
                    state: ObjectState::basic(
                        Point::new(step(), step()),
                        6.0 + (object % 5) as f64,
                        0.2 * u as f64,
                        t,
                    ),
                    kind: UpdateKind::DeviationBound,
                });
            }
            out.push(frame.encode().expect("finite fixture states encode"));
        }
    }
    out
}

/// Probes both services over a grid of rect, nearest and position queries and
/// returns whether every answer matched bit for bit.
pub(crate) fn queries_match(
    a: &LocationService,
    b: &LocationService,
    objects: usize,
    t_max: f64,
) -> bool {
    if a.total_updates() != b.total_updates() {
        return false;
    }
    let areas = [
        Aabb::new(Point::new(-4000.0, -4000.0), Point::new(4000.0, 4000.0)),
        Aabb::new(Point::new(-900.0, -900.0), Point::new(900.0, 900.0)),
        Aabb::new(Point::new(0.0, -4000.0), Point::new(4000.0, 200.0)),
    ];
    let vantage = [Point::new(0.0, 0.0), Point::new(-2500.0, 1500.0)];
    let mut t = 0.0;
    while t <= t_max {
        for area in &areas {
            if a.objects_in_rect(area, t) != b.objects_in_rect(area, t) {
                return false;
            }
        }
        for from in &vantage {
            if a.nearest_objects(from, t, 8) != b.nearest_objects(from, t, 8) {
                return false;
            }
        }
        for i in 0..objects as u64 {
            if a.position_of(ObjectId(i), t) != b.position_of(ObjectId(i), t) {
                return false;
            }
        }
        t += 9.0;
    }
    true
}

/// Flips the final byte of the numerically-last segment file — the last byte
/// of the last record's payload, since records abut the end of the file.
fn corrupt_last_record(dir: &Path) {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .expect("journal dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "mbdrj"))
        .collect();
    segments.sort();
    let victim = segments.pop().expect("at least one segment");
    let mut bytes = fs::read(&victim).expect("segment reads");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xA5;
    fs::write(&victim, &bytes).expect("segment writes back");
}

/// Runs the durability measurement. Deterministic for a given
/// `(scale, seed)`; uses (and removes) a scratch directory under the system
/// temp dir.
pub(crate) fn recovery_bench(scale: f64, seed: u64) -> RecoveryBench {
    let objects = ((24.0 * scale).round() as usize).max(8);
    let rounds = ((96.0 * scale).round() as usize).max(12);
    let frames = encoded_frames(objects, rounds, seed);
    let t_max = rounds as f64 * 2.0 + 20.0;

    let scratch = ScratchDir::new("recovery", scale, seed);
    let journal_dir = scratch.path().join("journaled");
    let tear_dir = scratch.path().join("torn");

    // --- Phase 1: journaled ingest, then a crash (plain drop). ---
    let config = JournalConfig {
        dir: journal_dir.clone(),
        segment_max_bytes: 16 * 1024, // rotation on, many segments
        fsync: FsyncPolicy::PerBatch(FSYNC_BATCH),
        snapshot_every_frames: SNAPSHOT_EVERY_FRAMES,
    };
    let primary = fleet(objects);
    let (journal, _) = recover_and_attach(&primary, config.clone()).expect("fresh dir attaches");
    let mut updates_applied = 0u64;
    for bytes in &frames {
        updates_applied += primary.apply_frame_bytes(bytes).expect("frame applies") as u64;
    }
    let ingest_stats = journal.stats();
    drop(primary);
    drop(journal);

    // --- The uninterrupted twin (pure in-memory ground truth). ---
    let twin = fleet(objects);
    for bytes in &frames {
        twin.apply_frame_bytes(bytes).expect("twin frame applies");
    }

    // --- Phase 2: recover and compare. ---
    let recovered = fleet(objects);
    let (_journal, report) = recover_and_attach(&recovered, config).expect("recovery succeeds");
    let bit_identical = u64::from(queries_match(&recovered, &twin, objects, t_max));

    // --- Phase 3: torn tail on a log-only journal. ---
    let tear_config = JournalConfig {
        dir: tear_dir.clone(),
        segment_max_bytes: 64 * 1024 * 1024, // one segment: exact arithmetic
        fsync: FsyncPolicy::PerBatch(FSYNC_BATCH),
        snapshot_every_frames: 0,
    };
    let tear_primary = fleet(objects);
    let (tear_journal, _) =
        recover_and_attach(&tear_primary, tear_config.clone()).expect("tear dir attaches");
    for bytes in &frames {
        tear_primary.apply_frame_bytes(bytes).expect("tear frame applies");
    }
    tear_journal.flush().expect("tear flush");
    drop(tear_primary);
    drop(tear_journal);
    corrupt_last_record(&tear_dir);

    let repaired = fleet(objects);
    let (_tear_journal, tear_report) =
        recover_and_attach(&repaired, tear_config).expect("torn tail recovers");
    let twin_minus = fleet(objects);
    for bytes in &frames[..frames.len() - 1] {
        twin_minus.apply_frame_bytes(bytes).expect("twin-minus frame applies");
    }
    let corrupt_bit_identical = u64::from(queries_match(&repaired, &twin_minus, objects, t_max));
    let expected_torn = (RECORD_HEADER_LEN + frames[frames.len() - 1].len()) as u64;
    debug_assert_eq!(tear_report.truncated_bytes, expected_torn);

    RecoveryBench {
        objects,
        frames: frames.len(),
        updates_per_frame: UPDATES_PER_FRAME,
        updates_applied,
        journal: ingest_stats,
        recovery: report,
        bit_identical,
        torn_recovery: tear_report,
        corrupt_bit_identical,
    }
}

/// The measurement as one JSON document (schema `mbdr-recovery/1`).
pub(crate) fn render_recovery_json(scale: f64, seed: u64, r: &RecoveryBench) -> Json {
    Json::document(
        "mbdr-recovery/1",
        scale,
        seed,
        [
            ("objects", Json::exact(r.objects as f64)),
            ("frames", Json::exact(r.frames as f64)),
            ("updates_per_frame", Json::exact(r.updates_per_frame as f64)),
            ("updates_applied", Json::exact(r.updates_applied as f64)),
            ("appends", Json::exact(r.journal.appends as f64)),
            ("fsyncs", Json::exact(r.journal.fsyncs as f64)),
            ("snapshots", Json::exact(r.journal.snapshots as f64)),
            ("snapshot_frames", Json::exact(r.recovery.snapshot_frames as f64)),
            ("replayed_frames", Json::exact(r.recovery.replayed_frames as f64)),
            ("replayed_updates", Json::exact(r.recovery.replayed_updates as f64)),
            ("restored_objects", Json::exact(r.recovery.restored_objects as f64)),
            ("truncated_bytes", Json::exact(r.recovery.truncated_bytes as f64)),
            ("bit_identical", Json::exact(r.bit_identical as f64)),
            ("corrupt_truncated_bytes", Json::exact(r.torn_recovery.truncated_bytes as f64)),
            ("corrupt_replayed_frames", Json::exact(r.torn_recovery.replayed_frames as f64)),
            ("corrupt_bit_identical", Json::exact(r.corrupt_bit_identical as f64)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_is_bit_identical_and_renders_valid_json() {
        let r = recovery_bench(0.25, 42);
        assert_eq!(r.bit_identical, 1);
        assert_eq!(r.corrupt_bit_identical, 1);
        assert_eq!(r.journal.appends, r.frames as u64);
        assert_eq!(r.updates_applied, (r.frames * r.updates_per_frame) as u64);
        assert_eq!(r.torn_recovery.replayed_frames, r.frames as u64 - 1);
        assert_eq!(r.recovery.truncated_bytes, 0);
        assert!(r.torn_recovery.truncated_bytes > 0);
        assert!(r.journal.snapshots >= 1, "cadence must fire at this scale: {r:?}");
        assert!(r.recovery.snapshot_frames > 0);
        assert_eq!(r.recovery.snapshot_frames + r.recovery.replayed_frames, r.frames as u64);
        assert_eq!(
            r.recovery.replayed_updates,
            r.recovery.replayed_frames * r.updates_per_frame as u64
        );
        let tree = render_recovery_json(0.25, 42, &r);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-recovery/1")));
        assert_eq!(tree.get("bit_identical"), Some(&Json::exact(1.0)));
    }
}
