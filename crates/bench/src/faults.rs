//! The degraded-mode durability experiment behind `reproduce faults`: a
//! seeded disk outage mid-stream, self-healing via the durability probe, a
//! crash, and a recovery that must lose **nothing acknowledged** — emitted
//! as JSON and gated against `baselines/BENCH_faults.json`.
//!
//! The schedule is a pure function of `(scale, seed)` — the outage window
//! comes from [`mbdr_sim::FaultPlan`], so the whole fault scenario is
//! reproducible from the seed alone. One run, two phases:
//!
//! 1. **Faulted ingest** — a [`mbdr_locserver::LocationService`] journals
//!    through a
//!    [`mbdr_journal::FaultFs`] whose disk dies just before `kill_frame`
//!    and heals just before `heal_frame`. Serving continues through the
//!    whole window (every apply is acknowledged); the service flips to
//!    Degraded on the first failed append and counts exactly the
//!    un-journaled applies. A mid-window probe fails against the dead disk;
//!    the probe at the heal point repairs the journal, installs a forced
//!    snapshot covering the degraded window, and flips to Recovered. Every
//!    durability counter is a strict gate: `degraded_frames` is exactly
//!    `heal_frame - kill_frame`, `append_errors` is exactly 1, `appends`
//!    is exactly the frames outside the window, `snapshots` is exactly the
//!    one forced by recovery.
//! 2. **Crash and recover** — the service and journal are dropped with no
//!    clean shutdown and a fresh process recovers from the directory. It is
//!    compared query-by-query against an uninterrupted in-memory twin that
//!    saw **all** frames: `bit_identical_acknowledged` is a strict `1`,
//!    because the forced snapshot re-established the durability floor above
//!    the un-journaled window. `truncated_bytes` is a strict `0` — the
//!    probe's repair already cleaned the tail the dead disk left behind.
//!
//! Every number is seed-determined.

use crate::recovery::{encoded_frames, fleet, queries_match, UPDATES_PER_FRAME};
use mbdr_journal::{FaultFs, FsyncPolicy, Journal, JournalConfig, JournalStatsSnapshot};
use mbdr_locserver::durable::recover_into;
use mbdr_locserver::{recover_and_attach, DurabilityStatsSnapshot, RecoveryReport};
use mbdr_sim::{FaultPlan, Json};
use std::fs;
use std::sync::Arc;

/// Fdatasync batch window of the faulted ingest (strictly gated).
const FSYNC_BATCH: u32 = 16;

/// One fault-injection measurement (see the module docs). Every count is
/// seed-deterministic.
#[derive(Debug, Clone)]
pub struct FaultsBench {
    /// Tracked objects.
    pub objects: usize,
    /// Frames acknowledged in phase 1 (durable prefix + degraded window +
    /// durable tail).
    pub frames: usize,
    /// Updates per frame (config echo).
    pub updates_per_frame: usize,
    /// Frame index at which the disk died (from the seeded [`FaultPlan`]).
    pub kill_frame: u64,
    /// Frame index at which the disk healed and the probe repaired.
    pub heal_frame: u64,
    /// Updates the primary service accepted (gate: every one, including the
    /// whole degraded window).
    pub updates_applied: u64,
    /// The service's durability counters after phase 1. Gates:
    /// `degraded_frames` is exactly `heal_frame - kill_frame`, one
    /// Durable→Degraded and one Degraded→Recovered transition, and two
    /// probes (the failed mid-window one plus the successful one at the heal
    /// point).
    pub durability: DurabilityStatsSnapshot,
    /// The journal's counters after phase 1. Gates: `append_errors` is 1 (the
    /// first failed append flips the state and later frames skip the append
    /// instead of re-failing it), `appends` is one per frame outside the
    /// window, `snapshots` is exactly the recovery's forced snapshot.
    pub journal: JournalStatsSnapshot,
    /// What phase 2's recovery rebuilt. Gates: `snapshot_frames` is
    /// `kill_frame` (everything journaled before the disk died);
    /// `replayed_frames` — the post-heal tail plus whatever pre-kill segments
    /// compaction did not yet cover, which trackers silently reject — is at
    /// least `frames - heal_frame` and at most `appends`; every object is
    /// restored; `truncated_bytes` is 0 (the probe already repaired the tail
    /// the dead disk left behind).
    pub recovery: RecoveryReport,
    /// `1` iff the recovered service answered every probe query with
    /// exactly the bits of a twin that saw all acknowledged frames
    /// (gate: 1).
    pub bit_identical_acknowledged: u64,
}

/// Runs the fault-injection measurement. Deterministic for a given
/// `(scale, seed)`; uses (and removes) a scratch directory under the system
/// temp dir.
pub fn faults_bench(scale: f64, seed: u64) -> FaultsBench {
    let objects = ((16.0 * scale).round() as usize).max(8);
    let rounds = ((80.0 * scale).round() as usize).max(16);
    let frames = encoded_frames(objects, rounds, seed);
    let plan = FaultPlan::derive(frames.len() as u64, seed);
    // Mid-window probe against the still-dead disk (skipped only when the
    // window is a single frame, where it would collide with the heal probe).
    let mid_probe = plan.kill_frame + plan.degraded_frames() / 2;
    let t_max = rounds as f64 * 2.0 + 20.0;

    let scratch = std::env::temp_dir().join(format!(
        "mbdr-faults-{}-{seed}-{}",
        std::process::id(),
        (scale * 1000.0) as u64
    ));
    let _ = fs::remove_dir_all(&scratch);
    let config = JournalConfig {
        dir: scratch.clone(),
        segment_max_bytes: 16 * 1024, // rotation on: the repair must cope
        fsync: FsyncPolicy::PerBatch(FSYNC_BATCH),
        snapshot_every_frames: 0, // threshold snapshots off: counts stay exact
    };

    // --- Phase 1: faulted ingest over a disk that dies and heals. ---
    let fault = FaultFs::over_real();
    let primary = fleet(objects);
    let journal = Arc::new(
        Journal::open_with_vfs(config.clone(), Arc::new(fault.clone()))
            .expect("fresh dir opens over FaultFs"),
    );
    recover_into(&primary, &journal).expect("fresh dir recovers");
    assert!(primary.attach_journal(Arc::clone(&journal)));
    let twin = fleet(objects);

    let mut updates_applied = 0u64;
    for (i, bytes) in frames.iter().enumerate() {
        let i = i as u64;
        if i == plan.kill_frame {
            fault.set_dead(true);
        }
        if i == mid_probe && i > plan.kill_frame && i < plan.heal_frame {
            let repaired = primary.probe_durability();
            debug_assert!(!repaired, "a probe against a dead disk must fail");
        }
        if i == plan.heal_frame {
            fault.set_dead(false);
            let repaired = primary.probe_durability();
            debug_assert!(repaired, "a probe against a healed disk must repair");
        }
        updates_applied += primary.apply_frame_bytes(bytes).expect("apply is acknowledged") as u64;
        twin.apply_frame_bytes(bytes).expect("twin frame applies");
    }
    let durability = primary.durability_stats();
    let journal_stats = journal.stats();
    drop(primary);
    drop(journal); // crash: no clean shutdown, no final flush

    // --- Phase 2: recover and compare against the all-frames twin. ---
    let recovered = fleet(objects);
    let (_journal, recovery) = recover_and_attach(&recovered, config).expect("recovery succeeds");
    let bit_identical_acknowledged = u64::from(queries_match(&recovered, &twin, objects, t_max));

    let _ = fs::remove_dir_all(&scratch);

    FaultsBench {
        objects,
        frames: frames.len(),
        updates_per_frame: UPDATES_PER_FRAME,
        kill_frame: plan.kill_frame,
        heal_frame: plan.heal_frame,
        updates_applied,
        durability,
        journal: journal_stats,
        recovery,
        bit_identical_acknowledged,
    }
}

/// The measurement as one JSON document (schema `mbdr-faults/1`).
pub fn render_faults_json(scale: f64, seed: u64, r: &FaultsBench) -> Json {
    let head = [
        ("objects", Json::exact(r.objects as f64)),
        ("frames", Json::exact(r.frames as f64)),
        ("updates_per_frame", Json::exact(r.updates_per_frame as f64)),
        ("kill_frame", Json::exact(r.kill_frame as f64)),
        ("heal_frame", Json::exact(r.heal_frame as f64)),
        ("updates_applied", Json::exact(r.updates_applied as f64)),
    ];
    let durability = r.durability.fields().map(|(name, count)| (name, Json::exact(count as f64)));
    let tail = [
        ("append_errors", Json::exact(r.journal.append_errors as f64)),
        ("appends", Json::exact(r.journal.appends as f64)),
        ("fsyncs", Json::exact(r.journal.fsyncs as f64)),
        ("snapshots", Json::exact(r.journal.snapshots as f64)),
        ("snapshot_frames", Json::exact(r.recovery.snapshot_frames as f64)),
        ("replayed_frames", Json::exact(r.recovery.replayed_frames as f64)),
        ("restored_objects", Json::exact(r.recovery.restored_objects as f64)),
        ("truncated_bytes", Json::exact(r.recovery.truncated_bytes as f64)),
        ("bit_identical_acknowledged", Json::exact(r.bit_identical_acknowledged as f64)),
    ];
    let fields = head.into_iter().chain(durability).chain(tail);
    Json::document("mbdr-faults/1", scale, seed, fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_loses_nothing_acknowledged_and_renders_valid_json() {
        let r = faults_bench(0.25, 42);
        assert_eq!(r.bit_identical_acknowledged, 1);
        assert_eq!(r.updates_applied, (r.frames * r.updates_per_frame) as u64);
        assert_eq!(r.durability.degraded_frames, r.heal_frame - r.kill_frame);
        assert!(r.durability.degraded_frames > 0, "the seeded window must be non-empty: {r:?}");
        assert_eq!(r.durability.degraded_transitions, 1);
        assert_eq!(r.durability.recovered_transitions, 1);
        assert_eq!(r.durability.probe_attempts, 2, "one failed mid-window, one successful at heal");
        assert_eq!(r.journal.append_errors, 1, "only the first failed append hits the disk");
        assert_eq!(r.journal.appends, r.frames as u64 - r.durability.degraded_frames);
        assert_eq!(r.journal.snapshots, 1, "exactly the recovery's forced snapshot");
        assert_eq!(r.recovery.snapshot_frames, r.kill_frame);
        assert!(
            r.recovery.replayed_frames >= r.frames as u64 - r.heal_frame,
            "the post-heal tail must replay: {r:?}"
        );
        assert!(
            r.recovery.replayed_frames <= r.journal.appends,
            "replay cannot exceed what was appended: {r:?}"
        );
        assert_eq!(r.recovery.restored_objects, r.objects as u64);
        assert_eq!(r.recovery.truncated_bytes, 0, "the probe already repaired the tail");
        let tree = render_faults_json(0.25, 42, &r);
        assert_eq!(tree.get("schema"), Some(&Json::str("mbdr-faults/1")));
        let degraded = r.durability.degraded_frames as f64;
        assert_eq!(tree.get("degraded_frames"), Some(&Json::exact(degraded)));
    }

    #[test]
    fn different_seeds_move_the_outage_window() {
        let a = faults_bench(0.25, 1);
        let b = faults_bench(0.25, 2);
        assert_ne!((a.kill_frame, a.heal_frame), (b.kill_frame, b.heal_frame));
        assert_eq!(a.bit_identical_acknowledged, 1);
        assert_eq!(b.bit_identical_acknowledged, 1);
    }
}
