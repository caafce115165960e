//! Degraded-mode durability: a journal whose disk dies mid-stream flips the
//! service to Degraded (serving continues, un-journaled applies are counted
//! exactly), a re-probe against the healed disk repairs the journal, installs
//! a forced snapshot and flips back to Recovered — and a fresh process
//! recovering from that directory answers every query bit-identically to the
//! reference model (`mbdr_model::Model`) fed every acknowledged frame,
//! because the forced snapshot covers the degraded window.

use mbdr_core::{DurabilityState, Frame, LinearPredictor, ObjectState, Update, UpdateKind};
use mbdr_geo::rng::SplitMix64;
use mbdr_geo::{Aabb, Point};
use mbdr_journal::{FaultFs, FaultKind, FsyncPolicy, Journal, JournalConfig};
use mbdr_locserver::{
    recover_and_attach, recover_and_attach_with_vfs, LocationService, ObjectId, ServiceConfig,
};
use mbdr_model::{assert_answers, Model};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const OBJECTS: u64 = 8;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("mbdr-locserver-degraded-{}-{tag}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fleet() -> LocationService {
    let service =
        LocationService::with_config(ServiceConfig { shards: 4, ..ServiceConfig::default() });
    for i in 0..OBJECTS {
        service.register(ObjectId(i), Arc::new(LinearPredictor));
    }
    service
}

/// Deterministic pre-encoded frames, round-robin over the fleet.
fn encoded_frames(count: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(0xF4A3_0000);
    let mut step = move || rng.below(4001) as f64 - 2000.0;
    (0..count)
        .map(|i| {
            let object = i as u64 % OBJECTS;
            let round = i as u64 / OBJECTS;
            let state = ObjectState::basic(
                Point::new(step(), step()),
                3.0 + (object % 4) as f64,
                0.3,
                round as f64,
            );
            Frame::single(
                object,
                Update { sequence: round, state, kind: UpdateKind::DeviationBound },
            )
            .encode()
            .expect("encode frame")
        })
        .collect()
}

fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig {
        dir: dir.to_path_buf(),
        segment_max_bytes: 64 * 1024 * 1024,
        fsync: FsyncPolicy::PerBatch(4),
        snapshot_every_frames: 0, // threshold snapshots off: counts stay exact
    }
}

/// Recovers `service` from `dir` over a [`FaultFs`] and attaches the journal
/// (open → restore+replay → attach).
fn attach_faulty(service: &LocationService, fault: &FaultFs, dir: &Path) -> Arc<Journal> {
    recover_and_attach_with_vfs(service, journal_config(dir), Arc::new(fault.clone()))
        .expect("recover over FaultFs")
        .0
}

/// Asserts that `recovered` answers like the model fed `frames` every 3.5 s
/// up to `t_max`: one rect, nearest five from the origin.
fn assert_matches(recovered: &LocationService, frames: &[Vec<u8>], t_max: f64) {
    let mut model = Model::default();
    for i in 0..OBJECTS {
        model.register(ObjectId(i), Arc::new(LinearPredictor));
    }
    for bytes in frames {
        model.apply_frame_bytes(bytes).expect("model apply");
    }
    let area = Aabb::new(Point::new(-2000.0, -2000.0), Point::new(2000.0, 2000.0));
    for t in (0..).map(|i| f64::from(i) * 3.5).take_while(|&t| t <= t_max) {
        assert_answers(recovered, &model, t, &[area], &[Point::ORIGIN], &[5], "recovered");
    }
}

#[test]
fn disk_death_degrades_heals_and_loses_no_acknowledged_frame() {
    let dir = temp_dir("lifecycle");
    let frames = encoded_frames(60);
    let (kill_at, heal_at) = (24usize, 40usize);

    let fault = FaultFs::over_real();
    let primary = fleet();
    let journal = attach_faulty(&primary, &fault, &dir);

    // Phase 1: durable ingest.
    for bytes in &frames[..kill_at] {
        primary.apply_frame_bytes(bytes).expect("durable apply");
    }
    assert_eq!(primary.health_status().state, DurabilityState::Durable);
    assert_eq!(journal.frames_appended(), kill_at as u64);

    // Phase 2: the disk dies mid-stream. Serving continues; every apply in
    // the window is counted as degraded, and exactly one append error is
    // recorded (later frames skip the append instead of re-failing it).
    fault.set_dead(true);
    for bytes in &frames[kill_at..heal_at] {
        primary.apply_frame_bytes(bytes).expect("degraded apply still serves");
    }
    let health = primary.health_status();
    assert_eq!(health.state, DurabilityState::Degraded);
    assert_eq!(health.degraded_frames, (heal_at - kill_at) as u64);
    assert_eq!(health.append_errors, 1, "first failed append flips the state");
    assert_eq!(journal.frames_appended(), kill_at as u64, "no append while degraded");
    let stats = primary.durability_stats();
    assert_eq!(stats.degraded_transitions, 1);
    assert_eq!(stats.recovered_transitions, 0);

    // A probe against the still-dead disk fails and leaves the state alone.
    assert!(!primary.probe_durability());
    assert_eq!(primary.health_status().state, DurabilityState::Degraded);
    assert_eq!(primary.durability_stats().probe_attempts, 1);

    // Phase 3: the disk heals; the probe repairs the tail, snapshots the
    // current tracker state (covering the degraded window) and flips back.
    fault.set_dead(false);
    assert!(primary.probe_durability());
    let stats = primary.durability_stats();
    assert_eq!(stats.state, DurabilityState::Recovered);
    assert_eq!(stats.recovered_transitions, 1);
    assert_eq!(stats.probe_attempts, 2);
    assert_eq!(journal.stats().snapshots, 1, "recovery installs a forced snapshot");
    // A second probe is a no-op success.
    assert!(primary.probe_durability());
    assert_eq!(primary.durability_stats().probe_attempts, 2);

    // Phase 4: recovered ingest journals again.
    for bytes in &frames[heal_at..] {
        primary.apply_frame_bytes(bytes).expect("recovered apply");
    }
    assert_eq!(journal.frames_appended(), (kill_at + frames.len() - heal_at) as u64);
    assert_eq!(primary.health_status().degraded_frames, (heal_at - kill_at) as u64);
    journal.flush().expect("flush");
    drop(primary);
    drop(journal);

    // Phase 5: a fresh process recovering from the directory matches the
    // model fed every frame exactly — every acknowledged frame survived,
    // because the forced snapshot re-established the durability floor above
    // the un-journaled window.
    let recovered = fleet();
    let (journal, report) = recover_and_attach(&recovered, journal_config(&dir)).expect("recover");
    assert_eq!(report.snapshot_frames, kill_at as u64, "{report:?}");
    assert_eq!(report.restored_objects, OBJECTS);
    assert_eq!(report.frame_decode_errors, 0);
    assert_matches(&recovered, &frames, 10.0);
    assert_eq!(recovered.health_status().state, DurabilityState::Durable);
    drop(journal);
    let _ = fs::remove_dir_all(&dir);
}

/// A threshold snapshot's grant rotates the journal, and a rotation the disk
/// fails is a failed journal write: its sync stood in for the batch sync of
/// every frame appended since the last one, and a torn segment it could not
/// unlink may sit at the grant's base. The service degrades as on a failed
/// append, the re-probe repairs the journal and snapshots the degraded
/// window, and a fresh process recovers every frame. Two faults, relative
/// to the op after the grant's frame is appended: the old segment's sync
/// fails; or the new segment's header write is cut short and the unlink
/// that would remove it fails.
#[test]
fn a_failed_grant_rotation_degrades_and_loses_no_acknowledged_frame() {
    let faults: [&[(u64, FaultKind)]; 2] = [
        &[(0, FaultKind::FailFsync)],
        &[(2, FaultKind::ShortWrite { keep: 5 }), (3, FaultKind::NoSpace)],
    ];
    for (case, schedule) in faults.iter().enumerate() {
        let dir = temp_dir(&format!("grant-fault-{case}"));
        let frames = encoded_frames(40);
        let (grant_at, heal_at) = (16usize, 32usize);
        let config = JournalConfig {
            // No batch sync before the grant's: the rotation's sync is the
            // first one for these frames.
            fsync: FsyncPolicy::PerBatch(64),
            snapshot_every_frames: grant_at as u64,
            ..journal_config(&dir)
        };
        let fault = FaultFs::over_real();
        let primary = fleet();
        let (journal, _) =
            recover_and_attach_with_vfs(&primary, config.clone(), Arc::new(fault.clone()))
                .expect("recover over FaultFs");
        for bytes in &frames[..grant_at - 1] {
            primary.apply_frame_bytes(bytes).expect("durable apply");
        }
        // The next frame's append is one op; the grant it triggers rotates.
        let rotation = fault.ops() + 1;
        for &(offset, kind) in schedule.iter() {
            fault.schedule_fault(rotation + offset, kind);
        }
        for bytes in &frames[grant_at - 1..heal_at] {
            primary.apply_frame_bytes(bytes).expect("apply still serves");
        }
        assert_eq!(fault.pending_faults(), 0, "case {case}: every fault fired");
        let health = primary.health_status();
        assert_eq!(health.state, DurabilityState::Degraded, "case {case}");
        assert_eq!(health.append_errors, 1, "case {case}");
        assert_eq!(health.degraded_frames, (heal_at - grant_at) as u64, "case {case}");
        assert_eq!(journal.frames_appended(), grant_at as u64, "case {case}");
        assert_eq!(primary.snapshot_stages().grant.count(), 0, "case {case}: no grant");

        assert!(primary.probe_durability(), "case {case}: the disk took the repair");
        assert_eq!(primary.health_status().state, DurabilityState::Recovered);
        assert_eq!(journal.stats().snapshots, 1, "case {case}: a forced snapshot");
        for bytes in &frames[heal_at..] {
            primary.apply_frame_bytes(bytes).expect("recovered apply");
        }
        journal.flush().expect("flush");
        drop(primary);
        drop(journal);

        let recovered = fleet();
        let (journal, report) = recover_and_attach(&recovered, config).expect("recover");
        assert_eq!(report.snapshot_frames, grant_at as u64, "case {case}: {report:?}");
        assert_eq!(report.replayed_frames, (frames.len() - heal_at) as u64, "case {case}");
        assert_eq!(report.frame_decode_errors, 0, "case {case}");
        assert_matches(&recovered, &frames, 10.0);
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn service_without_journal_reports_durable_health() {
    let service = fleet();
    let health = service.health_status();
    assert_eq!(health.state, DurabilityState::Durable);
    assert_eq!(health.degraded_frames, 0);
    assert_eq!(health.append_errors, 0);
    assert!(service.probe_durability(), "never degraded: probe is a no-op success");
    assert_eq!(service.durability_stats().probe_attempts, 0);
}

/// Tier-2 soak (run with `cargo test -p mbdr-locserver -- --ignored`): ~30 s
/// of ingest under a seeded random fault schedule with kill-and-recover
/// loops. The disk dies and heals at random points; the process is "killed"
/// (service + journal dropped without a clean shutdown) and recovered from
/// the directory over and over. Asserts: no panic anywhere, every recovery
/// succeeds, the cumulative recovered-frame count is monotone, and the
/// service keeps answering queries.
#[test]
#[ignore = "tier-2 soak: ~30s wall clock"]
fn seeded_fault_soak_recovers_indefinitely() {
    let dir = temp_dir("soak");
    let frames = encoded_frames(400);
    let mut rng = SplitMix64::new(0x5EED_50AC);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut total_recovered = 0u64;
    let mut generation = 0u64;
    while std::time::Instant::now() < deadline {
        generation += 1;
        let fault = FaultFs::over_real();
        let service = fleet();
        let (journal, report) =
            recover_and_attach_with_vfs(&service, journal_config(&dir), Arc::new(fault.clone()))
                .expect("soak recover");
        assert_eq!(
            journal.stats().recovered_frames,
            report.replayed_frames,
            "replay counter and report agree"
        );
        total_recovered = total_recovered
            .checked_add(report.replayed_frames)
            .expect("monotone cumulative recovered frames");

        // One generation: a few hundred frames with random kill/heal/probe.
        let steps = 100 + rng.below(300) as usize;
        for i in 0..steps {
            let bytes = &frames[rng.below(frames.len() as u64) as usize];
            service.apply_frame_bytes(bytes).expect("soak apply");
            match rng.below(23) {
                0 => fault.set_dead(true),
                1 | 2 => fault.set_dead(false),
                3 | 4 => {
                    let _ = service.probe_durability();
                }
                _ => {}
            }
            if i % 37 == 0 {
                let area = Aabb::new(Point::new(-2000.0, -2000.0), Point::new(2000.0, 2000.0));
                let _ = service.objects_in_rect(&area, i as f64);
            }
        }
        // Sometimes heal + recover cleanly before the kill; sometimes crash
        // while degraded (the un-journaled window is legitimately lost — the
        // next generation must still recover what *was* journaled).
        if rng.below(2) == 0 {
            fault.set_dead(false);
            let _ = service.probe_durability();
            let _ = journal.flush();
        }
        drop(service);
        drop(journal);
    }
    assert!(generation >= 2, "soak must complete at least two kill-and-recover loops");
    let _ = fs::remove_dir_all(&dir);
}
