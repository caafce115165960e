//! End-to-end durability over TCP: a server started with
//! [`NetServer::bind_durable`] journals every ingested frame, and a
//! restarted server over the same directory answers queries identically —
//! with the whole recovery visible through `RecoveryReport` and
//! `ServerStatsSnapshot::journal`.

use mbdr_core::{DurabilityState, Frame, LinearPredictor, ObjectState, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_journal::{FaultFs, FsyncPolicy, JournalConfig};
use mbdr_locserver::{recover_and_attach_with_vfs, LocationService, ObjectId};
use mbdr_model::bits;
use mbdr_net::{ClientConfig, NetClient, NetServer, RetryPolicy, ServerConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECTS: u64 = 16;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mbdr-net-durable-{}-{tag}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fleet() -> Arc<LocationService> {
    let service = Arc::new(LocationService::new());
    for i in 0..OBJECTS {
        service.register(ObjectId(i), Arc::new(LinearPredictor));
    }
    service
}

fn update(seq: u64, t: f64, x: f64, y: f64) -> Update {
    Update {
        sequence: seq,
        state: ObjectState::basic(Point::new(x, y), 2.0, 0.5, t),
        kind: UpdateKind::DeviationBound,
    }
}

fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig { fsync: FsyncPolicy::PerBatch(4), ..JournalConfig::new(dir) }
}

fn world() -> Aabb {
    Aabb::new(Point::new(-1000.0, -1000.0), Point::new(1000.0, 1000.0))
}

#[test]
fn durable_server_serves_identical_answers_after_restart() {
    let dir = temp_dir("restart");

    // First life: ingest over TCP, remember the answers, shut down cleanly.
    let server = NetServer::bind_durable(
        fleet(),
        "127.0.0.1:0",
        ServerConfig::default(),
        journal_config(&dir),
    )
    .expect("first bind");
    let report = server.recovery_report().expect("durable server has a report");
    assert_eq!(report.replayed_frames, 0, "fresh dir: {report:?}");

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for i in 0..OBJECTS {
        let frame =
            Frame::single(i, update(7, 1.0 + i as f64 * 0.25, i as f64 * 10.0, -(i as f64)));
        client.send_frame(&frame).expect("send");
    }
    let summary = client.flush().expect("flush");
    assert_eq!(summary.updates_applied, OBJECTS);
    drop(client);

    let live_stats = server.stats();
    assert_eq!(live_stats.journal.appends, OBJECTS, "one journaled record per frame");
    assert!(live_stats.journal.fsyncs > 0);
    let before = server.service().objects_in_rect(&world(), 30.0);
    assert_eq!(before.len(), OBJECTS as usize);
    server.shutdown();

    // Second life: fresh service, same directory — the journal replays the
    // sixteen frames and the same rect query returns bit-identical reports.
    let server = NetServer::bind_durable(
        fleet(),
        "127.0.0.1:0",
        ServerConfig::default(),
        journal_config(&dir),
    )
    .expect("second bind");
    let report = *server.recovery_report().expect("report");
    assert_eq!(report.replayed_frames, OBJECTS, "{report:?}");
    assert_eq!(report.replayed_updates, OBJECTS, "{report:?}");
    assert_eq!(report.frame_decode_errors, 0);
    assert_eq!(report.truncated_bytes, 0);

    let after = server.service().objects_in_rect(&world(), 30.0);
    assert_eq!(bits(&before), bits(&after), "recovered answers must be bit-identical");

    // The recovery is visible through the ordinary stats surface too.
    let stats = server.stats();
    assert_eq!(stats.journal.recovered_frames, OBJECTS);
    assert_eq!(stats.journal.appends, 0, "no live ingest yet in this life");

    // And the recovered server keeps journaling live traffic.
    let mut client = NetClient::connect(server.local_addr()).expect("reconnect");
    client.send_frame(&Frame::single(0, update(8, 40.0, 500.0, 500.0))).expect("send");
    assert_eq!(client.flush().expect("flush").updates_applied, 1);
    assert_eq!(server.stats().journal.appends, 1);
    drop(client);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A server over a journal whose disk dies mid-stream: serving continues,
/// the degradation is visible over the wire (`REQ_HEALTH`) and through
/// `ServerStatsSnapshot::durability` with exact frame accounting — and once
/// the disk heals, the server's own background probe thread recovers
/// durability without any operator action.
#[test]
fn disk_death_is_observable_and_self_heals_over_the_wire() {
    let dir = temp_dir("self-heal");
    let fault = FaultFs::over_real();
    let service = fleet();
    let config = JournalConfig { snapshot_every_frames: 0, ..journal_config(&dir) };
    let (journal, _) = recover_and_attach_with_vfs(&service, config, Arc::new(fault.clone()))
        .expect("recover over FaultFs");
    let server =
        NetServer::bind(service, "127.0.0.1:0", ServerConfig::default()).expect("bind over faults");

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let health = client.health().expect("health");
    assert_eq!(health.state, DurabilityState::Durable);
    assert_eq!(health.degraded_frames, 0);

    // Durable ingest, then the disk dies mid-stream.
    for i in 0..4u64 {
        client.send_frame(&Frame::single(i, update(1, 1.0, 10.0 * i as f64, 0.0))).expect("send");
    }
    client.flush().expect("flush");
    fault.set_dead(true);
    for i in 4..9u64 {
        client.send_frame(&Frame::single(i, update(1, 1.0, 10.0 * i as f64, 0.0))).expect("send");
    }
    client.flush().expect("degraded flush: serving continues");

    let health = client.health().expect("degraded health");
    assert_eq!(health.state, DurabilityState::Degraded);
    assert_eq!(health.degraded_frames, 5, "exactly the un-journaled applies");
    assert_eq!(health.append_errors, 1, "one failed append flipped the state");
    let stats = server.stats();
    assert_eq!(stats.durability.state, DurabilityState::Degraded);
    assert_eq!(stats.durability.degraded_frames, 5);
    assert_eq!(stats.durability.degraded_transitions, 1);

    // Queries still answer while degraded — availability over durability.
    assert_eq!(client.objects_in_rect(&world(), 1.0).expect("rect").len(), 9);

    // Heal the disk; the server's probe thread recovers on its own.
    fault.set_dead(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.health().expect("health poll");
        if health.state == DurabilityState::Recovered {
            break;
        }
        assert!(Instant::now() < deadline, "probe thread failed to recover in time");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert_eq!(stats.durability.recovered_transitions, 1);
    assert!(stats.durability.probe_attempts >= 1);
    assert_eq!(stats.durability.degraded_frames, 5, "the window's count is preserved");
    assert_eq!(journal.stats().snapshots, 1, "recovery installed a forced snapshot");

    // Recovered ingest journals again.
    let appends_before = journal.stats().appends;
    client.send_frame(&Frame::single(0, update(2, 2.0, 99.0, 0.0))).expect("send");
    client.flush().expect("flush");
    assert_eq!(journal.stats().appends, appends_before + 1);

    drop(client);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// `connect_with_retry` rides out a server that is not up yet: dials fail
/// with refused connections until the listener appears, then succeed within
/// the policy's deadline.
#[test]
fn client_retry_rides_out_a_late_starting_server() {
    // Reserve an address, then free it so the first dials are refused.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
    let addr = listener.local_addr().expect("addr");
    drop(listener);

    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        NetServer::bind(fleet(), addr, ServerConfig::default()).expect("late bind")
    });
    let policy = RetryPolicy {
        initial_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(100),
        deadline: Duration::from_secs(10),
        jitter_seed: 9,
    };
    let mut client = NetClient::connect_with_retry(addr, ClientConfig::default(), policy)
        .expect("retry connect");
    let server = starter.join().expect("server thread");
    client.send_frame(&Frame::single(0, update(1, 1.0, 5.0, 5.0))).expect("send");
    assert_eq!(client.flush().expect("flush").updates_applied, 1);

    // And a restart: the old connection dies with the server, the retrying
    // reconnect picks the service back up on the same address.
    server.shutdown();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        NetServer::bind(fleet(), addr, ServerConfig::default()).expect("re-bind")
    });
    let next_seq = client.reconnect_with_retry(policy).expect("retry reconnect");
    assert!(next_seq > 1, "resumes above every sequence sent before the restart");
    let server = starter.join().expect("server thread");
    client.send_frame(&Frame::single(0, update(next_seq, 3.0, 6.0, 6.0))).expect("send");
    assert_eq!(client.flush().expect("flush").updates_applied, 1);
    drop(client);
    server.shutdown();
}

#[test]
fn plain_server_reports_zero_journal_activity() {
    let server = NetServer::bind(fleet(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    assert!(server.recovery_report().is_none());
    assert!(server.journal().is_none());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.send_frame(&Frame::single(3, update(1, 1.0, 5.0, 5.0))).expect("send");
    assert_eq!(client.flush().expect("flush").updates_applied, 1);
    let stats = server.stats();
    assert_eq!(stats.journal, Default::default(), "no journal: all counters zero");
    drop(client);
    server.shutdown();
}

#[test]
fn binding_durable_twice_on_one_service_is_refused() {
    let dir_a = temp_dir("twice-a");
    let dir_b = temp_dir("twice-b");
    let service = fleet();
    let server = NetServer::bind_durable(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig::default(),
        journal_config(&dir_a),
    )
    .expect("first bind");
    // A service instance carries its journal attachment: re-running recovery
    // against it would double-journal, so it is a typed refusal.
    let err = match NetServer::bind_durable(
        service,
        "127.0.0.1:0",
        ServerConfig::default(),
        journal_config(&dir_b),
    ) {
        Ok(_) => panic!("second durable bind must fail"),
        Err(err) => err,
    };
    assert!(err.to_string().contains("already has a journal"), "{err}");
    server.shutdown();
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}
