//! The idle-connection soak: the reason the reactor exists. A crowd of
//! mostly-idle connections must cost the server *zero* threads beyond its
//! fixed pool (accept + reactors + ingest workers), while a hot subset
//! streaming through the same reactors stays bit-identical to the reference
//! model fed the same frames in-process. The CI-sized variant runs by
//! default; the full two-thousand-connection soak is `#[ignore]`d tier-2
//! (`cargo test -p mbdr-net --test idle_soak -- --ignored`).

use mbdr_core::{Frame, ObjectState, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, ServiceConfig};
use mbdr_model::{bits, Model};
use mbdr_net::{NetClient, NetServer, ServerConfig};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// OS threads of this process right now (Linux `/proc/self/task`).
fn resident_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|entries| entries.count())
}

/// Thread accounting only works if no other test is spawning threads in
/// this process concurrently, so the two soak variants take this lock.
static SOAK_LOCK: Mutex<()> = Mutex::new(());

fn update(seq: u64, t: f64, x: f64, y: f64) -> Update {
    Update {
        sequence: seq,
        state: ObjectState::basic(Point::new(x, y), 0.0, 0.0, t),
        kind: UpdateKind::DeviationBound,
    }
}

/// The deterministic update stream of one hot object.
fn hot_stream(object: u64) -> Vec<Frame> {
    (0..12u64)
        .map(|step| {
            Frame::single(
                object,
                update(step, step as f64, (object * 100 + step) as f64, step as f64 * 3.0),
            )
        })
        .collect()
}

fn run_soak(idle_connections: usize, hot_objects: u64) {
    let _guard = SOAK_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());

    // The reference model is fed the identical frames in-process.
    let mut model = Model::default();
    let served = Arc::new(LocationService::with_config(ServiceConfig::with_shards(4)));
    for i in 0..hot_objects {
        model.register(ObjectId(i), Arc::new(mbdr_core::StaticPredictor));
        served.register(ObjectId(i), Arc::new(mbdr_core::StaticPredictor));
    }

    let threads_before = resident_threads();
    let server = NetServer::bind(
        Arc::clone(&served),
        "127.0.0.1:0",
        ServerConfig { max_connections: idle_connections + 64, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    // The idle crowd: raw connects, never a byte sent.
    let mut idle = Vec::with_capacity(idle_connections);
    for _ in 0..idle_connections {
        idle.push(TcpStream::connect(addr).expect("idle connect"));
    }
    // Wait until the server has admitted every one of them (acceptance is
    // asynchronous), so the thread census counts the full crowd.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().connections_accepted < idle_connections as u64 {
        assert!(Instant::now() < deadline, "server never admitted the whole crowd");
        std::thread::yield_now();
    }

    // The claim itself: the crowd added ZERO threads — the process grew by
    // exactly the server's fixed pool, independent of the connection count.
    if let (Some(before), Some(now)) = (threads_before, resident_threads()) {
        assert_eq!(
            now - before,
            server.pool_threads(),
            "resident threads must grow by the fixed pool only, never per connection"
        );
    }

    // The hot subset streams through the reactors with the crowd attached.
    let mut hot_clients: Vec<NetClient> =
        (0..hot_objects).map(|_| NetClient::connect(addr).expect("hot connect")).collect();
    for (i, client) in hot_clients.iter_mut().enumerate() {
        for frame in hot_stream(i as u64) {
            let bytes = frame.encode().expect("frames encode");
            model.apply_frame_bytes(&bytes).expect("model apply");
            client.send_frame(&frame).expect("hot send");
        }
        assert_eq!(client.flush().expect("hot flush").frames, 12);
    }
    assert_eq!(served.total_updates(), model.total_updates());

    // Bit-identity: the served answers equal the model's, field for field,
    // bit for bit.
    let area = Aabb::new(Point::new(-10.0, -10.0), Point::new(1e6, 1e6));
    for &t in &[3.0, 7.5, 11.0, 40.0] {
        let over_wire = hot_clients[0].objects_in_rect(&area, t).expect("rect over TCP");
        assert_eq!(bits(&over_wire), bits(&model.objects_in_rect(&area, t)), "rect at t={t}");
    }

    // Still no extra threads after serving the hot subset under load.
    if let (Some(before), Some(now)) = (threads_before, resident_threads()) {
        assert_eq!(now - before, server.pool_threads());
    }

    drop(hot_clients);
    drop(idle);
    let stats = server.shutdown();
    assert_eq!(stats.connections_accepted, idle_connections as u64 + hot_objects);
    assert_eq!(stats.updates_applied, hot_objects * 12);
    assert_eq!(stats.evicted_slow, 0);
    assert_eq!(stats.register_failures, 0);
}

#[test]
fn a_mostly_idle_crowd_adds_no_threads_and_leaves_the_hot_path_bit_identical() {
    // CI-sized: fits comfortably under default fd limits.
    run_soak(192, 8);
}

#[test]
#[ignore = "tier-2 soak: ~2k idle connections, needs `ulimit -n` ≥ 8192"]
fn two_thousand_idle_connections_hold_on_the_fixed_pool() {
    run_soak(2_048, 8);
}
