//! The reactor's overload policy, pinned by counters: a client that stops
//! reading is *evicted* (outbound-bound overflow or write-stall budget, each
//! on its own counter path), a full ingest queue *stalls* the producer
//! instead of dropping frames (a hangup while it is parked is a
//! `spurious_wakeups` event), and a connection the admission cap refuses is
//! a `register_failures` drop — all while healthy connections on the same
//! reactors keep answering within an ordinary latency bound.

use mbdr_core::{Frame, ObjectState, Predictor, Request, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, ServiceConfig};
use mbdr_net::transport::write_message;
use mbdr_net::{NetClient, NetServer, ServerConfig};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn update(seq: u64, t: f64, x: f64, y: f64) -> Update {
    Update {
        sequence: seq,
        state: ObjectState::basic(Point::new(x, y), 0.0, 0.0, t),
        kind: UpdateKind::DeviationBound,
    }
}

/// A fleet large enough that one rect-over-everything response is tens of
/// kilobytes — so an unread connection overflows its outbound bound after a
/// handful of queries instead of hiding in socket buffers.
fn served_wide_fleet(objects: u64, config: ServerConfig) -> (Arc<LocationService>, NetServer) {
    let service = Arc::new(LocationService::new());
    for i in 0..objects {
        service.register(ObjectId(i), Arc::new(mbdr_core::StaticPredictor));
    }
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let mut feeder = NetClient::connect(server.local_addr()).expect("feeder connects");
    for i in 0..objects {
        feeder.send_frame(&Frame::single(i, update(0, 0.0, i as f64, 0.0))).expect("feed");
    }
    assert_eq!(feeder.flush().expect("feed flush").updates_applied, objects);
    drop(feeder); // one clean close on the stats
    (service, server)
}

/// The whole fleet in one rectangle.
fn world() -> Aabb {
    Aabb::new(Point::new(-10.0, -10.0), Point::new(1e6, 10.0))
}

/// Fires rect queries at the server without ever reading a byte back, until
/// the server gives up on us. Returns when the socket dies (evicted) or the
/// deadline passes (test will then fail on the counter assert).
fn flood_queries_never_read(addr: std::net::SocketAddr, deadline: Instant) {
    let mut s = TcpStream::connect(addr).expect("slow client connects");
    let request = Request::Rect { area: world(), t: 1.0 }.encode();
    while Instant::now() < deadline {
        if write_message(&mut s, &request).is_err() {
            return; // the server shut the socket down: evicted
        }
    }
}

#[test]
fn unread_responses_overflow_the_outbound_bound_and_evict_only_the_slow_client() {
    let (_service, server) = served_wide_fleet(
        2_000,
        ServerConfig { max_outbound_bytes: 8 * 1024, ..ServerConfig::default() },
    );
    let addr = server.local_addr();
    let deadline = Instant::now() + Duration::from_secs(20);

    let slow = std::thread::spawn(move || flood_queries_never_read(addr, deadline));

    // A healthy connection on the same reactors must keep answering while
    // the slow client is being buried — and within an ordinary bound, not
    // just eventually.
    let mut healthy = NetClient::connect(addr).expect("healthy connects");
    let mut evicted_seen = false;
    while Instant::now() < deadline {
        let asked = Instant::now();
        let inside = healthy.objects_in_rect(&world(), 1.0).expect("healthy keeps answering");
        assert_eq!(inside.len(), 2_000);
        assert!(
            asked.elapsed() < Duration::from_secs(5),
            "healthy query latency blew up during the eviction"
        );
        if server.stats().evicted_slow > 0 {
            evicted_seen = true;
            break;
        }
    }
    assert!(evicted_seen, "the unread connection was never evicted");
    slow.join().expect("slow client thread");

    // One more answer after the eviction, then exact attribution.
    assert_eq!(healthy.objects_in_rect(&world(), 1.0).expect("after eviction").len(), 2_000);
    drop(healthy);
    let stats = server.shutdown();
    assert_eq!(stats.evicted_slow, 1, "exactly the slow client");
    assert_eq!(stats.connections_dropped, 1, "an eviction is also a drop");
    assert_eq!(stats.register_failures, 0);
}

#[test]
fn a_write_blocked_connection_is_evicted_within_the_stall_budget() {
    // A huge outbound bound takes the overflow path out of play: the only
    // way out is the write-stall clock.
    let budget = Duration::from_millis(200);
    let (_service, server) = served_wide_fleet(
        2_000,
        ServerConfig {
            max_outbound_bytes: 64 * 1024 * 1024,
            write_stall_budget: budget,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let deadline = Instant::now() + Duration::from_secs(20);
    let started = Instant::now();
    flood_queries_never_read(addr, deadline);
    let evicted_after = started.elapsed();
    assert!(Instant::now() < deadline, "server never evicted the write-blocked client");
    // The clock starts when the kernel buffers fill, so the observed wall
    // time is budget + fill time + a scheduling tick — well under the
    // multi-second default, proving the configured budget was the trigger.
    assert!(
        evicted_after < Duration::from_secs(10),
        "eviction took {evicted_after:?}, not bounded by the {budget:?} budget"
    );
    let stats = server.shutdown();
    assert_eq!(stats.evicted_slow, 1);
    assert_eq!(stats.connections_dropped, 1);
}

#[test]
fn a_full_ingest_queue_stalls_the_producer_without_losing_updates() {
    let service = Arc::new(LocationService::new());
    service.register(ObjectId(0), Arc::new(mbdr_core::StaticPredictor));
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig { ingest_workers: 1, ingest_queue: 1, ..ServerConfig::default() },
    )
    .unwrap();

    // Bursts of frames into a single-slot queue: the reactor parses a burst
    // far faster than the worker applies it, so admission must push back
    // (read-interest withdrawal + a parked frame), never drop.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().backpressure_stalls == 0 && Instant::now() < deadline {
        for _ in 0..512 {
            client
                .send_frame(&Frame::single(0, update(sent, sent as f64, 1.0, 2.0)))
                .expect("send");
            sent += 1;
        }
        // The flush barrier proves the parked frame was replayed in order.
        assert_eq!(client.flush().expect("flush").frames, sent);
    }
    let stalls = server.stats().backpressure_stalls;
    assert!(stalls > 0, "a single-slot queue never stalled under {sent} frames");
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.frames_received, sent);
    assert_eq!(stats.updates_applied, sent, "backpressure stalled, it did not drop");
    assert_eq!(stats.connections_dropped, 0);
    assert_eq!(service.total_updates(), sent);
}

#[test]
fn connections_beyond_the_admission_cap_are_counted_register_failures() {
    let service = Arc::new(LocationService::new());
    service.register(ObjectId(0), Arc::new(mbdr_core::StaticPredictor));
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig { max_connections: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    // Two admitted connections, proven live by a round trip each.
    let mut first = NetClient::connect(addr).expect("first connects");
    let mut second = NetClient::connect(addr).expect("second connects");
    assert_eq!(first.flush().expect("first flush").frames, 0);
    assert_eq!(second.flush().expect("second flush").frames, 0);

    // The third is accepted by the kernel but refused registration: its
    // first round trip fails instead of hanging, and the refusal is already
    // on the counter by the time the failure is observable.
    let mut third = NetClient::connect(addr).expect("kernel accepts the third");
    assert!(third.flush().is_err(), "refused connection cannot be served");
    let mut refusals = 1u64;
    assert_eq!(server.stats().register_failures, refusals);

    // An admitted connection closing frees a slot for a newcomer. The
    // teardown is asynchronous, so a retry may still be refused — every
    // such refusal is counted by the test to keep the final assert exact.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut fourth = loop {
        let mut candidate = NetClient::connect(addr).expect("kernel accepts the fourth");
        if candidate.flush().is_ok() {
            break candidate;
        }
        refusals += 1;
        assert!(Instant::now() < deadline, "freed slot was never reusable");
    };
    assert_eq!(fourth.flush().expect("fourth flush").frames, 0);

    drop(second);
    drop(third);
    drop(fourth);
    let stats = server.shutdown();
    assert_eq!(stats.register_failures, refusals, "every refusal on its own counter");
    assert_eq!(stats.connections_dropped, refusals, "each refusal is attributed as a drop");
    assert_eq!(stats.updates_applied, 0);
}

/// A predictor that parks the first prediction it is asked for — and with it
/// the caller's shard read lock — until the test releases it.
struct GatePredictor {
    entered: Mutex<Option<Sender<()>>>,
    release: Mutex<Option<Receiver<()>>>,
}

impl Predictor for GatePredictor {
    fn predict(&self, reported: &ObjectState, _t: f64) -> Point {
        if let Some(entered) = self.entered.lock().expect("gate lock").take() {
            entered.send(()).expect("test waits for the gate");
            let release = self.release.lock().expect("gate lock").take();
            release.expect("one release").recv().expect("test releases the gate");
        }
        reported.position
    }

    fn name(&self) -> &'static str {
        "gate"
    }
}

#[test]
fn a_peer_hangup_on_a_paused_connection_is_a_spurious_wakeup() {
    // One shard, held by a query parked inside its predictor: the single
    // ingest worker blocks on the write lock, the single-slot queue fills,
    // and the reactor parks a frame with read interest withdrawn.
    let service = Arc::new(LocationService::with_config(ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    }));
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig { ingest_workers: 1, ingest_queue: 1, ..ServerConfig::default() },
    )
    .unwrap();
    // Declared after `server`, so a failed assert drops `release` (opening
    // the gate) before the server's drop waits on the worker it blocks.
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let gate = GatePredictor {
        entered: Mutex::new(Some(entered_tx)),
        release: Mutex::new(Some(release_rx)),
    };
    service.register(ObjectId(0), Arc::new(gate));
    service.apply_update(ObjectId(0), &update(0, 0.0, 1.0, 2.0));
    let query = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.objects_in_rect(&world(), 0.0).len())
    };
    entered.recv().expect("the query reached the gate");

    let frames = 8u64;
    let mut producer = TcpStream::connect(server.local_addr()).expect("producer connects");
    for seq in 1..=frames {
        let body = Request::encode_ingest(&Frame::single(0, update(seq, seq as f64, 1.0, 2.0)))
            .expect("frame encodes");
        write_message(&mut producer, &body).expect("send");
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().backpressure_stalls == 0 {
        assert!(Instant::now() < deadline, "the blocked worker never stalled the producer");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The hangup wakes the parked connection, which cannot act on it yet.
    drop(producer);
    while server.stats().spurious_wakeups == 0 {
        assert!(Instant::now() < deadline, "the hangup never woke the paused connection");
        std::thread::sleep(Duration::from_millis(1));
    }

    release.send(()).expect("gate still parked");
    assert_eq!(query.join().expect("query thread"), 1);
    while service.total_updates() < 1 + frames {
        assert!(Instant::now() < deadline, "the parked frames never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.shutdown();
    assert_eq!(stats.updates_applied, frames, "the stalls dropped nothing");
    assert!(stats.spurious_wakeups >= 1 && stats.spurious_wakeups <= stats.readiness_wakeups);
}
