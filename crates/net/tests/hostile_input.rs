//! The serving layer under hostile bytes: truncated messages, oversized
//! length prefixes, garbage requests and corrupt frame payloads must each be
//! answered with a typed error (where the socket still allows one), counted
//! on the right `ServerStats` counter, and end in a *clean* connection drop
//! — no panic, no poisoned shard lock, and no effect on the served state.
//! A legitimate connection opened after the abuse must work exactly as if
//! the abuse never happened.

use mbdr_core::{Frame, ObjectState, Request, Response, ServeError, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId};
use mbdr_net::transport::{read_message, write_message};
use mbdr_net::{NetClient, NetError, NetServer, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn update(seq: u64, t: f64, x: f64, y: f64) -> Update {
    Update {
        sequence: seq,
        state: ObjectState::basic(Point::new(x, y), 0.0, 0.0, t),
        kind: UpdateKind::DeviationBound,
    }
}

/// An ingest message as a client of the version-1 frame layout sent it:
/// kind `0x01`, then the source id (`u64`), the update count (`u16`) and each
/// update behind a `u16` length prefix.
fn v1_ingest(source: u64, update: &Update) -> Vec<u8> {
    let encoded = update.encode().expect("update encodes");
    let mut body = vec![0x01];
    body.extend_from_slice(&source.to_be_bytes());
    body.extend_from_slice(&1u16.to_be_bytes());
    body.extend_from_slice(&(encoded.len() as u16).to_be_bytes());
    body.extend_from_slice(&encoded);
    body
}

/// Expects the next message on `stream` to be the given serve error, and the
/// connection to be closed right after it.
fn expect_error_then_close(stream: &mut TcpStream, expected: ServeError) {
    let body = read_message(stream, 1 << 20)
        .expect("error response arrives before the drop")
        .expect("a response, not EOF");
    match Response::decode(&body).expect("server responses decode") {
        Response::Error(code) => assert_eq!(code, expected),
        other => panic!("expected Error({expected:?}), got {other:?}"),
    }
    // The server dropped the connection after the error: the read side
    // reaches EOF (either a clean close or a reset, depending on timing).
    match read_message(stream, 1 << 20) {
        Ok(None) | Err(NetError::Io(_)) => {}
        other => panic!("expected the connection to be closed, got {other:?}"),
    }
}

#[test]
fn hostile_inputs_are_counted_dropped_and_leave_the_service_intact() {
    let service = Arc::new(LocationService::new());
    service.register(ObjectId(1), Arc::new(mbdr_core::StaticPredictor));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A legitimate update first, so "the state is untouched" is observable.
    let mut good = NetClient::connect(addr).expect("connect");
    good.send_frame(&Frame::single(1, update(0, 0.0, 50.0, 50.0))).expect("send");
    assert_eq!(good.flush().expect("flush").updates_applied, 1);

    // 1. Truncated message: a prefix promising 100 bytes, then silence.
    let mut s = TcpStream::connect(addr).expect("connect raw");
    s.write_all(&100u32.to_be_bytes()).expect("prefix");
    s.write_all(&[0xAB; 10]).expect("partial body");
    drop(s); // EOF mid-message

    // 2. Oversized length prefix: refused unread, with a typed error back.
    let mut s = TcpStream::connect(addr).expect("connect raw");
    s.write_all(&u32::MAX.to_be_bytes()).expect("hostile prefix");
    expect_error_then_close(&mut s, ServeError::Oversized);

    // 3. A garbage request kind inside a valid envelope.
    let mut s = TcpStream::connect(addr).expect("connect raw");
    write_message(&mut s, &[0x7F, 1, 2, 3]).expect("garbage request");
    expect_error_then_close(&mut s, ServeError::BadRequest);

    // 4. A truncated rect query (valid kind, body cut short).
    let mut s = TcpStream::connect(addr).expect("connect raw");
    let mut rect = Request::Rect { area: Aabb::around(Point::ORIGIN, 10.0), t: 1.0 }.encode();
    rect.truncate(rect.len() - 7);
    write_message(&mut s, &rect).expect("truncated query");
    expect_error_then_close(&mut s, ServeError::BadRequest);

    // 5. A corrupt frame payload: the envelope decodes (ingest kind), the
    //    apply path rejects the bytes, the worker reports and drops.
    let mut s = TcpStream::connect(addr).expect("connect raw");
    let corrupt = Request::Ingest(vec![0xEE; 25]).encode(); // not a decodable frame
    write_message(&mut s, &corrupt).expect("corrupt frame");
    expect_error_then_close(&mut s, ServeError::BadRequest);

    // 6. A NaN query point: rejected at decode time, never reaching the
    //    distance ordering inside the service.
    let mut s = TcpStream::connect(addr).expect("connect raw");
    let mut nan = Request::Nearest { from: Point::ORIGIN, t: 1.0, k: 3 }.encode();
    nan[1..9].copy_from_slice(&f64::NAN.to_be_bytes());
    write_message(&mut s, &nan).expect("nan query");
    expect_error_then_close(&mut s, ServeError::BadRequest);

    // 7. A stale client: an ingest message in the version-1 frame layout
    //    under the version-1 ingest kind `0x01`, a valid update that would
    //    move object 1 far away. The kind is unknown now, so the message is
    //    refused before any frame byte is read.
    let mut s = TcpStream::connect(addr).expect("connect raw");
    write_message(&mut s, &v1_ingest(1, &update(5, 3.0, 9_000.0, 9_000.0))).expect("v1 ingest");
    expect_error_then_close(&mut s, ServeError::BadRequest);

    // After all the abuse: a fresh connection is served normally — the shard
    // locks survived (not poisoned, not held) and the state is exactly the
    // one legitimate update.
    let mut after = NetClient::connect(addr).expect("connect after abuse");
    let inside =
        after.objects_in_rect(&Aabb::around(Point::new(50.0, 50.0), 5.0), 1.0).expect("query");
    assert_eq!(inside.len(), 1);
    assert_eq!(inside[0].object, 1);
    after.send_frame(&Frame::single(1, update(1, 2.0, 60.0, 50.0))).expect("send");
    assert_eq!(after.flush().expect("flush").updates_applied, 1);
    assert_eq!(service.total_updates(), 2, "only the legitimate updates reached the store");

    drop(good);
    drop(after);
    let stats = server.shutdown();
    assert_eq!(stats.connections_accepted, 9, "2 good + 7 hostile");
    assert_eq!(stats.connections_closed, 2, "the good connections closed cleanly");
    assert_eq!(stats.connections_dropped, 7, "every hostile connection was dropped");
    assert_eq!(stats.oversized_messages, 1);
    assert_eq!(stats.frame_decode_errors, 1);
    assert_eq!(
        stats.request_decode_errors, 4,
        "garbage kind + truncated rect + NaN query + version-1 ingest (the truncated \
         message is an io error)"
    );
    assert_eq!(stats.updates_applied, 2);
    assert_eq!(stats.frames_received, 3, "two good frames + the corrupt envelope");
}

#[test]
fn corrupt_frame_then_immediate_close_still_counts_as_a_drop() {
    // The client fires a corrupt frame and disappears without reading: the
    // reader sees its EOF possibly before the worker has judged the frame,
    // and must wait for the ingest verdict instead of racing it — the
    // teardown is a drop, never a clean close.
    let service = Arc::new(LocationService::new());
    service.register(ObjectId(1), Arc::new(mbdr_core::StaticPredictor));
    let server = NetServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut s = TcpStream::connect(server.local_addr()).expect("connect raw");
    let corrupt = Request::Ingest(vec![0xEE; 25]).encode();
    write_message(&mut s, &corrupt).expect("corrupt frame");
    drop(s); // close without ever reading
             // Wait until the frame has been judged (the verdict is asynchronous).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().frame_decode_errors == 0 {
        assert!(std::time::Instant::now() < deadline, "worker never saw the frame");
        std::thread::yield_now();
    }
    let stats = server.shutdown();
    assert_eq!(stats.frame_decode_errors, 1);
    assert_eq!(stats.connections_dropped, 1, "attributed as a drop");
    assert_eq!(stats.connections_closed, 0, "never as a clean close");
}

#[test]
fn a_flood_of_corrupt_frames_cannot_wedge_the_ingest_queue() {
    // Several connections race corrupt and valid frames through the shared
    // bounded queue: every corrupt source gets dropped, every valid update
    // lands, and shutdown still joins cleanly (nothing deadlocks).
    let service = Arc::new(LocationService::new());
    for i in 0..4u64 {
        service.register(ObjectId(i), Arc::new(mbdr_core::StaticPredictor));
    }
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig { ingest_workers: 2, ingest_queue: 4, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for c in 0..4u64 {
        handles.push(std::thread::spawn(move || {
            if c % 2 == 0 {
                // Hostile: a burst of corrupt frames.
                let mut s = TcpStream::connect(addr).expect("connect raw");
                for _ in 0..8 {
                    let corrupt = Request::Ingest(vec![0xEE; 30]).encode();
                    if write_message(&mut s, &corrupt).is_err() {
                        break; // already torn down mid-burst: equally fine
                    }
                }
                0u64
            } else {
                let mut client = NetClient::connect(addr).expect("connect");
                for step in 0..24u64 {
                    client
                        .send_frame(&Frame::single(c, update(step, step as f64, 1.0, 2.0)))
                        .expect("valid producer keeps working");
                }
                client.flush().expect("flush").updates_applied
            }
        }));
    }
    let applied: u64 = handles.into_iter().map(|h| h.join().expect("client thread")).sum();
    assert_eq!(applied, 48, "every valid update landed despite the flood");
    let stats = server.shutdown();
    assert_eq!(stats.updates_applied, 48);
    assert!(stats.frame_decode_errors >= 2, "both hostile connections were caught");
    assert_eq!(service.total_updates(), 48);
}
