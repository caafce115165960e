//! # mbdr-net — the TCP serving layer
//!
//! The paper's dead-reckoning protocols exist to cut *network* traffic
//! between moving hosts and a location server — this crate puts the verified
//! wire codec of `mbdr_core::wire` on real sockets. It is std-only (no
//! external dependencies): an event-driven [`NetServer`] multiplexes every
//! connection over a **fixed** thread pool (nonblocking sockets on an
//! epoll readiness loop), parses
//! length-prefixed update [`Frame`](mbdr_core::Frame)s incrementally, feeds
//! them to
//! [`LocationService::apply_frame_bytes`](mbdr_locserver::LocationService::apply_frame_bytes)
//! through bounded ingest queues, and answers the binary query protocol of
//! [`mbdr_core::wire::query`] (rect / nearest / zone subscriptions) on the
//! same connection. [`NetClient`] is the matching blocking client.
//!
//! * [`transport`] — the length-prefixed message framing with its hostile-
//!   length-prefix guard (used by the blocking client; the server parses
//!   the same framing incrementally).
//! * [`NetServer`] / [`ServerConfig`] — accept thread, reactor pool,
//!   bounded ingest queues, backpressure and slow-client eviction, flush
//!   barrier (see [`server`] for the model).
//! * `sys` (private) — the epoll readiness poller; `sys/epoll.rs` is the one
//!   file on the serving path with `unsafe` code. The server side is
//!   therefore **Linux-only**: on any other target [`NetServer::bind`]
//!   returns [`std::io::ErrorKind::Unsupported`], while [`NetClient`] works
//!   everywhere.
//! * [`NetClient`] / [`ClientConfig`] / [`FlushSummary`] — one blocking
//!   connection, with optional connect/read timeouts, plus
//!   [`RetryPolicy`]-backed connect/reconnect for servers that restart.
//! * [`ServerStats`] / [`ServerStatsSnapshot`] — per-cause counters in the
//!   `LinkStats` discipline, so tests can assert exactly why a connection
//!   ended.
//! * [`NetError`] — everything that can go wrong, typed.
//!
//! The concurrent loopback workload lives in `mbdr_sim::net_workload`
//! (`reproduce net` emits its JSON baseline, `reproduce connscale` the
//! high-connection-count one), and the `net_serve` example drives a small
//! fleet through the full path.

#![warn(missing_docs)]
// `unsafe` is allowed block by block, with a reason, in `sys/epoll.rs` only.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
// Panic-free by construction: every byte this crate reads came off a
// socket, so it answers hostile input with typed errors.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod client;
pub mod error;
mod reactor;
pub mod retry;
pub mod server;
pub mod stats;
mod sys;
pub mod transport;

pub use client::{ClientConfig, FlushSummary, NetClient};
pub use error::NetError;
pub use retry::RetryPolicy;
pub use server::{NetServer, ServerConfig};
pub use stats::{ServerStats, ServerStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_core::{Frame, ObjectState, Update, UpdateKind};
    use mbdr_geo::{Aabb, Point};
    use mbdr_locserver::{LocationService, ObjectId};
    use std::sync::Arc;

    fn update(seq: u64, t: f64, x: f64, y: f64) -> Update {
        Update {
            sequence: seq,
            state: ObjectState::basic(Point::new(x, y), 0.0, 0.0, t),
            kind: UpdateKind::DeviationBound,
        }
    }

    fn served_fleet(objects: u64) -> NetServer {
        let service = Arc::new(LocationService::new());
        for i in 0..objects {
            service.register(ObjectId(i), Arc::new(mbdr_core::StaticPredictor));
        }
        NetServer::bind(service, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
    }

    #[test]
    fn ingest_flush_query_roundtrip_over_loopback() {
        let server = served_fleet(3);
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        for i in 0..3u64 {
            let frame = Frame::single(i, update(0, 0.0, 100.0 * i as f64, 0.0));
            client.send_frame(&frame).expect("send");
        }
        let flush = client.flush().expect("flush");
        assert_eq!(flush.frames, 3);
        assert_eq!(flush.updates_applied, 3);

        let area = Aabb::new(Point::new(-10.0, -10.0), Point::new(150.0, 10.0));
        let inside = client.objects_in_rect(&area, 1.0).expect("rect query");
        assert_eq!(inside.len(), 2, "objects 0 and 100 are inside, 200 is not");
        assert_eq!(inside[0].object, 0);
        assert_eq!(inside[1].object, 1);

        let nearest = client.nearest_objects(&Point::new(190.0, 0.0), 1.0, 2).expect("nearest");
        assert_eq!(nearest.len(), 2);
        assert_eq!(nearest[0].object, 2, "the 10 m away object first");

        // Zone subscription: object 0 sits inside the zone from the start.
        client.subscribe_zone(7, &Aabb::around(Point::new(0.0, 0.0), 5.0)).expect("subscribe");
        let events = client.poll_zones(1.0).expect("poll");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].zone, 7);
        assert_eq!(events[0].object, 0);
        assert!(events[0].entered);
        assert!(client.poll_zones(2.0).expect("second poll").is_empty(), "no transition");

        let (client_sent, client_received) = (client.bytes_sent(), client.bytes_received());
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.connections_closed, 1);
        assert_eq!(stats.connections_dropped, 0);
        assert_eq!(stats.frames_received, 3);
        assert_eq!(stats.updates_applied, 3);
        assert_eq!(stats.queries_answered, 4, "rect + nearest + two polls");
        assert_eq!(stats.zone_events_emitted, 1);
        // Six requests each waited on the previous answer (frames + flush,
        // rect, nearest, subscribe + poll, poll, then the close), so each
        // needed a readiness event of its own.
        assert!(stats.readiness_wakeups >= 6, "{} wakeups", stats.readiness_wakeups);
        assert!(client_sent > 0 && client_received > 0);
        assert_eq!(stats.bytes_received, client_sent, "both ends count the same request bytes");
        assert_eq!(stats.bytes_sent, client_received, "both ends count the same response bytes");
    }

    #[test]
    fn flush_on_an_idle_connection_reports_zero() {
        let server = served_fleet(1);
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        let flush = client.flush().expect("flush");
        assert_eq!(flush, FlushSummary { frames: 0, updates_applied: 0 });
    }

    #[test]
    fn frames_for_unregistered_objects_apply_nothing_but_keep_the_connection() {
        let server = served_fleet(1);
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.send_frame(&Frame::single(99, update(0, 0.0, 1.0, 1.0))).expect("send");
        let flush = client.flush().expect("flush");
        assert_eq!(flush.frames, 1);
        assert_eq!(flush.updates_applied, 0, "unknown source applies nothing");
        assert_eq!(server.stats().connections_dropped, 0);
    }

    #[test]
    fn many_concurrent_connections_are_served() {
        let server = served_fleet(8);
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for c in 0..4u64 {
            handles.push(std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for step in 0..20u64 {
                    let object = (c * 2 + step) % 8;
                    client
                        .send_frame(&Frame::single(object, update(step, step as f64, 1.0, 2.0)))
                        .expect("send");
                }
                client.flush().expect("flush").frames
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().expect("client thread")).sum();
        assert_eq!(total, 80);
        let stats = server.shutdown();
        assert_eq!(stats.frames_received, 80);
        assert_eq!(stats.connections_accepted, 4);
    }

    #[test]
    fn shutdown_with_a_live_connection_joins_cleanly() {
        let server = served_fleet(1);
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.send_frame(&Frame::single(0, update(0, 0.0, 1.0, 1.0))).expect("send");
        // The flush response proves the server is actually holding the
        // connection (a bare connect only completes the kernel handshake).
        assert_eq!(client.flush().expect("flush").frames, 1);
        // Shutting down with the connection still open must join every
        // thread instead of hanging on the blocked reader.
        let stats = server.shutdown();
        assert_eq!(stats.connections_accepted, 1);
        // The torn-down socket fails the client from here on (the flush
        // either errors on write or on the closed read side).
        assert!(client.flush().is_err());
    }
}
