//! The event-driven TCP server in front of a [`LocationService`].
//!
//! ## Thread model
//!
//! The pool is **fixed**: one accept thread, `reactor_workers` reactor
//! threads multiplexing every connection over nonblocking sockets (epoll —
//! the server side is Linux-only, see the crate docs), and `ingest_workers`
//! threads applying frames to the service. Ten connections or ten thousand,
//! the thread count does not move; per-connection cost is a socket, a
//! registration and a state machine (see the private `reactor` module).
//!
//! Each connection is owned by one reactor (round-robin at accept) and
//! pinned to one ingest worker: the tracker's staleness rule rejects updates
//! that arrive out of order, so frames from one source must apply in the
//! order the socket delivered them — one parser and one applier per
//! connection preserve the per-source order TCP already paid for, while
//! different connections still ingest in parallel. Queries (rect / nearest /
//! zone poll) are answered on the reactor — they only take shard *read*
//! locks, so a slow consumer never blocks ingest.
//!
//! ## Backpressure and eviction
//!
//! Nothing in the server blocks on a client:
//!
//! * A full ingest queue parks the frame on its connection and withdraws
//!   read interest (counted as a `backpressure_stall`); TCP then pushes back
//!   on that producer while every other connection keeps being served.
//! * Responses go through a bounded per-connection outbound buffer drained
//!   on writability. A client that stops reading either overflows
//!   [`ServerConfig::max_outbound_bytes`] or stays write-blocked past
//!   [`ServerConfig::write_stall_budget`] — both evict it (`evicted_slow`).
//! * [`ServerConfig::max_connections`] bounds admission at accept time;
//!   refusals are counted under `register_failures`, the same counter a
//!   failed poller registration bumps (the reactor-era shape of the old
//!   "reader thread failed to spawn" path).
//!
//! ## The flush barrier
//!
//! Ingest is fire-and-forget (no per-frame ack — that would halve throughput
//! on high-latency uplinks), so a client that needs read-your-writes sends
//! [`mbdr_core::Request::Flush`]: the reactor pauses that connection's
//! parsing until every frame previously received on it has been applied,
//! then answers [`mbdr_core::Response::FlushDone`] with the connection's
//! frame and update totals. The wait is a flag, not a blocked thread.
//!
//! ## Hostile input
//!
//! Every failure is typed and counted (see [`crate::ServerStats`]): an
//! oversized length prefix or an undecodable request gets a best-effort
//! [`mbdr_core::Response::Error`] and the connection is dropped; a frame
//! payload that
//! fails to decode at apply time does the same via a worker completion. No
//! input panics a server thread, so the service's shard locks can never be
//! poisoned by traffic.

use crate::reactor::{
    ingest_worker, locked, new_poller, IngestJob, NewConn, Reactor, ReactorShared,
};
use crate::stats::{ServerStats, ServerStatsSnapshot};
use crate::transport::DEFAULT_MAX_MESSAGE_BYTES;
use mbdr_journal::{Journal, JournalConfig};
use mbdr_locserver::{recover_and_attach, LocationService, RecoveryReport};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the durability re-probe thread re-checks a healthy service
/// (the check is one relaxed atomic load; reaction latency to a disk
/// incident is at most one tick).
const PROBE_IDLE_TICK: Duration = Duration::from_millis(250);

/// First retry delay after a failed re-probe; doubles per consecutive
/// failure up to [`PROBE_MAX_BACKOFF`].
const PROBE_MIN_BACKOFF: Duration = Duration::from_millis(10);

/// Cap on the re-probe backoff while the disk stays dead.
const PROBE_MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Reactor threads multiplexing the connections. Every connection is
    /// owned by exactly one reactor.
    pub reactor_workers: usize,
    /// Threads applying ingest frames to the service. Every connection is
    /// pinned to one worker so its frames apply in arrival order.
    pub ingest_workers: usize,
    /// Capacity of each worker's bounded ingest queue (frames). A full
    /// queue parks the producing connection (read-interest backoff) — the
    /// server's backpressure towards fast producers.
    pub ingest_queue: usize,
    /// Per-message size cap; larger length prefixes are refused unread.
    pub max_message_bytes: u32,
    /// Bound on a connection's *undrained* outbound backlog. A connection
    /// still holding more than this many buffered bytes when its next
    /// response is ready is evicted as a slow client (a single response may
    /// exceed the bound — a prompt reader drains it in readiness chunks).
    pub max_outbound_bytes: usize,
    /// How long a connection may sit write-blocked (buffered output, socket
    /// not accepting bytes) before it is evicted as a slow client.
    pub write_stall_budget: Duration,
    /// Admission cap: connections accepted while this many are already
    /// registered are refused at accept time (`register_failures`).
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            reactor_workers: 2,
            ingest_workers: 2,
            ingest_queue: 1024,
            max_message_bytes: DEFAULT_MAX_MESSAGE_BYTES,
            max_outbound_bytes: 256 * 1024,
            write_stall_budget: Duration::from_secs(5),
            max_connections: 16 * 1024,
        }
    }
}

/// A running TCP serving layer over one shared [`LocationService`].
///
/// Dropping the server shuts it down and joins every thread; call
/// [`NetServer::shutdown`] to do so explicitly and receive the final
/// counters.
pub struct NetServer {
    addr: SocketAddr,
    service: Arc<LocationService>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    reactor_shareds: Vec<Arc<ReactorShared>>,
    reactor_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    pool_threads: usize,
    /// Present when the server was started via [`NetServer::bind_durable`].
    journal: Option<Arc<Journal>>,
    recovery: Option<RecoveryReport>,
    /// The durability re-probe thread of a durable server: signalled (flag
    /// under the mutex set to `true`, condvar notified) at shutdown.
    probe_signal: Arc<(Mutex<bool>, Condvar)>,
    probe_handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds the serving layer to `addr` (use port 0 for an ephemeral port)
    /// and starts the fixed thread pool: accept + reactors + ingest workers.
    #[expect(clippy::indexing_slicing, reason = "one reactor_shareds entry per poller")]
    pub fn bind(
        service: Arc<LocationService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let active_conns = Arc::new(AtomicUsize::new(0));
        let n_reactors = config.reactor_workers.max(1);
        let n_workers = config.ingest_workers.max(1);

        // Pollers and wakers are created here so a resource failure (fd
        // limit, unsupported platform) surfaces from bind, not from a
        // thread panic later.
        let mut pollers = Vec::with_capacity(n_reactors);
        let mut reactor_shareds = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            let (poller, waker, wake_rx) = new_poller()?;
            pollers.push((poller, wake_rx));
            reactor_shareds.push(Arc::new(ReactorShared {
                incoming: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                waker,
                shutdown: AtomicBool::new(false),
            }));
        }

        // One bounded queue per ingest worker: connections are pinned, so
        // one source's frames are never raced by two workers.
        let mut worker_txs: Vec<SyncSender<IngestJob>> = Vec::with_capacity(n_workers);
        let mut worker_handles = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let (tx, rx) = std::sync::mpsc::sync_channel::<IngestJob>(config.ingest_queue.max(1));
            worker_txs.push(tx);
            let service = Arc::clone(&service);
            let stats = Arc::clone(&stats);
            let reactors = reactor_shareds.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("mbdr-net-ingest-{i}"))
                    .spawn(move || ingest_worker(&rx, &service, &stats, &reactors))?,
            );
        }

        let mut reactor_handles = Vec::with_capacity(n_reactors);
        for (index, (poller, wake_rx)) in pollers.into_iter().enumerate() {
            let reactor = Reactor {
                index,
                shared: Arc::clone(&reactor_shareds[index]),
                service: Arc::clone(&service),
                stats: Arc::clone(&stats),
                worker_txs: worker_txs.clone(),
                config,
                active_conns: Arc::clone(&active_conns),
                poller,
                wake_rx,
            };
            reactor_handles.push(
                std::thread::Builder::new()
                    .name(format!("mbdr-net-reactor-{index}"))
                    .spawn(move || reactor.run())?,
            );
        }
        // The reactors hold the only long-lived senders; drop ours so the
        // workers see disconnect once the reactors exit.
        drop(worker_txs);

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let reactors = reactor_shareds.clone();
            let active_conns = Arc::clone(&active_conns);
            std::thread::Builder::new().name("mbdr-net-accept".into()).spawn(move || {
                accept_loop(&listener, &shutdown, &stats, config, &reactors, &active_conns);
            })?
        };
        let mut server = NetServer {
            addr,
            service,
            stats,
            shutdown,
            accept_handle: Some(accept_handle),
            reactor_shareds,
            reactor_handles,
            worker_handles,
            pool_threads: 1 + n_reactors + n_workers,
            journal: None,
            recovery: None,
            probe_signal: Arc::new((Mutex::new(false), Condvar::new())),
            probe_handle: None,
        };
        // Any journaled service gets the durability re-probe thread — servers
        // started via `bind_durable`, and services whose caller attached a
        // journal (e.g. over a fault-injecting Vfs in tests) alike.
        if server.service.journal().is_some() {
            let probe_service = Arc::clone(&server.service);
            let probe_signal = Arc::clone(&server.probe_signal);
            server.probe_handle = Some(
                std::thread::Builder::new()
                    .name("mbdr-net-probe".into())
                    .spawn(move || probe_loop(&probe_service, &probe_signal))?,
            );
        }
        Ok(server)
    }

    /// Like [`NetServer::bind`], but with a durable write-ahead journal:
    /// before the listener starts, the journal at `journal.dir` is opened
    /// (repairing any torn tail), the newest snapshot is restored into
    /// `service`, the retained frame tail is replayed through the normal
    /// staleness-aware apply rules, and the journal is attached so every
    /// ingested frame is recorded from then on.
    ///
    /// Objects must be registered on `service` before this call — recovery
    /// restores tracker state only for registered objects (a snapshot cannot
    /// carry prediction functions). Inspect what was rebuilt via
    /// [`NetServer::recovery_report`].
    ///
    /// A durable server also runs one background **durability re-probe**
    /// thread (named `mbdr-net-probe`, in addition to the fixed serving pool
    /// counted by [`NetServer::pool_threads`]): when a failed journal append
    /// flips the service to the degraded regime, the thread retries
    /// [`LocationService::probe_durability`] under capped exponential backoff
    /// until the disk heals, then the service journals normally again — no
    /// operator action, no serving interruption.
    pub fn bind_durable(
        service: Arc<LocationService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        journal: JournalConfig,
    ) -> std::io::Result<NetServer> {
        let (journal, recovery) =
            recover_and_attach(&service, journal).map_err(std::io::Error::other)?;
        let mut server = Self::bind(service, addr, config)?;
        server.journal = Some(journal);
        server.recovery = Some(recovery);
        Ok(server)
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The location service the server fronts.
    pub fn service(&self) -> &Arc<LocationService> {
        &self.service
    }

    /// A copy of the serving counters. The fronted service's durability
    /// state machine is always overlaid into
    /// [`ServerStatsSnapshot::durability`]; on a durable server
    /// ([`NetServer::bind_durable`]) the journal's counters and the bind-time
    /// recovery report are additionally overlaid into
    /// [`ServerStatsSnapshot::journal`] / [`ServerStatsSnapshot::recovery`].
    pub fn stats(&self) -> ServerStatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.durability = self.service.durability_stats();
        if let Some(journal) = &self.journal {
            snapshot.journal = journal.stats();
        }
        if let Some(recovery) = &self.recovery {
            snapshot.recovery = *recovery;
        }
        snapshot
    }

    /// What crash recovery rebuilt at bind time (durable servers only).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The write-ahead journal, when the server was started with
    /// [`NetServer::bind_durable`].
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The size of the fixed thread pool (accept + reactors + ingest
    /// workers). Connection count does not change it — that is the point;
    /// the soak tests assert against this number. A durable server's
    /// `mbdr-net-probe` thread is deliberately not counted: it belongs to
    /// the journal lifecycle, not the connection-serving pool whose
    /// fixedness the connection-scaling gate asserts.
    pub fn pool_threads(&self) -> usize {
        self.pool_threads
    }

    /// Stops accepting, tears down every connection, drains the workers and
    /// joins all threads. Returns the final counters.
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.shutdown_inner();
        self.stats.snapshot()
    }

    fn shutdown_inner(&mut self) {
        let Some(accept_handle) = self.accept_handle.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop: it checks the flag after every accept.
        let _ = TcpStream::connect(self.addr);
        let _ = accept_handle.join();
        for shared in &self.reactor_shareds {
            shared.shutdown.store(true, Ordering::Release);
            shared.waker.wake();
        }
        for handle in self.reactor_handles.drain(..) {
            let _ = handle.join();
        }
        // Every ingest sender lived inside a reactor; with the reactors
        // joined, the workers drain their queues and see the disconnect.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        // With ingest quiesced, push any batched journal tail to disk so a
        // graceful shutdown loses nothing regardless of the fsync policy.
        if let Some(journal) = &self.journal {
            let _ = journal.flush();
        }
        if let Some(probe_handle) = self.probe_handle.take() {
            let (lock, cvar) = &*self.probe_signal;
            *locked(lock) = true;
            cvar.notify_all();
            let _ = probe_handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Body of a durable server's `mbdr-net-probe` thread: waits on the
/// shutdown condvar with a timeout, then runs one durability re-probe.
/// Healthy services are re-checked every [`PROBE_IDLE_TICK`] (one atomic
/// load); while the disk stays dead the wait doubles from
/// [`PROBE_MIN_BACKOFF`] to [`PROBE_MAX_BACKOFF`] so a dying device is not
/// hammered with fsyncs. The condvar makes shutdown immediate regardless of
/// the current backoff.
fn probe_loop(service: &LocationService, signal: &(Mutex<bool>, Condvar)) {
    let (lock, cvar) = signal;
    let mut wait = PROBE_IDLE_TICK;
    let mut fail_streak = 0u32;
    loop {
        let guard = locked(lock);
        let (guard, _timeout) =
            cvar.wait_timeout(guard, wait).unwrap_or_else(PoisonError::into_inner);
        if *guard {
            return;
        }
        drop(guard);
        if service.probe_durability() {
            fail_streak = 0;
            wait = PROBE_IDLE_TICK;
        } else {
            fail_streak = fail_streak.saturating_add(1);
            wait =
                PROBE_MIN_BACKOFF.saturating_mul(1u32 << fail_streak.min(7)).min(PROBE_MAX_BACKOFF);
        }
    }
}

#[expect(clippy::indexing_slicing, reason = "the reactor index is modulo reactors.len()")]
fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    stats: &Arc<ServerStats>,
    config: ServerConfig,
    reactors: &[Arc<ReactorShared>],
    active_conns: &Arc<AtomicUsize>,
) {
    let max_connections = config.max_connections.max(1);
    let mut next_conn_id = 0u64;
    for incoming in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = incoming else {
            continue;
        };
        ServerStats::bump(&stats.connections_accepted);
        // Admission cap: beyond it the connection cannot be registered, the
        // reactor-era shape of "the reader thread failed to spawn".
        if active_conns.load(Ordering::Relaxed) >= max_connections {
            ServerStats::bump(&stats.register_failures);
            ServerStats::bump(&stats.connections_dropped);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            // A socket that cannot be made nonblocking would wedge a
            // reactor; refuse it the same way.
            ServerStats::bump(&stats.register_failures);
            ServerStats::bump(&stats.connections_dropped);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        active_conns.fetch_add(1, Ordering::Relaxed);
        let shared = &reactors[(conn_id % reactors.len() as u64) as usize];
        locked(&shared.incoming).push(NewConn { stream, conn_id });
        shared.waker.wake();
    }
}
