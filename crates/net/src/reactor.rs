//! The readiness event loop: a fixed pool of reactor threads multiplexing
//! every connection over nonblocking sockets.
//!
//! ## Connection state machine
//!
//! Each accepted socket becomes a [`Conn`] owned by exactly one reactor
//! (round-robin at accept time). The reactor parses length-prefixed requests
//! *incrementally* out of a per-connection reusable read buffer — a request
//! split across ten TCP segments costs ten readable events and zero extra
//! allocations once the buffer has grown to the connection's largest
//! message. Queries are answered on the reactor thread (shard *read* locks
//! only); ingest frames are handed to the pinned ingest worker exactly as
//! before, so the per-source frame-ordering guarantee of the threaded server
//! survives: one reactor parses a connection's bytes in order, and one
//! worker applies its frames in order.
//!
//! ## Backpressure, twice
//!
//! *Inbound*: when a connection's pinned ingest queue is full, the reactor
//! does **not** block (that would stall every other connection it owns).
//! The frame is parked on the connection, read interest is withdrawn, and
//! the reactor retries on a short tick — TCP then pushes back on the
//! producer while everyone else keeps being served
//! ([`ServerStats`] counts each park as a `backpressure_stall`). A paused
//! connection sleeps through a peer's FIN; a hangup or socket error, which
//! the poller reports whatever the interest, takes its fd out of the poller
//! until the pause ends, so a dead peer cannot spin the reactor.
//!
//! *Outbound*: responses go through a bounded per-connection buffer flushed
//! on writability. A client that stops reading either overflows the bound
//! or sits write-blocked past the configured budget — both evict the
//! connection (`evicted_slow`) instead of pinning server memory or a
//! thread.
//!
//! ## Flush and EOF without blocking
//!
//! The flush barrier and the EOF-attribution rule ("a corrupt frame judged
//! after the peer closed is still a drop, not a clean close") both need to
//! wait for the ingest workers. The reactor never blocks: it flags the
//! connection's shared [`ConnProgress`], and the worker that completes the
//! last outstanding frame pushes a completion and wakes the reactor, which
//! then answers `FlushDone` (or finishes the close) and resumes parsing.

use crate::server::ServerConfig;
use crate::stats::ServerStats;
use crate::sys::{self, Event, Interest, Poller, SysFd, WakeReceiver, Waker};
use mbdr_core::wire::query::{encode_positions_into, encode_zone_events_into};
use mbdr_core::{PositionRecord, Request, Response, ServeError, ZoneEventRecord};
use mbdr_locserver::{
    LocationService, PositionReport, QueryScratch, ZoneEvent, ZoneEventKind, ZoneWatcher,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard when the lock is poisoned. Every
/// mutex in this module guards a plain queue or progress counter that stays
/// coherent if its holder panicked mid-update, so poisoning is deliberately
/// not propagated: one panicking worker must not cascade into tearing down
/// every serving thread that shares its inbox.
pub(crate) fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The token the reactor's own waker is registered under; connection tokens
/// are their conn ids, which count up from zero and can never collide.
const WAKER_TOKEN: u64 = u64::MAX;

/// Initial (and minimum-growth) size of a connection's read buffer. Idle
/// connections that never sent a byte hold no buffer at all.
const READ_CHUNK: usize = 4 * 1024;

/// Per-connection cap on bytes read in one wakeup: a blasting producer
/// yields to the reactor's other connections; level-triggered readiness
/// re-delivers the event for the remainder.
const READ_BUDGET: usize = 256 * 1024;

/// How often a reactor re-checks write-blocked connections against the
/// eviction budget (only armed while at least one connection is blocked).
const EVICT_TICK: Duration = Duration::from_millis(25);

/// How soon a reactor retries a parked ingest frame (only armed while at
/// least one connection is stalled on a full ingest queue).
const STALL_RETRY_TICK: Duration = Duration::from_millis(1);

/// Cross-thread mailbox of one reactor: the accept thread posts new
/// connections, ingest workers post completions, and both ring the waker.
pub(crate) struct ReactorShared {
    pub(crate) incoming: Mutex<Vec<NewConn>>,
    pub(crate) completions: Mutex<Vec<Completion>>,
    pub(crate) waker: Waker,
    pub(crate) shutdown: AtomicBool,
}

/// An accepted, already-nonblocking socket on its way to a reactor.
pub(crate) struct NewConn {
    pub(crate) stream: TcpStream,
    pub(crate) conn_id: u64,
}

/// "The ingest side of connection `conn_id` needs attention": its last
/// outstanding frame was applied (flush / deferred close can resolve) or a
/// frame payload failed to decode (the connection must be torn down).
pub(crate) struct Completion {
    pub(crate) conn_id: u64,
}

/// Ingest accounting shared between a connection's reactor and the pinned
/// ingest worker.
#[derive(Default)]
pub(crate) struct Progress {
    /// Frames handed to the worker queue.
    pub(crate) enqueued: u64,
    /// Frames the worker has finished with (applied or failed).
    pub(crate) applied_frames: u64,
    /// Updates those frames applied to registered objects.
    pub(crate) applied_updates: u64,
    /// A frame payload failed to decode; the connection is condemned.
    pub(crate) failed: bool,
    /// The reactor wants a [`Completion`] when the queue drains (a flush
    /// barrier or a deferred EOF attribution is waiting on it).
    pub(crate) wants_notify: bool,
}

/// The shared, mutex-guarded [`Progress`] of one connection.
#[derive(Default)]
pub(crate) struct ConnProgress {
    pub(crate) state: Mutex<Progress>,
}

/// One frame travelling from a reactor to an ingest worker.
pub(crate) struct IngestJob {
    pub(crate) frame_bytes: Vec<u8>,
    pub(crate) reactor: usize,
    pub(crate) conn_id: u64,
    pub(crate) progress: Arc<ConnProgress>,
}

/// Applies queued frames to the service. Per-connection order is preserved
/// because every connection is pinned to exactly one worker queue. Ends when
/// every sender (the reactors) is gone: shutdown.
#[expect(clippy::indexing_slicing, reason = "job.reactor names the reactor that queued it")]
pub(crate) fn ingest_worker(
    rx: &Receiver<IngestJob>,
    service: &LocationService,
    stats: &ServerStats,
    reactors: &[Arc<ReactorShared>],
) {
    for job in rx.iter() {
        let outcome = service.apply_frame_bytes(&job.frame_bytes);
        let mut notify = false;
        {
            let mut p = locked(&job.progress.state);
            p.applied_frames += 1;
            match outcome {
                Ok(applied) => {
                    p.applied_updates += applied as u64;
                    ServerStats::add(&stats.updates_applied, applied as u64);
                    if p.wants_notify && p.applied_frames == p.enqueued {
                        p.wants_notify = false;
                        notify = true;
                    }
                }
                Err(_) => {
                    // A corrupt frame payload: count it and condemn the
                    // connection; the service was never touched. The flag is
                    // set under the progress lock *before* the completion is
                    // posted, so the reactor always attributes the teardown
                    // to a drop, never to a clean close.
                    ServerStats::bump(&stats.frame_decode_errors);
                    p.failed = true;
                    p.wants_notify = false;
                    notify = true;
                }
            }
        }
        if notify {
            let shared = &reactors[job.reactor];
            locked(&shared.completions).push(Completion { conn_id: job.conn_id });
            shared.waker.wake();
        }
    }
}

/// Per-connection reusable query resources: the zone watcher, scratch and
/// record buffers. Everything is cleared and refilled per request, so a
/// connection's steady-state query path allocates nothing — buffers grow to
/// their high-water marks and stay there.
struct ConnState {
    watcher: ZoneWatcher,
    /// Wire zone id per watcher zone index (dense; `ZoneWatcher::add_zone`
    /// hands out consecutive indexes), so mapping a poll event back to the
    /// wire id is an array lookup — no string hashing on the poll path.
    zone_wire_ids: Vec<u32>,
    /// Outgoing response encoding buffer.
    write_buf: Vec<u8>,
    scratch: QueryScratch,
    reports: Vec<PositionReport>,
    records: Vec<PositionRecord>,
    zone_events: Vec<ZoneEvent>,
    event_records: Vec<ZoneEventRecord>,
}

impl ConnState {
    fn new() -> Self {
        ConnState {
            watcher: ZoneWatcher::new(),
            zone_wire_ids: Vec::new(),
            write_buf: Vec::new(),
            scratch: QueryScratch::default(),
            reports: Vec::new(),
            records: Vec::new(),
            zone_events: Vec::new(),
            event_records: Vec::new(),
        }
    }
}

/// The bounded outbound buffer: encoded responses waiting for writability.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    start: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    fn push_message(&mut self, body: &[u8]) {
        self.buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(body);
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
    }
}

/// One connection's full state, owned by its reactor.
struct Conn {
    stream: TcpStream,
    fd: SysFd,
    conn_id: u64,
    /// The readiness interest currently registered with the poller (or to
    /// register on resume, while `unwatched`).
    interest: Interest,
    /// Taken out of the poller during a pause after a hangup or error (see
    /// `on_readable`); `resume_read` registers it again.
    unwatched: bool,
    /// Incremental read buffer: `read_buf[consumed..read_len]` is unparsed.
    read_buf: Vec<u8>,
    read_len: usize,
    consumed: usize,
    /// The peer closed its write half; close attribution may still be
    /// waiting on the ingest verdict of queued frames.
    peer_eof: bool,
    out: OutBuf,
    st: ConnState,
    progress: Arc<ConnProgress>,
    /// Which ingest worker queue this connection is pinned to.
    tx_index: usize,
    /// A flush barrier is waiting for the ingest queue to drain; parsing is
    /// paused so requests keep their on-the-wire order.
    flush_pending: bool,
    /// A frame the full ingest queue refused; parsing is paused and read
    /// interest withdrawn until it lands (inbound backpressure).
    stalled_frame: Option<Vec<u8>>,
    /// When the outbound buffer first failed to drain (slow-client clock).
    write_blocked_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, fd: SysFd, conn_id: u64, tx_index: usize) -> Conn {
        Conn {
            stream,
            fd,
            conn_id,
            interest: Interest::READ,
            unwatched: false,
            read_buf: Vec::new(),
            read_len: 0,
            consumed: 0,
            peer_eof: false,
            out: OutBuf::default(),
            st: ConnState::new(),
            progress: Arc::new(ConnProgress::default()),
            tx_index,
            flush_pending: false,
            stalled_frame: None,
            write_blocked_since: None,
        }
    }

    /// Request parsing is suspended (flush barrier or ingest stall).
    fn paused(&self) -> bool {
        self.flush_pending || self.stalled_frame.is_some()
    }

    /// Moves the unparsed tail to the front of the read buffer.
    fn compact(&mut self) {
        if self.consumed == 0 {
            return;
        }
        if self.consumed == self.read_len {
            self.consumed = 0;
            self.read_len = 0;
            return;
        }
        self.read_buf.copy_within(self.consumed..self.read_len, 0);
        self.read_len -= self.consumed;
        self.consumed = 0;
    }
}

/// How a connection leaves its reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Alive,
    /// Clean close at a message boundary with all frames applied.
    Closed,
    /// Protocol violation, socket failure or condemned ingest.
    Dropped,
    /// Slow-client eviction: outbound bound overflowed or the write-stall
    /// budget expired.
    Evicted,
}

/// Everything a reactor thread owns. Constructed on the binding thread so
/// poller/waker failures surface from `NetServer::bind`, then moved into
/// the thread.
pub(crate) struct Reactor {
    pub(crate) index: usize,
    pub(crate) shared: Arc<ReactorShared>,
    pub(crate) service: Arc<LocationService>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) worker_txs: Vec<SyncSender<IngestJob>>,
    pub(crate) config: ServerConfig,
    pub(crate) active_conns: Arc<AtomicUsize>,
    pub(crate) poller: Poller,
    pub(crate) wake_rx: WakeReceiver,
}

/// Builds a reactor's poller with its waker already registered.
pub(crate) fn new_poller() -> std::io::Result<(Poller, Waker, WakeReceiver)> {
    let (waker, wake_rx) = sys::waker_pair()?;
    let mut poller = Poller::new()?;
    poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READ)?;
    Ok((poller, waker, wake_rx))
}

impl Reactor {
    pub(crate) fn run(self) {
        let mut rt = Runtime {
            index: self.index,
            shared: self.shared,
            service: self.service,
            stats: self.stats,
            worker_txs: self.worker_txs,
            config: self.config,
            active_conns: self.active_conns,
            poller: self.poller,
            wake_rx: self.wake_rx,
            conns: HashMap::new(),
            events: Vec::new(),
            stalled: Vec::new(),
            blocked_count: 0,
        };
        rt.run();
    }
}

struct Runtime {
    index: usize,
    shared: Arc<ReactorShared>,
    service: Arc<LocationService>,
    stats: Arc<ServerStats>,
    worker_txs: Vec<SyncSender<IngestJob>>,
    config: ServerConfig,
    active_conns: Arc<AtomicUsize>,
    poller: Poller,
    wake_rx: WakeReceiver,
    conns: HashMap<u64, Conn>,
    events: Vec<Event>,
    /// Conn ids with a parked ingest frame (may contain stale entries; they
    /// are filtered on retry).
    stalled: Vec<u64>,
    /// Connections currently write-blocked (arms the eviction tick).
    blocked_count: usize,
}

impl Runtime {
    fn run(&mut self) {
        loop {
            let timeout = self.wait_timeout();
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller cannot serve anything: tear down.
                self.teardown_all();
                return;
            }
            let waker_rang = self.dispatch_all(&events);
            events.clear();
            self.events = events;
            if waker_rang {
                self.wake_rx.drain();
            }
            // Serviced every iteration, not only on waker events: a wake
            // can race the flag-then-ring sequence of another thread.
            self.admit_incoming();
            self.service_completions();
            self.retry_stalled();
            self.evict_write_blocked();
            if self.shared.shutdown.load(Ordering::Acquire) {
                // One nonblocking sweep before teardown: events already
                // ready (typically peer FINs racing the shutdown signal)
                // still get their proper close attribution instead of
                // vanishing into the unattributed-shutdown teardown, and
                // count as readiness wakeups like any other batch.
                let mut events = std::mem::take(&mut self.events);
                if self.poller.wait(&mut events, Some(Duration::ZERO)).is_ok() {
                    self.dispatch_all(&events);
                }
                self.service_completions();
                self.teardown_all();
                return;
            }
        }
    }

    /// Dispatches every connection event of one poll batch, adds them to
    /// `readiness_wakeups`, and returns whether the waker rang.
    fn dispatch_all(&mut self, events: &[Event]) -> bool {
        let mut readiness = 0u64;
        let mut waker_rang = false;
        for ev in events {
            if ev.token == WAKER_TOKEN {
                waker_rang = true;
                continue;
            }
            readiness += 1;
            self.dispatch(ev);
        }
        if readiness > 0 {
            ServerStats::add(&self.stats.readiness_wakeups, readiness);
        }
        waker_rang
    }

    fn wait_timeout(&self) -> Option<Duration> {
        if !self.stalled.is_empty() {
            Some(STALL_RETRY_TICK)
        } else if self.blocked_count > 0 {
            Some(EVICT_TICK)
        } else {
            None
        }
    }

    /// Handles one readiness event for one connection.
    fn dispatch(&mut self, ev: &Event) {
        let Some(mut conn) = self.conns.remove(&ev.token) else {
            return; // torn down earlier in this batch
        };
        let mut progress = false;
        let mut fate = Fate::Alive;
        if ev.writable && conn.out.pending() > 0 {
            fate = self.flush_out(&mut conn, &mut progress);
        }
        if fate == Fate::Alive && ev.readable {
            fate = self.on_readable(&mut conn, &mut progress);
        }
        if fate == Fate::Alive && !progress {
            ServerStats::bump(&self.stats.spurious_wakeups);
        }
        self.finish(conn, fate);
    }

    /// Reinserts a surviving connection or finalizes its teardown.
    fn finish(&mut self, conn: Conn, fate: Fate) {
        if fate == Fate::Alive {
            self.conns.insert(conn.conn_id, conn);
        } else {
            self.teardown(conn, fate);
        }
    }

    fn teardown(&mut self, mut conn: Conn, fate: Fate) {
        match fate {
            // `finish` never routes a live connection here; if a future
            // refactor breaks that, account it as a drop (debug builds
            // assert) rather than panicking the reactor thread.
            Fate::Alive | Fate::Dropped => {
                debug_assert!(fate == Fate::Dropped, "teardown of a live connection");
                ServerStats::bump(&self.stats.connections_dropped);
            }
            Fate::Closed => ServerStats::bump(&self.stats.connections_closed),
            Fate::Evicted => {
                ServerStats::bump(&self.stats.evicted_slow);
                ServerStats::bump(&self.stats.connections_dropped);
            }
        }
        if conn.write_blocked_since.take().is_some() {
            self.blocked_count -= 1;
        }
        self.poller.deregister(conn.fd);
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.active_conns.fetch_sub(1, Ordering::Relaxed);
    }

    fn teardown_all(&mut self) {
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.active_conns.fetch_sub(1, Ordering::Relaxed);
        }
        // Shutdown teardowns are not attributed to any per-cause counter:
        // the server is going away, the connections did nothing wrong.
    }

    /// Registers newly accepted connections posted by the accept thread.
    fn admit_incoming(&mut self) {
        let newcomers = {
            let mut inbox = locked(&self.shared.incoming);
            if inbox.is_empty() {
                return;
            }
            std::mem::take(&mut *inbox)
        };
        for nc in newcomers {
            let fd = sys::stream_fd(&nc.stream);
            if self.poller.register(fd, nc.conn_id, Interest::READ).is_err() {
                // The reactor cannot watch this socket: the connection is
                // dead on arrival, counted on its own cause.
                ServerStats::bump(&self.stats.register_failures);
                ServerStats::bump(&self.stats.connections_dropped);
                let _ = nc.stream.shutdown(Shutdown::Both);
                self.active_conns.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let tx_index = (nc.conn_id % self.worker_txs.len() as u64) as usize;
            self.conns.insert(nc.conn_id, Conn::new(nc.stream, fd, nc.conn_id, tx_index));
        }
    }

    /// Resolves flush barriers, deferred EOF attributions and condemned
    /// connections the ingest workers reported.
    fn service_completions(&mut self) {
        let completions = {
            let mut queue = locked(&self.shared.completions);
            if queue.is_empty() {
                return;
            }
            std::mem::take(&mut *queue)
        };
        for c in completions {
            let Some(mut conn) = self.conns.remove(&c.conn_id) else {
                continue; // already gone; frames of dead conns still applied
            };
            let fate = self.on_ingest_progress(&mut conn);
            self.finish(conn, fate);
        }
    }

    fn on_ingest_progress(&mut self, conn: &mut Conn) -> Fate {
        let (failed, drained, frames, updates) = {
            let p = locked(&conn.progress.state);
            (p.failed, p.applied_frames == p.enqueued, p.enqueued, p.applied_updates)
        };
        if failed {
            // The worker counted the decode error; answer best-effort and
            // drop. Queued-but-unapplied frames of this connection still
            // drain through the worker (and are judged individually).
            return self.refuse(conn, ServeError::BadRequest);
        }
        if !drained {
            return Fate::Alive; // stale completion; a newer one will come
        }
        if conn.flush_pending {
            conn.flush_pending = false;
            let Ok(body) = (Response::FlushDone { frames, updates_applied: updates }).encode()
            else {
                return Fate::Dropped;
            };
            let fate = self.queue_response(conn, &body);
            if fate != Fate::Alive {
                return fate;
            }
            let fate = self.resume_read(conn);
            if fate != Fate::Alive {
                return fate;
            }
            // Requests may have been buffered behind the barrier.
            return self.parse_and_handle(conn);
        }
        if conn.peer_eof && conn.read_len == conn.consumed {
            return Fate::Closed;
        }
        Fate::Alive
    }

    /// Retries parked ingest frames against their (hopefully drained)
    /// worker queues.
    fn retry_stalled(&mut self) {
        if self.stalled.is_empty() {
            return;
        }
        let ids = std::mem::take(&mut self.stalled);
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            let Some(bytes) = conn.stalled_frame.take() else {
                self.conns.insert(id, conn);
                continue;
            };
            let mut fate = self.enqueue_frame(&mut conn, bytes, false);
            if fate == Fate::Alive && conn.stalled_frame.is_none() {
                // The park resolved: resume reading and parsing.
                fate = self.resume_read(&mut conn);
                if fate == Fate::Alive {
                    fate = self.parse_and_handle(&mut conn);
                }
            }
            self.finish(conn, fate);
        }
    }

    /// Evicts connections write-blocked past the configured budget.
    fn evict_write_blocked(&mut self) {
        if self.blocked_count == 0 {
            return;
        }
        let now = Instant::now();
        let budget = self.config.write_stall_budget;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.write_blocked_since.is_some_and(|since| now.duration_since(since) > budget)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            if let Some(conn) = self.conns.remove(&id) {
                self.teardown(conn, Fate::Evicted);
            }
        }
    }

    /// Drains readable bytes (bounded per wakeup) and parses what arrived.
    #[expect(clippy::indexing_slicing, reason = "read_len <= read_buf.len() always")]
    fn on_readable(&mut self, conn: &mut Conn, progress: &mut bool) -> Fate {
        if conn.paused() {
            // Read interest is withdrawn while paused, so this is a hangup
            // or error, which the poller reports whatever the interest and,
            // level-triggered, on every wait. Stop watching the fd until
            // the pause ends: the resume registers it again and the read
            // path then observes the EOF or error.
            if !conn.unwatched {
                self.poller.deregister(conn.fd);
                conn.unwatched = true;
            }
            return Fate::Alive;
        }
        let mut total = 0usize;
        loop {
            if conn.read_len == conn.read_buf.len() {
                let grown = (conn.read_buf.len() * 2).max(READ_CHUNK);
                conn.read_buf.resize(grown, 0);
            }
            match conn.stream.read(&mut conn.read_buf[conn.read_len..]) {
                Ok(0) => {
                    conn.peer_eof = true;
                    *progress = true;
                    break;
                }
                Ok(n) => {
                    conn.read_len += n;
                    total += n;
                    *progress = true;
                    if total >= READ_BUDGET {
                        break; // fairness; level-triggering re-delivers
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Dropped,
            }
        }
        self.parse_and_handle(conn)
    }

    /// The request parser: consumes complete length-prefixed messages from
    /// the read buffer and handles each, stopping at a pause (flush barrier
    /// / ingest stall) or an incomplete message.
    #[expect(clippy::indexing_slicing, reason = "reads stay in read_buf[consumed..read_len]")]
    fn parse_and_handle(&mut self, conn: &mut Conn) -> Fate {
        loop {
            if conn.paused() {
                break;
            }
            let avail = conn.read_len - conn.consumed;
            if avail < 4 {
                break;
            }
            let at = conn.consumed;
            let len = u32::from_be_bytes([
                conn.read_buf[at],
                conn.read_buf[at + 1],
                conn.read_buf[at + 2],
                conn.read_buf[at + 3],
            ]) as usize;
            if len == 0 {
                // No room for the kind byte: same typed refusal as the
                // blocking transport's zero-length case.
                ServerStats::bump(&self.stats.request_decode_errors);
                return self.refuse(conn, ServeError::BadRequest);
            }
            if len > self.config.max_message_bytes as usize {
                ServerStats::bump(&self.stats.oversized_messages);
                return self.refuse(conn, ServeError::Oversized);
            }
            if avail < 4 + len {
                // Incomplete: make room for the whole message so the next
                // readable event can finish it without reallocating twice.
                conn.compact();
                if conn.read_buf.len() < 4 + len {
                    conn.read_buf.resize(4 + len, 0);
                }
                break;
            }
            ServerStats::add(&self.stats.bytes_received, (4 + len) as u64);
            let body = &conn.read_buf[at + 4..at + 4 + len];
            let request = match Request::decode(body) {
                Ok(request) => request,
                Err(_) => {
                    ServerStats::bump(&self.stats.request_decode_errors);
                    return self.refuse(conn, ServeError::BadRequest);
                }
            };
            conn.consumed += 4 + len;
            let fate = self.handle_request(conn, request);
            if fate != Fate::Alive {
                return fate;
            }
        }
        conn.compact();
        self.end_of_input(conn)
    }

    /// EOF attribution once parsing has consumed everything it can.
    fn end_of_input(&mut self, conn: &mut Conn) -> Fate {
        if !conn.peer_eof || conn.paused() {
            return Fate::Alive;
        }
        if conn.read_len > conn.consumed {
            // EOF in the middle of a message: a truncation, not a close.
            return Fate::Dropped;
        }
        let mut p = locked(&conn.progress.state);
        if p.failed {
            return Fate::Dropped;
        }
        if p.applied_frames == p.enqueued {
            return Fate::Closed;
        }
        // Frames are still in flight: the close/drop verdict belongs to the
        // worker that judges the last of them (see module docs).
        p.wants_notify = true;
        Fate::Alive
    }

    #[expect(clippy::indexing_slicing, reason = "one zone_wire_ids push per watcher zone")]
    fn handle_request(&mut self, conn: &mut Conn, request: Request) -> Fate {
        match request {
            Request::Ingest(frame_bytes) => {
                ServerStats::bump(&self.stats.frames_received);
                self.enqueue_frame(conn, frame_bytes, true)
            }
            Request::Rect { area, t } => {
                self.service.objects_in_rect_into(
                    &area,
                    t,
                    &mut conn.st.scratch,
                    &mut conn.st.reports,
                );
                to_records_into(&conn.st.reports, &mut conn.st.records);
                ServerStats::bump(&self.stats.queries_answered);
                self.respond_positions(conn)
            }
            Request::Nearest { from, t, k } => {
                self.service.nearest_objects_into(
                    &from,
                    t,
                    k as usize,
                    &mut conn.st.scratch,
                    &mut conn.st.reports,
                );
                to_records_into(&conn.st.reports, &mut conn.st.records);
                ServerStats::bump(&self.stats.queries_answered);
                self.respond_positions(conn)
            }
            Request::ZoneSubscribe { zone, area } => {
                // Fire-and-forget: requests on one connection are parsed in
                // order, so a subsequent poll is guaranteed to see the zone.
                let index = conn.st.watcher.add_zone(zone.to_string(), area);
                debug_assert_eq!(index, conn.st.zone_wire_ids.len());
                conn.st.zone_wire_ids.push(zone);
                Fate::Alive
            }
            Request::ZonePoll { t } => {
                conn.st.watcher.evaluate_into(&self.service, t, &mut conn.st.zone_events);
                conn.st.event_records.clear();
                let wire_ids = &conn.st.zone_wire_ids;
                conn.st.event_records.extend(conn.st.zone_events.iter().map(|e| ZoneEventRecord {
                    zone: wire_ids[e.zone_index],
                    object: e.object.0,
                    entered: matches!(e.kind, ZoneEventKind::Entered),
                    t,
                }));
                ServerStats::add(
                    &self.stats.zone_events_emitted,
                    conn.st.event_records.len() as u64,
                );
                ServerStats::bump(&self.stats.queries_answered);
                conn.st.write_buf.clear();
                let mut body = std::mem::take(&mut conn.st.write_buf);
                let encoded = encode_zone_events_into(&conn.st.event_records, &mut body);
                let fate =
                    if encoded.is_ok() { self.queue_response(conn, &body) } else { Fate::Dropped };
                conn.st.write_buf = body;
                fate
            }
            Request::Health => {
                let status = self.service.health_status();
                ServerStats::bump(&self.stats.queries_answered);
                conn.st.write_buf.clear();
                let mut body = std::mem::take(&mut conn.st.write_buf);
                let encoded = Response::Health(status).encode_into(&mut body);
                let fate =
                    if encoded.is_ok() { self.queue_response(conn, &body) } else { Fate::Dropped };
                conn.st.write_buf = body;
                fate
            }
            Request::Flush => self.handle_flush(conn),
        }
    }

    /// Encodes and queues the positions answer held in `conn.st.records`.
    fn respond_positions(&mut self, conn: &mut Conn) -> Fate {
        conn.st.write_buf.clear();
        let mut body = std::mem::take(&mut conn.st.write_buf);
        let encoded = encode_positions_into(&conn.st.records, &mut body);
        let fate = if encoded.is_ok() { self.queue_response(conn, &body) } else { Fate::Dropped };
        conn.st.write_buf = body;
        fate
    }

    fn handle_flush(&mut self, conn: &mut Conn) -> Fate {
        enum Verdict {
            Now(u64, u64),
            Wait,
            Failed,
        }
        let verdict = {
            let mut p = locked(&conn.progress.state);
            if p.failed {
                Verdict::Failed
            } else if p.applied_frames == p.enqueued {
                Verdict::Now(p.enqueued, p.applied_updates)
            } else {
                p.wants_notify = true;
                Verdict::Wait
            }
        };
        match verdict {
            Verdict::Failed => self.refuse(conn, ServeError::BadRequest),
            Verdict::Now(frames, updates_applied) => {
                let Ok(body) = (Response::FlushDone { frames, updates_applied }).encode() else {
                    return Fate::Dropped;
                };
                self.queue_response(conn, &body)
            }
            Verdict::Wait => {
                conn.flush_pending = true;
                self.pause_read(conn);
                Fate::Alive
            }
        }
    }

    /// Hands one ingest frame to the connection's pinned worker queue, or
    /// parks it and withdraws read interest when the queue is full (`fresh`
    /// distinguishes a first park from a retry for the stall counter).
    #[expect(clippy::indexing_slicing, reason = "tx_index is modulo worker_txs.len()")]
    fn enqueue_frame(&mut self, conn: &mut Conn, frame_bytes: Vec<u8>, fresh: bool) -> Fate {
        {
            let mut p = locked(&conn.progress.state);
            p.enqueued += 1;
        }
        let job = IngestJob {
            frame_bytes,
            reactor: self.index,
            conn_id: conn.conn_id,
            progress: Arc::clone(&conn.progress),
        };
        match self.worker_txs[conn.tx_index].try_send(job) {
            Ok(()) => Fate::Alive,
            Err(TrySendError::Full(job)) => {
                {
                    let mut p = locked(&conn.progress.state);
                    p.enqueued -= 1;
                }
                conn.stalled_frame = Some(job.frame_bytes);
                self.stalled.push(conn.conn_id);
                if fresh {
                    ServerStats::bump(&self.stats.backpressure_stalls);
                }
                self.pause_read(conn);
                Fate::Alive
            }
            Err(TrySendError::Disconnected(_)) => Fate::Dropped,
        }
    }

    /// Appends one length-prefixed response to the bounded outbound buffer
    /// and attempts an immediate nonblocking write. Overflowing the bound
    /// is a slow-client eviction.
    fn queue_response(&mut self, conn: &mut Conn, body: &[u8]) -> Fate {
        // The bound judges the *backlog* the peer has failed to drain, not
        // the size of the response about to be queued: a prompt reader may
        // receive a response larger than the bound (it streams out in
        // write-readiness chunks), while a peer that left this much unread
        // is evicted before the next response makes it worse.
        if conn.out.pending() > self.config.max_outbound_bytes {
            return Fate::Evicted;
        }
        conn.out.push_message(body);
        let mut progress = false;
        self.flush_out(conn, &mut progress)
    }

    /// Best-effort typed error answer, then a drop. The write is a single
    /// nonblocking attempt: a peer that cannot take four bytes plus an
    /// error code was not going to read a retry either.
    fn refuse(&mut self, conn: &mut Conn, code: ServeError) -> Fate {
        if let Ok(body) = Response::Error(code).encode() {
            conn.out.push_message(&body);
            let mut progress = false;
            let _ = self.flush_out(conn, &mut progress);
        }
        Fate::Dropped
    }

    /// Writes as much pending output as the socket takes, then updates
    /// write interest and the slow-client clock.
    #[expect(clippy::indexing_slicing, reason = "OutBuf keeps start <= buf.len()")]
    fn flush_out(&mut self, conn: &mut Conn, progress: &mut bool) -> Fate {
        while conn.out.pending() > 0 {
            match conn.stream.write(&conn.out.buf[conn.out.start..]) {
                Ok(0) => return Fate::Dropped,
                Ok(n) => {
                    ServerStats::add(&self.stats.bytes_sent, n as u64);
                    conn.out.consume(n);
                    *progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Dropped,
            }
        }
        if conn.out.pending() > 0 {
            if conn.write_blocked_since.is_none() {
                conn.write_blocked_since = Some(Instant::now());
                self.blocked_count += 1;
            }
            self.set_interest(conn, Interest { readable: conn.interest.readable, writable: true });
        } else {
            if conn.write_blocked_since.take().is_some() {
                self.blocked_count -= 1;
            }
            if conn.interest.writable {
                self.set_interest(
                    conn,
                    Interest { readable: conn.interest.readable, writable: false },
                );
            }
        }
        Fate::Alive
    }

    fn pause_read(&mut self, conn: &mut Conn) {
        self.set_interest(conn, Interest { readable: false, writable: conn.interest.writable });
    }

    /// Re-arms reading after a pause. A connection taken out of the poller
    /// during the pause is registered again; if that fails nothing would
    /// ever wake it, so it is dropped.
    fn resume_read(&mut self, conn: &mut Conn) -> Fate {
        let want = Interest { readable: true, writable: conn.interest.writable };
        if conn.unwatched {
            if self.poller.register(conn.fd, conn.conn_id, want).is_err() {
                return Fate::Dropped;
            }
            conn.unwatched = false;
            conn.interest = want;
        }
        self.set_interest(conn, want);
        Fate::Alive
    }

    fn set_interest(&mut self, conn: &mut Conn, want: Interest) {
        if conn.unwatched {
            conn.interest = want; // registered as such on resume
            return;
        }
        if want == conn.interest {
            return;
        }
        if self.poller.reregister(conn.fd, conn.conn_id, want).is_ok() {
            conn.interest = want;
        }
        // On failure the old interest stays armed: worst case is extra
        // wakeups, which the spurious counter makes visible.
    }
}

/// Converts service reports to wire records in a reusable buffer.
fn to_records_into(reports: &[PositionReport], records: &mut Vec<PositionRecord>) {
    records.clear();
    records.extend(reports.iter().map(|r| PositionRecord {
        object: r.object.0,
        position: r.position,
        information_age: r.information_age,
    }));
}
