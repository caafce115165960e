//! The blocking client of the serving layer.
//!
//! One [`NetClient`] wraps one TCP connection. Ingest ([`NetClient::send_frame`])
//! is fire-and-forget; [`NetClient::flush`] is the write barrier that makes
//! previously sent frames visible to queries; the query methods are plain
//! request–response calls. A client is not thread-safe by design — open one
//! connection per producer or query thread, exactly like the workloads do.

use crate::error::NetError;
use crate::retry::RetryPolicy;
use crate::transport::{read_message_into, write_message, DEFAULT_MAX_MESSAGE_BYTES};
use mbdr_core::wire::query::decode_positions_into;
use mbdr_core::{Frame, HealthStatus, PositionRecord, Request, Response, ZoneEventRecord};
use mbdr_geo::{Aabb, Point};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Totals a flush barrier reports for its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushSummary {
    /// Ingest frames the server received on this connection so far.
    pub frames: u64,
    /// Updates those frames applied to registered objects.
    pub updates_applied: u64,
}

/// Timeout and size configuration of a [`NetClient`].
///
/// The defaults block forever, matching plain [`NetClient::connect`];
/// workload drivers talking to a server that might wedge should set both
/// timeouts so a dead peer surfaces as an error instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection (`None` blocks).
    pub connect_timeout: Option<Duration>,
    /// Bound on each response read (`None` blocks). A timeout surfaces as
    /// [`NetError::Io`] with a `WouldBlock`/`TimedOut` kind; the connection
    /// is unusable afterwards (a late response would desynchronize the
    /// stream) — call [`NetClient::reconnect_with_fresh_sequence`].
    pub read_timeout: Option<Duration>,
    /// Per-message size cap in both directions (0 means the 1 MiB default):
    /// outgoing messages above it fail fast with [`NetError::Oversized`]
    /// (the server would refuse them and drop the connection mid-stream),
    /// and a response above it is rejected instead of read. A rect answer
    /// carries 32 bytes per object, so clients querying fleets past ~32 k
    /// objects in one rectangle need a larger cap on both ends
    /// ([`crate::ServerConfig::max_message_bytes`] server-side).
    pub max_message_bytes: u32,
}

/// A blocking serving-layer connection.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    config: ClientConfig,
    max_message_bytes: u32,
    bytes_sent: u64,
    bytes_received: u64,
    /// Highest update sequence observed in frames sent on this client
    /// (across reconnects), so a reconnect can resume above everything the
    /// old connection may have applied.
    max_sequence_sent: u64,
    /// Reusable outgoing-message encode buffer (zero allocations per frame
    /// in steady state).
    send_buf: Vec<u8>,
    /// Reusable incoming-message body buffer.
    recv_buf: Vec<u8>,
}

impl NetClient {
    /// Connects to a serving layer with default (blocking) configuration.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a serving layer with explicit timeout configuration.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> std::io::Result<NetClient> {
        let mut last_err = None;
        let mut connected = None;
        for candidate in addr.to_socket_addrs()? {
            match dial(candidate, config) {
                Ok(stream) => {
                    connected = Some((stream, candidate));
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some((writer, peer)) = connected else {
            return Err(last_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses to connect to")
            }));
        };
        let reader = BufReader::new(writer.try_clone()?);
        let max_message_bytes = if config.max_message_bytes == 0 {
            DEFAULT_MAX_MESSAGE_BYTES
        } else {
            config.max_message_bytes
        };
        Ok(NetClient {
            reader,
            writer,
            peer,
            config,
            max_message_bytes,
            bytes_sent: 0,
            bytes_received: 0,
            max_sequence_sent: 0,
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
        })
    }

    /// Like [`NetClient::connect_with`], but retried under `policy`'s
    /// jittered exponential backoff until the connection is established or
    /// the policy's deadline expires (the last attempt's error is returned).
    /// Use this when the server may still be mid-recovery at client start.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> std::io::Result<NetClient> {
        policy.run(|| Self::connect_with(&addr, config))
    }

    /// Replaces a wedged or dead connection with a fresh one to the same
    /// server (same [`ClientConfig`]) and returns the sequence number the
    /// caller should stamp on its next update: strictly above every
    /// sequence sent on the old connection, so updates in flight when it
    /// wedged can never shadow the resumed stream under the tracker's
    /// staleness rule. Counters and reusable buffers survive the swap.
    pub fn reconnect_with_fresh_sequence(&mut self) -> std::io::Result<u64> {
        let writer = dial(self.peer, self.config)?;
        let reader = BufReader::new(writer.try_clone()?);
        self.writer = writer;
        self.reader = reader;
        self.recv_buf.clear();
        Ok(self.max_sequence_sent + 1)
    }

    /// [`NetClient::reconnect_with_fresh_sequence`] retried under `policy`
    /// (see [`NetClient::connect_with_retry`]): rides out a server restart
    /// or recovery window instead of failing on the first refused dial.
    pub fn reconnect_with_retry(&mut self, policy: RetryPolicy) -> std::io::Result<u64> {
        policy.run(|| self.reconnect_with_fresh_sequence())
    }

    /// Bytes this client has put on the wire (length prefixes included).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes of complete responses this client has read off the wire (length
    /// prefixes included) — what the server's `bytes_sent` counter reaches
    /// once its write accounting for those responses has run.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Sends one update frame. Fire-and-forget: the server queues the frame
    /// for ingest and answers nothing — call [`NetClient::flush`] for the
    /// write barrier.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), NetError> {
        for update in &frame.updates {
            self.max_sequence_sent = self.max_sequence_sent.max(update.sequence);
        }
        // Single-pass encode into the connection's reusable buffer: kind
        // byte + frame, no allocation per frame once the buffer is warm.
        let mut body = std::mem::take(&mut self.send_buf);
        body.clear();
        let encoded = Request::encode_ingest_into(frame, &mut body);
        let result = match encoded {
            Ok(()) => self.send_body(&body),
            Err(e) => Err(e.into()),
        };
        self.send_buf = body;
        result
    }

    /// The write barrier: returns once every frame previously sent on this
    /// connection has been applied to the service.
    pub fn flush(&mut self) -> Result<FlushSummary, NetError> {
        self.send(&Request::Flush)?;
        match self.receive()? {
            Response::FlushDone { frames, updates_applied } => {
                Ok(FlushSummary { frames, updates_applied })
            }
            Response::Error(code) => Err(NetError::Server(code)),
            _ => Err(NetError::UnexpectedResponse("flush-done")),
        }
    }

    /// "All objects inside `area` at time `t`" over the wire.
    pub fn objects_in_rect(
        &mut self,
        area: &Aabb,
        t: f64,
    ) -> Result<Vec<PositionRecord>, NetError> {
        self.positions(&Request::Rect { area: *area, t })
    }

    /// The reusable-buffer form of [`NetClient::objects_in_rect`]: decodes
    /// the answer into `out` (cleared first), so a query loop that holds one
    /// record buffer allocates nothing per response in steady state.
    pub fn objects_in_rect_into(
        &mut self,
        area: &Aabb,
        t: f64,
        out: &mut Vec<PositionRecord>,
    ) -> Result<(), NetError> {
        self.positions_into(&Request::Rect { area: *area, t }, out)
    }

    /// "The `k` objects nearest to `from` at time `t`" over the wire.
    pub fn nearest_objects(
        &mut self,
        from: &Point,
        t: f64,
        k: u16,
    ) -> Result<Vec<PositionRecord>, NetError> {
        self.positions(&Request::Nearest { from: *from, t, k })
    }

    /// The reusable-buffer form of [`NetClient::nearest_objects`] (see
    /// [`NetClient::objects_in_rect_into`]).
    pub fn nearest_objects_into(
        &mut self,
        from: &Point,
        t: f64,
        k: u16,
        out: &mut Vec<PositionRecord>,
    ) -> Result<(), NetError> {
        self.positions_into(&Request::Nearest { from: *from, t, k }, out)
    }

    /// Registers a zone on this connection's server-side watcher.
    /// Fire-and-forget: a later [`NetClient::poll_zones`] on this connection
    /// is guaranteed to see it (requests are processed in order).
    pub fn subscribe_zone(&mut self, zone: u32, area: &Aabb) -> Result<(), NetError> {
        self.send(&Request::ZoneSubscribe { zone, area: *area })
    }

    /// Evaluates this connection's zones at time `t`, returning the
    /// enter/leave transitions since the previous poll.
    pub fn poll_zones(&mut self, t: f64) -> Result<Vec<ZoneEventRecord>, NetError> {
        self.send(&Request::ZonePoll { t })?;
        match self.receive()? {
            Response::ZoneEvents(events) => Ok(events),
            Response::Error(code) => Err(NetError::Server(code)),
            _ => Err(NetError::UnexpectedResponse("zone events")),
        }
    }

    /// The server's durability health summary ([`mbdr_core::HealthStatus`]):
    /// Durable / Degraded / Recovered state, the count of frames applied
    /// without journaling while degraded, and the journal's recovery
    /// counters. Answered on the reactor like any query.
    pub fn health(&mut self) -> Result<HealthStatus, NetError> {
        self.send(&Request::Health)?;
        match self.receive()? {
            Response::Health(status) => Ok(status),
            Response::Error(code) => Err(NetError::Server(code)),
            _ => Err(NetError::UnexpectedResponse("health")),
        }
    }

    fn positions(&mut self, request: &Request) -> Result<Vec<PositionRecord>, NetError> {
        let mut records = Vec::new();
        self.positions_into(request, &mut records)?;
        Ok(records)
    }

    fn positions_into(
        &mut self,
        request: &Request,
        out: &mut Vec<PositionRecord>,
    ) -> Result<(), NetError> {
        self.send(request)?;
        self.read_response()?;
        match decode_positions_into(&self.recv_buf, out) {
            Ok(()) => Ok(()),
            // Not a positions response: fall back to the full decoder so
            // server errors surface as such, not as decode failures.
            Err(_) => match Response::decode(&self.recv_buf)? {
                Response::Positions(records) => {
                    *out = records;
                    Ok(())
                }
                Response::Error(code) => Err(NetError::Server(code)),
                _ => Err(NetError::UnexpectedResponse("positions")),
            },
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), NetError> {
        let mut body = std::mem::take(&mut self.send_buf);
        body.clear();
        request.encode_into(&mut body);
        let result = self.send_body(&body);
        self.send_buf = body;
        result
    }

    fn send_body(&mut self, body: &[u8]) -> Result<(), NetError> {
        // Fail fast on a message the peer would refuse anyway: sending it
        // would get the connection dropped mid-stream, losing everything
        // buffered behind it, with the error surfacing only on a later read.
        if body.len() as u64 > u64::from(self.max_message_bytes) {
            return Err(NetError::Oversized {
                len: body.len().min(u32::MAX as usize) as u32,
                max: self.max_message_bytes,
            });
        }
        self.bytes_sent += write_message(&mut self.writer, body)?;
        Ok(())
    }

    /// Reads one response body into `recv_buf`.
    fn read_response(&mut self) -> Result<(), NetError> {
        if !read_message_into(&mut self.reader, self.max_message_bytes, &mut self.recv_buf)? {
            return Err(NetError::Closed);
        }
        self.bytes_received += 4 + self.recv_buf.len() as u64;
        Ok(())
    }

    fn receive(&mut self) -> Result<Response, NetError> {
        self.read_response()?;
        Ok(Response::decode(&self.recv_buf)?)
    }
}

/// Establishes one configured TCP connection.
fn dial(addr: SocketAddr, config: ClientConfig) -> std::io::Result<TcpStream> {
    let stream = match config.connect_timeout {
        Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
        None => TcpStream::connect(addr)?,
    };
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(config.read_timeout)?;
    Ok(stream)
}
