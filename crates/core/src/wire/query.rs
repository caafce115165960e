//! The serving-layer message kinds: queries a client sends to a location
//! server and the responses it gets back, encoded with the same codec
//! discipline as the update [`Frame`] — big-endian fields, a
//! one-byte kind, typed [`DecodeError`]s, and no panics on truncation or
//! garbage.
//!
//! These types are pure codec: the TCP framing (length prefixes, size caps)
//! and the dispatch against a live `LocationService` live in `mbdr-net`,
//! which keeps this crate free of any I/O.
//!
//! ## Request layout (one byte kind, then the payload)
//!
//! | kind | name | payload |
//! |---|---|---|
//! | `0x08` | ingest | an encoded [`Frame`] (validated at apply time) |
//! | `0x02` | rect query | `min.x min.y max.x max.y t` (5 × `f64`) |
//! | `0x03` | nearest query | `from.x from.y t` (3 × `f64`) + `k` (`u16`) |
//! | `0x04` | zone subscribe | `zone` (`u32`) + `min.x min.y max.x max.y` (4 × `f64`) |
//! | `0x05` | zone poll | `t` (`f64`) |
//! | `0x06` | flush | — |
//! | `0x07` | health | — |
//!
//! `0x01` was the ingest kind of the version-1 frame layout and is no kind
//! now: a client that still sends it is refused as a bad request, so its
//! frames are never parsed in a layout they were not written in.
//!
//! ## Response layout
//!
//! | kind | name | payload |
//! |---|---|---|
//! | `0x81` | positions | count (`u32`), then per record `object` (`u64`) + `x y age` (3 × `f64`) |
//! | `0x82` | zone events | count (`u32`), then per event `zone` (`u32`) + `object` (`u64`) + entered (`u8`) + `t` (`f64`) |
//! | `0x83` | flush done | `frames` (`u64`) + `updates_applied` (`u64`) |
//! | `0x84` | error | code (`u8`, see [`ServeError`]) |
//! | `0x85` | health | state (`u8`, see [`DurabilityState`]) + `degraded_frames` + `recovered_frames` + `truncated_bytes` + `append_errors` (4 × `u64`) |
//!
//! Float fields must be finite on the wire: a NaN query point would poison
//! the server's distance ordering, so decoding rejects non-finite values with
//! [`DecodeError::NonFinite`].

use super::{DecodeError, EncodeError, Frame, Reader};
use mbdr_geo::{Aabb, Point};

const REQ_RECT: u8 = 0x02;
const REQ_NEAREST: u8 = 0x03;
const REQ_ZONE_SUBSCRIBE: u8 = 0x04;
const REQ_ZONE_POLL: u8 = 0x05;
const REQ_FLUSH: u8 = 0x06;
const REQ_HEALTH: u8 = 0x07;
const REQ_INGEST: u8 = 0x08;

const RESP_POSITIONS: u8 = 0x81;
const RESP_ZONE_EVENTS: u8 = 0x82;
const RESP_FLUSH_DONE: u8 = 0x83;
const RESP_ERROR: u8 = 0x84;
const RESP_HEALTH: u8 = 0x85;

wire_kinds! {
    /// The kind byte a [`Request`] starts with.
    pub enum RequestKind {
        /// [`Request::Ingest`].
        Ingest = REQ_INGEST,
        /// [`Request::Rect`].
        Rect = REQ_RECT,
        /// [`Request::Nearest`].
        Nearest = REQ_NEAREST,
        /// [`Request::ZoneSubscribe`].
        ZoneSubscribe = REQ_ZONE_SUBSCRIBE,
        /// [`Request::ZonePoll`].
        ZonePoll = REQ_ZONE_POLL,
        /// [`Request::Flush`].
        Flush = REQ_FLUSH,
        /// [`Request::Health`].
        Health = REQ_HEALTH,
    }
}

wire_kinds! {
    /// The kind byte a [`Response`] starts with.
    pub enum ResponseKind {
        /// [`Response::Positions`].
        Positions = RESP_POSITIONS,
        /// [`Response::ZoneEvents`].
        ZoneEvents = RESP_ZONE_EVENTS,
        /// [`Response::FlushDone`].
        FlushDone = RESP_FLUSH_DONE,
        /// [`Response::Error`].
        Error = RESP_ERROR,
        /// [`Response::Health`].
        Health = RESP_HEALTH,
    }
}

/// Bytes of one encoded position record (`object` + `x` + `y` + `age`).
const POSITION_RECORD_LEN: usize = 32;
/// Bytes of one encoded zone event (`zone` + `object` + flag + `t`).
const ZONE_EVENT_LEN: usize = 21;

/// One message a client sends to the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An encoded update [`Frame`], carried as raw bytes: the
    /// serving layer forwards them to the ingest queue unparsed and the
    /// apply path (`LocationService::apply_frame_bytes`) validates them, so
    /// connection readers never decode update payloads twice.
    Ingest(Vec<u8>),
    /// "All objects inside `area` at time `t`."
    Rect {
        /// The query rectangle.
        area: Aabb,
        /// Query time, seconds.
        t: f64,
    },
    /// "The `k` objects nearest to `from` at time `t`."
    Nearest {
        /// The query point.
        from: Point,
        /// Query time, seconds.
        t: f64,
        /// How many neighbours to return.
        k: u16,
    },
    /// Registers a zone on this connection's watcher; later zone polls
    /// report enter/leave transitions for it.
    ZoneSubscribe {
        /// Caller-chosen zone identifier, echoed in events.
        zone: u32,
        /// The watched rectangle.
        area: Aabb,
    },
    /// Evaluates this connection's zones at time `t`.
    ZonePoll {
        /// Evaluation time, seconds.
        t: f64,
    },
    /// Asks the server to answer once every ingest frame previously sent on
    /// this connection has been applied (the write barrier).
    Flush,
    /// Asks the server for its durability health: the current
    /// [`DurabilityState`] plus the counters a client needs to judge whether
    /// its acknowledged frames were journaled.
    Health,
}

impl Request {
    /// Encodes an ingest request for `frame` in a single pass (kind byte +
    /// frame, one allocation) — the per-frame hot path of a producer client,
    /// where building a [`Request::Ingest`] and then calling
    /// [`Request::encode`] would copy the whole payload twice.
    pub fn encode_ingest(frame: &Frame) -> Result<Vec<u8>, EncodeError> {
        let mut buf = Vec::with_capacity(1 + frame.encoded_len());
        Self::encode_ingest_into(frame, &mut buf)?;
        Ok(buf)
    }

    /// Appends an encoded ingest request for `frame` to `buf` — the
    /// allocation-free variant of [`Request::encode_ingest`]: a producer that
    /// clears and reuses one send buffer per connection allocates nothing per
    /// frame in steady state. On error the buffer may hold a partial
    /// encoding; discard (clear) it.
    pub fn encode_ingest_into(frame: &Frame, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
        buf.reserve(1 + frame.encoded_len());
        buf.push(REQ_INGEST);
        frame.encode_into(buf)
    }

    /// Encodes the request (kind byte + payload; see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(48);
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the encoded request to `buf` — the reusable-buffer variant of
    /// [`Request::encode`] for callers that send many requests over one
    /// connection.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ingest(frame_bytes) => {
                buf.reserve(frame_bytes.len());
                buf.push(REQ_INGEST);
                buf.extend_from_slice(frame_bytes);
            }
            Request::Rect { area, t } => {
                buf.push(REQ_RECT);
                push_aabb(buf, area);
                buf.extend_from_slice(&t.to_be_bytes());
            }
            Request::Nearest { from, t, k } => {
                buf.push(REQ_NEAREST);
                buf.extend_from_slice(&from.x.to_be_bytes());
                buf.extend_from_slice(&from.y.to_be_bytes());
                buf.extend_from_slice(&t.to_be_bytes());
                buf.extend_from_slice(&k.to_be_bytes());
            }
            Request::ZoneSubscribe { zone, area } => {
                buf.push(REQ_ZONE_SUBSCRIBE);
                buf.extend_from_slice(&zone.to_be_bytes());
                push_aabb(buf, area);
            }
            Request::ZonePoll { t } => {
                buf.push(REQ_ZONE_POLL);
                buf.extend_from_slice(&t.to_be_bytes());
            }
            Request::Flush => buf.push(REQ_FLUSH),
            Request::Health => buf.push(REQ_HEALTH),
        }
    }

    /// Decodes a request from exactly `bytes`. Ingest frame payloads are
    /// *not* parsed here (the apply path validates them); everything else is
    /// fully validated, including finiteness of every float — so a nearest
    /// request that reaches the location service never carries a NaN or
    /// infinite query point (the service would answer one with an empty
    /// list).
    pub fn decode(bytes: &[u8]) -> Result<Request, DecodeError> {
        let mut reader = Reader::new(bytes);
        let request = match RequestKind::try_from(reader.u8()?)? {
            RequestKind::Ingest => {
                return Ok(Request::Ingest(bytes.get(1..).unwrap_or_default().to_vec()))
            }
            RequestKind::Rect => {
                let area = read_aabb(&mut reader)?;
                let t = finite(reader.f64()?)?;
                Request::Rect { area, t }
            }
            RequestKind::Nearest => {
                let x = finite(reader.f64()?)?;
                let y = finite(reader.f64()?)?;
                let t = finite(reader.f64()?)?;
                let k = reader.u16()?;
                Request::Nearest { from: Point::new(x, y), t, k }
            }
            RequestKind::ZoneSubscribe => {
                let zone = reader.u32()?;
                let area = read_aabb(&mut reader)?;
                Request::ZoneSubscribe { zone, area }
            }
            RequestKind::ZonePoll => Request::ZonePoll { t: finite(reader.f64()?)? },
            RequestKind::Flush => Request::Flush,
            RequestKind::Health => Request::Health,
        };
        if reader.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(reader.remaining()));
        }
        Ok(request)
    }
}

/// One position answer as it travels on the wire (the serving layer's
/// counterpart of the location service's `PositionReport`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionRecord {
    /// The object the answer is about.
    pub object: u64,
    /// Predicted position at the query time.
    pub position: Point,
    /// Age of the newest update the prediction is based on, seconds.
    pub information_age: f64,
}

/// One zone transition as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEventRecord {
    /// The zone id the client registered.
    pub zone: u32,
    /// The object that crossed the boundary.
    pub object: u64,
    /// `true` for enter, `false` for leave.
    pub entered: bool,
    /// The evaluation time the transition was observed at, seconds.
    pub t: f64,
}

/// Error codes the serving layer reports before dropping a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The request (or an ingested frame) failed to decode.
    BadRequest,
    /// A message's length prefix exceeded the server's size cap.
    Oversized,
}

impl ServeError {
    fn to_wire(self) -> u8 {
        match self {
            ServeError::BadRequest => 1,
            ServeError::Oversized => 2,
        }
    }

    fn from_wire(byte: u8) -> Result<Self, DecodeError> {
        Ok(match byte {
            1 => ServeError::BadRequest,
            2 => ServeError::Oversized,
            other => return Err(DecodeError::InvalidKind(other)),
        })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest => write!(f, "request failed to decode"),
            ServeError::Oversized => write!(f, "message exceeded the size cap"),
        }
    }
}

/// Where a durable server currently sits on the availability-over-durability
/// trade-off. Carried in the health response as one byte; the full state
/// machine (transitions, probing, re-flooring) lives in `mbdr-locserver`'s
/// private `durable` module, behind `LocationService::durability_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityState {
    /// Every acknowledged frame is being journaled (or no journal is
    /// attached at all and the server never promised durability).
    #[default]
    Durable,
    /// Journal appends are failing: the server keeps serving, but frames
    /// applied while degraded are counted in `degraded_frames` and are NOT
    /// durable until a recovery snapshot covers them.
    Degraded,
    /// A re-probe repaired the journal and installed a snapshot of live
    /// tracker state, re-establishing a durability floor that covers the
    /// degraded window. Appends are journaled again; the distinct state (vs.
    /// `Durable`) tells operators a degraded window existed in this lifetime.
    Recovered,
}

impl DurabilityState {
    /// The one-byte wire encoding used inside `RESP_HEALTH`.
    #[must_use]
    pub fn to_wire(self) -> u8 {
        match self {
            DurabilityState::Durable => 0,
            DurabilityState::Degraded => 1,
            DurabilityState::Recovered => 2,
        }
    }

    /// Decodes the wire byte; unknown values report
    /// [`DecodeError::InvalidFlags`].
    pub fn from_wire(byte: u8) -> Result<Self, DecodeError> {
        Ok(match byte {
            0 => DurabilityState::Durable,
            1 => DurabilityState::Degraded,
            2 => DurabilityState::Recovered,
            other => return Err(DecodeError::InvalidFlags(other)),
        })
    }
}

impl std::fmt::Display for DurabilityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityState::Durable => write!(f, "durable"),
            DurabilityState::Degraded => write!(f, "degraded"),
            DurabilityState::Recovered => write!(f, "recovered"),
        }
    }
}

/// The payload of a health response: the durability state machine's position
/// plus the journal counters that tell a client whether (and how many of) its
/// acknowledged frames were actually journaled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStatus {
    /// Current position of the durability state machine.
    pub state: DurabilityState,
    /// Frames applied to live trackers without being journaled (the degraded
    /// window's size so far).
    pub degraded_frames: u64,
    /// Frames replayed from the journal during recovery passes.
    pub recovered_frames: u64,
    /// Bytes discarded by torn-tail repair at open or by degraded-mode
    /// re-probe repairs.
    pub truncated_bytes: u64,
    /// Journal append failures observed (each one also flips or keeps the
    /// server Degraded while persistent).
    pub append_errors: u64,
}

/// One message the serving layer sends back to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to a rect or nearest query.
    Positions(Vec<PositionRecord>),
    /// Answer to a zone poll: the transitions since the previous poll.
    ZoneEvents(Vec<ZoneEventRecord>),
    /// Answer to a flush: every previously sent frame has been applied.
    FlushDone {
        /// Ingest frames received on this connection so far.
        frames: u64,
        /// Updates those frames applied to registered objects.
        updates_applied: u64,
    },
    /// The request was rejected; the server drops the connection after
    /// sending this.
    Error(ServeError),
    /// Answer to a health request.
    Health(HealthStatus),
}

/// Appends an encoded positions response (kind byte + count + records) to
/// `buf` — the single definition of the layout, shared by
/// [`Response::encode`] and by serving layers that write answers from a
/// reusable record buffer without building a [`Response`] value (zero
/// allocations per response in steady state).
pub fn encode_positions_into(
    records: &[PositionRecord],
    buf: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    let count = list_count(records.len())?;
    buf.reserve(1 + 4 + records.len() * POSITION_RECORD_LEN);
    buf.push(RESP_POSITIONS);
    buf.extend_from_slice(&count.to_be_bytes());
    for r in records {
        buf.extend_from_slice(&r.object.to_be_bytes());
        buf.extend_from_slice(&r.position.x.to_be_bytes());
        buf.extend_from_slice(&r.position.y.to_be_bytes());
        buf.extend_from_slice(&r.information_age.to_be_bytes());
    }
    Ok(())
}

/// Appends an encoded zone-events response to `buf` (see
/// [`encode_positions_into`] for the rationale).
pub fn encode_zone_events_into(
    events: &[ZoneEventRecord],
    buf: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    let count = list_count(events.len())?;
    buf.reserve(1 + 4 + events.len() * ZONE_EVENT_LEN);
    buf.push(RESP_ZONE_EVENTS);
    buf.extend_from_slice(&count.to_be_bytes());
    for e in events {
        buf.extend_from_slice(&e.zone.to_be_bytes());
        buf.extend_from_slice(&e.object.to_be_bytes());
        buf.push(u8::from(e.entered));
        buf.extend_from_slice(&e.t.to_be_bytes());
    }
    Ok(())
}

/// Decodes a positions response into a caller-provided buffer (cleared
/// first) — the reusable-buffer counterpart of [`Response::decode`] for
/// query clients that issue many rect/nearest requests per connection.
/// Rejects non-positions responses with [`DecodeError::InvalidKind`] and is
/// otherwise byte-for-byte equivalent to `Response::decode` on positions.
pub fn decode_positions_into(
    bytes: &[u8],
    records: &mut Vec<PositionRecord>,
) -> Result<(), DecodeError> {
    records.clear();
    let mut reader = Reader::new(bytes);
    let kind = reader.u8()?;
    if kind != RESP_POSITIONS {
        return Err(DecodeError::InvalidKind(kind));
    }
    let count = reader.u32()? as usize;
    // Untrusted count: cap the reservation by what the buffer actually holds.
    records.reserve(count.min(reader.remaining() / POSITION_RECORD_LEN));
    for _ in 0..count {
        let object = reader.u64()?;
        let x = finite(reader.f64()?)?;
        let y = finite(reader.f64()?)?;
        let information_age = finite(reader.f64()?)?;
        records.push(PositionRecord { object, position: Point::new(x, y), information_age });
    }
    if reader.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(reader.remaining()));
    }
    Ok(())
}

impl Response {
    /// Encodes the response (kind byte + payload; see the module docs).
    /// Fails only if a record list exceeds the 32-bit count field.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the encoded response to `buf` — the reusable-buffer variant
    /// of [`Response::encode`]. On error the buffer may hold a partial
    /// encoding; discard (clear) it.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
        match self {
            Response::Positions(records) => encode_positions_into(records, buf)?,
            Response::ZoneEvents(events) => encode_zone_events_into(events, buf)?,
            Response::FlushDone { frames, updates_applied } => {
                buf.push(RESP_FLUSH_DONE);
                buf.extend_from_slice(&frames.to_be_bytes());
                buf.extend_from_slice(&updates_applied.to_be_bytes());
            }
            Response::Error(code) => {
                buf.push(RESP_ERROR);
                buf.push(code.to_wire());
            }
            Response::Health(health) => {
                buf.push(RESP_HEALTH);
                buf.push(health.state.to_wire());
                buf.extend_from_slice(&health.degraded_frames.to_be_bytes());
                buf.extend_from_slice(&health.recovered_frames.to_be_bytes());
                buf.extend_from_slice(&health.truncated_bytes.to_be_bytes());
                buf.extend_from_slice(&health.append_errors.to_be_bytes());
            }
        }
        Ok(())
    }

    /// Decodes a response from exactly `bytes`. Never panics: truncated or
    /// corrupted buffers report a typed [`DecodeError`].
    pub fn decode(bytes: &[u8]) -> Result<Response, DecodeError> {
        let mut reader = Reader::new(bytes);
        let response = match ResponseKind::try_from(reader.u8()?)? {
            ResponseKind::Positions => {
                let count = reader.u32()? as usize;
                // Untrusted count: cap the preallocation by what the buffer
                // can actually hold, like Frame::decode.
                let mut records =
                    Vec::with_capacity(count.min(reader.remaining() / POSITION_RECORD_LEN));
                for _ in 0..count {
                    let object = reader.u64()?;
                    let x = finite(reader.f64()?)?;
                    let y = finite(reader.f64()?)?;
                    let information_age = finite(reader.f64()?)?;
                    records.push(PositionRecord {
                        object,
                        position: Point::new(x, y),
                        information_age,
                    });
                }
                Response::Positions(records)
            }
            ResponseKind::ZoneEvents => {
                let count = reader.u32()? as usize;
                let mut events = Vec::with_capacity(count.min(reader.remaining() / ZONE_EVENT_LEN));
                for _ in 0..count {
                    let zone = reader.u32()?;
                    let object = reader.u64()?;
                    let entered = match reader.u8()? {
                        0 => false,
                        1 => true,
                        other => return Err(DecodeError::InvalidFlags(other)),
                    };
                    let t = finite(reader.f64()?)?;
                    events.push(ZoneEventRecord { zone, object, entered, t });
                }
                Response::ZoneEvents(events)
            }
            ResponseKind::FlushDone => {
                Response::FlushDone { frames: reader.u64()?, updates_applied: reader.u64()? }
            }
            ResponseKind::Error => Response::Error(ServeError::from_wire(reader.u8()?)?),
            ResponseKind::Health => Response::Health(HealthStatus {
                state: DurabilityState::from_wire(reader.u8()?)?,
                degraded_frames: reader.u64()?,
                recovered_frames: reader.u64()?,
                truncated_bytes: reader.u64()?,
                append_errors: reader.u64()?,
            }),
        };
        if reader.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(reader.remaining()));
        }
        Ok(response)
    }
}

fn push_aabb(buf: &mut Vec<u8>, area: &Aabb) {
    buf.extend_from_slice(&area.min.x.to_be_bytes());
    buf.extend_from_slice(&area.min.y.to_be_bytes());
    buf.extend_from_slice(&area.max.x.to_be_bytes());
    buf.extend_from_slice(&area.max.y.to_be_bytes());
}

fn read_aabb(reader: &mut Reader<'_>) -> Result<Aabb, DecodeError> {
    let min_x = finite(reader.f64()?)?;
    let min_y = finite(reader.f64()?)?;
    let max_x = finite(reader.f64()?)?;
    let max_y = finite(reader.f64()?)?;
    // Aabb::new normalises corner order, so a hostile "inverted" rectangle
    // decodes to a valid (possibly empty-ish) box instead of undefined state.
    Ok(Aabb::new(Point::new(min_x, min_y), Point::new(max_x, max_y)))
}

fn finite(v: f64) -> Result<f64, DecodeError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(DecodeError::NonFinite)
    }
}

fn list_count(len: usize) -> Result<u32, EncodeError> {
    u32::try_from(len).map_err(|_| EncodeError::FrameTooLarge(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ingest(Frame::new(9).encode().unwrap()),
            Request::Rect {
                area: Aabb::new(Point::new(-10.0, -20.0), Point::new(30.0, 40.0)),
                t: 12.5,
            },
            Request::Nearest { from: Point::new(1.0, 2.0), t: 3.0, k: 5 },
            Request::ZoneSubscribe {
                zone: 7,
                area: Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            },
            Request::ZonePoll { t: 42.0 },
            Request::Flush,
            Request::Health,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Positions(vec![
                PositionRecord {
                    object: 3,
                    position: Point::new(5.5, -6.25),
                    information_age: 1.5,
                },
                PositionRecord { object: 9, position: Point::new(0.0, 0.0), information_age: 0.0 },
            ]),
            Response::ZoneEvents(vec![ZoneEventRecord {
                zone: 2,
                object: 11,
                entered: true,
                t: 8.0,
            }]),
            Response::FlushDone { frames: 40, updates_applied: 123 },
            Response::Error(ServeError::BadRequest),
            Response::Error(ServeError::Oversized),
            Response::Health(HealthStatus {
                state: DurabilityState::Durable,
                degraded_frames: 0,
                recovered_frames: 17,
                truncated_bytes: 0,
                append_errors: 0,
            }),
            Response::Health(HealthStatus {
                state: DurabilityState::Degraded,
                degraded_frames: 41,
                recovered_frames: 2,
                truncated_bytes: 12,
                append_errors: 43,
            }),
            Response::Health(HealthStatus {
                state: DurabilityState::Recovered,
                degraded_frames: 41,
                recovered_frames: 2,
                truncated_bytes: 12,
                append_errors: 43,
            }),
        ]
    }

    #[test]
    fn every_request_round_trips() {
        let mut kinds = Vec::new();
        for request in sample_requests() {
            let bytes = request.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), request, "{request:?}");
            kinds.push(RequestKind::try_from(bytes[0]).unwrap());
        }
        assert_eq!(kinds, RequestKind::ALL, "the samples cover every request kind");
    }

    #[test]
    fn every_response_round_trips() {
        let mut kinds = Vec::new();
        for response in sample_responses() {
            let bytes = response.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), response, "{response:?}");
            let kind = ResponseKind::try_from(bytes[0]).unwrap();
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        assert_eq!(kinds, ResponseKind::ALL, "the samples cover every response kind");
    }

    #[test]
    fn truncations_report_typed_errors_and_never_panic() {
        for request in sample_requests() {
            let bytes = request.encode();
            for cut in 0..bytes.len() {
                if matches!(request, Request::Ingest(_)) && cut >= 1 {
                    // A cut ingest body is still a valid envelope: its frame
                    // payload is validated by the apply path, not here.
                    continue;
                }
                assert!(
                    matches!(Request::decode(&bytes[..cut]), Err(DecodeError::Truncated { .. })),
                    "{request:?} cut at {cut}"
                );
            }
        }
        for response in sample_responses() {
            let bytes = response.encode().unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    matches!(Response::decode(&bytes[..cut]), Err(DecodeError::Truncated { .. })),
                    "{response:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_rejected() {
        assert_eq!(Request::decode(&[0x7F]), Err(DecodeError::InvalidKind(0x7F)));
        assert_eq!(Response::decode(&[0x01]), Err(DecodeError::InvalidKind(0x01)));
        // The version-1 ingest kind is no kind now.
        assert_eq!(Request::decode(&[0x01, 0, 0]), Err(DecodeError::InvalidKind(0x01)));
        let mut bytes = Request::Flush.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
        let mut bytes = Response::FlushDone { frames: 1, updates_applied: 1 }.encode().unwrap();
        bytes.push(0);
        assert_eq!(Response::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
        assert_eq!(Response::decode(&[RESP_ERROR, 99]), Err(DecodeError::InvalidKind(99)));
        // An unknown durability-state byte is a typed flags error.
        let mut bytes = Response::Health(HealthStatus::default()).encode().unwrap();
        bytes[1] = 7;
        assert_eq!(Response::decode(&bytes), Err(DecodeError::InvalidFlags(7)));
    }

    #[test]
    fn durability_state_wire_bytes_round_trip() {
        for state in
            [DurabilityState::Durable, DurabilityState::Degraded, DurabilityState::Recovered]
        {
            assert_eq!(DurabilityState::from_wire(state.to_wire()).unwrap(), state);
        }
        assert_eq!(DurabilityState::from_wire(3), Err(DecodeError::InvalidFlags(3)));
        assert_eq!(DurabilityState::default(), DurabilityState::Durable);
        assert_eq!(format!("{}", DurabilityState::Degraded), "degraded");
    }

    #[test]
    fn non_finite_query_floats_are_rejected() {
        let mut bytes = Request::ZonePoll { t: 1.0 }.encode();
        bytes[1..9].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(Request::decode(&bytes), Err(DecodeError::NonFinite));
        let mut bytes = Request::Nearest { from: Point::new(0.0, 0.0), t: 0.0, k: 1 }.encode();
        bytes[1..9].copy_from_slice(&f64::INFINITY.to_be_bytes());
        assert_eq!(Request::decode(&bytes), Err(DecodeError::NonFinite));
    }

    #[test]
    fn buffer_reuse_variants_agree_with_the_allocating_ones() {
        // Slice encoders produce byte-for-byte what Response::encode does.
        for response in sample_responses() {
            let owned = response.encode().unwrap();
            let mut reused = Vec::new();
            reused.extend_from_slice(b"garbage-from-last-time");
            reused.clear();
            response.encode_into(&mut reused).unwrap();
            assert_eq!(reused, owned, "{response:?}");
        }
        // decode_positions_into agrees with Response::decode on positions
        // (and clears stale contents first).
        let response = &sample_responses()[0];
        let bytes = response.encode().unwrap();
        let mut records = vec![PositionRecord {
            object: 999,
            position: Point::new(0.0, 0.0),
            information_age: 0.0,
        }];
        decode_positions_into(&bytes, &mut records).unwrap();
        assert_eq!(Response::Positions(records.clone()), *response);
        // Non-positions responses are refused with a typed error.
        let flush = Response::FlushDone { frames: 1, updates_applied: 2 }.encode().unwrap();
        assert_eq!(
            decode_positions_into(&flush, &mut records),
            Err(DecodeError::InvalidKind(RESP_FLUSH_DONE))
        );
        // Truncations report the same typed errors as Response::decode.
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_positions_into(&bytes[..cut], &mut records).err(),
                Response::decode(&bytes[..cut]).err(),
                "cut at {cut}"
            );
        }
        // Request::encode_into matches Request::encode for every kind.
        for request in sample_requests() {
            let mut reused = Vec::new();
            request.encode_into(&mut reused);
            assert_eq!(reused, request.encode(), "{request:?}");
        }
        // encode_ingest_into appends exactly what encode_ingest returns.
        let frame = Frame::new(9);
        let mut reused = Vec::new();
        Request::encode_ingest_into(&frame, &mut reused).unwrap();
        assert_eq!(reused, Request::encode_ingest(&frame).unwrap());
    }

    #[test]
    fn hostile_counts_do_not_drive_preallocation() {
        // A positions response claiming u32::MAX records but carrying none
        // must fail with Truncated without a giant allocation.
        let mut bytes = vec![RESP_POSITIONS];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(Response::decode(&bytes), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn ingest_wrapper_surfaces_encode_errors() {
        use crate::state::{ObjectState, UpdateKind};
        use mbdr_roadnet::{LinkId, NodeId};
        let mut state = ObjectState::basic(Point::new(0.0, 0.0), 1.0, 0.0, 0.0);
        state.link = Some(LinkId(1));
        state.towards = Some(NodeId(u32::MAX));
        let update = crate::state::Update { sequence: 0, state, kind: UpdateKind::Initial };
        assert!(Request::encode_ingest(&Frame::single(1, update)).is_err());
    }
}
