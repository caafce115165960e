//! The wire codec: encoding and decoding of update messages and frames.
//!
//! The paper's entire cost model is the wide-area wireless uplink (GSM/GPRS),
//! so the bytes an update occupies on the wire are what the simulator charges
//! per message. This module makes that accounting a *verified protocol*: every
//! encoded update decodes back to the state the server predicts from
//! ([`Update::decode`] is the exact inverse of [`Update::encode`] modulo the
//! documented `f32` narrowing), and a [`Frame`] batches many updates from one
//! source into a single transmission unit, each update coded against the one
//! before it so that a frame carries only what changed.
//!
//! ## Update layout
//!
//! The standalone message: what the simulator charges per update, what a
//! snapshot stores per object. All integers and floats are big-endian.
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 8 | `sequence` (`u64`) |
//! | 8 | 1 | `kind` (0 initial, 1 deviation bound, 2 mode change; 3 periodic and 4 movement decode, but no in-tree protocol sends them) |
//! | 9 | 8 | `timestamp` (`f64`, s) |
//! | 17 | 8 | `position.x` (`f64`, m) |
//! | 25 | 8 | `position.y` (`f64`, m) |
//! | 33 | 4 | `speed` (`f32`, m/s) |
//! | 37 | 4 | `heading` (`f32`, rad) |
//! | 41 | 1 | flags: bit 0 = link fields follow, bit 1 = turn rate follows |
//! | 42 | 12 | link id (`u32`) + arc length (`f32`, m) + towards (`u32`) — present iff flag bit 0 |
//! | +0 | 4 | turn rate (`f32`, rad/s) — present iff flag bit 1 |
//!
//! A plain (non-map) update is 42 bytes; the link fields add 12 and a
//! non-zero turn rate adds 4.
//!
//! ## Narrowing and omitted fields
//!
//! `speed`, `heading`, `arc_length` and `turn_rate` are stored as `f64` but
//! transmitted as `f32` (centimetre-scale resolution is far below the sensor
//! noise), so a decoded update carries the `f32`-narrowed values. Fields that
//! are only meaningful alongside `link` (`arc_length`, `towards`) are not
//! transmitted when `link` is `None` and decode to their defaults.
//!
//! ## The `towards` sentinel
//!
//! "No travel direction" is encoded as the reserved node id `0xFFFF_FFFF`
//! ([`TOWARDS_NONE_WIRE`]). A legitimate `NodeId(u32::MAX)` would silently
//! round-trip to `None`, so encoding an update that carries it alongside a
//! link is rejected with [`EncodeError::ReservedTowards`] instead.
//!
//! ## Frame layout (version 2)
//!
//! A frame is the source id and the update count, each an unsigned LEB128
//! varint, then the updates. Each update is coded against the same field of
//! the update before it in the frame; the first is coded against an update
//! whose every field is zero. Decoding gives back exactly the updates the
//! message codec would, `f32` narrowing included.
//!
//! | field | coding |
//! |---|---|
//! | head | one byte: `kind` in bits 0–2, link fields follow (bit 3), turn rate follows (bit 4); all other bits zero |
//! | `sequence` | varint of `sequence − previous` (wrapping) |
//! | `timestamp`, `x`, `y` | the `f64` bits XOR the previous bits, trimmed (below) |
//! | `speed`, `heading` | the `f32` bits XOR the previous bits, trimmed |
//! | link id, towards | iff bit 3: each a varint of the `u32` XOR the previous value |
//! | `arc_length` | iff bit 3: the `f32` bits XOR the previous bits, trimmed |
//! | `turn_rate` | iff bit 4: the `f32` bits XOR the previous bits, trimmed; never zero |
//!
//! A trimmed field is one descriptor byte, `leading zero bytes << 4 |
//! significant bytes`, then the significant bytes; `0x00` means the field
//! did not change. An update without link fields or turn rate counts them as
//! zero for the update after it. Only the canonical form decodes — minimal
//! varints, exact trims, a flagged turn rate that is not zero — so
//! re-encoding any frame the decoder accepts gives back the same bytes. An
//! update occupies 7 bytes at least: head, a one-byte sequence step and five
//! unchanged fields.

// Panic-free by construction: device-sent state reaches this code off the
// wire, so it answers bad input with typed errors, never with a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::state::{ObjectState, Update, UpdateKind};
use mbdr_geo::Point;
use mbdr_roadnet::{LinkId, NodeId};

/// Declares one namespace of one-byte wire kinds as a `#[repr(u8)]` enum
/// whose discriminants are the namespace's `const`s. The variants, `ALL` and
/// `TryFrom<u8>` (an unknown byte is [`DecodeError::InvalidKind`]) all come
/// from this one list, and decoders match on the enum, so a kind without a
/// decode arm does not compile.
macro_rules! wire_kinds {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$variant_meta:meta])* $variant:ident = $byte:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name {
            $( $(#[$variant_meta])* $variant = $byte, )+
        }

        impl $name {
            /// Every kind of the namespace, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];
        }

        impl TryFrom<u8> for $name {
            type Error = $crate::wire::DecodeError;

            fn try_from(byte: u8) -> Result<Self, $crate::wire::DecodeError> {
                match byte {
                    $( $byte => Ok($name::$variant), )+
                    other => Err($crate::wire::DecodeError::InvalidKind(other)),
                }
            }
        }
    };
}

pub mod query;
pub mod snapshot;

/// The node id reserved on the wire to mean "no travel direction".
pub const TOWARDS_NONE_WIRE: u32 = u32::MAX;

const FLAG_LINK: u8 = 0b01;
const FLAG_TURN: u8 = 0b10;

/// Bytes of an encoded update without the optional link / turn-rate fields.
const UPDATE_BASE_LEN: usize = 42;
/// Bytes the link id + arc length + towards fields add.
const LINK_FIELDS_LEN: usize = 12;
/// Bytes a non-zero turn rate adds.
const TURN_FIELD_LEN: usize = 4;

/// Bits 0–2 of a frame update's head byte: the update kind.
const HEAD_KIND_MASK: u8 = 0b0_0111;
/// Head-byte bit: the update's link fields follow.
const FLAG_HEAD_LINK: u8 = 0b0_1000;
/// Head-byte bit: the update's turn rate follows.
const FLAG_HEAD_TURN: u8 = 0b1_0000;
/// Fewest bytes one update occupies in a frame: the head byte, a one-byte
/// sequence step and five unchanged-field descriptors.
const FRAME_UPDATE_MIN_LEN: usize = 7;
/// Most bytes one update occupies in a frame: the head byte, a ten-byte
/// sequence step, three full `f64` and four full `f32` fields with their
/// descriptors, and two five-byte link varints.
const FRAME_UPDATE_MAX_LEN: usize = 1 + 10 + 3 * 9 + 4 * 5 + 2 * 5;

/// A state that cannot be represented on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// `towards` carries `NodeId(u32::MAX)`, which is reserved on the wire as
    /// the "no direction" sentinel.
    ReservedTowards,
    /// A frame batches more updates than its 16-bit count field can carry.
    FrameTooLarge(usize),
    /// A float field is NaN or infinite. The decoder rejects such values
    /// ([`DecodeError::NonFinite`]), so letting them encode would tear the
    /// connection down at the *receiver* with no sender-side error — the
    /// asymmetry is closed by failing at encode time instead.
    NonFinite,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::ReservedTowards => {
                write!(f, "towards node id {TOWARDS_NONE_WIRE:#x} is reserved as the wire sentinel")
            }
            EncodeError::FrameTooLarge(n) => {
                write!(f, "frame with {n} updates exceeds the u16 count field")
            }
            EncodeError::NonFinite => write!(f, "non-finite float field"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// A buffer that does not decode to a valid update or frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the field starting at `offset` (`needed` bytes
    /// were required, only `available` were present).
    Truncated {
        /// Total bytes the decoder needed up to and including the field.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The kind byte is outside the defined range.
    InvalidKind(u8),
    /// The flags byte has undefined bits set.
    InvalidFlags(u8),
    /// The buffer holds more bytes than the message occupies.
    TrailingBytes(usize),
    /// A float field decoded to NaN or infinity. Legitimate encoders never
    /// produce these, and letting them through would poison downstream
    /// comparisons (spatial-index boxes, distance ordering), so the decoder
    /// rejects them outright.
    NonFinite,
    /// A frame field is not in its one canonical form: a varint with a
    /// redundant last byte, a trimmed float whose descriptor is not the
    /// exact trim of its bytes, or a turn rate flagged present that is zero.
    NonCanonical {
        /// Offset of the field in the frame.
        at: usize,
    },
    /// A frame varint whose value does not fit its field: more than 64
    /// bits, a link or towards id above `u32::MAX`, or an update count
    /// above `u16::MAX`.
    OutOfRange {
        /// Offset of the varint in the frame.
        at: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated message: needed {needed} bytes, got {available}")
            }
            DecodeError::InvalidKind(k) => write!(f, "invalid update kind byte {k:#x}"),
            DecodeError::InvalidFlags(b) => write!(f, "invalid flags byte {b:#x}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message"),
            DecodeError::NonFinite => write!(f, "non-finite float field"),
            DecodeError::NonCanonical { at } => {
                write!(f, "non-canonical field at byte {at}")
            }
            DecodeError::OutOfRange { at } => write!(f, "varint out of range at byte {at}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl UpdateKind {
    /// The kind's single-byte wire representation.
    fn to_wire(self) -> u8 {
        match self {
            UpdateKind::Initial => 0,
            UpdateKind::DeviationBound => 1,
            UpdateKind::ModeChange => 2,
            UpdateKind::Periodic => 3,
            UpdateKind::Movement => 4,
        }
    }

    /// Parses the wire byte back into a kind.
    fn from_wire(byte: u8) -> Result<Self, DecodeError> {
        Ok(match byte {
            0 => UpdateKind::Initial,
            1 => UpdateKind::DeviationBound,
            2 => UpdateKind::ModeChange,
            3 => UpdateKind::Periodic,
            4 => UpdateKind::Movement,
            other => return Err(DecodeError::InvalidKind(other)),
        })
    }
}

/// A bounds-checked big-endian reader over a byte slice.
#[derive(Debug, Clone, Copy)]
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let slice = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or(DecodeError::Truncated { needed: self.at + n, available: self.bytes.len() })?;
        self.at += n;
        Ok(slice)
    }

    /// `take(N)` as a fixed-size array. The length mismatch arm is
    /// unreachable (take returned exactly `N` bytes) but maps to a typed
    /// error rather than a panic: decode never panics on any input.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated { needed: N, available: 0 })
    }

    #[inline(always)]
    fn u8(&mut self) -> Result<u8, DecodeError> {
        match self.bytes.get(self.at) {
            Some(&byte) => {
                self.at += 1;
                Ok(byte)
            }
            None => {
                Err(DecodeError::Truncated { needed: self.at + 1, available: self.bytes.len() })
            }
        }
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_be_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_be_bytes(self.array()?))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// A canonical unsigned LEB128 varint no larger than `max` (at least
    /// `0x7F`: every field's range holds the one-byte values).
    #[inline(always)]
    fn varint(&mut self, max: u64) -> Result<u64, DecodeError> {
        let at = self.at;
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        self.varint_tail(at, first, max)
    }

    /// The rest of a varint whose first byte, at `at`, was `first`.
    fn varint_tail(&mut self, at: usize, first: u8, max: u64) -> Result<u64, DecodeError> {
        let mut value = u64::from(first & 0x7F);
        for shift in (7..64).step_by(7) {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7F);
            if shift == 63 && low > 1 {
                return Err(DecodeError::OutOfRange { at });
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                if byte == 0 {
                    return Err(DecodeError::NonCanonical { at });
                }
                return if value <= max { Ok(value) } else { Err(DecodeError::OutOfRange { at }) };
            }
        }
        Err(DecodeError::OutOfRange { at })
    }

    /// A `u32` coded as a varint.
    #[inline(always)]
    fn varint32(&mut self) -> Result<u32, DecodeError> {
        let at = self.at;
        u32::try_from(self.varint(u32::MAX.into())?).map_err(|_| DecodeError::OutOfRange { at })
    }

    /// A trimmed field of `width` bytes (see the module docs): the
    /// descriptor byte, then the significant bytes it names.
    #[inline(always)]
    fn trimmed(&mut self, width: usize) -> Result<u64, DecodeError> {
        let at = self.at;
        let descriptor = self.u8()?;
        if descriptor == 0 {
            return Ok(0);
        }
        let (lead, len) = (usize::from(descriptor >> 4), usize::from(descriptor & 0x0F));
        if len == 0 || lead + len > width {
            return Err(DecodeError::NonCanonical { at });
        }
        if self.remaining() < len {
            return Err(DecodeError::Truncated {
                needed: self.at + len,
                available: self.bytes.len(),
            });
        }
        let value = self.word() >> (8 * (8 - len));
        self.at += len;
        // The trim is exact iff the first and the last significant byte
        // are not zero.
        if value >> (8 * (len - 1)) == 0 || value & 0xFF == 0 {
            return Err(DecodeError::NonCanonical { at });
        }
        Ok(value << (8 * (width - lead - len)))
    }

    /// The next eight bytes as a big-endian word, zero-padded past the end:
    /// one load wherever eight bytes remain.
    #[inline(always)]
    fn word(&self) -> u64 {
        let rest = self.bytes.get(self.at..).unwrap_or_default();
        let mut word = [0u8; 8];
        match rest.get(..8) {
            Some(whole) => word.copy_from_slice(whole),
            None => word.get_mut(..rest.len()).unwrap_or_default().copy_from_slice(rest),
        }
        u64::from_be_bytes(word)
    }

    /// A trimmed `f32` field's bits.
    #[inline(always)]
    fn trimmed32(&mut self) -> Result<u32, DecodeError> {
        // A four-byte trim holds at most 32 bits.
        Ok(self.trimmed(4)? as u32)
    }
}

impl Update {
    /// Encodes the update into a compact wire representation (see the module
    /// docs for the byte layout). Its length is what the simulator's message
    /// accounting charges per update.
    ///
    /// Fails with [`EncodeError::ReservedTowards`] if the update travels
    /// towards `NodeId(u32::MAX)`, which the wire reserves as the "no
    /// direction" sentinel.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the encoded update to `buf` (the allocation-free building
    /// block frames batch updates with). On error `buf` is left untouched.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.check_encodable()?;
        buf.reserve(self.encoded_len());
        buf.extend_from_slice(&self.sequence.to_be_bytes());
        buf.push(self.kind.to_wire());
        buf.extend_from_slice(&self.state.timestamp.to_be_bytes());
        buf.extend_from_slice(&self.state.position.x.to_be_bytes());
        buf.extend_from_slice(&self.state.position.y.to_be_bytes());
        buf.extend_from_slice(&(self.state.speed as f32).to_be_bytes());
        buf.extend_from_slice(&(self.state.heading as f32).to_be_bytes());
        let mut flags = 0u8;
        if self.state.link.is_some() {
            flags |= FLAG_LINK;
        }
        if self.wire_turn_rate() != 0.0 {
            flags |= FLAG_TURN;
        }
        buf.push(flags);
        if let Some(link) = self.state.link {
            buf.extend_from_slice(&link.0.to_be_bytes());
            buf.extend_from_slice(&(self.state.arc_length as f32).to_be_bytes());
            let towards = self.state.towards.map(|n| n.0).unwrap_or(TOWARDS_NONE_WIRE);
            buf.extend_from_slice(&towards.to_be_bytes());
        }
        if self.wire_turn_rate() != 0.0 {
            buf.extend_from_slice(&self.wire_turn_rate().to_be_bytes());
        }
        Ok(())
    }

    /// Refuses a state the wire cannot carry: the reserved `towards`
    /// alongside a link, or a non-finite float. The decoder rejects
    /// non-finite floats (a hostile-input guard), so encoding them would
    /// fail only at the receiver — the error surfaces where the bad value
    /// originates instead.
    fn check_encodable(&self) -> Result<(), EncodeError> {
        let s = &self.state;
        if s.link.is_some() && s.towards == Some(NodeId(TOWARDS_NONE_WIRE)) {
            return Err(EncodeError::ReservedTowards);
        }
        if ![s.timestamp, s.position.x, s.position.y, s.speed, s.heading, s.arc_length, s.turn_rate]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(EncodeError::NonFinite);
        }
        Ok(())
    }

    /// The turn rate as it would travel on the wire. The "is a turn rate
    /// present" flag is decided on this narrowed value, not the `f64` one, so
    /// a tiny rate that underflows to `0.0f32` is omitted outright — keeping
    /// re-encoding of a decoded update bit-exact.
    fn wire_turn_rate(&self) -> f32 {
        self.state.turn_rate as f32
    }

    /// Size of the encoded update in bytes, computed arithmetically — no
    /// allocation, so the per-message accounting on the channel-send and
    /// tracker-apply hot paths is free. Property-tested to equal
    /// `encode()?.len()` for every field combination.
    pub fn encoded_len(&self) -> usize {
        UPDATE_BASE_LEN
            + if self.state.link.is_some() { LINK_FIELDS_LEN } else { 0 }
            + if self.wire_turn_rate() != 0.0 { TURN_FIELD_LEN } else { 0 }
    }

    /// Decodes an update from exactly `bytes` — the inverse of [`encode`]
    /// (modulo the documented `f32` narrowing). Never panics: truncated or
    /// corrupted buffers report a typed [`DecodeError`].
    ///
    /// [`encode`]: Update::encode
    pub fn decode(bytes: &[u8]) -> Result<Update, DecodeError> {
        let mut reader = Reader::new(bytes);
        let update = Self::decode_from(&mut reader)?;
        if reader.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(reader.remaining()));
        }
        Ok(update)
    }

    fn decode_from(reader: &mut Reader<'_>) -> Result<Update, DecodeError> {
        let sequence = reader.u64()?;
        let kind = UpdateKind::from_wire(reader.u8()?)?;
        let timestamp = reader.f64()?;
        let x = reader.f64()?;
        let y = reader.f64()?;
        let speed = reader.f32()? as f64;
        let heading = reader.f32()? as f64;
        let flags = reader.u8()?;
        if flags & !(FLAG_LINK | FLAG_TURN) != 0 {
            return Err(DecodeError::InvalidFlags(flags));
        }
        let (link, arc_length, towards) = if flags & FLAG_LINK != 0 {
            let link = LinkId(reader.u32()?);
            let arc_length = reader.f32()? as f64;
            let towards = match reader.u32()? {
                TOWARDS_NONE_WIRE => None,
                id => Some(NodeId(id)),
            };
            (Some(link), arc_length, towards)
        } else {
            (None, 0.0, None)
        };
        let turn_rate = if flags & FLAG_TURN != 0 { reader.f32()? as f64 } else { 0.0 };
        if ![timestamp, x, y, speed, heading, arc_length, turn_rate].iter().all(|v| v.is_finite()) {
            return Err(DecodeError::NonFinite);
        }
        Ok(Update {
            sequence,
            state: ObjectState {
                position: Point::new(x, y),
                speed,
                heading,
                timestamp,
                link,
                arc_length,
                towards,
                turn_rate,
            },
            kind,
        })
    }
}

/// A batch of updates from one source — the unit one uplink transmission
/// carries, and the unit the lossy channel model drops, duplicates and
/// reorders. On the wire each update is coded against the one before it
/// (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Identifier of the source all batched updates belong to (the location
    /// service maps it to its object id).
    pub source: u64,
    /// The batched updates, oldest first.
    pub updates: Vec<Update>,
}

impl Frame {
    /// An empty frame for the given source.
    pub fn new(source: u64) -> Self {
        Frame { source, updates: Vec::new() }
    }

    /// A frame carrying a single update.
    pub fn single(source: u64, update: Update) -> Self {
        Frame { source, updates: vec![update] }
    }

    /// Appends an update to the batch.
    pub fn push(&mut self, update: Update) {
        self.updates.push(update);
    }

    /// Size of the encoded frame in bytes, computed by the encoder's own
    /// coding pass into a byte count: exact, and without allocating.
    pub fn encoded_len(&self) -> usize {
        let mut len = ByteCount(0);
        len.varint(self.source);
        len.varint(self.updates.len() as u64);
        let mut previous = Coded::default();
        for update in &self.updates {
            previous = code_update(update, &previous, &mut len);
        }
        len.0
    }

    /// Encodes the frame (see the module docs for the layout).
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the encoded frame to `buf` — the allocation-free building
    /// block the serving layer wraps frames into messages with (reserve
    /// [`Frame::encoded_len`] first to grow a cold buffer once). On error
    /// the buffer may hold a partial encoding; discard it.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
        if self.updates.len() > u16::MAX as usize {
            return Err(EncodeError::FrameTooLarge(self.updates.len()));
        }
        // Two varints of at most ten bytes each.
        code_into(buf, 20, |header| {
            header.varint(self.source);
            header.varint(self.updates.len() as u64);
        });
        let mut previous = Coded::default();
        for update in &self.updates {
            update.check_encodable()?;
            previous =
                code_into(buf, FRAME_UPDATE_MAX_LEN, |out| code_update(update, &previous, out));
        }
        Ok(())
    }

    /// Decodes a frame from exactly `bytes`. Never panics: truncated,
    /// corrupted or non-canonical buffers report a typed [`DecodeError`].
    ///
    /// Shares its single validating walk (the private `walk_frame`) with
    /// [`FrameView::parse`], so the owned and the borrowed decoder accept
    /// and reject exactly the same inputs by construction, and each update
    /// is decoded exactly once. The only extra work here is materialising
    /// the `Vec<Update>` — ingest paths that do not need an owned frame
    /// should use [`FrameView`] directly and stay allocation-free.
    pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
        // The count is untrusted until the walk finishes: cap the
        // preallocation by what the buffer could possibly hold (each update
        // costs at least `FRAME_UPDATE_MIN_LEN` bytes), so a hostile tiny
        // frame claiming 65535 updates cannot force a large allocation
        // before the first read fails.
        let mut updates = Vec::new();
        let mut header = Reader::new(bytes);
        if let Ok((_, claimed)) = frame_header(&mut header) {
            updates.reserve(usize::from(claimed).min(header.remaining() / FRAME_UPDATE_MIN_LEN));
        }
        let view = walk_frame(bytes, |u| updates.push(u))?;
        Ok(Frame { source: view.source, updates })
    }
}

/// One update's fields as a frame codes them: the bits each travels as. A
/// field the update does not carry — the link fields without a link, the
/// turn rate when it is zero — is zero here, and the first update of a frame
/// is coded against `Coded::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Coded {
    sequence: u64,
    timestamp: u64,
    x: u64,
    y: u64,
    speed: u32,
    heading: u32,
    link: u32,
    towards: u32,
    arc_length: u32,
    turn_rate: u32,
}

impl Coded {
    /// The fields `update` travels as, narrowed as the decoder sees them.
    fn of(update: &Update) -> Coded {
        let s = &update.state;
        let (link, towards, arc_length) = match s.link {
            Some(link) => (
                link.0,
                s.towards.map_or(TOWARDS_NONE_WIRE, |n| n.0),
                (s.arc_length as f32).to_bits(),
            ),
            None => (0, 0, 0),
        };
        let turn_rate = update.wire_turn_rate();
        Coded {
            sequence: update.sequence,
            timestamp: s.timestamp.to_bits(),
            x: s.position.x.to_bits(),
            y: s.position.y.to_bits(),
            speed: (s.speed as f32).to_bits(),
            heading: (s.heading as f32).to_bits(),
            link,
            towards,
            arc_length,
            turn_rate: if turn_rate != 0.0 { turn_rate.to_bits() } else { 0 },
        }
    }
}

/// Where a frame is coded to: a [`Window`] of the frame buffer, or a
/// [`ByteCount`] that measures the same coding without writing it.
trait FrameSink {
    fn byte(&mut self, byte: u8);
    /// The `len` low-order bytes of `bits`, most significant first.
    fn low_bytes(&mut self, bits: u64, len: usize);

    /// An unsigned LEB128 varint, minimal.
    fn varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.byte(value as u8 | 0x80);
            value >>= 7;
        }
        self.byte(value as u8);
    }

    /// `bits`, a field of `width` bytes, trimmed: the descriptor byte, then
    /// the bytes between the leading and the trailing zero bytes.
    fn trimmed(&mut self, bits: u64, width: usize) {
        if bits == 0 {
            self.byte(0);
            return;
        }
        let lead = bits.leading_zeros() as usize / 8 - (8 - width);
        let trail = bits.trailing_zeros() as usize / 8;
        let len = width - lead - trail;
        self.byte((lead << 4 | len) as u8);
        self.low_bytes(bits >> (8 * trail), len);
    }
}

/// A [`FrameSink`] over zeroed bytes at the end of a frame buffer, written
/// with plain stores and a word store per trimmed field (see
/// [`code_into`]).
struct Window<'a> {
    bytes: &'a mut [u8],
    len: usize,
}

impl FrameSink for Window<'_> {
    #[inline(always)]
    fn byte(&mut self, byte: u8) {
        if let Some(slot) = self.bytes.get_mut(self.len) {
            *slot = byte;
        }
        self.len += 1;
    }

    #[inline(always)]
    fn low_bytes(&mut self, bits: u64, len: usize) {
        let len = len.clamp(1, 8);
        if let Some(word) = self.bytes.get_mut(self.len..self.len + 8) {
            word.copy_from_slice(&(bits << (8 * (8 - len))).to_be_bytes());
        }
        self.len += len;
    }
}

/// Runs `code` over a zeroed window of `room` bytes, plus eight of slack
/// for the word store of a trimmed field, at the end of `buf`, then cuts
/// `buf` back to what `code` wrote: no capacity check per byte.
#[inline(always)]
fn code_into<T>(buf: &mut Vec<u8>, room: usize, code: impl FnOnce(&mut Window<'_>) -> T) -> T {
    let start = buf.len();
    buf.resize(start + room + 8, 0);
    let mut window = Window { bytes: buf.get_mut(start..).unwrap_or_default(), len: 0 };
    let coded = code(&mut window);
    let len = window.len;
    buf.truncate(start + len);
    coded
}

/// A [`FrameSink`] that only counts the bytes.
struct ByteCount(usize);

impl FrameSink for ByteCount {
    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }

    fn low_bytes(&mut self, _: u64, len: usize) {
        self.0 += len;
    }
}

/// Codes `update` against `previous` (the fields of the update before it)
/// into `out` and returns its own fields, the reference for the next one.
fn code_update(update: &Update, previous: &Coded, out: &mut impl FrameSink) -> Coded {
    let coded = Coded::of(update);
    let has_link = update.state.link.is_some();
    let mut head = update.kind.to_wire();
    if has_link {
        head |= FLAG_HEAD_LINK;
    }
    if coded.turn_rate != 0 {
        head |= FLAG_HEAD_TURN;
    }
    out.byte(head);
    out.varint(coded.sequence.wrapping_sub(previous.sequence));
    out.trimmed(coded.timestamp ^ previous.timestamp, 8);
    out.trimmed(coded.x ^ previous.x, 8);
    out.trimmed(coded.y ^ previous.y, 8);
    out.trimmed(u64::from(coded.speed ^ previous.speed), 4);
    out.trimmed(u64::from(coded.heading ^ previous.heading), 4);
    if has_link {
        out.varint(u64::from(coded.link ^ previous.link));
        out.varint(u64::from(coded.towards ^ previous.towards));
        out.trimmed(u64::from(coded.arc_length ^ previous.arc_length), 4);
    }
    if coded.turn_rate != 0 {
        out.trimmed(u64::from(coded.turn_rate ^ previous.turn_rate), 4);
    }
    coded
}

/// One update a frame walk validated: what its head byte says, and its
/// fields.
#[derive(Debug, Clone, Copy)]
struct Walked {
    kind: UpdateKind,
    has_link: bool,
    coded: Coded,
}

impl Walked {
    /// The update these fields decode to.
    #[inline(always)]
    fn update(&self) -> Update {
        let c = &self.coded;
        let widen = |bits: u32| f64::from(f32::from_bits(bits));
        let has_link = self.has_link;
        Update {
            sequence: c.sequence,
            state: ObjectState {
                position: Point::new(f64::from_bits(c.x), f64::from_bits(c.y)),
                speed: widen(c.speed),
                heading: widen(c.heading),
                timestamp: f64::from_bits(c.timestamp),
                link: has_link.then_some(LinkId(c.link)),
                arc_length: widen(c.arc_length),
                towards: (has_link && c.towards != TOWARDS_NONE_WIRE).then_some(NodeId(c.towards)),
                turn_rate: widen(c.turn_rate),
            },
            kind: self.kind,
        }
    }
}

/// Decodes the update at the reader coded against `previous` and validates
/// it whole: head bits, canonical form, finite floats.
#[inline(always)]
fn walk_update(reader: &mut Reader<'_>, previous: &Coded) -> Result<Walked, DecodeError> {
    let head = reader.u8()?;
    if head & !(HEAD_KIND_MASK | FLAG_HEAD_LINK | FLAG_HEAD_TURN) != 0 {
        return Err(DecodeError::InvalidFlags(head));
    }
    let kind = UpdateKind::from_wire(head & HEAD_KIND_MASK)?;
    let has_link = head & FLAG_HEAD_LINK != 0;
    let sequence = previous.sequence.wrapping_add(reader.varint(u64::MAX)?);
    let timestamp = previous.timestamp ^ reader.trimmed(8)?;
    let x = previous.x ^ reader.trimmed(8)?;
    let y = previous.y ^ reader.trimmed(8)?;
    let speed = previous.speed ^ reader.trimmed32()?;
    let heading = previous.heading ^ reader.trimmed32()?;
    let (link, towards, arc_length) = if has_link {
        (
            previous.link ^ reader.varint32()?,
            previous.towards ^ reader.varint32()?,
            previous.arc_length ^ reader.trimmed32()?,
        )
    } else {
        (0, 0, 0)
    };
    let turn_rate = if head & FLAG_HEAD_TURN != 0 {
        let at = reader.at;
        let bits = previous.turn_rate ^ reader.trimmed32()?;
        // The encoder omits a zero turn rate, so a flagged one would be a
        // second encoding of the same update.
        if bits << 1 == 0 {
            return Err(DecodeError::NonCanonical { at });
        }
        bits
    } else {
        0
    };
    let finite = [timestamp, x, y].iter().all(|&b| f64::from_bits(b).is_finite())
        && [speed, heading, arc_length, turn_rate].iter().all(|&b| f32::from_bits(b).is_finite());
    if !finite {
        return Err(DecodeError::NonFinite);
    }
    let coded =
        Coded { sequence, timestamp, x, y, speed, heading, link, towards, arc_length, turn_rate };
    Ok(Walked { kind, has_link, coded })
}

/// Reads a frame header: the source id and the update count.
fn frame_header(reader: &mut Reader<'_>) -> Result<(u64, u16), DecodeError> {
    let source = reader.varint(u64::MAX)?;
    let at = reader.at;
    let count = reader.varint(u16::MAX.into())?;
    Ok((source, u16::try_from(count).map_err(|_| DecodeError::OutOfRange { at })?))
}

/// The one validating walk over an encoded frame, shared by [`Frame::decode`]
/// and [`FrameView::parse`]: reads the header, decodes every update exactly
/// once (feeding it to `sink`), and rejects trailing bytes. Having a single
/// walker is what makes the owned and borrowed decoders equivalent by
/// construction.
fn walk_frame(bytes: &[u8], mut sink: impl FnMut(Update)) -> Result<FrameView<'_>, DecodeError> {
    let mut reader = Reader::new(bytes);
    let (source, count) = frame_header(&mut reader)?;
    let updates = reader;
    let mut previous = Coded::default();
    for _ in 0..count {
        let walked = walk_update(&mut reader, &previous)?;
        sink(walked.update());
        previous = walked.coded;
    }
    if reader.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(reader.remaining()));
    }
    Ok(FrameView { source, count, updates })
}

/// A zero-copy, fully validated view over one encoded update.
///
/// [`UpdateView::parse`] performs exactly the validation of
/// [`Update::decode`] (same typed [`DecodeError`]s on the same inputs — the
/// equivalence is property-tested) but borrows the wire bytes instead of
/// requiring a dedicated buffer per message. Since [`Update`] is `Copy`, the
/// decoded value lives on the stack: neither parsing nor [`UpdateView::get`]
/// ever touches the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateView<'a> {
    bytes: &'a [u8],
    update: Update,
}

impl<'a> UpdateView<'a> {
    /// Validates `bytes` as exactly one encoded update and returns the view.
    /// Accepts and rejects byte-for-byte the same inputs as
    /// [`Update::decode`].
    pub fn parse(bytes: &'a [u8]) -> Result<UpdateView<'a>, DecodeError> {
        Ok(UpdateView { bytes, update: Update::decode(bytes)? })
    }

    /// Length of the update on the wire, bytes.
    #[inline]
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// The decoded update (a stack value — no allocation).
    #[inline]
    pub fn get(&self) -> &Update {
        &self.update
    }
}

/// A zero-copy, fully validated view over one encoded [`Frame`].
///
/// [`FrameView::parse`] walks the whole frame once, performing exactly the
/// validation of [`Frame::decode`] — same typed [`DecodeError`]s on the same
/// inputs, which is guaranteed structurally because `Frame::decode` *is*
/// `FrameView::parse` plus a `Vec` — but allocates nothing: the view borrows
/// the byte buffer, and [`FrameView::updates`] decodes each update into a
/// stack value on the fly. This is the ingest hot path of the location
/// service (`apply_frame_bytes`): one frame, zero heap allocations.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    source: u64,
    count: u16,
    /// A reader at the first update, the whole frame already validated to
    /// hold exactly `count` well-formed updates after it.
    updates: Reader<'a>,
}

impl<'a> FrameView<'a> {
    /// Validates `bytes` as exactly one encoded frame and returns the view.
    /// No shard state should be touched on failure: a frame is either
    /// entirely well-formed or rejected as a whole, exactly like
    /// [`Frame::decode`] (both run the same private `walk_frame` pass; here every
    /// decoded update is a discarded stack copy — no allocation for any
    /// count the attacker claims).
    pub fn parse(bytes: &'a [u8]) -> Result<FrameView<'a>, DecodeError> {
        walk_frame(bytes, |_| {})
    }

    /// The source id the header of the frame in `bytes` names, read without
    /// validating the rest: what routes a frame to its shard before
    /// [`FrameView::parse`] runs there. `None` if `bytes` does not start
    /// with a well-formed id.
    pub fn peek_source(bytes: &[u8]) -> Option<u64> {
        Reader::new(bytes).varint(u64::MAX).ok()
    }

    /// Identifier of the source all batched updates belong to.
    #[inline]
    pub fn source(&self) -> u64 {
        self.source
    }

    /// Number of updates in the frame.
    #[inline]
    pub fn update_count(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if the frame batches no updates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the batched updates, oldest first, decoding each into a
    /// stack value. Infallible: every update was validated by
    /// [`FrameView::parse`].
    pub fn updates(&self) -> FrameUpdates<'a> {
        FrameUpdates { remaining: self.count, reader: self.updates, previous: Coded::default() }
    }
}

/// Iterator over the updates of a [`FrameView`] (see [`FrameView::updates`]).
#[derive(Debug, Clone)]
pub struct FrameUpdates<'a> {
    remaining: u16,
    reader: Reader<'a>,
    /// The fields of the update last yielded, which the next is coded
    /// against.
    previous: Coded,
}

impl Iterator for FrameUpdates<'_> {
    type Item = Update;

    fn next(&mut self) -> Option<Update> {
        if self.remaining == 0 {
            return None;
        }
        // `FrameView::parse` already validated every update, so this decode
        // cannot fail on a live view — but it goes through the
        // bounds-checked reader anyway so the iterator stays panic-free by
        // construction, not by argument.
        let walked = walk_update(&mut self.reader, &self.previous).ok()?;
        self.previous = walked.coded;
        self.remaining -= 1;
        Some(walked.update())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for FrameUpdates<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ObjectState {
        ObjectState {
            position: Point::new(12.5, -3.75),
            speed: 27.8,
            heading: 1.2,
            timestamp: 100.0,
            link: Some(LinkId(42)),
            arc_length: 155.0,
            towards: Some(NodeId(7)),
            turn_rate: 0.0,
        }
    }

    fn sample_update() -> Update {
        Update { sequence: 9, state: sample_state(), kind: UpdateKind::DeviationBound }
    }

    /// The state a round trip is expected to reproduce: the `f32`-narrowed
    /// fields, and the defaults for fields not carried without a link.
    fn narrowed(u: &Update) -> Update {
        let mut n = *u;
        n.state.speed = u.state.speed as f32 as f64;
        n.state.heading = u.state.heading as f32 as f64;
        n.state.turn_rate = u.state.turn_rate as f32 as f64;
        if u.state.link.is_some() {
            n.state.arc_length = u.state.arc_length as f32 as f64;
        } else {
            n.state.arc_length = 0.0;
            n.state.towards = None;
        }
        n
    }

    #[test]
    fn encoding_is_compact_and_link_dependent() {
        let with_link = sample_update();
        let mut without = with_link;
        without.state.link = None;
        without.state.towards = None;
        // Map-based updates carry the link id + arc length + direction, so
        // they are slightly larger — but both stay well under 100 bytes.
        assert!(with_link.encoded_len() > without.encoded_len());
        assert!(with_link.encoded_len() < 100);
        assert_eq!(without.encoded_len(), 42);
    }

    #[test]
    fn turn_rate_adds_payload_only_when_nonzero() {
        let mut u = sample_update();
        let plain = u.encoded_len();
        u.state.turn_rate = 0.05;
        assert_eq!(u.encoded_len(), plain + 4);
    }

    #[test]
    fn encoded_len_matches_the_actual_encoding() {
        for (link, turn) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut u = sample_update();
            if !link {
                u.state.link = None;
                u.state.towards = None;
            }
            u.state.turn_rate = if turn { 0.25 } else { 0.0 };
            assert_eq!(u.encode().unwrap().len(), u.encoded_len(), "link={link} turn={turn}");
        }
    }

    #[test]
    fn encoding_starts_with_the_sequence_number() {
        let mut u = sample_update();
        u.sequence = 0xABCD;
        let bytes = u.encode().unwrap();
        assert_eq!(u64::from_be_bytes(bytes[..8].try_into().unwrap()), 0xABCD);
    }

    #[test]
    fn decode_inverts_encode() {
        for (link, turn, towards) in [
            (true, false, Some(NodeId(7))),
            (true, true, None),
            (false, false, None),
            (false, true, None),
        ] {
            let mut u = sample_update();
            u.state.link = link.then_some(LinkId(42));
            u.state.towards = towards;
            u.state.turn_rate = if turn { -0.125 } else { 0.0 };
            let decoded = Update::decode(&u.encode().unwrap()).unwrap();
            assert_eq!(decoded, narrowed(&u));
        }
    }

    #[test]
    fn every_kind_round_trips() {
        for kind in [
            UpdateKind::Initial,
            UpdateKind::DeviationBound,
            UpdateKind::ModeChange,
            UpdateKind::Periodic,
            UpdateKind::Movement,
        ] {
            let mut u = sample_update();
            u.kind = kind;
            assert_eq!(Update::decode(&u.encode().unwrap()).unwrap().kind, kind);
        }
    }

    #[test]
    fn reserved_towards_is_rejected_at_encode_time() {
        let mut u = sample_update();
        u.state.towards = Some(NodeId(u32::MAX));
        assert_eq!(u.encode(), Err(EncodeError::ReservedTowards));
        // Without a link the field is not transmitted, so nothing is lost and
        // the encoding succeeds.
        u.state.link = None;
        assert!(u.encode().is_ok());
        // The legitimate id one below the sentinel survives the round trip.
        let mut v = sample_update();
        v.state.towards = Some(NodeId(u32::MAX - 1));
        let decoded = Update::decode(&v.encode().unwrap()).unwrap();
        assert_eq!(decoded.state.towards, Some(NodeId(u32::MAX - 1)));
    }

    #[test]
    fn truncated_buffers_report_typed_errors() {
        let bytes = sample_update().encode().unwrap();
        for cut in 0..bytes.len() {
            match Update::decode(&bytes[..cut]) {
                Err(DecodeError::Truncated { needed, available }) => {
                    assert!(needed > available, "needed {needed} > available {available}");
                    assert_eq!(available, cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_kind_and_flags_report_typed_errors() {
        let mut bytes = sample_update().encode().unwrap();
        bytes[8] = 200;
        assert_eq!(Update::decode(&bytes), Err(DecodeError::InvalidKind(200)));
        let mut bytes = sample_update().encode().unwrap();
        bytes[41] |= 0b1000;
        assert!(matches!(Update::decode(&bytes), Err(DecodeError::InvalidFlags(_))));
    }

    #[test]
    fn underflowing_turn_rate_is_omitted_and_round_trips_bit_exact() {
        // 1e-46 is a non-zero f64 that narrows to 0.0f32: the flag is decided
        // on the narrowed value, so the field is omitted and re-encoding the
        // decoded update reproduces the same bytes.
        let mut u = sample_update();
        u.state.turn_rate = 1e-46;
        assert_eq!(u.encoded_len(), sample_update().encoded_len(), "no turn field on the wire");
        let bytes = u.encode().unwrap();
        let decoded = Update::decode(&bytes).unwrap();
        assert_eq!(decoded.state.turn_rate, 0.0);
        assert_eq!(decoded.encode().unwrap(), bytes);
    }

    #[test]
    fn hostile_update_count_does_not_drive_preallocation() {
        // A 4-byte frame claiming 0xFFFF updates must fail with Truncated
        // (the capacity cap keeps the decoder from allocating for the claim;
        // observable here only as "still returns the right typed error"),
        // and a count past the 16-bit limit is out of range.
        let bytes = [7, 0xFF, 0xFF, 0x03];
        assert!(matches!(Frame::decode(&bytes), Err(DecodeError::Truncated { .. })));
        assert_eq!(Frame::decode(&[7, 0x80, 0x80, 0x04]), Err(DecodeError::OutOfRange { at: 1 }));
    }

    #[test]
    fn non_finite_floats_are_rejected_at_encode_time() {
        // The decoder refuses NaN/infinite fields, so the encoder must too —
        // otherwise a degenerate upstream value would only surface as a
        // connection teardown at the receiver.
        let mut u = sample_update();
        u.state.heading = f64::NAN;
        assert_eq!(u.encode(), Err(EncodeError::NonFinite));
        let mut u = sample_update();
        u.state.position.x = f64::INFINITY;
        assert_eq!(Frame::single(1, u).encode(), Err(EncodeError::NonFinite));
    }

    #[test]
    fn non_finite_floats_are_rejected_at_decode_time() {
        // Overwrite the timestamp with an f64 NaN: a hostile peer could use
        // NaN coordinates to poison distance comparisons downstream, so the
        // decoder refuses them with a typed error.
        let mut bytes = sample_update().encode().unwrap();
        bytes[9..17].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(Update::decode(&bytes), Err(DecodeError::NonFinite));
        let mut bytes = sample_update().encode().unwrap();
        bytes[33..37].copy_from_slice(&f32::INFINITY.to_be_bytes());
        assert_eq!(Update::decode(&bytes), Err(DecodeError::NonFinite));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_update().encode().unwrap();
        bytes.push(0);
        assert_eq!(Update::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn frame_round_trips_a_batch() {
        let mut frame = Frame::new(77);
        for i in 0..5u64 {
            let mut u = sample_update();
            u.sequence = i;
            u.state.timestamp = 100.0 + i as f64;
            u.state.link = (i % 2 == 0).then_some(LinkId(42));
            if u.state.link.is_none() {
                u.state.towards = None;
            }
            frame.push(u);
        }
        let bytes = frame.encode().unwrap();
        assert_eq!(bytes.len(), frame.encoded_len());
        let decoded = Frame::decode(&bytes).unwrap();
        assert_eq!(decoded.source, 77);
        assert_eq!(decoded.updates.len(), 5);
        for (d, u) in decoded.updates.iter().zip(&frame.updates) {
            assert_eq!(*d, narrowed(u));
        }
    }

    #[test]
    fn frame_decode_rejects_truncation_and_trailing_bytes() {
        let frame = Frame::single(1, sample_update());
        let bytes = frame.encode().unwrap();
        for cut in [0, 5, 9, 11, bytes.len() - 1] {
            assert!(
                matches!(Frame::decode(&bytes[..cut]), Err(DecodeError::Truncated { .. })),
                "cut at {cut}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(9);
        assert_eq!(Frame::decode(&extra), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn empty_frame_is_valid() {
        let frame = Frame::new(3);
        let bytes = frame.encode().unwrap();
        assert_eq!(bytes, [3, 0], "a one-byte source id and a zero count");
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        let view = FrameView::parse(&bytes).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.updates().count(), 0);
    }

    #[test]
    fn update_view_agrees_with_owned_decode() {
        let bytes = sample_update().encode().unwrap();
        let view = UpdateView::parse(&bytes).unwrap();
        assert_eq!(*view.get(), Update::decode(&bytes).unwrap());
        assert_eq!(view.bytes, &bytes[..]);
        assert_eq!(view.wire_len(), bytes.len());
        // Every truncation is rejected with the same typed error.
        for cut in 0..bytes.len() {
            assert_eq!(
                UpdateView::parse(&bytes[..cut]).err(),
                Update::decode(&bytes[..cut]).err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn frame_view_iterates_the_batch_without_decoding_to_a_vec() {
        let mut frame = Frame::new(77);
        for i in 0..5u64 {
            let mut u = sample_update();
            u.sequence = i;
            u.state.timestamp = 100.0 + i as f64;
            u.state.link = (i % 2 == 0).then_some(LinkId(42));
            if u.state.link.is_none() {
                u.state.towards = None;
            }
            frame.push(u);
        }
        let bytes = frame.encode().unwrap();
        let view = FrameView::parse(&bytes).unwrap();
        assert_eq!(view.source(), 77);
        assert_eq!(view.update_count(), 5);
        assert_eq!(view.updates().len(), 5);
        let owned = Frame::decode(&bytes).unwrap();
        let viewed: Vec<Update> = view.updates().collect();
        assert_eq!(viewed, owned.updates);
    }

    #[test]
    fn frame_view_rejects_exactly_what_owned_decode_rejects() {
        let frame = Frame::single(1, sample_update());
        let bytes = frame.encode().unwrap();
        // Truncations at every offset and single-byte corruptions at every
        // offset must produce identical verdicts (Frame::decode delegates to
        // FrameView::parse, so this is regression armor for that contract).
        for cut in 0..bytes.len() {
            assert_eq!(
                FrameView::parse(&bytes[..cut]).err(),
                Frame::decode(&bytes[..cut]).err(),
                "cut at {cut}"
            );
            assert!(FrameView::parse(&bytes[..cut]).is_err());
        }
        for at in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0xFF;
            let view = FrameView::parse(&damaged);
            let owned = Frame::decode(&damaged);
            match (view, owned) {
                (Ok(v), Ok(o)) => {
                    assert_eq!(v.updates().collect::<Vec<_>>(), o.updates, "byte {at}")
                }
                (Err(ve), Err(oe)) => assert_eq!(ve, oe, "byte {at}"),
                (v, o) => panic!("byte {at}: view {v:?} vs owned {o:?}"),
            }
        }
    }

    /// A frame of `n` updates of one parked object reporting once a second.
    fn parked_frame(n: u64) -> Frame {
        let mut frame = Frame::new(300);
        for i in 0..n {
            let mut u = sample_update();
            u.sequence = 1_000 + i;
            u.state.timestamp = 100.0 + i as f64;
            frame.push(u);
        }
        frame
    }

    #[test]
    fn repeated_fields_cost_one_byte_each() {
        let frame = parked_frame(8);
        let bytes = frame.encode().unwrap();
        assert_eq!(bytes.len(), frame.encoded_len());
        // The header and the first update in full; after it: head, sequence
        // step, a timestamp step of 1 s (a descriptor and one or two
        // changed bytes), four unchanged floats, and link, towards and arc
        // length unchanged.
        let first = Frame { source: 300, updates: frame.updates[..1].to_vec() };
        let rest = bytes.len() - first.encoded_len();
        assert!((7 * (1 + 1 + 2 + 4 + 3)..=7 * (1 + 1 + 3 + 4 + 3)).contains(&rest), "{rest}");
        let decoded = Frame::decode(&bytes).unwrap();
        assert_eq!(decoded.updates, frame.updates.iter().map(narrowed).collect::<Vec<_>>());
    }

    #[test]
    fn overlong_varints_are_not_canonical() {
        // Source 3 as a two-byte varint, then a zero count.
        assert_eq!(Frame::decode(&[0x83, 0x00, 0x00]), Err(DecodeError::NonCanonical { at: 0 }));
        // Eleven continuation bytes, and a tenth byte past bit 63.
        let mut long = vec![0xFF; 10];
        long.push(0x01);
        assert_eq!(Frame::decode(&long), Err(DecodeError::OutOfRange { at: 0 }));
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        assert_eq!(Frame::decode(&wide), Err(DecodeError::OutOfRange { at: 0 }));
        // u64::MAX is the largest source id and decodes.
        let mut max = vec![0xFF; 9];
        max.extend_from_slice(&[0x01, 0x00]);
        assert_eq!(Frame::decode(&max), Ok(Frame::new(u64::MAX)));
        assert_eq!(FrameView::peek_source(&max), Some(u64::MAX));
    }

    #[test]
    fn non_canonical_trims_and_zero_turn_rates_are_refused() {
        let mut u = sample_update();
        u.state.link = None;
        u.state.towards = None;
        let bytes = Frame::single(1, u).encode().unwrap();
        // Header 2 bytes, head at 2, sequence step at 3, timestamp at 4.
        let timestamp_at = 4;
        assert_eq!(bytes[timestamp_at], 0x02, "100.0 keeps two significant bytes");
        for bad in [0x0F, 0x10, 0x80, 0x79, 0x09] {
            let mut damaged = bytes.clone();
            damaged[timestamp_at] = bad;
            assert_eq!(
                Frame::decode(&damaged),
                Err(DecodeError::NonCanonical { at: timestamp_at }),
                "descriptor {bad:#x}"
            );
        }
        // Widening the trim by a zero byte names a different, longer form.
        let mut padded = bytes[..timestamp_at].to_vec();
        padded.extend_from_slice(&[0x03, 0x40, 0x59, 0x00]);
        padded.extend_from_slice(&bytes[timestamp_at + 3..]);
        assert_eq!(Frame::decode(&padded), Err(DecodeError::NonCanonical { at: timestamp_at }));
        // A turn-rate flag whose turn rate is zero.
        let mut flagged = bytes.clone();
        flagged[2] |= FLAG_HEAD_TURN;
        flagged.push(0x00);
        assert_eq!(Frame::decode(&flagged), Err(DecodeError::NonCanonical { at: bytes.len() }));
        // Undefined head bits and kinds.
        let mut flags = bytes.clone();
        flags[2] |= 0x20;
        assert!(matches!(Frame::decode(&flags), Err(DecodeError::InvalidFlags(_))));
        let mut kind = bytes;
        kind[2] = 0x07;
        assert_eq!(Frame::decode(&kind), Err(DecodeError::InvalidKind(7)));
    }

    #[test]
    fn links_that_come_and_go_are_coded_against_zero() {
        let mut frame = parked_frame(4);
        frame.updates[1].state.link = None;
        frame.updates[1].state.towards = None;
        frame.updates[2].state.towards = None;
        frame.updates[3].state.turn_rate = -0.5;
        let bytes = frame.encode().unwrap();
        assert_eq!(bytes.len(), frame.encoded_len());
        let decoded = Frame::decode(&bytes).unwrap();
        assert_eq!(decoded.updates, frame.updates.iter().map(narrowed).collect::<Vec<_>>());
        assert_eq!(decoded.encode().unwrap(), bytes);
    }
}
