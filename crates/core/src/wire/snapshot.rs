//! Durability-snapshot codec: full tracker state as a wire document.
//!
//! `mbdr-journal` persists snapshots as opaque checksummed blobs; this module
//! defines what is inside the blob, using the same codec discipline as the
//! rest of the wire layer — big-endian fields, one-byte record kinds, typed
//! [`DecodeError`]s, and no panics on truncation or garbage.
//!
//! ## Body layout
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `frames` | `u64` | journal frames the snapshot covers |
//! | entries | — | one [`SnapshotEntry`] per tracked object (see below) |
//! | end marker | `u8` | [`KIND_SNAP_END`] |
//! | `count` | `u64` | number of entries, cross-checked on decode |
//!
//! ## Entry layout (kind byte, then the payload)
//!
//! | field | type | meaning |
//! |---|---|---|
//! | kind | `u8` | [`KIND_SNAP_OBJECT`] |
//! | `object` | `u64` | object id |
//! | `updates_applied` | `u64` | tracker counter at snapshot time |
//! | `bytes_received` | `u64` | tracker counter at snapshot time |
//! | update length | `u16` | bytes of the encoded update that follows |
//! | update | — | the tracker's last applied [`Update`], standard encoding |
//!
//! Because snapshotted state arrived through the wire decoder in the first
//! place (floats already `f32`-narrowed by the update codec), re-encoding it
//! here is lossless: restore-from-snapshot followed by tail replay reproduces
//! the exact tracker state of an uninterrupted server.
//!
//! Encoders must emit entries sorted by object id so that snapshot bytes are
//! deterministic for identical state; `decode_snapshot` does not re-sort.

use super::{DecodeError, EncodeError, Reader, UPDATE_BASE_LEN};
use crate::state::Update;

/// Record kind for one tracked object's state in a snapshot body.
pub const KIND_SNAP_OBJECT: u8 = 0x01;
/// Record kind terminating a snapshot body (followed by the entry count).
pub const KIND_SNAP_END: u8 = 0x02;

wire_kinds! {
    /// The kind byte each snapshot-body record starts with.
    pub enum SnapshotRecordKind {
        /// One tracked object's state ([`KIND_SNAP_OBJECT`]).
        Object = KIND_SNAP_OBJECT,
        /// The end marker ([`KIND_SNAP_END`]).
        End = KIND_SNAP_END,
    }
}

/// One tracked object's durable state: the last applied update plus the
/// tracker's monotonic counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotEntry {
    /// Object id (the update frame's source id).
    pub object: u64,
    /// `ServerTracker::updates_applied` at snapshot time.
    pub updates_applied: u64,
    /// `ServerTracker::bytes_received` at snapshot time.
    pub bytes_received: u64,
    /// The last update the tracker applied (carries the position state and
    /// the sequence number the staleness check resumes from).
    pub update: Update,
}

/// Encodes a snapshot body covering `frames` journal frames into `buf`.
///
/// `entries` must already be sorted by object id (the caller owns iteration
/// order; sorting here would hide nondeterministic collection orders).
pub fn encode_snapshot_into(
    frames: u64,
    entries: &[SnapshotEntry],
    buf: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    // One exact reservation: a 100k-object body is ~7 MB, and growing to
    // that by doubling copies it several times over.
    buf.reserve(encoded_snapshot_len(entries));
    buf.extend_from_slice(&frames.to_be_bytes());
    for entry in entries {
        buf.push(KIND_SNAP_OBJECT);
        buf.extend_from_slice(&entry.object.to_be_bytes());
        buf.extend_from_slice(&entry.updates_applied.to_be_bytes());
        buf.extend_from_slice(&entry.bytes_received.to_be_bytes());
        let len = entry.update.encoded_len();
        // An update is at most UPDATE_BASE_LEN + LINK_FIELDS_LEN +
        // TURN_FIELD_LEN = 58 bytes, so the u16 length prefix cannot overflow;
        // guard anyway so a future format change fails loudly instead of
        // truncating silently.
        if len > u16::MAX as usize {
            return Err(EncodeError::FrameTooLarge(len));
        }
        buf.extend_from_slice(&(len as u16).to_be_bytes());
        entry.update.encode_into(buf)?;
    }
    buf.push(KIND_SNAP_END);
    buf.extend_from_slice(&(entries.len() as u64).to_be_bytes());
    Ok(())
}

/// Exact size of the body [`encode_snapshot_into`] writes for `entries`.
fn encoded_snapshot_len(entries: &[SnapshotEntry]) -> usize {
    // Per entry: kind, object id, two counters and the update length ahead
    // of the update; around them `frames`, the end marker and the count.
    let entries_len: usize =
        entries.iter().map(|e| 1 + 8 + 8 + 8 + 2 + e.update.encoded_len()).sum();
    8 + entries_len + 1 + 8
}

/// Decodes a snapshot body, returning the covered frame count and the entries
/// in their encoded order.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Vec<SnapshotEntry>), DecodeError> {
    // The end marker's count is the body's last eight bytes: reserve for it
    // up front, one allocation instead of a doubling chain. The count is
    // untrusted until the walk cross-checks it, so the reservation is capped
    // by what the body could hold at the smallest record size.
    let claimed =
        bytes.len().checked_sub(8).and_then(|at| Reader::new(bytes.get(at..)?).u64().ok());
    let plausible = bytes.len() / (1 + 8 + 8 + 8 + 2 + UPDATE_BASE_LEN);
    let mut entries = Vec::with_capacity(claimed.map_or(0, |n| n.min(plausible as u64) as usize));
    let mut reader = Reader::new(bytes);
    let frames = reader.u64()?;
    loop {
        match SnapshotRecordKind::try_from(reader.u8()?)? {
            SnapshotRecordKind::End => {
                let count = reader.u64()?;
                if reader.remaining() != 0 {
                    return Err(DecodeError::TrailingBytes(reader.remaining()));
                }
                if count != entries.len() as u64 {
                    // The end marker's cross-check disagrees with what we
                    // walked: structural corruption inside a checksummed blob.
                    return Err(DecodeError::InvalidKind(KIND_SNAP_END));
                }
                return Ok((frames, entries));
            }
            SnapshotRecordKind::Object => {
                let object = reader.u64()?;
                let updates_applied = reader.u64()?;
                let bytes_received = reader.u64()?;
                let len = reader.u16()? as usize;
                let update = Update::decode(reader.take(len)?)?;
                entries.push(SnapshotEntry { object, updates_applied, bytes_received, update });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ObjectState, UpdateKind};
    use mbdr_geo::Point;

    fn entry(object: u64, seq: u64, t: f64, x: f64) -> SnapshotEntry {
        SnapshotEntry {
            object,
            updates_applied: seq + 1,
            bytes_received: (seq + 1) * 42,
            update: Update {
                sequence: seq,
                state: ObjectState::basic(Point::new(x, -x), 12.5, 0.25, t),
                kind: UpdateKind::DeviationBound,
            },
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let entries = [entry(1, 4, 100.0, 10.0), entry(7, 9, 250.0, -3.0)];
        // Narrow through the wire codec once so float fields are exactly what
        // a journaled server would hold (the update codec stores f32 floats).
        let narrowed: Vec<SnapshotEntry> = entries
            .iter()
            .map(|e| SnapshotEntry {
                update: Update::decode(&e.update.encode().unwrap()).unwrap(),
                ..*e
            })
            .collect();
        let mut buf = Vec::new();
        encode_snapshot_into(77, &narrowed, &mut buf).unwrap();
        let (frames, decoded) = decode_snapshot(&buf).unwrap();
        assert_eq!(frames, 77);
        assert_eq!(decoded, narrowed);
        // The decoder reserved for the end marker's count, exactly.
        assert_eq!(decoded.capacity(), narrowed.len());
        // The encoder's up-front reservation is the exact body size.
        assert_eq!(buf.len(), encoded_snapshot_len(&narrowed));
        // The body carries every record kind: an object record right after
        // `frames`, the end marker ahead of the 8-byte count.
        let kinds = [buf[8], buf[buf.len() - 9]].map(|b| SnapshotRecordKind::try_from(b).unwrap());
        assert_eq!(kinds, SnapshotRecordKind::ALL);
        // Determinism: encoding the decoded entries reproduces the bytes.
        let mut buf2 = Vec::new();
        encode_snapshot_into(77, &decoded, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn a_lying_end_count_reserves_no_more_than_the_body_holds() {
        let mut buf = Vec::new();
        encode_snapshot_into(3, &[entry(1, 4, 100.0, 10.0)], &mut buf).unwrap();
        let at = buf.len() - 8;
        buf[at..].copy_from_slice(&u64::MAX.to_be_bytes());
        // The walk's cross-check refuses the count; the reservation ahead of
        // it was capped at what the body could hold, not u64::MAX entries.
        assert_eq!(decode_snapshot(&buf), Err(DecodeError::InvalidKind(KIND_SNAP_END)));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let mut buf = Vec::new();
        encode_snapshot_into(0, &[], &mut buf).unwrap();
        let (frames, decoded) = decode_snapshot(&buf).unwrap();
        assert_eq!(frames, 0);
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncation_and_garbage_yield_typed_errors() {
        let mut buf = Vec::new();
        encode_snapshot_into(5, &[entry(1, 0, 10.0, 1.0)], &mut buf).unwrap();
        // Every prefix either decodes as truncated or structurally invalid —
        // never panics, never succeeds.
        for cut in 0..buf.len() {
            assert!(decode_snapshot(&buf[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Trailing garbage is rejected.
        let mut padded = buf.clone();
        padded.push(0xAA);
        assert!(decode_snapshot(&padded).is_err());
        // An unknown record kind is rejected.
        let mut bad_kind = buf.clone();
        bad_kind[8] = 0x7F;
        assert_eq!(decode_snapshot(&bad_kind), Err(DecodeError::InvalidKind(0x7F)));
        // A lying end-marker count is rejected.
        let mut bad_count = buf;
        let last = bad_count.len() - 1;
        bad_count[last] ^= 0x01;
        assert_eq!(decode_snapshot(&bad_count), Err(DecodeError::InvalidKind(KIND_SNAP_END)));
    }
}
