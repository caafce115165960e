//! The version-1 frame layout, decode only: journal segments of format
//! version 1 hold their frames in it. Nothing encodes it any more; live
//! traffic and new segments carry the frame layout of the parent module.
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 8 | source id (`u64`) |
//! | 8 | 2 | update count (`u16`) |
//! | 10 | — | per update: 2-byte length prefix (`u16`) followed by the update in the message layout |

use super::{DecodeError, Frame, Reader, UPDATE_BASE_LEN};
use crate::state::Update;

/// Bytes of a version-1 frame header (source id + update count).
const FRAME_HEADER_LEN: usize = 10;
/// Bytes of each per-update length prefix inside a version-1 frame.
const FRAME_LEN_PREFIX: usize = 2;

/// The source id a version-1 frame's header names, read without validating
/// the rest. `None` if `bytes` is too short to hold the id.
pub fn peek_source(bytes: &[u8]) -> Option<u64> {
    Reader::new(bytes).u64().ok()
}

/// Decodes a version-1 frame from exactly `bytes`. Never panics: truncated
/// or corrupted buffers report a typed [`DecodeError`], and the claimed
/// count preallocates no more updates than the bytes could hold.
pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
    let mut reader = Reader::new(bytes);
    let source = reader.u64()?;
    let count = reader.u16()?;
    let max_plausible =
        bytes.len().saturating_sub(FRAME_HEADER_LEN) / (FRAME_LEN_PREFIX + UPDATE_BASE_LEN);
    let mut updates = Vec::with_capacity(usize::from(count).min(max_plausible));
    for _ in 0..count {
        let len = usize::from(reader.u16()?);
        updates.push(Update::decode(reader.take(len)?)?);
    }
    if reader.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(reader.remaining()));
    }
    Ok(Frame { source, updates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ObjectState, UpdateKind};
    use mbdr_geo::Point;
    use mbdr_roadnet::{LinkId, NodeId};

    /// A version-1 frame as the builds before frame version 2 wrote it.
    fn v1_bytes(source: u64, updates: &[Update]) -> Vec<u8> {
        let mut bytes = source.to_be_bytes().to_vec();
        bytes.extend_from_slice(&(updates.len() as u16).to_be_bytes());
        for update in updates {
            let encoded = update.encode().unwrap();
            bytes.extend_from_slice(&(encoded.len() as u16).to_be_bytes());
            bytes.extend_from_slice(&encoded);
        }
        bytes
    }

    fn updates() -> Vec<Update> {
        let mut state = ObjectState::basic(Point::new(1.5, -2.0), 13.0, 0.5, 40.0);
        let plain = Update { sequence: 4, state, kind: UpdateKind::DeviationBound };
        state.link = Some(LinkId(9));
        state.towards = Some(NodeId(3));
        state.arc_length = 12.0;
        state.turn_rate = 0.25;
        let mapped = Update { sequence: 5, state, kind: UpdateKind::ModeChange };
        vec![plain, mapped]
    }

    #[test]
    fn version_1_frames_decode_to_their_updates() {
        let bytes = v1_bytes(77, &updates());
        assert_eq!(peek_source(&bytes), Some(77));
        assert_eq!(decode(&bytes), Ok(Frame { source: 77, updates: updates() }));
        // The same updates in a current frame decode to the same values.
        let current = Frame { source: 77, updates: updates() }.encode().unwrap();
        assert_eq!(Frame::decode(&current), decode(&bytes));
    }

    #[test]
    fn damaged_version_1_frames_report_typed_errors() {
        let bytes = v1_bytes(77, &updates());
        for cut in 0..bytes.len() {
            assert!(matches!(decode(&bytes[..cut]), Err(DecodeError::Truncated { .. })));
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(decode(&extra), Err(DecodeError::TrailingBytes(1)));
        // A ten-byte frame claiming 0xFFFF updates fails without reserving
        // for the claim.
        let mut hostile = 7u64.to_be_bytes().to_vec();
        hostile.extend_from_slice(&u16::MAX.to_be_bytes());
        assert!(matches!(decode(&hostile), Err(DecodeError::Truncated { .. })));
        assert_eq!(peek_source(&hostile[..7]), None);
    }
}
