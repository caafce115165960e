//! Readers of the on-disk formats older than [`JOURNAL_VERSION`], called
//! only by a recovery pass (`durable.rs`). Journal segments of format
//! version 1 hold frames of the version-1 layout (`docs/WIRE.md`, "Version-1
//! frames"); recovery re-encodes them in the current layout and replays them
//! like any other, and its upgrade snapshot then compacts every older file
//! away, so this code runs at most once per directory.

use mbdr_core::{Frame, Update};
use mbdr_journal::{Records, JOURNAL_VERSION};

/// Bytes of a version-1 frame header (source id `u64`, update count `u16`).
const FRAME_HEADER_LEN: usize = 10;
/// Bytes of the `u16` length prefix of each update in a version-1 frame.
const FRAME_LEN_PREFIX: usize = 2;

/// The frames of `records` in the current layout if their segment was
/// written in an older format version, in journal order; `None` for a
/// current segment, whose frames replay as they are. A frame that fails to
/// decode or to re-encode becomes an empty one, which fails the current
/// decoder the same way.
pub(crate) fn current_frames(records: &Records<'_>) -> Option<Vec<Vec<u8>>> {
    (records.version() < JOURNAL_VERSION).then(|| {
        let reencode = |(_, bytes)| decode_v1(bytes).and_then(|frame| frame.encode().ok());
        records.clone().map(|record| reencode(record).unwrap_or_default()).collect()
    })
}

/// Decodes a version-1 frame from exactly `bytes`; `None` for one that is
/// truncated, holds an update that fails [`Update::decode`], or has bytes
/// left over. Updates are gathered as they decode, so the claimed count
/// reserves nothing.
fn decode_v1(bytes: &[u8]) -> Option<Frame> {
    let source = u64::from_be_bytes(bytes.get(..8)?.try_into().ok()?);
    let count = u16::from_be_bytes(bytes.get(8..FRAME_HEADER_LEN)?.try_into().ok()?);
    let mut rest = bytes.get(FRAME_HEADER_LEN..)?;
    let updates = (0..count).map(|_| {
        let (prefix, after) = rest.split_at_checked(FRAME_LEN_PREFIX)?;
        let len = usize::from(u16::from_be_bytes(prefix.try_into().ok()?));
        let (update, after) = after.split_at_checked(len)?;
        rest = after;
        Update::decode(update).ok()
    });
    let updates = updates.collect::<Option<Vec<Update>>>()?;
    rest.is_empty().then_some(Frame { source, updates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_core::{ObjectState, UpdateKind};
    use mbdr_geo::Point;

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

    /// A plain update and a mapped one, each as [`Update::decode`] gives it.
    fn updates() -> Vec<Update> {
        let state = ObjectState::basic(Point::new(1.5, -2.0), 13.0, 0.5, 40.0);
        let plain = Update { sequence: 4, state, kind: UpdateKind::DeviationBound };
        // On link 9 towards node 3, 12 m along it, turning at 0.25 rad/s:
        // both flags set, the link fields and the turn rate behind them.
        let mut mapped = Update { sequence: 5, kind: UpdateKind::ModeChange, ..plain };
        let mut bytes = mapped.encode().unwrap();
        bytes[41] = 0b11;
        bytes.extend_from_slice(&9u32.to_be_bytes());
        bytes.extend_from_slice(&12f32.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&0.25f32.to_be_bytes());
        mapped = Update::decode(&bytes).unwrap();
        assert!(mapped.state.link.is_some() && mapped.state.turn_rate == 0.25);
        vec![Update::decode(&plain.encode().unwrap()).unwrap(), mapped]
    }

    #[test]
    fn version_1_frames_decode_to_their_updates() {
        let bytes = v1_bytes(77, &updates());
        let frame = decode_v1(&bytes).unwrap();
        assert_eq!(frame, Frame { source: 77, updates: updates() });
        // Re-encoded in the current layout, it decodes to the same values.
        assert_eq!(Frame::decode(&frame.encode().unwrap()), Ok(frame));
    }

    #[test]
    fn damaged_version_1_frames_decode_to_nothing() {
        let bytes = v1_bytes(77, &updates());
        for cut in 0..bytes.len() {
            assert_eq!(decode_v1(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(decode_v1(&extra), None);
        // A ten-byte frame claiming 0xFFFF updates fails without reserving
        // for the claim.
        let mut hostile = 7u64.to_be_bytes().to_vec();
        hostile.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_v1(&hostile), None);
    }
}
