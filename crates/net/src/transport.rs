//! Length-prefixed message framing over a byte stream.
//!
//! TCP is a byte stream, so the serving layer delimits messages with a
//! 4-byte big-endian length prefix followed by the message body (a kind byte
//! plus payload, see `mbdr_core::wire::query`). The length is the first
//! untrusted field a hostile peer controls: [`read_message`] refuses
//! prefixes above the configured cap *before* allocating, so a 4 GiB claim
//! costs the server four bytes of reading and one typed error, not memory.

use crate::error::NetError;
use std::io::{Read, Write};

/// Default per-message size cap: far above any legitimate frame or response
/// (a full 65 535-update frame is under 4 MiB only for pathological batches;
/// real frames are a few hundred bytes) while keeping hostile allocations
/// bounded.
pub(crate) const DEFAULT_MAX_MESSAGE_BYTES: u32 = 1 << 20;

/// Writes one length-prefixed message and flushes. Returns the bytes put on
/// the wire (prefix + body).
pub fn write_message(writer: &mut impl Write, body: &[u8]) -> std::io::Result<u64> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "message body exceeds u32")
    })?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(body)?;
    writer.flush()?;
    Ok(4 + body.len() as u64)
}

/// Reads one length-prefixed message.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly at a
/// message boundary. A prefix of zero (no room for the kind byte) or above
/// `max` reports a typed error without reading or allocating the body; EOF
/// in the middle of a message surfaces as [`NetError::Io`].
pub fn read_message(reader: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, NetError> {
    let mut body = Vec::new();
    Ok(read_message_into(reader, max, &mut body)?.then_some(body))
}

/// Reads one length-prefixed message into a caller-provided buffer — the
/// reusable-buffer form of [`read_message`] both ends of a connection loop
/// on: once the buffer has grown to the connection's largest message, reads
/// allocate nothing.
///
/// Returns `Ok(false)` (buffer cleared) when the peer closed the connection
/// cleanly at a message boundary, `Ok(true)` with the body in `buf`
/// otherwise. Error behaviour is identical to [`read_message`], and the size
/// cap still bounds what a hostile prefix can make the buffer grow to.
pub fn read_message_into(
    reader: &mut impl Read,
    max: u32,
    buf: &mut Vec<u8>,
) -> Result<bool, NetError> {
    buf.clear();
    let mut prefix = [0u8; 4];
    let (first, rest) = prefix.split_at_mut(1);
    // The first byte distinguishes a clean close from a truncated message
    // (read_exact cannot: it maps both to UnexpectedEof). Retry EINTR like
    // read_exact does, so a signal landing on an idle connection does not
    // tear it down.
    loop {
        match reader.read(first) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    reader.read_exact(rest)?;
    let len = u32::from_be_bytes(prefix);
    if len == 0 {
        return Err(NetError::Decode(mbdr_core::DecodeError::Truncated {
            needed: 1,
            available: 0,
        }));
    }
    if len > max {
        return Err(NetError::Oversized { len, max });
    }
    buf.resize(len as usize, 0);
    reader.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn messages_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_message(&mut wire, b"hello").unwrap();
        write_message(&mut wire, &[0xFF; 3]).unwrap();
        let mut reader = Cursor::new(wire);
        assert_eq!(read_message(&mut reader, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_message(&mut reader, 1024).unwrap().unwrap(), vec![0xFF; 3]);
        assert!(read_message(&mut reader, 1024).unwrap().is_none(), "clean EOF at a boundary");
    }

    #[test]
    fn reusable_buffer_reads_match_and_clear_stale_contents() {
        let mut wire = Vec::new();
        write_message(&mut wire, b"hello").unwrap();
        write_message(&mut wire, b"yo").unwrap();
        let mut reader = Cursor::new(wire);
        let mut buf = b"stale-bytes".to_vec();
        assert!(read_message_into(&mut reader, 1024, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_message_into(&mut reader, 1024, &mut buf).unwrap());
        assert_eq!(buf, b"yo", "shrinking messages must not keep stale tail bytes");
        assert!(!read_message_into(&mut reader, 1024, &mut buf).unwrap());
        assert!(buf.is_empty(), "clean EOF clears the buffer");
    }

    #[test]
    fn oversized_prefix_is_refused_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        // No body follows — if the reader tried to allocate or read it, this
        // would error differently (or OOM); the cap must trip first.
        match read_message(&mut Cursor::new(wire), 1 << 20) {
            Err(NetError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1 << 20);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_and_truncated_messages_report_typed_errors() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u32.to_be_bytes());
        assert!(matches!(read_message(&mut Cursor::new(wire), 1024), Err(NetError::Decode(_))));
        // A prefix promising 10 bytes with only 3 behind it: EOF mid-message.
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_be_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(read_message(&mut Cursor::new(wire), 1024), Err(NetError::Io(_))));
        // A truncated prefix itself is also EOF mid-message.
        assert!(matches!(read_message(&mut Cursor::new(vec![0u8; 2]), 1024), Err(NetError::Io(_))));
    }
}
