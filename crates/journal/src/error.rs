//! Typed errors for journal open/append/replay/snapshot paths.
//!
//! The journal never panics on corrupt input: torn tails are repaired by
//! truncation during [`crate::Journal::open`], and everything that cannot be
//! repaired safely (I/O failures, format versions from the future,
//! inconsistencies discovered after open) surfaces as a [`JournalError`].

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Error type for all fallible journal operations.
#[derive(Debug)]
pub enum JournalError {
    /// An operating-system I/O error (open, read, write, fsync, rename).
    Io(io::Error),
    /// A segment or snapshot file carries a format version newer than this
    /// build understands. The file is left untouched: deleting or truncating
    /// data written by a newer build would destroy state we cannot interpret.
    UnsupportedVersion {
        /// File that declared the version.
        path: PathBuf,
        /// Version found in the file header.
        version: u16,
        /// Highest version this build supports.
        supported: u16,
    },
    /// A structural inconsistency was found after open-time repair, e.g. a
    /// record that validated at open fails its checksum during replay. This
    /// indicates concurrent external modification or hardware corruption.
    /// Also returned by open, before any repair, when the log starts above
    /// the newest valid snapshot: the frames in between exist nowhere.
    Corrupt {
        /// File in which the inconsistency was found.
        path: PathBuf,
        /// Byte offset of the first bad byte.
        offset: u64,
        /// Human-readable description of the failed check.
        reason: &'static str,
    },
    /// `append_frame` was handed a frame larger than
    /// [`crate::MAX_RECORD_BYTES`]; nothing was written.
    RecordTooLarge {
        /// Length of the rejected frame in bytes.
        len: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(err) => write!(f, "journal i/o error: {err}"),
            JournalError::UnsupportedVersion { path, version, supported } => write!(
                f,
                "{} has format version {version} but this build supports <= {supported}",
                path.display()
            ),
            JournalError::Corrupt { path, offset, reason } => {
                write!(f, "{} corrupt at byte {offset}: {reason}", path.display())
            }
            JournalError::RecordTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the journal record limit")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(err: io::Error) -> Self {
        JournalError::Io(err)
    }
}

impl From<JournalError> for io::Error {
    fn from(err: JournalError) -> Self {
        match err {
            JournalError::Io(inner) => inner,
            other => io::Error::other(other),
        }
    }
}
