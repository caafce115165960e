//! Segmented write-ahead frame journal with snapshots and crash recovery.
//!
//! The MBDR serving stack treats the dead-reckoning **wire frame** as the
//! authoritative record of fleet state, which makes it the natural durability
//! unit: this crate persists the exact bytes the network reactor already
//! parsed, so steady-state journaling is an append of a borrowed slice — no
//! re-encode, no hot-path allocation.
//!
//! # On-disk layout
//!
//! A journal directory holds two kinds of files (byte-level spec in
//! `docs/WIRE.md`):
//!
//! * **Segments** (`seg-<base>.mbdrj`): an 18-byte header
//!   ([`SEGMENT_MAGIC`], format version, base frame index) followed by
//!   length-prefixed, CRC-32-checksummed records, one wire frame each.
//!   Segments rotate at [`JournalConfig::segment_max_bytes`] and at every
//!   snapshot grant, so a segment starts at each snapshot's frame count.
//! * **Snapshots** (`snap-<frames>.mbdrs`): a single checksummed blob encoding
//!   full tracker state (via `mbdr-core`'s snapshot codec) as of a frame
//!   count. Installing a snapshot compacts every segment that lies entirely
//!   below it — every segment before the one its grant started, so no
//!   retained segment holds a frame the snapshot covers.
//!
//! # Crash safety
//!
//! [`Journal::open`] repairs a torn tail by truncating at the first invalid
//! record and discarding unreachable later segments (counted in
//! [`JournalStatsSnapshot::truncated_bytes`]); a corrupt snapshot is ignored
//! in favor of replaying the retained log when that log still reaches back
//! past it, and is a typed [`JournalError::Corrupt`] refusal (no file
//! touched) when compaction already deleted the frames it covered. Segments
//! a crash left behind between a snapshot's rename and its compaction are
//! never read and are deleted at open. A log that ends below the snapshot (a
//! tail torn below its frame count, in a journal written before grants
//! started segments) is wholly covered by it: its segments are dropped and
//! appends continue in a fresh segment at the snapshot's frame count. Every
//! new segment and every
//! snapshot rename is followed by a directory sync ([`Vfs::sync_dir`]), the
//! rename before compaction unlinks anything. Recovery is
//! snapshot-restore-then-replay, and replayed frames pass through the same
//! staleness-aware apply rules as live traffic, so duplicates are harmless;
//! [`Journal::open_and_recover`] hands the recovering caller the bytes the
//! open scan checksummed, so each retained byte is read and checksummed
//! once. All failure modes are typed [`JournalError`]s — the crate never
//! panics on corrupt input.
//!
//! Durability is tunable via [`FsyncPolicy`] (per-batch — a batch of one
//! syncs every frame — or timer-based fsync). The crate is std-only.
//!
//! # Fault injection
//!
//! All disk access goes through the [`Vfs`] storage seam. Production code
//! uses the passthrough [`RealFs`]; tests and the `faults` benchmark workload
//! open the journal with [`Journal::open_with_vfs`] over a [`FaultFs`] — a
//! seeded, schedule-driven wrapper that injects fsync failures, torn writes,
//! `ENOSPC`, and rename failures at exact operation counts, making every
//! corruption shape reproducible from a seed. [`Journal::repair_and_sync`]
//! is the disk-side half of degraded-mode recovery: it restores a clean,
//! synced, appendable tail once a dying disk heals.

#![forbid(unsafe_code)]
// Panic-free by construction: every byte this crate reads came off a disk
// that may be torn or corrupt, so it answers with typed errors.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod error;
mod journal;
mod stats;
mod vfs;

pub use error::JournalError;
pub use journal::{
    FsyncPolicy, Journal, JournalConfig, Records, Retained, JOURNAL_VERSION, MAX_RECORD_BYTES,
    RECORD_HEADER_LEN, SEGMENT_FILE_SUFFIX, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
    SNAPSHOT_FILE_SUFFIX, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC,
};
pub use stats::{Histogram, HistogramSnapshot, JournalStatsSnapshot};
pub use vfs::{FaultFs, FaultKind, RealFs, Vfs, VfsFile};
