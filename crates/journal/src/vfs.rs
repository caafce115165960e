//! The storage seam: a minimal virtual-filesystem trait the journal performs
//! every disk operation through, with a passthrough [`RealFs`] (the default —
//! behavior and the zero-allocation append hot path are unchanged) and a
//! seeded, schedule-driven [`FaultFs`] that injects fsync failures, torn
//! writes, `ENOSPC`, and rename failures at exact operation counts.
//!
//! Determinism contract: [`FaultFs`] assigns one monotonically increasing
//! *operation index* to every disk-mutating call (`write_all`, `sync_data`,
//! `sync_all`, `set_len`, `create`, `create_new_append`, `rename`,
//! `remove_file`, `truncate`) in the order they happen. A schedule maps
//! indices to [`FaultKind`]s, so a fault schedule derived from a seed replays
//! byte-identically on every run. The journal hands the file one `write_all`
//! per appended record (header and payload together), so an append without a
//! due fsync consumes exactly one index. Read-side operations (`read`,
//! `read_dir_names`, `file_len`, `open_append`, `create_dir_all`,
//! `now_nanos`) never consume indices and never fail by injection: this
//! models a disk whose write path is failing while already-written data still
//! reads back, which keeps recovery scans well-defined mid-schedule.
//! `sync_dir` consumes no index either, so adding directory syncs moved no
//! schedule; it fails only while the disk is dead.
//!
//! The clock also lives on the seam: [`Vfs::now_nanos`] backs
//! [`crate::FsyncPolicy::Timer`], so [`FaultFs::advance_clock`] can drive the
//! timer branch deterministically in tests.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// An open, append-positioned file handle behind the storage seam.
pub trait VfsFile: Send {
    /// Writes the whole buffer at the current position (append semantics).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`: flushes file data (not necessarily metadata) to disk.
    fn sync_data(&self) -> io::Result<()>;
    /// `fsync`: flushes file data and metadata to disk.
    fn sync_all(&self) -> io::Result<()>;
    /// Truncates (or extends) the file to exactly `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// The set of filesystem operations the journal is allowed to perform. Object
/// safe so a [`crate::Journal`] can hold `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Opens an existing file for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates a new file for appending; fails if it already exists.
    fn create_new_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates (truncating if present) a file for writing, e.g. a snapshot
    /// temp file that is later renamed into place.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads the whole file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Returns the file names (not paths) of `dir`'s entries, in whatever
    /// order the OS yields them; callers sort.
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Truncates the file at `path` to `len` bytes via a fresh handle.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Size of the file at `path` in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// `fsync` of the directory itself, so the entries a `create`, `rename`
    /// or `remove_file` changed survive a power cut.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Monotonic clock reading in nanoseconds; backs
    /// [`crate::FsyncPolicy::Timer`].
    fn now_nanos(&self) -> u64;
}

/// The production implementation: thin passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

struct RealFile(std::fs::File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }
    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

fn real_now_nanos() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let elapsed = START.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

impl Vfs for RealFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn create_new_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new().create_new(true).append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }
    fn now_nanos(&self) -> u64 {
        real_now_nanos()
    }
}

/// One injectable failure shape, applied at an exact operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The targeted `sync_data`/`sync_all` fails; already-buffered writes stay
    /// on disk. On a non-sync operation this degenerates to a clean failure
    /// with no bytes written.
    FailFsync,
    /// A `write_all` persists only the first `keep` bytes, then fails — and
    /// the *next* `set_len` on that file fails once too, so the journal's
    /// rollback cannot hide the torn bytes (the crash-consistent shape).
    TornWrite {
        /// Bytes of the buffer that do reach the disk.
        keep: usize,
    },
    /// A `write_all` persists only the first `keep` bytes, then fails, and the
    /// disk keeps taking operations — it filled up mid-write. Unlike
    /// [`FaultKind::TornWrite`] the journal's own rollback gets to run.
    ShortWrite {
        /// Bytes of the buffer that do reach the disk.
        keep: usize,
    },
    /// A `write_all` silently persists the buffer with its last byte XORed by
    /// `mask` and reports success: lying firmware / in-flight bit rot. The
    /// corruption is only discovered by checksums at reopen.
    BitFlip {
        /// XOR mask applied to the final byte (use a nonzero mask).
        mask: u8,
    },
    /// The operation fails with [`io::ErrorKind::StorageFull`] before writing
    /// anything.
    NoSpace,
    /// The targeted `rename` fails; on other operations this degenerates to a
    /// clean failure with no bytes written.
    FailRename,
}

struct FaultState {
    ops: AtomicU64,
    schedule: Mutex<Vec<(u64, FaultKind)>>,
    dead: AtomicBool,
    injected: AtomicU64,
    clock_nanos: AtomicU64,
    torn_rollback: AtomicBool,
}

impl FaultState {
    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    fn take_fault(&self, op: u64) -> Option<FaultKind> {
        let mut schedule = self.schedule.lock();
        let at = schedule.iter().position(|(when, _)| *when == op)?;
        Some(schedule.remove(at).1)
    }

    fn inject(&self, what: &'static str) -> io::Error {
        self.injected.fetch_add(1, Ordering::Relaxed);
        io::Error::other(what)
    }

    fn inject_full(&self) -> io::Error {
        self.injected.fetch_add(1, Ordering::Relaxed);
        io::Error::new(io::ErrorKind::StorageFull, "injected: no space left on device")
    }

    /// Injection decision for an operation that, when faulted, simply fails
    /// cleanly (no partial effects): returns the error to report, if any.
    fn gate(&self, op: u64, what: &'static str) -> Option<io::Error> {
        match self.take_fault(op) {
            Some(FaultKind::NoSpace) => Some(self.inject_full()),
            Some(_) => Some(self.inject(what)),
            None if self.dead.load(Ordering::Relaxed) => Some(self.inject(what)),
            None => None,
        }
    }
}

/// A seeded, schedule-driven fault-injecting [`Vfs`] wrapper.
///
/// Clone handles share one schedule and operation counter, so a test can keep
/// a control handle while the journal owns the `Arc<dyn Vfs>` view:
///
/// ```
/// use mbdr_journal::{FaultFs, FaultKind, Journal, JournalConfig, RealFs};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!("mbdr-vfs-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let faults = FaultFs::new(Arc::new(RealFs));
/// faults.set_dead(true); // every mutating operation now fails cleanly
/// let journal = Journal::open_with_vfs(JournalConfig::new(&dir), Arc::new(faults.clone()));
/// assert!(journal.is_err(), "creating the first segment needs a live disk");
/// let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Clone)]
pub struct FaultFs {
    inner: Arc<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultFs {
    /// Wraps `inner`, starting with an empty schedule, a live disk, and the
    /// deterministic clock at zero.
    pub fn new(inner: Arc<dyn Vfs>) -> FaultFs {
        FaultFs {
            inner,
            state: Arc::new(FaultState {
                ops: AtomicU64::new(0),
                schedule: Mutex::new(Vec::new()),
                dead: AtomicBool::new(false),
                injected: AtomicU64::new(0),
                clock_nanos: AtomicU64::new(0),
                torn_rollback: AtomicBool::new(false),
            }),
        }
    }

    /// Convenience constructor over [`RealFs`].
    pub fn over_real() -> FaultFs {
        FaultFs::new(Arc::new(RealFs))
    }

    /// Arms `kind` to fire at exactly the `op`-th mutating operation
    /// (0-based; see the module docs for which operations count).
    pub fn schedule_fault(&self, op: u64, kind: FaultKind) {
        self.state.schedule.lock().push((op, kind));
    }

    /// Derives `count` faults from `seed` alone, each at an operation index in
    /// `[first_op, first_op + span)`, cycling through the five crash-time
    /// [`FaultKind`] shapes (every one but `ShortWrite`, which the journal's
    /// own rollback undoes). The same seed always produces the same schedule.
    pub fn schedule_from_seed(&self, seed: u64, first_op: u64, span: u64, count: u32) {
        let mut state = seed;
        let span = span.max(1);
        let mut schedule = self.state.schedule.lock();
        for _ in 0..count {
            let op = first_op + splitmix64(&mut state) % span;
            let draw = splitmix64(&mut state);
            let kind = match draw % 5 {
                0 => FaultKind::FailFsync,
                1 => FaultKind::TornWrite { keep: ((draw >> 3) % 17) as usize },
                2 => FaultKind::BitFlip { mask: (((draw >> 11) as u8) | 1) },
                3 => FaultKind::NoSpace,
                _ => FaultKind::FailRename,
            };
            schedule.push((op, kind));
        }
    }

    /// Kills (`true`) or heals (`false`) the write path: while dead, every
    /// mutating operation fails cleanly; reads still succeed.
    pub fn set_dead(&self, dead: bool) {
        self.state.dead.store(dead, Ordering::Relaxed);
    }

    /// Operation indices consumed so far (the next mutating call gets this
    /// index).
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::Relaxed)
    }

    /// Faults injected so far (scheduled hits plus dead-disk refusals).
    pub fn injected_faults(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }

    /// Scheduled faults that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.state.schedule.lock().len()
    }

    /// Advances the deterministic clock read by [`Vfs::now_nanos`].
    pub fn advance_clock(&self, by: Duration) {
        let nanos = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        self.state.clock_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
}

impl VfsFile for FaultFile {
    #[expect(clippy::indexing_slicing, reason = "`keep` is clamped to buf.len()")]
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let op = self.state.next_op();
        match self.state.take_fault(op) {
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                self.state.torn_rollback.store(true, Ordering::Relaxed);
                Err(self.state.inject("injected: torn write"))
            }
            Some(FaultKind::ShortWrite { keep }) => {
                self.inner.write_all(&buf[..keep.min(buf.len())])?;
                Err(self.state.inject("injected: short write"))
            }
            Some(FaultKind::BitFlip { mask }) => {
                let mut copy = buf.to_vec();
                if let Some(last) = copy.last_mut() {
                    *last ^= mask;
                }
                self.state.injected.fetch_add(1, Ordering::Relaxed);
                self.inner.write_all(&copy)
            }
            Some(FaultKind::NoSpace) => Err(self.state.inject_full()),
            Some(_) => Err(self.state.inject("injected: write failure")),
            None if self.state.dead.load(Ordering::Relaxed) => {
                Err(self.state.inject("injected: write failure (disk dead)"))
            }
            None => self.inner.write_all(buf),
        }
    }

    fn sync_data(&self) -> io::Result<()> {
        let op = self.state.next_op();
        if let Some(err) = self.state.gate(op, "injected: fsync failure") {
            return Err(err);
        }
        self.inner.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
        let op = self.state.next_op();
        if let Some(err) = self.state.gate(op, "injected: fsync failure") {
            return Err(err);
        }
        self.inner.sync_all()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let op = self.state.next_op();
        if self.state.torn_rollback.swap(false, Ordering::Relaxed) {
            return Err(self.state.inject("injected: rollback failed after torn write"));
        }
        if let Some(err) = self.state.gate(op, "injected: set_len failure") {
            return Err(err);
        }
        self.inner.set_len(len)
    }
}

impl Vfs for FaultFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultFile { inner, state: Arc::clone(&self.state) }))
    }

    fn create_new_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let op = self.state.next_op();
        if let Some(err) = self.state.gate(op, "injected: create failure") {
            return Err(err);
        }
        let inner = self.inner.create_new_append(path)?;
        Ok(Box::new(FaultFile { inner, state: Arc::clone(&self.state) }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let op = self.state.next_op();
        if let Some(err) = self.state.gate(op, "injected: create failure") {
            return Err(err);
        }
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultFile { inner, state: Arc::clone(&self.state) }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let op = self.state.next_op();
        if let Some(err) = self.state.gate(op, "injected: rename failure") {
            return Err(err);
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let op = self.state.next_op();
        if let Some(err) = self.state.gate(op, "injected: remove failure") {
            return Err(err);
        }
        self.inner.remove_file(path)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(dir)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let op = self.state.next_op();
        if self.state.torn_rollback.swap(false, Ordering::Relaxed) {
            return Err(self.state.inject("injected: rollback failed after torn write"));
        }
        if let Some(err) = self.state.gate(op, "injected: truncate failure") {
            return Err(err);
        }
        self.inner.truncate(path, len)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(self.state.inject("injected: directory sync failure (disk dead)"));
        }
        self.inner.sync_dir(dir)
    }

    fn now_nanos(&self) -> u64 {
        self.state.clock_nanos.load(Ordering::Relaxed)
    }
}

/// SplitMix64: the seed-expansion step used for fault schedules (and by the
/// retry-jitter and fault-plan generators elsewhere in the workspace).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_indices_count_only_mutating_calls() {
        let dir = std::env::temp_dir().join(format!("mbdr-vfs-ops-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultFs::over_real();
        faults.create_dir_all(&dir).expect("mkdir");
        assert_eq!(faults.ops(), 0, "create_dir_all is not counted");
        let path = dir.join("probe.bin");
        let mut file = faults.create(&path).expect("create");
        assert_eq!(faults.ops(), 1);
        file.write_all(b"abc").expect("write");
        assert_eq!(faults.ops(), 2);
        assert_eq!(faults.read(&path).expect("read"), b"abc");
        assert_eq!(faults.file_len(&path).expect("len"), 3);
        assert_eq!(faults.ops(), 2, "reads are not counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduled_faults_fire_at_exact_indices_and_only_once() {
        let dir = std::env::temp_dir().join(format!("mbdr-vfs-sched-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultFs::over_real();
        faults.create_dir_all(&dir).expect("mkdir");
        faults.schedule_fault(1, FaultKind::NoSpace);
        let mut file = faults.create(&dir.join("a.bin")).expect("op 0 clean");
        let err = file.write_all(b"boom").expect_err("op 1 faulted");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        file.write_all(b"fine").expect("op 2 clean again");
        assert_eq!(faults.injected_faults(), 1);
        assert_eq!(faults.pending_faults(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_persists_prefix_and_blocks_one_rollback() {
        let dir = std::env::temp_dir().join(format!("mbdr-vfs-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultFs::over_real();
        faults.create_dir_all(&dir).expect("mkdir");
        let path = dir.join("torn.bin");
        let mut file = faults.create(&path).expect("create");
        faults.schedule_fault(1, FaultKind::TornWrite { keep: 2 });
        assert!(file.write_all(b"abcdef").is_err(), "torn write reports failure");
        assert_eq!(faults.read(&path).expect("read"), b"ab", "prefix persisted");
        assert!(file.set_len(0).is_err(), "rollback right after the tear fails");
        file.set_len(0).expect("later set_len works");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_disk_fails_writes_but_serves_reads() {
        let dir = std::env::temp_dir().join(format!("mbdr-vfs-dead-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultFs::over_real();
        faults.create_dir_all(&dir).expect("mkdir");
        let path = dir.join("data.bin");
        let mut file = faults.create(&path).expect("create");
        file.write_all(b"durable").expect("write while alive");
        faults.set_dead(true);
        assert!(file.write_all(b"lost").is_err());
        assert!(file.sync_data().is_err());
        assert!(faults.rename(&path, &dir.join("other.bin")).is_err());
        assert_eq!(faults.read(&path).expect("read"), b"durable");
        faults.set_dead(false);
        file.write_all(b"-again").expect("write after heal");
        assert_eq!(faults.read(&path).expect("read"), b"durable-again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let a = FaultFs::over_real();
        let b = FaultFs::over_real();
        a.schedule_from_seed(7, 10, 100, 8);
        b.schedule_from_seed(7, 10, 100, 8);
        assert_eq!(*a.state.schedule.lock(), *b.state.schedule.lock());
        let c = FaultFs::over_real();
        c.schedule_from_seed(8, 10, 100, 8);
        assert_ne!(*a.state.schedule.lock(), *c.state.schedule.lock());
    }

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let faults = FaultFs::over_real();
        assert_eq!(faults.now_nanos(), 0);
        faults.advance_clock(Duration::from_millis(5));
        assert_eq!(faults.now_nanos(), 5_000_000);
    }
}
