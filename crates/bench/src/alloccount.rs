//! A counting global allocator: the observability behind the zero-alloc
//! hot-path gate.
//!
//! [`CountingAllocator`] wraps the system allocator and bumps the calling
//! thread's counter on every `alloc` / `realloc` / `alloc_zeroed` call
//! (deallocations are free and not counted). It also keeps the bytes live on
//! the heap, process-wide — requested sizes, not the system allocator's
//! chunks — and their high-water mark since the last `reset_peak`, which
//! `reproduce scale` reads as the heap cost of each tracked object. Binaries
//! that want allocation accounting install it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mbdr_bench::alloccount::CountingAllocator = CountingAllocator;
//! ```
//!
//! (the `reproduce` binary and the `zero_alloc` integration test do), and the
//! hot-path harness reads [`allocations`] deltas around its measured loops.
//! When no binary installs the allocator the counter simply never moves;
//! [`counting_allocator_installed`] detects that so reports can say whether
//! their zeros are meaningful.
//!
//! The per-allocation overhead is a few relaxed atomic operations, so the
//! whole `reproduce` binary can carry it for the commands that read it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Heap allocations this thread has made so far. `const`-initialised and
    /// without a destructor, so reading it never allocates or panics.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bytes currently allocated (process-wide, all threads).
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The highest value `LIVE_BYTES` reached since the last [`reset_peak`].
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Counts `bytes` more as live and raises the high-water mark to match.
fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// A `#[global_allocator]` that counts allocations and delegates to the
/// system allocator.
pub struct CountingAllocator;

#[allow(unsafe_code, reason = "GlobalAlloc is an unsafe trait; the impl only delegates to System")]
// SAFETY: the impl and every method below only forward the caller's
// arguments to `std::alloc::System` unchanged, so the system allocator's
// contract is exactly the caller's contract; the counter bump touches no
// pointer.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwards the caller's layout to System.alloc unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwards the caller's ptr/layout to System.dealloc unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwards the caller's layout to System.alloc_zeroed unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwards the caller's ptr/layout/new_size to System.realloc
        // unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        // On failure the old block stays allocated at its old size.
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Heap allocations the calling thread has made so far; other threads'
/// allocations do not count. Zero until (and unless) a binary installs
/// [`CountingAllocator`] as its global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes currently live on the heap (requested sizes, all threads). Zero
/// unless a binary installs [`CountingAllocator`].
pub(crate) fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`] (or since the
/// process started).
pub(crate) fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Lowers the high-water mark to the bytes live now and returns them: a
/// later [`peak_bytes`] minus this value is the most a stretch of work in
/// between added to the heap at once. Exact when no other thread allocates
/// meanwhile.
pub(crate) fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Whether the counting allocator is actually installed in this process:
/// performs one deliberate heap allocation and checks that the counter saw
/// it. Reports use this to distinguish a meaningful zero from a dead counter.
pub fn counting_allocator_installed() -> bool {
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u64)));
    allocations() > before
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Held by each test: the live-bytes test calls the allocator directly,
    /// which moves the counter the other test holds still.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn counter_is_monotone_and_detection_is_consistent() {
        let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        // Unit tests run without the allocator installed, so the counter
        // must stay flat and detection must say "not installed". (The real
        // counting assertions live in the `zero_alloc` integration test and
        // the `reproduce hotpath` gate, which do install it.)
        let installed = counting_allocator_installed();
        let before = allocations();
        drop(std::hint::black_box(Box::new([0u8; 64])));
        let after = allocations();
        if installed {
            assert!(after > before);
        } else {
            assert_eq!(after, before);
        }
    }

    #[allow(unsafe_code, reason = "drives the allocator's unsafe methods directly")]
    #[test]
    fn live_bytes_and_peak_follow_alloc_realloc_and_dealloc() {
        // Unit tests run without the allocator installed, so only the direct
        // calls below move the byte counters.
        let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let at = |size| Layout::from_size_align(size, 8).expect("a valid layout");
        let base = reset_peak();
        // SAFETY: every block is allocated with a non-zero size, checked for
        // null, and freed once with the layout of its current size.
        unsafe {
            let block = CountingAllocator.alloc(at(1_000));
            assert!(!block.is_null());
            assert_eq!(live_bytes(), base + 1_000);
            let block = CountingAllocator.realloc(block, at(1_000), 3_000);
            assert!(!block.is_null());
            assert_eq!(live_bytes(), base + 3_000, "a grown block adds the difference");
            let block = CountingAllocator.realloc(block, at(3_000), 500);
            assert!(!block.is_null());
            assert_eq!(live_bytes(), base + 500, "a shrunk block gives the difference back");
            let zeroed = CountingAllocator.alloc_zeroed(at(2_000));
            assert!(!zeroed.is_null());
            assert_eq!(live_bytes(), base + 2_500);
            CountingAllocator.dealloc(zeroed, at(2_000));
            CountingAllocator.dealloc(block, at(500));
        }
        assert_eq!(live_bytes(), base);
        assert_eq!(peak_bytes(), base + 3_000, "the high-water mark holds the largest total");
        assert_eq!(reset_peak(), base);
        assert_eq!(peak_bytes(), base, "a reset lowers the mark to the live bytes");
    }

    #[allow(unsafe_code, reason = "drives the allocator's unsafe methods directly")]
    #[test]
    fn allocations_count_the_calling_thread_only() {
        // The direct calls move the live bytes the test above holds still.
        let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let allocate_once = || {
            let at = Layout::from_size_align(64, 8).expect("a valid layout");
            // SAFETY: the block has a non-zero size, is checked for null and
            // is freed once with the layout it was allocated with.
            unsafe {
                let block = CountingAllocator.alloc(at);
                assert!(!block.is_null());
                CountingAllocator.dealloc(block, at);
            }
        };
        let before = allocations();
        allocate_once();
        assert_eq!(allocations(), before + 1, "an allocation on this thread counts");
        let spawned = std::thread::spawn(move || {
            let before = allocations();
            allocate_once();
            allocations() - before
        })
        .join()
        .expect("the spawned thread allocates and returns");
        assert_eq!(spawned, 1, "the spawned thread counts its own allocation");
        assert_eq!(allocations(), before + 1, "another thread's allocation does not count here");
    }
}
