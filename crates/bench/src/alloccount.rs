//! A counting global allocator: the observability behind the zero-alloc
//! hot-path gate.
//!
//! [`CountingAllocator`] wraps the system allocator and bumps a global
//! counter on every `alloc` / `realloc` / `alloc_zeroed` call (deallocations
//! are free and not counted). Binaries that want allocation accounting
//! install it with
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
//! The per-allocation overhead is one relaxed atomic increment — far below
//! measurement noise, so the same binary serves for both the allocation gate
//! and the wall-clock numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations observed so far (process-wide, all threads).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout to System.alloc unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's ptr/layout to System.dealloc unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout to System.alloc_zeroed unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's ptr/layout/new_size to System.realloc
        // unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total heap allocations observed so far. Zero until (and unless) a binary
/// installs [`CountingAllocator`] as its global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
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

    #[test]
    fn counter_is_monotone_and_detection_is_consistent() {
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
}
