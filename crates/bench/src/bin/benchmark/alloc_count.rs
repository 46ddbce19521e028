//! Counting global allocator: the benchmark's only `unsafe`.
//!
//! Every library crate of the repository carries
//! `#![forbid(unsafe_code)]` in its own crate root. A crate-level
//! attribute covers that crate only, and this binary is a crate of its
//! own, so the prohibition does not reach it. `GlobalAlloc` is an
//! unsafe trait; counting allocations from outside the program needs
//! exactly one implementation of it, kept in this file and nowhere else.
//!
//! Counting is off unless a traced run switches it on, so untraced
//! runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Relaxed everywhere: these are statistics that publish no other data,
// and the benchmark reads them from the one thread that allocates.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// memory the allocator hands out, and `realloc`/`alloc_zeroed` keep
// their default implementations, which call `alloc`/`dealloc` here.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller guarantees `layout` has non-zero size, the
        // only requirement of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from `alloc` above —
        // that is, from `System.alloc` — with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted while enabled.
pub fn snapshot() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
