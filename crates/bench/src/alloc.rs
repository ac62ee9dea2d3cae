//! A counting global allocator for the memory experiments (Figs. 7, 10, 16).
//!
//! Wraps the system allocator and tracks live and peak bytes, and how
//! many calls obtained or returned memory. The experiments binary installs
//! it with `#[global_allocator]`; tests can use the counters directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counting wrapper around the system allocator.
pub struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if !p.is_null() {
            if new_size >= layout.size() {
                let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Live heap bytes right now.
pub(crate) fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak live bytes since the last [`reset_peak`].
pub(crate) fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Allocator calls that asked for memory (`alloc`, `realloc`) so far.
pub fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocator calls that returned memory (`dealloc`) so far.
pub fn free_count() -> usize {
    FREES.load(Ordering::Relaxed)
}

/// Reset the peak to the current live value.
pub(crate) fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
