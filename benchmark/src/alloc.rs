//! A counting global allocator: host memory traffic per request.
//!
//! Peak RSS moved 10 % between identical runs on this box (page cache, thread
//! stacks, allocator retention); bytes *requested* from the allocator depend
//! only on what the code asks for, so they repeat to well under a percent.
//! This is the harness's only `unsafe`: it forwards every call to the system
//! allocator unchanged and adds relaxed counters (statistics only — they
//! publish no other data).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting requested bytes, calls and live bytes.
pub struct Counting;

fn on_alloc(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        on_alloc(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` match and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the allocator counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    /// Bytes requested so far (allocations plus the new size of each realloc).
    pub bytes: u64,
    /// Allocation and reallocation calls so far.
    pub calls: u64,
}

/// The counters now.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { bytes: BYTES.load(Relaxed), calls: CALLS.load(Relaxed) }
}

/// Highest number of live heap bytes seen so far.
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE.load(Relaxed)
}
