//! Heap allocation counters: a [`GlobalAlloc`] wrapper around the system
//! allocator that counts allocations, bytes allocated and peak live bytes.
//!
//! A binary opts in by installing it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ids_obs::alloc::CountingAlloc = ids_obs::alloc::CountingAlloc;
//! ```
//!
//! and reads the process-wide totals with [`stats`]. Without the wrapper
//! installed, every counter reads 0. The counters are relaxed atomics: exact
//! for a single thread, and exact in total across threads; the peak is the
//! highest live-byte count any one update observed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting what passes through it. A `realloc`
/// counts as one allocation of its new size.
pub struct CountingAlloc;

/// Process-wide allocation totals since start-up (all 0 unless
/// [`CountingAlloc`] is the global allocator).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations and reallocations.
    pub allocations: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// The most bytes live at once.
    pub peak_live_bytes: u64,
}

/// The current totals.
pub fn stats() -> AllocStats {
    AllocStats {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed),
    }
}

fn allocated(size: usize) {
    let size = size as u64;
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments and
// only updates counters besides, so `System`'s guarantees carry over.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            allocated(new_size);
        }
        p
    }
}
