//! A counting global allocator: live and peak heap bytes of the benchmark
//! thread, for the `peak_heap_mib` metric.
//!
//! Unlike the resident set size, the heap peak does not depend on how the
//! system allocator happens to map and return memory, so it repeats from
//! run to run. Counting costs two thread-local updates per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn grow(bytes: usize) {
    if PAUSED.get() {
        return;
    }
    let live = LIVE.get().wrapping_add(bytes);
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

fn shrink(bytes: usize) {
    if PAUSED.get() {
        return;
    }
    LIVE.set(LIVE.get().saturating_sub(bytes));
}

/// Runs `f` without counting what it allocates or frees: for benchmark
/// work, and benchmark data that is no part of the program's memory. Every
/// block allocated inside `f` must be freed inside it or never.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.set(true);
    let r = f();
    PAUSED.set(false);
    r
}

/// Starts a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.set(LIVE.get());
}

/// The largest number of bytes live since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.get()
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read the layout
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned, with
        // its layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}
