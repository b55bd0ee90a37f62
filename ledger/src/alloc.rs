//! Heap-allocation counting for the deterministic work counters
//! (`fingerprint.allocs_per_cand`, `server.allocs_per_req`).
//!
//! The same technique as `tests/hot_path_alloc.rs`: a global allocator
//! that forwards to [`System`] and bumps one counter. Counting is off
//! unless a [`count`] window is open, so untraced runs pay one relaxed
//! load per allocation and nothing else. The counter is process-wide:
//! open a window only while no other benchmark thread is working.
//!
//! Implementing [`GlobalAlloc`] is an `unsafe` trait contract; this file
//! is the benchmark's only `unsafe` code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns its result and the number of heap
/// allocations (and reallocations) made while it ran.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}
