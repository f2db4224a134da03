//! Counting `#[global_allocator]`: the `proc.allocs_per_op` /
//! `proc.alloc_bytes_per_user_byte` source.
//!
//! Wraps the system allocator and counts calls and bytes only while
//! [`set_enabled`] is on — the traced pass turns it on, so the untraced
//! end-to-end pass pays one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs`.
pub struct Counting;

fn note(size: usize) {
    // Relaxed: these are statistics, they publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout` (we never
        // substitute either), as `GlobalAlloc::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Tells glibc malloc to keep freed memory instead of handing it back to
/// the kernel, and to serve big buffers from the heap instead of `mmap`.
///
/// Every epoch allocates and frees a few hundred MiB (a fresh fleet, 8 MiB
/// file copies, 8 MiB get buffers). With the default thresholds that
/// memory goes back to the kernel and is faulted in again page by page on
/// the next op; on two shared cores that page-fault time is both large
/// (put throughput reads about 30% lower) and erratic (the same binary and
/// seed gave 636..782 MiB/s against 990..1036 pinned), so it would drown
/// the changes the benchmark is there to judge. With the thresholds
/// pinned the warm-up epoch faults the heap in once and later epochs
/// reuse it. The setting is the benchmark's, identical for every commit
/// it compares. No-op where the C library is not glibc.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_TOP_PAD: c_int = -2;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only stores tuning integers in malloc's own
        // state; it is called once, first thing in `main`, before any
        // other thread exists. A rejected value returns 0 and changes
        // nothing, which is fine here.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
            mallopt(M_TOP_PAD, 256 << 20);
            // 32 MiB is the largest value glibc accepts.
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}
