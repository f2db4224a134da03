//! `put_file` reads the caller's buffer a stripe at a time: no allocation
//! made while it runs is as large as the file, however large the file.
//!
//! Its own test binary because it installs a `#[global_allocator]` that
//! records the largest single allocation (or reallocation) made by any
//! thread while armed — pool workers included. Keep this the binary's only
//! test, so no concurrent test allocates inside the armed window.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud::core::{CloudDataDistributor, PrivacyLevel, PutOptions, PUT_WINDOW_BYTES};
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct LargestAllocation;

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the recorder touches no allocator state.
unsafe impl GlobalAlloc for LargestAllocation {
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
        // SAFETY: `ptr` was allocated by `System` with `layout`, as
        // `GlobalAlloc::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

#[test]
fn put_file_never_allocates_a_whole_file_copy() {
    // The `bulk_public` shape: an 8 MiB PL1 file in 64 KiB chunks, RS(4,2).
    let fleet: Vec<Arc<CloudProvider>> = (0..8)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect();
    let config = DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(64 << 10),
        ..Default::default()
    };
    let d = CloudDataDistributor::try_new(fleet, config).expect("valid config");
    d.register_client("c").expect("fresh");
    d.add_password("c", "pw", PrivacyLevel::High)
        .expect("client");
    let session = d.session("c", "pw").expect("valid pair");
    let data: Vec<u8> = (0..8usize << 20)
        .map(|i| (i * 31 + i / 251) as u8)
        .collect();
    let opts = PutOptions::new().geometry(4, 2);

    ARMED.store(true, Ordering::SeqCst);
    let receipt = session.put_file("f", &data, PrivacyLevel::Low, opts);
    ARMED.store(false, Ordering::SeqCst);

    let receipt = receipt.expect("put");
    assert_eq!(receipt.stripe_count, 32, "a multi-stripe put, on the pool");
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest < PUT_WINDOW_BYTES,
        "put_file made a {largest}-byte allocation; the window is {PUT_WINDOW_BYTES} bytes"
    );
    assert_eq!(session.get_file("f").expect("read").data, data);
}
