//! Virtual-id allocation.
//!
//! "Inside the Cloud Data Distributor each chunk is given a unique virtual
//! id … A provider storing a particular chunk with a virtual id has no idea
//! about the real owner (client) of the chunk" (§IV-A). Ids must be unique
//! and must not leak client/file/serial structure, so we emit a counter
//! passed through a 64-bit mixing permutation.

use fragcloud_sim::VirtualId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe allocator of opaque virtual ids.
#[derive(Debug)]
pub struct VidAllocator {
    next: AtomicU64,
    salt: u64,
}

impl VidAllocator {
    /// Creates an allocator; `salt` varies the id sequence between
    /// distributor instances.
    pub fn new(salt: u64) -> Self {
        VidAllocator {
            next: AtomicU64::new(1),
            salt,
        }
    }

    /// Resumes an allocator after a state import: `already_allocated` ids
    /// were handed out by the previous incarnation, so the sequence
    /// continues past them (same salt ⇒ same mapping ⇒ no collisions).
    pub fn resume(salt: u64, already_allocated: u64) -> Self {
        VidAllocator {
            next: AtomicU64::new(already_allocated + 1),
            salt,
        }
    }

    /// Allocates the next id.
    pub fn allocate(&self) -> VirtualId {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        VirtualId(mix(seq ^ self.salt))
    }

    /// Number of ids handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - 1
    }
}

/// SplitMix64 finalizer — a bijection on u64, so distinct inputs give
/// distinct ids.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = VidAllocator::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(a.allocate()));
        }
        assert_eq!(a.allocated(), 10_000);
    }

    #[test]
    fn ids_do_not_expose_the_counter() {
        let a = VidAllocator::new(7);
        let v1 = a.allocate().0;
        let v2 = a.allocate().0;
        // Sequential allocations must not be sequential ids.
        assert_ne!(v2.wrapping_sub(v1), 1);
    }

    #[test]
    fn different_salts_differ() {
        let a = VidAllocator::new(1).allocate();
        let b = VidAllocator::new(2).allocate();
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_allocation_unique() {
        use std::sync::Arc;
        let alloc = Arc::new(VidAllocator::new(3));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let alloc = Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| alloc.allocate()).collect::<Vec<_>>()
            }));
        }
        let mut all = std::collections::HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id across threads");
            }
        }
        assert_eq!(all.len(), 8000);
    }
}
