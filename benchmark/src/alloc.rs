//! A counting global allocator for the `alloc.*` layer metrics.
//!
//! Wraps the system allocator. Counting is switched by a static flag that
//! only traced and ladder runs turn on, so an untraced run pays one
//! relaxed load per allocation and nothing else; what the counters cost
//! while on is part of `trace.overhead_share`.
//!
//! The counters are bumped with a load and a store, not a locked
//! read-modify-write: every workload allocates from one thread, where that
//! counts exactly, and a `lock xadd` per allocation showed up as a tenth of
//! a sweep cell. A second allocating thread could lose counts, never more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: they publish no other data, so `Relaxed` is enough.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

#[inline]
fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.store(ALLOCATIONS.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        BYTES.store(
            BYTES.load(Ordering::Relaxed) + bytes as u64,
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is new memory the program asked for: count it like an
        // allocation of the new size.
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which handed
        // out `System`'s blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation count and bytes requested since counting was switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocations: u64,
    pub bytes: u64,
}

/// Zeroes the counters and starts counting.
pub fn start() {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stops counting and returns what was counted.
pub fn stop() -> AllocCount {
    COUNTING.store(false, Ordering::Relaxed);
    AllocCount {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_made_while_on() {
        // Other tests allocate (and may switch counting) on their own
        // threads while this runs, so the bounds are one-sided.
        start();
        let block = std::hint::black_box(vec![0u8; 4096]);
        let counted = stop();
        drop(block);
        assert!(counted.allocations >= 1);
        assert!(counted.bytes >= 4096);
    }
}
