//! What generating the domain universe costs the heap.
//!
//! A counting global allocator wraps the system one. `Universe::generate`
//! builds 21,325 names, the SNI block sets and three ISP resolver lists:
//! each name is written once at its exact size and the large sets are
//! created at their final capacity, so it is about one allocation a stored
//! name, 45,206 in all at seed 2022, under a ceiling of 50,000. Ordering the registry
//! sample for the stale resolver lists must add none; a per-day sort whose
//! key clones each name makes 176,250 in all.
//!
//! The counter is per thread (the libtest harness allocates on its own
//! threads at unpredictable times), and the test reads it only as a
//! difference within its own body.
//!
//! ## Seeded mutation
//!
//! `universe_sort_clones_key` (`tests/mutants/`): each added day's names
//! are sorted with a key that clones the name on every comparison. Every
//! list stays the same; only the ceiling here sees it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tspu_registry::Universe;

thread_local! {
    // const-initialized: reading it never allocates, so the allocator
    // itself may touch it.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // try_with: the allocator is still called while a thread's locals are
    // being torn down; that belongs to no measured window.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from this allocator, which hands
        // out `System`'s blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn generating_the_universe_allocates_what_it_builds() {
    let before = ALLOCATIONS.with(Cell::get);
    let universe = Universe::generate(2022);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(universe.registry_sample.len() + universe.tranco.len(), 21_325);
    assert!(
        allocations <= 50_000,
        "Universe::generate(2022) made {allocations} allocations (ceiling 50,000)"
    );
}
