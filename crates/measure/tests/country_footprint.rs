//! What a generated country holds on the heap per endpoint, before any
//! probe: each endpoint's host, server application and route-table
//! entries, and its cluster's share of the route arena, the devices and
//! the router addresses. A counting global allocator reads the live heap
//! before and after `Runet::generate` over a `RunetConfig::tiny` country;
//! the growth, divided by the endpoints generated, must stay under a
//! ceiling: 1,617 bytes, the 1,244 measured × 1.3.
//!
//! The counter is per thread (the libtest harness allocates on its own
//! threads at unpredictable times) and the file holds one test function,
//! so no sibling test shares this thread.
//!
//! ## Seeded mutation
//!
//! `server_presizes_connections` (`tests/mutants/`): a server sizes its
//! connection table for a handful of peers when it is made instead of on
//! its first connection, so every generated endpoint holds an empty table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tspu_registry::Universe;
use tspu_topology::{Runet, RunetConfig};

thread_local! {
    // const-initialized: reading it never allocates, so the allocator
    // itself may touch it.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // try_with: the allocator is still called while a thread's locals are
    // being torn down; that belongs to no measured window.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` and `layout` come from this allocator, which hands
        // out `System`'s blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_generated_endpoint_costs_what_it_routes() {
    let universe = Universe::generate(5);
    let before = LIVE_BYTES.with(Cell::get);
    let runet = Runet::generate(&universe, RunetConfig::tiny(9));
    let held = LIVE_BYTES.with(Cell::get) - before;
    let endpoints = runet.endpoints.len();
    assert!(endpoints > 1_000, "{endpoints} endpoints");
    let per_endpoint = held as f64 / endpoints as f64;
    assert!(
        per_endpoint <= 1_617.0,
        "{held} bytes held over {endpoints} endpoints = {per_endpoint:.0} per endpoint (bound 1,617)"
    );
}
