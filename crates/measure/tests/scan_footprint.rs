//! What a country scan leaves on the heap per endpoint: the §7.2
//! fingerprint sends every endpoint a plain SYN, a 45-fragment SYN and a
//! 46-fragment SYN, and each endpoint keeps what those probes left — its
//! half-open connections, the trains its devices poisoned, the flows they
//! track. A counting global allocator reads the live heap before and
//! after `run_port_scan` over a `RunetConfig::tiny` country; the growth,
//! divided by the endpoints scanned, must stay under a ceiling: 624 bytes,
//! the 480 measured × 1.3.
//!
//! The counter is per thread (the libtest harness allocates on its own
//! threads at unpredictable times) and the file holds one test function,
//! so no sibling test shares this thread.
//!
//! ## Seeded mutation
//!
//! `connection_boxes_spill_up_front` (`tests/mutants/`): a connection
//! allocates its spill box when it is made instead of on first use, so
//! each of an endpoint's half-open connections holds an empty box.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tspu_measure::fragscan::run_port_scan;
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
fn a_scanned_endpoint_keeps_what_its_probes_left() {
    let universe = Universe::generate(5);
    let mut runet = Runet::generate(&universe, RunetConfig::tiny(9));
    let endpoints = runet.endpoints.len();
    let before = LIVE_BYTES.with(Cell::get);
    let (rows, _, positive_ases) = run_port_scan(&mut runet, 1);
    let retained = LIVE_BYTES.with(Cell::get) - before;
    assert!(positive_ases > 0 && !rows.is_empty(), "the scan saw TSPU-covered endpoints");
    drop(rows);
    let per_endpoint = retained as f64 / endpoints as f64;
    assert!(
        per_endpoint <= 624.0,
        "{retained} bytes retained over {endpoints} endpoints = {per_endpoint:.0} per endpoint (bound 624)"
    );
}
