//! What the fragment cache holds at its train cap under structured
//! hostility: 10⁴ trains, each poisoned either by a 46th fragment (rule 5)
//! or by a duplicate (rule 4), pushed against `max_trains`. A poisoned
//! train keeps only its start time and its flag until it times out, so
//! the cache's live heap is its table and nothing per fragment: at most
//! 148 bytes per held train (114 measured, × 1.3). A counting global
//! allocator reads the live heap after every train.
//!
//! The counter is per thread (the libtest harness allocates on its own
//! threads at unpredictable times) and the file holds one test function,
//! so no sibling test shares this thread.
//!
//! ## Seeded mutation
//!
//! `frag_poisoned_train_keeps_buffer` (`tests/mutants/`): a poisoned
//! train clears its fragment buffer instead of releasing it, so a train
//! poisoned by its 46th fragment keeps 64 empty slots (2,560 bytes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tspu_core::constants::FRAG_MAX_TRAINS;
use tspu_core::frag_cache::FragCache;
use tspu_netsim::Time;
use tspu_wire::frag;
use tspu_wire::ipv4::{Ipv4Repr, Protocol};

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

const TRAINS: u32 = 10_000;

/// Train `i`: a 46-piece UDP datagram from its own source when `i` is
/// even, else its first two pieces with the second sent twice.
fn poisoned_train(i: u32) -> Vec<Vec<u8>> {
    let payload = [0x5a; 46 * 8];
    let (src, dst) = (Ipv4Addr::from(0x0a00_0000 + i), Ipv4Addr::new(203, 0, 113, 9));
    let mut repr = Ipv4Repr::new(src, dst, Protocol::Udp, payload.len());
    repr.ident = i as u16;
    let mut pieces = frag::fragment_into(&repr.build(&payload), 46).expect("368 bytes cut into 46 pieces");
    if i % 2 == 1 {
        pieces.truncate(2);
        pieces.push(pieces[1].clone());
    }
    pieces
}

#[test]
fn ten_thousand_poisoned_trains_hold_no_fragment_slots() {
    let mut cache = FragCache::default();
    let base = LIVE_BYTES.with(Cell::get);
    let mut peak = 0;
    for i in 0..TRAINS {
        let train = poisoned_train(i);
        for piece in &train {
            assert!(cache.offer(Time::ZERO, piece).is_empty(), "a poisoned train forwards nothing");
        }
        drop(train);
        peak = peak.max(LIVE_BYTES.with(Cell::get) - base);
    }
    assert_eq!(cache.pending(), FRAG_MAX_TRAINS);
    // Every train is discarded once poisoned, and the oldest are evicted
    // again to keep the table at its cap.
    let evicted = u64::from(TRAINS) - FRAG_MAX_TRAINS as u64;
    assert_eq!(cache.evictions(), evicted);
    assert_eq!(cache.discarded(), u64::from(TRAINS) + evicted);
    let per_train = peak as f64 / FRAG_MAX_TRAINS as f64;
    assert!(
        per_train <= 148.0,
        "the cache's heap peaked at {peak} bytes for {FRAG_MAX_TRAINS} held trains = {per_train:.0} per train (bound 148)"
    );
}
