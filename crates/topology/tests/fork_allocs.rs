//! The number of heap allocations `LabImage::fork` performs does not depend
//! on how many devices the graph carries: they are built on first packet,
//! not at fork, which leaves one empty slot per device in a single block.
//! Nor does it depend on whether the image carries the per-ISP resolvers
//! of a universe: a fork shares them with its image.
//!
//! ## Seeded mutation
//!
//! `fork_pushes_device_slots` (`tests/mutants/`): the fork grows its slot
//! table one push at a time, so it reallocates more often the more
//! devices the graph carries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, GenParams, LabImage, TopologySpec, VantageLab};

thread_local! {
    // Per thread, so tests running beside this one do not count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

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

/// Allocations one `fork` performs, the forked lab kept alive meanwhile.
fn fork_allocations(image: &LabImage) -> u64 {
    drop(image.fork(0)); // anything lazily initialised is initialised now
    let before = ALLOCATIONS.with(Cell::get);
    let lab = image.fork(1);
    let after = ALLOCATIONS.with(Cell::get);
    drop(lab);
    after - before
}

#[test]
fn fork_allocations_do_not_grow_with_the_graph() {
    let universe = Universe::generate(11);
    let policy = policy_from_universe(&universe, false, true);
    let generated = |num_ases| {
        VantageLab::builder()
            .policy(policy.clone())
            .topology(TopologySpec::Generated(GenParams::new(11, num_ases)))
            .image()
    };
    let small = fork_allocations(&generated(100));
    let large = fork_allocations(&generated(5000));
    assert!(small > 0, "the counting allocator is not installed");
    assert_eq!(large, small, "5000-AS fork allocates {large} times, 100-AS fork {small}");
}

#[test]
fn a_fork_shares_the_resolvers_of_its_image() {
    let universe = Universe::generate(11);
    let policy = policy_from_universe(&universe, false, true);
    let bare = fork_allocations(&VantageLab::builder().policy(policy.clone()).table1().image());
    let with_resolvers =
        fork_allocations(&VantageLab::builder().universe(&universe).policy(policy).table1().image());
    assert!(
        with_resolvers <= bare,
        "a fork with resolvers allocates {with_resolvers} times, one without {bare}"
    );
}
