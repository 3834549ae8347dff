//! The churn campaign's allocation budget: a listed name is copied once
//! from the registry into the policy history and once more into a cell's
//! overlay, so a registry-day cell stays within a fixed number of heap
//! allocations. A counting global allocator wraps the system allocator;
//! the counter is per thread, and a one-thread pool runs every cell on
//! the calling thread, so the whole campaign is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tspu_measure::{ChurnCampaign, ScanPool};
use tspu_registry::Universe;

thread_local! {
    // const-initialized: reading it never allocates, so it is safe to
    // touch from inside the allocator itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// Allocations per cell of the seed-2022 escalation replay, schedule
/// derivation and history compile included. A cell is one registry day:
/// it forks a lab, runs a few dozen probe flows and applies the day's
/// delta, so most of its budget is packets and the rest its names.
#[test]
fn a_churn_cell_stays_within_its_allocation_budget() {
    const BUDGET_PER_CELL: usize = 600;
    let universe = Universe::generate(2022);
    let campaign = ChurnCampaign::escalation_2022();
    let pool = ScanPool::new(1);
    campaign.run(&universe, &pool); // anything lazily initialised is initialised now

    let before = ALLOCATIONS.with(Cell::get);
    let report = campaign.run(&universe, &pool);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(report.cells.len(), 25);
    let per_cell = allocations / report.cells.len();
    assert!(
        per_cell <= BUDGET_PER_CELL,
        "{per_cell} allocations per churn cell (budget {BUDGET_PER_CELL}; {allocations} in all)"
    );
}
