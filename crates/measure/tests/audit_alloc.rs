//! The audited cell's allocation ceiling: a capture is one append-only log
//! whose two buffers a cell reserves once, and the oracle replays borrowed
//! views of it, so an audited cell of the three-country campaign costs
//! about as many heap allocations as an unaudited one. A counting global
//! allocator wraps the system allocator; the counter is per thread, and a
//! one-thread pool runs every cell on the calling thread, so the whole
//! campaign is counted.
//!
//! ## Seeded mutation
//!
//! `capture_copies_each_record` (`tests/mutants/`): `Network::capture`
//! copies each packet into a `Vec` of its own before appending it, as the
//! per-record log once did. Every record, report and verdict stays the
//! same; only the ceiling here sees it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tspu_measure::{DifferentialCampaign, RunOpts, ScanPool};
use tspu_registry::Universe;
use tspu_topology::policy_from_universe;

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

/// Allocations of one campaign run, counted on this thread.
fn allocations(campaign: &DifferentialCampaign) -> usize {
    let pool = ScanPool::new(1);
    campaign.run(&pool, &RunOpts::quick()); // anything lazily initialised is initialised now
    let before = ALLOCATIONS.with(Cell::get);
    let (matrix, _) = campaign.run(&pool, &RunOpts::quick());
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(matrix.cells.len(), campaign.len());
    assert!(matrix.oracle_clean(), "{:?}", matrix.oracle_violations());
    allocations
}

/// Allocations per cell of `campaign` past its first `base` domains: the
/// campaign run whole, less the run of its first `base` domains, over the
/// cells between. A run's fixed cost (one lab image per profile, the cell
/// list) cancels, so this is what one more cell costs.
fn allocations_per_added_cell(campaign: &DifferentialCampaign, base: usize) -> usize {
    let mut first = campaign.clone();
    first.domains.truncate(base);
    let added = campaign.len() - first.len();
    (allocations(campaign) - allocations(&first)) / added
}

/// Three profiles × 20 more seed-2022 names, one in ten registry-listed:
/// 60 audited cells. Such a cell captures ~88 records. With a `Vec` per
/// record and a `Vec` of egress slices per replayed device call it made
/// 192 allocations; with one log it makes 76, against 64 unaudited.
#[test]
fn an_audited_cell_allocates_about_as_often_as_an_unaudited_one() {
    const CEILING_PER_CELL: usize = 100;
    let universe = Universe::generate(2022);
    let policy = policy_from_universe(&universe, false, true);
    let mut blocked = universe.registry_sample.iter().map(|d| d.name.clone());
    let mut open = universe.tranco.iter().map(|d| d.name.clone());
    let domains: Vec<String> = (0..40)
        .map(|i| if i % 10 == 0 { blocked.next() } else { open.next() }.expect("the lists are long"))
        .collect();
    let mut campaign = DifferentialCampaign::three_country(policy, domains);
    let audited = allocations_per_added_cell(&campaign, 20);
    campaign.check_oracle = false;
    let unaudited = allocations_per_added_cell(&campaign, 20);
    println!("allocations per cell: {audited} audited, {unaudited} unaudited");
    assert!(
        audited <= CEILING_PER_CELL,
        "{audited} allocations per audited cell (ceiling {CEILING_PER_CELL}; {unaudited} unaudited)"
    );
}
