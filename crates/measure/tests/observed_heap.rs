//! An observed campaign's heap does not grow with its cell count: each
//! cell's snapshot is merged into its chunk's as the cell returns, so a
//! one-thread run holds one campaign snapshot however many cells it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tspu_core::{Policy, PolicyHandle};
use tspu_measure::{RunOpts, ScanPool};
use tspu_stack::craft::TcpPacketSpec;
use tspu_topology::{LabImage, VantageLab};
use tspu_wire::tcp::TcpFlags;

thread_local! {
    // Per thread, so tests running beside this one do not count.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(delta: i64) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` come from this allocator, which hands
        // out `System`'s blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live heap above the starting level while an observed one-thread
/// campaign of `cells` cells runs: each cell sends one SYN from a vantage
/// to the US machine and returns nothing.
fn observed_peak_bytes(image: &LabImage, cells: usize) -> i64 {
    let items: Vec<u16> = (0..cells).map(|i| 10_000 + i as u16).collect();
    let opts = RunOpts { observe: true, ..RunOpts::default() };
    let pool = ScanPool::single_thread();
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let run = pool.run_cells(&opts, &items, |_| image, |lab, _, &port| {
        let vantage = lab.vantage("Rostelecom");
        let syn =
            TcpPacketSpec::new(vantage.addr, port, lab.us_main_addr, 443, TcpFlags::SYN).build();
        lab.net.send_from(vantage.host, syn);
        lab.net.run_until_idle();
    });
    let peak = PEAK.with(Cell::get);
    let snapshot = run.snapshot.expect("observed run");
    assert_eq!(snapshot.counter("device.rostelecom-sym.packets_seen"), cells as u64);
    peak - start
}

#[test]
fn an_observed_campaign_holds_one_snapshot_not_one_per_cell() {
    let image = VantageLab::builder().policy(PolicyHandle::new(Policy::permissive())).image();
    observed_peak_bytes(&image, 50); // anything lazily initialised is initialised now
    let small = observed_peak_bytes(&image, 500);
    let large = observed_peak_bytes(&image, 2_000);
    assert!(small > 0, "the counting allocator is not installed");
    assert!(
        large - small < 64 * 1024,
        "peak heap grew by {} bytes from 500 to 2,000 observed cells ({small} -> {large})",
        large - small
    );
}
