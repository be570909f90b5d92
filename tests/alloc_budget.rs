//! Allocation budget for one cycle-core cell.
//!
//! The demand round trip (`Core::issue` → `MemorySystem::try_access` →
//! TLB / MSHR / cache → event heap → `Core::absorb_completions`) runs on
//! flat, fixed-capacity state sized at construction, so a whole
//! `etpp_sim::run` — `MemorySystem::new`, the image clone, the engine
//! and every simulated instruction — costs a few hundred heap
//! allocations. A per-access `Vec` or `HashMap` reintroduced anywhere on
//! that path costs ~1 allocation per simulated instruction (> 100 000 on
//! these cells), so the budget fails by two orders of magnitude rather
//! than by timing noise.

use etpp::sim::{run, PrefetchMode, SystemConfig};
use etpp::workloads::{workload_by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (const-initialised and without a
    /// destructor, so touching it from the allocator cannot recurse).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc` / `realloc`
/// calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is plain
// thread-local data and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BUDGET: u64 = 1_000;

#[test]
fn a_cycle_core_cell_allocates_a_few_hundred_times_not_once_per_instruction() {
    let cfg = SystemConfig::paper();
    let modes = [
        PrefetchMode::None,
        PrefetchMode::Stride,
        PrefetchMode::GhbRegular,
        PrefetchMode::PcDelta,
        PrefetchMode::Manual,
    ];
    let mut over = Vec::new();
    for name in ["IntSort", "HJ-8", "ConjGrad"] {
        let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
        for mode in modes {
            let before = ALLOCS.with(Cell::get);
            let r = run(&cfg, mode, &wl).expect("every mode here runs on every workload");
            let allocs = ALLOCS.with(Cell::get) - before;
            assert!(r.validated);
            println!(
                "{name:>8} {:<12} {allocs:>6} allocations, {} instructions",
                mode.key(),
                r.core.insts_retired
            );
            if allocs > BUDGET {
                over.push((name, mode.key(), allocs));
            }
        }
    }
    assert!(over.is_empty(), "cells over {BUDGET} allocations: {over:?}");
}
