//! Heap budgets for cycle-core cells: allocation count and live bytes.
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
//!
//! The byte budget covers what a built workload holds: its micro-op
//! traces, 8 bytes per op, dominate a process's peak heap. A run with no Software cell
//! must never materialise the software-prefetch trace; building the three
//! software traces eagerly pushes the peak past the budget (a Software
//! cell generates its trace for itself and drops it when it ends). A
//! capture adds exactly one copy of its records, 32 bytes each: the core
//! retires straight into them, and its dependence tracking is bounded by
//! the window.

use etpp::sim::{run, run_captured, PrefetchMode, SystemConfig};
use etpp::trace::TraceRecord;
use etpp::workloads::{workload_by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (const-initialised and without a
    /// destructor, so touching it from the allocator cannot recurse).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// High-water mark of `LIVE`.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes as u64);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes as u64)));
}

/// The system allocator plus per-thread counts of `alloc` / `realloc`
/// calls and of live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local data and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BUDGET: u64 = 1_000;

/// Peak live heap while building IntSort, HJ-8 and ConjGrad at Tiny and
/// running their `none` cells: 5.7 MiB with 8-byte ops and no software
/// trace; 8.8 MiB with 16-byte ops (pc, class and aux stored per op
/// rather than once per trace), which fails here; 12.0 MiB with 24-byte
/// ops (two absolute `u32` dependence indices per op); 42.4 MiB with
/// eagerly built software traces of 32-byte ops.
const BYTE_BUDGET: u64 = 7 << 20;

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

#[test]
fn workloads_without_a_software_cell_stay_under_the_heap_byte_budget() {
    let cfg = SystemConfig::paper();
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let built: Vec<_> = ["IntSort", "HJ-8", "ConjGrad"]
        .into_iter()
        .map(|name| workload_by_name(name).unwrap().build(Scale::Tiny))
        .collect();
    for wl in &built {
        assert!(run(&cfg, PrefetchMode::None, wl).unwrap().validated);
    }
    let peak = PEAK.with(Cell::get) - base;
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    println!(
        "peak live heap {:.1} MiB (budget {:.1} MiB)",
        mib(peak),
        mib(BYTE_BUDGET)
    );
    assert!(
        peak <= BYTE_BUDGET,
        "peak live heap {peak} B exceeds the {BYTE_BUDGET} B budget"
    );
}

/// Live heap a Tiny HJ-8 `none` cell adds on top of its built workload
/// (image clone, memory system, core): 0.86 MiB measured, 1.5 MiB allowed.
const RUN_ALLOWANCE: u64 = 3 << 19;

#[test]
fn a_capture_holds_one_copy_of_its_records() {
    let cfg = SystemConfig::paper();
    let base = LIVE.with(Cell::get);
    let wl = workload_by_name("HJ-8").unwrap().build(Scale::Tiny);
    let built = LIVE.with(Cell::get) - base;
    PEAK.with(|p| p.set(base + built));
    let (r, t) = run_captured(&cfg, PrefetchMode::None, &wl, "tiny").unwrap();
    assert!(r.validated);
    let peak = PEAK.with(Cell::get) - base;
    // One 32-byte record per captured access and nothing per op: the
    // peak is 3.78 MiB (5.00 MiB with 16-byte ops; 5.34 MiB with those
    // and 40-byte records, whose loads carried an unused store value and
    // size). A capture holding a second 48-byte copy of the stream
    // (reserved per op) plus two trace-length `u32` arrays peaks 10.4 MiB
    // over the built workload and fails here.
    assert_eq!(t.records.len(), 43_653);
    let records = 43_653 * std::mem::size_of::<TraceRecord>() as u64;
    let budget = built + records + RUN_ALLOWANCE;
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    println!(
        "capture peak live heap {:.2} MiB (budget {:.2} MiB: built {:.2} + records {:.2} + {:.2})",
        mib(peak),
        mib(budget),
        mib(built),
        mib(records),
        mib(RUN_ALLOWANCE)
    );
    assert!(
        peak <= budget,
        "capture peak live heap {peak} B exceeds the {budget} B budget"
    );
}

#[test]
fn a_software_cell_frees_its_trace_when_it_ends() {
    let cfg = SystemConfig::paper();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    assert!(run(&cfg, PrefetchMode::Software, &wl).unwrap().validated);
    let peak = PEAK.with(Cell::get) - base;
    let held = LIVE.with(Cell::get).saturating_sub(base);
    let trace = wl.sw_trace().unwrap().bytes() as u64;
    println!("software cell peak {peak} B over the built workload, {held} B held after it, trace {trace} B");
    // The cell generated its own software trace, and nothing keeps it
    // once the cell is done: a workload that memoised the trace would
    // still hold its 1.5 MiB here.
    assert!(peak >= trace, "the cell ran without its {trace} B trace");
    assert!(held < 64 << 10, "{held} B outlived the Software cell");
}
