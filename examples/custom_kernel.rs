//! Writing a prefetch event program by hand for a custom access pattern.
//!
//! This example builds the paper's Figure 4 scenario from scratch — a loop
//! computing `acc += C[B[A[x]]]` — generates its trace, writes the three
//! event kernels (`on_A_load`, `on_A_prefetch`, `on_B_prefetch`) with the
//! PPU assembler, and shows the chain prefetching the indirections.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use etpp::core::{PrefetchProgramBuilder, PrefetcherParams, ProgrammablePrefetcher};
use etpp::cpu::{drive, Core, CoreParams, Limits, TraceBuilder};
use etpp::isa::KernelBuilder;
use etpp::mem::{
    ConfigOp, FilterFlags, MemParams, MemoryImage, MemorySystem, PrefetchEngine, RangeId,
};

const N: u64 = 40_000;
const PC_A: u32 = 0x10;
const PC_B: u32 = 0x14;
const PC_C: u32 = 0x18;

fn main() {
    // --- Build A, B, C in simulated memory -------------------------------
    let mut image = MemoryImage::new();
    let a = image.alloc_region(N * 8);
    let b = image.alloc_region(2 * N * 8);
    let c = image.alloc_region(2 * N * 8);
    for i in 0..N {
        image.write_u64(a.base + 8 * i, (i * 2654435761) % (2 * N));
    }
    for i in 0..2 * N {
        image.write_u64(b.base + 8 * i, (i * 40503) % (2 * N));
        image.write_u64(c.base + 8 * i, i);
    }

    // --- Record the loop's trace (Figure 4a) -----------------------------
    let mut t = TraceBuilder::new();
    for x in 0..N {
        let ai = image.read_u64(a.base + 8 * x);
        let bi = image.read_u64(b.base + 8 * ai);
        let lda = t.load(a.base + 8 * x, PC_A, [None, None]);
        let ldb = t.load(b.base + 8 * ai, PC_B, [Some(lda), None]);
        let ldc = t.load(c.base + 8 * bi, PC_C, [Some(ldb), None]);
        t.fp_op(4, [Some(ldc), None]);
        t.branch(0x1c, x + 1 != N, [None, None]);
    }
    let trace = t.build();

    // --- Write the event kernels (Figure 4b) -----------------------------
    let mut prog = PrefetchProgramBuilder::new();
    // on_A_load: prefetch two cache lines ahead in A.
    let on_a_load = prog.add_kernel(
        KernelBuilder::new("on_A_load")
            .ld_vaddr(0)
            .addi(0, 0, 128)
            .prefetch(0)
            .halt()
            .build(),
    );
    // on_A_prefetch: B[A[x]] — index B with the returned value.
    let on_a_pf = prog.add_kernel(
        KernelBuilder::new("on_A_prefetch")
            .ld_vaddr(1)
            .ld_data(0, 1)
            .shli(0, 0, 3)
            .ld_global(2, 1)
            .add(0, 0, 2)
            .prefetch(0)
            .halt()
            .build(),
    );
    // on_B_prefetch: C[B[...]].
    let on_b_pf = prog.add_kernel(
        KernelBuilder::new("on_B_prefetch")
            .ld_vaddr(1)
            .ld_data(0, 1)
            .shli(0, 0, 3)
            .ld_global(2, 2)
            .add(0, 0, 2)
            .prefetch(0)
            .halt()
            .build(),
    );

    let mut engine = ProgrammablePrefetcher::new(PrefetcherParams::paper(), prog.build());
    for op in [
        ConfigOp::SetGlobal {
            idx: 1,
            value: b.base,
        },
        ConfigOp::SetGlobal {
            idx: 2,
            value: c.base,
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: a.base,
            hi: a.end(),
            on_load: Some(on_a_load.0),
            on_prefetch: Some(on_a_pf.0),
            flags: FilterFlags {
                ewma_iteration: true,
                ewma_chain_start: true,
                ewma_chain_end: false,
            },
        },
        ConfigOp::SetRange {
            id: RangeId(1),
            lo: b.base,
            hi: b.end(),
            on_load: None,
            on_prefetch: Some(on_b_pf.0),
            flags: FilterFlags::default(),
        },
        ConfigOp::SetRange {
            id: RangeId(2),
            lo: c.base,
            hi: c.end(),
            on_load: None,
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: false,
                ewma_chain_start: false,
                ewma_chain_end: true,
            },
        },
    ] {
        engine.config(0, &op);
    }

    // --- Run with and without the engine ----------------------------------
    let baseline = simulate(&trace, image.clone(), &mut etpp::mem::NullEngine);
    let with_pf = simulate(&trace, image, &mut engine);
    let stats = engine.stats();

    println!("acc += C[B[A[x]]] over {N} iterations");
    println!("  no prefetch : {baseline:>10} cycles");
    println!("  event chain : {with_pf:>10} cycles");
    println!(
        "  speedup     : {:.2}x  ({} events on the PPUs, {} prefetches)",
        baseline as f64 / with_pf as f64,
        stats.events_run,
        stats.prefetches_emitted
    );
}

fn simulate(trace: &etpp::cpu::Trace, image: MemoryImage, engine: &mut dyn PrefetchEngine) -> u64 {
    let mut mem = MemorySystem::new(MemParams::paper(), image);
    let mut core = Core::new(CoreParams::paper(), trace);
    // The horizon-aware driver: it ticks only cycles where the core can
    // make progress; intermediate memory transfers and engine rounds
    // (prefetch pops included) run at their exact cycles inside it.
    let limits = Limits {
        workload: "C[B[A[x]]]",
        mode: "custom",
        max_cycles: u64::MAX,
        per_cycle_reference: false,
        deadline: None,
    };
    drive(&mut core, &mut mem, engine, &limits, &mut ()).0
}
