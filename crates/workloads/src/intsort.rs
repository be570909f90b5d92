//! IntSort — the NAS IS bucket-counting kernel (Table 2: stride-indirect).
//!
//! The hot loop increments `count[key[i]]` for a sequential stream of random
//! keys: a strided load feeding an indirect load/store. The key stream is
//! perfectly prefetchable; the count accesses are scattered across a table
//! much larger than the L2.
//!
//! * **Software prefetch** (paper: large speedup, +113% dynamic
//!   instructions): `swpf(&count[key[i+D]])` — an extra key load, shift and
//!   prefetch per iteration.
//! * **Manual events**: a load observation on the key array prefetches the
//!   key line `lookahead` ahead (EWMA-timed, tagged); when it returns, the
//!   PPU reads all eight keys and prefetches their count entries.

use crate::common::{
    checksum_region, mix64, BuiltWorkload, PrefetchSetup, Scale, SoftwareTrace, Workload,
};
use etpp_cpu::TraceBuilder;
use etpp_isa::KernelBuilder;
use etpp_mem::{ConfigOp, FilterFlags, MemoryImage, RangeId, Region, TagId};

const PC_KEY: u32 = 0x100;
const PC_CNT: u32 = 0x104;
const PC_ST: u32 = 0x108;
const PC_BR: u32 = 0x10c;
const PC_KEY_PF: u32 = 0x110;
const PC_SWPF: u32 = 0x114;

/// Software-prefetch look-ahead distance (elements), as a fixed compile-time
/// constant in the paper's software scheme.
const SWPF_DIST: u64 = 32;

/// Global register assignments for the manual program.
const G_CNT_BASE: u8 = 0;
const G_KEY_END: u8 = 1;

/// Memory request tag for key-line prefetches.
const TAG_KEY: u16 = 0;

/// The IntSort workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntSort;

#[derive(Clone, Copy)]
struct Params {
    n_keys: u64,
    n_buckets: u64,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Tiny => Params {
            n_keys: 20_000,
            n_buckets: 1 << 15,
        },
        Scale::Small => Params {
            n_keys: 400_000,
            n_buckets: 1 << 21,
        },
        // NAS IS class B: 2^25 keys into 2^21 buckets.
        Scale::Paper => Params {
            n_keys: 1 << 25,
            n_buckets: 1 << 21,
        },
    }
}

impl Workload for IntSort {
    fn name(&self) -> &'static str {
        "IntSort"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let p = params(scale);
        let mut image = MemoryImage::new();
        let keys = image.alloc_region(p.n_keys * 8);
        let counts = image.alloc_region(p.n_buckets * 8);
        for i in 0..p.n_keys {
            image.write_u64(keys.base + 8 * i, mix64(i) % p.n_buckets);
        }
        let pristine = image.clone();

        let (conv, prag) =
            crate::loop_ir::run_passes(&crate::loop_ir::intsort(keys, counts, SWPF_DIST));
        let trace = build_trace(&mut image.clone(), &p, keys, counts, false);
        // Produce the expected post-run state on a working copy.
        let mut post = image;
        run_reference(&mut post, &p, keys, counts);
        let expected = checksum_region(&post, counts);

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            software: SoftwareTrace::generated_by(move |pristine| {
                build_trace(&mut pristine.clone(), &p, keys, counts, true)
            }),
            manual: Some(manual_setup(keys, counts)),
            converted: conv,
            pragma: prag,
            check_region: counts,
            expected,
            notes: "NAS IS bucket-count kernel; keys regenerated from splitmix64",
        }
    }
}

fn run_reference(image: &mut MemoryImage, p: &Params, keys: Region, counts: Region) {
    for i in 0..p.n_keys {
        let k = image.read_u64(keys.base + 8 * i);
        let addr = counts.base + 8 * k;
        let v = image.read_u64(addr);
        image.write_u64(addr, v + 1);
    }
}

fn build_trace(
    image: &mut MemoryImage,
    p: &Params,
    keys: Region,
    counts: Region,
    swpf: bool,
) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();
    for i in 0..p.n_keys {
        if swpf {
            // k2 = key[i+D]; swpf(&count[k2]);
            let ahead = (i + SWPF_DIST).min(p.n_keys - 1);
            let k2 = image.read_u64(keys.base + 8 * ahead);
            let ld2 = b.load(keys.base + 8 * ahead, PC_KEY_PF, [None, None]);
            let sh2 = b.int_op(1, [Some(ld2), None]);
            b.swpf(counts.base + 8 * k2, PC_SWPF, [Some(sh2), None]);
        }
        let k = image.read_u64(keys.base + 8 * i);
        let ld = b.load(keys.base + 8 * i, PC_KEY, [None, None]);
        let sh = b.int_op(1, [Some(ld), None]);
        let addr = counts.base + 8 * k;
        let ldc = b.load(addr, PC_CNT, [Some(sh), None]);
        let v = image.read_u64(addr);
        let inc = b.int_op(1, [Some(ldc), None]);
        image.write_u64(addr, v + 1);
        b.store(addr, v + 1, PC_ST, [Some(inc), None]);
        b.branch(PC_BR, i + 1 != p.n_keys, [None, None]);
    }
    b.build()
}

/// The hand-written event program (§5-style).
fn manual_setup(keys: Region, counts: Region) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

    // on_key_load: once per key line, prefetch the line `lookahead` elements
    // ahead (bounded by the array end), tagged so its arrival fans out.
    let mut kb = KernelBuilder::new("on_key_load");
    let halt = kb.label();
    let on_key_load = program.add_kernel(
        kb.ld_vaddr(0)
            .andi(1, 0, 63)
            .li(2, 0)
            .bne(1, 2, halt)
            .ld_ewma(3, 0)
            .shli(3, 3, 3)
            .add(0, 0, 3)
            .ld_global(4, G_KEY_END)
            .bgeu(0, 4, halt)
            .prefetch_tag(0, TAG_KEY)
            .bind(halt)
            .halt()
            .build(),
    );

    // on_key_line: fan out count prefetches for all eight keys in the line.
    let mut kb = KernelBuilder::new("on_key_line");
    let top = kb.label();
    let on_key_line = program.add_kernel(
        kb.ld_global(1, G_CNT_BASE)
            .li(2, 0)
            .bind(top)
            .ld_data(3, 2)
            .shli(3, 3, 3)
            .add(3, 3, 1)
            .prefetch(3)
            .addi(2, 2, 8)
            .li(4, 64)
            .bltu(2, 4, top)
            .halt()
            .build(),
    );

    let configs = vec![
        ConfigOp::SetGlobal {
            idx: G_CNT_BASE,
            value: counts.base,
        },
        ConfigOp::SetGlobal {
            idx: G_KEY_END,
            value: keys.end(),
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: keys.base,
            hi: keys.end(),
            on_load: Some(on_key_load.0),
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: true,
                ewma_chain_start: true,
                ewma_chain_end: false,
            },
        },
        ConfigOp::SetRange {
            id: RangeId(1),
            lo: counts.base,
            hi: counts.end(),
            on_load: None,
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: false,
                ewma_chain_start: false,
                ewma_chain_end: true,
            },
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_KEY),
            kernel: on_key_line.0,
            chain_end: false,
        },
    ];

    PrefetchSetup {
        program: program.build(),
        configs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Workload;

    #[test]
    fn trace_has_expected_shape() {
        let w = IntSort.build(Scale::Tiny);
        let c = w.trace.class_counts();
        assert_eq!(c.loads, 2 * 20_000);
        assert_eq!(c.stores, 20_000);
        assert_eq!(c.branches, 20_000);
        let sw = w.sw_trace().unwrap().class_counts();
        assert_eq!(sw.swpf, 20_000);
        assert!(sw.total() > c.total());
    }

    #[test]
    fn swpf_overhead_is_meaningful() {
        // §7.1 reports +113% dynamic instructions for IntSort's software
        // prefetch; ours adds 3 ops to a 5-op loop (+60%): same regime.
        let w = IntSort.build(Scale::Tiny);
        let base = w.trace.class_counts().total() as f64;
        let sw = w.sw_trace().unwrap().class_counts().total() as f64;
        let overhead = sw / base - 1.0;
        assert!(overhead > 0.4, "overhead {overhead}");
    }

    #[test]
    fn expected_checksum_matches_reference_recount() {
        let w = IntSort.build(Scale::Tiny);
        // Recompute independently from the pristine image.
        let p = params(Scale::Tiny);
        let keys_base = w.image.read_u64(w.check_region.base); // dummy read
        let _ = keys_base;
        let mut post = w.image.clone();
        run_reference(
            &mut post,
            &p,
            Region {
                base: 0x1_0000,
                len: p.n_keys * 8,
            },
            w.check_region,
        );
        assert_eq!(checksum_region(&post, w.check_region), w.expected);
    }

    #[test]
    fn manual_program_is_small() {
        let w = IntSort.build(Scale::Tiny);
        let m = w.manual.as_ref().unwrap();
        // Paper: PPU programs are minuscule (≤1KB).
        assert!(m.program.total_insts() < 64);
        assert_eq!(m.program.kernels.len(), 2);
    }
}
