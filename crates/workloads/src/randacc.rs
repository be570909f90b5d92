//! RandAcc — HPCC RandomAccess / GUPS (Table 2: stride-hash-indirect).
//!
//! Batches of 128 LCG streams are regenerated into a small array, then each
//! value XORs into a random slot of a table far larger than the L2:
//!
//! ```text
//! for each batch:
//!   for j in 0..128: ran[j] = lcg(ran[j]);            // phase 1 (registers)
//!   for j in 0..128: table[ran[j] & mask] ^= ran[j];  // phase 2 (traced loads)
//! ```
//!
//! The 128-entry `ran` array is the one the paper calls out: software
//! prefetch and manual events can encode the *wrap-around* to the next
//! batch — applying the LCG step inside the prefetch kernel — while the
//! pragma pass cannot discover it and leaves the first entries of each
//! batch unprefetched (§7.1).

use crate::common::{
    checksum_region, mix64, BuiltWorkload, PrefetchSetup, Scale, SoftwareTrace, Workload,
};
use etpp_cpu::TraceBuilder;
use etpp_isa::KernelBuilder;
use etpp_mem::{ConfigOp, FilterFlags, MemoryImage, RangeId, Region, TagId};

const PC_RAN: u32 = 0x300;
const PC_TAB: u32 = 0x304;
const PC_ST_TAB: u32 = 0x308;
const PC_ST_RAN: u32 = 0x30c;
const PC_BR: u32 = 0x310;
const PC_RAN_PF: u32 = 0x314;
const PC_SWPF: u32 = 0x318;

/// HPCC polynomial for the LCG step.
const POLY: u64 = 7;

/// Streams per batch (fixed by the HPCC reference implementation).
const BATCH: u64 = 128;

/// Software / manual prefetch distance in elements.
const DIST: u64 = 24;

const G_TAB_BASE: u8 = 0;
const G_RAN_BASE: u8 = 1;
const G_MASK: u8 = 2;

const TAG_RAN: u16 = 0;
const TAG_RAN_WRAP: u16 = 1;

#[inline]
fn lcg(v: u64) -> u64 {
    (v << 1) ^ ((v >> 63).wrapping_mul(POLY))
}

/// The RandAcc workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandAcc;

#[derive(Clone, Copy)]
struct Layout {
    ran: Region,
    table: Region,
    log_table: u32,
    n_updates: u64,
}

impl Workload for RandAcc {
    fn name(&self) -> &'static str {
        "RandAcc"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let (log_table, n_updates) = match scale {
            Scale::Tiny => (15u32, 16_000u64),
            Scale::Small => (21, 300_000),
            // HPCC input 100000000 updates.
            Scale::Paper => (24, 100_000_000),
        };
        let mut image = MemoryImage::new();
        let l = Layout {
            ran: image.alloc_region(BATCH * 8),
            table: image.alloc_region((1u64 << log_table) * 8),
            log_table,
            n_updates: (n_updates / BATCH) * BATCH,
        };
        for j in 0..BATCH {
            image.write_u64(l.ran.base + 8 * j, mix64(j ^ 0x5eed));
        }
        for i in 0..(1u64 << log_table) {
            image.write_u64(l.table.base + 8 * i, i);
        }
        let pristine = image.clone();

        let (conv, prag) =
            crate::loop_ir::run_passes(&crate::loop_ir::randacc(l.ran, l.table, l.log_table, DIST));
        let trace = build_trace(&mut image.clone(), &l, false);
        let mut post = image;
        reference(&mut post, &l);
        let expected = checksum_region(&post, l.table);

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            software: SoftwareTrace::generated_by(move |pristine| {
                build_trace(&mut pristine.clone(), &l, true)
            }),
            manual: Some(manual_setup(&l)),
            converted: conv,
            pragma: prag,
            check_region: l.table,
            expected,
            notes: "HPCC GUPS; 128-entry batch array exercises wrap-around prefetching",
        }
    }
}

fn reference(image: &mut MemoryImage, l: &Layout) {
    let mask = (1u64 << l.log_table) - 1;
    for _batch in 0..l.n_updates / BATCH {
        for j in 0..BATCH {
            let v = lcg(image.read_u64(l.ran.base + 8 * j));
            image.write_u64(l.ran.base + 8 * j, v);
        }
        for j in 0..BATCH {
            let v = image.read_u64(l.ran.base + 8 * j);
            let addr = l.table.base + 8 * (v & mask);
            let t = image.read_u64(addr);
            image.write_u64(addr, t ^ v);
        }
    }
}

fn build_trace(image: &mut MemoryImage, l: &Layout, swpf: bool) -> etpp_cpu::Trace {
    let mask = (1u64 << l.log_table) - 1;
    let mut b = TraceBuilder::new();
    for _batch in 0..l.n_updates / BATCH {
        // Phase 1: regenerate the streams (register arithmetic + stores).
        for j in 0..BATCH {
            let v = lcg(image.read_u64(l.ran.base + 8 * j));
            image.write_u64(l.ran.base + 8 * j, v);
            let a = b.int_op(1, [None, None]);
            let c = b.int_op(1, [Some(a), None]);
            b.store(l.ran.base + 8 * j, v, PC_ST_RAN, [Some(c), None]);
            b.branch(PC_BR, j + 1 != BATCH, [None, None]);
        }
        // Phase 2: apply the updates.
        for j in 0..BATCH {
            if swpf {
                // Wrap-aware software prefetch: for the tail of the batch,
                // apply the LCG step to predict the next batch's value.
                let jd = j + DIST;
                let (addr_known, extra_lcg) = if jd < BATCH {
                    (image.read_u64(l.ran.base + 8 * jd), false)
                } else {
                    (image.read_u64(l.ran.base + 8 * (jd - BATCH)), true)
                };
                let v2 = if extra_lcg {
                    lcg(addr_known)
                } else {
                    addr_known
                };
                let src = l.ran.base + 8 * (jd % BATCH);
                let ld2 = b.load(src, PC_RAN_PF, [None, None]);
                let mut dep = b.int_op(1, [Some(ld2), None]);
                if extra_lcg {
                    dep = b.int_op(1, [Some(dep), None]);
                    dep = b.int_op(1, [Some(dep), None]);
                }
                b.swpf(l.table.base + 8 * (v2 & mask), PC_SWPF, [Some(dep), None]);
            }
            let v = image.read_u64(l.ran.base + 8 * j);
            let addr = l.table.base + 8 * (v & mask);
            let ld = b.load(l.ran.base + 8 * j, PC_RAN, [None, None]);
            let mk = b.int_op(1, [Some(ld), None]);
            let ldt = b.load(addr, PC_TAB, [Some(mk), None]);
            let x = b.int_op(1, [Some(ldt), Some(ld)]);
            let t = image.read_u64(addr);
            image.write_u64(addr, t ^ v);
            b.store(addr, t ^ v, PC_ST_TAB, [Some(x), None]);
            b.branch(PC_BR, j + 1 != BATCH, [None, None]);
        }
    }
    b.build()
}

fn manual_setup(l: &Layout) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

    // on_ran_load: prefetch the stream value DIST ahead, wrapping within the
    // 1 KiB array; wrapped targets get the LCG-applying kernel.
    let mut kb = KernelBuilder::new("on_ran_load");
    let wrapped = kb.label();
    let on_ran_load = program.add_kernel(
        kb.ld_vaddr(0)
            .ld_global(1, G_RAN_BASE)
            .sub(0, 0, 1) // offset in array
            .addi(0, 0, (DIST * 8) as i64)
            .li(2, BATCH * 8)
            .bgeu(0, 2, wrapped)
            .add(0, 0, 1)
            .prefetch_tag(0, TAG_RAN)
            .halt()
            .bind(wrapped)
            .andi(0, 0, BATCH * 8 - 1)
            .add(0, 0, 1)
            .prefetch_tag(0, TAG_RAN_WRAP)
            .halt()
            .build(),
    );

    // Current-batch value: table[v & mask].
    let on_ran = program.add_kernel(
        KernelBuilder::new("on_ran")
            .ld_vaddr(1)
            .ld_data(0, 1)
            .ld_global(2, G_MASK)
            .and(0, 0, 2)
            .shli(0, 0, 3)
            .ld_global(3, G_TAB_BASE)
            .add(0, 0, 3)
            .prefetch(0)
            .halt()
            .build(),
    );

    // Wrapped: the next batch will first regenerate, so apply the LCG step
    // to the observed value before indexing the table.
    let on_ran_wrap = program.add_kernel(
        KernelBuilder::new("on_ran_wrap")
            .ld_vaddr(1)
            .ld_data(0, 1)
            .shri(4, 0, 63)
            .muli(4, 4, POLY)
            .shli(0, 0, 1)
            .xor(0, 0, 4)
            .ld_global(2, G_MASK)
            .and(0, 0, 2)
            .shli(0, 0, 3)
            .ld_global(3, G_TAB_BASE)
            .add(0, 0, 3)
            .prefetch(0)
            .halt()
            .build(),
    );

    let configs = vec![
        ConfigOp::SetGlobal {
            idx: G_TAB_BASE,
            value: l.table.base,
        },
        ConfigOp::SetGlobal {
            idx: G_RAN_BASE,
            value: l.ran.base,
        },
        ConfigOp::SetGlobal {
            idx: G_MASK,
            value: (1u64 << l.log_table) - 1,
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: l.ran.base,
            hi: l.ran.end(),
            on_load: Some(on_ran_load.0),
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: true,
                ewma_chain_start: true,
                ewma_chain_end: false,
            },
        },
        ConfigOp::SetRange {
            id: RangeId(1),
            lo: l.table.base,
            hi: l.table.end(),
            on_load: None,
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: false,
                ewma_chain_start: false,
                ewma_chain_end: true,
            },
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_RAN),
            kernel: on_ran.0,
            chain_end: false,
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_RAN_WRAP),
            kernel: on_ran_wrap.0,
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

    #[test]
    fn lcg_matches_hpcc_semantics() {
        // Positive values shift left; negative (top-bit) values also XOR POLY.
        assert_eq!(lcg(1), 2);
        assert_eq!(lcg(1u64 << 63), POLY);
    }

    #[test]
    fn updates_are_batch_aligned() {
        let w = RandAcc.build(Scale::Tiny);
        let c = w.trace.class_counts();
        // Phase2 contributes 2 loads per update.
        assert_eq!(c.loads % (2 * BATCH), 0);
    }

    #[test]
    fn wrap_kernel_differs_from_plain() {
        let w = RandAcc.build(Scale::Tiny);
        let m = w.manual.as_ref().unwrap();
        let plain = m.program.find("on_ran").unwrap();
        let wrap = m.program.find("on_ran_wrap").unwrap();
        assert!(m.program.kernel(wrap).len() > m.program.kernel(plain).len());
    }

    #[test]
    fn reference_touches_table() {
        let w = RandAcc.build(Scale::Tiny);
        let mut post = w.image.clone();
        let l = Layout {
            ran: Region {
                base: 0x1_0000,
                len: BATCH * 8,
            },
            table: w.check_region,
            log_table: 15,
            n_updates: 16_000 / BATCH * BATCH,
        };
        reference(&mut post, &l);
        assert_eq!(checksum_region(&post, w.check_region), w.expected);
    }
}
