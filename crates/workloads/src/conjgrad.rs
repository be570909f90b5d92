//! ConjGrad — the NAS CG sparse matrix-vector kernel (Table 2:
//! stride-indirect).
//!
//! The hot loop of conjugate gradient is the SpMV sweep over a CSR matrix:
//! sequential `colidx`/`a` streams feeding an indirect gather of `x`:
//!
//! ```text
//! for r in rows: for j in rowstart[r]..rowstart[r+1]:
//!     sum += a[j] * x[colidx[j]]
//! ```
//!
//! Values are carried as fixed-point integers in FP-class micro-ops, which
//! keeps validation exact while still occupying the FP units.

use crate::common::{
    checksum_region, mix64, BuiltWorkload, PrefetchSetup, Scale, SoftwareTrace, Workload,
};
use etpp_cpu::{OpId, TraceBuilder};
use etpp_isa::KernelBuilder;
use etpp_mem::{ConfigOp, FilterFlags, MemoryImage, RangeId, Region, TagId};

const PC_ROW: u32 = 0x400;
const PC_COL: u32 = 0x404;
const PC_A: u32 = 0x408;
const PC_X: u32 = 0x40c;
const PC_ST_Y: u32 = 0x410;
const PC_BR: u32 = 0x414;
const PC_COL_PF: u32 = 0x418;
const PC_SWPF: u32 = 0x41c;

const SWPF_DIST: u64 = 32;

const G_X_BASE: u8 = 0;
const G_A_BASE: u8 = 1;
const G_COL_BASE: u8 = 2;
const G_COL_END: u8 = 3;

const TAG_COL: u16 = 0;

/// The ConjGrad (NAS CG SpMV) workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConjGrad;

#[derive(Clone, Copy)]
struct Layout {
    rowstart: Region,
    colidx: Region,
    a: Region,
    x: Region,
    y: Region,
    rows: u64,
    nnz_per_row: u64,
}

impl Workload for ConjGrad {
    fn name(&self) -> &'static str {
        "ConjGrad"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let (rows, nnz_per_row, n) = match scale {
            Scale::Tiny => (2_000u64, 8u64, 1u64 << 15),
            Scale::Small => (60_000, 8, 1 << 20),
            // NAS CG class B: n = 75000, ~13 nnz per row after outer products.
            Scale::Paper => (75_000, 168, 1 << 20),
        };
        let nnz = rows * nnz_per_row;
        let mut image = MemoryImage::new();
        let l = Layout {
            rowstart: image.alloc_region((rows + 1) * 8),
            colidx: image.alloc_region(nnz * 8),
            a: image.alloc_region(nnz * 8),
            x: image.alloc_region(n * 8),
            y: image.alloc_region(rows * 8),
            rows,
            nnz_per_row,
        };
        for r in 0..=rows {
            image.write_u64(l.rowstart.base + 8 * r, r * nnz_per_row);
        }
        for j in 0..nnz {
            image.write_u64(l.colidx.base + 8 * j, mix64(j ^ 0xC61) % n);
            image.write_u64(l.a.base + 8 * j, mix64(j ^ 0xA) % 1024);
        }
        for i in 0..n {
            image.write_u64(l.x.base + 8 * i, mix64(i ^ 0x11) % 1024);
        }
        let pristine = image.clone();

        let (conv, prag) =
            crate::loop_ir::run_passes(&crate::loop_ir::conjgrad(l.colidx, l.x, SWPF_DIST));
        let trace = build_trace(&mut image.clone(), &l, false);
        let mut post = image;
        reference(&mut post, &l);
        let expected = checksum_region(&post, l.y);

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
            check_region: l.y,
            expected,
            notes: "CSR SpMV sweep; fixed-point values in FP-class ops",
        }
    }
}

fn reference(image: &mut MemoryImage, l: &Layout) {
    for r in 0..l.rows {
        let start = image.read_u64(l.rowstart.base + 8 * r);
        let end = image.read_u64(l.rowstart.base + 8 * (r + 1));
        let mut sum = 0u64;
        for j in start..end {
            let col = image.read_u64(l.colidx.base + 8 * j);
            let av = image.read_u64(l.a.base + 8 * j);
            let xv = image.read_u64(l.x.base + 8 * col);
            sum = sum.wrapping_add(av.wrapping_mul(xv));
        }
        image.write_u64(l.y.base + 8 * r, sum);
    }
}

fn build_trace(image: &mut MemoryImage, l: &Layout, swpf: bool) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();
    let nnz = l.rows * l.nnz_per_row;
    for r in 0..l.rows {
        let ldr = b.load(l.rowstart.base + 8 * r, PC_ROW, [None, None]);
        let start = image.read_u64(l.rowstart.base + 8 * r);
        let end = image.read_u64(l.rowstart.base + 8 * (r + 1));
        let mut sum = 0u64;
        let mut acc: Option<OpId> = None;
        for j in start..end {
            if swpf {
                let jd = (j + SWPF_DIST).min(nnz - 1);
                let c2 = image.read_u64(l.colidx.base + 8 * jd);
                let ld2 = b.load(l.colidx.base + 8 * jd, PC_COL_PF, [None, None]);
                let s2 = b.int_op(1, [Some(ld2), None]);
                b.swpf(l.x.base + 8 * c2, PC_SWPF, [Some(s2), None]);
            }
            let col = image.read_u64(l.colidx.base + 8 * j);
            let av = image.read_u64(l.a.base + 8 * j);
            let xv = image.read_u64(l.x.base + 8 * col);
            let ldc = b.load(l.colidx.base + 8 * j, PC_COL, [Some(ldr), None]);
            let lda = b.load(l.a.base + 8 * j, PC_A, [Some(ldr), None]);
            let sh = b.int_op(1, [Some(ldc), None]);
            let ldx = b.load(l.x.base + 8 * col, PC_X, [Some(sh), None]);
            let mul = b.fp_op(4, [Some(ldx), Some(lda)]);
            acc = Some(b.fp_op(4, [Some(mul), acc]));
            sum = sum.wrapping_add(av.wrapping_mul(xv));
            b.branch(PC_BR, j + 1 != end, [None, None]);
        }
        image.write_u64(l.y.base + 8 * r, sum);
        b.store(l.y.base + 8 * r, sum, PC_ST_Y, [acc, None]);
    }
    b.build()
}

fn manual_setup(l: &Layout) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

    // on_col_load: once per colidx line, prefetch the colidx line
    // `lookahead` ahead (tagged) and the matching a[] line (untagged).
    let mut kb = KernelBuilder::new("on_col_load");
    let halt = kb.label();
    let on_col_load = program.add_kernel(
        kb.ld_vaddr(0)
            .andi(1, 0, 63)
            .li(2, 0)
            .bne(1, 2, halt)
            .ld_ewma(3, 0)
            .shli(3, 3, 3)
            .add(0, 0, 3)
            .ld_global(4, G_COL_END)
            .bgeu(0, 4, halt)
            .prefetch_tag(0, TAG_COL)
            .ld_global(5, G_COL_BASE)
            .sub(6, 0, 5)
            .ld_global(7, G_A_BASE)
            .add(6, 6, 7)
            .prefetch(6)
            .bind(halt)
            .halt()
            .build(),
    );

    // colidx line arrived: gather-prefetch x for all eight columns.
    let mut kb = KernelBuilder::new("on_col_line");
    let top = kb.label();
    let on_col_line = program.add_kernel(
        kb.ld_global(1, G_X_BASE)
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
            idx: G_X_BASE,
            value: l.x.base,
        },
        ConfigOp::SetGlobal {
            idx: G_A_BASE,
            value: l.a.base,
        },
        ConfigOp::SetGlobal {
            idx: G_COL_BASE,
            value: l.colidx.base,
        },
        ConfigOp::SetGlobal {
            idx: G_COL_END,
            value: l.colidx.end(),
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: l.colidx.base,
            hi: l.colidx.end(),
            on_load: Some(on_col_load.0),
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: true,
                ewma_chain_start: true,
                ewma_chain_end: false,
            },
        },
        ConfigOp::SetRange {
            id: RangeId(1),
            lo: l.x.base,
            hi: l.x.end(),
            on_load: None,
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: false,
                ewma_chain_start: false,
                ewma_chain_end: true,
            },
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_COL),
            kernel: on_col_line.0,
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
    fn trace_shape_matches_nnz() {
        let w = ConjGrad.build(Scale::Tiny);
        let c = w.trace.class_counts();
        let nnz = 2_000 * 8;
        // rowstart + colidx + a + x loads.
        assert_eq!(c.loads, 2_000 + 3 * nnz);
        assert_eq!(c.fp, 2 * nnz);
        assert_eq!(c.stores, 2_000);
    }

    #[test]
    fn determinism() {
        let a = ConjGrad.build(Scale::Tiny);
        let b = ConjGrad.build(Scale::Tiny);
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn manual_prefetches_both_streams() {
        let w = ConjGrad.build(Scale::Tiny);
        let m = w.manual.as_ref().unwrap();
        let k = m.program.find("on_col_load").unwrap();
        let n_pf = m
            .program
            .kernel(k)
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    etpp_isa::Inst::Prefetch { .. } | etpp_isa::Inst::PrefetchTag { .. }
                )
            })
            .count();
        assert_eq!(n_pf, 2, "colidx (tagged) + a (untagged)");
    }
}
