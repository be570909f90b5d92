//! PageRank over a CSR web graph (Table 2: stride-indirect).
//!
//! One pull-style PageRank iteration: for every vertex, accumulate
//! `rank[src]` over its in-edges, then write the damped result. The edge
//! array streams sequentially; the rank gathers are scattered. The paper
//! uses the Boost Graph Library on web-Google; here the graph is a
//! Kronecker graph with comparable degree skew (substitution recorded in
//! DESIGN.md).
//!
//! BGL's templated iterators hide element addresses, so *software
//! prefetching is not possible* (the empty Figure 7 bar); the pragma pass
//! works on the IR and succeeds.

use crate::common::{
    checksum_region, BuiltWorkload, PrefetchSetup, Scale, SoftwareTrace, Workload,
};
use crate::graph::{kronecker, to_csr};
use etpp_cpu::{OpId, TraceBuilder};
use etpp_isa::KernelBuilder;
use etpp_mem::{ConfigOp, FilterFlags, MemoryImage, RangeId, Region, TagId};

const PC_ROW: u32 = 0x700;
const PC_EDGE: u32 = 0x704;
const PC_RANK: u32 = 0x708;
const PC_ST: u32 = 0x70c;
const PC_BR: u32 = 0x710;

const G_RANK_BASE: u8 = 0;
const G_EDGE_END: u8 = 1;

const TAG_EDGES: u16 = 0;

/// The PageRank workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageRank;

struct Layout {
    rowstart: Region,
    edges: Region,
    rank: Region,
    newrank: Region,
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let (g_scale, edge_factor) = match scale {
            Scale::Tiny => (11u32, 8u64),
            Scale::Small => (17, 8),
            // web-Google: ~0.9M vertices, ~5M edges.
            Scale::Paper => (20, 5),
        };
        let el = kronecker(g_scale, edge_factor, 0x9a6e);
        let csr = to_csr(&el);
        let n = csr.rowstart.len() as u64 - 1;

        let mut image = MemoryImage::new();
        let l = Layout {
            rowstart: image.alloc_region((n + 1) * 8),
            edges: image.alloc_region(csr.adjacency.len() as u64 * 8),
            rank: image.alloc_region(n * 8),
            newrank: image.alloc_region(n * 8),
        };
        image.write_u64_slice(l.rowstart.base, &csr.rowstart);
        image.write_u64_slice(l.edges.base, &csr.adjacency);
        for v in 0..n {
            // Fixed-point initial rank.
            image.write_u64(l.rank.base + 8 * v, 1_000_000 / n.max(1));
        }
        let pristine = image.clone();

        let (conv, prag) = crate::loop_ir::run_passes(&crate::loop_ir::pagerank(l.edges, l.rank));
        assert!(conv.is_none(), "PageRank must not convert (no swpf)");
        let trace = build_trace(&mut image.clone(), &l, n);
        let mut post = image;
        reference(&mut post, &l, n);
        let expected = checksum_region(&post, l.newrank);

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            software: SoftwareTrace::default(), // BGL iterators: no address to software-prefetch
            manual: Some(manual_setup(&l)),
            converted: None,
            pragma: prag,
            check_region: l.newrank,
            expected,
            notes: "pull-based PR iteration on Kronecker stand-in for web-Google; \
                    software prefetch impossible through BGL iterators",
        }
    }
}

fn reference(image: &mut MemoryImage, l: &Layout, n: u64) {
    for v in 0..n {
        let start = image.read_u64(l.rowstart.base + 8 * v);
        let end = image.read_u64(l.rowstart.base + 8 * (v + 1));
        let mut acc = 0u64;
        for e in start..end {
            let s = image.read_u64(l.edges.base + 8 * e);
            acc = acc.wrapping_add(image.read_u64(l.rank.base + 8 * s));
        }
        // Damping 0.85 in fixed point.
        image.write_u64(l.newrank.base + 8 * v, acc.wrapping_mul(85) / 100);
    }
}

fn build_trace(image: &mut MemoryImage, l: &Layout, n: u64) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();
    for v in 0..n {
        let ldr = b.load(l.rowstart.base + 8 * v, PC_ROW, [None, None]);
        let start = image.read_u64(l.rowstart.base + 8 * v);
        let end = image.read_u64(l.rowstart.base + 8 * (v + 1));
        let mut acc: Option<OpId> = None;
        let mut sum = 0u64;
        for e in start..end {
            let s = image.read_u64(l.edges.base + 8 * e);
            let lde = b.load(l.edges.base + 8 * e, PC_EDGE, [Some(ldr), None]);
            let sh = b.int_op(1, [Some(lde), None]);
            let ldk = b.load(l.rank.base + 8 * s, PC_RANK, [Some(sh), None]);
            acc = Some(b.fp_op(4, [Some(ldk), acc]));
            sum = sum.wrapping_add(image.read_u64(l.rank.base + 8 * s));
            b.branch(PC_BR, e + 1 != end, [None, None]);
        }
        let damped = b.muldiv(3, [acc, None]);
        let out = sum.wrapping_mul(85) / 100;
        image.write_u64(l.newrank.base + 8 * v, out);
        b.store(l.newrank.base + 8 * v, out, PC_ST, [Some(damped), None]);
    }
    b.build()
}

fn manual_setup(l: &Layout) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

    // Edge stream drives everything: once per edge line, prefetch the edge
    // line `lookahead` ahead; on its arrival gather-prefetch the ranks.
    let mut kb = KernelBuilder::new("on_edge_load");
    let halt = kb.label();
    let on_edge_load = program.add_kernel(
        kb.ld_vaddr(0)
            .andi(1, 0, 63)
            .li(2, 0)
            .bne(1, 2, halt)
            .ld_ewma(3, 0)
            .shli(3, 3, 3)
            .add(0, 0, 3)
            .ld_global(4, G_EDGE_END)
            .bgeu(0, 4, halt)
            .prefetch_tag(0, TAG_EDGES)
            .bind(halt)
            .halt()
            .build(),
    );

    let mut kb = KernelBuilder::new("on_edge_line");
    let top = kb.label();
    let on_edge_line = program.add_kernel(
        kb.ld_global(1, G_RANK_BASE)
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
            idx: G_RANK_BASE,
            value: l.rank.base,
        },
        ConfigOp::SetGlobal {
            idx: G_EDGE_END,
            value: l.edges.end(),
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: l.edges.base,
            hi: l.edges.end(),
            on_load: Some(on_edge_load.0),
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: true,
                ewma_chain_start: true,
                ewma_chain_end: false,
            },
        },
        ConfigOp::SetRange {
            id: RangeId(1),
            lo: l.rank.base,
            hi: l.rank.end(),
            on_load: None,
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: false,
                ewma_chain_start: false,
                ewma_chain_end: true,
            },
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_EDGES),
            kernel: on_edge_line.0,
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
    fn trace_visits_every_edge() {
        let w = PageRank.build(Scale::Tiny);
        let c = w.trace.class_counts();
        // Edge + rank load per edge.
        assert!(c.loads > 2 * 10_000);
        assert_eq!(c.fp, (c.loads - 2_048) / 2, "one fp acc per edge");
    }

    #[test]
    fn no_software_variant_matches_paper() {
        let w = PageRank.build(Scale::Tiny);
        assert!(w.sw_trace().is_none());
        assert!(w.notes.contains("impossible"));
    }
}
