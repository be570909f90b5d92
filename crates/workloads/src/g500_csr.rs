//! G500-CSR — Graph500 breadth-first search over CSR arrays (Table 2).
//!
//! The BFS inner loop pops a vertex from the FIFO queue, loads its edge
//! range from `rowstart`, scans `edges`, and tests/sets `visited` for each
//! neighbour — four dependent indirections with abundant inter-iteration
//! memory-level parallelism that neither stride nor history prefetchers can
//! reach.
//!
//! The manual event program is the paper's flagship chain: queue load →
//! (EWMA look-ahead) queue prefetch → vertex row bounds → edge lines →
//! visited entries. Per §7.1, the work per vertex is data-dependent, so
//! this benchmark is *prefetch-compute-bound*: it keeps all 12 PPUs busy
//! and keeps scaling with PPU clock (Figures 9 and 10).

use crate::common::{
    checksum_region, BuiltWorkload, PrefetchSetup, Scale, SoftwareTrace, Workload,
};
use crate::graph::{bfs_reference, kronecker, pick_root, to_csr, Csr};
use etpp_cpu::TraceBuilder;
use etpp_isa::KernelBuilder;
use etpp_mem::{ConfigOp, FilterFlags, MemoryImage, RangeId, Region, TagId};

const PC_Q: u32 = 0x500;
const PC_ROW: u32 = 0x504;
const PC_ROW2: u32 = 0x508;
const PC_EDGE: u32 = 0x50c;
const PC_VIS: u32 = 0x510;
const PC_BR_VIS: u32 = 0x514;
const PC_ST_VIS: u32 = 0x518;
const PC_ST_Q: u32 = 0x51c;
const PC_BR_EDGE: u32 = 0x520;
const PC_BR_ITER: u32 = 0x524;

const G_ROW_BASE: u8 = 0;
const G_EDGE_BASE: u8 = 1;
const G_VIS_BASE: u8 = 2;
const G_Q_END: u8 = 3;

const TAG_Q: u16 = 0;
const TAG_ROW: u16 = 1;
const TAG_EDGE: u16 = 2;

/// Maximum edge lines prefetched per row event ("first N", §7.1).
const MAX_EDGE_LINES: u64 = 16;

/// The G500-CSR workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct G500Csr;

struct Layout {
    rowstart: Region,
    edges: Region,
    visited: Region,
    queue: Region,
}

impl Workload for G500Csr {
    fn name(&self) -> &'static str {
        "G500-CSR"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let (g_scale, edge_factor) = match scale {
            Scale::Tiny => (11u32, 8u64),
            Scale::Small => (17, 10),
            // Graph500: -s 21 -e 10 (minus validation phases).
            Scale::Paper => (21, 10),
        };
        let el = kronecker(g_scale, edge_factor, 0x6500);
        let csr = to_csr(&el);
        let root = pick_root(&csr);
        let n = csr.rowstart.len() as u64 - 1;

        let mut image = MemoryImage::new();
        let l = Layout {
            rowstart: image.alloc_region((n + 1) * 8),
            edges: image.alloc_region(csr.adjacency.len() as u64 * 8),
            visited: image.alloc_region(n * 8),
            queue: image.alloc_region(n * 8),
        };
        image.write_u64_slice(l.rowstart.base, &csr.rowstart);
        image.write_u64_slice(l.edges.base, &csr.adjacency);
        // Initialisation (skipped in the paper's measurements): root queued.
        image.write_u64(l.visited.base + 8 * root, 1);
        image.write_u64(l.queue.base, root);
        let pristine = image.clone();

        let (conv, prag) = crate::loop_ir::run_passes(&crate::loop_ir::g500_csr(
            l.queue, l.rowstart, l.edges, l.visited, 16,
        ));
        let trace = build_trace(&mut image.clone(), &l, &csr, root);
        let (order, _) = bfs_reference(&csr, root);
        let mut post = image;
        reference(&mut post, &l);
        let expected = checksum_region(&post, l.visited);
        debug_assert_eq!(
            post.read_u64(l.queue.base + 8 * (order.len() as u64 - 1)),
            *order.last().unwrap()
        );

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            software: SoftwareTrace::default(), // data-dependent inner loop: no fixed-distance swpf
            manual: Some(manual_setup(&l)),
            converted: conv,
            pragma: prag,
            check_region: l.visited,
            expected,
            notes: "Kronecker BFS; inner loop length is data-dependent so plain \
                    software prefetching has no fixed look-ahead target",
        }
    }
}

fn reference(image: &mut MemoryImage, l: &Layout) {
    let mut head = 0u64;
    let mut tail = 1u64;
    while head < tail {
        let u = image.read_u64(l.queue.base + 8 * head);
        head += 1;
        let start = image.read_u64(l.rowstart.base + 8 * u);
        let end = image.read_u64(l.rowstart.base + 8 * (u + 1));
        for e in start..end {
            let v = image.read_u64(l.edges.base + 8 * e);
            if image.read_u64(l.visited.base + 8 * v) == 0 {
                image.write_u64(l.visited.base + 8 * v, 1);
                image.write_u64(l.queue.base + 8 * tail, v);
                tail += 1;
            }
        }
    }
}

fn build_trace(image: &mut MemoryImage, l: &Layout, _csr: &Csr, _root: u64) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();
    let mut head = 0u64;
    let mut tail = 1u64;
    while head < tail {
        let u = image.read_u64(l.queue.base + 8 * head);
        let ldq = b.load(l.queue.base + 8 * head, PC_Q, [None, None]);
        head += 1;
        let ldr1 = b.load(l.rowstart.base + 8 * u, PC_ROW, [Some(ldq), None]);
        let ldr2 = b.load(l.rowstart.base + 8 * (u + 1), PC_ROW2, [Some(ldq), None]);
        let start = image.read_u64(l.rowstart.base + 8 * u);
        let end = image.read_u64(l.rowstart.base + 8 * (u + 1));
        for e in start..end {
            let v = image.read_u64(l.edges.base + 8 * e);
            let lde = b.load(l.edges.base + 8 * e, PC_EDGE, [Some(ldr1), Some(ldr2)]);
            let ldv = b.load(l.visited.base + 8 * v, PC_VIS, [Some(lde), None]);
            let unvisited = image.read_u64(l.visited.base + 8 * v) == 0;
            b.branch(PC_BR_VIS, unvisited, [Some(ldv), None]);
            if unvisited {
                image.write_u64(l.visited.base + 8 * v, 1);
                image.write_u64(l.queue.base + 8 * tail, v);
                b.store(l.visited.base + 8 * v, 1, PC_ST_VIS, [Some(ldv), None]);
                b.store(l.queue.base + 8 * tail, v, PC_ST_Q, [Some(lde), None]);
                b.int_op(1, [None, None]); // tail++
                tail += 1;
            }
            b.branch(PC_BR_EDGE, e + 1 != end, [None, None]);
        }
        b.branch(PC_BR_ITER, head != tail, [None, None]);
    }
    b.build()
}

fn manual_setup(l: &Layout) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

    // on_queue_load: prefetch the queue entry `lookahead` pops ahead.
    let mut kb = KernelBuilder::new("on_queue_load");
    let halt = kb.label();
    let on_queue_load = program.add_kernel(
        kb.ld_vaddr(0)
            .ld_ewma(1, 0)
            .shli(1, 1, 3)
            .add(0, 0, 1)
            .ld_global(2, G_Q_END)
            .bgeu(0, 2, halt)
            .prefetch_tag(0, TAG_Q)
            .bind(halt)
            .halt()
            .build(),
    );

    // queue entry arrived: u -> rowstart[u] (rowstart[u+1] is in the same
    // line 7 times out of 8; the row kernel handles the boundary).
    let on_q = program.add_kernel(
        KernelBuilder::new("on_q_entry")
            .ld_vaddr(1)
            .ld_data(0, 1)
            .shli(0, 0, 3)
            .ld_global(2, G_ROW_BASE)
            .add(0, 0, 2)
            .prefetch_tag(0, TAG_ROW)
            .halt()
            .build(),
    );

    // row bounds arrived: prefetch the edge lines start..end (capped at
    // MAX_EDGE_LINES; when rowstart[u+1] sits in the next line — one case in
    // eight — fall back to a fixed "first N" window, §7.1).
    let mut kb = KernelBuilder::new("on_row");
    let have_end = kb.label();
    let cont = kb.label();
    let loop_top = kb.label();
    let halt = kb.label();
    let on_row = {
        let k = kb
            .ld_vaddr(1)
            .andi(2, 1, 63)
            .ld_data(3, 2) // start
            .li(4, 56)
            .bltu(2, 4, have_end)
            .addi(5, 3, (MAX_EDGE_LINES * 8) as i64)
            .jmp(cont)
            .bind(have_end)
            .addi(2, 2, 8)
            .ld_data(5, 2) // end
            .bind(cont)
            .shli(3, 3, 3)
            .shli(5, 5, 3)
            .ld_global(6, G_EDGE_BASE)
            .add(3, 3, 6)
            .add(5, 5, 6)
            .li(7, MAX_EDGE_LINES)
            .bind(loop_top)
            .bgeu(3, 5, halt)
            .li(8, 0)
            .beq(7, 8, halt)
            .prefetch_tag(3, TAG_EDGE)
            .addi(3, 3, 64)
            .andi(3, 3, !63)
            .addi(7, 7, -1)
            .jmp(loop_top)
            .bind(halt)
            .halt()
            .build();
        program.add_kernel(k)
    };

    // edge line arrived: test-prefetch visited for all eight neighbours.
    let mut kb = KernelBuilder::new("on_edge_line");
    let top = kb.label();
    let on_edge_line = program.add_kernel(
        kb.ld_global(1, G_VIS_BASE)
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
            idx: G_ROW_BASE,
            value: l.rowstart.base,
        },
        ConfigOp::SetGlobal {
            idx: G_EDGE_BASE,
            value: l.edges.base,
        },
        ConfigOp::SetGlobal {
            idx: G_VIS_BASE,
            value: l.visited.base,
        },
        ConfigOp::SetGlobal {
            idx: G_Q_END,
            value: l.queue.end(),
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: l.queue.base,
            hi: l.queue.end(),
            on_load: Some(on_queue_load.0),
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: true,
                ewma_chain_start: true,
                ewma_chain_end: false,
            },
        },
        ConfigOp::SetRange {
            id: RangeId(1),
            lo: l.visited.base,
            hi: l.visited.end(),
            on_load: None,
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: false,
                ewma_chain_start: false,
                ewma_chain_end: true,
            },
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_Q),
            kernel: on_q.0,
            chain_end: false,
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_ROW),
            kernel: on_row.0,
            chain_end: false,
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_EDGE),
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
    fn bfs_trace_visits_each_edge_once() {
        let w = G500Csr.build(Scale::Tiny);
        let c = w.trace.class_counts();
        // Each scanned edge contributes an edge load + a visited load.
        assert!(c.loads > 10_000, "loads {}", c.loads);
        assert!(c.stores > 1_000, "stores {}", c.stores);
    }

    #[test]
    fn manual_program_has_four_kernels() {
        let w = G500Csr.build(Scale::Tiny);
        let p = &w.manual.as_ref().unwrap().program;
        assert!(p.find("on_queue_load").is_some());
        assert!(p.find("on_q_entry").is_some());
        assert!(p.find("on_row").is_some());
        assert!(p.find("on_edge_line").is_some());
    }

    #[test]
    fn no_software_prefetch_variant() {
        let w = G500Csr.build(Scale::Tiny);
        assert!(w.sw_trace().is_none());
    }
}
