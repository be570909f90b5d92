//! G500-List — Graph500 BFS over adjacency *linked lists* (Table 2).
//!
//! Identical traversal to [`crate::g500_csr`], but each vertex's neighbours
//! live in a linked list of scattered 16-byte nodes instead of a contiguous
//! slice. Each edge can only be found through the previous node's `next`
//! pointer, which *serialises* edge fetching per vertex — the paper's
//! worst case: 1.7× speedup, low L1 prefetch utilisation (Fig. 8a, data
//! arrives too early and gets evicted), ~40% extra memory traffic, but an
//! L2 hit-rate win that still yields speedup.

use crate::common::{
    checksum_region, mix64, BuiltWorkload, PrefetchSetup, Scale, SoftwareTrace, Workload,
};
use crate::graph::{kronecker, pick_root, to_csr};
use etpp_cpu::{OpId, TraceBuilder};
use etpp_isa::KernelBuilder;
use etpp_mem::{ConfigOp, FilterFlags, MemoryImage, RangeId, Region, TagId};

const PC_Q: u32 = 0x600;
const PC_HEAD: u32 = 0x604;
const PC_NODE: u32 = 0x608;
const PC_VIS: u32 = 0x60c;
const PC_BR_VIS: u32 = 0x610;
const PC_ST_VIS: u32 = 0x614;
const PC_ST_Q: u32 = 0x618;
const PC_BR_EDGE: u32 = 0x61c;
const PC_BR_ITER: u32 = 0x620;

const G_VTX_BASE: u8 = 0;
const G_VIS_BASE: u8 = 1;
const G_Q_END: u8 = 2;

const TAG_Q: u16 = 0;
const TAG_HEAD: u16 = 1;
const TAG_NODE: u16 = 2;

/// The G500-List workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct G500List;

struct Layout {
    vertices: Region,
    nodes: Region,
    visited: Region,
    queue: Region,
}

impl Workload for G500List {
    fn name(&self) -> &'static str {
        "G500-List"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let (g_scale, edge_factor) = match scale {
            Scale::Tiny => (11u32, 8u64),
            Scale::Small => (16, 10),
            // Graph500: -s 16 -e 10 for the list variant.
            Scale::Paper => (16, 10),
        };
        let el = kronecker(g_scale, edge_factor, 0x6511);
        let csr = to_csr(&el);
        let root = pick_root(&csr);
        let n = csr.rowstart.len() as u64 - 1;
        let n_dir_edges = csr.adjacency.len() as u64;

        let mut image = MemoryImage::new();
        let l = Layout {
            vertices: image.alloc_region(n * 8),
            nodes: image.alloc_region(n_dir_edges * 16),
            visited: image.alloc_region(n * 8),
            queue: image.alloc_region(n * 8),
        };

        // Nodes are placed in shuffled pool slots so list walks hop across
        // cache lines, as per-edge heap allocation would produce.
        let mut used = vec![false; n_dir_edges as usize];
        let mut place = |j: u64| -> u64 {
            let mut s = mix64(j ^ 0x11ee) % n_dir_edges;
            while used[s as usize] {
                s = (s + 1) % n_dir_edges;
            }
            used[s as usize] = true;
            s
        };
        let mut j = 0u64;
        for u in 0..n {
            // Prepend so list order reverses CSR order — irrelevant to BFS
            // correctness, typical of insertion-built lists.
            for e in csr.rowstart[u as usize]..csr.rowstart[u as usize + 1] {
                let v = csr.adjacency[e as usize];
                let slot = place(j);
                j += 1;
                let node = l.nodes.base + 16 * slot;
                let head = image.read_u64(l.vertices.base + 8 * u);
                image.write_u64(node, v);
                image.write_u64(node + 8, head);
                image.write_u64(l.vertices.base + 8 * u, node);
            }
        }
        image.write_u64(l.visited.base + 8 * root, 1);
        image.write_u64(l.queue.base, root);
        let pristine = image.clone();

        let (conv, prag) = crate::loop_ir::run_passes(&crate::loop_ir::g500_list(
            l.queue, l.vertices, l.nodes, 16,
        ));
        let trace = build_trace(&mut image.clone(), &l);
        let mut post = image;
        reference(&mut post, &l);
        let expected = checksum_region(&post, l.visited);

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            // §7.1: list traversal needs loop control flow, which a software
            // prefetch fundamentally cannot express.
            software: SoftwareTrace::default(),
            manual: Some(manual_setup(&l)),
            converted: conv,
            pragma: prag,
            check_region: l.visited,
            expected,
            notes: "adjacency linked lists with scattered nodes; edge fetch is serialised",
        }
    }
}

fn reference(image: &mut MemoryImage, l: &Layout) {
    let mut head = 0u64;
    let mut tail = 1u64;
    while head < tail {
        let u = image.read_u64(l.queue.base + 8 * head);
        head += 1;
        let mut ptr = image.read_u64(l.vertices.base + 8 * u);
        while ptr != 0 {
            let v = image.read_u64(ptr);
            if image.read_u64(l.visited.base + 8 * v) == 0 {
                image.write_u64(l.visited.base + 8 * v, 1);
                image.write_u64(l.queue.base + 8 * tail, v);
                tail += 1;
            }
            ptr = image.read_u64(ptr + 8);
        }
    }
}

fn build_trace(image: &mut MemoryImage, l: &Layout) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();
    let mut head = 0u64;
    let mut tail = 1u64;
    while head < tail {
        let u = image.read_u64(l.queue.base + 8 * head);
        let ldq = b.load(l.queue.base + 8 * head, PC_Q, [None, None]);
        head += 1;
        let ldh = b.load(l.vertices.base + 8 * u, PC_HEAD, [Some(ldq), None]);
        let mut ptr = image.read_u64(l.vertices.base + 8 * u);
        let mut dep: OpId = ldh;
        while ptr != 0 {
            b.branch(PC_BR_EDGE, true, [Some(dep), None]);
            let v = image.read_u64(ptr);
            // One load fetches the 16-byte node (dst and next share a line).
            let ldn = b.load(ptr, PC_NODE, [Some(dep), None]);
            let ldv = b.load(l.visited.base + 8 * v, PC_VIS, [Some(ldn), None]);
            let unvisited = image.read_u64(l.visited.base + 8 * v) == 0;
            b.branch(PC_BR_VIS, unvisited, [Some(ldv), None]);
            if unvisited {
                image.write_u64(l.visited.base + 8 * v, 1);
                image.write_u64(l.queue.base + 8 * tail, v);
                b.store(l.visited.base + 8 * v, 1, PC_ST_VIS, [Some(ldv), None]);
                b.store(l.queue.base + 8 * tail, v, PC_ST_Q, [Some(ldn), None]);
                b.int_op(1, [None, None]);
                tail += 1;
            }
            dep = ldn;
            ptr = image.read_u64(ptr + 8);
        }
        b.branch(PC_BR_EDGE, false, [Some(dep), None]);
        b.branch(PC_BR_ITER, head != tail, [None, None]);
    }
    b.build()
}

fn manual_setup(l: &Layout) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

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

    let on_q = program.add_kernel(
        KernelBuilder::new("on_q_entry")
            .ld_vaddr(1)
            .ld_data(0, 1)
            .shli(0, 0, 3)
            .ld_global(2, G_VTX_BASE)
            .add(0, 0, 2)
            .prefetch_tag(0, TAG_HEAD)
            .halt()
            .build(),
    );

    let mut kb = KernelBuilder::new("on_head");
    let halt = kb.label();
    let on_head = program.add_kernel(
        kb.ld_vaddr(1)
            .ld_data(0, 1)
            .li(2, 0)
            .beq(0, 2, halt)
            .prefetch_tag(0, TAG_NODE)
            .bind(halt)
            .halt()
            .build(),
    );

    // Node arrived: prefetch visited[dst] and chase next.
    let mut kb = KernelBuilder::new("on_node");
    let halt = kb.label();
    let on_node = program.add_kernel(
        kb.ld_vaddr(1)
            .ld_data(3, 1) // dst
            .shli(3, 3, 3)
            .ld_global(4, G_VIS_BASE)
            .add(3, 3, 4)
            .prefetch(3)
            .addi(1, 1, 8)
            .ld_data(0, 1) // next
            .li(2, 0)
            .beq(0, 2, halt)
            .prefetch_tag(0, TAG_NODE)
            .bind(halt)
            .halt()
            .build(),
    );

    let configs = vec![
        ConfigOp::SetGlobal {
            idx: G_VTX_BASE,
            value: l.vertices.base,
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
            tag: TagId(TAG_HEAD),
            kernel: on_head.0,
            chain_end: false,
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_NODE),
            kernel: on_node.0,
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
    fn list_and_csr_bfs_visit_same_vertices() {
        // The list variant must traverse the same component as the CSR
        // reference (order may differ; the visited set must not).
        let el = kronecker(11, 8, 0x6511);
        let csr = to_csr(&el);
        let root = pick_root(&csr);
        let (order, _) = crate::graph::bfs_reference(&csr, root);

        let w = G500List.build(Scale::Tiny);
        let post = w.image.clone();
        let l = Layout {
            vertices: Region {
                base: 0x1_0000,
                len: 0,
            },
            nodes: Region { base: 0, len: 0 },
            visited: w.check_region,
            queue: Region { base: 0, len: 0 },
        };
        // Count visited from the expected post-image by re-running reference.
        let _ = (post.clone(), l);
        // Simpler: the checksum is over `visited`; recompute count directly.
        let mut count = 0;
        let mut img = w.image.clone();
        // run the same reference used by build()
        let l2 = layout_tiny(&mut img);
        reference(&mut img, &l2);
        for v in 0..(w.check_region.len / 8) {
            if img.read_u64(w.check_region.base + 8 * v) != 0 {
                count += 1;
            }
        }
        assert_eq!(count as usize, order.len());
    }

    fn layout_tiny(_img: &mut MemoryImage) -> Layout {
        // Rebuild the Tiny allocation layout: same order as build().
        let el = kronecker(11, 8, 0x6511);
        let csr = to_csr(&el);
        let n = csr.rowstart.len() as u64 - 1;
        let n_dir = csr.adjacency.len() as u64;
        let mut probe = MemoryImage::new();
        Layout {
            vertices: probe.alloc_region(n * 8),
            nodes: probe.alloc_region(n_dir * 16),
            visited: probe.alloc_region(n * 8),
            queue: probe.alloc_region(n * 8),
        }
    }

    #[test]
    fn walks_are_pointer_serialised() {
        let w = G500List.build(Scale::Tiny);
        // Every node load depends on the previous node load in its list:
        // check at least one 3-deep dependence chain of PC_NODE loads exists.
        let t = &w.trace;
        let mut chain = 0;
        let mut best = 0;
        for (i, op) in t.ops().enumerate() {
            if op.pc == PC_NODE {
                let dep_is_node = t.deps(i as u32)[0].is_some_and(|d| t.op(d.0).pc == PC_NODE);
                chain = if dep_is_node { chain + 1 } else { 1 };
                best = best.max(chain);
            }
        }
        assert!(best >= 3, "longest node chain {best}");
    }
}
