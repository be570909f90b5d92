//! Hash join probe kernels (Table 2: HJ-2 and HJ-8), after Blanas et al.
//!
//! The motivating kernel of the paper (Figure 1): a sequential scan of probe
//! keys, a multiplicative hash, an indirect bucket access, and — for HJ-8 —
//! a linked-list walk per bucket.
//!
//! * **HJ-2**: buckets hold tuples inline (stride-hash-indirect only).
//!   Software prefetching works well; manual events do better by moving the
//!   hash computation off the core.
//! * **HJ-8**: each bucket heads an (average) eight-node chain of
//!   non-contiguous nodes. Software prefetching can only reach the bucket
//!   head; the event program walks every chain via memory request tags
//!   (§4.7), prefetching all lists in parallel — the paper's headline case
//!   (3.8× vs. negligible for stride/software).

use crate::common::{
    checksum_region, mix64, BuiltWorkload, PrefetchSetup, Scale, SoftwareTrace, Workload,
};
use etpp_cpu::{OpId, TraceBuilder};
use etpp_isa::KernelBuilder;
use etpp_mem::{ConfigOp, FilterFlags, MemoryImage, RangeId, Region, TagId};

const PC_KEY: u32 = 0x200;
const PC_BKT: u32 = 0x204;
const PC_NODE: u32 = 0x208;
const PC_BR_MATCH: u32 = 0x20c;
const PC_BR_LOOP: u32 = 0x210;
const PC_BR_ITER: u32 = 0x214;
const PC_ST_OUT: u32 = 0x218;
const PC_KEY_PF: u32 = 0x21c;
const PC_SWPF: u32 = 0x220;

const SWPF_DIST: u64 = 32;

/// Multiplicative hash constant (Fibonacci hashing).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

const G_BKT_BASE: u8 = 0;
const G_KEY_END: u8 = 1;

const TAG_KEY: u16 = 0;
const TAG_BKT: u16 = 1;
const TAG_NODE: u16 = 2;

#[inline]
fn hash(k: u64, log_buckets: u32) -> u64 {
    k.wrapping_mul(HASH_MUL) >> (64 - log_buckets)
}

/// HJ-2: inline-bucket hash join probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hj2;

/// HJ-8: chained-bucket hash join probe with ~8-node lists.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hj8;

#[derive(Clone, Copy)]
struct Hj2Layout {
    keys: Region,
    buckets: Region,
    out: Region,
    log_buckets: u32,
    n_probes: u64,
}

fn hj2_build(scale: Scale) -> Hj2Layout {
    let (log_buckets, n_probes) = match scale {
        Scale::Tiny => (14u32, 20_000u64),
        Scale::Small => (20, 400_000),
        // Blanas: -r 12800000 -s 12800000.
        Scale::Paper => (24, 12_800_000),
    };
    Hj2Layout {
        keys: Region { base: 0, len: 0 },
        buckets: Region { base: 0, len: 0 },
        out: Region { base: 0, len: 0 },
        log_buckets,
        n_probes,
    }
}

impl Workload for Hj2 {
    fn name(&self) -> &'static str {
        "HJ-2"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let mut l = hj2_build(scale);
        let n_buckets = 1u64 << l.log_buckets;
        let mut image = MemoryImage::new();
        l.keys = image.alloc_region(l.n_probes * 8);
        // Bucket = 16 bytes: (key, payload).
        l.buckets = image.alloc_region(n_buckets * 16);
        l.out = image.alloc_region((l.n_probes + 1) * 8);

        // Build side: fill buckets with keys; every even probe key is
        // guaranteed present (≈50% match rate).
        for i in 0..l.n_probes {
            let k = if i % 2 == 0 {
                mix64(i) | 1 // odd keys: inserted below
            } else {
                mix64(i) & !1 // even keys: likely absent
            };
            image.write_u64(l.keys.base + 8 * i, k);
            if i % 2 == 0 {
                let h = hash(k, l.log_buckets);
                image.write_u64(l.buckets.base + 16 * h, k);
                image.write_u64(l.buckets.base + 16 * h + 8, mix64(k));
            }
        }
        let pristine = image.clone();

        let (conv, prag) = crate::loop_ir::run_passes(&crate::loop_ir::hashjoin(
            l.keys,
            l.buckets,
            16,
            None,
            HASH_MUL,
            l.log_buckets,
            SWPF_DIST,
        ));
        let trace = hj2_trace(&mut image.clone(), &l, false);
        let mut post = image;
        hj2_reference(&mut post, &l);
        let expected = checksum_region(&post, l.out);

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            software: SoftwareTrace::generated_by(move |pristine| {
                hj2_trace(&mut pristine.clone(), &l, true)
            }),
            manual: Some(hj2_manual(&l)),
            converted: conv,
            pragma: prag,
            check_region: l.out,
            expected,
            notes: "inline 16B buckets; ~50% probe match rate",
        }
    }
}

fn hj2_reference(image: &mut MemoryImage, l: &Hj2Layout) {
    let mut m = 0u64;
    for i in 0..l.n_probes {
        let k = image.read_u64(l.keys.base + 8 * i);
        let h = hash(k, l.log_buckets);
        let bk = image.read_u64(l.buckets.base + 16 * h);
        if bk == k {
            m += 1;
            image.write_u64(l.out.base + 8 * m, k);
        }
    }
    image.write_u64(l.out.base, m);
}

fn hj2_trace(image: &mut MemoryImage, l: &Hj2Layout, swpf: bool) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();
    let mut m = 0u64;
    for i in 0..l.n_probes {
        if swpf {
            let ahead = (i + SWPF_DIST).min(l.n_probes - 1);
            let k2 = image.read_u64(l.keys.base + 8 * ahead);
            let ld2 = b.load(l.keys.base + 8 * ahead, PC_KEY_PF, [None, None]);
            let h2 = b.muldiv(3, [Some(ld2), None]);
            let s2 = b.int_op(1, [Some(h2), None]);
            b.swpf(
                l.buckets.base + 16 * hash(k2, l.log_buckets),
                PC_SWPF,
                [Some(s2), None],
            );
        }
        let k = image.read_u64(l.keys.base + 8 * i);
        let h = hash(k, l.log_buckets);
        let ld = b.load(l.keys.base + 8 * i, PC_KEY, [None, None]);
        let hm = b.muldiv(3, [Some(ld), None]);
        let hs = b.int_op(1, [Some(hm), None]);
        let ldb = b.load(l.buckets.base + 16 * h, PC_BKT, [Some(hs), None]);
        let cmp = b.int_op(1, [Some(ldb), Some(ld)]);
        let bk = image.read_u64(l.buckets.base + 16 * h);
        let matched = bk == k;
        b.branch(PC_BR_MATCH, matched, [Some(cmp), None]);
        if matched {
            m += 1;
            image.write_u64(l.out.base + 8 * m, k);
            b.store(l.out.base + 8 * m, k, PC_ST_OUT, [Some(cmp), None]);
        }
        b.branch(PC_BR_ITER, i + 1 != l.n_probes, [None, None]);
    }
    image.write_u64(l.out.base, m);
    b.store(l.out.base, m, PC_ST_OUT, [None, None]);
    b.build()
}

fn hj2_manual(l: &Hj2Layout) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

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

    // Hash all eight keys of the arrived line and prefetch their buckets.
    let mut kb = KernelBuilder::new("on_key_line");
    let top = kb.label();
    let on_key_line = program.add_kernel(
        kb.ld_global(1, G_BKT_BASE)
            .li(2, 0)
            .bind(top)
            .ld_data(3, 2)
            .muli(3, 3, HASH_MUL)
            .shri(3, 3, 64 - l.log_buckets as u8)
            .shli(3, 3, 4) // 16-byte buckets
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
            idx: G_BKT_BASE,
            value: l.buckets.base,
        },
        ConfigOp::SetGlobal {
            idx: G_KEY_END,
            value: l.keys.end(),
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: l.keys.base,
            hi: l.keys.end(),
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
            lo: l.buckets.base,
            hi: l.buckets.end(),
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

// ---------------------------------------------------------------------------
// HJ-8
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Hj8Layout {
    keys: Region,
    buckets: Region,
    nodes: Region,
    out: Region,
    log_buckets: u32,
    n_probes: u64,
}

impl Workload for Hj8 {
    fn name(&self) -> &'static str {
        "HJ-8"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let (log_buckets, n_probes) = match scale {
            Scale::Tiny => (11u32, 4_000u64),
            Scale::Small => (18, 100_000),
            Scale::Paper => (21, 1_600_000),
        };
        let n_buckets = 1u64 << log_buckets;
        let n_nodes = n_buckets * 8;
        let mut image = MemoryImage::new();
        let l = Hj8Layout {
            keys: image.alloc_region(n_probes * 8),
            buckets: image.alloc_region(n_buckets * 8),
            nodes: image.alloc_region(n_nodes * 16),
            out: image.alloc_region((n_probes + 1) * 8),
            log_buckets,
            n_probes,
        };

        // Insert build keys, prepending to chains. Node slots are assigned
        // in a bit-reversed-ish shuffled order so chains jump across lines,
        // as malloc'd nodes would.
        let slot_of = |j: u64| -> u64 { mix64(j ^ 0xABCD_EF01) % n_nodes };
        let mut used = vec![false; n_nodes as usize];
        for j in 0..n_nodes {
            let mut s = slot_of(j);
            while used[s as usize] {
                s = (s + 1) % n_nodes;
            }
            used[s as usize] = true;
            let k = mix64(j) | 1;
            let node = l.nodes.base + 16 * s;
            let h = hash(k, log_buckets);
            let head_addr = l.buckets.base + 8 * h;
            let head = image.read_u64(head_addr);
            image.write_u64(node, k);
            image.write_u64(node + 8, head);
            image.write_u64(head_addr, node);
        }
        // Probe keys: half present.
        for i in 0..n_probes {
            let k = if i % 2 == 0 {
                mix64(i % n_nodes) | 1
            } else {
                mix64(i) & !1
            };
            image.write_u64(l.keys.base + 8 * i, k);
        }
        let pristine = image.clone();

        let (conv, prag) = crate::loop_ir::run_passes(&crate::loop_ir::hashjoin(
            l.keys,
            l.buckets,
            8,
            Some((l.nodes, 4)),
            HASH_MUL,
            l.log_buckets,
            SWPF_DIST,
        ));
        let trace = hj8_trace(&mut image.clone(), &l, false);
        let mut post = image;
        hj8_reference(&mut post, &l);
        let expected = checksum_region(&post, l.out);

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            software: SoftwareTrace::generated_by(move |pristine| {
                hj8_trace(&mut pristine.clone(), &l, true)
            }),
            manual: Some(hj8_manual(&l)),
            converted: conv,
            pragma: prag,
            check_region: l.out,
            expected,
            notes: "8-deep scattered bucket chains; swpf reaches only the bucket head",
        }
    }
}

fn hj8_reference(image: &mut MemoryImage, l: &Hj8Layout) {
    let mut m = 0u64;
    for i in 0..l.n_probes {
        let k = image.read_u64(l.keys.base + 8 * i);
        let h = hash(k, l.log_buckets);
        let mut ptr = image.read_u64(l.buckets.base + 8 * h);
        while ptr != 0 {
            if image.read_u64(ptr) == k {
                m += 1;
                image.write_u64(l.out.base + 8 * m, k);
            }
            ptr = image.read_u64(ptr + 8);
        }
    }
    image.write_u64(l.out.base, m);
}

fn hj8_trace(image: &mut MemoryImage, l: &Hj8Layout, swpf: bool) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();
    let mut m = 0u64;
    for i in 0..l.n_probes {
        if swpf {
            // Only the bucket head is reachable by software prefetch (Fig 1).
            let ahead = (i + SWPF_DIST).min(l.n_probes - 1);
            let k2 = image.read_u64(l.keys.base + 8 * ahead);
            let ld2 = b.load(l.keys.base + 8 * ahead, PC_KEY_PF, [None, None]);
            let h2 = b.muldiv(3, [Some(ld2), None]);
            let s2 = b.int_op(1, [Some(h2), None]);
            b.swpf(
                l.buckets.base + 8 * hash(k2, l.log_buckets),
                PC_SWPF,
                [Some(s2), None],
            );
        }
        let k = image.read_u64(l.keys.base + 8 * i);
        let h = hash(k, l.log_buckets);
        let ld = b.load(l.keys.base + 8 * i, PC_KEY, [None, None]);
        let hm = b.muldiv(3, [Some(ld), None]);
        let hs = b.int_op(1, [Some(hm), None]);
        let ldh = b.load(l.buckets.base + 8 * h, PC_BKT, [Some(hs), None]);
        let mut ptr = image.read_u64(l.buckets.base + 8 * h);
        let mut dep: OpId = ldh;
        while ptr != 0 {
            b.branch(PC_BR_LOOP, true, [Some(dep), None]);
            let ldn = b.load(ptr, PC_NODE, [Some(dep), None]);
            let cmp = b.int_op(1, [Some(ldn), Some(ld)]);
            let nk = image.read_u64(ptr);
            let matched = nk == k;
            b.branch(PC_BR_MATCH, matched, [Some(cmp), None]);
            if matched {
                m += 1;
                image.write_u64(l.out.base + 8 * m, k);
                b.store(l.out.base + 8 * m, k, PC_ST_OUT, [Some(cmp), None]);
            }
            dep = ldn;
            ptr = image.read_u64(ptr + 8);
        }
        b.branch(PC_BR_LOOP, false, [Some(dep), None]);
        b.branch(PC_BR_ITER, i + 1 != l.n_probes, [None, None]);
    }
    image.write_u64(l.out.base, m);
    b.store(l.out.base, m, PC_ST_OUT, [None, None]);
    b.build()
}

fn hj8_manual(l: &Hj8Layout) -> PrefetchSetup {
    let mut program = etpp_core::PrefetchProgramBuilder::new();

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

    // Hash each key in the line, prefetch its bucket head (tagged).
    let mut kb = KernelBuilder::new("on_key_line");
    let top = kb.label();
    let on_key_line = program.add_kernel(
        kb.ld_global(1, G_BKT_BASE)
            .li(2, 0)
            .bind(top)
            .ld_data(3, 2)
            .muli(3, 3, HASH_MUL)
            .shri(3, 3, 64 - l.log_buckets as u8)
            .shli(3, 3, 3) // 8-byte heads
            .add(3, 3, 1)
            .prefetch_tag(3, TAG_BKT)
            .addi(2, 2, 8)
            .li(4, 64)
            .bltu(2, 4, top)
            .halt()
            .build(),
    );

    // Bucket head arrived: chase the first node.
    let mut kb = KernelBuilder::new("on_bucket");
    let halt = kb.label();
    let on_bucket = program.add_kernel(
        kb.ld_vaddr(1)
            .ld_data(0, 1)
            .li(2, 0)
            .beq(0, 2, halt)
            .prefetch_tag(0, TAG_NODE)
            .bind(halt)
            .halt()
            .build(),
    );

    // Node arrived: chase `next` ([key, next] layout → next at +8).
    let mut kb = KernelBuilder::new("on_node");
    let halt = kb.label();
    let on_node = program.add_kernel(
        kb.ld_vaddr(1)
            .addi(1, 1, 8)
            .ld_data(0, 1)
            .li(2, 0)
            .beq(0, 2, halt)
            .prefetch_tag(0, TAG_NODE)
            .bind(halt)
            .halt()
            .build(),
    );

    let configs = vec![
        ConfigOp::SetGlobal {
            idx: G_BKT_BASE,
            value: l.buckets.base,
        },
        ConfigOp::SetGlobal {
            idx: G_KEY_END,
            value: l.keys.end(),
        },
        ConfigOp::SetRange {
            id: RangeId(0),
            lo: l.keys.base,
            hi: l.keys.end(),
            on_load: Some(on_key_load.0),
            on_prefetch: None,
            flags: FilterFlags {
                ewma_iteration: true,
                ewma_chain_start: true,
                ewma_chain_end: false,
            },
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_KEY),
            kernel: on_key_line.0,
            chain_end: false,
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_BKT),
            kernel: on_bucket.0,
            chain_end: true,
        },
        ConfigOp::SetTagKernel {
            tag: TagId(TAG_NODE),
            kernel: on_node.0,
            chain_end: true,
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
    fn hj2_match_rate_near_half() {
        let w = Hj2.build(Scale::Tiny);
        // The out region's slot 0 holds the match count after a run; here we
        // recompute via reference on a copy.
        let mut post = w.image.clone();
        let l = hj2_layout_for_test(&w);
        hj2_reference(&mut post, &l);
        let m = post.read_u64(l.out.base);
        let rate = m as f64 / l.n_probes as f64;
        assert!((0.35..=0.65).contains(&rate), "match rate {rate}");
    }

    fn hj2_layout_for_test(w: &BuiltWorkload) -> Hj2Layout {
        // Reconstruct the Tiny layout deterministically (allocations are a
        // pure function of the build order).
        let mut l = hj2_build(Scale::Tiny);
        let n_buckets = 1u64 << l.log_buckets;
        let mut img = MemoryImage::new();
        l.keys = img.alloc_region(l.n_probes * 8);
        l.buckets = img.alloc_region(n_buckets * 16);
        l.out = img.alloc_region((l.n_probes + 1) * 8);
        assert_eq!(l.out, w.check_region);
        l
    }

    #[test]
    fn hj8_chains_average_eight() {
        let w = Hj8.build(Scale::Tiny);
        // Trace shape: ~(5 + 8*3) ops per probe implies chains were walked.
        let c = w.trace.class_counts();
        let per_probe = c.total() as f64 / 4_000.0;
        assert!(
            per_probe > 20.0,
            "expected deep chains, got {per_probe} ops/probe"
        );
    }

    #[test]
    fn hj8_manual_uses_three_tags() {
        let w = Hj8.build(Scale::Tiny);
        let m = w.manual.as_ref().unwrap();
        let tags = m
            .configs
            .iter()
            .filter(|c| matches!(c, ConfigOp::SetTagKernel { .. }))
            .count();
        assert_eq!(tags, 3, "key line, bucket, node");
        assert!(m.program.total_insts() < 96);
    }

    #[test]
    fn traces_are_deterministic() {
        let a = Hj2.build(Scale::Tiny);
        let b = Hj2.build(Scale::Tiny);
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.trace.len(), b.trace.len());
    }
}
