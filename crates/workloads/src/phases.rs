//! TwoPhase — a synthetic phase-change workload for the adaptive engine.
//!
//! Not one of Table 2's benchmarks: this workload exists so the
//! phase-adaptive meta-engine has a controlled stream with a sharp
//! behaviour change to react to, and is therefore *not* registered in
//! [`crate::all_workloads`].
//!
//! * **Phase 1 — streaming**: a dependent scan over an array at one
//!   64-byte line per access. The loads are chained (each address is
//!   known, but issue waits on the running checksum), so prefetch
//!   *depth* is what hides latency: the stride engine's degree-8
//!   lookahead wins this phase, while the PC-delta engine only ever
//!   learns the single +64 delta (depth 1).
//! * **Phase 2 — pointer chase**: a true dependent chain (each load's
//!   address is the previous load's value) whose hops alternate +192
//!   and +320 bytes. A stride predictor never steadies on the
//!   alternation, so the stride engine goes silent; the PC-delta
//!   engine learns both deltas at just-over-50% accuracy and covers
//!   every next hop.
//!
//! The meta-engine must pick stride for phase 1, switch exactly once at
//! the boundary, and finish on PC-delta — pinned by `tests/engine_zoo.rs`.

use crate::common::{checksum_region, mix64, BuiltWorkload, Scale, SoftwareTrace, Workload};
use etpp_cpu::TraceBuilder;
use etpp_mem::{MemoryImage, Region};

const PC_STREAM: u32 = 0x500;
const PC_CHASE: u32 = 0x504;
const PC_ST_SUM: u32 = 0x508;
const PC_ST_PTR: u32 = 0x50c;
const PC_BR: u32 = 0x510;

/// Alternating chase deltas: small enough that both targets share the
/// trigger's 4 KiB page most of the time, never equal so a stride
/// predictor cannot steady.
const DELTA_A: u64 = 192;
const DELTA_B: u64 = 320;

/// The TwoPhase workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPhase;

struct Layout {
    stream: Region,
    chase: Region,
    check: Region,
    n_stream: u64,
    n_chase: u64,
}

/// Allocation is deterministic from a fresh image, so rebuilding the
/// layout with the same sizes reproduces the exact regions (the tests
/// rely on this to reconstruct bases from a [`BuiltWorkload`]).
fn layout(image: &mut MemoryImage, n_stream: u64, n_chase: u64) -> Layout {
    Layout {
        stream: image.alloc_region(n_stream * 64),
        // Worst-case span: every hop takes the larger delta.
        chase: image.alloc_region((n_chase + 1) * DELTA_B.max(DELTA_A) + 64),
        check: image.alloc_region(16),
        n_stream,
        n_chase,
    }
}

impl Workload for TwoPhase {
    fn name(&self) -> &'static str {
        "TwoPhase"
    }

    fn build(&self, scale: Scale) -> BuiltWorkload {
        let (n_stream, n_chase) = match scale {
            Scale::Tiny => (2048u64, 2048u64),
            Scale::Small => (16_384, 16_384),
            Scale::Paper => (65_536, 65_536),
        };
        let mut image = MemoryImage::new();
        let l = layout(&mut image, n_stream, n_chase);
        for i in 0..n_stream {
            image.write_u64(l.stream.base + i * 64, mix64(i ^ 0x7a5e));
        }
        // Thread the chase: node i's value is node i+1's address.
        let mut addr = l.chase.base;
        for i in 0..n_chase {
            let next = addr + if i % 2 == 0 { DELTA_A } else { DELTA_B };
            image.write_u64(addr, next);
            addr = next;
        }
        image.write_u64(addr, 0);
        let pristine = image.clone();

        let trace = build_trace(&mut image.clone(), &l);
        let mut post = image;
        reference(&mut post, &l);
        let expected = checksum_region(&post, l.check);

        BuiltWorkload {
            name: self.name(),
            image: pristine,
            trace,
            software: SoftwareTrace::default(),
            manual: None,
            converted: None,
            pragma: None,
            check_region: l.check,
            expected,
            notes: "synthetic stream→chase phase change for the adaptive engine",
        }
    }
}

fn reference(image: &mut MemoryImage, l: &Layout) {
    let mut sum = 0u64;
    for i in 0..l.n_stream {
        sum ^= image.read_u64(l.stream.base + i * 64);
    }
    let mut addr = l.chase.base;
    for _ in 0..l.n_chase {
        addr = image.read_u64(addr);
    }
    image.write_u64(l.check.base, sum);
    image.write_u64(l.check.base + 8, addr);
}

fn build_trace(image: &mut MemoryImage, l: &Layout) -> etpp_cpu::Trace {
    let mut b = TraceBuilder::new();

    // Phase 1: chained streaming scan. Every load waits on the running
    // sum so latency serializes — prefetch depth is everything here.
    let mut sum = 0u64;
    let mut acc = None;
    for i in 0..l.n_stream {
        let a = l.stream.base + i * 64;
        sum ^= image.read_u64(a);
        let ld = b.load(a, PC_STREAM, [acc, None]);
        acc = Some(b.int_op(1, [Some(ld), acc]));
        b.branch(PC_BR, i + 1 != l.n_stream, [None, None]);
    }

    // Phase 2: the pointer chase. The address of each load is the value
    // of the previous one: a real dependent chain.
    let mut addr = l.chase.base;
    let mut prev = None;
    for i in 0..l.n_chase {
        let ld = b.load(addr, PC_CHASE, [prev, None]);
        prev = Some(ld);
        addr = image.read_u64(addr);
        b.branch(PC_BR, i + 1 != l.n_chase, [None, None]);
    }

    image.write_u64(l.check.base, sum);
    image.write_u64(l.check.base + 8, addr);
    b.store(l.check.base, sum, PC_ST_SUM, [acc, None]);
    b.store(l.check.base + 8, addr, PC_ST_PTR, [prev, None]);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_layout() -> Layout {
        let mut scratch = MemoryImage::new();
        layout(&mut scratch, 2048, 2048)
    }

    #[test]
    fn trace_validates_against_reference() {
        let w = TwoPhase.build(Scale::Tiny);
        // The builder mutates a working copy; replaying the reference on
        // the pristine image must land on the published checksum.
        let l = tiny_layout();
        assert_eq!(l.check, w.check_region, "layout must be reproducible");
        let mut post = w.image.clone();
        reference(&mut post, &l);
        assert_eq!(checksum_region(&post, w.check_region), w.expected);
    }

    #[test]
    fn chase_alternates_both_deltas() {
        let w = TwoPhase.build(Scale::Tiny);
        let chase = tiny_layout().chase;
        let first = w.image.read_u64(chase.base);
        let second = w.image.read_u64(first);
        assert_eq!(first - chase.base, DELTA_A);
        assert_eq!(second - first, DELTA_B);
    }
}
