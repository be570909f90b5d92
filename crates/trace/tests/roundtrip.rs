//! Property test: arbitrary access streams survive the delta-encoded
//! binary format exactly — write → read is the identity, and the content
//! hash agrees between writer, reader and the standalone hasher.

use etpp_mem::{AccessKind, ConfigOp, FilterFlags, RangeId, TagId};
use etpp_trace::{content_hash, TraceMeta, TraceReader, TraceRecord, TraceWriter};
use proptest::prelude::*;

/// Raw generator output folded into a well-formed record stream
/// (cycles non-decreasing, loads carrying no store payload).
type RawRec = ((u64, u32, u64), (u8, u64, u8));

fn materialise(raw: Vec<RawRec>) -> Vec<TraceRecord> {
    let mut cycle = 0u64;
    let mut out = Vec::with_capacity(raw.len());
    for ((dcycle, pc, vaddr), (sel, value, size_sel)) in raw {
        cycle += dcycle;
        let rec = match sel % 8 {
            // Occasional config records exercise the side encoding.
            0 => TraceRecord::Config {
                cycle,
                op: Box::new(ConfigOp::SetGlobal {
                    idx: size_sel,
                    value,
                }),
            },
            1 => TraceRecord::Config {
                cycle,
                op: Box::new(ConfigOp::SetRange {
                    id: RangeId(pc as u16),
                    lo: vaddr.min(value),
                    hi: vaddr.max(value),
                    on_load: if value & 1 == 0 {
                        Some(size_sel as u16)
                    } else {
                        None
                    },
                    on_prefetch: if value & 2 == 0 {
                        Some(pc as u16)
                    } else {
                        None
                    },
                    flags: FilterFlags {
                        ewma_iteration: value & 4 != 0,
                        ewma_chain_start: value & 8 != 0,
                        ewma_chain_end: value & 16 != 0,
                    },
                }),
            },
            2 => TraceRecord::Config {
                cycle,
                op: Box::new(ConfigOp::SetTagKernel {
                    tag: TagId(pc as u16),
                    kernel: size_sel as u16,
                    chain_end: value & 1 != 0,
                }),
            },
            3 | 4 => TraceRecord::Access {
                cycle,
                pc,
                vaddr,
                kind: AccessKind::Store,
                value,
                size: [1u8, 4, 8][size_sel as usize % 3],
                dep: 0,
            },
            _ => TraceRecord::Access {
                cycle,
                pc,
                vaddr,
                kind: AccessKind::Load,
                value: 0,
                size: 0,
                // Arbitrary dependence distances (far beyond real ROB
                // bounds too) must survive the v2 encoding.
                dep: (value >> 32) as u32 % 1000,
            },
        };
        out.push(rec);
    }
    out
}

proptest! {
    #[test]
    fn arbitrary_streams_roundtrip(
        raw in proptest::collection::vec(
            (
                (0u64..100_000, any::<u32>(), any::<u64>()),
                (0u8..8, any::<u64>(), 0u8..32),
            ),
            0..400,
        )
    ) {
        let records = materialise(raw);
        let meta = TraceMeta::new("prop", "tiny");

        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &meta).unwrap();
        for r in &records {
            w.record(r).unwrap();
        }
        let (_, written_hash) = w.finish().unwrap();
        prop_assert_eq!(written_hash, content_hash(&records));

        let reader = TraceReader::new(buf.as_slice()).unwrap();
        prop_assert_eq!(reader.meta(), &meta);
        let back = reader.read_to_end().unwrap();
        prop_assert_eq!(back.records, records);
        prop_assert_eq!(&back.meta, &meta);
    }
}
