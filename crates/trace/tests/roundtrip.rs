//! The delta-encoded binary format, pinned and round-tripped: a
//! hand-built trace encodes to exact golden bytes, and arbitrary
//! load/store/config streams survive write → read exactly, with the
//! content hash agreeing between writer, reader and the standalone
//! hasher.

use etpp_mem::{ConfigOp, FilterFlags, RangeId, TagId};
use etpp_trace::{content_hash, TraceMeta, TraceReader, TraceRecord, TraceWriter};
use proptest::prelude::*;

/// Raw generator output folded into a well-formed record stream
/// (cycles non-decreasing; every `ConfigOp` kind, stores of each legal
/// size, loads with arbitrary dependence distances).
type RawRec = ((u64, u32, u64), (u8, u64, u8));

fn materialise(raw: Vec<RawRec>) -> Vec<TraceRecord> {
    let mut cycle = 0u64;
    let mut out = Vec::with_capacity(raw.len());
    for ((dcycle, pc, vaddr), (sel, value, size_sel)) in raw {
        cycle += dcycle;
        let rec = match sel % 10 {
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
            3 => TraceRecord::Config {
                cycle,
                op: Box::new(ConfigOp::ClearRange {
                    id: RangeId(pc as u16),
                }),
            },
            4 => TraceRecord::Config {
                cycle,
                op: Box::new(ConfigOp::Enable(value & 1 != 0)),
            },
            5 | 6 => TraceRecord::Store {
                cycle,
                pc,
                vaddr,
                value,
                size: [1u8, 4, 8][size_sel as usize % 3],
            },
            _ => TraceRecord::Load {
                cycle,
                pc,
                vaddr,
                // Arbitrary dependence distances (far beyond real ROB
                // bounds too) must survive the v2 encoding.
                dep: (value >> 32) as u32 % 1000,
            },
        };
        out.push(rec);
    }
    out
}

fn encode(meta: &TraceMeta, records: &[TraceRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf, meta).unwrap();
    for r in records {
        w.record(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

proptest! {
    #[test]
    fn arbitrary_streams_roundtrip(
        raw in proptest::collection::vec(
            (
                (0u64..100_000, any::<u32>(), any::<u64>()),
                (0u8..10, any::<u64>(), 0u8..32),
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

proptest! {
    /// Decoding is exact at the byte level too: the records a file
    /// decodes to re-encode to that very file, so no field of a load,
    /// store or config record is dropped or defaulted on the way in.
    #[test]
    fn decoded_streams_reencode_to_the_same_bytes(
        raw in proptest::collection::vec(
            (
                (0u64..100_000, any::<u32>(), any::<u64>()),
                (0u8..10, any::<u64>(), 0u8..32),
            ),
            0..400,
        )
    ) {
        let meta = TraceMeta::new("prop", "tiny").with_capture_cycles(raw.len() as u64);
        let bytes = encode(&meta, &materialise(raw));
        let back = TraceReader::new(bytes.as_slice()).unwrap().read_to_end().unwrap();
        prop_assert_eq!(encode(&back.meta, &back.records), bytes);
    }
}

/// A hand-built trace: configs of all five `ConfigOp` kinds, loads with
/// dependence distances 0, 1 and 3 (a backwards pc and vaddr delta
/// among them), and stores of sizes 1, 4 and 8.
fn golden_records() -> Vec<TraceRecord> {
    let load = |cycle, pc, vaddr, dep| TraceRecord::Load {
        cycle,
        pc,
        vaddr,
        dep,
    };
    let store = |cycle, pc, vaddr, value, size| TraceRecord::Store {
        cycle,
        pc,
        vaddr,
        value,
        size,
    };
    let config = |cycle, op| TraceRecord::Config {
        cycle,
        op: Box::new(op),
    };
    vec![
        config(
            0,
            ConfigOp::SetRange {
                id: RangeId(2),
                lo: 0x1_0000,
                hi: 0x1_8000,
                on_load: Some(3),
                on_prefetch: None,
                flags: FilterFlags {
                    ewma_iteration: true,
                    ewma_chain_start: false,
                    ewma_chain_end: true,
                },
            },
        ),
        config(
            1,
            ConfigOp::SetTagKernel {
                tag: TagId(5),
                kernel: 300,
                chain_end: true,
            },
        ),
        config(
            1,
            ConfigOp::SetGlobal {
                idx: 7,
                value: 0xDEAD_BEEF,
            },
        ),
        config(2, ConfigOp::Enable(true)),
        load(10, 0x400, 0x1_0000, 0),
        load(12, 0x404, 0x1_0040, 1),
        load(12, 0x404, 0x1_0080, 1),
        load(20, 0x3F0, 0x8000, 3),
        store(21, 0x410, 0x2_0000, 0xAB, 1),
        store(25, 0x414, 0x2_0004, 0x1234_5678, 4),
        store(200, 0x418, 0x2_0008, u64::MAX, 8),
        load(201, 0x400, 0x1_00C0, 0),
        config(300, ConfigOp::ClearRange { id: RangeId(2) }),
        config(301, ConfigOp::Enable(false)),
    ]
}

/// The exact version-2 bytes of [`golden_records`], as the format wrote
/// them before loads and stores became separate record variants. Any
/// change here is an on-disk format change: it needs a new
/// `FORMAT_VERSION`, and it orphans every cached trace.
#[rustfmt::skip]
const GOLDEN_ETPT: &[u8] = &[
    // "ETPT", version 2, "golden", "tiny", capture cycles 301.
    69, 84, 80, 84, 2, 0, 6, 0, 103, 111, 108, 100, 101, 110, 4, 0, 116, 105, 110, 121, 173, 2,
    // Config records: SetRange, SetTagKernel, SetGlobal, Enable(true).
    2, 0, 0, 2, 128, 128, 4, 128, 128, 6, 4, 0, 5,
    2, 1, 3, 5, 172, 2, 1,
    2, 0, 2, 7, 239, 253, 182, 245, 13,
    2, 1, 4, 1,
    // Loads: tag 0, cycle/pc/vaddr deltas, zigzag dep delta.
    0, 8, 128, 16, 128, 128, 8, 0,
    0, 2, 8, 128, 1, 2,
    0, 0, 0, 128, 1, 0,
    0, 8, 39, 255, 129, 4, 4,
    // Stores: tag 1, cycle/pc/vaddr deltas, size byte, value varint.
    1, 1, 64, 128, 128, 12, 1, 171, 1,
    1, 4, 8, 8, 4, 248, 172, 209, 145, 1,
    1, 175, 1, 8, 8, 8, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1,
    // A load after the stores: its dep delta is against the last load's.
    0, 1, 47, 143, 253, 7, 5,
    // Config records: ClearRange, Enable(false).
    2, 99, 1, 2,
    2, 1, 4, 0,
    // End marker, record count 14, header-seeded file hash.
    255, 14, 255, 242, 223, 139, 245, 6, 198, 96,
];

#[test]
fn golden_trace_encodes_to_pinned_bytes() {
    let meta = TraceMeta::new("golden", "tiny").with_capture_cycles(301);
    let records = golden_records();
    assert_eq!(encode(&meta, &records), GOLDEN_ETPT);

    let back = TraceReader::new(GOLDEN_ETPT)
        .unwrap()
        .read_to_end()
        .unwrap();
    assert_eq!(back.meta, meta);
    assert_eq!(back.records, records);
    assert_eq!(content_hash(&records), 0xf3d7_c91d_5ca0_4b37);
}
