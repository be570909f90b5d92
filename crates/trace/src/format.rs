//! The trace record model and its delta-encoded binary layout.
//!
//! ## Layout (version 2)
//!
//! ```text
//! magic  "ETPT"                       4 bytes
//! version u16 LE                      2 bytes
//! workload-name  len:u16 LE + utf8
//! scale          len:u16 LE + utf8
//! capture-cycles varint               (capture-run cycle count)
//! records        tagged, delta-encoded (see below)
//! end marker     0xFF
//! record count   varint
//! content hash   u64 LE  (FNV-1a over the header fields, then every
//!                         encoded record byte)
//! ```
//!
//! Each record starts with a tag byte (`0` load, `1` store, `2` config).
//! Cycles are encoded as varint deltas from the previous record (the
//! stream is non-decreasing in time); PCs and virtual addresses as
//! zigzag-varint deltas from the previous record's values, which turns
//! the regular strides of these workloads into single-byte deltas.
//! Store records additionally carry the access size and the store data
//! (so replay can commit real values and still validate checksums);
//! config records carry a compact [`ConfigOp`] encoding.
//!
//! ## Load→load dependence edges
//!
//! Load records additionally carry the record's *dependence
//! distance*: how many captured load records back the load sits whose
//! result feeds this load's address (0 = address independent of any
//! in-flight load). `etpp_cpu::Core` tracks register producers through
//! the ALU dataflow as it captures, so a pointer chase
//! `p = p->next` records distance 1 per hop while streaming loops
//! record none. Distances are zigzag-delta coded against the previous
//! load's distance — chases encode as runs of zero bytes. Replay uses
//! the edges to model pointer-chase serialisation instead of a fixed
//! issue window (see [`mod@crate::replay`]).
//!
//! Readers accept exactly [`FORMAT_VERSION`]: a file whose header names
//! any other version is refused by name (`unsupported trace version N`),
//! which the capture cache treats like any other bad file — discard and
//! recapture.

use etpp_mem::{AccessKind, ConfigOp, FilterFlags, RangeId, TagId};

/// The on-disk format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 2;

/// Magic bytes opening every trace file.
pub const MAGIC: [u8; 4] = *b"ETPT";

/// Record tags (also the end-of-stream marker).
pub(crate) const TAG_LOAD: u8 = 0;
pub(crate) const TAG_STORE: u8 = 1;
pub(crate) const TAG_CONFIG: u8 = 2;
pub(crate) const TAG_END: u8 = 0xFF;

/// Workload metadata stored in the trace header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Benchmark name (Table 2 spelling, e.g. `"HJ-8"`).
    pub workload: String,
    /// Input scale the trace was captured at (`"tiny"`, `"small"`, ...).
    pub scale: String,
    /// Total cycles of the capture run (0 = unknown).
    /// Lets replay consumers report absolute-cycle agreement against
    /// the cycle core without re-running the capture.
    pub capture_cycles: u64,
}

impl TraceMeta {
    /// Convenience constructor (capture-cycle count unknown).
    pub fn new(workload: impl Into<String>, scale: impl Into<String>) -> Self {
        TraceMeta {
            workload: workload.into(),
            scale: scale.into(),
            capture_cycles: 0,
        }
    }

    /// Attaches the capture run's total cycle count.
    pub fn with_capture_cycles(mut self, cycles: u64) -> Self {
        self.capture_cycles = cycles;
        self
    }
}

/// One captured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A retired demand access.
    Access {
        /// Retirement cycle in the capture run.
        cycle: u64,
        /// Static program counter.
        pc: u32,
        /// Virtual address accessed.
        vaddr: u64,
        /// Load or store.
        kind: AccessKind,
        /// Store data (stores only; 0 for loads).
        value: u64,
        /// Access size in bytes (stores only; 0 for loads).
        size: u8,
        /// Load→load dependence distance in captured-load ordinals:
        /// this load's address is fed by the load `dep` load records
        /// earlier in the stream. 0 = no recorded producer (always 0
        /// for stores).
        dep: u32,
    },
    /// A retired prefetcher-configuration instruction.
    Config {
        /// Retirement cycle in the capture run.
        cycle: u64,
        /// The operation to forward to the attached engine (boxed: config
        /// records are rare and `ConfigOp` would otherwise set the size of
        /// every record).
        op: Box<ConfigOp>,
    },
}

const _: () = assert!(std::mem::size_of::<TraceRecord>() == 40);

impl TraceRecord {
    /// The record's capture-run cycle.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceRecord::Access { cycle, .. } | TraceRecord::Config { cycle, .. } => *cycle,
        }
    }
}

/// A fully-captured trace: metadata plus records in retirement order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedTrace {
    /// Header metadata.
    pub meta: TraceMeta,
    /// Records in non-decreasing cycle order.
    pub records: Vec<TraceRecord>,
}

impl CapturedTrace {
    /// Number of demand accesses (excluding config records).
    pub fn access_count(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Access { .. }))
            .count() as u64
    }
}

// ---------------------------------------------------------------------------
// varint / zigzag primitives (LEB128)
// ---------------------------------------------------------------------------

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a over a byte slice — the integrity/content hash of the format.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Content hash of an encoded record stream (what
/// [`crate::TraceWriter::finish`] returns).
///
/// Exposed so callers can key disk caches by trace content without
/// re-reading files: encode, hash, compare.
pub fn content_hash(records: &[TraceRecord]) -> u64 {
    let mut enc = Encoder::default();
    let mut buf = Vec::new();
    let mut h = FNV_OFFSET;
    for r in records {
        buf.clear();
        enc.encode(r, &mut buf);
        h = fnv1a(&buf, h);
    }
    h
}

// ---------------------------------------------------------------------------
// record encoder/decoder with delta state
// ---------------------------------------------------------------------------

/// Streaming encoder state: previous cycle/pc/vaddr and the previous
/// load's dependence distance, for delta coding.
#[derive(Debug, Clone, Default)]
pub(crate) struct Encoder {
    prev_cycle: u64,
    prev_pc: u32,
    prev_vaddr: u64,
    prev_dep: u32,
}

impl Encoder {
    /// Appends the encoding of `r` to `out`.
    pub(crate) fn encode(&mut self, r: &TraceRecord, out: &mut Vec<u8>) {
        match r {
            TraceRecord::Access {
                cycle,
                pc,
                vaddr,
                kind,
                value,
                size,
                dep,
            } => {
                out.push(match kind {
                    AccessKind::Load => TAG_LOAD,
                    AccessKind::Store => TAG_STORE,
                });
                write_varint(out, cycle.wrapping_sub(self.prev_cycle));
                write_varint(out, zigzag(*pc as i64 - self.prev_pc as i64));
                write_varint(out, zigzag(vaddr.wrapping_sub(self.prev_vaddr) as i64));
                match kind {
                    AccessKind::Store => {
                        out.push(*size);
                        write_varint(out, *value);
                    }
                    AccessKind::Load => {
                        write_varint(out, zigzag(*dep as i64 - self.prev_dep as i64));
                        self.prev_dep = *dep;
                    }
                }
                self.prev_cycle = *cycle;
                self.prev_pc = *pc;
                self.prev_vaddr = *vaddr;
            }
            TraceRecord::Config { cycle, op } => {
                out.push(TAG_CONFIG);
                write_varint(out, cycle.wrapping_sub(self.prev_cycle));
                encode_config(op, out);
                self.prev_cycle = *cycle;
            }
        }
    }
}

/// Streaming decoder state mirroring [`Encoder`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Decoder {
    prev_cycle: u64,
    prev_pc: u32,
    prev_vaddr: u64,
    prev_dep: u32,
}

/// A malformed trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace format error: {}", self.0)
    }
}

impl std::error::Error for FormatError {}

pub(crate) struct ByteCursor<'a> {
    pub bytes: &'a [u8],
    pub pos: usize,
}

impl ByteCursor<'_> {
    pub(crate) fn u8(&mut self) -> Result<u8, FormatError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| FormatError("unexpected end of record".into()))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, FormatError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(FormatError("varint overflow".into()));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

impl Decoder {
    /// Decodes one record starting at `cur` (tag already consumed).
    pub(crate) fn decode(
        &mut self,
        tag: u8,
        cur: &mut ByteCursor<'_>,
    ) -> Result<TraceRecord, FormatError> {
        match tag {
            TAG_LOAD | TAG_STORE => {
                let cycle = self.prev_cycle.wrapping_add(cur.varint()?);
                // Wrapping: identical to `prev + delta` for any stream the
                // encoder emits, and panic-free on corrupt deltas (the
                // footer hash rejects the record stream afterwards).
                let pc = (self.prev_pc as i64).wrapping_add(unzigzag(cur.varint()?)) as u32;
                let vaddr = self.prev_vaddr.wrapping_add(unzigzag(cur.varint()?) as u64);
                let (kind, value, size, dep) = if tag == TAG_STORE {
                    let size = cur.u8()?;
                    let value = cur.varint()?;
                    (AccessKind::Store, value, size, 0)
                } else {
                    let dep = (self.prev_dep as i64).wrapping_add(unzigzag(cur.varint()?)) as u32;
                    self.prev_dep = dep;
                    (AccessKind::Load, 0, 0, dep)
                };
                self.prev_cycle = cycle;
                self.prev_pc = pc;
                self.prev_vaddr = vaddr;
                Ok(TraceRecord::Access {
                    cycle,
                    pc,
                    vaddr,
                    kind,
                    value,
                    size,
                    dep,
                })
            }
            TAG_CONFIG => {
                let cycle = self.prev_cycle.wrapping_add(cur.varint()?);
                let op = Box::new(decode_config(cur)?);
                self.prev_cycle = cycle;
                Ok(TraceRecord::Config { cycle, op })
            }
            other => Err(FormatError(format!("unknown record tag {other:#x}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// ConfigOp encoding
// ---------------------------------------------------------------------------

const CFG_SET_RANGE: u8 = 0;
const CFG_CLEAR_RANGE: u8 = 1;
const CFG_SET_GLOBAL: u8 = 2;
const CFG_SET_TAG_KERNEL: u8 = 3;
const CFG_ENABLE: u8 = 4;

fn write_opt_u16(out: &mut Vec<u8>, v: Option<u16>) {
    match v {
        None => write_varint(out, 0),
        Some(x) => write_varint(out, x as u64 + 1),
    }
}

fn read_opt_u16(cur: &mut ByteCursor<'_>) -> Result<Option<u16>, FormatError> {
    let v = cur.varint()?;
    Ok(if v == 0 { None } else { Some((v - 1) as u16) })
}

fn encode_config(op: &ConfigOp, out: &mut Vec<u8>) {
    match op {
        ConfigOp::SetRange {
            id,
            lo,
            hi,
            on_load,
            on_prefetch,
            flags,
        } => {
            out.push(CFG_SET_RANGE);
            write_varint(out, id.0 as u64);
            write_varint(out, *lo);
            write_varint(out, *hi);
            write_opt_u16(out, *on_load);
            write_opt_u16(out, *on_prefetch);
            out.push(
                (flags.ewma_iteration as u8)
                    | (flags.ewma_chain_start as u8) << 1
                    | (flags.ewma_chain_end as u8) << 2,
            );
        }
        ConfigOp::ClearRange { id } => {
            out.push(CFG_CLEAR_RANGE);
            write_varint(out, id.0 as u64);
        }
        ConfigOp::SetGlobal { idx, value } => {
            out.push(CFG_SET_GLOBAL);
            out.push(*idx);
            write_varint(out, *value);
        }
        ConfigOp::SetTagKernel {
            tag,
            kernel,
            chain_end,
        } => {
            out.push(CFG_SET_TAG_KERNEL);
            write_varint(out, tag.0 as u64);
            write_varint(out, *kernel as u64);
            out.push(*chain_end as u8);
        }
        ConfigOp::Enable(on) => {
            out.push(CFG_ENABLE);
            out.push(*on as u8);
        }
    }
}

fn decode_config(cur: &mut ByteCursor<'_>) -> Result<ConfigOp, FormatError> {
    match cur.u8()? {
        CFG_SET_RANGE => {
            let id = RangeId(cur.varint()? as u16);
            let lo = cur.varint()?;
            let hi = cur.varint()?;
            let on_load = read_opt_u16(cur)?;
            let on_prefetch = read_opt_u16(cur)?;
            let f = cur.u8()?;
            Ok(ConfigOp::SetRange {
                id,
                lo,
                hi,
                on_load,
                on_prefetch,
                flags: FilterFlags {
                    ewma_iteration: f & 1 != 0,
                    ewma_chain_start: f & 2 != 0,
                    ewma_chain_end: f & 4 != 0,
                },
            })
        }
        CFG_CLEAR_RANGE => Ok(ConfigOp::ClearRange {
            id: RangeId(cur.varint()? as u16),
        }),
        CFG_SET_GLOBAL => {
            let idx = cur.u8()?;
            let value = cur.varint()?;
            Ok(ConfigOp::SetGlobal { idx, value })
        }
        CFG_SET_TAG_KERNEL => {
            let tag = TagId(cur.varint()? as u16);
            let kernel = cur.varint()? as u16;
            let chain_end = cur.u8()? != 0;
            Ok(ConfigOp::SetTagKernel {
                tag,
                kernel,
                chain_end,
            })
        }
        CFG_ENABLE => Ok(ConfigOp::Enable(cur.u8()? != 0)),
        other => Err(FormatError(format!("unknown config tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut cur = ByteCursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(cur.varint().unwrap(), v);
            assert_eq!(cur.pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn sequential_accesses_encode_small() {
        // A 64-byte-strided stream should cost only a few bytes per record.
        let mut enc = Encoder::default();
        let mut out = Vec::new();
        for i in 0..1000u64 {
            enc.encode(
                &TraceRecord::Access {
                    cycle: i * 3,
                    pc: 0x400,
                    vaddr: 0x10000 + i * 64,
                    kind: AccessKind::Load,
                    value: 0,
                    size: 0,
                    dep: 0,
                },
                &mut out,
            );
        }
        // tag + 1-byte cycle delta + 1-byte pc delta + 2-byte vaddr delta
        // + 1-byte dep delta.
        assert!(
            out.len() <= 1000 * 6 + 8,
            "strided loads should be ~6 bytes each, got {} total",
            out.len()
        );
    }

    #[test]
    fn pointer_chase_deps_encode_as_single_zero_bytes() {
        // A dep-distance-1 chain delta-encodes every dep after the first
        // edge as zigzag(0) = one zero byte: tag + four one-byte deltas.
        let mk = |dep| TraceRecord::Access {
            cycle: 0,
            pc: 0x40,
            vaddr: 0x1000,
            kind: AccessKind::Load,
            value: 0,
            size: 0,
            dep,
        };
        let mut enc = Encoder::default();
        let mut buf = Vec::new();
        for i in 0..100 {
            buf.clear();
            enc.encode(&mk(if i == 0 { 0 } else { 1 }), &mut buf);
            if i >= 2 {
                assert_eq!(buf, [TAG_LOAD, 0, 0, 0, 0], "record {i}");
            }
        }
    }

    #[test]
    fn config_ops_roundtrip() {
        let ops = vec![
            ConfigOp::SetRange {
                id: RangeId(3),
                lo: 0x1000,
                hi: 0x2000,
                on_load: Some(7),
                on_prefetch: None,
                flags: FilterFlags {
                    ewma_iteration: true,
                    ewma_chain_start: false,
                    ewma_chain_end: true,
                },
            },
            ConfigOp::ClearRange { id: RangeId(9) },
            ConfigOp::SetGlobal {
                idx: 5,
                value: u64::MAX,
            },
            ConfigOp::SetTagKernel {
                tag: TagId(2),
                kernel: 11,
                chain_end: true,
            },
            ConfigOp::Enable(false),
        ];
        for op in ops {
            let mut buf = Vec::new();
            encode_config(&op, &mut buf);
            let mut cur = ByteCursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(decode_config(&mut cur).unwrap(), op);
        }
    }

    #[test]
    fn content_hash_is_order_sensitive() {
        let a = TraceRecord::Access {
            cycle: 1,
            pc: 1,
            vaddr: 0x40,
            kind: AccessKind::Load,
            value: 0,
            size: 0,
            dep: 0,
        };
        let b = TraceRecord::Access {
            cycle: 2,
            pc: 2,
            vaddr: 0x80,
            kind: AccessKind::Load,
            value: 0,
            size: 0,
            dep: 0,
        };
        assert_ne!(content_hash(&[a.clone(), b.clone()]), content_hash(&[b, a]));
    }

    #[test]
    fn content_hash_covers_dependence_edges() {
        let mk = |dep| TraceRecord::Access {
            cycle: 3,
            pc: 9,
            vaddr: 0x140,
            kind: AccessKind::Load,
            value: 0,
            size: 0,
            dep,
        };
        assert_ne!(content_hash(&[mk(0)]), content_hash(&[mk(5)]));
    }
}
