//! Demand-access trace capture and replay — the fast evaluation path.
//!
//! The paper's evaluation re-runs identical workloads through the
//! cycle-level out-of-order core for every prefetcher configuration, so
//! most simulation time is spent regenerating the same demand-access
//! stream. This crate removes that redundancy, ChampSim-style:
//!
//! * [`mod@format`] — a compact, versioned, delta-encoded binary record format
//!   for retired demand accesses (PC, vaddr, kind, cycle, store data) and
//!   prefetcher-configuration operations, with load→load dependence
//!   edges, workload metadata and the capture run's cycle count;
//! * [`io`] — a streaming [`TraceWriter`]/[`TraceReader`] pair over any
//!   `Write`/`Read`, with an integrity hash covering the header and
//!   every record;
//! * capture lives in the cycle core: `etpp_cpu::Core` retires straight
//!   into [`TraceRecord`]s (retired memory ops and configuration
//!   instructions, program order), tracking load→load dependences in a
//!   window-bounded ring, and `etpp_sim::run_captured` wraps that single
//!   record vector into a [`CapturedTrace`];
//! * [`mod@replay`] — a trace-driven front end that feeds recorded accesses
//!   through the full `etpp_mem` hierarchy and any
//!   [`etpp_mem::PrefetchEngine`] *without* re-executing the out-of-order
//!   core, an order-of-magnitude faster path for prefetcher sweeps.
//!
//! Replay re-simulates *timing* (caches, MSHRs, DRAM, TLBs and the
//! prefetcher all run for real) but takes the access stream as given, so it
//! measures how a prefetcher changes memory behaviour, not how the core
//! reorders instructions. Store data is recorded and committed during
//! replay, so the post-replay image checksum still validates against the
//! workload's reference output.
//!
//! # Example
//!
//! ```
//! use etpp_trace::{CapturedTrace, ReplayParams, TraceMeta, TraceReader, TraceRecord, TraceWriter};
//! use etpp_mem::{AccessKind, MemParams, MemoryImage, NullEngine};
//!
//! // Two retired loads as the core captures them (a load record carries
//! // no store payload), round-tripped through the binary format...
//! let mut image = MemoryImage::new();
//! let base = image.alloc(4096, 64);
//! let load = |cycle, pc, vaddr, dep| TraceRecord::Access {
//!     cycle, pc, vaddr, kind: AccessKind::Load, value: 0, size: 0, dep,
//! };
//! let trace = CapturedTrace {
//!     meta: TraceMeta::new("demo", "tiny"),
//!     records: vec![load(10, 0x400, base, 0), load(14, 0x404, base + 64, 1)], // fed by the first load
//! };
//! let mut buf = Vec::new();
//! let mut w = TraceWriter::new(&mut buf, &trace.meta).unwrap();
//! for r in &trace.records { w.record(r).unwrap(); }
//! w.finish().unwrap();
//! let mut r = TraceReader::new(buf.as_slice()).unwrap();
//! let records: Vec<_> = r.by_ref().map(|x| x.unwrap()).collect();
//! assert_eq!(records, trace.records);
//!
//! // ...and replay them against a fresh memory hierarchy.
//! let mut engine = NullEngine;
//! let res = etpp_trace::replay(
//!     &ReplayParams::default(), MemParams::paper(), image, &records, &mut engine,
//! );
//! assert_eq!(res.accesses, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod format;
pub mod io;
pub mod replay;

pub use format::{content_hash, CapturedTrace, TraceMeta, TraceRecord, FORMAT_VERSION};
pub use io::{TraceReader, TraceWriter};
pub use replay::{replay, replay_cancellable, ReplayParams, ReplayResult};
