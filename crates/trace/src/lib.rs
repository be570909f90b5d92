//! Demand-access trace capture and replay — the fast evaluation path.
//!
//! The paper's evaluation re-runs identical workloads through the
//! cycle-level out-of-order core for every prefetcher configuration, so
//! most simulation time is spent regenerating the same demand-access
//! stream. This crate removes that redundancy, ChampSim-style:
//!
//! * [`format`] — a compact, versioned, delta-encoded binary record format
//!   for retired demand accesses (PC, vaddr, kind, cycle, store data) and
//!   prefetcher-configuration operations, with load→load dependence
//!   edges, workload metadata and the capture run's cycle count;
//! * [`io`] — a streaming [`TraceWriter`]/[`TraceReader`] pair over any
//!   `Write`/`Read`, with an integrity hash covering the header and
//!   every record;
//! * [`capture`] — an in-memory capture buffer fed by the hooks in
//!   `etpp_cpu::Core` (retired memory ops, program order) and the
//!   retired-configuration stream;
//! * [`replay`] — a trace-driven front end that feeds recorded accesses
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
//! use etpp_trace::{CaptureBuffer, ReplayParams, TraceMeta, TraceReader, TraceWriter};
//! use etpp_mem::{AccessKind, MemParams, MemoryImage, NullEngine};
//!
//! // Record two accesses, round-trip them through the binary format...
//! let mut image = MemoryImage::new();
//! let base = image.alloc(4096, 64);
//! let mut cap = CaptureBuffer::new(TraceMeta::new("demo", "tiny"));
//! cap.access(10, 0x400, base, AccessKind::Load, 0, 0, 0);
//! cap.access(14, 0x404, base + 64, AccessKind::Load, 0, 0, 1); // fed by the first load
//! assert_eq!(cap.len(), 2);
//! let trace = cap.finish();
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

pub mod capture;
pub mod format;
pub mod io;
pub mod replay;

pub use capture::CaptureBuffer;
pub use format::{content_hash, CapturedTrace, TraceMeta, TraceRecord, FORMAT_VERSION};
pub use io::{TraceReader, TraceWriter};
pub use replay::{replay, replay_cancellable, ReplayParams, ReplayResult};
