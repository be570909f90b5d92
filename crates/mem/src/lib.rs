//! Simulated memory substrate for the ETPP cycle-level simulator.
//!
//! This crate provides everything below the CPU core:
//!
//! * [`MemoryImage`] — a sparse, byte-addressable virtual memory holding the
//!   *actual data* of the simulated program, so that prefetch kernels observe
//!   real cache-line contents when their prefetches complete.
//! * [`Cache`] — a set-associative, write-back cache model with per-line
//!   prefetch/used bits for utilisation accounting.
//! * [`MshrFile`] — miss status holding registers, including the *memory
//!   request tags* of §4.7 of the paper.
//! * [`Dram`] — a DDR3-1600-style bank/row timing model.
//! * [`TlbHierarchy`] — L1/L2 TLBs plus a page-table-walker occupancy model.
//! * [`MemorySystem`] — the wiring of all of the above into the L1→L2→DRAM
//!   hierarchy that the core and the prefetch engine talk to.
//! * [`PrefetchEngine`] — the attachment point every prefetcher in this
//!   repository implements (the programmable prefetcher as well as the
//!   stride/GHB baselines).
//!
//! # Example
//!
//! ```
//! use etpp_mem::{MemoryImage, MemorySystem, MemParams, NullEngine, AccessKind};
//!
//! let mut image = MemoryImage::new();
//! let array = image.alloc(4096, 64);
//! image.write_u64(array, 42);
//!
//! let mut mem = MemorySystem::new(MemParams::default(), image);
//! let mut engine = NullEngine;
//! let token = mem
//!     .try_access(0, array, AccessKind::Load, 0)
//!     .expect("first access cannot be rejected");
//! let mut now = 0;
//! let done = loop {
//!     mem.tick(now, &mut engine);
//!     if let Some(c) = mem.take_completions().iter().find(|c| c.id == token) {
//!         break c.at;
//!     }
//!     now += 1;
//! };
//! assert!(done > 0, "a cold miss takes time");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod cache;
pub mod cancel;
pub mod dram;
pub mod engine;
pub mod fasthash;
pub mod image;
pub mod mshr;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod tlb;

pub use addr::{line_of, offset_in_line, page_of, LINE_SIZE, PAGE_SIZE};
pub use cache::{Cache, CacheParams, Line};
pub use cancel::{Cancelled, Deadline};
pub use dram::{Dram, DramParams};
pub use engine::{
    ConfigOp, DemandEvent, FilterFlags, NullEngine, PrefetchEngine, PrefetchRequest, RangeId, TagId,
};
pub use fasthash::{FastBuildHasher, FastHashMap, FastHashSet};
pub use image::{MemoryImage, Region};
pub use mshr::{MshrFile, MshrId};
pub use stats::{CacheStats, DramStats, MemStats, TlbStats};
pub use system::{AccessId, AccessKind, Completion, MemParams, MemorySystem, Rejection};
pub use telemetry::{LifecycleCounts, LifecycleTracker, MemTelemetry, PcLifecycle};
pub use tlb::{TlbHierarchy, TlbParams};
