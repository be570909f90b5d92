//! Cycle-level out-of-order core model executing dependency-annotated traces.
//!
//! The evaluation of the paper depends on a main core that (a) overlaps
//! independent loads inside a finite instruction window, (b) serialises
//! dependent loads, and (c) stalls when the memory system pushes back. This
//! crate models exactly that: a 3-wide, 40-entry-ROB out-of-order engine
//! (Table 1 of the paper) with a tournament branch predictor, a load/store
//! queue with store-to-load forwarding, and per-class functional units.
//!
//! Programs are *traces*: sequences of [`MicroOp`]s generated by the
//! workload crate, which executes the real algorithm against the simulated
//! [`etpp_mem::MemoryImage`] and records every load/store address, compute
//! latency and branch outcome, plus explicit register dependencies. The
//! core then replays the trace with full timing fidelity — dependent
//! operations wait for their producers, loads contend for MSHRs, and
//! mispredicted branches stall the front end.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bpred;
mod capture;
pub mod core;
pub mod drive;
pub mod trace;

pub use crate::core::{Core, CoreParams, CoreStats, CoreTelemetry, HorizonSource};
pub use bpred::{BranchPredictor, BranchPredictorParams};
pub use drive::{drive, FrontEnd, Limits, LivelockAbort, Probe, VisitCounts};
pub use trace::{MicroOp, OpClass, OpId, Trace, TraceBuilder};
