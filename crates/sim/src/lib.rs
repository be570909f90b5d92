//! Full-system simulation: core + caches + prefetch engine + DRAM.
//!
//! This crate wires the out-of-order core ([`etpp_cpu`]), the memory
//! hierarchy ([`etpp_mem`]), and any prefetch engine — the programmable
//! prefetcher ([`etpp_core`]), the stride/GHB baselines
//! ([`etpp_baselines`]), or none — into one runnable system
//! ([`system::run`]), and provides the experiment drivers that regenerate
//! every figure and table of the paper's evaluation (see [`experiments`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod adaptive;
pub mod config;
pub mod experiments;
pub mod faults;
pub mod replay;
pub mod report;
pub mod rows;
pub mod sweeps;
pub mod system;
pub mod telemetry;
pub mod watchdog;

pub use adaptive::{AdaptiveChoice, AdaptiveEngine, AdaptiveParams, AdaptiveSummary};
pub use config::{PrefetchMode, SystemConfig};
pub use etpp_cpu::HorizonSource;
pub use faults::{FailureRecord, FaultPlan, JobFailure, RetryPolicy};
pub use replay::{
    replay_run, replay_run_watched, try_load_or_capture_keyed, KeyedCapture, ReplayRun,
};
pub use sweeps::{
    composed_grid, merge_shards, parse_shard, render_merged, run_sweep, ShardFile, ShardRun,
    SweepOptions, SweepSpec,
};
pub use system::{
    make_engine, run, run_captured, run_telemetry, run_watched, Engine, RunResult, Skip,
    VisitCounts,
};
pub use telemetry::{TelemetryReport, TelemetrySpec};
pub use watchdog::{Cancelled, Deadline, LivelockAbort, LivelockDetector};
