//! The sweep farm: composed ablation grids, replay-first, with a
//! content-hash result cache and shardable job partitions.
//!
//! A [`SweepSpec`] expresses any cross product of [`SystemConfig`]
//! mutations ([`Axis`] values × engine [`PrefetchMode`]s × workloads) as
//! one **flat, index-addressable job list**. Every cell runs
//! **replay-first** over the workload's captured demand stream — the
//! fast path — and only *disagreeing* streams escalate to the
//! cycle-level core, gated by the per-workload `cycle_agreement` the
//! trace records at capture (`TraceMeta::capture_cycles`):
//!
//! * stream agreement `|replay/capture − 1| ≤ gate` → every cell of
//!   that workload replays (the common case; the cycle core does no
//!   work);
//! * the gate fails, or the baseline replay itself breaks → the
//!   workload's cells run on the cycle core, compared against the
//!   capture run's own cycle count so speedups stay like-for-like;
//! * an individual cell whose replay is impossible (e.g. Software mode)
//!   or corrupts the image escalates alone — the only *per-cell*
//!   disagreement signal replay can produce without a reference run.
//!
//! Every cell is memoized in a **content-hash result cache** on disk,
//! keyed by `(trace content hash, canonical config hash, schema
//! version)` — see [`cell_config_hash`] — so warm re-runs are
//! near-free and a workload regeneration or config change invalidates
//! exactly the affected cells.
//!
//! The config in that key — and the config the cell *runs* on — is the
//! **effective** one, [`SystemConfig::effective_for`]: fields the mode
//! cannot read (`cfg.pf` for fixed-function engines) are reset, so grid
//! cells that differ only there are one cell and share one cache entry
//! (the composed grid's 6144 jobs are 2080 distinct cells). One
//! representative job per distinct key runs before the rest, so within
//! a [`run_sweep`] over a cache dir no key is simulated twice and the
//! hit/miss split is the same for any `jobs`; without a cache dir
//! every job simulates (on the projected config).
//!
//! The job list is **partitionable across processes**: shard `k` of `n`
//! runs jobs `i ≡ k (mod n)` ([`crate::experiments::shard_indices`])
//! and writes a shard JSON ([`ShardRun::to_json`]); [`merge_shards`]
//! reassembles any complete set of shards into tables
//! ([`render_merged`]) that are byte-identical for every (jobs,
//! shard-count) split — the same determinism contract
//! [`crate::experiments::map_indexed`] pins for threads, extended to
//! processes.
//!
//! On disk everything is a **row** ([`crate::rows`]): a cell's payload
//! ([`CellData`]), a baseline ([`WorkloadBaseline`]) and a quarantine
//! ([`FailureRecord`]) each have exactly one field writer and one field
//! reader, and the four files are arrangements of those rows — the
//! cache record is one sealed cell payload, a journal line is a sealed
//! `kind` + row (+ nested failure row), the shard file and
//! `failures.json` are arrays of rows, one per line.

use crate::config::{PrefetchMode, SystemConfig};
use crate::experiments::{map_indexed, shard_indices};
use crate::faults::{
    publish, run_isolated, run_isolated_budgeted, Attempts, FailureClass, FailureRecord, FaultPlan,
    JobFailure, Journal, RetryPolicy,
};
use crate::replay::{replay_params, replay_run_watched, CaptureSource, KeyedCapture};
use crate::rows::{row, seal, unseal, write_rows, Row, RowWriter};
use crate::system::run_watched;
use crate::watchdog::Deadline;
use etpp_telemetry::Registry;
use etpp_trace::format::{fnv1a, FNV_OFFSET};
use etpp_workloads::BuiltWorkload;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Version of the result-cache record and shard-file layout. Part of
/// every cache key and file name: bumping it orphans (never corrupts)
/// old entries. v2 added the `failed` cell path and the shard-file
/// `failures` section; v3 moved every file onto the one row codec and
/// the one `payload|fnv` frame of [`crate::rows`].
pub const SWEEP_SCHEMA_VERSION: u32 = 3;

/// Default escalation gate on the stream-level absolute-cycle
/// agreement: a baseline replay within ±15% of the capture run's cycle
/// count is trusted for the whole grid (Small-scale agreement is
/// 0.86–0.99, see `tests/replay_fidelity.rs`; Tiny-scale streams may
/// escalate, which is exactly the gate doing its job).
pub const DEFAULT_AGREEMENT_GATE: f64 = 0.15;

/// Auto cell budget: this multiple of the slowest *measured* baseline
/// wall time bounds every cell of the shard. Generous on purpose — the
/// watchdog exists to catch hangs and livelocks, not slow-but-honest
/// cells; the escalated retry quadruples it again before quarantine.
pub const DEFAULT_BUDGET_MULTIPLE: u32 = 32;

/// Floor on the auto cell budget, covering shards whose baselines all
/// resumed from the journal or hit the result cache (measured wall
/// time ~0) and machines with noisy schedulers.
pub const MIN_CELL_BUDGET: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Spec: axes, cross products, flat job indexing
// ---------------------------------------------------------------------------

/// One mutation axis of a sweep: a named parameter and the values it
/// takes. `apply` is a plain fn pointer so axes stay `Clone` and the
/// mutation is a pure function of `(axis, value)`.
#[derive(Clone)]
pub struct Axis {
    /// Parameter name (settings strings, tables, cache-key material
    /// only via the mutated config itself).
    pub name: &'static str,
    /// The values this axis sweeps.
    pub values: Vec<u64>,
    /// Applies one value to a configuration.
    pub apply: fn(&mut SystemConfig, u64),
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("values", &self.values)
            .finish()
    }
}

/// Axis constructors for the prefetcher parameters the paper ablates.
pub mod axes {
    use super::Axis;
    use crate::config::SystemConfig;

    fn set_obs_queue(cfg: &mut SystemConfig, v: u64) {
        cfg.pf.observation_queue = v as usize;
    }
    fn set_req_queue(cfg: &mut SystemConfig, v: u64) {
        cfg.pf.request_queue = v as usize;
    }
    fn set_lookahead_scale(cfg: &mut SystemConfig, v: u64) {
        cfg.pf.lookahead_scale = v;
    }
    fn set_pf_buffer(cfg: &mut SystemConfig, v: u64) {
        cfg.mem.pf_buffer_entries = v as usize;
    }
    fn set_num_ppus(cfg: &mut SystemConfig, v: u64) {
        cfg.pf.num_ppus = v as usize;
    }
    fn set_ppu_hz(cfg: &mut SystemConfig, v: u64) {
        cfg.pf.ppu_hz = v;
    }

    /// Observation-queue depth (paper: 40 entries).
    pub fn obs_queue(values: &[u64]) -> Axis {
        Axis {
            name: "obs_queue",
            values: values.to_vec(),
            apply: set_obs_queue,
        }
    }

    /// Prefetch-request-queue depth (paper: 200 entries).
    pub fn req_queue(values: &[u64]) -> Axis {
        Axis {
            name: "req_queue",
            values: values.to_vec(),
            apply: set_req_queue,
        }
    }

    /// EWMA look-ahead safety multiplier; 0 = the raw ratio (honoured
    /// by `EwmaBank` since the sweep farm landed — no caller-side
    /// clamping).
    pub fn lookahead_scale(values: &[u64]) -> Axis {
        Axis {
            name: "lookahead_scale",
            values: values.to_vec(),
            apply: set_lookahead_scale,
        }
    }

    /// Prefetch-buffer capacity (0 disables prefetching entirely).
    pub fn pf_buffer(values: &[u64]) -> Axis {
        Axis {
            name: "pf_buffer",
            values: values.to_vec(),
            apply: set_pf_buffer,
        }
    }

    /// PPU count (paper: 12; Figure 9a sweeps it).
    pub fn num_ppus(values: &[u64]) -> Axis {
        Axis {
            name: "num_ppus",
            values: values.to_vec(),
            apply: set_num_ppus,
        }
    }

    /// PPU clock in Hz (paper: 1 GHz; Figure 9b trades count for clock).
    pub fn ppu_hz(values: &[u64]) -> Axis {
        Axis {
            name: "ppu_hz",
            values: values.to_vec(),
            apply: set_ppu_hz,
        }
    }
}

/// A composed sweep: the cross product of every axis value with every
/// engine mode, per workload.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (shard-file identity; merges refuse to mix sweeps).
    pub name: &'static str,
    /// Base configuration the axes mutate.
    pub base: SystemConfig,
    /// Engine modes (the paper's Figure 7 axis).
    pub modes: Vec<PrefetchMode>,
    /// Mutation axes; the first axis varies slowest in job order.
    pub axes: Vec<Axis>,
}

impl SweepSpec {
    /// Cells per workload: `modes × Π |axis values|`.
    pub fn cells_per_workload(&self) -> usize {
        self.modes.len() * self.axes.iter().map(|a| a.values.len()).product::<usize>()
    }

    /// Total flat job count across `n_workloads` workloads.
    pub fn total_jobs(&self, n_workloads: usize) -> usize {
        self.cells_per_workload() * n_workloads
    }

    /// Decodes a flat job index into (workload index, mode index, one
    /// value index per axis). Workload-major, then mode, then axes in
    /// declaration order (last axis fastest) — the addressing contract
    /// shard partitions rely on.
    pub fn decode(&self, job: usize) -> (usize, usize, Vec<usize>) {
        let cpw = self.cells_per_workload();
        let (wi, mut cell) = (job / cpw, job % cpw);
        let mut value_idx = vec![0usize; self.axes.len()];
        for (ai, axis) in self.axes.iter().enumerate().rev() {
            value_idx[ai] = cell % axis.values.len();
            cell /= axis.values.len();
        }
        (wi, cell, value_idx)
    }

    /// The fully-mutated configuration for one cell.
    pub fn config_for(&self, value_idx: &[usize]) -> SystemConfig {
        let mut cfg = self.base;
        for (axis, &vi) in self.axes.iter().zip(value_idx) {
            (axis.apply)(&mut cfg, axis.values[vi]);
        }
        cfg
    }

    /// The cell's axis settings as `(name, value)` pairs.
    pub fn settings_for(&self, value_idx: &[usize]) -> Vec<(&'static str, u64)> {
        self.axes
            .iter()
            .zip(value_idx)
            .map(|(a, &vi)| (a.name, a.values[vi]))
            .collect()
    }
}

/// Renders settings pairs as the canonical table/shard-file string
/// (`"obs_queue=10 pf_buffer=8"`; `"-"` for an axis-free sweep).
pub fn settings_string(settings: &[(&'static str, u64)]) -> String {
    if settings.is_empty() {
        return "-".to_string();
    }
    let mut out = String::new();
    for (i, (n, v)) in settings.iter().enumerate() {
        let _ = write!(out, "{}{n}={v}", if i == 0 { "" } else { " " });
    }
    out
}

/// The ROADMAP's composed grid, grown now that cells are cheap:
/// observation-queue depth × request-queue depth × EWMA look-ahead
/// scale (0 = raw ratio) × prefetch-buffer capacity × PPU count × PPU
/// clock × engine mode — 3072 configurations per workload, all
/// replay-first. The engine axis includes the zoo's fixed-function
/// additions (RPT stride, PC-delta) beside the original four.
pub fn composed_grid() -> SweepSpec {
    SweepSpec {
        name: "composed",
        base: SystemConfig::paper(),
        modes: vec![
            PrefetchMode::Stride,
            PrefetchMode::RptStride,
            PrefetchMode::PcDelta,
            PrefetchMode::GhbRegular,
            PrefetchMode::Converted,
            PrefetchMode::Manual,
        ],
        axes: vec![
            axes::obs_queue(&[10, 20, 40, 80]),
            axes::req_queue(&[100, 200]),
            axes::lookahead_scale(&[0, 2, 4, 8]),
            axes::pf_buffer(&[8, 16, 32, 64]),
            axes::num_ppus(&[6, 12]),
            axes::ppu_hz(&[500_000_000, 1_000_000_000]),
        ],
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// Canonical configuration hash for one cell: FNV-1a over the `Debug`
/// rendering of the fully-mutated [`SystemConfig`] *as `mode` can read
/// it* ([`SystemConfig::effective_for`] — every field of that, so any
/// config drift the cell could observe invalidates, and none it could
/// not), the mode key, the escalation decision the cell executed
/// under, the replay front-end parameters, and
/// [`SWEEP_SCHEMA_VERSION`]. Two cells that arrive at the same
/// effective configuration — by different axis paths, or by differing
/// only in fields their mode ignores — share one cache entry;
/// `exec_cell` runs on the same projection, so key and simulation
/// cannot disagree.
pub fn cell_config_hash(cfg: &SystemConfig, mode: PrefetchMode, escalate: bool) -> u64 {
    let cfg = cfg.effective_for(mode);
    let mut h = FNV_OFFSET;
    h = fnv1a(b"etpp-sweep-cell", h);
    h = fnv1a(format!("{cfg:?}").as_bytes(), h);
    h = fnv1a(mode.key().as_bytes(), h);
    h = fnv1a(&[escalate as u8], h);
    h = fnv1a(format!("{:?}", replay_params()).as_bytes(), h);
    h = fnv1a(&u64::from(SWEEP_SCHEMA_VERSION).to_le_bytes(), h);
    h
}

/// On-disk path of a cell's cached result inside `dir`.
pub fn cell_cache_path(dir: &Path, trace_hash: u64, config_hash: u64) -> PathBuf {
    dir.join(format!(
        "{trace_hash:016x}-{config_hash:016x}-s{SWEEP_SCHEMA_VERSION}.json"
    ))
}

/// Which execution path produced a cell's numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPath {
    /// Trace replay (the fast path).
    Replay,
    /// Escalated to the cycle-level core.
    Cycle,
    /// Not runnable on either path (e.g. no program for the mode).
    Skip,
    /// Quarantined: exhausted its retry budget (panicking cell, broken
    /// baseline) — rendered as an explicit `FAILED` row, never cached.
    Failed,
}

impl CellPath {
    fn as_str(self) -> &'static str {
        match self {
            CellPath::Replay => "replay",
            CellPath::Cycle => "cycle",
            CellPath::Skip => "skip",
            CellPath::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Option<CellPath> {
        match s {
            "replay" => Some(CellPath::Replay),
            "cycle" => Some(CellPath::Cycle),
            "skip" => Some(CellPath::Skip),
            "failed" => Some(CellPath::Failed),
            _ => None,
        }
    }
}

/// The payload of one executed cell: what the result cache stores
/// (identity lives in the file name) and what a journal entry and a
/// shard cell row carry; speedups are derived at assembly from the
/// workload baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellData {
    /// Which path produced the numbers.
    pub path: CellPath,
    /// Simulated cycles (0 when skipped or failed).
    pub cycles: u64,
    /// Host driver iterations.
    pub host_iters: u64,
    /// Dependence-edge stalls (replay path only).
    pub dep_stalls: u64,
    /// Post-run image checksum matched.
    pub validated: bool,
}

impl CellData {
    /// A quarantined cell: no numbers, rendered as a `FAILED` row.
    const FAILED: CellData = CellData {
        path: CellPath::Failed,
        cycles: 0,
        host_iters: 0,
        dep_stalls: 0,
        validated: false,
    };

    fn write(&self, w: &mut RowWriter<'_>) {
        w.str("path", self.path.as_str())
            .raw("cycles", self.cycles)
            .raw("host_iters", self.host_iters)
            .raw("dep_stalls", self.dep_stalls)
            .raw("validated", self.validated);
    }

    fn read(row: &Row<'_>) -> Result<CellData, String> {
        let path = row.str("path")?;
        Ok(CellData {
            path: CellPath::from_str(&path).ok_or_else(|| format!("unknown path {path:?}"))?,
            cycles: row.get("cycles")?,
            host_iters: row.get("host_iters")?,
            dep_stalls: row.get("dep_stalls")?,
            validated: row.get("validated")?,
        })
    }

    /// The on-disk cache record: the payload row, sealed.
    pub fn to_record(&self) -> String {
        seal(&row(|w| self.write(w)))
    }

    /// Reads a cache record back. `None` means corrupt, truncated or
    /// drifted — the caller evicts the entry and treats the lookup as a
    /// miss.
    pub fn from_record(raw: &[u8]) -> Option<CellData> {
        let payload = unseal(std::str::from_utf8(raw).ok()?)?;
        CellData::read(&Row::parse(payload)?).ok()
    }
}

fn store_cell(path: &Path, d: &CellData, tear: Option<u64>) -> std::io::Result<()> {
    let mut bytes = d.to_record().into_bytes();
    if let Some(k) = tear {
        // Fault injection: a torn write — the rename still happens, so
        // the next reader sees a syntactically broken record.
        bytes.truncate((k as usize).min(bytes.len()));
    }
    // Write-then-rename so concurrent shards on a shared cache dir can
    // only ever observe complete records.
    publish(path, |out| out.write_all(&bytes))
}

// ---------------------------------------------------------------------------
// Running a sweep shard
// ---------------------------------------------------------------------------

/// How a sweep runs: cache location, worker threads, shard partition.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Result-cache directory (`None` disables memoization).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for this process's share of the job list.
    pub jobs: usize,
    /// `(k, n)`: run jobs `i ≡ k (mod n)` only. `(0, 1)` = everything.
    pub shard: (usize, usize),
    /// Scale label recorded in the shard header (merges refuse to mix
    /// scales).
    pub scale_label: String,
    /// Panic-isolation policy (`strict: true` = abort-on-first-failure).
    pub retry: RetryPolicy,
    /// Deterministic faults to inject (`None` = run clean).
    pub faults: Option<FaultPlan>,
    /// Progress-journal path for checkpoint–resume (`None` disables).
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Per-cell wall-clock budget for the watchdog (`repro
    /// --cell-budget`). `None` derives one deterministically from the
    /// shard's own measured baselines ([`DEFAULT_BUDGET_MULTIPLE`] ×
    /// the slowest, floored at [`MIN_CELL_BUDGET`]); `Duration::ZERO`
    /// explicitly disarms the watchdog. A cell that overruns is
    /// aborted, retried once at an escalated budget, then
    /// quarantined as a `timeout`.
    pub cell_budget: Option<Duration>,
}

impl SweepOptions {
    /// Cache-less, unsharded, fault-free options.
    pub fn new(jobs: usize, scale_label: &str) -> Self {
        SweepOptions {
            cache_dir: None,
            jobs,
            shard: (0, 1),
            scale_label: scale_label.to_string(),
            retry: RetryPolicy::default(),
            faults: None,
            journal: None,
            resume: false,
            cell_budget: None,
        }
    }
}

/// Per-workload baseline: the replay-first no-prefetch run the
/// agreement gate judges, and the denominator every cell speedup uses.
/// One type in memory, in the journal and in the shard file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBaseline {
    /// Benchmark name.
    pub workload: String,
    /// Baseline (no-prefetch, base-config) cycles on the path the gate
    /// chose — replay cycles normally, cycle-core cycles if the
    /// baseline replay itself broke.
    pub replay_cycles: u64,
    /// The capture run's cycle-core cycle count (0 = not recorded).
    pub capture_cycles: u64,
    /// `replay_cycles / capture_cycles` (`None` without a reference).
    pub agreement: Option<f64>,
    /// Whether this workload's cells escalate to the cycle core.
    pub escalate: bool,
    /// The speedup denominator: replay cycles when the stream is
    /// trusted, the capture run's cycle count when escalated.
    pub reference_cycles: u64,
}

impl WorkloadBaseline {
    /// `agreement` is spelled by `f64`'s shortest-round-trip `Display`,
    /// so it reads back bit-exact and resumed merges stay byte-identical.
    fn write(&self, w: &mut RowWriter<'_>) {
        w.str("workload", &self.workload)
            .raw("replay_cycles", self.replay_cycles)
            .raw("capture_cycles", self.capture_cycles)
            .opt("agreement", self.agreement)
            .raw("escalate", self.escalate)
            .raw("reference_cycles", self.reference_cycles);
    }

    fn read(row: &Row<'_>) -> Result<WorkloadBaseline, String> {
        Ok(WorkloadBaseline {
            workload: row.str("workload")?.into_owned(),
            replay_cycles: row.get("replay_cycles")?,
            capture_cycles: row.get("capture_cycles")?,
            agreement: row.get("agreement").ok(),
            escalate: row.get("escalate")?,
            reference_cycles: row.get("reference_cycles")?,
        })
    }
}

/// One assembled sweep cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Flat job index (globally unique across shards).
    pub index: usize,
    /// Benchmark name.
    pub workload: &'static str,
    /// Engine mode.
    pub mode: PrefetchMode,
    /// Axis settings applied on top of the base config.
    pub settings: Vec<(&'static str, u64)>,
    /// Which path produced the numbers.
    pub path: CellPath,
    /// Simulated cycles (0 when skipped).
    pub cycles: u64,
    /// Host driver iterations.
    pub host_iters: u64,
    /// Dependence-edge stalls (replay path only).
    pub dep_stalls: u64,
    /// Post-run image checksum matched.
    pub validated: bool,
    /// Speedup over the workload baseline (None when skipped).
    pub speedup: Option<f64>,
    /// Served from the result cache.
    pub cached: bool,
}

impl CellResult {
    fn data(&self) -> CellData {
        CellData {
            path: self.path,
            cycles: self.cycles,
            host_iters: self.host_iters,
            dep_stalls: self.dep_stalls,
            validated: self.validated,
        }
    }
}

/// The output of one sweep shard: its cells, the baselines behind
/// them, and the cache-effectiveness counters.
#[derive(Debug)]
pub struct ShardRun {
    /// Sweep name (from the spec).
    pub sweep: &'static str,
    /// Scale label (from the options).
    pub scale: String,
    /// Trace format the captures were keyed under (a shard from a
    /// build with another format refuses to merge with this one's).
    pub trace_format: u16,
    /// `(k, n)` shard identity.
    pub shard: (usize, usize),
    /// Total jobs in the *full* sweep (all shards).
    pub total_jobs: usize,
    /// Baselines for every workload this shard touched.
    pub baselines: Vec<WorkloadBaseline>,
    /// This shard's cells, ascending by flat index.
    pub cells: Vec<CellResult>,
    /// Quarantined jobs (baselines first, then cells by index) — what
    /// `failures.json` serialises.
    pub failures: Vec<FailureRecord>,
    /// `sweep.*` counters (cache effectiveness, retries, quarantines,
    /// journal hits) plus this run's `trace.decode_errors` and
    /// `driver.livelock_aborts`.
    pub registry: Registry,
}

impl ShardRun {
    /// Cache hits this run.
    pub fn cache_hits(&self) -> u64 {
        self.registry.counter("sweep.cache.hit")
    }

    /// Cache misses (cells executed fresh) this run.
    pub fn cache_misses(&self) -> u64 {
        self.registry.counter("sweep.cache.miss")
    }

    /// Fresh cells that ran the cycle core this run.
    pub fn escalations(&self) -> u64 {
        self.registry.counter("sweep.cache.escalated")
    }

    /// Distinct result-cache keys among this shard's jobs — the most
    /// cells it could have had to simulate.
    pub fn distinct_cells(&self) -> u64 {
        self.registry.counter("sweep.cells.distinct")
    }

    /// Corrupt cache entries evicted (then treated as misses) this run.
    pub fn corrupt_evicted(&self) -> u64 {
        self.registry.counter("sweep.cache.corrupt_evicted")
    }

    /// Panic retries consumed this run.
    pub fn retries(&self) -> u64 {
        self.registry.counter("sweep.retry")
    }

    /// Jobs quarantined after exhausting their retry budget.
    pub fn quarantined(&self) -> u64 {
        self.registry.counter("sweep.quarantined")
    }

    /// Jobs skipped because the resume journal already had them.
    pub fn journal_hits(&self) -> u64 {
        self.registry.counter("sweep.journal.hit")
    }

    /// Cells quarantined because their wall-clock budget expired.
    pub fn timeouts(&self) -> u64 {
        self.registry.counter("sweep.timeout")
    }

    /// Attempts of this run that the driver's livelock detector
    /// aborted.
    pub fn livelock_aborts(&self) -> u64 {
        self.registry.counter("driver.livelock_aborts")
    }

    /// One-line effectiveness summary (repro stderr): cache behaviour
    /// always, fault/resume counters only when non-zero.
    pub fn cache_summary(&self) -> String {
        let (h, m, e) = (self.cache_hits(), self.cache_misses(), self.escalations());
        let mut s = format!(
            "{} cells, {} distinct; cache: {h} hit / {m} miss / {e} escalated ({:.1}% hit)",
            self.cells.len(),
            self.distinct_cells(),
            100.0 * h as f64 / (h + m).max(1) as f64
        );
        for (count, what) in [
            (self.corrupt_evicted(), "corrupt evicted"),
            (self.retries(), "retried"),
            (self.quarantined(), "quarantined"),
            (self.timeouts(), "timed out"),
            (self.livelock_aborts(), "livelock aborts"),
            (self.journal_hits(), "resumed from journal"),
        ] {
            if count > 0 {
                let _ = write!(s, ", {count} {what}");
            }
        }
        s
    }
}

/// Looks a cell up in the cache (when enabled), else executes it and
/// stores the result. `key` is the cell's `(trace content hash,
/// `[`cell_config_hash`]`)` — hashed once per job by the caller, which
/// also schedules by it. Returns the data plus whether it was a hit;
/// exactly one of `sweep.cache.{hit,miss}` is bumped per call that
/// returns, so an attempt that unwinds inside the simulation counts
/// (and stores) nothing.
///
/// A present-but-invalid entry (torn write, bit flip, schema drift) is
/// **atomically evicted** — `remove_file` then treated as a plain miss —
/// and counted as `sweep.cache.corrupt_evicted`; corruption can cost a
/// re-execution but never poison a result.
#[allow(clippy::too_many_arguments)]
fn cached_exec(
    cache_dir: Option<&Path>,
    key: (u64, u64),
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    records: &[etpp_trace::TraceRecord],
    escalate: bool,
    tear: Option<u64>,
    deadline: Option<Deadline>,
    counters: &SweepCounters,
) -> (CellData, bool) {
    debug_assert_eq!(key.1, cell_config_hash(cfg, mode, escalate));
    let path = cache_dir.map(|d| cell_cache_path(d, key.0, key.1));
    if let Some(p) = &path {
        // Unreadable (ENOENT, EACCES...) is just a miss; readable but
        // not a valid record is corruption.
        if let Ok(raw) = fs::read(p) {
            if let Some(d) = CellData::from_record(&raw) {
                counters.hits.fetch_add(1, Ordering::Relaxed);
                return (d, true);
            }
            counters.corrupt_evicted.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(p);
            eprintln!("[sweep] evicted corrupt cache entry {}", p.display());
        }
    }
    let d = exec_cell(cfg, mode, wl, records, escalate, deadline);
    counters.misses.fetch_add(1, Ordering::Relaxed);
    if d.path == CellPath::Cycle {
        counters.escalated.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(p) = &path {
        if let Err(e) = store_cell(p, &d, tear) {
            eprintln!("[sweep] could not cache {}: {e}", p.display());
        }
    }
    (d, false)
}

/// Replay-first cell execution with per-cell escalation: replay unless
/// the stream-level gate already escalated; fall back to the cycle
/// core when replay is impossible for the mode or corrupts the image.
/// `deadline` (the attempt's watchdog) is threaded into whichever loop
/// actually runs; both paths poll it at visit granularity only, so
/// armed results stay bit-identical to unarmed ones. Runs on the
/// same [`SystemConfig::effective_for`] projection the cache key hashes.
fn exec_cell(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    records: &[etpp_trace::TraceRecord],
    escalate: bool,
    deadline: Option<Deadline>,
) -> CellData {
    let cfg = &cfg.effective_for(mode);
    if !escalate {
        if let Ok(r) = replay_run_watched(cfg, mode, wl, records, deadline) {
            if r.validated {
                return CellData {
                    path: CellPath::Replay,
                    cycles: r.cycles,
                    host_iters: r.host_iters,
                    dep_stalls: r.dep_stalls,
                    validated: true,
                };
            }
        }
    }
    match run_watched(cfg, mode, wl, deadline) {
        Ok(r) => CellData {
            path: CellPath::Cycle,
            cycles: r.cycles,
            host_iters: r.host_iters,
            dep_stalls: 0,
            validated: r.validated,
        },
        Err(_) => CellData {
            path: CellPath::Skip,
            cycles: 0,
            host_iters: 0,
            dep_stalls: 0,
            validated: true,
        },
    }
}

/// [`map_indexed`] over `phases[0]` and then, once every one of those
/// has returned, over `phases[1]`; `f` receives the phase's elements and
/// the results come back in ascending element order.
fn map_in_phases<R: Send>(
    jobs: usize,
    phases: [&[usize]; 2],
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let mut out: Vec<(usize, R)> = Vec::new();
    for phase in phases {
        let results = map_indexed(jobs, phase.len(), |i| f(phase[i]));
        out.extend(phase.iter().copied().zip(results));
    }
    out.sort_by_key(|&(j, _)| j);
    out.into_iter().map(|(_, r)| r).collect()
}

#[derive(Default)]
struct SweepCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    escalated: AtomicU64,
    corrupt_evicted: AtomicU64,
    attempts: Attempts,
    quarantined: AtomicU64,
    journal_hits: AtomicU64,
    timeouts: AtomicU64,
}

// ---------------------------------------------------------------------------
// Progress-journal entries (checkpoint–resume)
// ---------------------------------------------------------------------------

impl ShardRun {
    /// The identity a shard's files open with; merges and resumes refuse
    /// to mix sweeps, scales, trace formats or shard universes.
    fn write_header(&self, w: &mut RowWriter<'_>) {
        w.raw("schema", SWEEP_SCHEMA_VERSION)
            .str("sweep", self.sweep)
            .str("scale", &self.scale)
            .raw("trace_format", self.trace_format)
            .raw("shard", self.shard.0)
            .raw("of", self.shard.1)
            .raw("total_jobs", self.total_jobs);
    }

    /// The journal's line-0 header: the shard identity plus the gate
    /// bits and trace content hashes. Resume discards a journal whose
    /// header differs — progress from a different sweep, scale, or trace
    /// corpus must never be donated. Deliberately excludes the fault
    /// plan: a run killed *by* an injected fault resumes under a clean
    /// plan against the same journal.
    fn journal_header(&self, captures: &[KeyedCapture]) -> String {
        let hashes: Vec<String> = captures
            .iter()
            .map(|c| format!("{:016x}", c.content_hash))
            .collect();
        row(|w| {
            w.str("kind", "header");
            self.write_header(w);
            w.raw(
                "gate_bits",
                format_args!("\"{:016x}\"", DEFAULT_AGREEMENT_GATE.to_bits()),
            )
            .str("traces", &hashes.join(","));
        })
    }
}

/// One journal entry: `kind`, the finished job's own row fields, and —
/// when the job was quarantined — its failure row nested under
/// `"failure"`, so resume reconstructs exactly the record the first run
/// reported.
fn journal_entry(
    kind: &str,
    fields: impl FnOnce(&mut RowWriter<'_>),
    failure: Option<&FailureRecord>,
) -> String {
    row(|w| {
        w.str("kind", kind);
        fields(w);
        if let Some(f) = failure {
            w.nested("failure", |n| f.write(n));
        }
    })
}

/// Journal entries that survived the seal check, indexed for resume:
/// cells by flat job index, baselines by workload name. An entry whose
/// row does not read back whole is dropped (its job simply re-runs).
#[derive(Default)]
struct Resumed {
    cells: HashMap<usize, (CellData, Option<FailureRecord>)>,
    baselines: HashMap<String, (WorkloadBaseline, Option<FailureRecord>)>,
}

impl Resumed {
    fn index(&mut self, entry: &str) -> Option<()> {
        let row = Row::parse(entry)?;
        let failure = match row.nested("failure") {
            Ok(raw) => Some(FailureRecord::read(&Row::parse(raw)?).ok()?),
            Err(_) => None,
        };
        match &*row.str("kind").ok()? {
            "cell" => {
                let cell = (CellData::read(&row).ok()?, failure);
                self.cells.insert(row.get("index").ok()?, cell);
            }
            "baseline" => {
                let b = WorkloadBaseline::read(&row).ok()?;
                self.baselines.insert(b.workload.clone(), (b, failure));
            }
            _ => {}
        }
        Some(())
    }
}

/// Runs one shard of `spec` over `workloads` (with `captures[i]` the
/// keyed trace of `workloads[i]`) and returns its cells, baselines and
/// cache counters. Deterministic: the cells of a given flat index are
/// identical for every (jobs, shard) split, which is what makes
/// [`merge_shards`]' output byte-identical.
///
/// Fail-soft: every baseline and cell runs panic-isolated under
/// `opts.retry` — a job that exhausts its budget is quarantined into
/// [`ShardRun::failures`] (and a `FAILED` cell row) while the rest of
/// the grid completes; a failed *baseline* escalates its workload's
/// cells to the cycle core with the capture run as denominator rather
/// than aborting the shard. With `opts.journal` set, completed jobs are
/// checkpointed (fsync'd per entry) and `opts.resume` replays them
/// from the journal instead of re-executing.
pub fn run_sweep(
    spec: &SweepSpec,
    workloads: &[BuiltWorkload],
    captures: &[KeyedCapture],
    opts: &SweepOptions,
) -> ShardRun {
    assert_eq!(workloads.len(), captures.len());
    let (k, n) = opts.shard;
    let total = spec.total_jobs(workloads.len());
    let my_jobs = shard_indices(total, k, n);
    // The shard's identity is known before any job runs (the journal
    // header needs it); its rows are filled in at the end.
    let run = ShardRun {
        sweep: spec.name,
        scale: opts.scale_label.clone(),
        trace_format: etpp_trace::FORMAT_VERSION,
        shard: (k, n),
        total_jobs: total,
        baselines: Vec::new(),
        cells: Vec::new(),
        failures: Vec::new(),
        registry: Registry::new(),
    };
    let counters = SweepCounters::default();
    let cache_dir = opts.cache_dir.as_deref();
    let baseline_hash = |escalate| cell_config_hash(&spec.base, PrefetchMode::None, escalate);
    let plan = opts.faults.as_ref();
    let completed = AtomicU64::new(0);

    // Checkpoint–resume: open (or start) the progress journal and
    // index whatever completed entries survive its integrity checks.
    let mut resumed = Resumed::default();
    let journal: Option<Mutex<Journal>> = opts.journal.as_ref().and_then(|path| {
        let header = run.journal_header(captures);
        let opened = if opts.resume {
            Journal::resume(path, &header).map(|(j, entries)| {
                for e in &entries {
                    let _ = resumed.index(e);
                }
                j
            })
        } else {
            Journal::create(path, &header)
        };
        match opened {
            Ok(j) => Some(Mutex::new(j)),
            Err(e) => {
                eprintln!("[sweep] journal disabled ({}: {e})", path.display());
                None
            }
        }
    });
    let append = |payload: String| {
        if let Some(j) = &journal {
            if let Ok(mut g) = j.lock() {
                if let Err(e) = g.append(&payload) {
                    eprintln!("[sweep] journal append failed: {e}");
                }
            }
        }
    };

    // Baselines first, for every workload this shard touches: the
    // no-prefetch replay whose agreement against the capture run's
    // cycle count decides escalation, and whose cycles denominate
    // every speedup. Baselines are cells too — same cache, same keys —
    // so across shards only the first process pays for each.
    let used: Vec<usize> = {
        let cpw = spec.cells_per_workload().max(1);
        let mut seen = vec![false; workloads.len()];
        for &j in &my_jobs {
            seen[j / cpw] = true;
        }
        (0..workloads.len()).filter(|&i| seen[i]).collect()
    };
    // Baselines run unbudgeted — they are the yardstick the cell
    // budget is derived from — but their wall time is measured so the
    // auto budget is a deterministic multiple of *this shard's* real
    // cost, not a guessed constant.
    let baseline_wall_us = AtomicU64::new(0);
    let baselines_used: Vec<(WorkloadBaseline, Option<FailureRecord>)> =
        map_indexed(opts.jobs, used.len(), |ui| {
            let wi = used[ui];
            let (wl, cap) = (&workloads[wi], &captures[wi]);
            let capture_cycles = cap.trace.meta.capture_cycles;
            if let Some((b, failure)) = resumed.baselines.get(wl.name) {
                counters.journal_hits.fetch_add(1, Ordering::Relaxed);
                return (b.clone(), failure.clone());
            }
            let exec = |escalate: bool| {
                cached_exec(
                    cache_dir,
                    (cap.content_hash, baseline_hash(escalate)),
                    &spec.base,
                    PrefetchMode::None,
                    wl,
                    &cap.trace.records,
                    escalate,
                    None,
                    None,
                    &counters,
                )
                .0
            };
            let wall_start = Instant::now();
            let computed = run_isolated(&opts.retry, wi, &counters.attempts, |attempt| {
                if let Some(p) = plan {
                    p.maybe_panic_baseline(wi, attempt);
                }
                let base = exec(false);
                let agreement = (base.path == CellPath::Replay && capture_cycles > 0)
                    .then(|| base.cycles as f64 / capture_cycles as f64);
                let escalate = match (base.path, agreement) {
                    // The stream replayed fine: trust it iff it agrees.
                    (CellPath::Replay, Some(a)) => (a - 1.0).abs() > DEFAULT_AGREEMENT_GATE,
                    // No recorded reference: trust replay — there is
                    // nothing to disagree with, and escalating everything
                    // would defeat the farm. Orderings remain valid;
                    // absolutes are not.
                    (CellPath::Replay, None) => false,
                    // The baseline replay itself failed: the stream is
                    // broken for this config, run everything on the cycle
                    // core.
                    _ => true,
                };
                let reference_cycles = if !escalate {
                    base.cycles
                } else if capture_cycles > 0 {
                    capture_cycles
                } else {
                    // Escalated with no recorded reference: measure the
                    // cycle baseline, cached like any other escalated cell.
                    exec(true).cycles
                };
                WorkloadBaseline {
                    workload: wl.name.to_string(),
                    replay_cycles: base.cycles,
                    capture_cycles,
                    agreement,
                    escalate,
                    reference_cycles,
                }
            });
            baseline_wall_us.fetch_max(
                u64::try_from(wall_start.elapsed().as_micros()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
            let (b, failure) = match computed {
                Ok(b) => (b, None),
                Err(fail) => {
                    // Structured degradation instead of aborting the
                    // shard: the workload's cells escalate to the cycle
                    // core with the capture run as denominator.
                    counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "[sweep] baseline for {} quarantined after {} attempts ({}); \
                         its cells escalate to the cycle core",
                        wl.name, fail.attempts, fail.error
                    );
                    let b = WorkloadBaseline {
                        workload: wl.name.to_string(),
                        replay_cycles: 0,
                        capture_cycles,
                        agreement: None,
                        escalate: true,
                        reference_cycles: capture_cycles,
                    };
                    let settings = "-".to_string();
                    let key = baseline_hash(false);
                    let rec = FailureRecord::of(fail, None, wl.name, "baseline", settings, key);
                    (b, Some(rec))
                }
            };
            append(journal_entry("baseline", |w| b.write(w), failure.as_ref()));
            (b, failure)
        });
    let mut baselines: Vec<Option<&WorkloadBaseline>> = vec![None; workloads.len()];
    for (ui, &wi) in used.iter().enumerate() {
        baselines[wi] = Some(&baselines_used[ui].0);
    }

    // Per-cell wall-clock budget: explicit beats auto, zero disarms.
    // The auto budget is a deterministic multiple of the slowest
    // measured baseline (floored for cache-warm/resumed shards whose
    // baselines cost ~nothing to "run").
    let cell_budget: Option<Duration> = match opts.cell_budget {
        Some(d) if d.is_zero() => None,
        Some(d) => Some(d),
        None => {
            let slowest = Duration::from_micros(baseline_wall_us.load(Ordering::Relaxed));
            Some((slowest * DEFAULT_BUDGET_MULTIPLE).max(MIN_CELL_BUDGET))
        }
    };

    // Key every job by the config its mode can read — the result-cache
    // key — and schedule one representative per distinct key ahead of
    // everyone else: over a cache dir a follower then hits the entry
    // its representative wrote, so parallel workers never race to
    // simulate one key and the hit/miss split does not depend on
    // `jobs`. Journal-resumed jobs execute nothing, so they represent
    // nothing.
    let keys: Vec<(u64, u64)> = map_indexed(opts.jobs, my_jobs.len(), |j| {
        let (wi, mi, value_idx) = spec.decode(my_jobs[j]);
        let escalate = baselines[wi].is_some_and(|b| b.escalate);
        let cfg = spec.config_for(&value_idx);
        (
            captures[wi].content_hash,
            cell_config_hash(&cfg, spec.modes[mi], escalate),
        )
    });
    let (mut distinct, mut claimed) = (HashSet::new(), HashSet::new());
    let (representatives, followers): (Vec<usize>, Vec<usize>) =
        (0..my_jobs.len()).partition(|&j| {
            distinct.insert(keys[j]);
            !resumed.cells.contains_key(&my_jobs[j]) && claimed.insert(keys[j])
        });

    let cell_outcomes: Vec<(CellResult, Option<FailureRecord>)> =
        map_in_phases(opts.jobs, [&representatives, &followers], |j| {
            let job = my_jobs[j];
            let (wi, mi, value_idx) = spec.decode(job);
            let mode = spec.modes[mi];
            let cfg = spec.config_for(&value_idx);
            let (wl, cap) = (&workloads[wi], &captures[wi]);
            // Every job — resumed, cached, simulated or quarantined —
            // becomes a row through this one assembly.
            let assemble = |d: CellData, cached: bool| CellResult {
                index: job,
                workload: wl.name,
                mode,
                settings: spec.settings_for(&value_idx),
                path: d.path,
                cycles: d.cycles,
                host_iters: d.host_iters,
                dep_stalls: d.dep_stalls,
                validated: d.validated,
                speedup: baselines[wi]
                    .map(|bl| bl.reference_cycles)
                    .filter(|&r| r > 0 && !matches!(d.path, CellPath::Skip | CellPath::Failed))
                    .map(|r| r as f64 / d.cycles.max(1) as f64),
                cached,
            };
            if let Some((d, failure)) = resumed.cells.get(&job) {
                counters.journal_hits.fetch_add(1, Ordering::Relaxed);
                return (assemble(*d, false), failure.clone());
            }
            let outcome = match baselines[wi] {
                // Structured replacement for the old "baseline computed
                // for every used workload" panic: an internally missing
                // baseline quarantines this one cell, not the shard.
                None => Err(JobFailure {
                    index: job,
                    attempts: 0,
                    class: FailureClass::Panic,
                    error: format!("internal: no baseline for workload {}", wl.name),
                }),
                Some(bl) => run_isolated_budgeted(
                    &opts.retry,
                    job,
                    &counters.attempts,
                    cell_budget,
                    |attempt, deadline| {
                        if let Some(p) = plan {
                            p.maybe_slow(job);
                            p.maybe_hang(job, deadline);
                            p.maybe_panic(job, attempt);
                        }
                        cached_exec(
                            cache_dir,
                            keys[j],
                            &cfg,
                            mode,
                            wl,
                            &cap.trace.records,
                            bl.escalate,
                            plan.and_then(|p| p.tear_at(job)),
                            deadline,
                            &counters,
                        )
                    },
                ),
            };
            let (d, hit, failure) = match outcome {
                Ok((d, hit)) => (d, hit, None),
                Err(fail) => {
                    counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    if fail.class == FailureClass::Timeout {
                        counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    let settings = settings_string(&spec.settings_for(&value_idx));
                    let rec = FailureRecord::of(
                        fail,
                        Some(job),
                        wl.name,
                        mode.key(),
                        settings,
                        keys[j].1,
                    );
                    (CellData::FAILED, false, Some(rec))
                }
            };
            let fields = |w: &mut RowWriter<'_>| {
                w.raw("index", job);
                d.write(w);
            };
            append(journal_entry("cell", fields, failure.as_ref()));
            if let Some(p) = plan {
                p.maybe_kill(completed.fetch_add(1, Ordering::Relaxed) + 1);
            }
            (assemble(d, hit), failure)
        });
    let (cells, cell_failures): (Vec<CellResult>, Vec<Option<FailureRecord>>) =
        cell_outcomes.into_iter().unzip();
    let mut failures: Vec<FailureRecord> = baselines_used
        .iter()
        .filter_map(|(_, f)| f.clone())
        .chain(cell_failures.into_iter().flatten())
        .collect();
    failures.sort_by(failure_order);

    let mut registry = Registry::new();
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    for (name, value) in [
        ("sweep.cache.hit", count(&counters.hits)),
        ("sweep.cache.miss", count(&counters.misses)),
        ("sweep.cells.distinct", distinct.len() as u64),
        ("sweep.cache.escalated", count(&counters.escalated)),
        (
            "sweep.cache.corrupt_evicted",
            count(&counters.corrupt_evicted),
        ),
        ("sweep.retry", count(&counters.attempts.retries)),
        ("sweep.quarantined", count(&counters.quarantined)),
        ("sweep.journal.hit", count(&counters.journal_hits)),
        ("sweep.timeout", count(&counters.timeouts)),
        (
            "trace.decode_errors",
            captures
                .iter()
                .filter(|c| c.source == CaptureSource::Recaptured)
                .count() as u64,
        ),
        (
            "driver.livelock_aborts",
            count(&counters.attempts.livelocks),
        ),
    ] {
        registry.set_counter(name, value);
    }
    ShardRun {
        baselines: baselines_used.into_iter().map(|(b, _)| b).collect(),
        cells,
        failures,
        registry,
        ..run
    }
}

// ---------------------------------------------------------------------------
// Shard files: serialisation, parsing, merging, rendering
// ---------------------------------------------------------------------------

/// Deterministic quarantine order: baseline failures first (`None`
/// sorts before `Some`), then ascending by flat index.
fn failure_order(a: &FailureRecord, b: &FailureRecord) -> std::cmp::Ordering {
    fn key(f: &FailureRecord) -> (Option<usize>, &str, &str, &str) {
        (f.index, &f.workload, &f.mode, &f.settings)
    }
    key(a).cmp(&key(b))
}

impl ShardRun {
    /// Serialises the shard for cross-process merging: the header row,
    /// then the baseline, cell and failure rows, one per line (what
    /// keeps [`parse_shard`] a single forward pass).
    pub fn to_json(&self) -> String {
        let mut j = String::with_capacity(320 * (self.cells.len() + 4));
        j.push_str("{\n  \"header\": ");
        let mut w = RowWriter::open(&mut j);
        self.write_header(&mut w);
        w.close();
        j.push_str(",\n  \"baselines\": ");
        write_rows(&mut j, "  ", &self.baselines, |w, b| b.write(w));
        j.push_str(",\n  \"cells\": ");
        write_rows(&mut j, "  ", &self.cells, |w, c| {
            w.raw("index", c.index)
                .str("workload", c.workload)
                .str("mode", c.mode.key())
                .str("settings", &settings_string(&c.settings));
            c.data().write(w);
            match c.speedup {
                Some(s) => w.raw("speedup", format_args!("{s:.4}")),
                None => w.raw("speedup", "null"),
            }
            .str("cache", if c.cached { "hit" } else { "miss" });
        });
        j.push_str(",\n  \"failures\": ");
        write_rows(&mut j, "  ", &self.failures, |w, f| f.write(w));
        j.push_str("\n}\n");
        j
    }
}

/// A parsed shard-file cell row.
#[derive(Debug, Clone)]
pub struct ParsedCell {
    /// Flat job index.
    pub index: usize,
    /// Benchmark name.
    pub workload: String,
    /// Mode key (see [`PrefetchMode::key`]).
    pub mode: String,
    /// Canonical settings string.
    pub settings: String,
    /// Execution path (`replay`/`cycle`/`skip`/`failed`).
    pub path: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Speedup over the workload baseline.
    pub speedup: Option<f64>,
    /// Validation outcome.
    pub validated: bool,
}

impl ParsedCell {
    fn read(row: &Row<'_>) -> Result<ParsedCell, String> {
        let d = CellData::read(row)?;
        Ok(ParsedCell {
            index: row.get("index")?,
            workload: row.str("workload")?.into_owned(),
            mode: row.str("mode")?.into_owned(),
            settings: row.str("settings")?.into_owned(),
            path: d.path.as_str().to_string(),
            cycles: d.cycles,
            speedup: row.get("speedup").ok(),
            validated: d.validated,
        })
    }
}

/// A parsed shard file — or several merged into the one an unsharded
/// run writes ([`merge_shards`]).
#[derive(Debug)]
pub struct ShardFile {
    /// Sweep name.
    pub sweep: String,
    /// Scale label.
    pub scale: String,
    /// Trace format.
    pub trace_format: u16,
    /// Shard index.
    pub shard: usize,
    /// Shard count.
    pub of: usize,
    /// Full-sweep job count.
    pub total_jobs: usize,
    /// Baselines this shard recorded.
    pub baselines: Vec<WorkloadBaseline>,
    /// Cells this shard ran.
    pub cells: Vec<ParsedCell>,
    /// Jobs this shard quarantined.
    pub failures: Vec<FailureRecord>,
}

/// Parses one shard file written by [`ShardRun::to_json`].
///
/// # Errors
/// A human-readable message naming the section and the missing or
/// malformed field.
pub fn parse_shard(json: &str) -> Result<ShardFile, String> {
    let mut file: Option<ShardFile> = None;
    let mut section = "";
    for line in json.lines() {
        let t = line.trim();
        if let Some(name) = t.strip_prefix('"').and_then(|t| t.strip_suffix("\": [")) {
            section = name;
        } else if let Some(header) = t.strip_prefix("\"header\": ") {
            let row = Row::parse(header).ok_or("malformed header row")?;
            let schema: u32 = row.get("schema")?;
            if schema != SWEEP_SCHEMA_VERSION {
                return Err(format!(
                    "shard schema {schema} != supported {SWEEP_SCHEMA_VERSION}"
                ));
            }
            file = Some(ShardFile {
                sweep: row.str("sweep")?.into_owned(),
                scale: row.str("scale")?.into_owned(),
                trace_format: row.get("trace_format")?,
                shard: row.get("shard")?,
                of: row.get("of")?,
                total_jobs: row.get("total_jobs")?,
                baselines: Vec::new(),
                cells: Vec::new(),
                failures: Vec::new(),
            });
        } else if t.len() > 1 && t.starts_with('{') {
            let file = file.as_mut().ok_or("row before the shard header")?;
            let row = Row::parse(t).ok_or_else(|| format!("malformed {section} row: {t}"))?;
            let named = |e| format!("{section} row: {e}");
            match section {
                "baselines" => file
                    .baselines
                    .push(WorkloadBaseline::read(&row).map_err(named)?),
                "cells" => file.cells.push(ParsedCell::read(&row).map_err(named)?),
                "failures" => file
                    .failures
                    .push(FailureRecord::read(&row).map_err(named)?),
                other => return Err(format!("row in unknown section {other:?}")),
            }
        }
    }
    file.ok_or_else(|| "not a shard file: no header row".to_string())
}

/// The files one shard of a sweep leaves in its `--sweep-dir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFile {
    /// `shard-K-of-N.json`: [`ShardRun::to_json`].
    Shard,
    /// `failures-K-of-N.json`: [`crate::faults::failures_json`].
    Failures,
    /// `journal-K-of-N.jsonl`: the progress journal behind `--resume`.
    Journal,
}

impl SweepFile {
    /// Where shard `k` of `n` keeps this file inside `dir`.
    pub fn path(self, dir: &Path, (k, n): (usize, usize)) -> PathBuf {
        let (stem, ext) = match self {
            SweepFile::Shard => ("shard", "json"),
            SweepFile::Failures => ("failures", "json"),
            SweepFile::Journal => ("journal", "jsonl"),
        };
        dir.join(format!("{stem}-{k}-of-{n}.{ext}"))
    }
}

/// Reads every shard file (`shard-*.json`, and only those — the
/// failures files and journals beside them are not shards) of a sweep
/// directory, in name order.
///
/// # Errors
/// An unreadable directory or file, a directory without shard files, or
/// a shard that does not parse — each naming the path.
pub fn read_shard_dir(dir: &Path) -> Result<Vec<ShardFile>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no shard-*.json files in {}", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let body = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_shard(&body).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Merges a set of shard files into one coverage-checked sweep: the
/// file an unsharded run would have written (shard 0 of 1) — baselines
/// deduped and sorted by workload name, cells exactly `0..total_jobs`
/// ascending, quarantines deduped with baseline failures first.
///
/// # Errors
/// * inconsistent headers (different sweep/scale/format/total/shard
///   count), duplicate shard ids;
/// * **coverage gaps**: any flat index in `0..total_jobs` not present
///   exactly once (the error lists the missing indices — this is the
///   check the nightly merge job fails on);
/// * baselines recorded differently by two shards (stale-cache mixing).
pub fn merge_shards(files: &[ShardFile]) -> Result<ShardFile, String> {
    let first = files.first().ok_or("no shard files to merge")?;
    let mut seen_shards = Vec::new();
    for f in files {
        if (
            f.sweep.as_str(),
            f.scale.as_str(),
            f.trace_format,
            f.total_jobs,
            f.of,
        ) != (
            first.sweep.as_str(),
            first.scale.as_str(),
            first.trace_format,
            first.total_jobs,
            first.of,
        ) {
            return Err(format!(
                "shard {}/{} ({} @ {}) does not match shard {}/{} ({} @ {})",
                f.shard, f.of, f.sweep, f.scale, first.shard, first.of, first.sweep, first.scale
            ));
        }
        if f.shard >= f.of {
            return Err(format!("shard index {} out of range for {}", f.shard, f.of));
        }
        if seen_shards.contains(&f.shard) {
            return Err(format!("shard {} appears twice", f.shard));
        }
        seen_shards.push(f.shard);
    }

    // Coverage: every flat index exactly once.
    let total = first.total_jobs;
    let mut cells: Vec<&ParsedCell> = files.iter().flat_map(|f| &f.cells).collect();
    cells.sort_by_key(|c| c.index);
    let mut missing = Vec::new();
    let mut dup = Vec::new();
    let mut it = cells.iter().peekable();
    for want in 0..total {
        match it.peek() {
            Some(c) if c.index == want => {
                it.next();
                while matches!(it.peek(), Some(c) if c.index == want) {
                    dup.push(want);
                    it.next();
                }
            }
            _ => missing.push(want),
        }
    }
    let extra: Vec<usize> = it.map(|c| c.index).collect();
    if !missing.is_empty() || !dup.is_empty() || !extra.is_empty() {
        return Err(format!(
            "shard coverage broken: {} missing {:?}, {} duplicated {:?}, {} out of range {:?} \
             (of {total} jobs across {} shard files)",
            missing.len(),
            &missing[..missing.len().min(20)],
            dup.len(),
            &dup[..dup.len().min(20)],
            extra.len(),
            &extra[..extra.len().min(20)],
            files.len(),
        ));
    }

    // Baselines: shards sharing a workload must agree exactly (the
    // shard file carries them bit-exact) — a mismatch means shards ran
    // against different caches or configs.
    let mut by_wl: BTreeMap<&str, &WorkloadBaseline> = BTreeMap::new();
    for b in files.iter().flat_map(|f| &f.baselines) {
        if let Some(prev) = by_wl.get(b.workload.as_str()) {
            if *prev != b {
                return Err(format!(
                    "inconsistent baselines for {} across shards: {prev:?} vs {b:?}",
                    b.workload
                ));
            }
        } else {
            by_wl.insert(&b.workload, b);
        }
    }

    // Quarantines: concatenate, order deterministically, and dedup
    // exact repeats (a resumed shard reports the same quarantine as its
    // first run).
    let mut failures: Vec<FailureRecord> = files.iter().flat_map(|f| f.failures.clone()).collect();
    failures.sort_by(failure_order);
    failures.dedup();

    Ok(ShardFile {
        sweep: first.sweep.clone(),
        scale: first.scale.clone(),
        trace_format: first.trace_format,
        shard: 0,
        of: 1,
        total_jobs: total,
        baselines: by_wl.into_values().cloned().collect(),
        cells: cells.into_iter().cloned().collect(),
        failures,
    })
}

fn mode_label_for_key(key: &str) -> String {
    PrefetchMode::from_key(key).map_or_else(|| key.to_string(), |m| m.label().to_string())
}

/// Renders the merged sweep as Markdown tables. Deliberately contains
/// **only deterministic simulation data** — no cache status, no wall
/// times — so the output is byte-identical for any (jobs, shard-count)
/// split of the same sweep (pinned by `tests/sweep_farm.rs`).
pub fn render_merged(m: &ShardFile) -> String {
    let mut out = format!(
        "# Sweep: {} — scale {}, trace v{}, {} jobs\n\n",
        m.sweep,
        m.scale,
        m.trace_format,
        m.cells.len()
    );

    out += "## Stream agreement (replay baseline vs capture run)\n\n";
    out += "| Benchmark | Capture cycles | Replay cycles | Agreement | Escalated |\n";
    out += "|---|---|---|---|---|\n";
    for b in &m.baselines {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            b.workload,
            if b.capture_cycles > 0 {
                b.capture_cycles.to_string()
            } else {
                "n/a".to_string()
            },
            b.replay_cycles,
            b.agreement.map_or("n/a".to_string(), |a| format!("{a:.4}")),
            if b.escalate { "yes" } else { "no" }
        );
    }
    out += "\n## Cells\n\n";
    out += "| # | Benchmark | Mode | Settings | Path | Cycles | Speedup | OK |\n";
    out += "|---|---|---|---|---|---|---|---|\n";
    for c in &m.cells {
        let failed = c.path == "failed";
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            c.index,
            c.workload,
            mode_label_for_key(&c.mode),
            c.settings,
            c.path,
            if failed {
                "-".to_string()
            } else {
                c.cycles.to_string()
            },
            c.speedup.map_or("-".to_string(), |s| format!("{s:.4}")),
            if failed {
                "FAILED"
            } else if c.validated {
                "yes"
            } else {
                "NO"
            }
        );
    }

    if !m.failures.is_empty() {
        out += "\n## Quarantined cells\n\n";
        out += "| # | Benchmark | Mode | Settings | Class | Attempts | Error |\n";
        out += "|---|---|---|---|---|---|---|\n";
        for f in &m.failures {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                f.index.map_or("-".to_string(), |i| i.to_string()),
                f.workload,
                mode_label_for_key(&f.mode),
                f.settings,
                f.class,
                f.attempts,
                // The text is the panic message, byte for byte: keep it
                // inside its table cell.
                f.error.replace('|', "/").replace('\n', " ")
            );
        }
    }

    out += "\n## Summary (per workload × mode)\n\n";
    out += "| Benchmark | Mode | Cells | Geomean | Best | Best settings |\n";
    out += "|---|---|---|---|---|---|\n";
    // First-appearance order over index-sorted cells: deterministic.
    let mut groups: Vec<(String, String)> = Vec::new();
    for c in &m.cells {
        let g = (c.workload.clone(), c.mode.clone());
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    for (wl, mode) in &groups {
        let members: Vec<&ParsedCell> = m
            .cells
            .iter()
            .filter(|c| &c.workload == wl && &c.mode == mode)
            .collect();
        let speedups: Vec<f64> = members.iter().filter_map(|c| c.speedup).collect();
        let geomean = if speedups.is_empty() {
            0.0
        } else {
            (speedups.iter().map(|v| v.ln()).sum::<f64>() / speedups.len() as f64).exp()
        };
        let best =
            members
                .iter()
                .filter(|c| c.speedup.is_some())
                .fold(None::<&&ParsedCell>, |acc, c| match acc {
                    Some(b) if b.speedup >= c.speedup => Some(b),
                    _ => Some(c),
                });
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.4} | {} | {} |",
            wl,
            mode_label_for_key(mode),
            members.len(),
            geomean,
            best.and_then(|c| c.speedup)
                .map_or("-".to_string(), |s| format!("{s:.4}")),
            best.map_or("-".to_string(), |c| c.settings.clone()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_spec() -> SweepSpec {
        SweepSpec {
            name: "probe",
            base: SystemConfig::paper(),
            modes: vec![PrefetchMode::Stride, PrefetchMode::Manual],
            axes: vec![axes::obs_queue(&[10, 40]), axes::pf_buffer(&[8, 16, 32])],
        }
    }

    #[test]
    fn decode_addresses_every_cell_once() {
        let spec = probe_spec();
        assert_eq!(spec.cells_per_workload(), 2 * 2 * 3);
        let total = spec.total_jobs(2);
        let mut seen = std::collections::HashSet::new();
        for job in 0..total {
            let (wi, mi, vi) = spec.decode(job);
            assert!(wi < 2 && mi < 2 && vi[0] < 2 && vi[1] < 3);
            assert!(seen.insert((wi, mi, vi.clone())), "duplicate {job}");
            let cfg = spec.config_for(&vi);
            assert_eq!(cfg.pf.observation_queue as u64, spec.axes[0].values[vi[0]]);
            assert_eq!(cfg.mem.pf_buffer_entries as u64, spec.axes[1].values[vi[1]]);
        }
        assert_eq!(seen.len(), total);
        // Last axis fastest: consecutive jobs differ in pf_buffer first.
        let (_, _, v0) = spec.decode(0);
        let (_, _, v1) = spec.decode(1);
        assert_eq!(v0[0], v1[0]);
        assert_ne!(v0[1], v1[1]);
    }

    #[test]
    fn config_hash_separates_cells() {
        let spec = probe_spec();
        let key =
            |vi: &[usize], mode, escalate| cell_config_hash(&spec.config_for(vi), mode, escalate);
        let a = key(&[0, 0], PrefetchMode::Manual, false);
        assert_ne!(a, key(&[1, 0], PrefetchMode::Manual, false), "pf axis");
        assert_ne!(a, key(&[0, 1], PrefetchMode::Manual, false), "mem axis");
        assert_ne!(a, key(&[0, 0], PrefetchMode::Stride, false), "mode");
        assert_ne!(a, key(&[0, 0], PrefetchMode::Manual, true), "escalation");
        // Same config via different construction shares the entry.
        assert_eq!(a, key(&[0, 0], PrefetchMode::Manual, false));
        // A fixed-function engine cannot read `cfg.pf`, so a pf axis
        // must not split its key — while `pf_buffer` (cfg.mem) still does.
        let s = key(&[0, 0], PrefetchMode::Stride, false);
        assert_eq!(s, key(&[1, 0], PrefetchMode::Stride, false), "pf axis");
        assert_ne!(s, key(&[0, 1], PrefetchMode::Stride, false), "mem axis");
    }

    #[test]
    fn cell_data_round_trips_through_cache_record() {
        let d = CellData {
            path: CellPath::Replay,
            cycles: 123_456,
            host_iters: 789,
            dep_stalls: 42,
            validated: true,
        };
        let record = d.to_record();
        assert!(
            record.starts_with("{\"path\": \"replay\", \"cycles\": 123456, "),
            "{record}"
        );
        assert_eq!(CellData::from_record(record.as_bytes()), Some(d));
        // Counts above 2^53 survive: integers never pass through f64.
        let big = CellData {
            cycles: u64::MAX,
            ..d
        };
        assert_eq!(CellData::from_record(big.to_record().as_bytes()), Some(big));
        // A schema bump orphans the record by file name: the version is
        // part of every path (and of the config hash), so a reader never
        // opens another schema's entry.
        assert_eq!(SWEEP_SCHEMA_VERSION, 3);
        let path = cell_cache_path(Path::new("cache"), 0xaa, 0xbb);
        assert_eq!(
            path,
            Path::new("cache/00000000000000aa-00000000000000bb-s3.json")
        );
    }

    #[test]
    fn cell_record_trailer_rejects_corruption() {
        let d = CellData::FAILED;
        let record = d.to_record();
        assert_eq!(CellData::from_record(record.as_bytes()), Some(d));
        // Torn write: any truncation invalidates the frame.
        for cut in 0..record.len() {
            assert_eq!(
                CellData::from_record(&record.as_bytes()[..cut]),
                None,
                "cut at {cut}"
            );
        }
        // A flipped byte in the body breaks the content hash.
        let flipped = record.replacen("cycles", "cycIes", 1);
        assert_eq!(CellData::from_record(flipped.as_bytes()), None);
        // A correctly sealed row that is not a whole cell payload is
        // schema drift, as is an unknown path.
        let drifted = seal("{\"path\": \"replay\", \"cycles\": 1}");
        assert_eq!(CellData::from_record(drifted.as_bytes()), None);
        let unknown = seal(&row(|w| d.write(w)).replace("failed", "warp"));
        assert_eq!(CellData::from_record(unknown.as_bytes()), None);
        // Not a record, a second record appended, invalid UTF-8.
        assert_eq!(CellData::from_record(b"not a record at all"), None);
        assert_eq!(
            CellData::from_record(format!("{record}{record}").as_bytes()),
            None
        );
        assert_eq!(CellData::from_record(b"\xff\xfe|0\n"), None);
    }

    #[test]
    fn merge_rejects_coverage_gaps_and_mismatches() {
        let cell = |index: usize| ParsedCell {
            index,
            workload: "W".into(),
            mode: "manual".into(),
            settings: "-".into(),
            path: "replay".into(),
            cycles: 1,
            speedup: Some(1.0),
            validated: true,
        };
        let file = |shard: usize, of: usize, idx: &[usize]| ShardFile {
            sweep: "s".into(),
            scale: "tiny".into(),
            trace_format: 2,
            shard,
            of,
            total_jobs: 4,
            baselines: vec![],
            cells: idx.iter().map(|&i| cell(i)).collect(),
            failures: vec![],
        };
        // Complete 2-shard split merges.
        let ok = merge_shards(&[file(0, 2, &[0, 2]), file(1, 2, &[1, 3])]).unwrap();
        assert_eq!(ok.cells.len(), 4);
        // A missing shard is a coverage error naming the gap.
        let err = merge_shards(&[file(0, 2, &[0, 2])]).unwrap_err();
        assert!(err.contains("missing [1, 3]"), "{err}");
        // Duplicate indices are rejected.
        let err = merge_shards(&[file(0, 2, &[0, 1, 2]), file(1, 2, &[1, 3])]).unwrap_err();
        assert!(err.contains("duplicated"), "{err}");
        // Mixed shard universes are rejected.
        let err = merge_shards(&[file(0, 2, &[0, 2]), file(0, 4, &[1, 3])]).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    /// Error text the old scanners truncated at the first `"`.
    const NASTY: &str =
        "called `Result::unwrap()` on an `Err` value: \"boom\" C:\\tmp | line1\nline2\tß→✓";

    fn nasty_failure() -> FailureRecord {
        FailureRecord {
            index: Some(2),
            workload: "IntSort".into(),
            mode: "stride".into(),
            settings: "obs_queue=10 pf_buffer=64".into(),
            config_hash: 0xabcd,
            class: FailureClass::Timeout,
            attempts: 3,
            error: NASTY.into(),
        }
    }

    #[test]
    fn shard_json_round_trips() {
        let baseline = WorkloadBaseline {
            workload: "IntSort".into(),
            replay_cycles: 1000,
            capture_cycles: 1100,
            agreement: Some(1000.0 / 1100.0),
            escalate: false,
            reference_cycles: 1000,
        };
        let run = ShardRun {
            sweep: "probe",
            scale: "tiny".into(),
            trace_format: 2,
            shard: (1, 4),
            total_jobs: 24,
            baselines: vec![baseline.clone()],
            cells: vec![CellResult {
                index: 1,
                workload: "IntSort",
                mode: PrefetchMode::Manual,
                settings: vec![("obs_queue", 10), ("pf_buffer", 16)],
                path: CellPath::Replay,
                cycles: 500,
                host_iters: 10,
                dep_stalls: 2,
                validated: true,
                speedup: Some(2.0),
                cached: false,
            }],
            failures: vec![nasty_failure()],
            registry: Registry::new(),
        };
        let json = run.to_json();
        // One row per line, `"key": value` spacing (CI greps rely on it).
        assert!(json.contains("\n    {\"index\": 1, \"workload\": \"IntSort\", "));
        assert!(json.contains("\"speedup\": 2.0000, \"cache\": \"miss\"}"));
        let f = parse_shard(&json).unwrap();
        assert_eq!(f.sweep, "probe");
        assert_eq!(f.scale, "tiny");
        assert_eq!(f.trace_format, 2);
        assert_eq!((f.shard, f.of, f.total_jobs), (1, 4, 24));
        // Baselines come back whole and bit-exact, agreement included.
        assert_eq!(f.baselines, vec![baseline]);
        assert_eq!(f.cells.len(), 1);
        assert_eq!(f.cells[0].index, 1);
        assert_eq!(f.cells[0].workload, "IntSort");
        assert_eq!(f.cells[0].settings, "obs_queue=10 pf_buffer=16");
        assert_eq!(f.cells[0].mode, "manual");
        assert_eq!(f.cells[0].path, "replay");
        assert_eq!(f.cells[0].cycles, 500);
        assert!(f.cells[0].validated);
        assert_eq!(f.cells[0].speedup, Some(2.0));
        // The failure row is the record itself: class, attempts, config
        // hash and the error text byte for byte.
        assert_eq!(f.failures, run.failures);
        assert_eq!(f.failures[0].error, NASTY);

        // Rendered, the multi-line error stays one table row.
        let table = render_merged(&f);
        let rows = table.lines().filter(|l| l.starts_with("| 2 |")).count();
        assert_eq!(rows, 1, "{table}");
        assert!(table.contains("\"boom\" C:\\tmp / line1 line2"), "{table}");

        // A skipped cell has no speedup; an empty shard still parses.
        let mut run = run;
        run.cells[0].speedup = None;
        run.baselines.clear();
        run.failures.clear();
        let f = parse_shard(&run.to_json()).unwrap();
        assert_eq!(f.cells[0].speedup, None);
        assert!(f.baselines.is_empty() && f.failures.is_empty());

        // Errors name what is wrong.
        let err = parse_shard(&json.replace("\"schema\": 3", "\"schema\": 2")).unwrap_err();
        assert!(err.contains("shard schema 2 != supported 3"), "{err}");
        let err = parse_shard(&json.replace("\"cycles\": 500, ", "")).unwrap_err();
        assert!(
            err.contains("cells row") && err.contains("\"cycles\""),
            "{err}"
        );
        let err = parse_shard("[\n]\n").unwrap_err();
        assert!(err.contains("no header"), "{err}");
    }

    #[test]
    fn journal_entries_round_trip_bit_exact() {
        let b = WorkloadBaseline {
            workload: "HJ-8".into(),
            replay_cycles: 12345,
            capture_cycles: 13000,
            agreement: Some(12345.0 / 13000.0),
            escalate: false,
            reference_cycles: 12345,
        };
        let mut resumed = Resumed::default();
        let entry = journal_entry("baseline", |w| b.write(w), None);
        assert!(!entry.contains('\n'), "journal entries are single lines");
        resumed.index(&entry).expect("own entry indexes");
        let (jb, failure) = &resumed.baselines["HJ-8"];
        assert_eq!(jb.replay_cycles, 12345);
        // Bit-exact, not approximate: resumed merges must stay
        // byte-identical.
        assert_eq!(
            jb.agreement.map(f64::to_bits),
            b.agreement.map(f64::to_bits)
        );
        assert_eq!(*jb, b);
        assert!(failure.is_none());
        // No reference is `null`, not a number.
        let unreferenced = WorkloadBaseline {
            agreement: None,
            ..b.clone()
        };
        resumed
            .index(&journal_entry("baseline", |w| unreferenced.write(w), None))
            .unwrap();
        assert_eq!(resumed.baselines["HJ-8"].0, unreferenced);

        let rec = FailureRecord {
            index: Some(17),
            class: FailureClass::Livelock,
            ..nasty_failure()
        };
        let cell = |w: &mut RowWriter<'_>| {
            w.raw("index", 17);
            CellData::FAILED.write(w);
        };
        let entry = journal_entry("cell", cell, Some(&rec));
        assert!(!entry.contains('\n'));
        resumed.index(&entry).unwrap();
        let (jc, failure) = &resumed.cells[&17];
        assert_eq!(*jc, CellData::FAILED);
        // The whole record comes back — class, attempts, config hash
        // and the error text byte for byte — so a resumed run reports
        // exactly the quarantine its first run did.
        assert_eq!(failure.as_ref(), Some(&rec));
        // A clean cell carries no failure.
        resumed.index(&journal_entry("cell", cell, None)).unwrap();
        assert_eq!(resumed.cells[&17], (CellData::FAILED, None));
        // Entries that do not read back whole donate nothing.
        let before = resumed.cells.len();
        for bad in [
            "not json",
            "{\"kind\": \"cell\", \"index\": 3}",
            "{\"kind\": \"cell\", \"index\": 3, \"path\": \"replay\", \"cycles\": 1, \
             \"host_iters\": 1, \"dep_stalls\": 0, \"validated\": true, \"failure\": {}}",
        ] {
            assert!(resumed.index(bad).is_none(), "{bad}");
        }
        assert_eq!(resumed.cells.len(), before);
    }
}
