//! The sweep farm: composed ablation grids, replay-first, with a
//! content-hash result cache and shardable job partitions.
//!
//! A [`SweepSpec`] expresses any cross product of [`SystemConfig`]
//! mutations ([`Axis`] values × engine [`PrefetchMode`]s × workloads) as
//! one **flat, index-addressable job list**. Every cell runs
//! **replay-first** over the workload's captured demand stream — the
//! fast path — and only *disagreeing* streams escalate to the
//! cycle-level core, gated by the per-workload `cycle_agreement` the v2
//! trace format records at capture (`TraceMeta::capture_cycles`):
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

use crate::config::{PrefetchMode, SystemConfig};
use crate::experiments::{map_indexed, shard_indices};
use crate::faults::{
    run_isolated, run_isolated_budgeted, write_atomic, FailureClass, FailureRecord, FaultPlan,
    Journal, RetryPolicy,
};
use crate::replay::{replay_params, replay_run_watched, KeyedCapture};
use crate::system::{run, run_watched};
use crate::watchdog::Watchdog;
use etpp_mem::cancel::CancelToken;
use etpp_telemetry::{json_escape, Registry};
use etpp_trace::format::{fnv1a, FNV_OFFSET};
use etpp_workloads::BuiltWorkload;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Version of the result-cache record and shard-file layout. Part of
/// every cache key and file name: bumping it orphans (never corrupts)
/// old entries. v2 added the self-integrity trailer on cache records,
/// the `failed` cell path, and the shard-file `failures` section.
pub const SWEEP_SCHEMA_VERSION: u32 = 2;

/// Default escalation gate on the stream-level absolute-cycle
/// agreement: a baseline replay within ±15% of the capture run's cycle
/// count is trusted for the whole grid (Small-scale v2 agreement is
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
    settings
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
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

/// The cached payload of one executed cell (identity lives in the file
/// name; speedups are derived at assembly from the workload baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellData {
    path: CellPath,
    cycles: u64,
    host_iters: u64,
    dep_stalls: u64,
    validated: bool,
}

/// Magic field every cache record carries; a record without it (schema
/// drift, stray file) is corrupt by definition.
const CELL_MAGIC: &str = "etpp-sweep-cell";

fn cell_data_json(d: &CellData) -> String {
    format!(
        "{{\"magic\": \"{CELL_MAGIC}\", \"schema\": {SWEEP_SCHEMA_VERSION}, \"path\": \"{}\", \
         \"cycles\": {}, \"host_iters\": {}, \"dep_stalls\": {}, \"validated\": {}}}\n",
        d.path.as_str(),
        d.cycles,
        d.host_iters,
        d.dep_stalls,
        d.validated
    )
}

fn parse_cell_data(json: &str) -> Option<CellData> {
    if field_str(json, "magic")? != CELL_MAGIC {
        return None;
    }
    if field_num(json, "schema")? as u32 != SWEEP_SCHEMA_VERSION {
        return None;
    }
    Some(CellData {
        path: CellPath::from_str(&field_str(json, "path")?)?,
        cycles: field_num(json, "cycles")? as u64,
        host_iters: field_num(json, "host_iters")? as u64,
        dep_stalls: field_num(json, "dep_stalls")? as u64,
        validated: field_bool(json, "validated")?,
    })
}

/// The full on-disk cache record: the JSON body plus a self-integrity
/// trailer (`fnv <hash16> len <bytes>`) over the body, so a torn or
/// bit-flipped record is detectable without trusting any of its bytes.
fn cell_record(d: &CellData) -> String {
    let body = cell_data_json(d);
    format!(
        "{body}fnv {:016x} len {}\n",
        fnv1a(body.as_bytes(), FNV_OFFSET),
        body.len()
    )
}

/// Validates a cache record's trailer (magic, length, content hash) and
/// parses the body. `None` means corrupt/truncated/drifted — the caller
/// evicts the entry and treats the lookup as a miss.
fn parse_cell_record(raw: &str) -> Option<CellData> {
    let trailer_at = raw.rfind("fnv ")?;
    let (body, trailer) = raw.split_at(trailer_at);
    // The trailer must byte-match what the writer would emit for this
    // body — any truncation, extension, or flip (of trailer *or* body)
    // misses.
    let expect = format!(
        "fnv {:016x} len {}\n",
        fnv1a(body.as_bytes(), FNV_OFFSET),
        body.len()
    );
    if trailer != expect {
        return None;
    }
    parse_cell_data(body)
}

fn write_cell_data(path: &Path, d: &CellData, tear: Option<u64>) -> std::io::Result<()> {
    let mut bytes = cell_record(d).into_bytes();
    if let Some(k) = tear {
        // Fault injection: a torn write — the rename still happens, so
        // the next reader sees a syntactically broken record.
        bytes.truncate((k as usize).min(bytes.len()));
    }
    // Write-then-rename so concurrent shards on a shared cache dir can
    // only ever observe complete records.
    write_atomic(path, &bytes)
}

// ---------------------------------------------------------------------------
// Running a sweep shard
// ---------------------------------------------------------------------------

/// How a sweep runs: cache location, worker threads, shard partition,
/// escalation gate.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Result-cache directory (`None` disables memoization).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for this process's share of the job list.
    pub jobs: usize,
    /// `(k, n)`: run jobs `i ≡ k (mod n)` only. `(0, 1)` = everything.
    pub shard: (usize, usize),
    /// Stream-agreement escalation gate (see [`DEFAULT_AGREEMENT_GATE`]).
    pub gate: f64,
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
    /// cancelled, retried once at an escalated budget, then
    /// quarantined as a `timeout`.
    pub cell_budget: Option<Duration>,
    /// Snapshot of [`crate::faults::trace_decode_errors`] taken before
    /// this run's capture/fault phase, so the shard registry reports
    /// only *this run's* decode errors (the static is process-wide and
    /// would otherwise leak counts across sweeps sharing a process).
    /// `None` snapshots at [`run_sweep`] entry.
    pub decode_errors_from: Option<u64>,
}

impl SweepOptions {
    /// Cache-less, unsharded, fault-free options at the default gate.
    pub fn new(jobs: usize, scale_label: &str) -> Self {
        SweepOptions {
            cache_dir: None,
            jobs,
            shard: (0, 1),
            gate: DEFAULT_AGREEMENT_GATE,
            scale_label: scale_label.to_string(),
            retry: RetryPolicy::default(),
            faults: None,
            journal: None,
            resume: false,
            cell_budget: None,
            decode_errors_from: None,
        }
    }
}

/// Per-workload baseline: the replay-first no-prefetch run the
/// agreement gate judges, and the denominator every cell speedup uses.
#[derive(Debug, Clone)]
pub struct WorkloadBaseline {
    /// Benchmark name.
    pub workload: &'static str,
    /// Baseline (no-prefetch, base-config) cycles on the path the gate
    /// chose — replay cycles normally, cycle-core cycles if the
    /// baseline replay itself broke.
    pub replay_cycles: u64,
    /// The capture run's cycle-core cycle count (v2 streams; 0 on v1).
    pub capture_cycles: u64,
    /// `replay_cycles / capture_cycles` (`None` without a v2 reference).
    pub agreement: Option<f64>,
    /// Whether this workload's cells escalate to the cycle core.
    pub escalate: bool,
    /// The speedup denominator: replay cycles when the stream is
    /// trusted, the capture run's cycle count when escalated.
    pub reference_cycles: u64,
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

/// The output of one sweep shard: its cells, the baselines behind
/// them, and the cache-effectiveness counters.
#[derive(Debug)]
pub struct ShardRun {
    /// Sweep name (from the spec).
    pub sweep: &'static str,
    /// Scale label (from the options).
    pub scale: String,
    /// Trace format the captures were keyed under.
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
    /// journal hits) plus the `trace.decode_errors` snapshot.
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

    /// Cells quarantined by an on-request cancellation.
    pub fn cancelled(&self) -> u64 {
        self.registry.counter("sweep.cancelled")
    }

    /// Livelock aborts the driver raised during this run (delta, not
    /// the process-wide absolute).
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
        let (c, r, q, j) = (
            self.corrupt_evicted(),
            self.retries(),
            self.quarantined(),
            self.journal_hits(),
        );
        if c > 0 {
            let _ = write!(s, ", {c} corrupt evicted");
        }
        if r > 0 {
            let _ = write!(s, ", {r} retried");
        }
        if q > 0 {
            let _ = write!(s, ", {q} quarantined");
        }
        let (t, x, l) = (self.timeouts(), self.cancelled(), self.livelock_aborts());
        if t > 0 {
            let _ = write!(s, ", {t} timed out");
        }
        if x > 0 {
            let _ = write!(s, ", {x} cancelled");
        }
        if l > 0 {
            let _ = write!(s, ", {l} livelock aborts");
        }
        if j > 0 {
            let _ = write!(s, ", {j} resumed from journal");
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
    cancel: Option<&CancelToken>,
    counters: &SweepCounters,
) -> (CellData, bool) {
    debug_assert_eq!(key.1, cell_config_hash(cfg, mode, escalate));
    let path = cache_dir.map(|d| cell_cache_path(d, key.0, key.1));
    if let Some(p) = &path {
        match fs::read_to_string(p) {
            Ok(raw) => match parse_cell_record(&raw) {
                Some(d) => {
                    counters.hits.fetch_add(1, Ordering::Relaxed);
                    return (d, true);
                }
                None => {
                    counters.corrupt_evicted.fetch_add(1, Ordering::Relaxed);
                    let _ = fs::remove_file(p);
                    eprintln!("[sweep] evicted corrupt cache entry {}", p.display());
                }
            },
            // Invalid UTF-8 is corruption too; anything else (ENOENT,
            // EACCES...) is just a miss.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                counters.corrupt_evicted.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(p);
                eprintln!("[sweep] evicted corrupt cache entry {}", p.display());
            }
            Err(_) => {}
        }
    }
    let d = exec_cell(cfg, mode, wl, records, escalate, cancel);
    counters.misses.fetch_add(1, Ordering::Relaxed);
    if d.path == CellPath::Cycle {
        counters.escalated.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(p) = &path {
        if let Err(e) = write_cell_data(p, &d, tear) {
            eprintln!("[sweep] could not cache {}: {e}", p.display());
        }
    }
    (d, false)
}

/// Replay-first cell execution with per-cell escalation: replay unless
/// the stream-level gate already escalated; fall back to the cycle
/// core when replay is impossible for the mode or corrupts the image.
/// `cancel` (the attempt's watchdog token) is threaded into whichever
/// loop actually runs; both paths check it at visit granularity only,
/// so armed results stay bit-identical to unarmed ones. Runs on the
/// same [`SystemConfig::effective_for`] projection the cache key hashes.
fn exec_cell(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    records: &[etpp_trace::TraceRecord],
    escalate: bool,
    cancel: Option<&CancelToken>,
) -> CellData {
    let cfg = &cfg.effective_for(mode);
    if !escalate {
        if let Ok(r) = replay_run_watched(cfg, mode, wl, records, cancel) {
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
    let cycle = match cancel {
        Some(token) => run_watched(cfg, mode, wl, &Watchdog::new(token.clone())),
        None => run(cfg, mode, wl),
    };
    match cycle {
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
    retries: AtomicU64,
    quarantined: AtomicU64,
    journal_hits: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
}

// ---------------------------------------------------------------------------
// Progress-journal entries (checkpoint–resume)
// ---------------------------------------------------------------------------

/// The journal's line-0 header: the full sweep identity (spec, scale,
/// shard, gate bits, trace content hashes). Resume discards a journal
/// whose header differs — progress from a different sweep, scale, or
/// trace corpus must never be donated. Deliberately excludes the fault
/// plan: a run killed *by* an injected fault resumes under a clean
/// plan against the same journal.
fn journal_header(
    spec: &SweepSpec,
    opts: &SweepOptions,
    trace_format: u16,
    total: usize,
    captures: &[KeyedCapture],
) -> String {
    let hashes: Vec<String> = captures
        .iter()
        .map(|c| format!("{:016x}", c.content_hash))
        .collect();
    format!(
        "{{\"kind\": \"header\", \"schema\": {SWEEP_SCHEMA_VERSION}, \"sweep\": \"{}\", \
         \"scale\": \"{}\", \"trace_format\": {trace_format}, \"shard\": {}, \"of\": {}, \
         \"total_jobs\": {total}, \"gate_bits\": \"{:016x}\", \"traces\": \"{}\"}}",
        spec.name,
        opts.scale_label,
        opts.shard.0,
        opts.shard.1,
        opts.gate.to_bits(),
        hashes.join(",")
    )
}

/// Appends `, "class": "...", "attempts": N, "error": "..."` when the
/// entry records a quarantine, so resume reconstructs the failure too.
fn failure_suffix(failure: Option<&FailureRecord>) -> String {
    failure.map_or(String::new(), |f| {
        format!(
            ", \"class\": \"{}\", \"attempts\": {}, \"error\": \"{}\"",
            f.class.key(),
            f.attempts,
            json_escape(&f.error)
        )
    })
}

fn journal_baseline_entry(b: &WorkloadBaseline, failure: Option<&FailureRecord>) -> String {
    format!(
        "{{\"kind\": \"baseline\", \"workload\": \"{}\", \"replay_cycles\": {}, \
         \"capture_cycles\": {}, \"agreement_bits\": \"{}\", \"escalate\": {}, \
         \"reference_cycles\": {}{}}}",
        b.workload,
        b.replay_cycles,
        b.capture_cycles,
        b.agreement
            .map_or("none".to_string(), |a| format!("{:016x}", a.to_bits())),
        b.escalate,
        b.reference_cycles,
        failure_suffix(failure)
    )
}

fn journal_cell_entry(c: &CellResult, failure: Option<&FailureRecord>) -> String {
    format!(
        "{{\"kind\": \"cell\", \"index\": {}, \"path\": \"{}\", \"cycles\": {}, \
         \"host_iters\": {}, \"dep_stalls\": {}, \"validated\": {}{}}}",
        c.index,
        c.path.as_str(),
        c.cycles,
        c.host_iters,
        c.dep_stalls,
        c.validated,
        failure_suffix(failure)
    )
}

/// A baseline reconstructed from the journal (agreement is bit-exact —
/// `f64::to_bits` hex — so resumed merges stay byte-identical).
struct JournalBaseline {
    replay_cycles: u64,
    capture_cycles: u64,
    agreement: Option<f64>,
    escalate: bool,
    reference_cycles: u64,
    class: FailureClass,
    attempts: Option<u32>,
    error: Option<String>,
}

fn parse_journal_baseline(line: &str) -> Option<(String, JournalBaseline)> {
    let bits = field_str(line, "agreement_bits")?;
    Some((
        field_str(line, "workload")?,
        JournalBaseline {
            replay_cycles: field_num(line, "replay_cycles")? as u64,
            capture_cycles: field_num(line, "capture_cycles")? as u64,
            agreement: if bits == "none" {
                None
            } else {
                Some(f64::from_bits(u64::from_str_radix(&bits, 16).ok()?))
            },
            escalate: field_bool(line, "escalate")?,
            reference_cycles: field_num(line, "reference_cycles")? as u64,
            class: FailureClass::from_key(&field_str(line, "class").unwrap_or_default()),
            attempts: field_num(line, "attempts").map(|v| v as u32),
            error: field_str(line, "error"),
        },
    ))
}

/// A completed cell reconstructed from the journal.
struct JournalCell {
    path: CellPath,
    cycles: u64,
    host_iters: u64,
    dep_stalls: u64,
    validated: bool,
    class: FailureClass,
    attempts: Option<u32>,
    error: Option<String>,
}

fn parse_journal_cell(line: &str) -> Option<(usize, JournalCell)> {
    Some((
        field_num(line, "index")? as usize,
        JournalCell {
            path: CellPath::from_str(&field_str(line, "path")?)?,
            cycles: field_num(line, "cycles")? as u64,
            host_iters: field_num(line, "host_iters")? as u64,
            dep_stalls: field_num(line, "dep_stalls")? as u64,
            validated: field_bool(line, "validated")?,
            class: FailureClass::from_key(&field_str(line, "class").unwrap_or_default()),
            attempts: field_num(line, "attempts").map(|v| v as u32),
            error: field_str(line, "error"),
        },
    ))
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
    let trace_format = captures
        .first()
        .map_or(etpp_trace::FORMAT_VERSION, |c| c.trace_format);
    assert!(
        captures.iter().all(|c| c.trace_format == trace_format),
        "one sweep must not mix trace formats"
    );
    let (k, n) = opts.shard;
    let total = spec.total_jobs(workloads.len());
    let my_jobs = shard_indices(total, k, n);
    let counters = SweepCounters::default();
    let cache_dir = opts.cache_dir.as_deref();
    let baseline_hash = |escalate| cell_config_hash(&spec.base, PrefetchMode::None, escalate);
    let plan = opts.faults.as_ref();
    let completed = AtomicU64::new(0);
    // The decode-error and livelock statics are process-wide; snapshot
    // so the registry reports this run's delta, not another sweep's
    // leakage (callers that capture traces themselves pass an earlier
    // snapshot via `decode_errors_from` to claim that phase's errors).
    let decode_errors_from = opts
        .decode_errors_from
        .unwrap_or_else(crate::faults::trace_decode_errors);
    let livelock_from = crate::watchdog::livelock_aborts();

    // Checkpoint–resume: open (or start) the progress journal and
    // index whatever completed entries survive its integrity checks.
    let mut resumed_cells: HashMap<usize, JournalCell> = HashMap::new();
    let mut resumed_baselines: HashMap<String, JournalBaseline> = HashMap::new();
    let journal: Option<Mutex<Journal>> = opts.journal.as_ref().and_then(|path| {
        let header = journal_header(spec, opts, trace_format, total, captures);
        let opened = if opts.resume {
            Journal::resume(path, &header).map(|(j, entries)| {
                for e in &entries {
                    match field_str(e, "kind").as_deref() {
                        Some("cell") => {
                            if let Some((idx, jc)) = parse_journal_cell(e) {
                                resumed_cells.insert(idx, jc);
                            }
                        }
                        Some("baseline") => {
                            if let Some((wl, jb)) = parse_journal_baseline(e) {
                                resumed_baselines.insert(wl, jb);
                            }
                        }
                        _ => {}
                    }
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
            if let Some(jb) = resumed_baselines.get(wl.name) {
                counters.journal_hits.fetch_add(1, Ordering::Relaxed);
                let failure = jb.error.clone().map(|error| FailureRecord {
                    index: None,
                    workload: wl.name.to_string(),
                    mode: "baseline".to_string(),
                    settings: "-".to_string(),
                    config_hash: baseline_hash(false),
                    class: jb.class,
                    attempts: jb.attempts.unwrap_or(0),
                    error,
                });
                return (
                    WorkloadBaseline {
                        workload: wl.name,
                        replay_cycles: jb.replay_cycles,
                        capture_cycles: jb.capture_cycles,
                        agreement: jb.agreement,
                        escalate: jb.escalate,
                        reference_cycles: jb.reference_cycles,
                    },
                    failure,
                );
            }
            let wall_start = Instant::now();
            let computed = run_isolated(&opts.retry, wi, &counters.retries, |attempt| {
                if let Some(p) = plan {
                    p.maybe_panic_baseline(wi, attempt);
                }
                let (base, _) = cached_exec(
                    cache_dir,
                    (cap.content_hash, baseline_hash(false)),
                    &spec.base,
                    PrefetchMode::None,
                    wl,
                    &cap.trace.records,
                    false,
                    None,
                    None,
                    &counters,
                );
                let agreement = (base.path == CellPath::Replay && capture_cycles > 0)
                    .then(|| base.cycles as f64 / capture_cycles as f64);
                let escalate = match (base.path, agreement) {
                    // v2 stream replayed fine: trust it iff it agrees.
                    (CellPath::Replay, Some(a)) => (a - 1.0).abs() > opts.gate,
                    // v1 stream (no reference): trust replay — there is
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
                    // Escalated with no recorded reference (v1 stream whose
                    // replay broke): measure the cycle baseline, cached like
                    // any other escalated cell.
                    cached_exec(
                        cache_dir,
                        (cap.content_hash, baseline_hash(true)),
                        &spec.base,
                        PrefetchMode::None,
                        wl,
                        &cap.trace.records,
                        true,
                        None,
                        None,
                        &counters,
                    )
                    .0
                    .cycles
                };
                WorkloadBaseline {
                    workload: wl.name,
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
            match computed {
                Ok(b) => {
                    append(journal_baseline_entry(&b, None));
                    (b, None)
                }
                Err(fail) => {
                    // Structured degradation instead of aborting the
                    // shard: the workload's cells escalate to the cycle
                    // core with the capture run as denominator.
                    counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    let b = WorkloadBaseline {
                        workload: wl.name,
                        replay_cycles: 0,
                        capture_cycles,
                        agreement: None,
                        escalate: true,
                        reference_cycles: capture_cycles,
                    };
                    let rec = FailureRecord {
                        index: None,
                        workload: wl.name.to_string(),
                        mode: "baseline".to_string(),
                        settings: "-".to_string(),
                        config_hash: baseline_hash(false),
                        class: fail.class,
                        attempts: fail.attempts,
                        error: fail.error,
                    };
                    eprintln!(
                        "[sweep] baseline for {} quarantined after {} attempts ({}); \
                         its cells escalate to the cycle core",
                        wl.name, rec.attempts, rec.error
                    );
                    append(journal_baseline_entry(&b, Some(&rec)));
                    (b, Some(rec))
                }
            }
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
            !resumed_cells.contains_key(&my_jobs[j]) && claimed.insert(keys[j])
        });

    let cell_outcomes: Vec<(CellResult, Option<FailureRecord>)> =
        map_in_phases(opts.jobs, [&representatives, &followers], |j| {
            let job = my_jobs[j];
            let (wi, mi, value_idx) = spec.decode(job);
            let mode = spec.modes[mi];
            let cfg = spec.config_for(&value_idx);
            let settings = spec.settings_for(&value_idx);
            let (wl, cap) = (&workloads[wi], &captures[wi]);
            let failed_cell = |attempts: u32, class: FailureClass, error: String| {
                (
                    CellResult {
                        index: job,
                        workload: wl.name,
                        mode,
                        settings: settings.clone(),
                        path: CellPath::Failed,
                        cycles: 0,
                        host_iters: 0,
                        dep_stalls: 0,
                        validated: false,
                        speedup: None,
                        cached: false,
                    },
                    Some(FailureRecord {
                        index: Some(job),
                        workload: wl.name.to_string(),
                        mode: mode.key().to_string(),
                        settings: settings_string(&settings),
                        config_hash: keys[j].1,
                        class,
                        attempts,
                        error,
                    }),
                )
            };
            let Some(bl) = baselines[wi] else {
                // Structured replacement for the old "baseline computed
                // for every used workload" panic: an internally missing
                // baseline quarantines this one cell, not the shard.
                counters.quarantined.fetch_add(1, Ordering::Relaxed);
                return failed_cell(
                    0,
                    FailureClass::Panic,
                    format!("internal: no baseline for workload {}", wl.name),
                );
            };
            if let Some(jc) = resumed_cells.get(&job) {
                counters.journal_hits.fetch_add(1, Ordering::Relaxed);
                let speedup = (!matches!(jc.path, CellPath::Skip | CellPath::Failed)
                    && bl.reference_cycles > 0)
                    .then(|| bl.reference_cycles as f64 / jc.cycles.max(1) as f64);
                let failure = jc.error.clone().map(|error| FailureRecord {
                    index: Some(job),
                    workload: wl.name.to_string(),
                    mode: mode.key().to_string(),
                    settings: settings_string(&settings),
                    config_hash: keys[j].1,
                    class: jc.class,
                    attempts: jc.attempts.unwrap_or(0),
                    error,
                });
                return (
                    CellResult {
                        index: job,
                        workload: wl.name,
                        mode,
                        settings,
                        path: jc.path,
                        cycles: jc.cycles,
                        host_iters: jc.host_iters,
                        dep_stalls: jc.dep_stalls,
                        validated: jc.validated,
                        speedup,
                        cached: false,
                    },
                    failure,
                );
            }
            let outcome = run_isolated_budgeted(
                &opts.retry,
                job,
                &counters.retries,
                cell_budget,
                |attempt, token| {
                    if let Some(p) = plan {
                        p.maybe_slow(job);
                        p.maybe_hang(job, token);
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
                        token,
                        &counters,
                    )
                },
            );
            let result = match outcome {
                Ok((d, hit)) => {
                    let cr = CellResult {
                        index: job,
                        workload: wl.name,
                        mode,
                        settings,
                        path: d.path,
                        cycles: d.cycles,
                        host_iters: d.host_iters,
                        dep_stalls: d.dep_stalls,
                        validated: d.validated,
                        speedup: (d.path != CellPath::Skip && bl.reference_cycles > 0)
                            .then(|| bl.reference_cycles as f64 / d.cycles.max(1) as f64),
                        cached: hit,
                    };
                    append(journal_cell_entry(&cr, None));
                    (cr, None)
                }
                Err(fail) => {
                    counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    match fail.class {
                        FailureClass::Timeout => {
                            counters.timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        FailureClass::Cancelled => {
                            counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                        // Livelocks land in `driver.livelock_aborts`
                        // (snapshot delta); plain panics in
                        // `sweep.quarantined` alone.
                        FailureClass::Livelock | FailureClass::Panic => {}
                    }
                    let (cr, rec) = failed_cell(fail.attempts, fail.class, fail.error);
                    append(journal_cell_entry(&cr, rec.as_ref()));
                    (cr, rec)
                }
            };
            if let Some(p) = plan {
                p.maybe_kill(completed.fetch_add(1, Ordering::Relaxed) + 1);
            }
            result
        });
    let (cells, cell_failures): (Vec<CellResult>, Vec<Option<FailureRecord>>) =
        cell_outcomes.into_iter().unzip();
    let mut failures: Vec<FailureRecord> = baselines_used
        .iter()
        .filter_map(|(_, f)| f.clone())
        .chain(cell_failures.into_iter().flatten())
        .collect();
    failures.sort_by(|a, b| {
        (a.index, &a.workload, &a.mode, &a.settings).cmp(&(
            b.index,
            &b.workload,
            &b.mode,
            &b.settings,
        ))
    });

    let mut registry = Registry::new();
    registry.set_counter("sweep.cache.hit", counters.hits.load(Ordering::Relaxed));
    registry.set_counter("sweep.cache.miss", counters.misses.load(Ordering::Relaxed));
    registry.set_counter("sweep.cells.distinct", distinct.len() as u64);
    registry.set_counter(
        "sweep.cache.escalated",
        counters.escalated.load(Ordering::Relaxed),
    );
    registry.set_counter(
        "sweep.cache.corrupt_evicted",
        counters.corrupt_evicted.load(Ordering::Relaxed),
    );
    registry.set_counter("sweep.retry", counters.retries.load(Ordering::Relaxed));
    registry.set_counter(
        "sweep.quarantined",
        counters.quarantined.load(Ordering::Relaxed),
    );
    registry.set_counter(
        "sweep.journal.hit",
        counters.journal_hits.load(Ordering::Relaxed),
    );
    registry.set_counter("sweep.timeout", counters.timeouts.load(Ordering::Relaxed));
    registry.set_counter(
        "sweep.cancelled",
        counters.cancelled.load(Ordering::Relaxed),
    );
    // Snapshot deltas, not process-wide absolutes: the statics outlive
    // this run and would otherwise report another sweep's errors.
    registry.set_counter(
        "trace.decode_errors",
        crate::faults::trace_decode_errors().saturating_sub(decode_errors_from),
    );
    registry.set_counter(
        "driver.livelock_aborts",
        crate::watchdog::livelock_aborts().saturating_sub(livelock_from),
    );
    ShardRun {
        sweep: spec.name,
        scale: opts.scale_label.clone(),
        trace_format,
        shard: (k, n),
        total_jobs: total,
        baselines: baselines_used.into_iter().map(|(b, _)| b).collect(),
        cells,
        failures,
        registry,
    }
}

// ---------------------------------------------------------------------------
// Shard files: serialisation, parsing, merging, rendering
// ---------------------------------------------------------------------------

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x:.4}"))
}

impl ShardRun {
    /// Serialises the shard for cross-process merging. One cell per
    /// line (the parser is line-oriented, like the speedcheck report).
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        let _ = writeln!(j, "{{");
        let _ = writeln!(j, "  \"schema\": {SWEEP_SCHEMA_VERSION},");
        let _ = writeln!(j, "  \"sweep\": \"{}\",", self.sweep);
        let _ = writeln!(j, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(j, "  \"trace_format\": {},", self.trace_format);
        let _ = writeln!(j, "  \"shard\": {},", self.shard.0);
        let _ = writeln!(j, "  \"of\": {},", self.shard.1);
        let _ = writeln!(j, "  \"total_jobs\": {},", self.total_jobs);
        j.push_str("  \"baselines\": [\n");
        for (i, b) in self.baselines.iter().enumerate() {
            let _ = write!(
                j,
                "    {{\"workload\": \"{}\", \"replay_cycles\": {}, \"capture_cycles\": {}, \
                 \"agreement\": {}, \"escalate\": {}, \"reference_cycles\": {}}}",
                b.workload,
                b.replay_cycles,
                b.capture_cycles,
                fmt_opt(b.agreement),
                b.escalate,
                b.reference_cycles
            );
            j.push_str(if i + 1 < self.baselines.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("  ],\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                j,
                "    {{\"index\": {}, \"workload\": \"{}\", \"mode\": \"{}\", \
                 \"settings\": \"{}\", \"path\": \"{}\", \"cycles\": {}, \
                 \"host_iters\": {}, \"dep_stalls\": {}, \"validated\": {}, \
                 \"speedup\": {}, \"cache\": \"{}\"}}",
                c.index,
                c.workload,
                c.mode.key(),
                settings_string(&c.settings),
                c.path.as_str(),
                c.cycles,
                c.host_iters,
                c.dep_stalls,
                c.validated,
                fmt_opt(c.speedup),
                if c.cached { "hit" } else { "miss" }
            );
            j.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("  ],\n  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(
                j,
                "    {{\"index\": {}, \"workload\": \"{}\", \"mode\": \"{}\", \
                 \"settings\": \"{}\", \"config_hash\": \"{:016x}\", \"class\": \"{}\", \
                 \"attempts\": {}, \"error\": \"{}\"}}",
                f.index.map_or("null".to_string(), |i| i.to_string()),
                f.workload,
                f.mode,
                f.settings,
                f.config_hash,
                f.class.key(),
                f.attempts,
                json_escape(&f.error)
            );
            j.push_str(if i + 1 < self.failures.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("  ]\n}\n");
        j
    }
}

/// Extracts `"key": <number>` from one line of sweep JSON.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "<string>"` from one line of sweep JSON.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts `"key": true|false` from one line of sweep JSON.
fn field_bool(line: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// A parsed shard-file baseline row.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedBaseline {
    /// Benchmark name.
    pub workload: String,
    /// Baseline cycles on the chosen path.
    pub replay_cycles: u64,
    /// Capture run's cycle count (0 = v1).
    pub capture_cycles: u64,
    /// Stream agreement (None without a reference).
    pub agreement: Option<f64>,
    /// Whether the workload escalated.
    pub escalate: bool,
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
    /// Execution path (`replay`/`cycle`/`skip`).
    pub path: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Speedup over the workload baseline.
    pub speedup: Option<f64>,
    /// Validation outcome.
    pub validated: bool,
}

/// A parsed shard-file quarantine row.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFailure {
    /// Flat job index (`None` = a workload-baseline failure).
    pub index: Option<usize>,
    /// Benchmark name.
    pub workload: String,
    /// Mode key, or `"baseline"`.
    pub mode: String,
    /// Canonical settings string.
    pub settings: String,
    /// Classified cause (records written before classes existed parse
    /// as [`FailureClass::Panic`]).
    pub class: FailureClass,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// Final panic message.
    pub error: String,
}

/// A parsed shard file.
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
    pub baselines: Vec<ParsedBaseline>,
    /// Cells this shard ran.
    pub cells: Vec<ParsedCell>,
    /// Jobs this shard quarantined.
    pub failures: Vec<ParsedFailure>,
}

/// Parses one shard file written by [`ShardRun::to_json`].
///
/// # Errors
/// A human-readable message naming the missing or malformed field.
pub fn parse_shard(json: &str) -> Result<ShardFile, String> {
    let mut sweep = None;
    let mut scale = None;
    let mut trace_format = None;
    let mut shard = None;
    let mut of = None;
    let mut total_jobs = None;
    let mut schema = None;
    let mut baselines = Vec::new();
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    let mut section = "";
    for line in json.lines() {
        let t = line.trim_start();
        if t.starts_with("\"baselines\": [") {
            section = "baselines";
        } else if t.starts_with("\"cells\": [") {
            section = "cells";
        } else if t.starts_with("\"failures\": [") {
            section = "failures";
        } else if section == "baselines" && t.starts_with('{') {
            baselines.push(ParsedBaseline {
                workload: field_str(line, "workload").ok_or("baseline missing workload")?,
                replay_cycles: field_num(line, "replay_cycles")
                    .ok_or("baseline missing replay_cycles")? as u64,
                capture_cycles: field_num(line, "capture_cycles")
                    .ok_or("baseline missing capture_cycles")?
                    as u64,
                agreement: field_num(line, "agreement"),
                escalate: field_bool(line, "escalate").ok_or("baseline missing escalate")?,
            });
        } else if section == "cells" && t.starts_with('{') {
            cells.push(ParsedCell {
                index: field_num(line, "index").ok_or("cell missing index")? as usize,
                workload: field_str(line, "workload").ok_or("cell missing workload")?,
                mode: field_str(line, "mode").ok_or("cell missing mode")?,
                settings: field_str(line, "settings").ok_or("cell missing settings")?,
                path: field_str(line, "path").ok_or("cell missing path")?,
                cycles: field_num(line, "cycles").ok_or("cell missing cycles")? as u64,
                speedup: field_num(line, "speedup"),
                validated: field_bool(line, "validated").ok_or("cell missing validated")?,
            });
        } else if section == "failures" && t.starts_with('{') {
            failures.push(ParsedFailure {
                index: field_num(line, "index").map(|v| v as usize),
                workload: field_str(line, "workload").ok_or("failure missing workload")?,
                mode: field_str(line, "mode").ok_or("failure missing mode")?,
                settings: field_str(line, "settings").ok_or("failure missing settings")?,
                class: FailureClass::from_key(&field_str(line, "class").unwrap_or_default()),
                attempts: field_num(line, "attempts").ok_or("failure missing attempts")? as u32,
                error: field_str(line, "error").unwrap_or_default(),
            });
        } else {
            if let Some(v) = field_str(line, "sweep") {
                sweep = Some(v);
            }
            if let Some(v) = field_str(line, "scale") {
                scale = Some(v);
            }
            if let Some(v) = field_num(line, "trace_format") {
                trace_format = Some(v as u16);
            }
            if let Some(v) = field_num(line, "schema") {
                schema = Some(v as u32);
            }
            if let Some(v) = field_num(line, "shard") {
                shard = Some(v as usize);
            }
            if let Some(v) = field_num(line, "of") {
                of = Some(v as usize);
            }
            if let Some(v) = field_num(line, "total_jobs") {
                total_jobs = Some(v as usize);
            }
        }
    }
    if schema != Some(SWEEP_SCHEMA_VERSION) {
        return Err(format!(
            "shard schema {schema:?} != supported {SWEEP_SCHEMA_VERSION}"
        ));
    }
    Ok(ShardFile {
        sweep: sweep.ok_or("missing sweep name")?,
        scale: scale.ok_or("missing scale")?,
        trace_format: trace_format.ok_or("missing trace_format")?,
        shard: shard.ok_or("missing shard index")?,
        of: of.ok_or("missing shard count")?,
        total_jobs: total_jobs.ok_or("missing total_jobs")?,
        baselines,
        cells,
        failures,
    })
}

/// A complete, coverage-checked sweep reassembled from shard files.
#[derive(Debug)]
pub struct MergedSweep {
    /// Sweep name.
    pub sweep: String,
    /// Scale label.
    pub scale: String,
    /// Trace format.
    pub trace_format: u16,
    /// Number of shards merged.
    pub shards: usize,
    /// Baselines, deduped, sorted by workload name.
    pub baselines: Vec<ParsedBaseline>,
    /// All cells, ascending by flat index, exactly `0..total_jobs`.
    pub cells: Vec<ParsedCell>,
    /// Quarantined jobs across all shards, deduped, baseline failures
    /// first then ascending by flat index.
    pub failures: Vec<ParsedFailure>,
}

fn approx_eq(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => format!("{x:.4}") == format!("{y:.4}"),
        _ => false,
    }
}

/// Merges a set of shard files into one coverage-checked sweep.
///
/// # Errors
/// * inconsistent headers (different sweep/scale/format/total/shard
///   count), duplicate shard ids;
/// * **coverage gaps**: any flat index in `0..total_jobs` not present
///   exactly once (the error lists the missing indices — this is the
///   check the nightly merge job fails on);
/// * baselines recorded differently by two shards (stale-cache mixing).
pub fn merge_shards(files: &[ShardFile]) -> Result<MergedSweep, String> {
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

    // Baselines: shards sharing a workload must agree exactly — a
    // mismatch means shards ran against different caches or configs.
    let mut by_wl: BTreeMap<&str, &ParsedBaseline> = BTreeMap::new();
    for b in files.iter().flat_map(|f| &f.baselines) {
        if let Some(prev) = by_wl.get(b.workload.as_str()) {
            let same = prev.replay_cycles == b.replay_cycles
                && prev.capture_cycles == b.capture_cycles
                && prev.escalate == b.escalate
                && approx_eq(prev.agreement, b.agreement);
            if !same {
                return Err(format!(
                    "inconsistent baselines for {} across shards: {prev:?} vs {b:?}",
                    b.workload
                ));
            }
        } else {
            by_wl.insert(&b.workload, b);
        }
    }

    // Quarantines: concatenate, order deterministically (baseline
    // failures first — None sorts before Some — then by index), and
    // dedup exact repeats (a resumed shard reports the same quarantine
    // as its first run).
    let mut failures: Vec<ParsedFailure> = files.iter().flat_map(|f| f.failures.clone()).collect();
    failures.sort_by(|a, b| {
        (a.index, &a.workload, &a.mode, &a.settings).cmp(&(
            b.index,
            &b.workload,
            &b.mode,
            &b.settings,
        ))
    });
    failures.dedup();

    Ok(MergedSweep {
        sweep: first.sweep.clone(),
        scale: first.scale.clone(),
        trace_format: first.trace_format,
        shards: files.len(),
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
pub fn render_merged(m: &MergedSweep) -> String {
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
                "n/a (v1)".to_string()
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
                f.error.replace('|', "/")
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
        assert_eq!(parse_cell_data(&cell_data_json(&d)), Some(d));
        // A schema bump orphans the record.
        let stale = cell_data_json(&d).replace(
            &format!("\"schema\": {SWEEP_SCHEMA_VERSION}"),
            "\"schema\": 0",
        );
        assert_eq!(parse_cell_data(&stale), None);
    }

    #[test]
    fn cell_record_trailer_rejects_corruption() {
        let d = CellData {
            path: CellPath::Failed,
            cycles: 0,
            host_iters: 0,
            dep_stalls: 0,
            validated: false,
        };
        let record = cell_record(&d);
        assert_eq!(parse_cell_record(&record), Some(d));
        // Torn write: any truncation invalidates the trailer.
        for cut in [0, 1, record.len() / 2, record.len() - 1] {
            assert_eq!(parse_cell_record(&record[..cut]), None, "cut at {cut}");
        }
        // A flipped byte in the body breaks the content hash.
        let flipped = record.replacen("cycles", "cycIes", 1);
        assert_eq!(parse_cell_record(&flipped), None);
        // A record missing the magic field is schema drift.
        let drifted = cell_record(&d).replace(CELL_MAGIC, "other-cache-kind");
        assert_eq!(parse_cell_record(&drifted), None);
        assert_eq!(parse_cell_record("not a record at all"), None);
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

    #[test]
    fn shard_json_round_trips() {
        let run = ShardRun {
            sweep: "probe",
            scale: "tiny".into(),
            trace_format: 2,
            shard: (1, 4),
            total_jobs: 24,
            baselines: vec![WorkloadBaseline {
                workload: "IntSort",
                replay_cycles: 1000,
                capture_cycles: 1100,
                agreement: Some(1000.0 / 1100.0),
                escalate: false,
                reference_cycles: 1000,
            }],
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
            failures: vec![FailureRecord {
                index: Some(2),
                workload: "IntSort".into(),
                mode: "stride".into(),
                settings: "obs_queue=10 pf_buffer=64".into(),
                config_hash: 0xabcd,
                class: FailureClass::Timeout,
                attempts: 3,
                error: "injected \"panic\"".into(),
            }],
            registry: Registry::new(),
        };
        let f = parse_shard(&run.to_json()).unwrap();
        assert_eq!(f.sweep, "probe");
        assert_eq!((f.shard, f.of, f.total_jobs), (1, 4, 24));
        assert_eq!(f.baselines.len(), 1);
        assert_eq!(f.baselines[0].capture_cycles, 1100);
        assert!(!f.baselines[0].escalate);
        assert_eq!(f.cells.len(), 1);
        assert_eq!(f.cells[0].settings, "obs_queue=10 pf_buffer=16");
        assert_eq!(f.cells[0].mode, "manual");
        assert_eq!(f.cells[0].speedup, Some(2.0));
        assert_eq!(f.failures.len(), 1);
        assert_eq!(f.failures[0].index, Some(2));
        assert_eq!(f.failures[0].mode, "stride");
        assert_eq!(f.failures[0].class, FailureClass::Timeout);
        assert_eq!(f.failures[0].attempts, 3);
    }

    #[test]
    fn journal_entries_round_trip_bit_exact() {
        let b = WorkloadBaseline {
            workload: "HJ-8",
            replay_cycles: 12345,
            capture_cycles: 13000,
            agreement: Some(12345.0 / 13000.0),
            escalate: false,
            reference_cycles: 12345,
        };
        let (wl, jb) = parse_journal_baseline(&journal_baseline_entry(&b, None)).unwrap();
        assert_eq!(wl, "HJ-8");
        assert_eq!(jb.replay_cycles, 12345);
        // Bit-exact, not approximate: resumed merges must stay
        // byte-identical.
        assert_eq!(
            jb.agreement.map(f64::to_bits),
            b.agreement.map(f64::to_bits)
        );
        assert!(jb.error.is_none());

        let c = CellResult {
            index: 17,
            workload: "HJ-8",
            mode: PrefetchMode::Manual,
            settings: vec![("obs_queue", 10)],
            path: CellPath::Failed,
            cycles: 0,
            host_iters: 0,
            dep_stalls: 0,
            validated: false,
            speedup: None,
            cached: false,
        };
        let rec = FailureRecord {
            index: Some(17),
            workload: "HJ-8".into(),
            mode: "manual".into(),
            settings: "obs_queue=10".into(),
            config_hash: 1,
            class: FailureClass::Livelock,
            attempts: 3,
            error: "boom".into(),
        };
        let (idx, jc) = parse_journal_cell(&journal_cell_entry(&c, Some(&rec))).unwrap();
        assert_eq!(idx, 17);
        assert_eq!(jc.path, CellPath::Failed);
        assert_eq!(jc.class, FailureClass::Livelock);
        assert_eq!(jc.attempts, Some(3));
        assert_eq!(jc.error.as_deref(), Some("boom"));
        // A pre-class journal line (no "class" field) parses as panic.
        let (_, old) = parse_journal_cell(&journal_cell_entry(&c, None)).unwrap();
        assert_eq!(old.class, FailureClass::Panic);
    }
}
