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
//! keyed by `(trace content hash, canonical config hash)` — the config
//! hash covers the schema version, see [`cell_config_hash`] — so warm
//! re-runs are near-free and a workload regeneration or config change
//! invalidates exactly the affected cells. The cache is one append-only
//! log per directory ([`cache_log_path`]), read once per run.
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
//! and leaves one shard log ([`shard_path`]); [`merge_shards`]
//! reassembles any complete set of shards into tables
//! ([`render_merged`]) that are byte-identical for every (jobs,
//! shard-count) split — the same determinism contract
//! [`crate::experiments::map_indexed`] pins for threads, extended to
//! processes.
//!
//! On disk everything is a sealed **row** ([`crate::rows`]): a cell's
//! payload ([`CellData`]), a baseline ([`WorkloadBaseline`]) and a
//! quarantine ([`FailureRecord`]) each have one field writer and one
//! reader. A cache log row is one cell payload behind its key. A shard
//! log is a header row, then one `baseline` or `cell` row per finished
//! job (any quarantine nested in it): appended as jobs finish, continued
//! by `--resume`, read by [`parse_shard`], rebuilt by
//! [`ShardRun::to_json`]. Both logs are [`Journal`]s.

use crate::config::{PrefetchMode, SystemConfig};
use crate::experiments::{map_indexed, shard_indices};
use crate::faults::{
    run_isolated, Attempts, FailureClass, FailureRecord, FaultPlan, JobFailure, Journal,
    RetryPolicy,
};
use crate::replay::{replay_params, replay_run_watched, CaptureSource, KeyedCapture};
use crate::rows::{push_sealed, row, seal, unseal, Row, RowWriter};
use crate::system::run_watched;
use etpp_mem::Deadline;
use etpp_telemetry::Registry;
use etpp_trace::format::Fnv1a;
use etpp_workloads::BuiltWorkload;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Version of the result-cache record and shard-log layout. Part of
/// every cache key and of the log header: bumping it orphans (never
/// corrupts) old entries. v2 added the `failed` cell path and the
/// shard-file `failures` section; v3 moved every file onto the one row
/// codec and the one `payload|fnv` frame of [`crate::rows`]; v4 made
/// the progress journal the shard file, one sealed log per shard.
pub const SWEEP_SCHEMA_VERSION: u32 = 4;

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
/// were taken from the shard log or hit the result cache (measured wall
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

/// Canonical configuration hash for one cell: FNV-1a ([`Fnv1a`]) over
/// the fields of the fully-mutated [`SystemConfig`] *as `mode` can read
/// it* ([`SystemConfig::effective_for`] — every field of that, through
/// its derived `Hash`, so any config drift the cell could observe
/// invalidates, and none it could not), the mode key, the escalation
/// decision the cell executed under, the replay front-end parameters,
/// and [`SWEEP_SCHEMA_VERSION`]. Two cells that arrive at the same
/// effective configuration — by different axis paths, or by differing
/// only in fields their mode ignores — share one cache entry;
/// `exec_cell` runs on the same projection, so key and simulation
/// cannot disagree. Nothing is rendered or allocated: the key costs a
/// few hundred bytes of hashing per job.
pub fn cell_config_hash(cfg: &SystemConfig, mode: PrefetchMode, escalate: bool) -> u64 {
    let mut h = Fnv1a::default();
    h.write(b"etpp-sweep-cell");
    cfg.effective_for(mode).hash(&mut h);
    h.write(mode.key().as_bytes());
    h.write_u8(escalate as u8);
    replay_params().hash(&mut h);
    h.write_u64(u64::from(SWEEP_SCHEMA_VERSION));
    h.finish()
}

/// The result-cache log of a `--cache-dir`: one file, named by the
/// schema version, so a schema bump orphans (never opens) the old log.
pub fn cache_log_path(dir: &Path) -> PathBuf {
    dir.join(format!("cells-s{SWEEP_SCHEMA_VERSION}.jsonl"))
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

/// The payload of one executed cell: what a result-cache row stores
/// behind its key and what a shard-log cell row carries; speedups are
/// derived at assembly from the workload baseline.
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

    /// One result-cache row, unsealed: the cell's key — `(trace content
    /// hash, [`cell_config_hash`])` — then its payload.
    fn keyed_row(&self, (trace, config): (u64, u64)) -> String {
        row(|w| {
            w.raw("trace", format_args!("\"{trace:016x}\""))
                .raw("config", format_args!("\"{config:016x}\""));
            self.write(w);
        })
    }

    /// One line of the result-cache log: the keyed row, sealed.
    pub fn to_record(&self, key: (u64, u64)) -> String {
        seal(&self.keyed_row(key))
    }

    /// Reads one line of the result-cache log back as its key and
    /// payload. `None` means torn, corrupt or drifted — not a whole
    /// keyed row; the run that reads it counts it evicted.
    pub fn from_record(line: &[u8]) -> Option<((u64, u64), CellData)> {
        let row = Row::parse(unseal(std::str::from_utf8(line).ok()?)?)?;
        let hash = |key| u64::from_str_radix(&row.str(key).ok()?, 16).ok();
        Some((
            (hash("trace")?, hash("config")?),
            CellData::read(&row).ok()?,
        ))
    }
}

/// The result cache of one `--cache-dir`: its log ([`cache_log_path`]),
/// read once into a key index, and appended to as cells simulate.
struct ResultCache {
    path: PathBuf,
    log: Mutex<Journal>,
    index: Mutex<HashMap<(u64, u64), CellData>>,
}

impl ResultCache {
    /// Opens `dir`'s log and indexes every whole keyed row in it.
    /// Returns the cache and the number of lines that were not whole
    /// rows (torn or corrupt); when there are any, the log is rewritten
    /// without them, so they are counted once.
    fn open(dir: &Path) -> std::io::Result<(ResultCache, u64)> {
        let path = cache_log_path(dir);
        let (mut log, bytes) = Journal::open_shared(&path)?;
        let mut index = HashMap::new();
        let mut corrupt = 0u64;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            match CellData::from_record(line) {
                Some((key, d)) => {
                    index.insert(key, d);
                }
                None => corrupt += 1,
            }
        }
        if corrupt > 0 {
            log.rewrite(&bytes, |line| CellData::from_record(line).is_some())?;
            eprintln!(
                "[sweep] evicted {corrupt} corrupt row(s) from {}",
                path.display()
            );
        }
        let cache = ResultCache {
            path,
            log: Mutex::new(log),
            index: Mutex::new(index),
        };
        Ok((cache, corrupt))
    }

    fn index(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, u64), CellData>> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: (u64, u64)) -> Option<CellData> {
        self.index().get(&key).copied()
    }

    /// Appends `d` under `key` (no fsync: a lost row costs a
    /// re-execution, never a result) and serves it to later lookups —
    /// unless the fault plan tears the write (`tear`, in bytes), which
    /// leaves a broken line and serves nothing.
    fn put(&self, key: (u64, u64), d: CellData, tear: Option<u64>) {
        let payload = d.keyed_row(key);
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let whole = match tear {
            None => log.append(&payload, false).map(|()| true),
            Some(at) => log.append_torn(&payload, at),
        };
        drop(log);
        match whole {
            Ok(true) => {
                self.index().insert(key, d);
            }
            Ok(false) => {}
            Err(e) => eprintln!("[sweep] could not cache to {}: {e}", self.path.display()),
        }
    }
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
    /// Shard-log path ([`shard_path`]): every finished job is appended
    /// to it, for checkpoint–resume and merging (`None` disables); see
    /// [`run_sweep`] for when a row is fsync'd.
    pub journal: Option<PathBuf>,
    /// Continue an existing log instead of starting fresh.
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
/// One type in memory and in the shard log.
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
    /// The cell's own fields of its shard-log row; the speedup keeps
    /// four decimals, the precision every table prints.
    fn write(&self, w: &mut RowWriter<'_>) {
        w.raw("index", self.index)
            .str("workload", self.workload)
            .str("mode", self.mode.key())
            .str("settings", &settings_string(&self.settings));
        CellData {
            path: self.path,
            cycles: self.cycles,
            host_iters: self.host_iters,
            dep_stalls: self.dep_stalls,
            validated: self.validated,
        }
        .write(w);
        match self.speedup {
            Some(s) => w.raw("speedup", format_args!("{s:.4}")),
            None => w.raw("speedup", "null"),
        }
        .str("cache", if self.cached { "hit" } else { "miss" });
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
    /// Content hash of each workload's trace, in workload order (a log
    /// of another trace corpus is never resumed).
    pub traces: Vec<u64>,
    /// Baselines for every workload this shard touched.
    pub baselines: Vec<WorkloadBaseline>,
    /// This shard's cells, ascending by flat index.
    pub cells: Vec<CellResult>,
    /// Quarantined jobs (baselines first, then cells by index), each
    /// nested in its job's log row.
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

    /// Jobs skipped because the resumed shard log already held them.
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
            (self.journal_hits(), "resumed from the shard log"),
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
/// Corruption (a torn write, a bit flip, schema drift) was dealt with
/// when the log was read ([`ResultCache::open`]): a line that is not a
/// whole keyed row serves nothing, so it can cost a re-execution but
/// never poison a result.
#[allow(clippy::too_many_arguments)]
fn cached_exec(
    cache: Option<&ResultCache>,
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
    if let Some(d) = cache.and_then(|c| c.get(key)) {
        counters.hits.fetch_add(1, Ordering::Relaxed);
        return (d, true);
    }
    let d = exec_cell(cfg, mode, wl, records, escalate, deadline);
    counters.misses.fetch_add(1, Ordering::Relaxed);
    if d.path == CellPath::Cycle {
        counters.escalated.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(c) = cache {
        c.put(key, d, tear);
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
    attempts: Attempts,
    quarantined: AtomicU64,
    journal_hits: AtomicU64,
    timeouts: AtomicU64,
}

// ---------------------------------------------------------------------------
// Shard-log rows
// ---------------------------------------------------------------------------

/// One finished job's log row: `kind`, the job's own fields, and — when
/// the job was quarantined — its whole failure row nested under
/// `"failure"`.
fn job_row(
    w: &mut RowWriter<'_>,
    kind: &str,
    fields: impl FnOnce(&mut RowWriter<'_>),
    failure: Option<&FailureRecord>,
) {
    w.str("kind", kind);
    fields(w);
    if let Some(f) = failure {
        w.nested("failure", |n| f.write(n));
    }
}

/// A job row of a shard log, read back; a cell keeps its payload too,
/// which is what a resumed run rebuilds it from.
enum JobRow {
    Baseline(WorkloadBaseline),
    Cell(ParsedCell, CellData),
}

/// Reads one job row ([`job_row`]) and its nested failure, if any.
fn read_job_row(payload: &str) -> Result<(JobRow, Option<FailureRecord>), String> {
    let row = Row::parse(payload).ok_or("not a row")?;
    let failure = (row.nested("failure").ok())
        .map(|raw| FailureRecord::read(&Row::parse(raw).ok_or("malformed failure row")?))
        .transpose()?;
    let job = match &*row.str("kind")? {
        "baseline" => JobRow::Baseline(WorkloadBaseline::read(&row)?),
        "cell" => {
            let d = CellData::read(&row)?;
            JobRow::Cell(ParsedCell::read(&row, d)?, d)
        }
        other => return Err(format!("unknown row kind {other:?}")),
    };
    Ok((job, failure))
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
/// than aborting the shard. With `opts.journal` set, every finished job
/// is appended to that shard log, and `opts.resume` takes the jobs an
/// existing log already holds instead of re-executing them. A row is
/// fsync'd when its job simulated; a row the result cache served is
/// not (losing it to a crash only makes `--resume` serve it from the
/// cache again), and the log is synced once when the run ends.
///
/// With `opts.cache_dir` set, the directory's result-cache log is read
/// once, up front, into a key index; every lookup is served from that
/// index, and every simulated cell is appended to the log as one write
/// and served to the followers of its key.
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
    // The shard's identity is known before any job runs (the log header
    // needs it); its rows are filled in at the end.
    let run = ShardRun {
        sweep: spec.name,
        scale: opts.scale_label.clone(),
        trace_format: etpp_trace::FORMAT_VERSION,
        shard: (k, n),
        total_jobs: total,
        traces: captures.iter().map(|c| c.content_hash).collect(),
        baselines: Vec::new(),
        cells: Vec::new(),
        failures: Vec::new(),
        registry: Registry::new(),
    };
    let counters = SweepCounters::default();
    let opened = opts.cache_dir.as_deref().map(|dir| {
        ResultCache::open(dir).map_err(|e| {
            let path = cache_log_path(dir);
            eprintln!("[sweep] result cache disabled ({}: {e})", path.display());
        })
    });
    let (cache, corrupt_evicted) = match opened {
        Some(Ok((cache, corrupt))) => (Some(cache), corrupt),
        _ => (None, 0),
    };
    let cache = cache.as_ref();
    let baseline_hash = |escalate| cell_config_hash(&spec.base, PrefetchMode::None, escalate);
    let plan = opts.faults.as_ref();
    let completed = AtomicU64::new(0);

    // Checkpoint–resume: open (or start) the shard log and index, by
    // flat job index and by workload, whatever finished jobs survive
    // its integrity checks. A row that does not read back whole donates
    // nothing: its job simply re-runs.
    let (mut resumed_cells, mut resumed_baselines) = (HashMap::new(), HashMap::new());
    let log: Option<Mutex<Journal>> = opts.journal.as_ref().and_then(|path| {
        let header = row(|w| run.write_header(w));
        let opened = if opts.resume {
            Journal::resume(path, &header).map(|(j, rows)| {
                for (job, failure) in rows.iter().filter_map(|r| read_job_row(r).ok()) {
                    match job {
                        JobRow::Baseline(b) => {
                            resumed_baselines.insert(b.workload.clone(), (b, failure));
                        }
                        JobRow::Cell(c, d) => {
                            resumed_cells.insert(c.index, (d, failure));
                        }
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
                eprintln!("[sweep] shard log disabled ({}: {e})", path.display());
                None
            }
        }
    });
    // Appends a finished job's row, fsync'd if the job simulated (`sync`);
    // built only if a log is open.
    let log_job =
        |kind: &str, fields: &dyn Fn(&mut RowWriter<'_>), failure: Option<&_>, sync: bool| {
            if let Some(Ok(mut log)) = log.as_ref().map(Mutex::lock) {
                if let Err(e) = log.append(&row(|w| job_row(w, kind, fields, failure)), sync) {
                    eprintln!("[sweep] shard log append failed: {e}");
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
            if let Some((b, failure)) = resumed_baselines.get(wl.name) {
                counters.journal_hits.fetch_add(1, Ordering::Relaxed);
                return (b.clone(), failure.clone());
            }
            // Whether every lookup of this baseline hit the cache.
            let served = AtomicBool::new(true);
            let exec = |escalate: bool| {
                let (d, hit) = cached_exec(
                    cache,
                    (cap.content_hash, baseline_hash(escalate)),
                    &spec.base,
                    PrefetchMode::None,
                    wl,
                    &cap.trace.records,
                    escalate,
                    None,
                    None,
                    &counters,
                );
                served.fetch_and(hit, Ordering::Relaxed);
                d
            };
            let wall_start = Instant::now();
            let computed = run_isolated(&opts.retry, wi, &counters.attempts, None, |attempt, _| {
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
            let sync = failure.is_some() || !served.load(Ordering::Relaxed);
            log_job("baseline", &|w| b.write(w), failure.as_ref(), sync);
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
    // `jobs`. Jobs taken from the log execute nothing, so they
    // represent nothing.
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
            if let Some((d, failure)) = resumed_cells.get(&job) {
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
                Some(bl) => run_isolated(
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
                            cache,
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
            let cell = assemble(d, hit);
            log_job("cell", &|w| cell.write(w), failure.as_ref(), !cell.cached);
            if let Some(p) = plan {
                p.maybe_kill(completed.fetch_add(1, Ordering::Relaxed) + 1);
            }
            (cell, failure)
        });
    if let Some(Ok(log)) = log.as_ref().map(Mutex::lock) {
        if let Err(e) = log.sync() {
            eprintln!("[sweep] shard log sync failed: {e}");
        }
    }
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
        ("sweep.cache.corrupt_evicted", corrupt_evicted),
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
// Shard logs: serialisation, parsing, merging, rendering
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
    /// The header row a shard log opens with. Merges refuse to mix
    /// sweeps, scales, trace formats or shard universes; resume discards
    /// a log whose header differs, gate and trace hashes included. The
    /// fault plan is left out: a run killed *by* an injected fault
    /// resumes under a clean plan against the same log.
    fn write_header(&self, w: &mut RowWriter<'_>) {
        let traces: Vec<String> = self.traces.iter().map(|h| format!("{h:016x}")).collect();
        w.raw("schema", SWEEP_SCHEMA_VERSION)
            .str("sweep", self.sweep)
            .str("scale", &self.scale)
            .raw("trace_format", self.trace_format)
            .raw("shard", self.shard.0)
            .raw("of", self.shard.1)
            .raw("total_jobs", self.total_jobs)
            .str(
                "gate_bits",
                &format!("{:016x}", DEFAULT_AGREEMENT_GATE.to_bits()),
            )
            .str("traces", &traces.join(","));
    }

    /// The shard's log, built from memory: the header row, then one row
    /// per baseline and per cell in index order, each with its
    /// quarantine nested — the rows [`run_sweep`] appends as jobs
    /// finish, so [`parse_shard`] reads either the same way.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(400 * (self.cells.len() + 4));
        push_sealed(&mut out, |w| self.write_header(w));
        let failure_of =
            |index, wl: &str| (self.failures.iter()).find(|f| f.index == index && f.workload == wl);
        for b in &self.baselines {
            let failure = failure_of(None, &b.workload);
            push_sealed(&mut out, |w| {
                job_row(w, "baseline", |w| b.write(w), failure)
            });
        }
        for c in &self.cells {
            let failure = failure_of(Some(c.index), c.workload);
            push_sealed(&mut out, |w| job_row(w, "cell", |w| c.write(w), failure));
        }
        out
    }
}

/// A parsed shard-log cell row.
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
    /// Host driver iterations.
    pub host_iters: u64,
    /// Dependence-edge stalls (replay path only).
    pub dep_stalls: u64,
    /// Speedup over the workload baseline.
    pub speedup: Option<f64>,
    /// Validation outcome.
    pub validated: bool,
}

impl ParsedCell {
    fn read(row: &Row<'_>, d: CellData) -> Result<ParsedCell, String> {
        Ok(ParsedCell {
            index: row.get("index")?,
            workload: row.str("workload")?.into_owned(),
            mode: row.str("mode")?.into_owned(),
            settings: row.str("settings")?.into_owned(),
            path: d.path.as_str().to_string(),
            cycles: d.cycles,
            host_iters: d.host_iters,
            dep_stalls: d.dep_stalls,
            speedup: row.get("speedup").ok(),
            validated: d.validated,
        })
    }
}

/// A parsed shard log — or several merged into the one an unsharded
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

/// Parses one shard log — as [`run_sweep`] appended it, in completion
/// order, or as [`ShardRun::to_json`] built it. Cells come back sorted
/// by index, and quarantines baseline failures first, then by index.
///
/// # Errors
/// A message naming the line: one that fails its seal (torn or
/// corrupt), a header of another schema, or a row with a missing or
/// malformed field.
pub fn parse_shard(log: &str) -> Result<ShardFile, String> {
    let mut lines = log.split_inclusive('\n').zip(1..).map(|(line, n)| {
        unseal(line)
            .map(|payload| (n, payload))
            .ok_or_else(|| format!("line {n} fails its seal (torn or corrupt)"))
    });
    let (_, header) = lines.next().ok_or("not a shard log: no header row")??;
    let header = Row::parse(header).ok_or("malformed header row")?;
    let schema: u32 = header.get("schema")?;
    if schema != SWEEP_SCHEMA_VERSION {
        return Err(format!(
            "shard schema {schema} != supported {SWEEP_SCHEMA_VERSION}"
        ));
    }
    let mut file = ShardFile {
        sweep: header.str("sweep")?.into_owned(),
        scale: header.str("scale")?.into_owned(),
        trace_format: header.get("trace_format")?,
        shard: header.get("shard")?,
        of: header.get("of")?,
        total_jobs: header.get("total_jobs")?,
        baselines: Vec::new(),
        cells: Vec::new(),
        failures: Vec::new(),
    };
    for line in lines {
        let (n, payload) = line?;
        let (job, failure) = read_job_row(payload).map_err(|e| format!("line {n}: {e}"))?;
        match job {
            JobRow::Baseline(b) => file.baselines.push(b),
            JobRow::Cell(c, _) => file.cells.push(c),
        }
        file.failures.extend(failure);
    }
    file.cells.sort_by_key(|c| c.index);
    file.failures.sort_by(failure_order);
    Ok(file)
}

/// Where shard `k` of `n` keeps its log inside a sweep directory.
pub fn shard_path(dir: &Path, (k, n): (usize, usize)) -> PathBuf {
    dir.join(format!("shard-{k}-of-{n}.jsonl"))
}

/// Reads every shard log (`shard-*.jsonl`) of a sweep directory, in
/// name order.
///
/// # Errors
/// An unreadable directory or file, a directory without shard logs, or
/// a log that does not parse — each naming the path.
pub fn read_shard_dir(dir: &Path) -> Result<Vec<ShardFile>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no shard-*.jsonl files in {}", dir.display()));
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
    // shard log carries them bit-exact) — a mismatch means shards ran
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

    /// The literal keys of the paper config. A derive, field order or
    /// hasher change that moves them orphans every existing result
    /// cache, so it must be deliberate: re-pin here and say so.
    #[test]
    fn paper_config_keys_are_pinned() {
        let cfg = SystemConfig::paper();
        let key = |mode| format!("{:016x}", cell_config_hash(&cfg, mode, false));
        assert_eq!(key(PrefetchMode::None), "83e2483928aa96c9");
        assert_eq!(key(PrefetchMode::Manual), "3fd424b3e8efb101");
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
        let key = (0xaa, u64::MAX - 1);
        let record = d.to_record(key);
        assert!(
            record.starts_with(
                "{\"trace\": \"00000000000000aa\", \"config\": \"fffffffffffffffe\", \
                 \"path\": \"replay\", \"cycles\": 123456, "
            ),
            "{record}"
        );
        assert_eq!(CellData::from_record(record.as_bytes()), Some((key, d)));
        // Counts above 2^53 survive: integers never pass through f64.
        let big = CellData {
            cycles: u64::MAX,
            ..d
        };
        assert_eq!(
            CellData::from_record(big.to_record(key).as_bytes()),
            Some((key, big))
        );
        // A schema bump orphans the log by file name: the version is part
        // of its name (and of the config hash), so a reader never opens
        // another schema's log.
        assert_eq!(SWEEP_SCHEMA_VERSION, 4);
        let path = cache_log_path(Path::new("cache"));
        assert_eq!(path, Path::new("cache/cells-s4.jsonl"));
    }

    #[test]
    fn cell_record_trailer_rejects_corruption() {
        let d = CellData::FAILED;
        let key = (1, 2);
        let record = d.to_record(key);
        assert_eq!(CellData::from_record(record.as_bytes()), Some((key, d)));
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
        // A correctly sealed row that is not a whole keyed cell payload
        // is schema drift, as is an unknown path, a missing or malformed
        // key, and the unkeyed payload an older cache file held.
        let drifted =
            seal("{\"trace\": \"1\", \"config\": \"2\", \"path\": \"replay\", \"cycles\": 1}");
        assert_eq!(CellData::from_record(drifted.as_bytes()), None);
        let keyed = d.keyed_row(key);
        for edit in [
            keyed.replace("failed", "warp"),
            keyed.replace("\"trace\"", "\"trail\""),
            keyed.replace("\"0000000000000002\"", "\"00000000000000g2\""),
            keyed.replace("\"0000000000000002\"", "2"),
            row(|w| d.write(w)),
        ] {
            assert_eq!(
                CellData::from_record(seal(&edit).as_bytes()),
                None,
                "{edit}"
            );
        }
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
            host_iters: 1,
            dep_stalls: 0,
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

    fn probe_run() -> ShardRun {
        let cell = |index, path, cycles, speedup| CellResult {
            index,
            workload: "IntSort",
            mode: PrefetchMode::Manual,
            settings: vec![("obs_queue", 10), ("pf_buffer", 16)],
            path,
            cycles,
            host_iters: 10,
            dep_stalls: 2,
            validated: path != CellPath::Failed,
            speedup,
            cached: false,
        };
        ShardRun {
            sweep: "probe",
            scale: "tiny".into(),
            trace_format: 2,
            shard: (1, 4),
            total_jobs: 24,
            traces: vec![0xabc, 0xdef],
            baselines: vec![WorkloadBaseline {
                workload: "IntSort".into(),
                replay_cycles: 1000,
                capture_cycles: 1100,
                agreement: Some(1000.0 / 1100.0),
                escalate: false,
                reference_cycles: 1000,
            }],
            cells: vec![
                cell(1, CellPath::Replay, 500, Some(2.0)),
                cell(2, CellPath::Failed, 0, None),
            ],
            failures: vec![nasty_failure()],
            registry: Registry::new(),
        }
    }

    #[test]
    fn shard_json_round_trips() {
        let run = probe_run();
        let log = run.to_json();
        // One sealed row per line, header first, `"key": value` spacing
        // (CI greps rely on it); the quarantine rides in its cell's row.
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1 + 1 + 2, "{log}");
        assert!(lines[0].starts_with("{\"schema\": 4, \"sweep\": \"probe\", "));
        assert!(lines[0].contains("\"traces\": \"0000000000000abc,0000000000000def\""));
        assert!(lines[1].starts_with("{\"kind\": \"baseline\", \"workload\": \"IntSort\", "));
        assert!(
            lines[2].starts_with("{\"kind\": \"cell\", \"index\": 1, \"workload\": \"IntSort\", ")
        );
        assert!(lines[2].contains("\"speedup\": 2.0000, \"cache\": \"miss\"}|"));
        assert!(
            lines[3].contains("\"failure\": {\"index\": 2, "),
            "{}",
            lines[3]
        );
        let f = parse_shard(&log).unwrap();
        assert_eq!(f.sweep, "probe");
        assert_eq!(f.scale, "tiny");
        assert_eq!(f.trace_format, 2);
        assert_eq!((f.shard, f.of, f.total_jobs), (1, 4, 24));
        // Baselines come back whole and bit-exact, agreement included.
        assert_eq!(f.baselines, run.baselines);
        assert_eq!(f.cells.len(), 2);
        let c = &f.cells[0];
        assert_eq!(
            (c.index, c.workload.as_str(), c.mode.as_str()),
            (1, "IntSort", "manual")
        );
        assert_eq!(c.settings, "obs_queue=10 pf_buffer=16");
        assert_eq!(
            (c.path.as_str(), c.cycles, c.host_iters, c.dep_stalls),
            ("replay", 500, 10, 2)
        );
        assert!(c.validated);
        assert_eq!(c.speedup, Some(2.0));
        assert_eq!(f.cells[1].path, "failed");
        // The failure row is the record itself: class, attempts, config
        // hash and the error text byte for byte.
        assert_eq!(f.failures, run.failures);
        assert_eq!(f.failures[0].error, NASTY);

        // Rendered, the multi-line error stays one table row.
        let table = render_merged(&f);
        let rows = table.lines().filter(|l| l.starts_with("| 2 |")).count();
        assert_eq!(rows, 2, "the FAILED cell and its quarantine: {table}");
        assert!(table.contains("\"boom\" C:\\tmp / line1 line2"), "{table}");

        // Completion order reads as index order.
        let shuffled = [lines[0], lines[3], lines[2], lines[1]].map(|l| format!("{l}\n"));
        let g = parse_shard(&shuffled.concat()).unwrap();
        assert_eq!(format!("{:?}", g.cells), format!("{:?}", f.cells));
        assert_eq!(g.failures, f.failures);

        // A skipped cell has no speedup; an empty shard still parses.
        let mut run = run;
        run.cells[0].speedup = None;
        let f = parse_shard(&run.to_json()).unwrap();
        assert_eq!(f.cells[0].speedup, None);
        run.baselines.clear();
        run.cells.clear();
        run.failures.clear();
        let f = parse_shard(&run.to_json()).unwrap();
        assert!(f.baselines.is_empty() && f.cells.is_empty() && f.failures.is_empty());

        // Errors name what is wrong, and where.
        let resealed = |at: usize, edit: &dyn Fn(&str) -> String| {
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                let payload = unseal(&format!("{l}\n")).unwrap().to_string();
                out += &seal(&if i == at { edit(&payload) } else { payload });
            }
            out
        };
        let err = parse_shard(&resealed(0, &|p| {
            p.replace("\"schema\": 4", "\"schema\": 3")
        }))
        .unwrap_err();
        assert!(err.contains("shard schema 3 != supported 4"), "{err}");
        let err = parse_shard(&resealed(2, &|p| p.replace("\"cycles\": 500, ", ""))).unwrap_err();
        assert!(
            err.starts_with("line 3: ") && err.contains("\"cycles\""),
            "{err}"
        );
        let err = parse_shard(&resealed(1, &|p| p.replace("baseline", "warp"))).unwrap_err();
        assert!(err.contains("line 2: unknown row kind \"warp\""), "{err}");
        let err = parse_shard(&log.replacen("500", "501", 1)).unwrap_err();
        assert_eq!(err, "line 3 fails its seal (torn or corrupt)");
        let err = parse_shard(&log[..log.len() - 1]).unwrap_err();
        assert_eq!(err, "line 4 fails its seal (torn or corrupt)");
        assert!(parse_shard("").unwrap_err().contains("no header"));
    }

    #[test]
    fn log_rows_round_trip_bit_exact() {
        let b = WorkloadBaseline {
            workload: "HJ-8".into(),
            replay_cycles: 12345,
            capture_cycles: 13000,
            agreement: Some(12345.0 / 13000.0),
            escalate: false,
            reference_cycles: 12345,
        };
        let read = |kind, fields: &dyn Fn(&mut RowWriter<'_>), failure| {
            let line = row(|w| job_row(w, kind, fields, failure));
            assert!(!line.contains('\n'), "log rows are single lines");
            read_job_row(&line)
        };
        let Ok((JobRow::Baseline(back), None)) = read("baseline", &|w| b.write(w), None) else {
            panic!("own baseline row reads back");
        };
        // Bit-exact, not approximate: resumed merges must stay
        // byte-identical.
        assert_eq!(
            back.agreement.map(f64::to_bits),
            b.agreement.map(f64::to_bits)
        );
        assert_eq!(back, b);
        // No reference is `null`, not a number.
        let unreferenced = WorkloadBaseline {
            agreement: None,
            ..b.clone()
        };
        let Ok((JobRow::Baseline(back), None)) = read("baseline", &|w| unreferenced.write(w), None)
        else {
            panic!("unreferenced baseline reads back");
        };
        assert_eq!(back, unreferenced);

        let rec = FailureRecord {
            index: Some(2),
            class: FailureClass::Livelock,
            ..nasty_failure()
        };
        let failed = &probe_run().cells[1];
        let Ok((JobRow::Cell(c, d), failure)) = read("cell", &|w| failed.write(w), Some(&rec))
        else {
            panic!("own cell row reads back");
        };
        // The cell rebuilds from its row, and the whole record comes
        // back — class, attempts, config hash and the error text byte
        // for byte — so a resumed run reports exactly the quarantine its
        // first run did.
        assert_eq!((c.index, c.path.as_str()), (2, "failed"));
        let payload = CellData {
            host_iters: 10,
            dep_stalls: 2,
            ..CellData::FAILED
        };
        assert_eq!(d, payload);
        assert_eq!(failure.as_ref(), Some(&rec));
        // A clean cell carries no failure.
        assert!(matches!(
            read("cell", &|w| failed.write(w), None),
            Ok((JobRow::Cell(..), None))
        ));
        // Rows that do not read back whole donate nothing.
        for bad in [
            "not json",
            "{\"kind\": \"cell\", \"index\": 3}",
            "{\"kind\": \"header\"}",
            "{\"kind\": \"baseline\", \"workload\": \"W\", \"replay_cycles\": 1, \
             \"capture_cycles\": 1, \"agreement\": null, \"escalate\": false, \
             \"reference_cycles\": 1, \"failure\": {}}",
        ] {
            assert!(read_job_row(bad).is_err(), "{bad}");
        }
    }
}
