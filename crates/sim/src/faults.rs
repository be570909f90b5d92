//! Fail-soft machinery for the sweep farm: panic isolation with
//! bounded retry, deterministic fault injection, quarantine records,
//! and the crash-safe append-only log behind `repro --sweep --resume`.
//!
//! The design principle (borrowed from runtime-reconfigurable systems:
//! degrade per cell, never per fleet) is that **no single bad input —
//! a panicking cell, a torn cache write, a corrupt trace — may abort a
//! grid**. Each job runs inside [`run_isolated`]: a panic is caught,
//! retried up to [`MAX_ATTEMPTS`] times in all with deterministic
//! backoff, and finally *quarantined* as a [`JobFailure`] while the
//! rest of the grid completes. Quarantines surface three ways: a
//! `FAILED` row in the merged tables, a [`FailureRecord`] nested in the
//! job's row of the shard log, and the `sweep.quarantined` counter. The
//! record is one row ([`crate::rows`]) with one writer and one reader.
//! Counts are per run, never process-wide: the caller hands each
//! isolated job the run's [`Attempts`], which tallies retries and
//! livelocked attempts. A job given a budget runs every attempt under
//! its own [`Deadline`], escalated on retry.
//!
//! Faults themselves are injectable on purpose: a [`FaultPlan`] is a
//! pure function of job index and attempt number (no wall clock, no
//! RNG state) so `tests/fault_injection.rs` can assert bit-exact
//! convergence between a faulted-and-recovered run and a clean one.
//!
//! The [`Journal`] is the checkpoint–resume half: an append-only file
//! of sealed lines ([`crate::rows::seal`]: `payload|fnv16hex`), so a
//! crash mid-write leaves at worst one torn line, which readers detect
//! and the next append steps past. A sweep shard's journal is its shard
//! log, the one file `--sweep-merge` reads; a `--cache-dir`'s is its
//! result-cache log, shared by every shard over that directory.

use crate::rows::{seal, unseal, Row, RowWriter};
use etpp_cpu::LivelockAbort;
use etpp_mem::{Cancelled, Deadline};
use std::any::Any;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Read as _, Seek, SeekFrom, Write as _};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Retry policy + panic isolation
// ---------------------------------------------------------------------------

/// Budget escalation factor for the single timeout retry: the second
/// attempt of a timed-out cell runs under `factor × budget` before the
/// cell is quarantined for good.
pub const BUDGET_ESCALATION: u32 = 4;

/// Attempts [`run_isolated`] gives a panicking job before quarantining it.
pub const MAX_ATTEMPTS: u32 = 3;

/// How [`run_isolated`] treats a panicking job.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Base backoff between attempts; attempt `k` sleeps `k × backoff`
    /// (deterministic — no jitter, so reruns behave identically).
    pub backoff_ms: u64,
    /// `true` restores abort-on-first-failure: panics propagate
    /// uncaught (the CI-gate mode behind `repro --strict`).
    pub strict: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backoff_ms: 10,
            strict: false,
        }
    }
}

/// Classified cause of a quarantined job, derived from the final panic
/// payload. The class picks the recovery path (e.g. a `Timeout` gets
/// exactly one escalated-budget retry) and the telemetry counter it
/// lands in (`sweep.quarantined` / `sweep.timeout`; every attempt that
/// fails as a livelock also counts in `driver.livelock_aborts`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureClass {
    /// An ordinary panic (the PR-8 failure mode; also the default when
    /// parsing records written before classes existed).
    #[default]
    Panic,
    /// The cell's wall-clock budget expired ([`Cancelled`]).
    Timeout,
    /// The driver's livelock detector fired ([`LivelockAbort`]).
    Livelock,
}

impl FailureClass {
    /// Stable lower-case key, as the shard log spells it.
    pub fn key(self) -> &'static str {
        match self {
            FailureClass::Panic => "panic",
            FailureClass::Timeout => "timeout",
            FailureClass::Livelock => "livelock",
        }
    }

    /// Inverse of [`FailureClass::key`]; unknown keys (and the absent
    /// field of pre-class records) parse as [`FailureClass::Panic`].
    pub fn from_key(key: &str) -> FailureClass {
        match key {
            "timeout" => FailureClass::Timeout,
            "livelock" => FailureClass::Livelock,
            _ => FailureClass::Panic,
        }
    }
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A job that exhausted its retry budget: the quarantine row of the
/// worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index the caller passed to [`run_isolated`] (a flat job index
    /// for sweep cells).
    pub index: usize,
    /// Attempts consumed ([`MAX_ATTEMPTS`], or 2 for
    /// timeout/livelock failures).
    pub attempts: u32,
    /// Classified cause of the final failed attempt.
    pub class: FailureClass,
    /// The final panic payload, stringified.
    pub error: String,
}

/// A panic payload that must NOT be isolated: [`run_isolated`] rethrows
/// it instead of retrying. Used for process-level events (the
/// fault-injection `kill=` directive simulating a crash/SIGTERM) that
/// per-cell recovery must not swallow.
#[derive(Debug)]
pub struct FatalFault(
    /// Human-readable reason, surfaced by whoever finally catches it.
    pub String,
);

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = payload.downcast_ref::<Cancelled>() {
        c.to_string()
    } else if let Some(l) = payload.downcast_ref::<LivelockAbort>() {
        l.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classifies a caught panic payload: the watchdog's typed payloads map
/// to their failure class; everything else is a plain panic.
pub fn classify_panic(payload: &(dyn Any + Send)) -> FailureClass {
    if payload.is::<Cancelled>() {
        FailureClass::Timeout
    } else if payload.is::<LivelockAbort>() {
        FailureClass::Livelock
    } else {
        FailureClass::Panic
    }
}

/// What the isolation layer counted over every job it ran: the
/// `sweep.retry` and `driver.livelock_aborts` counters of one sweep.
#[derive(Debug, Default)]
pub struct Attempts {
    /// Re-attempts after a failed attempt.
    pub retries: AtomicU64,
    /// Failed attempts classified as [`FailureClass::Livelock`].
    pub livelocks: AtomicU64,
}

/// Runs `f` with panic isolation under `policy`: catches panics,
/// retries with deterministic backoff, and quarantines into a
/// [`JobFailure`] after the budget is spent; `attempts` counts the
/// retries and the livelocked attempts. `f` receives the zero-based
/// attempt number, so injected faults can be transient (fail attempts
/// `< k`) or permanent, and the attempt's deadline.
///
/// A `Some(budget)` arms each attempt with a fresh [`Deadline`] whose
/// budget escalates by [`BUDGET_ESCALATION`]× per attempt. A zero
/// budget means "explicitly disarmed", and a budget too large to
/// represent means "unbounded": either way `f` sees no deadline.
///
/// Failure classes pick the retry schedule: a plain panic keeps the
/// full [`MAX_ATTEMPTS`], while a timeout or livelock gets
/// exactly one retry — at the escalated budget for timeouts — before
/// quarantine (a hung cell rarely heals, and re-running it is the most
/// expensive retry there is).
///
/// A [`FatalFault`] payload is rethrown immediately — it models the
/// process dying, which retry must not mask. In strict mode `f` runs
/// bare and any panic propagates.
///
/// # Errors
/// The [`JobFailure`] (carrying the classified last failure) once the
/// schedule is exhausted.
pub fn run_isolated<R>(
    policy: &RetryPolicy,
    index: usize,
    attempts: &Attempts,
    budget: Option<Duration>,
    f: impl Fn(u32, Option<Deadline>) -> R,
) -> Result<R, JobFailure> {
    let deadline_for = |attempt: u32| {
        let b = budget.filter(|b| !b.is_zero())?;
        b.checked_mul(BUDGET_ESCALATION.checked_pow(attempt)?)
            .and_then(Deadline::after)
    };
    if policy.strict {
        return Ok(f(0, deadline_for(0)));
    }
    let mut attempt = 0u32;
    loop {
        if attempt > 0 {
            attempts.retries.fetch_add(1, Ordering::Relaxed);
            if policy.backoff_ms > 0 {
                std::thread::sleep(Duration::from_millis(
                    policy.backoff_ms * u64::from(attempt),
                ));
            }
        }
        let deadline = deadline_for(attempt);
        match catch_unwind(AssertUnwindSafe(|| f(attempt, deadline))) {
            Ok(r) => return Ok(r),
            Err(payload) => {
                if payload.is::<FatalFault>() {
                    resume_unwind(payload);
                }
                let class = classify_panic(payload.as_ref());
                if class == FailureClass::Livelock {
                    attempts.livelocks.fetch_add(1, Ordering::Relaxed);
                }
                attempt += 1;
                let schedule = if class == FailureClass::Panic {
                    MAX_ATTEMPTS
                } else {
                    2
                };
                if attempt >= schedule {
                    return Err(JobFailure {
                        index,
                        attempts: attempt,
                        class,
                        error: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault plans
// ---------------------------------------------------------------------------

/// A deterministic set of faults to inject into a sweep run — a pure
/// function of job index / attempt number, never of wall clock or RNG,
/// so a faulted run is exactly reproducible.
///
/// Textual syntax (`repro --fault-inject`), `;`-separated directives:
///
/// * `panic=J@K` — cell with flat job index `J` panics on its first
///   `K` attempts (recovers on attempt `K` if the retry budget allows,
///   else is quarantined);
/// * `bpanic=W@K` — the *baseline* of workload index `W` panics the
///   same way;
/// * `tear=J@B` — the result-cache append of job `J` is torn
///   (truncated) at `B` bytes, leaving a broken line in the cache log:
///   it serves nothing, and the next run to read the log evicts it (a
///   job that hits the cache writes nothing, so nothing tears: name a
///   job that simulates);
/// * `trace=W@OFF` — one byte of workload `W`'s trace file is flipped
///   (XOR `0x55`) at offset `OFF mod len` before the sweep loads it;
/// * `hang=J@P` — cell `J` spins until its deadline expires
///   (polling every `P` ms), on *every* attempt — a hung config does
///   not heal on retry, so the cell times out, retries once at the
///   escalated budget, times out again, and is quarantined;
/// * `slow=J@D` — cell `J` sleeps a deterministic extra `D` ms before
///   executing (every attempt); it still finishes inside its budget,
///   so nothing is quarantined and the rendered tables are unchanged;
/// * `kill=C` — the process "dies" (an uncatchable [`FatalFault`])
///   after `C` cells have completed, for crash/resume testing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    panic_cells: BTreeMap<usize, u32>,
    baseline_panics: BTreeMap<usize, u32>,
    tear_writes: BTreeMap<usize, u64>,
    trace_flips: Vec<(usize, u64)>,
    hangs: BTreeMap<usize, u64>,
    slows: BTreeMap<usize, u64>,
    kill_after: Option<u64>,
}

impl FaultPlan {
    /// Checks that every directive names a job (`J < jobs`), a workload
    /// (`W < workloads`) or a kill count (`1 ≤ C ≤ jobs`) the sweep has:
    /// one that names nothing would silently inject nothing.
    ///
    /// # Errors
    /// The first directive out of range.
    pub fn check(&self, jobs: usize, workloads: usize) -> Result<(), String> {
        let (job, wl) = ((jobs, "job"), (workloads, "workload"));
        let named = (self.panic_cells.keys().map(|&j| ("panic", j, job)))
            .chain(self.tear_writes.keys().map(|&j| ("tear", j, job)))
            .chain(self.hangs.keys().map(|&j| ("hang", j, job)))
            .chain(self.slows.keys().map(|&j| ("slow", j, job)))
            .chain(self.baseline_panics.keys().map(|&w| ("bpanic", w, wl)))
            .chain(self.trace_flips.iter().map(|&(w, _)| ("trace", w, wl)));
        for (key, at, (n, what)) in named {
            if at >= n {
                return Err(format!("{key}={at}: no such {what} (0..{n})"));
            }
        }
        match self.kill_after {
            Some(c) if c == 0 || c > jobs as u64 => Err(format!("kill={c}: outside 1..={jobs}")),
            _ => Ok(()),
        }
    }

    /// Panics (plain payload — retryable) if the plan says cell `job`
    /// fails on this `attempt`.
    pub fn maybe_panic(&self, job: usize, attempt: u32) {
        if let Some(&k) = self.panic_cells.get(&job) {
            if attempt < k {
                panic!("fault-injection: cell {job} panicked (attempt {attempt} of {k} injected)");
            }
        }
    }

    /// Panics if the plan says workload `wi`'s baseline fails on this
    /// `attempt`.
    pub fn maybe_panic_baseline(&self, wi: usize, attempt: u32) {
        if let Some(&k) = self.baseline_panics.get(&wi) {
            if attempt < k {
                panic!(
                    "fault-injection: baseline {wi} panicked (attempt {attempt} of {k} injected)"
                );
            }
        }
    }

    /// Byte length to tear job `job`'s cache append at, if any.
    pub fn tear_at(&self, job: usize) -> Option<u64> {
        self.tear_writes.get(&job).copied()
    }

    /// Spins until `deadline` expires if the plan hangs cell `job` —
    /// the deterministic stand-in for a cell that never finishes. Every
    /// attempt hangs (a livelocked config does not heal on retry), so
    /// the watchdog path runs end to end: timeout, escalated retry,
    /// quarantine. Panics with a plain payload if no deadline is armed
    /// — an unwatched hang would stall the worker forever, which is
    /// exactly the regression this directive exists to catch.
    pub fn maybe_hang(&self, job: usize, deadline: Option<Deadline>) {
        if let Some(&poll_ms) = self.hangs.get(&job) {
            let Some(deadline) = deadline else {
                panic!("fault-injection: cell {job} hung with no watchdog armed");
            };
            loop {
                deadline.check(0);
                std::thread::sleep(Duration::from_millis(poll_ms.max(1)));
            }
        }
    }

    /// Sleeps the plan's deterministic delay for cell `job`, if any —
    /// a slow-but-finishing cell that must *not* be quarantined.
    pub fn maybe_slow(&self, job: usize) {
        if let Some(&delay_ms) = self.slows.get(&job) {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
    }

    /// Simulates a crash — raises a [`FatalFault`] — once `completed`
    /// cells have finished. Call with a running completion count. It
    /// unwinds without the panic hook, so the pool's other workers stop
    /// at once rather than after a backtrace is printed.
    pub fn maybe_kill(&self, completed: u64) {
        if self.kill_after == Some(completed) {
            let reason = format!("fault-injection: kill after {completed} completed cells");
            eprintln!("{reason}");
            resume_unwind(Box::new(FatalFault(reason)));
        }
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for item in s.split(';').map(str::trim).filter(|i| !i.is_empty()) {
            let (key, val) = item
                .split_once('=')
                .ok_or_else(|| format!("fault directive without '=': {item:?}"))?;
            let pair = |v: &str| -> Result<(u64, u64), String> {
                let (a, b) = v
                    .split_once('@')
                    .ok_or_else(|| format!("{key}= takes A@B, got {v:?}"))?;
                Ok((
                    a.parse().map_err(|_| format!("bad number in {item:?}"))?,
                    b.parse().map_err(|_| format!("bad number in {item:?}"))?,
                ))
            };
            match key {
                "panic" => {
                    let (j, k) = pair(val)?;
                    plan.panic_cells.insert(j as usize, k as u32);
                }
                "bpanic" => {
                    let (w, k) = pair(val)?;
                    plan.baseline_panics.insert(w as usize, k as u32);
                }
                "tear" => {
                    let (j, b) = pair(val)?;
                    plan.tear_writes.insert(j as usize, b);
                }
                "trace" => {
                    let (w, off) = pair(val)?;
                    plan.trace_flips.push((w as usize, off));
                }
                "hang" => {
                    let (j, poll_ms) = pair(val)?;
                    plan.hangs.insert(j as usize, poll_ms);
                }
                "slow" => {
                    let (j, delay_ms) = pair(val)?;
                    plan.slows.insert(j as usize, delay_ms);
                }
                "kill" => {
                    plan.kill_after =
                        Some(val.parse().map_err(|_| format!("bad number in {item:?}"))?);
                }
                other => return Err(format!("unknown fault directive {other:?} in {item:?}")),
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut items = Vec::new();
        for (j, k) in &self.panic_cells {
            items.push(format!("panic={j}@{k}"));
        }
        for (w, k) in &self.baseline_panics {
            items.push(format!("bpanic={w}@{k}"));
        }
        for (j, b) in &self.tear_writes {
            items.push(format!("tear={j}@{b}"));
        }
        for (w, off) in &self.trace_flips {
            items.push(format!("trace={w}@{off}"));
        }
        for (j, poll_ms) in &self.hangs {
            items.push(format!("hang={j}@{poll_ms}"));
        }
        for (j, delay_ms) in &self.slows {
            items.push(format!("slow={j}@{delay_ms}"));
        }
        if let Some(c) = self.kill_after {
            items.push(format!("kill={c}"));
        }
        write!(f, "{}", items.join(";"))
    }
}

/// Applies a plan's `trace=` flips to on-disk trace files
/// (`trace_paths[wi]` being workload `wi`'s file). XORs one byte with
/// `0x55` at `offset mod file length`; missing paths are skipped (the
/// workload was never captured to disk). Returns the workload indices
/// actually corrupted.
///
/// # Errors
/// I/O failure reading or rewriting a trace file.
pub fn apply_trace_flips(plan: &FaultPlan, trace_paths: &[PathBuf]) -> io::Result<Vec<usize>> {
    let mut touched = Vec::new();
    for &(wi, off) in &plan.trace_flips {
        let Some(path) = trace_paths.get(wi) else {
            continue;
        };
        if !path.exists() {
            continue;
        }
        let mut bytes = fs::read(path)?;
        if bytes.is_empty() {
            continue;
        }
        let i = (off as usize) % bytes.len();
        bytes[i] ^= 0x55;
        fs::write(path, bytes)?;
        if !touched.contains(&wi) {
            touched.push(wi);
        }
    }
    Ok(touched)
}

// ---------------------------------------------------------------------------
// Quarantine records
// ---------------------------------------------------------------------------

/// One quarantined job: the failure row nested in that job's row of
/// the shard log.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Flat job index; `None` for a workload-baseline failure.
    pub index: Option<usize>,
    /// Benchmark name.
    pub workload: String,
    /// Mode key, or `"baseline"` for a baseline failure.
    pub mode: String,
    /// Canonical settings string (`"-"` for baselines).
    pub settings: String,
    /// The cell's [`crate::sweeps::cell_config_hash`].
    pub config_hash: u64,
    /// Classified cause (panic / timeout / livelock).
    pub class: FailureClass,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// Final panic message.
    pub error: String,
}

impl FailureRecord {
    /// The record of `fail`, a job that exhausted its retry schedule.
    pub fn of(
        fail: JobFailure,
        index: Option<usize>,
        workload: &str,
        mode: &str,
        settings: String,
        config_hash: u64,
    ) -> FailureRecord {
        FailureRecord {
            index,
            workload: workload.to_string(),
            mode: mode.to_string(),
            settings,
            config_hash,
            class: fail.class,
            attempts: fail.attempts,
            error: fail.error,
        }
    }

    /// Spells the record's fields into a row.
    pub fn write(&self, w: &mut RowWriter<'_>) {
        w.opt("index", self.index)
            .str("workload", &self.workload)
            .str("mode", &self.mode)
            .str("settings", &self.settings)
            .raw("config_hash", format_args!("\"{:016x}\"", self.config_hash))
            .str("class", self.class.key())
            .raw("attempts", self.attempts)
            .str("error", &self.error);
    }

    /// Reads back what [`FailureRecord::write`] spelled, byte-exact.
    ///
    /// # Errors
    /// Names the missing or malformed field.
    pub fn read(row: &Row<'_>) -> Result<FailureRecord, String> {
        Ok(FailureRecord {
            index: row.get("index").ok(),
            workload: row.str("workload")?.into_owned(),
            mode: row.str("mode")?.into_owned(),
            settings: row.str("settings")?.into_owned(),
            config_hash: u64::from_str_radix(&row.str("config_hash")?, 16)
                .map_err(|e| format!("field \"config_hash\": {e}"))?,
            class: FailureClass::from_key(&row.str("class").unwrap_or_default()),
            attempts: row.get("attempts")?,
            error: row.str("error")?.into_owned(),
        })
    }
}

/// Write-then-rename, creating the parent directory: readers (other
/// shards on a shared directory included) only ever observe complete
/// files. `write` streams the contents into a buffered temp file, so a
/// large file is never held whole; on any error the temp file is
/// removed and `path` is left as it was. The temp name is unique per
/// *writer* — pid plus a process-wide counter — because two workers of
/// one process may publish the same path (two sweeps repairing one
/// result-cache log, or two captures of one trace); a per-process name
/// would let one's rename publish the other's half-written bytes.
pub(crate) fn publish(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    static WRITER: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!(
        "tmp{}-{}",
        std::process::id(),
        WRITER.fetch_add(1, Ordering::Relaxed)
    ));
    let written = fs::File::create(&tmp).and_then(|f| {
        let mut out = BufWriter::new(f);
        write(&mut out)?;
        out.flush()
    });
    let published = written.and_then(|()| fs::rename(&tmp, path));
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published
}

// ---------------------------------------------------------------------------
// Append-only logs: the shard log and the result-cache log
// ---------------------------------------------------------------------------

/// An append-only file of [`seal`]ed lines. One type serves both logs of
/// the sweep farm: a shard's log ([`Journal::create`] /
/// [`Journal::resume`]), which `--resume` continues after a crash, and
/// the result-cache log of a `--cache-dir` (`Journal::open_shared`,
/// used by the sweep farm's result cache), which every shard over that
/// directory reads once and appends to, and which the run that finds a
/// corrupt line in it rewrites without that line.
///
/// Each append is one `write` of one sealed line, synced or not as the
/// caller chooses ([`Journal::append`]); [`Journal::sync`] makes every
/// earlier append durable. A torn tail (a crash mid-write, or an
/// injected tear) is detected by its missing newline or bad hash, and an
/// append after one starts on a fresh line, so a torn line never
/// swallows the row after it.
///
/// A shard log has one writer. Line 0 is a header describing the sweep
/// identity (sweep, scale, shard, trace hashes); [`Journal::resume`]
/// discards the whole file if the header does not match — a journal
/// from a different sweep must never donate progress — and truncates a
/// torn tail away; everything before it is trusted.
///
/// A shared log may have several writers at once, so it is never
/// truncated: each append reopens the file by path in append mode (a
/// log another writer has just rewritten is appended to, not the file
/// it replaced) and checks the file's real last byte before writing. A
/// writer that opened the log just before a rewrite's rename and
/// appends just after its carry-over loses that row; in a result cache
/// that costs one re-execution.
pub struct Journal {
    file: fs::File,
    /// The path of a shared log, reopened for each append.
    shared: Option<PathBuf>,
    /// The last byte written (as far as this writer knows) is not a
    /// newline.
    tail_open: bool,
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any previous one)
    /// with `header` as line 0, synced.
    ///
    /// # Errors
    /// I/O failure creating the directory or file.
    pub fn create(path: &Path, header: &str) -> io::Result<Journal> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let file = fs::File::create(path)?;
        let mut j = Journal {
            file,
            shared: None,
            tail_open: false,
        };
        j.append(header, true)?;
        Ok(j)
    }

    /// Opens `path` for resumption: validates the header and every
    /// entry line, truncates any torn tail, and returns the journal
    /// (positioned for appends) plus the surviving entry payloads. A
    /// missing file, or one whose header differs from `header`, starts
    /// fresh with zero entries.
    ///
    /// # Errors
    /// I/O failure opening or truncating the file.
    pub fn resume(path: &Path, header: &str) -> io::Result<(Journal, Vec<String>)> {
        // Bytes, not a string: a flip that breaks UTF-8 costs the lines
        // from there on, not the whole journal.
        let existing = fs::read(path).unwrap_or_default();
        let mut valid_len = 0usize;
        let mut entries = Vec::new();
        let mut header_ok = false;
        for line in existing.split_inclusive(|&b| b == b'\n') {
            let Some(payload) = std::str::from_utf8(line).ok().and_then(unseal) else {
                break;
            };
            if !header_ok {
                if payload != header {
                    break;
                }
                header_ok = true;
            } else {
                entries.push(payload.to_string());
            }
            valid_len += line.len();
        }
        if !header_ok {
            return Ok((Journal::create(path, header)?, Vec::new()));
        }
        let mut file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        let j = Journal {
            file,
            shared: None,
            tail_open: false,
        };
        Ok((j, entries))
    }

    /// Opens the shared log at `path` (creating it and its directory)
    /// and returns it with every byte it held; nothing is truncated or
    /// validated — what a line means is the caller's to judge.
    ///
    /// # Errors
    /// I/O failure creating or reading the file.
    pub(crate) fn open_shared(path: &Path) -> io::Result<(Journal, Vec<u8>)> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut file = Journal::open_for_append(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let j = Journal {
            file,
            shared: Some(path.to_path_buf()),
            tail_open: false,
        };
        Ok((j, bytes))
    }

    fn open_for_append(path: &Path) -> io::Result<fs::File> {
        fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
    }

    /// Appends one entry (must not contain a newline) as one sealed
    /// line, fsync'd when `sync` is set.
    ///
    /// # Errors
    /// I/O failure writing or syncing.
    pub fn append(&mut self, payload: &str, sync: bool) -> io::Result<()> {
        self.write_line(seal(payload).as_bytes(), sync)
    }

    /// Fault injection: appends only the first `at` bytes of `payload`'s
    /// sealed line, as a crash mid-write would leave it. Returns whether
    /// the whole line was written after all (`at` reached its end).
    ///
    /// # Errors
    /// I/O failure writing.
    pub(crate) fn append_torn(&mut self, payload: &str, at: u64) -> io::Result<bool> {
        let line = seal(payload);
        let cut = usize::try_from(at).map_or(line.len(), |at| at.min(line.len()));
        self.write_line(&line.as_bytes()[..cut], false)?;
        Ok(cut == line.len())
    }

    /// Rewrites a shared log, through [`publish`], as the lines of
    /// `read` — the bytes [`Journal::open_shared`] returned — that `keep`
    /// accepts. Whatever other writers appended after that read went to
    /// the file the rename replaces; it is carried over to the new one,
    /// so the rewrite drops no byte this writer did not read.
    ///
    /// # Errors
    /// I/O failure writing, renaming or reading; on a failed rename the
    /// log is left as it was.
    pub(crate) fn rewrite(&mut self, read: &[u8], keep: impl Fn(&[u8]) -> bool) -> io::Result<()> {
        let path = self.shared.clone().expect("only a shared log is rewritten");
        publish(&path, |out| {
            (read.split_inclusive(|&b| b == b'\n'))
                .filter(|line| keep(line))
                .try_for_each(|line| out.write_all(line))
        })?;
        let mut late = Vec::new();
        self.file.read_to_end(&mut late)?;
        // After a read that ended in a torn line, the next append began
        // with the newline that closed it; that line is gone now.
        let late = match read.last() {
            Some(&b) if b != b'\n' => late.strip_prefix(b"\n").unwrap_or(&late),
            _ => &late,
        };
        if late.is_empty() {
            Ok(())
        } else {
            self.write_line(late, false)
        }
    }

    /// Makes every earlier append durable.
    ///
    /// # Errors
    /// I/O failure syncing.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Writes `line` in one `write`, after a newline if the file's tail
    /// is open.
    fn write_line(&mut self, line: &[u8], sync: bool) -> io::Result<()> {
        if let Some(path) = &self.shared {
            self.file = Journal::open_for_append(path)?;
            self.tail_open = self.file.seek(SeekFrom::End(-1)).is_ok() && {
                let mut last = [0u8];
                self.file.read_exact(&mut last)?;
                last[0] != b'\n'
            };
        }
        let bytes: Cow<'_, [u8]> = if self.tail_open {
            [b"\n".as_slice(), line].concat().into()
        } else {
            line.into()
        };
        self.file.write_all(&bytes)?;
        if let Some(&last) = bytes.last() {
            self.tail_open = last != b'\n';
        }
        if sync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::panic_any;

    #[test]
    fn fault_plan_round_trips_through_text() {
        let text = "panic=3@2;bpanic=0@1;tear=7@10;trace=1@99;hang=4@1;slow=6@25;kill=5";
        let plan: FaultPlan = text.parse().unwrap();
        assert_eq!(plan.to_string(), text);
        assert_eq!(plan.tear_at(7), Some(10));
        assert_eq!(plan.tear_at(6), None);
        assert_eq!(plan.trace_flips, [(1, 99)]);
        assert_eq!("".parse::<FaultPlan>().unwrap(), FaultPlan::default());
        assert!("panic=3".parse::<FaultPlan>().is_err());
        assert!("warp=1@2".parse::<FaultPlan>().is_err());
        assert!("kill=x".parse::<FaultPlan>().is_err());
        assert!("hang=3".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn fault_plan_check_names_the_directive_that_names_nothing() {
        let fits: FaultPlan = "panic=15@2;bpanic=1@1;tear=0@4;trace=1@9;hang=3@1;slow=2@5;kill=16"
            .parse()
            .unwrap();
        assert_eq!(fits.check(16, 2), Ok(()));
        assert_eq!(FaultPlan::default().check(0, 0), Ok(()));
        for (text, want) in [
            ("panic=16@2", "panic=16: no such job (0..16)"),
            ("tear=99@4", "tear=99: no such job (0..16)"),
            ("hang=16@1", "hang=16: no such job"),
            ("slow=70000@5", "slow=70000: no such job"),
            ("bpanic=2@3", "bpanic=2: no such workload (0..2)"),
            ("trace=7@0", "trace=7: no such workload"),
            ("kill=0", "kill=0: outside 1..=16"),
            ("kill=17", "kill=17: outside 1..=16"),
        ] {
            let plan: FaultPlan = text.parse().unwrap();
            let err = plan.check(16, 2).unwrap_err();
            assert!(err.starts_with(want), "{text}: {err}");
        }
    }

    #[test]
    fn hang_spins_until_its_token_fires_and_slow_merely_delays() {
        let plan: FaultPlan = "hang=2@1;slow=3@5".parse().unwrap();
        // A hang with no armed watchdog is a plain (retryable) panic.
        let bare = catch_unwind(AssertUnwindSafe(|| plan.maybe_hang(2, None))).unwrap_err();
        assert_eq!(classify_panic(bare.as_ref()), FailureClass::Panic);
        // With a deadline the spin exits as a typed timeout.
        let deadline = Deadline::after(Duration::from_millis(20));
        let err = catch_unwind(AssertUnwindSafe(|| plan.maybe_hang(2, deadline))).unwrap_err();
        assert_eq!(classify_panic(err.as_ref()), FailureClass::Timeout);
        // Other cells, and slow cells, pass straight through.
        plan.maybe_hang(0, None);
        plan.maybe_slow(3);
        plan.maybe_slow(0);
    }

    #[test]
    fn budgeted_isolation_classifies_timeouts_and_retries_once_escalated() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        let budgets = std::sync::Mutex::new(Vec::new());
        let r: Result<(), _> = run_isolated(
            &policy,
            11,
            &attempts,
            Some(Duration::from_millis(10)),
            |attempt, deadline| {
                let deadline = deadline.expect("budget arms a deadline");
                budgets.lock().unwrap().push(attempt);
                // Simulate an overrun: wait out the deadline, then poll.
                std::thread::sleep(Duration::from_millis(25 * u64::from(attempt) + 15));
                deadline.check(123);
                panic!("deadline should have fired first");
            },
        );
        let fail = r.unwrap_err();
        assert_eq!(fail.class, FailureClass::Timeout);
        assert_eq!(
            fail.attempts, 2,
            "a timeout gets exactly one escalated retry, not the full panic budget"
        );
        assert_eq!(*budgets.lock().unwrap(), vec![0, 1]);
        assert!(fail.error.contains("budget exhausted"), "{}", fail.error);
        assert_eq!(attempts.retries.load(Ordering::Relaxed), 1);
        assert_eq!(attempts.livelocks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn budgeted_isolation_counts_every_livelocked_attempt() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        let r: Result<(), _> = run_isolated(&policy, 3, &attempts, None, |_, _| {
            panic_any(LivelockAbort {
                workload: "IntSort".into(),
                mode: "manual".into(),
                at_cycle: 9,
                source: etpp_cpu::HorizonSource::CoreProgress,
                stalled_visits: 64,
                recent_horizons: vec![9; 8],
            })
        });
        let fail = r.unwrap_err();
        assert_eq!(fail.class, FailureClass::Livelock);
        assert_eq!(fail.attempts, 2, "a livelock gets one retry");
        assert_eq!(attempts.retries.load(Ordering::Relaxed), 1);
        assert_eq!(attempts.livelocks.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unrepresentable_escalated_budget_runs_unbounded() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        // Attempt 1's budget, 4× this one, overflows `Duration`: the
        // retry must still run (with no deadline), not panic outside
        // the isolation.
        let huge = Duration::from_secs(u64::MAX / 2);
        let r = run_isolated(&policy, 5, &attempts, Some(huge), |attempt, deadline| {
            if attempt == 0 {
                panic!("transient");
            }
            assert_eq!(deadline, None);
            attempt
        });
        assert_eq!(r, Ok(1));
        assert_eq!(attempts.retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budgeted_isolation_keeps_full_schedule_for_plain_panics() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        let r: Result<(), _> = run_isolated(
            &policy,
            4,
            &attempts,
            Some(Duration::from_secs(3600)),
            |_, deadline| {
                deadline.expect("budget arms a deadline").check(0);
                panic!("permanent");
            },
        );
        let fail = r.unwrap_err();
        assert_eq!(fail.class, FailureClass::Panic);
        assert_eq!(fail.attempts, 3);
        // Zero budget = explicitly disarmed: no deadline reaches f.
        let ok = run_isolated(&policy, 4, &attempts, Some(Duration::ZERO), |_, d| {
            assert!(d.is_none());
            7u32
        });
        assert_eq!(ok, Ok(7));
    }

    #[test]
    fn injected_panics_are_transient_or_permanent_by_attempt() {
        let plan: FaultPlan = "panic=4@2".parse().unwrap();
        assert!(catch_unwind(AssertUnwindSafe(|| plan.maybe_panic(4, 0))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| plan.maybe_panic(4, 1))).is_err());
        plan.maybe_panic(4, 2); // recovers
        plan.maybe_panic(3, 0); // other cells untouched
    }

    #[test]
    fn run_isolated_retries_then_recovers() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        let r = run_isolated(&policy, 9, &attempts, None, |attempt, _| {
            assert!(attempt < 3);
            if attempt < 2 {
                panic!("transient");
            }
            attempt
        });
        assert_eq!(r, Ok(2));
        assert_eq!(attempts.retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_isolated_quarantines_after_budget() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        let r: Result<(), _> =
            run_isolated(&policy, 7, &attempts, None, |_, _| panic!("permanent"));
        let fail = r.unwrap_err();
        assert_eq!(fail.index, 7);
        assert_eq!(fail.attempts, 3);
        assert!(fail.error.contains("permanent"), "{}", fail.error);
    }

    #[test]
    fn run_isolated_rethrows_fatal_faults() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = run_isolated(&policy, 0, &attempts, None, |_, _| -> () {
                panic_any(FatalFault("simulated crash".into()))
            });
        }));
        let payload = caught.unwrap_err();
        assert!(payload.is::<FatalFault>(), "FatalFault must not be retried");
        assert_eq!(attempts.retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn journal_resumes_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("etpp-journal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::create(&path, "HDR").unwrap();
            j.append("one", true).unwrap();
            j.append("two", true).unwrap();
        }
        // Simulate a crash mid-append: a tail without newline/hash.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"thr");
        fs::write(&path, &bytes).unwrap();

        let (mut j, entries) = Journal::resume(&path, "HDR").unwrap();
        assert_eq!(entries, vec!["one".to_string(), "two".to_string()]);
        j.append("three", true).unwrap();
        drop(j);
        let (_, entries) = Journal::resume(&path, "HDR").unwrap();
        assert_eq!(entries, vec!["one", "two", "three"]);

        // A flipped byte costs that line and everything after it — even
        // one that breaks UTF-8 — never the lines before it.
        let intact = fs::read(&path).unwrap();
        let at = intact.len() - seal("three").len() - 3;
        for flip in [0x01, 0x80] {
            let mut bytes = intact.clone();
            bytes[at] ^= flip;
            fs::write(&path, &bytes).unwrap();
            let (mut j, entries) = Journal::resume(&path, "HDR").unwrap();
            assert_eq!(entries, vec!["one"], "flip {flip:#x}");
            j.append("again", true).unwrap();
            drop(j);
            let (_, entries) = Journal::resume(&path, "HDR").unwrap();
            assert_eq!(entries, vec!["one", "again"], "truncated, then appended");
        }

        // A different header discards everything.
        let (_, entries) = Journal::resume(&path, "OTHER").unwrap();
        assert!(entries.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_after_a_torn_tail_starts_a_fresh_line() {
        let dir = std::env::temp_dir().join(format!("etpp-shared-log-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("log.jsonl");
        let lines = || -> Vec<Option<String>> {
            let (_, bytes) = Journal::open_shared(&path).unwrap();
            (bytes.split_inclusive(|&b| b == b'\n'))
                .map(|l| {
                    std::str::from_utf8(l)
                        .ok()
                        .and_then(unseal)
                        .map(String::from)
                })
                .collect()
        };
        let (mut a, bytes) = Journal::open_shared(&path).unwrap();
        assert!(bytes.is_empty(), "a missing log opens empty");
        a.append("one", false).unwrap();
        assert!(!a.append_torn("two", 4).unwrap());
        assert_eq!(lines(), [Some("one".into()), None]);
        a.append("three", false).unwrap();
        assert_eq!(lines(), [Some("one".into()), None, Some("three".into())]);

        // A writer that opened the log before another one tore it still
        // steps past the torn line: it checks the file, not its memory.
        let (mut b, _) = Journal::open_shared(&path).unwrap();
        assert!(!a.append_torn("four", 3).unwrap());
        b.append("five", true).unwrap();
        // A tear at or past the end writes the whole line.
        assert!(b.append_torn("six", 1 << 40).unwrap());
        assert_eq!(
            lines(),
            [
                Some("one".into()),
                None,
                Some("three".into()),
                None,
                Some("five".into()),
                Some("six".into())
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rewrite_keeps_the_rows_appended_after_its_read() {
        let dir = std::env::temp_dir().join(format!("etpp-rewrite-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("log.jsonl");
        let (mut a, _) = Journal::open_shared(&path).unwrap();
        a.append("one", false).unwrap();
        a.append_torn("two", 3).unwrap();
        let (mut reader, read) = Journal::open_shared(&path).unwrap();
        // Appended after the reader's read, before its rewrite.
        a.append("three", false).unwrap();
        let whole = |l: &[u8]| std::str::from_utf8(l).ok().and_then(unseal).is_some();
        reader.rewrite(&read, whole).unwrap();
        a.append("four", false).unwrap();
        let (_, bytes) = Journal::open_shared(&path).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, [seal("one"), seal("three"), seal("four")].concat());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_rows_render_null_index_and_escapes() {
        let recs = vec![
            FailureRecord {
                index: None,
                workload: "IntSort".into(),
                mode: "baseline".into(),
                settings: "-".into(),
                config_hash: 0xdead,
                class: FailureClass::Panic,
                attempts: 3,
                error: "panic \"quoted\" C:\\x | a\nb ß✓".into(),
            },
            FailureRecord {
                index: Some(5),
                workload: "HJ-8".into(),
                mode: "manual".into(),
                settings: "obs_queue=10".into(),
                config_hash: 1,
                class: FailureClass::Timeout,
                attempts: 2,
                error: "boom".into(),
            },
        ];
        let lines: Vec<String> = recs
            .iter()
            .map(|f| crate::rows::row(|w| f.write(w)))
            .collect();
        let j = lines.join("\n");
        assert!(j.contains("\"index\": null"), "{j}");
        assert!(j.contains("\"index\": 5"), "{j}");
        assert!(j.contains("\\\"quoted\\\""), "{j}");
        assert!(j.contains("000000000000dead"), "{j}");
        assert!(j.contains("\"class\": \"panic\""), "{j}");
        assert!(j.contains("\"class\": \"timeout\""), "{j}");
        // Each record is one line, and reads back as the record it was
        // written from, byte for byte.
        assert!(lines.iter().all(|l| !l.contains('\n')));
        let back: Vec<FailureRecord> = lines
            .iter()
            .map(|l| FailureRecord::read(&Row::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(back, recs);
        // A row without a class (written before classes existed) reads
        // as a panic; one without an error text is malformed.
        let classless = lines[1].replace("\"class\": \"timeout\", ", "");
        let old = FailureRecord::read(&Row::parse(&classless).unwrap()).unwrap();
        assert_eq!(old.class, FailureClass::Panic);
        let err = FailureRecord::read(&Row::parse("{\"index\": 1}").unwrap()).unwrap_err();
        assert!(err.contains("\"workload\""), "{err}");
    }

    #[test]
    fn failure_class_keys_round_trip_and_default_old_records_to_panic() {
        for class in [
            FailureClass::Panic,
            FailureClass::Timeout,
            FailureClass::Livelock,
        ] {
            assert_eq!(FailureClass::from_key(class.key()), class);
        }
        // Unknown keys, the retired "cancelled" class among them.
        for key in ["", "weird", "cancelled"] {
            assert_eq!(FailureClass::from_key(key), FailureClass::Panic);
        }
    }
}
