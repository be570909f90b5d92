//! The trace-replay front end: capture (or load) a stream, replay a cell.
//!
//! Capture once, replay everywhere: each workload's demand-access stream
//! is recorded from one cycle-level baseline run (or loaded from a disk
//! cache keyed by workload content hash) and then replayed against every
//! prefetcher configuration in the experiment grid ([`replay_run`] is a
//! per-cell closure of [`crate::experiments::Grid::run`]). Replay skips the
//! out-of-order core entirely, which makes sweeping prefetcher
//! configurations an order of magnitude faster than full cycle simulation
//! while preserving relative speedup orderings (see [`mod@etpp_trace::replay`]
//! for the fidelity contract).

use crate::config::{PrefetchMode, SystemConfig};
use crate::experiments::Cycles;
use crate::faults::publish;
use crate::system::{make_engine, run_captured, Skip};
use etpp_mem::{Deadline, MemStats};
use etpp_trace::{
    CapturedTrace, ReplayParams, TraceReader, TraceRecord, TraceWriter, FORMAT_VERSION,
};
use etpp_workloads::{checksum_region, BuiltWorkload};
use std::collections::HashMap;
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Result of replaying one (workload, mode) cell.
#[derive(Debug)]
pub struct ReplayRun {
    /// Benchmark name.
    pub workload: &'static str,
    /// Prefetching scheme replayed against the trace.
    pub mode: PrefetchMode,
    /// Replayed cycles (directly comparable with the cycle core's on
    /// dependence-annotated streams; see `etpp_trace::replay`).
    pub cycles: u64,
    /// Host loop iterations (visited cycles); `cycles / host_iters` is
    /// the event-horizon fast-forward factor.
    pub host_iters: u64,
    /// Demand accesses replayed.
    pub accesses: u64,
    /// Loads serialised by a recorded dependence edge.
    pub dep_stalls: u64,
    /// Memory-side statistics.
    pub mem: MemStats,
    /// Whether the post-replay image checksum matched the reference.
    pub validated: bool,
}

/// Stable cache key for a workload's captured trace: hashes the
/// micro-op trace content (not just the name) plus the on-disk format
/// version, so regenerating a workload with different parameters — or
/// a build with a different [`etpp_trace::FORMAT_VERSION`] —
/// invalidates the cached capture instead of silently serving stale
/// bytes. The dependence edges are part of the content: a capture's
/// load→load `dep` distances are derived from them.
pub fn workload_trace_key(wl: &BuiltWorkload, scale_label: &str) -> u64 {
    use etpp_trace::format::{fnv1a, FNV_OFFSET};
    let mut h = FNV_OFFSET;
    h = fnv1a(wl.name.as_bytes(), h);
    h = fnv1a(scale_label.as_bytes(), h);
    h = fnv1a(&(FORMAT_VERSION as u64).to_le_bytes(), h);
    h = fnv1a(&(wl.trace.len() as u64).to_le_bytes(), h);
    for op in &wl.trace.ops {
        h = fnv1a(&op.pc.to_le_bytes(), h);
        h = fnv1a(&[op.class as u8, op.aux], h);
        h = fnv1a(&op.dep1.to_le_bytes(), h);
        h = fnv1a(&op.dep2.to_le_bytes(), h);
        h = fnv1a(&op.addr.to_le_bytes(), h);
    }
    for value in &wl.trace.store_values {
        h = fnv1a(&value.to_le_bytes(), h);
    }
    h
}

/// Path of the cached capture for `wl` inside `dir`. The format version
/// is part of the name, so a build never opens another version's files.
pub fn trace_path(dir: &Path, wl: &BuiltWorkload, scale_label: &str) -> PathBuf {
    dir.join(format!(
        "{}-{}-v{}-{:016x}.etpt",
        wl.name.replace('/', "_"),
        scale_label,
        FORMAT_VERSION,
        workload_trace_key(wl, scale_label)
    ))
}

/// How a capture was obtained (surfaced in reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSource {
    /// Loaded from the on-disk cache.
    Cached,
    /// Captured fresh from a cycle-level baseline run.
    Captured,
    /// Captured fresh because the cached file failed to decode (a
    /// sweep counts these as `trace.decode_errors`).
    Recaptured,
}

/// The in-process single-flight map: one lock per on-disk trace path,
/// so concurrent workers asking for the same capture serialise — the
/// first captures and persists, the rest re-probe the cache and hit.
/// (Cross-process dedup rides on the write-then-rename the capture is
/// published with: a racing process may redo work but can never tear
/// the file.)
fn capture_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    let map = LOCKS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap_or_else(|p| p.into_inner());
    map.entry(path.to_path_buf()).or_default().clone()
}

/// The capture half of [`try_load_or_capture_keyed`]: a validated
/// cycle-level no-prefetch run.
fn capture_fresh(
    cfg: &SystemConfig,
    wl: &BuiltWorkload,
    scale_label: &str,
) -> Result<CapturedTrace, String> {
    let (result, trace) = run_captured(cfg, PrefetchMode::None, wl, scale_label)
        .map_err(|skip| format!("{}: baseline capture cannot run ({skip})", wl.name))?;
    if !result.validated {
        return Err(format!(
            "{}: baseline capture run failed validation",
            wl.name
        ));
    }
    Ok(trace)
}

/// A captured trace bundled with the identity the sweep-farm result
/// cache keys on: the *content* hash of the record stream under its
/// on-disk encoding (not the workload name — regenerating a workload
/// with different data invalidates every dependent sweep cell), plus
/// the format version that encoding used.
#[derive(Debug)]
pub struct KeyedCapture {
    /// The captured (or cache-loaded) trace.
    pub trace: CapturedTrace,
    /// How the capture was obtained.
    pub source: CaptureSource,
    /// `etpp_trace::content_hash(records)`, computed once at load so
    /// sweep cells don't re-hash millions of records per cache probe.
    pub content_hash: u64,
    /// The on-disk format version the hash was computed under.
    pub trace_format: u16,
}

/// Loads the cached capture for `wl` from `dir`, or captures it from a
/// cycle-level no-prefetch run (and stores it in `dir`, if given). A
/// cached file that does not read back clean — corrupt, truncated, or
/// headed with another format version — names itself on stderr and is
/// recaptured over ([`CaptureSource::Recaptured`]); never a panic.
/// Concurrent calls for the same on-disk path are single-flighted, one
/// lock per path. Callers with nowhere to report a failed baseline
/// `.unwrap()` the result.
///
/// `trace_format` is vestigial: [`FORMAT_VERSION`] is the only value
/// accepted (ROADMAP item 5 drops the argument with its last caller).
///
/// # Errors
/// A human-readable message naming the workload and the capture
/// failure (skip reason or validation mismatch — a trace from a wrong
/// run must never enter the cache), or the unsupported `trace_format`.
pub fn try_load_or_capture_keyed(
    dir: Option<&Path>,
    cfg: &SystemConfig,
    wl: &BuiltWorkload,
    scale_label: &str,
    trace_format: u16,
) -> Result<KeyedCapture, String> {
    if trace_format != FORMAT_VERSION {
        return Err(format!(
            "{}: trace format {trace_format} is not supported (this build captures and \
             reads version {FORMAT_VERSION})",
            wl.name
        ));
    }
    let keyed = |trace: CapturedTrace, source| KeyedCapture {
        content_hash: etpp_trace::content_hash(&trace.records),
        trace,
        source,
        trace_format,
    };
    let Some(dir) = dir else {
        return capture_fresh(cfg, wl, scale_label).map(|t| keyed(t, CaptureSource::Captured));
    };
    let path = trace_path(dir, wl, scale_label);
    let lock = capture_lock(&path);
    let _single_flight = lock.lock().unwrap_or_else(|p| p.into_inner());
    let mut source = CaptureSource::Captured;
    if let Ok(f) = fs::File::open(&path) {
        match TraceReader::new(BufReader::new(f)).and_then(|r| r.read_to_end()) {
            Ok(t) => return Ok(keyed(t, CaptureSource::Cached)),
            Err(e) => {
                source = CaptureSource::Recaptured;
                eprintln!("[trace] discarding bad cache {}: {e}", path.display());
            }
        }
    }
    let trace = capture_fresh(cfg, wl, scale_label)?;
    let stored = publish(&path, |out| {
        let mut w = TraceWriter::new(out, &trace.meta)?;
        for r in &trace.records {
            w.record(r)?;
        }
        w.finish().map(drop)
    });
    if let Err(e) = stored {
        eprintln!("[trace] could not cache {}: {e}", wl.name);
    }
    Ok(keyed(trace, source))
}

/// The replay front-end parameters the runner uses for every stream
/// (and that sweep result-cache keys hash): [`ReplayParams::default`].
pub fn replay_params() -> ReplayParams {
    ReplayParams::default()
}

/// Replays `records` under `mode`'s engine and validates the result,
/// with the front end chosen by [`replay_params`].
///
/// # Errors
/// [`Skip`] for modes that cannot attach to a replayed trace (Software)
/// or have no program for this workload.
pub fn replay_run(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    records: &[TraceRecord],
) -> Result<ReplayRun, Skip> {
    replay_run_watched(cfg, mode, wl, records, None)
}

/// [`replay_run`] under a sweep attempt's [`Deadline`]: the replay loop
/// polls it at host-visit granularity, so a deadline that never expires
/// leaves results bit-identical while an expired one aborts with a
/// typed [`etpp_mem::Cancelled`] payload for the isolation layer to
/// classify. `None` is exactly [`replay_run`].
///
/// # Errors
/// [`Skip`], as for [`replay_run`].
pub fn replay_run_watched(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    records: &[TraceRecord],
    deadline: Option<Deadline>,
) -> Result<ReplayRun, Skip> {
    let mut engine = make_engine(cfg, mode, wl)?;
    let res = etpp_trace::replay_cancellable(
        &replay_params(),
        cfg.mem,
        wl.image.clone(),
        records,
        engine.as_dyn(),
        deadline,
    );
    let validated = checksum_region(&res.image, wl.check_region) == wl.expected;
    Ok(ReplayRun {
        workload: wl.name,
        mode,
        cycles: res.cycles,
        host_iters: res.host_iters,
        accesses: res.accesses,
        dep_stalls: res.dep_stalls,
        mem: res.mem,
        validated,
    })
}

impl Cycles for ReplayRun {
    fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpp_workloads::{Scale, Workload};
    use std::time::Duration;

    fn capture(dir: Option<&Path>, cfg: &SystemConfig, wl: &BuiltWorkload) -> KeyedCapture {
        try_load_or_capture_keyed(dir, cfg, wl, "tiny", FORMAT_VERSION).unwrap()
    }

    #[test]
    fn capture_then_replay_validates_and_prefetch_helps() {
        let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let KeyedCapture { trace, source, .. } = capture(None, &cfg, &wl);
        assert_eq!(source, CaptureSource::Captured);
        assert!(trace.access_count() > 0);

        let base = replay_run(&cfg, PrefetchMode::None, &wl, &trace.records).unwrap();
        assert!(base.validated, "replay must reproduce the reference output");
        let manual = replay_run(&cfg, PrefetchMode::Manual, &wl, &trace.records).unwrap();
        assert!(manual.validated);
        assert!(
            manual.cycles < base.cycles,
            "manual prefetching must speed replay up: {} vs {}",
            manual.cycles,
            base.cycles
        );
    }

    #[test]
    fn software_mode_is_skipped_in_replay() {
        let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let trace = capture(None, &cfg, &wl).trace;
        assert!(replay_run(&cfg, PrefetchMode::Software, &wl, &trace.records).is_err());
    }

    #[test]
    fn trace_key_sees_dependence_edges_and_store_data() {
        let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        let key = workload_trace_key(&wl, "tiny");
        let mut edge = wl.clone();
        let op = edge.trace.ops.iter_mut().find(|op| op.dep1 != 0).unwrap();
        op.dep1 -= 1;
        assert_ne!(workload_trace_key(&edge, "tiny"), key);
        let mut data = wl.clone();
        data.trace.store_values[0] ^= 1;
        assert_ne!(workload_trace_key(&data, "tiny"), key);
    }

    #[test]
    fn disk_cache_round_trips_and_hits() {
        let wl = etpp_workloads::randacc::RandAcc.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let dir = std::env::temp_dir().join(format!(
            "etpp-trace-test-{}-{:016x}",
            std::process::id(),
            workload_trace_key(&wl, "tiny")
        ));
        let first = capture(Some(&dir), &cfg, &wl);
        assert_eq!(first.source, CaptureSource::Captured);
        assert!(
            first.trace.meta.capture_cycles > 0,
            "captures must record the capture run's cycle count"
        );
        let second = capture(Some(&dir), &cfg, &wl);
        assert_eq!(second.source, CaptureSource::Cached);
        assert_eq!(first.trace, second.trace);
        assert_eq!(first.content_hash, second.content_hash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_captures_are_single_flight_and_never_tear() {
        let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let dir = std::env::temp_dir().join(format!(
            "etpp-trace-singleflight-{}-{:016x}",
            std::process::id(),
            workload_trace_key(&wl, "tiny")
        ));
        let _ = fs::remove_dir_all(&dir);
        let sources: Vec<CaptureSource> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (dir, cfg, wl) = (&dir, &cfg, &wl);
                    s.spawn(move || capture(Some(dir), cfg, wl).source)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let captured = sources
            .iter()
            .filter(|s| **s == CaptureSource::Captured)
            .count();
        assert_eq!(
            captured, 1,
            "exactly one thread captures; the rest hit the cache: {sources:?}"
        );
        // Nothing torn, nothing leaked: one final trace, zero tmp files.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "no tmp leftovers: {names:?}");
        assert!(names[0].ends_with(".etpt"), "{names:?}");
        let reread = capture(Some(&dir), &cfg, &wl);
        assert_eq!(reread.source, CaptureSource::Cached);
        assert!(reread.trace.access_count() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capture_failure_propagates_as_error_not_panic() {
        let mut wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        // A wrong reference checksum makes the baseline capture fail
        // validation — the classic "trace from a wrong run" hazard.
        wl.expected ^= 0xdead_beef;
        let err = try_load_or_capture_keyed(None, &SystemConfig::paper(), &wl, "tiny", 2)
            .expect_err("corrupted expectation must fail the capture");
        assert!(err.contains("failed validation"), "{err}");
        assert!(err.contains("IntSort"), "{err}");
        // The retired format is refused up front, naming both versions.
        let err = try_load_or_capture_keyed(None, &SystemConfig::paper(), &wl, "tiny", 1)
            .expect_err("only FORMAT_VERSION is accepted");
        assert!(
            err.contains("format 1") && err.contains("version 2"),
            "{err}"
        );
    }

    #[test]
    fn watched_replay_is_bit_identical_and_aborts_typed_when_fired() {
        let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let trace = capture(None, &cfg, &wl).trace;
        let plain = replay_run(&cfg, PrefetchMode::Manual, &wl, &trace.records).unwrap();
        let generous = Deadline::after(Duration::from_secs(3600));
        let watched =
            replay_run_watched(&cfg, PrefetchMode::Manual, &wl, &trace.records, generous).unwrap();
        assert_eq!(
            (plain.cycles, plain.host_iters, plain.dep_stalls),
            (watched.cycles, watched.host_iters, watched.dep_stalls),
            "an armed-but-quiet watchdog must not perturb replay"
        );
        let expired = Deadline::after(Duration::ZERO);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay_run_watched(&cfg, PrefetchMode::Manual, &wl, &trace.records, expired)
        }))
        .unwrap_err();
        assert!(
            err.downcast_ref::<etpp_mem::Cancelled>().is_some(),
            "an expired deadline aborts replay with a typed payload"
        );
    }

    #[test]
    fn grid_shards_across_workers() {
        use crate::experiments::{cross, Grid};
        let cfg = SystemConfig::paper();
        let workloads: Vec<BuiltWorkload> = vec![
            etpp_workloads::intsort::IntSort.build(Scale::Tiny),
            etpp_workloads::randacc::RandAcc.build(Scale::Tiny),
        ];
        let captures: Vec<CapturedTrace> = workloads
            .iter()
            .map(|w| capture(None, &cfg, w).trace)
            .collect();
        let modes = [
            PrefetchMode::None,
            PrefetchMode::Stride,
            PrefetchMode::Manual,
        ];
        let grid = Grid::run(&workloads, &cross(2, &modes), 4, |wi, w, mode| {
            replay_run(&cfg, mode, w, &captures[wi].records)
        });
        assert_eq!(grid.iter().count(), 6);
        assert!(grid.iter().all(|(.., r)| r.validated && r.cycles > 0));
        let manual_intsort = grid
            .speedup("IntSort", PrefetchMode::Manual)
            .expect("cell present");
        assert!(
            manual_intsort > 1.0,
            "manual should beat baseline in replay: {manual_intsort:.2}"
        );
    }
}
