//! Fault-injection contracts: a sweep peppered with deterministic
//! panics, torn cache writes, and trace corruption still completes,
//! quarantines exactly the unrecoverable cells, and keeps every
//! surviving row byte-identical to a clean run — and a killed sweep
//! resumes from its journal without re-executing completed cells.

use etpp::sim::faults::{self, FatalFault, FaultPlan};
use etpp::sim::replay::{self, try_load_or_capture_keyed, CaptureSource};
use etpp::sim::sweeps::{self, axes, SweepOptions, SweepSpec};
use etpp::sim::{PrefetchMode, SystemConfig};
use etpp::workloads::{workload_by_name, BuiltWorkload, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// 2 workloads × 2 modes × 2 obs_queue × 2 pf_buffer = 16 flat jobs.
fn probe_spec() -> SweepSpec {
    SweepSpec {
        name: "fault-test",
        base: SystemConfig::paper(),
        modes: vec![PrefetchMode::Stride, PrefetchMode::Manual],
        axes: vec![axes::obs_queue(&[10, 40]), axes::pf_buffer(&[16, 64])],
    }
}

fn opts(jobs: usize, shard: (usize, usize), cache_dir: Option<PathBuf>) -> SweepOptions {
    SweepOptions {
        cache_dir,
        shard,
        ..SweepOptions::new(jobs, "tiny")
    }
}

/// A scratch directory that cleans up after itself even on panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("etpp-faults-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_two() -> Vec<BuiltWorkload> {
    ["IntSort", "HJ-8"]
        .iter()
        .map(|n| workload_by_name(n).unwrap().build(Scale::Tiny))
        .collect()
}

fn capture_all(trace_dir: &std::path::Path, wls: &[BuiltWorkload]) -> Vec<replay::KeyedCapture> {
    let cfg = SystemConfig::paper();
    wls.iter()
        .map(|w| {
            try_load_or_capture_keyed(
                Some(trace_dir),
                &cfg,
                w,
                "tiny",
                etpp::trace::FORMAT_VERSION,
            )
            .unwrap()
        })
        .collect()
}

fn merged_render(files: Vec<sweeps::ShardFile>) -> String {
    sweeps::render_merged(&sweeps::merge_shards(&files).expect("full coverage"))
}

/// The headline contract: a 4-way sharded sweep under injected panics,
/// a torn cache write, and a corrupted on-disk trace completes,
/// quarantines exactly the one unrecoverable cell, and matches a clean
/// run byte-for-byte on every surviving cell row.
#[test]
fn faulted_sweep_completes_and_quarantines_exactly_the_unrecoverable_cells() {
    let spec = probe_spec();
    let wls = build_two();
    let traces = TempDir::new("traces");
    let cache = TempDir::new("cache");
    let captures = capture_all(&traces.0, &wls);

    // Corrupt workload 0's trace on disk, then reload it the way
    // `repro --fault-inject trace=0@100` does: the decoder reports a
    // named error, the loader recaptures, and the sweep sees an
    // identical trace and counts the recapture as a decode error.
    let plan: FaultPlan = "panic=2@2;panic=5@9;tear=7@4;trace=0@100".parse().unwrap();
    let paths: Vec<PathBuf> = wls
        .iter()
        .map(|w| replay::trace_path(&traces.0, w, "tiny"))
        .collect();
    let touched = faults::apply_trace_flips(&plan, &paths).unwrap();
    assert_eq!(touched, vec![0], "exactly workload 0's trace is flipped");
    let reloaded = capture_all(&traces.0, &wls);
    assert_eq!(
        (reloaded[0].source, reloaded[1].source),
        (CaptureSource::Recaptured, CaptureSource::Cached),
        "a corrupt trace is recaptured (a decode error, not a panic)"
    );
    assert_eq!(
        reloaded[0].content_hash, captures[0].content_hash,
        "recapture after corruption must reproduce the identical trace"
    );
    let captures = reloaded;

    // Faulted pass, 4-way sharded over a shared cache. Job 2 (shard 2)
    // recovers on its third attempt; job 5 (shard 1) exhausts the retry
    // budget; job 7's (shard 3) cache write is torn at 4 bytes.
    let faulted: Vec<sweeps::ShardRun> = (0..4)
        .map(|k| {
            let o = SweepOptions {
                faults: Some(plan.clone()),
                ..opts(2, (k, 4), Some(cache.0.clone()))
            };
            sweeps::run_sweep(&spec, &wls, &captures, &o)
        })
        .collect();
    for run in &faulted {
        assert_eq!(
            run.registry.counter("trace.decode_errors"),
            1,
            "shard {:?} counts the one recaptured trace",
            run.shard
        );
    }
    let retries: u64 = faulted.iter().map(sweeps::ShardRun::retries).sum();
    assert_eq!(retries, 4, "2 retries for job 2 + 2 for job 5");
    let quarantined: u64 = faulted.iter().map(sweeps::ShardRun::quarantined).sum();
    assert_eq!(quarantined, 1, "only job 5 exhausts its budget");
    let failures: Vec<_> = faulted.iter().flat_map(|r| r.failures.clone()).collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, Some(5));
    assert_eq!(failures[0].attempts, 3);
    assert!(failures[0].error.contains("fault-injection: cell 5"));

    let fault_render = merged_render(
        faulted
            .iter()
            .map(|r| sweeps::parse_shard(&r.to_json()).expect("own shard parses"))
            .collect(),
    );

    // Clean pass over the same cache: the torn entry for job 7 is the
    // only corrupt record to evict, and nothing is quarantined.
    let clean: Vec<sweeps::ShardRun> = (0..4)
        .map(|k| {
            sweeps::run_sweep(
                &spec,
                &wls,
                &captures,
                &opts(2, (k, 4), Some(cache.0.clone())),
            )
        })
        .collect();
    let evicted: u64 = clean.iter().map(sweeps::ShardRun::corrupt_evicted).sum();
    assert_eq!(evicted, 1, "exactly job 7's torn entry is evicted");
    assert!(clean.iter().all(|r| r.quarantined() == 0));
    let clean_render = merged_render(
        clean
            .iter()
            .map(|r| sweeps::parse_shard(&r.to_json()).expect("own shard parses"))
            .collect(),
    );

    // Surviving rows are byte-identical. Strip the quarantine table
    // (and the blank line introducing it) out of the faulted render;
    // what remains may diverge from the clean render only at job 5's
    // FAILED cell row and the summary rows of job 5's (workload, mode)
    // group, whose geomean legitimately excludes the dead cell.
    let clean_lines: Vec<&str> = clean_render.lines().collect();
    let fault_lines: Vec<&str> = fault_render.lines().collect();
    let failed_rows: Vec<&str> = fault_lines
        .iter()
        .copied()
        .filter(|l| l.contains("FAILED"))
        .collect();
    assert_eq!(
        failed_rows.len(),
        1,
        "exactly one FAILED row:\n{fault_render}"
    );
    assert!(
        failed_rows[0].starts_with("| 5 |"),
        "row: {}",
        failed_rows[0]
    );
    assert!(!clean_render.contains("FAILED"));
    let qstart = fault_lines
        .iter()
        .position(|l| *l == "## Quarantined cells")
        .expect("faulted render has a quarantine section");
    let qend = fault_lines
        .iter()
        .position(|l| l.starts_with("## Summary"))
        .expect("summary follows the quarantine section");
    let fault_stripped: Vec<&str> = fault_lines[..qstart - 1]
        .iter()
        .chain(&fault_lines[qend - 1..])
        .copied()
        .collect();
    assert_eq!(clean_lines.len(), fault_stripped.len());
    let summary_at = clean_lines
        .iter()
        .position(|l| l.starts_with("## Summary"))
        .unwrap();
    for (i, line) in clean_lines.iter().enumerate() {
        let f = fault_stripped[i];
        if f == *line {
            continue;
        }
        let summary_row_of_dead_group = i > summary_at && f.starts_with("| IntSort |");
        assert!(
            f.contains("FAILED") || summary_row_of_dead_group,
            "unexpected divergence at line {i}:\n  clean: {line}\n  fault: {f}"
        );
    }
}

/// `hang=J@P` end-to-end: a cell that spins forever is aborted by the
/// per-cell watchdog budget, retried once at the escalated budget,
/// quarantined as a `timeout`, and every surviving row stays
/// byte-identical to a clean run over the same cache.
#[test]
fn hung_cell_is_cancelled_quarantined_as_timeout_and_surviving_rows_match() {
    use std::time::Duration;
    let spec = probe_spec();
    let wls = build_two();
    let traces = TempDir::new("hang-traces");
    let cache = TempDir::new("hang-cache");
    let captures = capture_all(&traces.0, &wls);

    // Job 3 spins polling its deadline every 1ms; a 1s budget aborts
    // attempt 1, the single escalated retry (×4) confirms the hang,
    // and the cell quarantines in ~5s. Healthy Tiny cells finish well
    // inside 1s even in debug builds — but a loaded host may push one
    // over and earn it a (successful) escalated retry, so the retry
    // count is a floor, not an exact match.
    let faulted = {
        let o = SweepOptions {
            faults: Some("hang=3@1".parse().unwrap()),
            cell_budget: Some(Duration::from_secs(1)),
            ..opts(2, (0, 1), Some(cache.0.clone()))
        };
        sweeps::run_sweep(&spec, &wls, &captures, &o)
    };
    assert_eq!(faulted.quarantined(), 1, "only the hung cell dies");
    assert_eq!(faulted.timeouts(), 1, "sweep.timeout counts the quarantine");
    assert!(
        faulted.retries() >= 1,
        "at least the hung cell's escalated retry"
    );
    assert_eq!(faulted.failures.len(), 1);
    assert_eq!(faulted.failures[0].index, Some(3));
    assert_eq!(faulted.failures[0].class, faults::FailureClass::Timeout);
    assert_eq!(
        faulted.failures[0].attempts, 2,
        "timeouts get exactly one escalated retry"
    );
    assert!(
        faulted.failures[0].error.contains("budget exhausted"),
        "error names the exhausted budget: {}",
        faulted.failures[0].error
    );
    let fault_render = merged_render(vec![
        sweeps::parse_shard(&faulted.to_json()).expect("parses")
    ]);

    // Clean pass over the same cache, watchdog still armed: nothing
    // fires, nothing is quarantined, and the surviving rows match the
    // faulted render byte-for-byte outside job 3's FAILED row, its
    // group's summary rows, and the quarantine table itself.
    let clean = {
        let o = SweepOptions {
            cell_budget: Some(Duration::from_secs(60)),
            ..opts(2, (0, 1), Some(cache.0.clone()))
        };
        sweeps::run_sweep(&spec, &wls, &captures, &o)
    };
    assert_eq!(clean.quarantined(), 0);
    assert_eq!(clean.timeouts(), 0);
    let clean_render = merged_render(vec![sweeps::parse_shard(&clean.to_json()).expect("parses")]);
    assert!(!clean_render.contains("FAILED"));

    let clean_lines: Vec<&str> = clean_render.lines().collect();
    let fault_lines: Vec<&str> = fault_render.lines().collect();
    let qstart = fault_lines
        .iter()
        .position(|l| *l == "## Quarantined cells")
        .expect("faulted render has a quarantine section");
    let qend = fault_lines
        .iter()
        .position(|l| l.starts_with("## Summary"))
        .expect("summary follows the quarantine section");
    assert!(
        fault_lines[qstart..qend]
            .iter()
            .any(|l| l.contains("timeout")),
        "quarantine table names the class"
    );
    let fault_stripped: Vec<&str> = fault_lines[..qstart - 1]
        .iter()
        .chain(&fault_lines[qend - 1..])
        .copied()
        .collect();
    assert_eq!(clean_lines.len(), fault_stripped.len());
    let summary_at = clean_lines
        .iter()
        .position(|l| l.starts_with("## Summary"))
        .unwrap();
    for (i, line) in clean_lines.iter().enumerate() {
        let f = fault_stripped[i];
        if f == *line {
            continue;
        }
        let summary_row_of_dead_group = i > summary_at && f.starts_with("| IntSort |");
        assert!(
            f.contains("FAILED") || summary_row_of_dead_group,
            "unexpected divergence at line {i}:\n  clean: {line}\n  fault: {f}"
        );
    }
}

/// Stride cannot read `obs_queue`, so jobs 2, 3, 10 and 11 follow jobs
/// 0, 1, 8 and 9 (same result-cache key, simulated first). Panics still
/// fire per job; a quarantined representative writes no entry, so its
/// follower simulates for itself; and an entry its representative tore
/// costs the follower an eviction and a re-execution, never a result.
#[test]
fn faults_compose_with_jobs_that_share_a_result_key() {
    let spec = probe_spec();
    let wls = build_two();
    let traces = TempDir::new("shared-traces");
    let cache = TempDir::new("shared-cache");
    let captures = capture_all(&traces.0, &wls);

    let faulted = {
        let o = SweepOptions {
            faults: Some("panic=0@9;panic=3@2;tear=9@4".parse().unwrap()),
            ..opts(2, (0, 1), Some(cache.0.clone()))
        };
        sweeps::run_sweep(&spec, &wls, &captures, &o)
    };
    assert_eq!(faulted.distinct_cells(), 12, "2 x (2 Stride + 4 Manual)");
    assert_eq!(faulted.retries(), 4, "2 for job 0 + 2 for follower job 3");
    assert_eq!(faulted.quarantined(), 1, "only the representative dies");
    assert_eq!(faulted.failures.len(), 1);
    assert_eq!(faulted.failures[0].index, Some(0));
    // The record names the (projected) cache entry the cell would have
    // written — the one its follower did write.
    let escalate = faulted.baselines[0].escalate;
    let key_of = |job: usize| {
        let (_, mi, vi) = spec.decode(job);
        sweeps::cell_config_hash(&spec.config_for(&vi), spec.modes[mi], escalate)
    };
    assert_eq!(faulted.failures[0].config_hash, key_of(0));
    assert_eq!(key_of(0), key_of(2));
    for (job, cached) in [(2, false), (3, true), (10, true), (11, false)] {
        let c = &faulted.cells[job];
        assert!(c.cached == cached && c.validated, "job {job}: {c:?}");
    }
    assert_eq!(faulted.corrupt_evicted(), 1, "job 11 evicts job 9's tear");
    assert_eq!(
        faulted.cells[9].cycles, faulted.cells[11].cycles,
        "the tear cost a re-execution, not a result"
    );
    // 2 baselines + 15 surviving cells looked up: every key simulated
    // once (job 0's by its follower) plus job 11's re-execution.
    assert_eq!(faulted.cache_misses(), 2 + 12 + 1);
    assert_eq!(faulted.cache_hits(), 2);

    // Clean pass over the same cache: nothing is left to repair, and
    // every surviving cell matches.
    let clean = sweeps::run_sweep(
        &spec,
        &wls,
        &captures,
        &opts(2, (0, 1), Some(cache.0.clone())),
    );
    assert_eq!(clean.corrupt_evicted(), 0);
    assert_eq!(clean.cache_misses(), 0);
    assert_eq!(clean.cache_hits(), 2 + 16);
    assert_eq!(clean.quarantined(), 0);
    for (f, c) in faulted.cells.iter().zip(&clean.cells).skip(1) {
        assert_eq!(
            (f.index, f.path, f.cycles, f.validated),
            (c.index, c.path, c.cycles, c.validated)
        );
    }
    assert_eq!(clean.cells[0].cycles, clean.cells[2].cycles);
}

/// `slow=J@D` delays a cell without killing it: under a sane budget the
/// sweep completes with nothing quarantined and renders byte-identical
/// to an uninjected run.
#[test]
fn slow_cell_finishes_within_budget_and_changes_nothing() {
    let spec = probe_spec();
    let wls = build_two();
    let traces = TempDir::new("slow-traces");
    let cache = TempDir::new("slow-cache");
    let captures = capture_all(&traces.0, &wls);

    // Default (auto) budget: a deterministic multiple of the measured
    // baseline wall time with a generous floor — a 50ms delay is noise.
    let slowed = {
        let o = SweepOptions {
            faults: Some("slow=4@50".parse().unwrap()),
            ..opts(2, (0, 1), Some(cache.0.clone()))
        };
        sweeps::run_sweep(&spec, &wls, &captures, &o)
    };
    assert_eq!(slowed.quarantined(), 0, "a slow cell is not a dead cell");
    assert_eq!(slowed.timeouts(), 0);
    assert_eq!(slowed.retries(), 0);

    let clean = sweeps::run_sweep(
        &spec,
        &wls,
        &captures,
        &opts(2, (0, 1), Some(cache.0.clone())),
    );
    let render = |r: &sweeps::ShardRun| {
        merged_render(vec![sweeps::parse_shard(&r.to_json()).expect("parses")])
    };
    assert_eq!(render(&slowed), render(&clean));
}

/// `kill=C` dies with an uncatchable-by-retry [`FatalFault`] after `C`
/// cells; `--resume` replays the journal, re-executes zero completed
/// cells, and renders byte-identical merged tables.
#[test]
fn killed_sweep_resumes_from_journal_without_reexecuting_cells() {
    let spec = probe_spec();
    let wls = build_two();
    let traces = TempDir::new("kill-traces");
    let sweep_dir = TempDir::new("kill-sweep");
    let captures = capture_all(&traces.0, &wls);
    let journal = sweep_dir.0.join("journal-0-of-1.jsonl");

    // jobs=1 keeps the worker pool on its serial path, so "5 cells
    // completed" deterministically means the first five representatives
    // (flat indices 0, 1, 4, 5, 6: jobs 2 and 3 follow 0 and 1).
    let kill_opts = SweepOptions {
        faults: Some("kill=5".parse().unwrap()),
        journal: Some(journal.clone()),
        ..opts(1, (0, 1), None)
    };
    let died = catch_unwind(AssertUnwindSafe(|| {
        sweeps::run_sweep(&spec, &wls, &captures, &kill_opts)
    }))
    .expect_err("kill=5 must abort the sweep");
    assert!(
        died.is::<FatalFault>(),
        "the kill must surface as a FatalFault, not a retryable panic"
    );
    assert!(journal.exists(), "the journal survives the crash");

    // Resume under a clean plan: 2 baselines + 5 cells come from the
    // journal; the remaining 11 cells execute fresh.
    let resume_opts = SweepOptions {
        journal: Some(journal.clone()),
        resume: true,
        ..opts(1, (0, 1), None)
    };
    let resumed = sweeps::run_sweep(&spec, &wls, &captures, &resume_opts);
    assert_eq!(
        resumed.journal_hits(),
        7,
        "2 baselines + 5 completed cells must come from the journal"
    );
    assert_eq!(resumed.cells.len(), 16);
    assert!(resumed.failures.is_empty());

    // And the merged tables are byte-identical to a never-killed run.
    let clean = sweeps::run_sweep(&spec, &wls, &captures, &opts(1, (0, 1), None));
    let render = |r: &sweeps::ShardRun| {
        merged_render(vec![sweeps::parse_shard(&r.to_json()).expect("parses")])
    };
    assert_eq!(render(&clean), render(&resumed));
}

/// A quarantine survives the crash with its cell: the journal entry
/// carries the whole failure record, so the resumed run reports exactly
/// the `failures` (and tables) of a run that was never killed — what
/// lets `merge_shards` dedup a resumed shard's quarantines.
#[test]
fn resumed_quarantine_equals_the_uninterrupted_runs() {
    let spec = probe_spec();
    let wls = build_two();
    let traces = TempDir::new("requarantine-traces");
    let sweep_dir = TempDir::new("requarantine-sweep");
    let captures = capture_all(&traces.0, &wls);
    let journal = sweeps::SweepFile::Journal.path(&sweep_dir.0, (0, 1));

    // jobs=1: the first eight completions are representatives 0, 1, 4,
    // 5, 6, 7, 8, 9 — job 5 exhausts its retries before the kill.
    let kill_opts = SweepOptions {
        faults: Some("panic=5@9;kill=8".parse().unwrap()),
        journal: Some(journal.clone()),
        ..opts(1, (0, 1), None)
    };
    catch_unwind(AssertUnwindSafe(|| {
        sweeps::run_sweep(&spec, &wls, &captures, &kill_opts)
    }))
    .expect_err("kill=8 must abort the sweep");

    let resume_opts = SweepOptions {
        journal: Some(journal),
        resume: true,
        ..opts(1, (0, 1), None)
    };
    let resumed = sweeps::run_sweep(&spec, &wls, &captures, &resume_opts);
    assert_eq!(resumed.journal_hits(), 2 + 8);
    assert_eq!(resumed.quarantined(), 0, "nothing fails in the resumed run");

    let uninterrupted = SweepOptions {
        faults: Some("panic=5@9".parse().unwrap()),
        ..opts(1, (0, 1), None)
    };
    let whole = sweeps::run_sweep(&spec, &wls, &captures, &uninterrupted);
    assert_eq!(whole.failures.len(), 1);
    assert_eq!(whole.failures[0].index, Some(5));
    assert_eq!(resumed.failures, whole.failures);
    let file = |r: &sweeps::ShardRun| sweeps::parse_shard(&r.to_json()).expect("parses");
    assert_eq!(file(&resumed).failures, whole.failures);
    assert_eq!(
        merged_render(vec![file(&resumed)]),
        merged_render(vec![file(&whole)])
    );
}

/// `--strict` restores abort-on-first-failure: the injected panic
/// propagates instead of being quarantined.
#[test]
fn strict_mode_propagates_the_first_panic() {
    let spec = probe_spec();
    let wls = build_two();
    let traces = TempDir::new("strict-traces");
    let captures = capture_all(&traces.0, &wls);

    let strict_opts = SweepOptions {
        faults: Some("panic=3@9".parse().unwrap()),
        retry: faults::RetryPolicy {
            strict: true,
            ..Default::default()
        },
        ..opts(1, (0, 1), None)
    };
    let died = catch_unwind(AssertUnwindSafe(|| {
        sweeps::run_sweep(&spec, &wls, &captures, &strict_opts)
    }))
    .expect_err("strict mode must abort on the injected panic");
    let msg = died
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| died.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("fault-injection: cell 3"),
        "panic message: {msg:?}"
    );
}
