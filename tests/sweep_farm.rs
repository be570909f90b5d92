//! Sweep-farm contracts: merged tables are byte-identical for any
//! (jobs, shard-count) split of the same sweep, the content-hash result
//! cache hits on every warm lookup while a config change misses exactly
//! the cells that can observe it, and the effective-config projection
//! behind that key changes no simulated number.

use etpp::sim::replay::{replay_params, replay_run, try_load_or_capture_keyed};
use etpp::sim::sweeps::{self, axes, SweepOptions, SweepSpec};
use etpp::sim::{PrefetchMode, SystemConfig};
use etpp::workloads::{workload_by_name, Scale};
use std::collections::HashSet;
use std::path::PathBuf;

fn probe_spec() -> SweepSpec {
    SweepSpec {
        name: "farm-test",
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
        let p = std::env::temp_dir().join(format!("etpp-sweep-farm-{tag}-{}", std::process::id()));
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

#[test]
fn merged_tables_are_byte_identical_for_any_jobs_and_shard_split() {
    let spec = probe_spec();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let cap = try_load_or_capture_keyed(None, &spec.base, &wl, "tiny", etpp::trace::FORMAT_VERSION)
        .unwrap();
    let wls = std::slice::from_ref(&wl);
    let caps = std::slice::from_ref(&cap);

    let render = |jobs: usize, n_shards: usize, cache: Option<&TempDir>| -> String {
        let files: Vec<sweeps::ShardFile> = (0..n_shards)
            .map(|k| {
                let o = opts(jobs, (k, n_shards), cache.map(|c| c.0.clone()));
                let run = sweeps::run_sweep(&spec, wls, caps, &o);
                // Every lookup (cells + the baseline) is a hit or a miss.
                let lookups = run.cells.len() as u64 + 1;
                assert_eq!(run.cache_hits() + run.cache_misses(), lookups);
                sweeps::parse_shard(&run.to_json()).expect("own shard file parses")
            })
            .collect();
        sweeps::render_merged(&sweeps::merge_shards(&files).expect("full coverage"))
    };

    let reference = render(1, 1, None);
    assert!(
        reference.contains("obs_queue=10 pf_buffer=16"),
        "settings rendered:\n{reference}"
    );
    // The dedupe is invisible in the tables: Stride rows that share one
    // simulation still render one row each, with equal cycles.
    let stride_cycles = |settings: &str| {
        let row = reference
            .lines()
            .find(|l| l.contains("| Stride |") && l.contains(settings))
            .expect("stride row rendered");
        row.split('|').nth(6).expect("cycles column").to_string()
    };
    assert_eq!(
        stride_cycles("obs_queue=10 pf_buffer=16"),
        stride_cycles("obs_queue=40 pf_buffer=16")
    );
    for (jobs, shards) in [(4, 1), (1, 4), (4, 4), (2, 3)] {
        assert_eq!(
            reference,
            render(jobs, shards, None),
            "jobs={jobs} shards={shards} changed the merged tables"
        );
        let cache = TempDir::new(&format!("split-{jobs}-{shards}"));
        assert_eq!(
            reference,
            render(jobs, shards, Some(&cache)),
            "jobs={jobs} shards={shards} over a result cache changed the merged tables"
        );
    }
}

#[test]
fn result_cache_hits_warm_and_invalidates_exactly_changed_cells() {
    let spec = probe_spec();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let cap = try_load_or_capture_keyed(None, &spec.base, &wl, "tiny", etpp::trace::FORMAT_VERSION)
        .unwrap();
    let wls = std::slice::from_ref(&wl);
    let caps = std::slice::from_ref(&cap);
    let tmp = TempDir::new("cache");
    let run = |spec: &SweepSpec| {
        sweeps::run_sweep(spec, wls, caps, &opts(2, (0, 1), Some(tmp.0.clone())))
    };

    // Cold: every distinct key executes and populates — the baseline,
    // 4 Manual cells, and 2 Stride cells (Stride cannot read obs_queue,
    // so its obs_queue=10/40 cells share one entry per pf_buffer); the
    // 2 Stride followers hit.
    let cold = run(&spec);
    assert_eq!(cold.distinct_cells(), 6);
    assert_eq!(cold.cache_misses(), 7);
    assert_eq!(cold.cache_hits(), 2, "the Stride followers");
    for c in &cold.cells {
        let follower = c.mode == PrefetchMode::Stride
            && c.settings.iter().any(|&(n, v)| n == "obs_queue" && v == 40);
        assert_eq!(c.cached, follower, "cell {} cache attribution", c.index);
    }

    // Warm: every lookup hits; the merged tables (which exclude cache
    // status — it is the one legitimately nondeterministic field) come
    // back byte-identical.
    let warm = run(&spec);
    assert_eq!(warm.cache_misses(), 0, "warm run must hit every cell");
    assert_eq!(warm.cache_hits(), 9);
    let tables = |r: &sweeps::ShardRun| {
        let f = sweeps::parse_shard(&r.to_json()).expect("shard parses");
        sweeps::render_merged(&sweeps::merge_shards(std::slice::from_ref(&f)).expect("covered"))
    };
    assert_eq!(tables(&cold), tables(&warm));
    assert!(warm.cells.iter().all(|c| c.cached));

    // A changed axis value invalidates exactly the cells that can
    // observe it: the baseline, the obs_queue=10 half and every Stride
    // cell still hit; only the Manual obs_queue=80 cells are new.
    let mut changed = probe_spec();
    changed.axes[0] = axes::obs_queue(&[10, 80]);
    let partial = run(&changed);
    assert_eq!(partial.cache_hits(), 7, "baseline + 6 unaffected cells");
    assert_eq!(partial.cache_misses(), 2, "2 Manual obs_queue=80 cells");
    for c in &partial.cells {
        let expect_hit = c.mode == PrefetchMode::Stride
            || c.settings.iter().any(|&(n, v)| n == "obs_queue" && v == 10);
        assert_eq!(
            c.cached, expect_hit,
            "cell {:?} cache attribution wrong",
            c.settings
        );
    }

    // A schema bump orphans the log by file name: rename it to the
    // previous schema's name and it is never opened — the run is cold
    // again — while the old file is left as it was.
    let log = sweeps::cache_log_path(&tmp.0);
    let bytes = std::fs::read(&log).unwrap();
    let rows = bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(rows, 6 + 1 + 2, "spec + baseline + the changed spec");
    let name = log.file_name().unwrap().to_str().unwrap();
    let old = log.with_file_name(name.replace("-s4.", "-s3."));
    assert_ne!(old, log);
    std::fs::rename(&log, &old).unwrap();
    let orphaned = run(&spec);
    assert_eq!(orphaned.cache_misses(), 7, "no -s3 row may be served");
    assert_eq!(orphaned.corrupt_evicted(), 0, "nor read and evicted");
    assert_eq!(std::fs::read(&old).unwrap(), bytes);
}

/// The files in `dir`, by name.
fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// However many cells a sweep caches, its cache directory holds one
/// file: the log every lookup of the next run is served from.
#[test]
fn a_sweep_leaves_one_file_in_its_cache_directory() {
    let spec = probe_spec();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let cap = try_load_or_capture_keyed(None, &spec.base, &wl, "tiny", etpp::trace::FORMAT_VERSION)
        .unwrap();
    let tmp = TempDir::new("one-file");
    let cache = tmp.0.join("cache");
    for k in 0..2 {
        let o = opts(2, (k, 2), Some(cache.clone()));
        let run = sweeps::run_sweep(
            &spec,
            std::slice::from_ref(&wl),
            std::slice::from_ref(&cap),
            &o,
        );
        assert_eq!(run.cache_hits() + run.cache_misses(), 4 + 1);
    }
    assert_eq!(file_names(&cache), ["cells-s4.jsonl"]);
}

/// Two shards appending to one cache directory at once lose no row: a
/// warm rerun of both hits on every lookup, and every row they wrote
/// reads back whole.
#[test]
fn concurrent_shards_share_one_cache_directory() {
    let spec = probe_spec();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let cap = try_load_or_capture_keyed(None, &spec.base, &wl, "tiny", etpp::trace::FORMAT_VERSION)
        .unwrap();
    let wls = std::slice::from_ref(&wl);
    let caps = std::slice::from_ref(&cap);
    let tmp = TempDir::new("concurrent");
    let spec = &spec;
    // Both shards start together, so their reads and appends overlap.
    let both = || {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let shards: Vec<_> = (0..2)
                .map(|k| {
                    let o = opts(1, (k, 2), Some(tmp.0.clone()));
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        sweeps::run_sweep(spec, wls, caps, &o)
                    })
                })
                .collect();
            shards
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    let cold = both();
    let lookups =
        |runs: &[sweeps::ShardRun]| -> u64 { runs.iter().map(|r| r.cells.len() as u64 + 1).sum() };
    let cold_misses: u64 = cold.iter().map(sweeps::ShardRun::cache_misses).sum();
    // Each shard simulates its own cells; the baseline both need is
    // simulated once or, if both read the log before either wrote it,
    // twice — a race the log allows, never a lost or torn row.
    assert!((7..=8).contains(&cold_misses), "{cold_misses} misses");
    let bytes = std::fs::read(sweeps::cache_log_path(&tmp.0)).unwrap();
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(
        lines.len() as u64,
        cold_misses,
        "one row per simulated cell"
    );
    assert!(lines
        .iter()
        .all(|l| sweeps::CellData::from_record(l).is_some()));

    let warm = both();
    assert_eq!(
        warm.iter().map(sweeps::ShardRun::cache_misses).sum::<u64>(),
        0
    );
    let hits: u64 = warm.iter().map(sweeps::ShardRun::cache_hits).sum();
    assert_eq!(hits, lookups(&warm));
    assert!(warm.iter().all(|r| r.corrupt_evicted() == 0));
    assert_eq!(file_names(&tmp.0), ["cells-s4.jsonl"]);
}

/// `repro --sweep --shard K/N --sweep-dir DIR` leaves one file per
/// shard in DIR, the shard log its run appended to; `repro --sweep-merge
/// DIR` merges those logs and only those.
#[test]
fn a_sweep_dir_as_repro_writes_it_merges() {
    use etpp::sim::faults::FaultPlan;
    let spec = probe_spec();
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let cap = try_load_or_capture_keyed(None, &spec.base, &wl, "tiny", etpp::trace::FORMAT_VERSION)
        .unwrap();
    let wls = std::slice::from_ref(&wl);
    let caps = std::slice::from_ref(&cap);
    let dir = TempDir::new("sweep-dir");

    // Job 5 (shard 1) exhausts its retries: its quarantine rides in its
    // cell's row of shard 1's log.
    let plan: FaultPlan = "panic=5@9".parse().unwrap();
    for k in 0..2 {
        let shard = (k, 2);
        let o = SweepOptions {
            faults: Some(plan.clone()),
            journal: Some(sweeps::shard_path(&dir.0, shard)),
            ..opts(2, shard, None)
        };
        let run = sweeps::run_sweep(&spec, wls, caps, &o);
        // The log on disk (completion order) reads as the one built
        // from memory (index order).
        let on_disk = std::fs::read_to_string(sweeps::shard_path(&dir.0, shard)).unwrap();
        let read = |log: &str| format!("{:?}", sweeps::parse_shard(log).unwrap());
        assert_eq!(read(&on_disk), read(&run.to_json()));
    }
    assert_eq!(
        file_names(&dir.0),
        ["shard-0-of-2.jsonl", "shard-1-of-2.jsonl"]
    );

    let files = sweeps::read_shard_dir(&dir.0).expect("the directory merges as written");
    assert_eq!(files.len(), 2);
    let merged = sweeps::merge_shards(&files).expect("two shards cover the sweep");
    assert_eq!(merged.cells.len(), 8);
    assert_eq!(merged.failures.len(), 1);
    assert_eq!(merged.failures[0].index, Some(5));
    let tables = sweeps::render_merged(&merged);
    assert!(tables.contains("## Quarantined cells"), "{tables}");

    // The same tables as the unsharded run of the same plan.
    let whole = SweepOptions {
        faults: Some(plan),
        ..opts(2, (0, 1), None)
    };
    let one = sweeps::run_sweep(&spec, wls, caps, &whole);
    let one = sweeps::parse_shard(&one.to_json()).unwrap();
    let one = sweeps::merge_shards(std::slice::from_ref(&one)).unwrap();
    assert_eq!(tables, sweeps::render_merged(&one));

    // A lost shard is a coverage error; a directory without shard logs,
    // or a log with a line that fails its seal, is an error naming the
    // path and the line.
    let lost = sweeps::shard_path(&dir.0, (1, 2));
    let log = std::fs::read_to_string(&lost).unwrap();
    std::fs::remove_file(&lost).unwrap();
    let lone = sweeps::read_shard_dir(&dir.0).unwrap();
    let err = sweeps::merge_shards(&lone).unwrap_err();
    assert!(err.contains("missing [1, 3, 5, 7]"), "{err}");
    let second = log.find('\n').unwrap() + 1;
    let mut flipped = log.into_bytes();
    flipped[second + 10] ^= 1;
    std::fs::write(&lost, flipped).unwrap();
    let err = sweeps::read_shard_dir(&dir.0).unwrap_err();
    assert!(
        err.contains("shard-1-of-2.jsonl: line 2 fails its seal"),
        "{err}"
    );
    let empty = TempDir::new("sweep-dir-empty");
    std::fs::write(empty.0.join("shard-0-of-1.json"), "{}\n").unwrap();
    let err = sweeps::read_shard_dir(&empty.0).unwrap_err();
    assert!(err.contains("no shard-*.jsonl"), "{err}");
}

#[test]
fn composed_grid_covers_the_documented_cross_product() {
    let spec = sweeps::composed_grid();
    // 6 modes × 4 obs_queue × 2 req_queue × 4 lookahead_scale ×
    // 4 pf_buffer × 2 num_ppus × 2 ppu_hz.
    assert_eq!(spec.cells_per_workload(), 3072);
    assert_eq!(spec.total_jobs(2), 6144);
    assert!(spec
        .axes
        .iter()
        .any(|a| a.name == "lookahead_scale" && a.values.contains(&0)));
    // The grown axes (PR 7's ROADMAP leftover) and the zoo modes.
    for name in ["req_queue", "num_ppus", "ppu_hz"] {
        assert!(
            spec.axes.iter().any(|a| a.name == name),
            "missing axis {name}"
        );
    }
    for mode in [PrefetchMode::RptStride, PrefetchMode::PcDelta] {
        assert!(spec.modes.contains(&mode), "missing zoo mode {mode:?}");
    }
}

/// Reference keying: FNV-1a over the effective config's `Debug` text.
/// The field-hashed key must split the grid exactly as this does.
fn debug_text_key(cfg: &SystemConfig, mode: PrefetchMode, escalate: bool) -> u64 {
    use etpp::trace::format::{fnv1a, FNV_OFFSET};
    let cfg = cfg.effective_for(mode);
    let mut h = FNV_OFFSET;
    h = fnv1a(b"etpp-sweep-cell", h);
    h = fnv1a(format!("{cfg:?}").as_bytes(), h);
    h = fnv1a(mode.key().as_bytes(), h);
    h = fnv1a(&[escalate as u8], h);
    h = fnv1a(format!("{:?}", replay_params()).as_bytes(), h);
    fnv1a(&u64::from(sweeps::SWEEP_SCHEMA_VERSION).to_le_bytes(), h)
}

/// The dedupe is exact: a fixed-function mode's key moves with
/// `pf_buffer` only, a programmable mode's with every axis. And the
/// field-hashed key splits the grid exactly as the `Debug`-text
/// reference does: two jobs share one exactly when they share the other.
#[test]
fn composed_grid_has_exactly_2080_distinct_cells() {
    let spec = sweeps::composed_grid();
    let total = spec.total_jobs(2);
    assert_eq!(total, 6144);
    for escalate in [false, true] {
        let mut keys = HashSet::new();
        let mut pairs = HashSet::new();
        let mut old_keys = HashSet::new();
        for job in 0..total {
            let (wi, mi, vi) = spec.decode(job);
            let cfg = spec.config_for(&vi);
            let hash = sweeps::cell_config_hash(&cfg, spec.modes[mi], escalate);
            let old = debug_text_key(&cfg, spec.modes[mi], escalate);
            keys.insert((wi, hash));
            old_keys.insert((wi, old));
            pairs.insert((wi, hash, old));
        }
        // 2 workloads × (4 fixed-function modes × 4 pf_buffer values +
        // 2 programmable modes × the full 512-point axis product).
        assert_eq!(keys.len(), 2 * (4 * 4 + 2 * 512), "escalate {escalate}");
        // A bijection between the two keyings: as many (new, old) pairs
        // as distinct keys on either side.
        assert_eq!(old_keys.len(), keys.len(), "escalate {escalate}");
        assert_eq!(pairs.len(), keys.len(), "escalate {escalate}");
    }
}

/// The tripwire behind the effective-config key: no fixed-function
/// engine, and neither driver under it, may read a field
/// `effective_for` resets. Every `cfg.pf` axis of the composed grid is
/// pushed to its low extreme in one config and its high extreme in
/// another; both simulators must return the projected config's numbers
/// exactly.
#[test]
fn effective_config_projection_changes_no_simulated_number() {
    let base = SystemConfig::paper();
    let spec = sweeps::composed_grid();
    let pf_axes: Vec<&sweeps::Axis> = spec
        .axes
        .iter()
        .filter(|a| {
            let mut cfg = base;
            (a.apply)(&mut cfg, a.values[0]);
            cfg.pf != base.pf
        })
        .collect();
    assert_eq!(pf_axes.len(), 5, "every composed axis but pf_buffer");
    let configs = [false, true].map(|high| {
        let mut cfg = base;
        for a in &pf_axes {
            let v = if high {
                a.values.last()
            } else {
                a.values.first()
            };
            (a.apply)(&mut cfg, *v.expect("axis has values"));
        }
        cfg
    });

    let same = |a: &SystemConfig, b: &SystemConfig| {
        a.core == b.core
            && a.pf == b.pf
            && format!("{:?}", a.mem) == format!("{:?}", b.mem)
            && (a.max_cycles, a.per_cycle_reference) == (b.max_cycles, b.per_cycle_reference)
    };
    for name in ["IntSort", "HJ-8"] {
        let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
        let cap = try_load_or_capture_keyed(None, &base, &wl, "tiny", etpp::trace::FORMAT_VERSION)
            .unwrap();
        for mode in PrefetchMode::ALL {
            if mode.is_programmable() {
                for cfg in &configs {
                    assert!(
                        same(cfg, &cfg.effective_for(mode)),
                        "{mode:?} must keep {cfg:?}"
                    );
                }
                continue;
            }
            if mode == PrefetchMode::Software {
                continue; // no engine to build
            }
            let replayed = |cfg: &SystemConfig| {
                let r = replay_run(cfg, mode, &wl, &cap.trace.records).expect("replayable");
                (r.cycles, r.mem, r.validated)
            };
            let simulated = |cfg: &SystemConfig| {
                let r = etpp::sim::run(cfg, mode, &wl).expect("runnable");
                (r.cycles, r.mem, r.core, r.validated)
            };
            let (want_replay, want_cycle) = (replayed(&base), simulated(&base));
            for cfg in &configs {
                assert!(same(&cfg.effective_for(mode), &base));
                assert_eq!(
                    replayed(cfg),
                    want_replay,
                    "{name} {mode:?} replay reads {:?}",
                    cfg.pf
                );
                assert_eq!(
                    simulated(cfg),
                    want_cycle,
                    "{name} {mode:?} cycle core reads {:?}",
                    cfg.pf
                );
            }
        }
    }
}
