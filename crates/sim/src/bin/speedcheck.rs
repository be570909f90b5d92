//! Developer diagnostic: simulation wall-clock speed for the cycle-level
//! core and the trace-replay fast path across engine modes, with a
//! machine-readable `BENCH_speedcheck.json` (schema 9) so the perf
//! trajectory is tracked across PRs.
//!
//! ```text
//! cargo run --release -p etpp-sim --bin speedcheck            # Small scale
//! cargo run --release -p etpp-sim --bin speedcheck -- --smoke # Tiny, CI
//! cargo run --release -p etpp-sim --bin speedcheck -- --jobs 4
//! cargo run --release -p etpp-sim --bin speedcheck -- --json out.json
//! cargo run --release -p etpp-sim --bin speedcheck -- --compare prev.json
//! cargo run --release -p etpp-sim --bin speedcheck -- --telemetry
//! ```
//!
//! Both paths report `accesses_per_s` (host throughput over the demand
//! stream) and the deterministic event-horizon *fast-forward factor*
//! (simulated cycles per driver visit) — PR 2 brought programmable-mode
//! replay within reach of the baselines, PR 3's horizon-aware cycle
//! core stopped the reference simulations from ticking through
//! 99%-plus-stall spans one cycle at a time, and PR 4's dense-span fusion +
//! wake-driven structural stalls put the programmable cycle path ahead
//! of where the baselines used to be. Schema 3 adds the per-source
//! *visit attribution* (`visits`) on every cycle row — which horizon
//! source ended each driver visit — and at least one compiled
//! programmable mode (`converted`) so the regression gate guards the
//! hot path the paper is about. Schema 4 adds `cycle_agreement` to
//! every replay row — replayed cycles over the cycle core's cycles for
//! the same (workload, mode) — now that dependence-aware replay makes
//! absolute cycle counts comparable, plus the
//! `dep_stalls` serialisation count behind it. Schema 5 puts prefetch
//! *quality* next to throughput: every cycle row carries
//! `late_pf_merges` (demand misses that caught an in-flight prefetch),
//! and `--telemetry` adds the full lifecycle classification
//! (`issued`/`accurate`/`late`/`early_evicted`/`useless`) from a
//! second, untimed telemetry-enabled run per cell — untimed because the
//! timed cells stay telemetry-off, which is what the throughput gates
//! measure. Schema 6 adds the `sweep` stanza: a small composed sweep
//! (see `etpp_sim::sweeps`) run twice against a scratch result cache —
//! cold then warm — recording the `sweep.cache.{hit,miss,escalated}`
//! counters and wall time of each pass. The stanza is its own gate: the
//! warm pass must hit on every lookup (one stale-keyed cell would
//! silently resimulate on every farm run) and must not escalate.
//! Schema 7 arms the cooperative watchdog (see `etpp_sim::watchdog`)
//! on every *timed* cell with a generous budget that never fires, so
//! the throughput numbers — and the overhead gate below — measure the
//! production configuration: strided deadline polls in the driver and
//! memory system included. The report records it in the `watchdog`
//! stanza. Schema 8 adds the engine-zoo modes (`PrefetchMode::ZOO`:
//! `rpt_stride`, `pc_delta`, `adaptive`) to the cell grid so the new
//! engines' throughput rides the same gates; against a schema-7
//! report, `--compare` lists their rows as coverage drift, not
//! failures. Schema 9 gives each workload object its set-up cost:
//! `build_s` (`Workload::build` wall time) and `trace_bytes` (the
//! micro-op bytes the built workload holds once its cells ran —
//! `BuiltWorkload::trace_bytes`). `--compare` reads schema-8 reports
//! too: it keys on the cell rows only.
//!
//! The report is written and read back (`--compare`) with the sweep
//! farm's row codec, `etpp_sim::rows`: every cell is one row on its own
//! line, nested `lifecycle`/`visits` objects included.
//!
//! `--jobs N` shards the (workload × path × mode) cell grid across N
//! worker threads; each cell's `wall_s` is still measured around its
//! own single-threaded simulation inside the worker, so
//! `accesses_per_s` stays comparable with serial baselines (modulo
//! co-scheduling noise, which the deterministic counters are immune
//! to).
//!
//! `--compare prev.json` gates the current report against a previous
//! run's (e.g. the last CI artifact): any (workload, path, mode) cell
//! whose `accesses_per_s` dropped by more than 20% *and* whose
//! fast-forward factor shrank too fails the check. Cells present on
//! only one side (schema drift, skipped modes, coverage changes) are
//! listed explicitly so mode-coverage drift is visible in CI logs.
//! `--compare` also applies the *overhead gate*: the geometric-mean
//! throughput ratio across all compared cells must stay above 0.99 —
//! per-cell noise averages out across the grid, so a systematic ≳1%
//! slowdown (the combined budget for the disabled telemetry hooks and
//! the armed watchdog's strided polls) fails even when no individual
//! cell trips the 20% gate.

use etpp_mem::LifecycleCounts;
use etpp_sim::experiments::{map_indexed, sample_interval};
use etpp_sim::replay as rp;
use etpp_sim::rows::{row, write_rows, Row, RowWriter};
use etpp_sim::sweeps;
use etpp_sim::{
    run_telemetry, run_watched, PrefetchMode, SystemConfig, TelemetrySpec, VisitCounts, Watchdog,
};
use etpp_telemetry::json_escape;
use etpp_workloads::{BuiltWorkload, Scale, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Per-cell deadline for the timed grid: generous enough that it can
/// never fire on any supported scale, so arming it changes wall time
/// only by the strided poll overhead the gate is meant to measure —
/// never the simulation results (pinned by the equivalence suite).
const WATCHDOG_BUDGET: Duration = Duration::from_secs(3600);

#[derive(Debug)]
struct CycleRow {
    mode: PrefetchMode,
    cycles: u64,
    host_iters: u64,
    wall_s: f64,
    accesses_per_s: f64,
    validated: bool,
    visits: VisitCounts,
    /// Demand misses that merged into an in-flight prefetch (free from
    /// `MemStats`; prefetch timeliness next to throughput).
    late_pf_merges: u64,
    /// Full lifecycle classification from a second, untimed
    /// telemetry-enabled run (`--telemetry` only; the timed run above
    /// stays telemetry-off).
    lifecycle: Option<LifecycleCounts>,
}

#[derive(Debug)]
struct ReplayRow {
    mode: PrefetchMode,
    cycles: u64,
    host_iters: u64,
    dep_stalls: u64,
    wall_s: f64,
    accesses_per_s: f64,
    host_speedup: Option<f64>,
    /// Replayed cycles over the cycle core's cycles for the same
    /// (workload, mode): the absolute-cycle agreement the
    /// dependence-aware front end buys (1.0 = exact).
    cycle_agreement: Option<f64>,
    validated: bool,
}

/// Event-horizon fast-forward factor: simulated cycles per visited host
/// iteration. Deterministic (unlike wall time), so the CI gates key on
/// it.
fn ff(cycles: u64, host_iters: u64) -> f64 {
    cycles as f64 / host_iters.max(1) as f64
}

impl CycleRow {
    fn ff(&self) -> f64 {
        ff(self.cycles, self.host_iters)
    }
}

impl ReplayRow {
    fn ff(&self) -> f64 {
        ff(self.cycles, self.host_iters)
    }
}

#[derive(Debug)]
struct WorkloadReport {
    name: &'static str,
    trace_accesses: u64,
    build_s: f64,
    trace_bytes: usize,
    cycle: Vec<CycleRow>,
    replay: Vec<ReplayRow>,
}

/// Cache-effectiveness counters of one sweep pass (cold or warm) over
/// the schema-6 mini sweep.
#[derive(Debug)]
struct SweepPass {
    hit: u64,
    miss: u64,
    escalated: u64,
    wall_s: f64,
}

/// The schema-6 `sweep` stanza: the same mini composed sweep run cold
/// then warm against a scratch result cache.
#[derive(Debug)]
struct SweepStanza {
    cells: usize,
    cold: SweepPass,
    warm: SweepPass,
}

/// Runs the mini composed sweep twice against a scratch cache dir and
/// returns both passes' counters. The scratch dir is removed first (a
/// leftover from a previous run must not turn the cold pass warm) and
/// cleaned up after.
fn run_sweep_stanza(
    cfg: &SystemConfig,
    workloads: &[BuiltWorkload],
    captures: &[rp::KeyedCapture],
    scale_label: &str,
    jobs: usize,
) -> SweepStanza {
    let spec = sweeps::SweepSpec {
        name: "speedcheck-mini",
        base: *cfg,
        modes: vec![PrefetchMode::Stride, PrefetchMode::Manual],
        axes: vec![sweeps::axes::obs_queue(&[10, 40])],
    };
    let cache = std::env::temp_dir().join(format!("etpp-speedcheck-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let opts = sweeps::SweepOptions {
        cache_dir: Some(cache.clone()),
        ..sweeps::SweepOptions::new(jobs, scale_label)
    };
    let pass = || {
        let t = Instant::now();
        let run = sweeps::run_sweep(&spec, workloads, captures, &opts);
        (
            SweepPass {
                hit: run.cache_hits(),
                miss: run.cache_misses(),
                escalated: run.escalations(),
                wall_s: t.elapsed().as_secs_f64(),
            },
            run.cells.len(),
        )
    };
    let (cold, cells) = pass();
    let (warm, _) = pass();
    let _ = std::fs::remove_dir_all(&cache);
    eprintln!(
        "sweep stanza: {cells} cells; cold {}h/{}m/{}e in {:.3}s, warm {}h/{}m/{}e in {:.3}s",
        cold.hit,
        cold.miss,
        cold.escalated,
        cold.wall_s,
        warm.hit,
        warm.miss,
        warm.escalated,
        warm.wall_s
    );
    SweepStanza { cells, cold, warm }
}

fn render_json(
    scale: &str,
    jobs: usize,
    modes: &[PrefetchMode],
    reports: &[WorkloadReport],
    sweep: &SweepStanza,
) -> String {
    let mut j = String::new();
    j.push_str("{\n  \"schema\": 9,\n  \"tool\": \"speedcheck\",\n");
    let _ = writeln!(j, "  \"scale\": \"{}\",", json_escape(scale));
    let _ = writeln!(j, "  \"jobs\": {jobs},");
    let mode_list = modes
        .iter()
        .map(|m| format!("\"{}\"", m.key()))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(j, "  \"modes\": [{mode_list}],");
    let watchdog = row(|w| {
        w.raw("armed", true)
            .raw("budget_s", WATCHDOG_BUDGET.as_secs());
    });
    let _ = writeln!(j, "  \"watchdog\": {watchdog},");
    let pass = |w: &mut RowWriter<'_>, p: &SweepPass| {
        w.raw("hit", p.hit)
            .raw("miss", p.miss)
            .raw("escalated", p.escalated)
            .raw("wall_s", format_args!("{:.6}", p.wall_s));
    };
    let stanza = row(|w| {
        w.raw("cells", sweep.cells)
            .nested("cold", |n| pass(n, &sweep.cold))
            .nested("warm", |n| pass(n, &sweep.warm));
    });
    let _ = writeln!(j, "  \"sweep\": {stanza},");
    j.push_str("  \"workloads\": [\n");
    // One cell per line: `parse_report` (and `--compare`) read them as rows.
    for (wi, w) in reports.iter().enumerate() {
        let _ = writeln!(j, "    {{\n      \"name\": \"{}\",", json_escape(w.name));
        let _ = writeln!(j, "      \"trace_accesses\": {},", w.trace_accesses);
        let _ = writeln!(j, "      \"build_s\": {:.6},", w.build_s);
        let _ = writeln!(j, "      \"trace_bytes\": {},", w.trace_bytes);
        j.push_str("      \"cycle\": ");
        write_rows(&mut j, "      ", &w.cycle, |row, r| {
            row.str("mode", r.mode.key())
                .raw("cycles", r.cycles)
                .raw("host_iters", r.host_iters)
                .raw("fast_forward", format_args!("{:.3}", r.ff()))
                .raw("wall_s", format_args!("{:.6}", r.wall_s))
                .raw("accesses_per_s", format_args!("{:.1}", r.accesses_per_s))
                .raw("validated", r.validated)
                .raw("late_pf_merges", r.late_pf_merges);
            match &r.lifecycle {
                Some(l) => row.nested("lifecycle", |n| {
                    n.raw("issued", l.issued)
                        .raw("accurate", l.accurate)
                        .raw("late", l.late)
                        .raw("early_evicted", l.early_evicted)
                        .raw("useless", l.useless);
                }),
                None => row.raw("lifecycle", "null"),
            }
            .nested("visits", |n| {
                for (key, count) in r.visits.iter().filter(|(_, count)| *count > 0) {
                    n.raw(key, count);
                }
            });
        });
        j.push_str(",\n      \"replay\": ");
        write_rows(&mut j, "      ", &w.replay, |row, r| {
            row.str("mode", r.mode.key())
                .raw("cycles", r.cycles)
                .raw("host_iters", r.host_iters)
                .raw("fast_forward", format_args!("{:.3}", r.ff()))
                .raw("wall_s", format_args!("{:.6}", r.wall_s))
                .raw("accesses_per_s", format_args!("{:.1}", r.accesses_per_s))
                .opt("host_speedup", r.host_speedup.map(|s| format!("{s:.3}")))
                .opt(
                    "cycle_agreement",
                    r.cycle_agreement.map(|a| format!("{a:.3}")),
                )
                .raw("dep_stalls", r.dep_stalls)
                .raw("validated", r.validated);
        });
        j.push_str("\n    }");
        j.push_str(if wi + 1 < reports.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    j
}

// ---------------------------------------------------------------------------
// --compare: host-profile regression gate against a previous report
// ---------------------------------------------------------------------------

/// One parsed throughput cell: host accesses/s plus the deterministic
/// fast-forward factor (absent in schema-1 cycle rows).
struct Cell {
    key: (String, String, String),
    accesses_per_s: f64,
    fast_forward: Option<f64>,
}

/// A parsed speedcheck report (schema 1 or 2): the run scale and its
/// `(workload, path, mode)` cells. Cells without an `accesses_per_s`
/// field (schema 1 cycle rows) are omitted.
struct Report {
    scale: String,
    cells: Vec<Cell>,
}

/// Reads a report with the shared row reader: each cell is one row on
/// its own line (nested `lifecycle`/`visits` objects included); the
/// `"scale"`/`"name"` lines around them are one-member lists.
fn parse_report(json: &str) -> Report {
    let mut scale = String::new();
    let mut cells = Vec::new();
    let mut workload = String::new();
    let mut path = "";
    for line in json.lines() {
        let t = line.trim();
        let t = t.strip_suffix(',').unwrap_or(t);
        if t.starts_with("\"cycle\": [") {
            path = "cycle";
        } else if t.starts_with("\"replay\": [") {
            path = "replay";
        } else if let Some(row) = Row::parse(t) {
            if let (Ok(mode), Ok(aps)) = (row.str("mode"), row.get("accesses_per_s")) {
                cells.push(Cell {
                    key: (workload.clone(), path.to_string(), mode.into_owned()),
                    accesses_per_s: aps,
                    fast_forward: row.get("fast_forward").ok(),
                });
            }
        } else if let Some(row) = Row::members(t) {
            if let Ok(s) = row.str("scale") {
                scale = s.into_owned();
            } else if let Ok(name) = row.str("name") {
                workload = name.into_owned();
            }
        }
    }
    Report { scale, cells }
}

/// Compares the freshly written report against a previous one, failing
/// on any cell whose host throughput regressed by more than
/// `threshold` (0.20 = 20%). A wall-clock drop alone can be runner
/// noise (tiny-scale cells run in tens of milliseconds), so a cell only
/// counts as regressed when its *deterministic* fast-forward factor
/// shrank too — a pure load spike on a shared CI host leaves the ff
/// untouched, while a real scheduling regression moves both. Reports
/// from different scales are never compared. Returns the number of
/// regressed cells.
fn compare_reports(prev: &str, current: &str, threshold: f64) -> usize {
    let old = parse_report(prev);
    let new = parse_report(current);
    if old.scale != new.scale {
        eprintln!(
            "compare: skipping (previous report is \"{}\" scale, current is \"{}\")",
            old.scale, new.scale
        );
        return 0;
    }
    // Cells present on only one side are never gated, but silent skips
    // have hidden mode-coverage drift before — list them explicitly.
    let missing_from_new: Vec<&Cell> = old
        .cells
        .iter()
        .filter(|c| !new.cells.iter().any(|n| n.key == c.key))
        .collect();
    for c in &missing_from_new {
        eprintln!(
            "note {}/{}/{}: present in previous report but missing from current \
             (coverage drift — cell not gated)",
            c.key.0, c.key.1, c.key.2
        );
    }
    for c in new
        .cells
        .iter()
        .filter(|c| !old.cells.iter().any(|o| o.key == c.key))
    {
        eprintln!(
            "note {}/{}/{}: new cell with no previous counterpart \
             (becomes part of the baseline from this run on)",
            c.key.0, c.key.1, c.key.2
        );
    }
    const FF_SLACK: f64 = 0.05;
    let mut regressions = 0;
    let mut compared = 0;
    let mut log_ratio_sum = 0.0f64;
    for cell in &new.cells {
        let Some(old_cell) = old.cells.iter().find(|c| c.key == cell.key) else {
            continue;
        };
        compared += 1;
        log_ratio_sum +=
            (cell.accesses_per_s / old_cell.accesses_per_s.max(f64::MIN_POSITIVE)).ln();
        let aps_drop = cell.accesses_per_s < old_cell.accesses_per_s * (1.0 - threshold);
        let ff_confirms = match (cell.fast_forward, old_cell.fast_forward) {
            // Deterministic counter also collapsed: a real regression.
            (Some(new_ff), Some(old_ff)) => new_ff < old_ff * (1.0 - FF_SLACK),
            // No ff recorded on either side (schema drift): the
            // wall-clock drop is all the evidence there is.
            _ => true,
        };
        if aps_drop && ff_confirms {
            regressions += 1;
            eprintln!(
                "FAIL {}/{}/{}: accesses/s {:.3e} -> {:.3e} ({:+.1}%) exceeds -{:.0}% gate \
                 (fast-forward {:?} -> {:?})",
                cell.key.0,
                cell.key.1,
                cell.key.2,
                old_cell.accesses_per_s,
                cell.accesses_per_s,
                (cell.accesses_per_s / old_cell.accesses_per_s - 1.0) * 100.0,
                threshold * 100.0,
                old_cell.fast_forward,
                cell.fast_forward,
            );
        } else if aps_drop {
            eprintln!(
                "note {}/{}/{}: accesses/s dropped {:.1}% but fast-forward held \
                 ({:?} -> {:?}) — treating as host noise",
                cell.key.0,
                cell.key.1,
                cell.key.2,
                (1.0 - cell.accesses_per_s / old_cell.accesses_per_s) * 100.0,
                old_cell.fast_forward,
                cell.fast_forward,
            );
        }
    }
    // Overhead gate: the per-cell gate tolerates 20% host noise on
    // tens-of-milliseconds timings, but noise averages out across the
    // grid — the geometric mean of the throughput ratios moves far
    // less. A systematic slowdown (e.g. the disabled telemetry hooks
    // or the armed watchdog's strided polls acquiring real cost on
    // the hot paths) drags the whole grid down together and fails
    // here even when no single cell trips the 20% gate.
    const OVERHEAD_GATE: f64 = 0.99;
    if compared > 0 {
        let geomean = (log_ratio_sum / compared as f64).exp();
        if geomean < OVERHEAD_GATE {
            regressions += 1;
            eprintln!(
                "FAIL overhead gate: geomean throughput ratio {geomean:.4} across \
                 {compared} cells below {OVERHEAD_GATE} (>1% systematic slowdown — \
                 check hot-path hooks that should be free when telemetry is off \
                 and the watchdog's strided deadline polls)"
            );
        } else {
            eprintln!(
                "overhead gate: geomean throughput ratio {geomean:.4} across \
                 {compared} cells (floor {OVERHEAD_GATE})"
            );
        }
    }
    eprintln!(
        "compare: {compared} cells compared, {regressions} regressed (>{:.0}% drop), \
         {} previous cell(s) missing from current, {} new",
        threshold * 100.0,
        missing_from_new.len(),
        new.cells.len() - compared,
    );
    regressions
}

/// Exit 2 naming the offending flag (the wording `repro` uses): a
/// typo'd `--smok` must never silently run the full Small-scale pass.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("see the doc comment at the top of crates/sim/src/bin/speedcheck.rs for usage");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut smoke, mut telemetry, mut jobs) = (false, false, 1usize);
    let mut json_path = "BENCH_speedcheck.json".to_string();
    let mut compare_path: Option<String> = None;
    let mut compare_only: Option<(String, String)> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |msg: &str| it.next().cloned().unwrap_or_else(|| usage_error(msg));
        match a.as_str() {
            "--smoke" => smoke = true,
            "--telemetry" => telemetry = true,
            "--jobs" => {
                let v = value("--jobs needs a count");
                jobs = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    usage_error(&format!("--jobs: positive integer, got {v:?}"))
                });
            }
            "--json" => json_path = value("--json needs a path"),
            "--compare" => compare_path = Some(value("--compare needs a path")),
            "--compare-only" => {
                let msg = "--compare-only needs <prev.json> <new.json>";
                compare_only = Some((value(msg), value(msg)));
            }
            _ => usage_error(&format!("unknown flag: {a}")),
        }
    }

    // `--compare-only prev.json new.json` gates two existing reports
    // against each other without running any simulation (CI keeps the
    // gate a separate, individually skippable step this way).
    if let Some((prev_path, new_path)) = &compare_only {
        let read = |p: &String| {
            std::fs::read_to_string(p).map_err(|e| eprintln!("compare: skipping ({p}: {e})"))
        };
        // A missing previous report is not an error: the first run
        // after the gate lands (or an expired artifact) has nothing to
        // compare against. A missing *new* report is.
        let Ok(new) = std::fs::read_to_string(new_path) else {
            eprintln!("compare: cannot read current report {new_path}");
            std::process::exit(2);
        };
        match read(prev_path) {
            Ok(prev) if compare_reports(&prev, &new, 0.20) > 0 => std::process::exit(1),
            _ => std::process::exit(0),
        }
    }

    let scale = if smoke { Scale::Tiny } else { Scale::Small };
    let scale_label = scale.label();
    // `converted` guards the compiled programmable hot path — the
    // compiler-generated kernels the paper's Figure 7 "Converted" bars
    // measure — alongside the hand-written `manual` kernels. The zoo
    // modes (schema 8) keep the new engines on the same perf gates.
    let mut modes = vec![
        PrefetchMode::None,
        PrefetchMode::Stride,
        PrefetchMode::GhbRegular,
        PrefetchMode::Converted,
        PrefetchMode::Manual,
    ];
    modes.extend(PrefetchMode::ZOO);

    let cfg = SystemConfig::paper();

    // Build the workloads, then capture each demand stream (one
    // cycle-level baseline run per workload, sharded).
    let defs: [(&str, Box<dyn Workload>); 2] = [
        (
            "IntSort",
            Box::new(etpp_workloads::intsort::IntSort) as Box<dyn Workload>,
        ),
        ("HJ-8", Box::new(etpp_workloads::hashjoin::Hj8)),
    ];
    let mut workloads = Vec::new();
    let mut build_s = Vec::new();
    for (name, w) in &defs {
        let t0 = Instant::now();
        let wl = w.build(scale);
        let took = t0.elapsed();
        eprintln!("{name}: build {took:?} trace_ops={}", wl.trace.len());
        workloads.push(wl);
        build_s.push(took.as_secs_f64());
    }
    let captures: Vec<rp::KeyedCapture> = map_indexed(jobs, workloads.len(), |i| {
        let t = Instant::now();
        let cap = rp::try_load_or_capture_keyed(
            None,
            &cfg,
            &workloads[i],
            scale_label,
            etpp_trace::FORMAT_VERSION,
        )
        .unwrap();
        (cap, t.elapsed())
    })
    .into_iter()
    .map(|(cap, took)| {
        eprintln!(
            "{}: capture {} records ({} accesses) in {took:?}",
            cap.trace.meta.workload,
            cap.trace.records.len(),
            cap.trace.access_count(),
        );
        cap
    })
    .collect();

    // One job per (workload, path, mode) cell. `wall_s` wraps only the
    // cell's own single-threaded simulation, measured inside the
    // worker, so throughput stays comparable with a serial run.
    enum Row {
        Cycle(CycleRow),
        Replay(ReplayRow),
        /// (path label, mode, why) — printed during reassembly so a
        /// vanished cell is visible even without a `--compare` baseline.
        Skipped(&'static str, PrefetchMode, String),
    }
    let paths = 2usize; // 0 = cycle, 1 = replay
    let cell_count = workloads.len() * paths * modes.len();
    let rows = map_indexed(jobs, cell_count, |k| {
        let wi = k / (paths * modes.len());
        let path = (k / modes.len()) % paths;
        let mode = modes[k % modes.len()];
        let wl = &workloads[wi];
        if path == 0 {
            let wd = Watchdog::with_budget(WATCHDOG_BUDGET);
            let t = Instant::now();
            match run_watched(&cfg, mode, wl, &wd) {
                Ok(r) => {
                    let wall = t.elapsed().as_secs_f64();
                    let l1 = &r.mem.l1;
                    let demand_accesses =
                        l1.read_hits + l1.read_misses + l1.write_hits + l1.write_misses;
                    // The timed run above stays telemetry-off (that is
                    // what the throughput gates measure); the lifecycle
                    // classification comes from a separate, untimed
                    // telemetry-enabled run over the same cell.
                    let lifecycle = telemetry.then(|| {
                        let spec = TelemetrySpec::counters_only(sample_interval(scale));
                        run_telemetry(&cfg, mode, wl, &spec)
                            .expect("expressible above")
                            .1
                            .lifecycle
                    });
                    Row::Cycle(CycleRow {
                        mode,
                        cycles: r.cycles,
                        host_iters: r.host_iters,
                        wall_s: wall,
                        accesses_per_s: demand_accesses as f64 / wall,
                        validated: r.validated,
                        visits: r.visits,
                        late_pf_merges: r.mem.l1.late_prefetch_merges,
                        lifecycle,
                    })
                }
                Err(why) => Row::Skipped("cycle", mode, why.to_string()),
            }
        } else {
            let records = &captures[wi].trace.records;
            let wd = Watchdog::with_budget(WATCHDOG_BUDGET);
            let t = Instant::now();
            match rp::replay_run_watched(&cfg, mode, wl, records, Some(wd.token())) {
                Ok(r) => {
                    let wall = t.elapsed().as_secs_f64();
                    Row::Replay(ReplayRow {
                        mode,
                        cycles: r.cycles,
                        host_iters: r.host_iters,
                        dep_stalls: r.dep_stalls,
                        wall_s: wall,
                        accesses_per_s: captures[wi].trace.access_count() as f64 / wall,
                        host_speedup: None, // filled in below from the cycle row
                        cycle_agreement: None, // likewise
                        validated: r.validated,
                    })
                }
                Err(why) => Row::Skipped("replay", mode, why.to_string()),
            }
        }
    });

    let mut reports = Vec::new();
    let mut rows = rows.into_iter();
    for (wi, wl) in workloads.iter().enumerate() {
        let mut cycle_rows: Vec<CycleRow> = Vec::new();
        let mut replay_rows: Vec<ReplayRow> = Vec::new();
        for _ in 0..paths * modes.len() {
            match rows.next().expect("one row per cell") {
                Row::Cycle(r) => cycle_rows.push(r),
                Row::Replay(mut r) => {
                    let cycle = cycle_rows.iter().find(|c| c.mode == r.mode);
                    r.host_speedup = cycle.map(|c| c.wall_s / r.wall_s);
                    r.cycle_agreement = cycle.map(|c| r.cycles as f64 / c.cycles.max(1) as f64);
                    replay_rows.push(r);
                }
                Row::Skipped(path, mode, why) => {
                    eprintln!("{} {path} {:>13}: skipped ({why})", wl.name, mode.label());
                }
            }
        }
        for r in &cycle_rows {
            eprintln!(
                "{} cycle {:>13}: cycles={:>12} wall={:.3}s validated={} accesses/s={:.2e} ff={:.1}x",
                wl.name,
                r.mode.label(),
                r.cycles,
                r.wall_s,
                r.validated,
                r.accesses_per_s,
                r.ff(),
            );
        }
        for r in &replay_rows {
            eprintln!(
                "{} replay {:>12}: cycles={:>12} wall={:.3}s validated={} accesses/s={:.2e} ff={:.1}x host-speedup={} agree={}",
                wl.name,
                r.mode.label(),
                r.cycles,
                r.wall_s,
                r.validated,
                r.accesses_per_s,
                r.ff(),
                r.host_speedup
                    .map_or("n/a".to_string(), |s| format!("{s:.1}x")),
                r.cycle_agreement
                    .map_or("n/a".to_string(), |a| format!("{a:.3}")),
            );
        }
        reports.push(WorkloadReport {
            name: wl.name,
            trace_accesses: captures[wi].trace.access_count(),
            build_s: build_s[wi],
            trace_bytes: wl.trace_bytes(),
            cycle: cycle_rows,
            replay: replay_rows,
        });
    }

    let sweep = run_sweep_stanza(&cfg, &workloads, &captures, scale_label, jobs);
    let json = render_json(scale_label, jobs, &modes, &reports, &sweep);
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => {
            eprintln!("could not write {json_path}: {e}");
            std::process::exit(1);
        }
    }

    // Smoke gate for CI: every run must validate, programmable-mode
    // replay must exist (a silently skipped run must not pass the gate
    // it was meant to feed), and the *deterministic* fast-forward
    // factors must show both horizon schedulers actually skipping
    // cycles — the replay front end (PR 2) and the cycle-level core
    // driver (PR 3). Wall-clock host speedup is reported but not gated
    // — two tens-of-milliseconds timings on a loaded CI runner are
    // noise; `--compare` gates throughput against a previous report
    // instead.
    const MIN_PROG_FF: f64 = 1.2;
    const MIN_CYCLE_FF: f64 = 1.5;
    let mut ok = true;
    for w in &reports {
        for r in &w.cycle {
            ok &= r.validated;
            if r.ff() < MIN_CYCLE_FF {
                eprintln!(
                    "FAIL {}: cycle-path fast-forward {:.2}x < {MIN_CYCLE_FF}x for {} \
                     (horizon-aware core not skipping stall cycles)",
                    w.name,
                    r.ff(),
                    r.mode.key(),
                );
                ok = false;
            }
        }
        let mut prog_rows = 0usize;
        for r in &w.replay {
            ok &= r.validated;
            if r.mode.is_programmable() {
                prog_rows += 1;
                if r.ff() < MIN_PROG_FF {
                    eprintln!(
                        "FAIL {}: programmable replay fast-forward {:.2}x < {MIN_PROG_FF}x \
                         (event-horizon scheduler not skipping cycles)",
                        w.name,
                        r.ff()
                    );
                    ok = false;
                }
                if let Some(s) = r.host_speedup {
                    if s < 1.0 {
                        eprintln!(
                            "note {}: programmable replay wall-clock below cycle sim \
                             ({s:.2}x) — informational, not gated",
                            w.name
                        );
                    }
                }
            }
        }
        if prog_rows == 0 {
            eprintln!("FAIL {}: programmable-mode replay never ran", w.name);
            ok = false;
        }
    }
    // Sweep-cache gate: the warm pass over an untouched cache must hit
    // on every lookup and never escalate — a single miss means a cell
    // key is unstable (e.g. nondeterministic config hashing) and the
    // whole farm silently resimulates on every run.
    if sweep.warm.miss > 0 || sweep.warm.escalated > 0 {
        eprintln!(
            "FAIL sweep cache: warm pass missed {} and escalated {} of {} lookups \
             (expected 100% hits — cell keys are unstable)",
            sweep.warm.miss,
            sweep.warm.escalated,
            sweep.warm.hit + sweep.warm.miss,
        );
        ok = false;
    }
    if let Some(prev_path) = compare_path {
        match std::fs::read_to_string(&prev_path) {
            Ok(prev) => {
                if compare_reports(&prev, &json, 0.20) > 0 {
                    ok = false;
                }
            }
            // A missing previous report is not an error: the first run
            // after the gate lands (or an expired artifact) has nothing
            // to compare against.
            Err(e) => eprintln!("compare: skipping ({prev_path}: {e})"),
        }
    }
    if !ok {
        eprintln!("speedcheck: validation, fast-forward or regression gate failed");
        std::process::exit(1);
    }
}
