//! Regenerates every table and figure of the paper's evaluation.
//!
//! `repro --help` prints the synopsis ([`USAGE`]).
//!
//! Each distinct (workload, mode) cell is simulated once per invocation:
//! the requested experiments declare the mode columns they read
//! (`etpp_sim::experiments::columns`), the union runs as one grid, and
//! every figure and table is a projection of it. Only Figure 9's
//! off-paper (PPU count, clock) points, the synthetic TwoPhase row of the
//! adaptive table and the telemetry grid run beside it. Each grid
//! prints `[grid] N cells (W workloads × M modes)` on stderr.
//!
//! `--jobs N` (default: available parallelism) shards every grid —
//! workload builds, the cycle-level grid, the ablation sweeps and the
//! replay grid — across N shared-queue worker threads; results are
//! collected by cell index, so output tables are byte-identical for any
//! worker count.
//!
//! `--replay` switches to the trace-replay fast path: each workload's
//! demand stream is captured once from a cycle-level baseline run (cached
//! on disk under `--trace-dir`, default `target/traces`) and then replayed
//! against every prefetcher across `--jobs` worker threads. Replay
//! tracks the cycle core's speedups at a fraction of the cost but can
//! swap close modes (README "Fidelity"); see `etpp-trace` for the
//! fidelity contract. Captures are
//! dependence-annotated, replayed with the dependence-aware front end
//! and reported with an absolute-cycle agreement table against the
//! capture run.
//!
//! `--sweep` runs the composed ablation grid (observation-queue depth ×
//! request-queue depth × EWMA look-ahead scale × prefetch-buffer
//! capacity × PPU count × PPU clock × engine mode, on IntSort and HJ-8)
//! through the sweep farm: every cell replays the captured demand
//! stream, escalating to the cycle core only where the stream-level
//! agreement gate fails, and every cell result is memoized in the
//! `--cache-dir` content-hash result cache (default
//! `target/sweep-cache`) so warm re-runs are near-free. `--shard K/N`
//! runs only jobs `i ≡ K (mod N)`. Each shard leaves one file,
//! `--sweep-dir`/shard-K-of-N.jsonl (default `target/sweeps`): a
//! sealed log with one row per finished job, fsync'd when the job
//! simulated; the result cache is one log too,
//! `--cache-dir`/cells-s4.jsonl, read once per run. A full `--sweep`
//! (no `--shard`) also prints the merged tables, read back from its
//! own log. `--sweep-merge DIR` parses every `shard-*.jsonl` in DIR,
//! verifies exact job coverage, and prints tables that are
//! byte-identical for any (jobs, shard-count) split of the same sweep;
//! a torn or altered line is an error naming the file and line. The
//! file name and format belong to `etpp_sim::sweeps`.
//!
//! Sweeps are **fail-soft** (see the README's Robustness section): a
//! panicking cell is retried with deterministic backoff and then
//! quarantined — a `FAILED` row, with the failure record nested in the
//! job's log row — while the rest of the grid completes; `--strict`
//! restores abort-on-first-failure. `--resume` continues the shard's
//! log after a crash or SIGTERM, skipping the jobs it already holds.
//! `--fault-inject PLAN` injects deterministic faults for testing —
//! `panic=J@K` (cell J panics on its first K attempts), `bpanic=W@K`
//! (workload W's baseline), `tear=J@B` (cell J's cache-log append torn
//! at B bytes), `trace=W@OFF` (flip a byte of workload W's trace file),
//! `hang=J@P` (cell J spins until its deadline expires, polling every
//! P ms), `slow=J@D` (cell J sleeps D ms before running), `kill=C`
//! (simulate a crash after C cells), joined by `;`. A directive naming
//! a job or workload the grid does not have is a usage error.
//!
//! Every sweep cell runs under a cooperative watchdog: a per-cell
//! wall-clock budget (default: a deterministic multiple of this
//! shard's measured baseline-cell time) aborts overrunning cells at
//! driver-visit granularity, retries them once at an escalated
//! budget, and then quarantines them as `timeout` alongside panics.
//! `--cell-budget SECS` overrides the budget (fractional seconds
//! accepted; `0` disarms the watchdog entirely).
//!
//! Unknown flags and experiment names, flags and experiment names a
//! mode would ignore (`--replay fig7`, `--cache-dir` without `--sweep`)
//! and out-of-range values (`--jobs 0`) are fatal (exit 2, with the
//! synopsis on stderr): a typo'd `--shard` must never silently run the
//! full grid.
//!
//! `--telemetry DIR` enables the observability stack on the telemetry
//! grid (IntSort + HJ-8 across the main engines): prefetch-lifecycle
//! classification tables, phase-timeline summaries, and — per cell —
//! `<wl>-<mode>.phases.json` (the interval counter time-series),
//! `<wl>-<mode>.registry.json` (all merged counters/histograms) and
//! `<wl>-<mode>.trace.json` (a Chrome-trace-event span log, loadable in
//! Perfetto / `chrome://tracing`) written under DIR. On its own it runs
//! just the `telemetry` experiment; combined with explicit experiment
//! names (or `all`) it appends the telemetry grid to them. Telemetry
//! never changes simulation results — runs are bit-identical with it
//! on or off (pinned by the equivalence suite).
//!
//! Output is GitHub-flavoured Markdown on stdout, suitable for pasting into
//! EXPERIMENTS.md.

use etpp_sim::experiments::{self as ex, Grid};
use etpp_sim::sweeps::{self, axes};
use etpp_sim::{ablations, faults, replay as rp, report};
use etpp_sim::{PrefetchMode, SystemConfig};
use etpp_workloads::{BuiltWorkload, Scale, Workload};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads `--sweep` runs the composed grid on.
const SWEEP_WORKLOADS: [&str; 2] = ["IntSort", "HJ-8"];

/// Every experiment name the positional argument accepts.
const EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10",
    "fig11",
    "traffic",
    "swpf",
    "ablate",
    "zoo",
    "telemetry",
    "all",
];

/// The synopsis `--help` prints and every usage error repeats.
const USAGE: &str = "\
usage: repro [--scale tiny|small|paper] [--jobs N] [--telemetry DIR]
             [table1|table2|fig7|fig8|fig9a|fig9b|fig10|fig11|traffic|swpf|ablate|zoo|telemetry|all]
       repro --replay [--trace-dir DIR] [--jobs N] [--scale tiny|small|paper]
       repro --sweep [--shard K/N] [--sweep-dir DIR] [--cache-dir DIR]
             [--scale tiny|small|paper] [--trace-dir DIR] [--jobs N]
             [--resume] [--strict] [--fault-inject PLAN] [--cell-budget SECS]
       repro --sweep-merge DIR
       repro --help";

/// Which of the synopsis lines a command line runs.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Experiments,
    Replay,
    Sweep,
    SweepMerge,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Experiments => "experiment runs",
            Mode::Replay => "--replay",
            Mode::Sweep => "--sweep",
            Mode::SweepMerge => "--sweep-merge",
        }
    }
}

/// Flags only some modes read, with the modes that read them. Any other
/// mode rejects the flag rather than ignore it.
const MODAL_FLAGS: [(&str, &[Mode]); 9] = [
    ("--shard", &[Mode::Sweep]),
    ("--strict", &[Mode::Sweep]),
    ("--resume", &[Mode::Sweep]),
    ("--fault-inject", &[Mode::Sweep]),
    ("--cell-budget", &[Mode::Sweep]),
    ("--cache-dir", &[Mode::Sweep]),
    ("--sweep-dir", &[Mode::Sweep]),
    ("--trace-dir", &[Mode::Replay, Mode::Sweep]),
    ("--telemetry", &[Mode::Experiments]),
];

/// The `[build]` stderr line: how many workloads were built, how long
/// it took, and the heap bytes their traces hold for the whole run.
fn report_build(workloads: &[BuiltWorkload], t0: Instant) {
    let bytes: usize = workloads.iter().map(|w| w.trace.bytes()).sum();
    eprintln!(
        "[build] {} workloads in {:?}, traces {:.1} MiB",
        workloads.len(),
        t0.elapsed(),
        bytes as f64 / (1 << 20) as f64
    );
}

/// Prints the process's peak resident set to stderr when dropped, where
/// the host reports one (`VmHWM` in `/proc/self/status`). Armed once the
/// command line is accepted, so every run that returns normally ends
/// with the line.
struct PeakRssOnExit;

impl Drop for PeakRssOnExit {
    fn drop(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kib = status.lines().find_map(|l| {
            let v = l.strip_prefix("VmHWM:")?;
            v.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        });
        if let Some(kib) = kib {
            // A failed write is ignored: `Drop` must not panic.
            let _ = writeln!(
                std::io::stderr(),
                "[host] peak RSS {:.1} MiB",
                kib as f64 / 1024.0
            );
        }
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// The value following a flag, or a usage error naming the flag — no
/// `unwrap`/`expect` panics on user-typed command lines.
fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, msg: &str) -> &'a str {
    it.next().map_or_else(|| usage_error(msg), String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut what: Vec<String> = Vec::new();
    let mut replay = false;
    let mut sweep = false;
    let mut shard: Option<(usize, usize)> = None;
    let mut sweep_dir = PathBuf::from("target/sweeps");
    let mut cache_dir = PathBuf::from("target/sweep-cache");
    let mut sweep_merge: Option<PathBuf> = None;
    let mut telemetry_dir: Option<PathBuf> = None;
    let mut trace_dir = PathBuf::from("target/traces");
    let mut jobs = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut strict = false;
    let mut resume = false;
    let mut fault_plan: Option<faults::FaultPlan> = None;
    let mut cell_budget: Option<Duration> = None;
    let mut flags: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with('-') {
            flags.push(a);
        }
        if a == "--help" || a == "-h" {
            println!("{USAGE}");
            return;
        } else if a == "--scale" {
            let v = next_value(&mut it, "--scale needs a value");
            scale = v
                .parse()
                .unwrap_or_else(|e| usage_error(&format!("--scale: {e}")));
        } else if a == "--replay" {
            replay = true;
        } else if a == "--sweep" {
            sweep = true;
        } else if a == "--strict" {
            strict = true;
        } else if a == "--resume" {
            resume = true;
        } else if a == "--fault-inject" {
            let v = next_value(
                &mut it,
                "--fault-inject needs a plan (e.g. panic=3@2;tear=7@10;kill=5)",
            );
            match v.parse::<faults::FaultPlan>() {
                Ok(p) => fault_plan = Some(p),
                Err(e) => usage_error(&format!("--fault-inject: {e}")),
            }
        } else if a == "--cell-budget" {
            let v = next_value(&mut it, "--cell-budget needs seconds (0 disarms)");
            let secs: f64 = v.parse().unwrap_or(-1.0);
            match Duration::try_from_secs_f64(secs) {
                Ok(d) => cell_budget = Some(d),
                Err(_) => usage_error(&format!(
                    "--cell-budget: non-negative seconds up to ~1.8e19, got {v:?}"
                )),
            }
        } else if a == "--shard" {
            let v = next_value(&mut it, "--shard needs K/N");
            let (k, n) = v
                .split_once('/')
                .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
                .unwrap_or_else(|| usage_error(&format!("--shard: expected K/N, got {v:?}")));
            if n == 0 || k >= n {
                usage_error(&format!("--shard: index {k} out of range for {n} shards"));
            }
            shard = Some((k, n));
        } else if a == "--sweep-dir" {
            sweep_dir = PathBuf::from(next_value(&mut it, "--sweep-dir needs a path"));
        } else if a == "--cache-dir" {
            cache_dir = PathBuf::from(next_value(&mut it, "--cache-dir needs a path"));
        } else if a == "--sweep-merge" {
            sweep_merge = Some(PathBuf::from(next_value(
                &mut it,
                "--sweep-merge needs a dir",
            )));
        } else if a == "--telemetry" {
            telemetry_dir = Some(PathBuf::from(next_value(
                &mut it,
                "--telemetry needs a dir",
            )));
        } else if a == "--trace-dir" {
            trace_dir = PathBuf::from(next_value(&mut it, "--trace-dir needs a path"));
        } else if a == "--jobs" {
            let v = next_value(&mut it, "--jobs needs a count");
            jobs =
                v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    usage_error(&format!("--jobs: positive integer, got {v:?}"))
                });
        } else if a.starts_with('-') {
            usage_error(&format!("unknown flag: {a}"));
        } else {
            what.push(a.clone());
        }
    }
    for w in &what {
        if !EXPERIMENTS.contains(&w.as_str()) {
            usage_error(&format!(
                "unknown experiment: {w} (expected one of {})",
                EXPERIMENTS.join(", ")
            ));
        }
    }
    let mode = if sweep_merge.is_some() {
        Mode::SweepMerge
    } else if sweep {
        Mode::Sweep
    } else if replay {
        Mode::Replay
    } else {
        Mode::Experiments
    };
    for (flag, modes) in MODAL_FLAGS {
        if flags.contains(&flag) && !modes.contains(&mode) {
            let names: Vec<&str> = modes.iter().map(|m| m.name()).collect();
            usage_error(&format!(
                "{flag} only applies to {}, not {}",
                names.join(" and "),
                mode.name()
            ));
        }
    }
    let _peak_rss = PeakRssOnExit;
    if let Some(dir) = sweep_merge {
        if sweep || replay || !what.is_empty() {
            usage_error("--sweep-merge runs alone");
        }
        run_sweep_merge(&dir);
        return;
    }
    if sweep {
        if replay || !what.is_empty() {
            usage_error("--sweep runs alone (it has its own grid)");
        }
        if let Some(plan) = &fault_plan {
            let jobs = sweeps::composed_grid().total_jobs(SWEEP_WORKLOADS.len());
            if let Err(e) = plan.check(jobs, SWEEP_WORKLOADS.len()) {
                usage_error(&format!("--fault-inject: {e}"));
            }
        }
        run_sweep_cmd(&SweepCli {
            scale,
            trace_dir,
            jobs,
            shard: shard.unwrap_or((0, 1)),
            cache_dir,
            sweep_dir,
            strict,
            resume,
            fault_plan,
            cell_budget,
        });
        return;
    }
    if replay {
        if !what.is_empty() {
            usage_error("--replay runs alone (it has its own fig7/fig11 replay grids)");
        }
        run_replay(scale, &trace_dir, jobs);
        return;
    }
    // `--telemetry DIR` alone runs just the telemetry grid; alongside
    // explicit experiments (or the default `all` expansion) it rides
    // after them.
    if what.is_empty() && telemetry_dir.is_some() {
        what.push("telemetry".to_string());
    } else if what.is_empty() || what.iter().any(|w| w == "all") {
        what = [
            "table1", "table2", "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11", "traffic",
            "swpf", "ablate", "zoo",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        if telemetry_dir.is_some() {
            what.push("telemetry".to_string());
        }
    } else if telemetry_dir.is_some() && !what.iter().any(|w| w == "telemetry") {
        what.push("telemetry".to_string());
    }
    // Create the artifact dir before any workload is built, so a bad
    // path is reported before any simulation runs.
    let telemetry_dir = telemetry_dir.unwrap_or_else(|| PathBuf::from("target/telemetry"));
    if what.iter().any(|w| w == "telemetry") {
        if let Err(e) = std::fs::create_dir_all(&telemetry_dir) {
            usage_error(&format!(
                "--telemetry: cannot create {}: {e}",
                telemetry_dir.display()
            ));
        }
    }

    let cfg = SystemConfig::paper();
    println!(
        "# ETPP reproduction — scale: {scale:?}\n\n\
         All speedups are relative to the no-prefetching baseline at the same scale.\n"
    );

    let needs_builds = what.iter().any(|w| w != "table1");
    let t0 = Instant::now();
    let workloads = if needs_builds {
        let w = ex::build_all(scale, jobs);
        report_build(&w, t0);
        w
    } else {
        Vec::new()
    };

    // One cycle-core grid per invocation: the union of the mode columns
    // the requested experiments declare, over the rows they read. Every
    // figure below is a projection of it.
    let modes: Vec<PrefetchMode> = PrefetchMode::ALL
        .into_iter()
        .filter(|m| what.iter().any(|w| ex::columns(w).contains(m)))
        .collect();
    let rows: Vec<&BuiltWorkload> = workloads
        .iter()
        .filter(|wl| what.iter().any(|w| ex::reads_workload(w, wl.name)))
        .collect();
    let cycle_cell = |_, w: &BuiltWorkload, mode| etpp_sim::run(&cfg, mode, w);
    let t = Instant::now();
    let grid = Grid::run(&rows, &dense(rows.len(), &modes), jobs, cycle_cell);
    // Figure 9's off-paper (count, clock) points, once each for both panels.
    let asked = |name: &str| what.iter().any(|w| w == name);
    let fig9_cells = ex::fig9_cells(&rows, asked("fig9a"), asked("fig9b"));
    if !fig9_cells.is_empty() {
        eprintln!("[grid] {} cells (Figure 9 PPU points)", fig9_cells.len());
    }
    let fig9 = Grid::run(&rows, &fig9_cells, jobs, |_, w, (n, hz)| {
        etpp_sim::run(&SystemConfig::with_ppus(n, hz), PrefetchMode::Manual, w)
    });
    if !modes.is_empty() {
        eprintln!("[simulate] done in {:?}", t.elapsed());
    }

    for w in &what {
        let t = Instant::now();
        match w.as_str() {
            "table1" => print_table1(&cfg),
            "table2" => print_table2(&workloads),
            "fig7" | "fig8" | "fig10" | "fig11" | "traffic" => {
                println!("{}", report::grid_table(w, &grid));
            }
            "fig9a" => println!("{}", report::fig9a_table(&grid, &fig9)),
            "fig9b" => println!("{}", report::fig9b_table(&grid, &fig9)),
            "ablate" => {
                let find = |name| workloads.iter().find(|w| w.name == name).expect("built");
                let (hj8, intsort) = (find("HJ-8"), find("IntSort"));
                // One capture per workload, shared by every axis over it.
                let caps = ex::map_indexed(jobs, 2, |i| ablations::capture([hj8, intsort][i]));
                let (hj8_cap, intsort_cap) = (&caps[0], &caps[1]);
                for (title, param, wl, cap, axis) in [
                    (
                        "observation queue depth (HJ-8)",
                        "entries",
                        hj8,
                        hj8_cap,
                        axes::obs_queue(&[4, 10, 40, 160]),
                    ),
                    (
                        "request queue depth (IntSort)",
                        "entries",
                        intsort,
                        intsort_cap,
                        axes::req_queue(&[25, 50, 200, 800]),
                    ),
                    (
                        "EWMA look-ahead scale (IntSort)",
                        "scale",
                        intsort,
                        intsort_cap,
                        axes::lookahead_scale(&[1, 2, 4, 8]),
                    ),
                    (
                        "prefetch buffer entries (IntSort)",
                        "entries",
                        intsort,
                        intsort_cap,
                        axes::pf_buffer(&[0, 8, 16, 32, 64]),
                    ),
                ] {
                    let points = ablations::sweep(wl, cap, axis, jobs);
                    println!("{}", ablations::table(title, param, &points));
                }
            }
            "swpf" => println!("{}", report::swpf_table(&ex::swpf_overhead(&workloads))),
            "zoo" => {
                println!("{}", report::grid_table(w, &grid));
                // Adaptive vs static on the synthetic two-phase workload
                // (built and run here — it is not part of the Table 2
                // set) plus the IntSort and HJ-8 rows of the shared grid.
                let twophase = [etpp_workloads::phases::TwoPhase.build(scale)];
                let adaptive_modes: Vec<PrefetchMode> = report::ADAPTIVE_STATICS
                    .into_iter()
                    .chain([PrefetchMode::Adaptive])
                    .collect();
                let twophase = Grid::run(&twophase, &dense(1, &adaptive_modes), jobs, cycle_cell);
                println!(
                    "{}",
                    report::adaptive_table(&[
                        (&twophase, "TwoPhase"),
                        (&grid, "IntSort"),
                        (&grid, "HJ-8"),
                    ])
                );
            }
            "telemetry" => run_telemetry_report(scale, &cfg, &workloads, &telemetry_dir, jobs),
            other => unreachable!("experiment names validated up front: {other}"),
        }
        eprintln!("[{w}] done in {:?}", t.elapsed());
    }
}

/// The cell list of a dense (workload × mode) grid, announced on stderr
/// so the cell count of every invocation is visible in the log.
fn dense(workloads: usize, modes: &[PrefetchMode]) -> Vec<(usize, PrefetchMode)> {
    let cells = ex::cross(workloads, modes);
    if !cells.is_empty() {
        let (n, m) = (cells.len(), modes.len());
        eprintln!("[grid] {n} cells ({workloads} workloads × {m} modes)");
    }
    cells
}

/// The `telemetry` experiment: runs the observability grid (IntSort +
/// HJ-8 across the main engines), prints the lifecycle and
/// phase-summary tables, and writes each cell's phase series, merged
/// registry and Chrome trace under `dir`, which the caller created.
fn run_telemetry_report(
    scale: Scale,
    cfg: &SystemConfig,
    workloads: &[BuiltWorkload],
    dir: &std::path::Path,
    jobs: usize,
) {
    let targets: Vec<&BuiltWorkload> = ["IntSort", "HJ-8"]
        .iter()
        .filter_map(|name| workloads.iter().find(|w| w.name == *name))
        .collect();
    assert!(!targets.is_empty(), "telemetry workloads not built");
    // The classic observability set plus the engine zoo — every zoo
    // engine's lifecycle/phase behaviour is part of the nightly report.
    let mut modes = vec![
        PrefetchMode::Stride,
        PrefetchMode::GhbRegular,
        PrefetchMode::Converted,
        PrefetchMode::Manual,
    ];
    modes.extend(PrefetchMode::ZOO);
    let interval = ex::sample_interval(scale);
    let cells = dense(targets.len(), &modes);
    let grid = Grid::run(&targets, &cells, jobs, |_, w, mode| {
        etpp_sim::run_telemetry(cfg, mode, w, interval)
    });

    println!("{}", report::lifecycle_table(&grid));
    println!("{}", report::phase_summary_table(&grid));

    for (workload, mode, (_, report)) in grid.iter() {
        let stem = format!("{workload}-{}", mode.key());
        let write = |suffix: &str, body: String| {
            let path = dir.join(format!("{stem}.{suffix}.json"));
            if let Err(e) = std::fs::write(&path, body) {
                io_fail("write telemetry artifact", &path, &e);
            }
            eprintln!("[telemetry] wrote {}", path.display());
        };
        write("phases", report.phases_json());
        write("registry", report.registry_json());
        write("trace", report.chrome_trace_json());
    }
}

/// Everything `--sweep` needs, bundled so the fault/resume flags ride
/// along without a nine-argument signature.
struct SweepCli {
    scale: Scale,
    trace_dir: PathBuf,
    jobs: usize,
    shard: (usize, usize),
    cache_dir: PathBuf,
    sweep_dir: PathBuf,
    strict: bool,
    resume: bool,
    fault_plan: Option<faults::FaultPlan>,
    cell_budget: Option<Duration>,
}

/// Exit 1 with a diagnostic naming the operation and path. Used for I/O
/// on operator-supplied locations, where a panic backtrace would bury
/// the actual problem (a bad path or full disk).
fn io_fail(what: &str, path: &std::path::Path, e: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {what} {}: {e}", path.display());
    std::process::exit(1);
}

/// `--sweep [--shard K/N]`: run one shard of the composed grid through
/// the sweep farm into its shard log, and (when unsharded) print the
/// merged tables — read back from that log through the same
/// parse-and-merge path `--sweep-merge` uses, so a 1-shard run and any
/// N-shard merge are byte-identical.
fn run_sweep_cmd(cli: &SweepCli) {
    let cfg = SystemConfig::paper();
    let label = cli.scale.label();
    let spec = sweeps::composed_grid();
    let (jobs, shard) = (cli.jobs, cli.shard);
    let log_path = sweeps::shard_path(&cli.sweep_dir, shard);

    let t0 = Instant::now();
    let workloads: Vec<BuiltWorkload> = ex::map_indexed(jobs, SWEEP_WORKLOADS.len(), |i| {
        etpp_workloads::workload_by_name(SWEEP_WORKLOADS[i])
            .expect("sweep workload exists")
            .build(cli.scale)
    });
    report_build(&workloads, t0);

    let t0 = Instant::now();
    let capture_results: Vec<Result<rp::KeyedCapture, String>> =
        ex::map_indexed(jobs, workloads.len(), |i| {
            rp::try_load_or_capture_keyed(
                Some(&cli.trace_dir),
                &cfg,
                &workloads[i],
                label,
                etpp_trace::FORMAT_VERSION,
            )
        });
    // A failed baseline capture is a diagnostic naming the workload and
    // exit 1, not a worker panic backtrace: no job could run without it.
    let mut captures: Vec<rp::KeyedCapture> = Vec::with_capacity(capture_results.len());
    for (wl, result) in workloads.iter().zip(capture_results) {
        match result {
            Ok(c) => captures.push(c),
            Err(e) => eprintln!("[capture] FAILED: {}: {e}", wl.name),
        }
    }
    if captures.len() < workloads.len() {
        std::process::exit(1);
    }
    eprintln!("[capture] {} traces in {:?}", captures.len(), t0.elapsed());

    // Fault injection: corrupt the on-disk traces the plan names, then
    // reload those workloads. The reload exercises the corruption-
    // tolerant read path — a named decode diagnostic plus recapture,
    // never a decoder panic.
    if let Some(plan) = &cli.fault_plan {
        let paths: Vec<PathBuf> = workloads
            .iter()
            .map(|w| rp::trace_path(&cli.trace_dir, w, label))
            .collect();
        let touched = faults::apply_trace_flips(plan, &paths)
            .unwrap_or_else(|e| io_fail("corrupt trace under", &cli.trace_dir, &e));
        for wi in touched {
            eprintln!(
                "[faults] flipped a byte in {}; reloading",
                paths[wi].display()
            );
            captures[wi] = rp::try_load_or_capture_keyed(
                Some(&cli.trace_dir),
                &cfg,
                &workloads[wi],
                label,
                etpp_trace::FORMAT_VERSION,
            )
            .unwrap();
        }
    }

    let opts = sweeps::SweepOptions {
        cache_dir: Some(cli.cache_dir.clone()),
        shard,
        retry: faults::RetryPolicy {
            strict: cli.strict,
            ..Default::default()
        },
        faults: cli.fault_plan.clone(),
        journal: Some(log_path.clone()),
        resume: cli.resume,
        cell_budget: cli.cell_budget,
        ..sweeps::SweepOptions::new(jobs, label)
    };
    let t0 = Instant::now();
    let run = sweeps::run_sweep(&spec, &workloads, &captures, &opts);
    eprintln!(
        "[sweep] shard {}/{}: {} of {} jobs in {:?}; {}",
        shard.0,
        shard.1,
        run.cells.len(),
        run.total_jobs,
        t0.elapsed(),
        run.cache_summary()
    );

    if !run.failures.is_empty() {
        eprintln!(
            "[sweep] {} cell(s) quarantined; details in {}",
            run.failures.len(),
            log_path.display()
        );
    }
    eprintln!("[sweep] wrote {}", log_path.display());

    if shard == (0, 1) {
        let raw = std::fs::read_to_string(&log_path)
            .unwrap_or_else(|e| io_fail("read back shard log", &log_path, &e));
        let parsed = sweeps::parse_shard(&raw)
            .unwrap_or_else(|e| io_fail("parse own shard log", &log_path, &e));
        let merged = sweeps::merge_shards(&[parsed]).expect("single shard covers the sweep");
        println!("{}", sweeps::render_merged(&merged));
    } else {
        eprintln!(
            "[sweep] partial shard; merge with `repro --sweep-merge {}` once all {} shards exist",
            cli.sweep_dir.display(),
            shard.1
        );
    }
}

/// `--sweep-merge DIR`: parse every shard log in DIR, verify exact job
/// coverage, and print the merged tables. Exits 2 when DIR holds no
/// shard logs or one does not read back, 1 on coverage gaps or
/// mismatched shards.
fn run_sweep_merge(dir: &std::path::Path) {
    let files =
        sweeps::read_shard_dir(dir).unwrap_or_else(|e| usage_error(&format!("--sweep-merge: {e}")));
    eprintln!("[merge] {} shard logs from {}", files.len(), dir.display());
    match sweeps::merge_shards(&files) {
        Ok(m) => println!("{}", sweeps::render_merged(&m)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The trace-replay fast path: capture (or load) every workload's demand
/// stream, then replay the Figure 7 and Figure 11 grids in parallel.
fn run_replay(scale: Scale, trace_dir: &std::path::Path, jobs: usize) {
    let cfg = SystemConfig::paper();
    let label = scale.label();
    println!(
        "# ETPP reproduction (trace replay) — scale: {scale:?}, jobs: {jobs}\n\n\
         Speedups are relative to a no-prefetch *replay* baseline over the same\n\
         captured stream. Replay can swap close modes (at Tiny it changes the\n\
         best mode on 4 of 8 workloads; see README \"Fidelity\"), so confirm an\n\
         ordering on the cycle core before quoting it.\n\
         Streams are dependence-annotated and replay with the dependence-aware\n\
         front end, whose absolute cycle counts track the cycle core (see the\n\
         agreement table below).\n"
    );

    let t0 = Instant::now();
    let workloads = ex::build_all(scale, jobs);
    report_build(&workloads, t0);

    // Capture (or load from cache) every workload's stream, `jobs` at a time.
    let t0 = Instant::now();
    let captures: Vec<rp::KeyedCapture> = ex::map_indexed(jobs, workloads.len(), |i| {
        rp::try_load_or_capture_keyed(
            Some(trace_dir),
            &cfg,
            &workloads[i],
            label,
            etpp_trace::FORMAT_VERSION,
        )
        .unwrap()
    });
    eprintln!("[capture] {} traces in {:?}", captures.len(), t0.elapsed());

    println!("## Trace corpus\n");
    println!("| Benchmark | Records | Accesses | Capture cycles | Source | File |");
    println!("|---|---|---|---|---|---|");
    for (w, cap) in workloads.iter().zip(&captures) {
        let (t, src) = (&cap.trace, cap.source);
        let path = rp::trace_path(trace_dir, w, label);
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "| {} | {} | {} | {} | {:?} | {} ({:.1} MiB) |",
            w.name,
            t.records.len(),
            t.access_count(),
            if t.meta.capture_cycles > 0 {
                t.meta.capture_cycles.to_string()
            } else {
                "n/a".to_string()
            },
            src,
            path.display(),
            size as f64 / (1024.0 * 1024.0),
        );
    }
    println!();

    let traces: Vec<etpp_trace::CapturedTrace> = captures.into_iter().map(|c| c.trace).collect();

    // The Figure 7 modes that replay supports (Software needs the
    // swpf-annotated trace variant the capture corpus doesn't carry),
    // plus the engine zoo — replay coverage for the new engines is part
    // of the differential suite's contract.
    let mut fig7_modes: Vec<PrefetchMode> = PrefetchMode::FIGURE7
        .into_iter()
        .filter(|m| *m != PrefetchMode::Software)
        .collect();
    fig7_modes.extend(PrefetchMode::ZOO);
    let fig11_modes = [PrefetchMode::Blocked, PrefetchMode::Manual];

    // One replay grid for both tables: their columns plus the
    // no-prefetch replay baseline every speedup divides by.
    let t0 = Instant::now();
    let modes: Vec<PrefetchMode> = PrefetchMode::ALL
        .into_iter()
        .filter(|m| *m == PrefetchMode::None || fig7_modes.contains(m) || fig11_modes.contains(m))
        .collect();
    let cells = dense(workloads.len(), &modes);
    let grid = Grid::run(&workloads, &cells, jobs, |wi, w, mode| {
        let r = rp::replay_run(&cfg, mode, w, &traces[wi].records)?;
        assert!(
            r.validated || mode != PrefetchMode::None,
            "{}: baseline replay corrupted image",
            r.workload
        );
        Ok(r)
    });
    eprintln!("[replay] done in {:?}", t0.elapsed());
    println!(
        "{}",
        report::speedup_table(
            "Figure 7 (replay) + engine zoo: speedup over no prefetching",
            &grid,
            &fig7_modes,
        )
    );

    // Absolute-cycle agreement: no-prefetch replay vs the capture run's
    // recorded cycle count (the cycle core over the identical stream).
    if traces.iter().any(|t| t.meta.capture_cycles > 0) {
        println!("## Replay absolute-cycle agreement (baseline vs capture run)\n");
        println!("| Benchmark | Cycle core | Replay | Replay/cycle |");
        println!("|---|---|---|---|");
        for (w, t) in workloads.iter().zip(&traces) {
            if t.meta.capture_cycles == 0 {
                continue;
            }
            let replayed = grid
                .get(w.name, PrefetchMode::None)
                .expect("baseline replay always runs")
                .cycles;
            println!(
                "| {} | {} | {} | {:.3} |",
                w.name,
                t.meta.capture_cycles,
                replayed,
                replayed as f64 / t.meta.capture_cycles as f64,
            );
        }
        println!();
    }

    println!(
        "{}",
        report::speedup_table(
            "Figure 11 (replay): blocked vs event-triggered",
            &grid,
            &fig11_modes,
        )
    );
}

fn print_table1(cfg: &SystemConfig) {
    println!("## Table 1: system configuration\n");
    println!("| Component | Parameters |");
    println!("|---|---|");
    println!(
        "| Core | {}-wide OoO, {}-entry ROB, {}-entry IQ, {}/{} LQ/SQ, {} Int + {} FP + {} Mul ALUs |",
        cfg.core.width,
        cfg.core.rob_entries,
        cfg.core.iq_entries,
        cfg.core.lq_entries,
        cfg.core.sq_entries,
        cfg.core.int_alus,
        cfg.core.fp_alus,
        cfg.core.muldiv_alus
    );
    println!(
        "| Branch pred. | tournament: {} local, {} global, {} chooser, {} BTB |",
        cfg.core.bpred.local_entries,
        cfg.core.bpred.global_entries,
        cfg.core.bpred.chooser_entries,
        cfg.core.bpred.btb_entries
    );
    println!(
        "| L1D | {} KB, {}-way, {}-cycle, {} MSHRs |",
        cfg.mem.l1.size / 1024,
        cfg.mem.l1.ways,
        cfg.mem.l1.hit_latency,
        cfg.mem.l1.mshrs
    );
    println!(
        "| L2 | {} KB, {}-way, {}-cycle, {} MSHRs |",
        cfg.mem.l2.size / 1024,
        cfg.mem.l2.ways,
        cfg.mem.l2.hit_latency,
        cfg.mem.l2.mshrs
    );
    println!(
        "| TLB | {}-entry L1, {}-entry {}-way L2 ({}cy), {} walkers |",
        cfg.mem.tlb.l1_entries,
        cfg.mem.tlb.l2_entries,
        cfg.mem.tlb.l2_ways,
        cfg.mem.tlb.l2_latency,
        cfg.mem.tlb.walkers
    );
    println!(
        "| DRAM | DDR3-1600 {}-{}-{}-{}, {} banks |",
        cfg.mem.dram.t_cl,
        cfg.mem.dram.t_rcd,
        cfg.mem.dram.t_rp,
        cfg.mem.dram.t_ras,
        cfg.mem.dram.banks
    );
    println!(
        "| Prefetcher | {} PPUs @ {} MHz, {}-entry observation queue, {}-entry request queue |\n",
        cfg.pf.num_ppus,
        cfg.pf.ppu_hz / 1_000_000,
        cfg.pf.observation_queue,
        cfg.pf.request_queue
    );
}

fn print_table2(workloads: &[BuiltWorkload]) {
    println!("## Table 2: benchmarks\n");
    println!("| Benchmark | Trace ops | Mapped pages | Notes |");
    println!("|---|---|---|---|");
    for w in workloads {
        println!(
            "| {} | {} | {} | {} |",
            w.name,
            w.trace.len(),
            w.image.mapped_pages(),
            w.notes
        );
    }
    println!();
}
