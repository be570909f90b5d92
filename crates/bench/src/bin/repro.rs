//! Regenerates every table and figure of the paper's evaluation, as
//! GitHub-flavoured Markdown on stdout.
//!
//! `repro --help` prints the synopsis, one line per mode. [`FLAGS`] is
//! the flag reference: every flag, its value and the modes that read
//! it. Parsing, the synopsis and the mode check all read that table, so
//! an unknown flag or experiment name, a flag the chosen mode would
//! ignore (`--cache-dir` without `--sweep`), experiment names beside a
//! mode switch (`--replay fig7`) and an out-of-range value (`--jobs 0`)
//! are fatal (exit 2, with the synopsis on stderr): a typo'd `--shard`
//! must never silently run the full grid.
//!
//! Each distinct (workload, mode) cell is simulated once per invocation:
//! the requested experiments declare the mode columns they read
//! (`etpp_sim::experiments::columns`), the union runs as one grid, and
//! every figure and table is a projection of it. Only Figure 9's
//! off-paper (PPU count, clock) points, the synthetic TwoPhase row of the
//! adaptive table and the telemetry grid run beside it. Each grid
//! prints `[grid] N cells (W workloads × M modes)` on stderr.
//!
//! `--jobs N` (default: available parallelism) shards every grid across
//! N shared-queue worker threads; results are collected by cell index,
//! so output tables are byte-identical for any worker count.
//!
//! `--replay` switches to the trace-replay fast path: each workload's
//! dependence-annotated demand stream is captured once from a
//! cycle-level baseline run (cached under `--trace-dir`, default
//! `target/traces`) and replayed against every prefetcher, with an
//! absolute-cycle agreement table against the capture run. Replay
//! tracks the cycle core's speedups at a fraction of the cost but can
//! swap close modes (README "Fidelity").
//!
//! `--sweep` runs the composed ablation grid (queue depths, look-ahead
//! scale, prefetch-buffer capacity, PPU count and clock, engine mode;
//! on IntSort and HJ-8) through the sweep farm: each cell replays the
//! captured stream, escalating to the cycle core where the agreement
//! gate fails, and its result is memoized in the `--cache-dir` result
//! log (default `target/sweep-cache`). `--shard K/N` runs only jobs
//! `i ≡ K (mod N)`; each shard leaves one sealed log under
//! `--sweep-dir` (default `target/sweeps`). A full `--sweep` also
//! prints the merged tables, read back from its own log.
//! `--sweep-merge DIR` checks exact job coverage over DIR's shard logs
//! and prints tables byte-identical for any (jobs, shard-count) split;
//! a torn or altered line is an error naming the file and line. The
//! file names and formats belong to [`sweeps`].
//!
//! Sweeps are **fail-soft** (README "Robustness"): a panicking cell is
//! retried with deterministic backoff, then quarantined as a `FAILED`
//! row while the rest of the grid completes; `--strict` aborts on the
//! first failure instead. `--resume` continues the shard's log after a
//! crash, skipping the jobs it holds. `--fault-inject PLAN` injects
//! deterministic faults for testing ([`faults::FaultPlan`] gives the
//! syntax). Each cell runs under a cooperative watchdog
//! ([`sweeps::SweepOptions::cell_budget`]); `--cell-budget SECS`
//! overrides its wall-clock budget (`0` disarms it).
//!
//! `--telemetry DIR` runs the telemetry grid (IntSort + HJ-8 across the
//! main engines): prefetch-lifecycle and phase-summary tables, and per
//! cell a phase series, a merged counter registry and a Chrome trace
//! (`<wl>-<mode>.{phases,registry,trace}.json`) under DIR. Alone it
//! runs just the `telemetry` experiment; beside experiment names (or
//! `all`) it appends to them. Telemetry never changes results.

use etpp_sim::experiments::{self as ex, Grid};
use etpp_sim::sweeps::{self, axes};
use etpp_sim::{ablations, faults, replay as rp, report};
use etpp_sim::{PrefetchMode, SystemConfig};
use etpp_workloads::{BuiltWorkload, Scale, Workload};
use std::fmt::Display;
use std::io::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
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

/// A mode is one line of the synopsis, named by the switch that selects
/// it; experiment runs have no switch.
type Mode = &'static str;
const RUNS: Mode = "experiment runs";
const REPLAY: Mode = "--replay";
const SWEEP: Mode = "--sweep";
const MERGE: Mode = "--sweep-merge";

/// Every mode in synopsis order. Of several switches given (a usage
/// error), the last here names the mode.
const MODES: [Mode; 4] = [RUNS, REPLAY, SWEEP, MERGE];

/// One row of [`FLAGS`]: the flag; its value's metavariable in the
/// synopsis (`None` for a switch); the modes that read it, where the
/// rest reject it rather than ignore it (a mode switch lists only the
/// mode it selects); and its setter, which stores the value (`"true"`
/// for a switch) or says why it is invalid.
type Flag = (&'static str, Option<&'static str>, &'static [Mode], Setter);
type Setter = fn(&mut Cli, &str) -> Result<(), String>;

/// The flag reference, in synopsis order: every flag `repro` accepts,
/// its value, the modes that read it and how it stores its value.
/// Parsing, the mode check and the synopsis all come from this table,
/// one row per flag. A mode's switch leads its synopsis line, so the
/// switches come first.
#[rustfmt::skip]
const FLAGS: [Flag; 14] = [
    (REPLAY, None, &[REPLAY], |_, _| Ok(())),
    (SWEEP, None, &[SWEEP], |_, _| Ok(())),
    // Merges the shard logs `--sweep` wrote to its `--sweep-dir`.
    (MERGE, Some("DIR"), &[MERGE], |c, v| store(&mut c.sweep_dir, v)),
    ("--scale", Some("tiny|small|paper"), &[RUNS, REPLAY, SWEEP], |c, v| store(&mut c.scale, v)),
    ("--jobs", Some("N"), &[RUNS, REPLAY, SWEEP], |c, v| {
        let n = v.parse().ok().filter(|&n| n > 0);
        n.map(|n| c.jobs = n).ok_or(format!("positive integer, got {v:?}"))
    }),
    ("--telemetry", Some("DIR"), &[RUNS], |c, v| {
        store(c.telemetry_dir.get_or_insert_default(), v)
    }),
    ("--trace-dir", Some("DIR"), &[REPLAY, SWEEP], |c, v| store(&mut c.trace_dir, v)),
    ("--shard", Some("K/N"), &[SWEEP], |c, v| {
        let (k, n) = v
            .split_once('/')
            .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
            .ok_or(format!("expected K/N, got {v:?}"))?;
        if n == 0 || k >= n {
            return Err(format!("index {k} out of range for {n} shards"));
        }
        c.shard = (k, n);
        Ok(())
    }),
    ("--sweep-dir", Some("DIR"), &[SWEEP], |c, v| store(&mut c.sweep_dir, v)),
    ("--cache-dir", Some("DIR"), &[SWEEP], |c, v| store(&mut c.cache_dir, v)),
    ("--resume", None, &[SWEEP], |c, v| store(&mut c.resume, v)),
    ("--strict", None, &[SWEEP], |c, v| store(&mut c.strict, v)),
    ("--fault-inject", Some("PLAN"), &[SWEEP], |c, v| {
        // A directive naming a job or workload the composed grid does
        // not have would inject nothing.
        let (plan, n): (faults::FaultPlan, _) = (v.parse()?, SWEEP_WORKLOADS.len());
        plan.check(sweeps::composed_grid().total_jobs(n), n)?;
        c.fault_plan = Some(plan);
        Ok(())
    }),
    ("--cell-budget", Some("SECS"), &[SWEEP], |c, v| {
        let d = Duration::try_from_secs_f64(v.parse().unwrap_or(-1.0));
        d.map(|d| c.cell_budget = Some(d))
            .map_err(|_| format!("non-negative seconds up to ~1.8e19, got {v:?}"))
    }),
];

/// Parses `v` into `slot`.
fn store<T: FromStr<Err: Display>>(slot: &mut T, v: &str) -> Result<(), String> {
    *slot = v.parse().map_err(|e: T::Err| e.to_string())?;
    Ok(())
}

/// A parsed command line: its mode, its experiment names and every
/// flag's value, defaults filled in.
struct Cli {
    mode: Mode,
    what: Vec<&'static str>,
    scale: Scale,
    jobs: usize,
    telemetry_dir: Option<PathBuf>,
    trace_dir: PathBuf,
    shard: (usize, usize),
    sweep_dir: PathBuf,
    cache_dir: PathBuf,
    resume: bool,
    strict: bool,
    fault_plan: Option<faults::FaultPlan>,
    cell_budget: Option<Duration>,
}

/// The synopsis `--help` prints and every usage error repeats: one line
/// per mode, built from [`FLAGS`] and [`EXPERIMENTS`].
fn synopsis() -> String {
    let lines = MODES.map(|mode| {
        let reads = FLAGS
            .iter()
            .filter(|(_, _, modes, _)| modes.contains(&mode));
        let mut words: Vec<String> = reads
            .map(|&(flag, value, ..)| {
                let word = value.map_or(flag.into(), |v| format!("{flag} {v}"));
                if flag == mode {
                    word
                } else {
                    format!("[{word}]")
                }
            })
            .collect();
        if mode == RUNS {
            words.push(format!("[{}]", EXPERIMENTS.join("|")));
        }
        format!("repro {}\n       ", words.join(" "))
    });
    format!("usage: {}repro --help", lines.concat())
}

/// The `[build]` stderr line: how many workloads were built, how long
/// it took, and the heap bytes their traces hold for the whole run.
fn report_build(workloads: &[BuiltWorkload], t0: Instant) {
    let bytes: usize = workloads.iter().map(|w| w.trace.bytes()).sum();
    let mib = bytes as f64 / (1 << 20) as f64;
    let (n, t) = (workloads.len(), t0.elapsed());
    eprintln!("[build] {n} workloads in {t:?}, traces {mib:.1} MiB");
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
            let mib = kib as f64 / 1024.0;
            let _ = writeln!(std::io::stderr(), "[host] peak RSS {mib:.1} MiB");
        }
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", synopsis());
    std::process::exit(2);
}

/// Parses `args` against [`FLAGS`]. `--help` prints the synopsis and
/// exits 0; anything the chosen mode cannot honour in full is a usage
/// error, decided before any workload is built.
fn parse(args: &[String]) -> Cli {
    let mut cli = Cli {
        mode: RUNS,
        what: Vec::new(),
        scale: Scale::Small,
        jobs: std::thread::available_parallelism().map_or(4, |n| n.get()),
        telemetry_dir: None,
        trace_dir: PathBuf::from("target/traces"),
        shard: (0, 1),
        sweep_dir: PathBuf::from("target/sweeps"),
        cache_dir: PathBuf::from("target/sweep-cache"),
        resume: false,
        strict: false,
        fault_plan: None,
        cell_budget: None,
    };
    let mut given: Vec<&Flag> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            println!("{}", synopsis());
            std::process::exit(0);
        }
        if !a.starts_with('-') {
            let name = EXPERIMENTS.into_iter().find(|e| a == e).unwrap_or_else(|| {
                let names = EXPERIMENTS.join(", ");
                usage_error(&format!(
                    "unknown experiment: {a} (expected one of {names})"
                ))
            });
            cli.what.push(name);
            continue;
        }
        let f = FLAGS
            .iter()
            .find(|(flag, ..)| a == *flag)
            .unwrap_or_else(|| usage_error(&format!("unknown flag: {a}")));
        let (_, value, _, set) = *f;
        let v = match value {
            Some(meta) => it
                .next()
                .unwrap_or_else(|| usage_error(&format!("{a} needs {meta}"))),
            None => "true",
        };
        set(&mut cli, v).unwrap_or_else(|e| usage_error(&format!("{a}: {e}")));
        given.push(f);
    }
    let switches: Vec<Mode> = MODES
        .into_iter()
        .filter(|&m| given.iter().any(|(flag, ..)| *flag == m))
        .collect();
    if let Some(&mode) = switches.last() {
        cli.mode = mode;
        if switches.len() > 1 || !cli.what.is_empty() {
            usage_error(&format!("{mode} runs alone"));
        }
    }
    for &(flag, _, modes, _) in given {
        if !modes.contains(&cli.mode) {
            let (last, rest) = modes.split_last().expect("every flag has a mode");
            let modes = match rest {
                [] => last.to_string(),
                _ => format!("{} and {last}", rest.join(", ")),
            };
            let mode = cli.mode;
            usage_error(&format!("{flag} only applies to {modes}, not {mode}"));
        }
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args);
    let _peak_rss = PeakRssOnExit;
    match cli.mode {
        MERGE => run_sweep_merge(&cli.sweep_dir),
        SWEEP => run_sweep_cmd(&cli),
        REPLAY => run_replay(&cli),
        _ => run_experiments(cli),
    }
}

/// Experiment runs: one cycle-core grid for the named experiments (all
/// but `telemetry` when none are named), then each one's table.
fn run_experiments(cli: Cli) {
    let (scale, jobs, mut what) = (cli.scale, cli.jobs, cli.what);
    // `all`, or no name without `--telemetry`, is every experiment but
    // the telemetry grid, which `--telemetry DIR` appends.
    if what.contains(&"all") || what.is_empty() && cli.telemetry_dir.is_none() {
        what = EXPERIMENTS
            .into_iter()
            .filter(|w| !matches!(*w, "telemetry" | "all"))
            .collect();
    }
    if cli.telemetry_dir.is_some() && !what.contains(&"telemetry") {
        what.push("telemetry");
    }
    // Create the artifact dir before any workload is built, so a bad
    // path is reported before any simulation runs.
    let telemetry_dir = cli.telemetry_dir.unwrap_or("target/telemetry".into());
    if what.contains(&"telemetry") {
        if let Err(e) = std::fs::create_dir_all(&telemetry_dir) {
            let dir = telemetry_dir.display();
            usage_error(&format!("--telemetry: cannot create {dir}: {e}"));
        }
    }

    let cfg = SystemConfig::paper();
    println!(
        "# ETPP reproduction — scale: {scale:?}\n\n\
         All speedups are relative to the no-prefetching baseline at the same scale.\n"
    );

    let t0 = Instant::now();
    let mut workloads = Vec::new();
    if what.iter().any(|&w| w != "table1") {
        workloads = ex::build_all(scale, jobs);
        report_build(&workloads, t0);
    }

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
    let fig9_cells = ex::fig9_cells(&rows, what.contains(&"fig9a"), what.contains(&"fig9b"));
    if !fig9_cells.is_empty() {
        eprintln!("[grid] {} cells (Figure 9 PPU points)", fig9_cells.len());
    }
    let fig9 = Grid::run(&rows, &fig9_cells, jobs, |_, w, (n, hz)| {
        etpp_sim::run(&SystemConfig::with_ppus(n, hz), PrefetchMode::Manual, w)
    });
    if !modes.is_empty() {
        eprintln!("[simulate] done in {:?}", t.elapsed());
    }

    for w in what {
        let t = Instant::now();
        match w {
            "table1" => print_table1(&cfg),
            "table2" => print_table2(&workloads),
            "fig7" | "fig8" | "fig10" | "fig11" | "traffic" => {
                println!("{}", report::grid_table(w, &grid));
            }
            "fig9a" => println!("{}", report::fig9a_table(&grid, &fig9)),
            "fig9b" => println!("{}", report::fig9b_table(&grid, &fig9)),
            "ablate" => {
                let find = |name| workloads.iter().find(|w| w.name == name).expect("built");
                let wls = [find("HJ-8"), find("IntSort")];
                // One capture per workload, shared by every axis over it.
                let caps = ex::map_indexed(jobs, 2, |i| ablations::capture(wls[i]));
                let [hj8, intsort] = [0, 1];
                for (title, param, i, axis) in [
                    (
                        "observation queue depth (HJ-8)",
                        "entries",
                        hj8,
                        axes::obs_queue(&[4, 10, 40, 160]),
                    ),
                    (
                        "request queue depth (IntSort)",
                        "entries",
                        intsort,
                        axes::req_queue(&[25, 50, 200, 800]),
                    ),
                    (
                        "EWMA look-ahead scale (IntSort)",
                        "scale",
                        intsort,
                        axes::lookahead_scale(&[1, 2, 4, 8]),
                    ),
                    (
                        "prefetch buffer entries (IntSort)",
                        "entries",
                        intsort,
                        axes::pf_buffer(&[0, 8, 16, 32, 64]),
                    ),
                ] {
                    let points = ablations::sweep(wls[i], &caps[i], axis, jobs);
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

/// Exit 1 with a diagnostic naming the operation and path. Used for I/O
/// on operator-supplied locations, where a panic backtrace would bury
/// the actual problem (a bad path or full disk).
fn io_fail(what: &str, path: &std::path::Path, e: &dyn Display) -> ! {
    eprintln!("error: {what} {}: {e}", path.display());
    std::process::exit(1);
}

/// `--sweep [--shard K/N]`: run one shard of the composed grid through
/// the sweep farm into its shard log, and (when unsharded) print the
/// merged tables — read back from that log through the same
/// parse-and-merge path `--sweep-merge` uses, so a 1-shard run and any
/// N-shard merge are byte-identical.
fn run_sweep_cmd(cli: &Cli) {
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
    let mut captures = load_or_capture(cli, &cfg, &workloads, 0..workloads.len());
    eprintln!("[capture] {} traces in {:?}", captures.len(), t0.elapsed());

    // Fault injection: corrupt the on-disk traces the plan names, then
    // reload. The reload exercises the corruption-tolerant read path —
    // a named decode diagnostic plus recapture, never a decoder panic.
    if let Some(plan) = &cli.fault_plan {
        let paths: Vec<PathBuf> = workloads
            .iter()
            .map(|w| rp::trace_path(&cli.trace_dir, w, label))
            .collect();
        let touched = faults::apply_trace_flips(plan, &paths)
            .unwrap_or_else(|e| io_fail("corrupt trace under", &cli.trace_dir, &e));
        for &wi in &touched {
            let path = paths[wi].display();
            eprintln!("[faults] flipped a byte in {path}; reloading");
        }
        let reloaded = load_or_capture(cli, &cfg, &workloads, touched.iter().copied());
        for (wi, cap) in touched.into_iter().zip(reloaded) {
            captures[wi] = cap;
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

/// The demand streams of `workloads[i]` for each `i` in `which`, loaded
/// from `--trace-dir` or captured, `--jobs` at a time. A failed capture
/// is a diagnostic naming the workload and exit 1, not a worker panic
/// backtrace: no cell could run without it.
fn load_or_capture(
    cli: &Cli,
    cfg: &SystemConfig,
    workloads: &[BuiltWorkload],
    which: impl Iterator<Item = usize>,
) -> Vec<rp::KeyedCapture> {
    let which: Vec<usize> = which.collect();
    let (dir, label) = (Some(cli.trace_dir.as_path()), cli.scale.label());
    let results = ex::map_indexed(cli.jobs, which.len(), |i| {
        let (wl, v) = (&workloads[which[i]], etpp_trace::FORMAT_VERSION);
        rp::try_load_or_capture_keyed(dir, cfg, wl, label, v)
    });
    let mut captures = Vec::with_capacity(which.len());
    for (&wi, result) in which.iter().zip(results) {
        match result {
            Ok(c) => captures.push(c),
            Err(e) => eprintln!("[capture] FAILED: {}: {e}", workloads[wi].name),
        }
    }
    if captures.len() < which.len() {
        std::process::exit(1);
    }
    captures
}

/// The trace-replay fast path: capture (or load) every workload's demand
/// stream, then replay the Figure 7 and Figure 11 grids in parallel.
fn run_replay(cli: &Cli) {
    let (scale, trace_dir, jobs) = (cli.scale, &cli.trace_dir, cli.jobs);
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
    let captures = load_or_capture(cli, &cfg, &workloads, 0..workloads.len());
    eprintln!("[capture] {} traces in {:?}", captures.len(), t0.elapsed());

    println!("## Trace corpus\n");
    println!("| Benchmark | Records | Accesses | Capture cycles | Source | File |");
    println!("|---|---|---|---|---|---|");
    for (w, cap) in workloads.iter().zip(&captures) {
        let (t, src) = (&cap.trace, cap.source);
        let path = rp::trace_path(trace_dir, w, label);
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let cycles = match t.meta.capture_cycles {
            0 => "n/a".to_string(),
            c => c.to_string(),
        };
        println!(
            "| {} | {} | {} | {cycles} | {:?} | {} ({:.1} MiB) |",
            w.name,
            t.records.len(),
            t.access_count(),
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
