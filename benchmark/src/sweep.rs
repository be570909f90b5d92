//! The sweep-farm workloads: one shard of `sweeps::composed_grid()`
//! through `sweeps::run_sweep`, cold (`sweep_cold`: empty result cache,
//! every cell simulated) and warm (`sweep_warm`: every cell served from
//! the cache set-up filled — pure orchestration, zero simulation).
//!
//! A cold pass is what `repro --sweep --jobs 1` does per invocation after
//! its captures: `run_sweep` with the fsync'd journal on, then the shard
//! JSON written and read back (`ShardRun::to_json` → `parse_shard`).
//! Warm passes run the same calls with the journal off: measured on the
//! reference box, the journal's ~100 fsyncs were 95 % of a warm pass's
//! wall time and moved ±25 % from run to run with the virtual disk,
//! burying the cache probe / checksum / codec cost the workload is there
//! to show. The journal's write side stays in every cold pass.
//!
//! Both run on one worker thread. With two, peak memory of the same code
//! and seed read 34.3, 37.5 or 40.0 MiB depending on how the workers'
//! allocations interleaved (no bound under 20 % holds that), and 1.3 ms
//! warm passes turned bimodal (1.7 or 3.0 ms), which `pass_wall_s` would
//! not hold its bound over. A second thread does not change the
//! CPU-second metrics; how the farm scales with `--jobs` is not something
//! this VM can measure steadily.

use crate::cells::{fingerprint, CellOut, SWEEP_BENCHMARKS};
use crate::env::{dir_bytes, peak_rss_mib, Elapsed, Stopwatch};
use crate::grid::{build_benchmarks, build_metrics, Built};
use crate::json::Json;
use crate::metrics::fastest;
use crate::run::{
    cpu_s, simulated_metrics, speedup_metrics, timed_passes, timed_setups, traced_pass_metrics,
    Checker, Layer, Measured, Opts, SCALE_LABEL,
};
use crate::spans::{span_if, Kind, Tracer};
use etpp_mem::MemorySystem;
use etpp_sim::replay::{try_load_or_capture_keyed, KeyedCapture};
use etpp_sim::sweeps::{
    composed_grid, parse_shard, run_sweep, settings_string, CellPath, CellResult, ShardRun,
    SweepOptions, SweepSpec,
};
use etpp_sim::{make_engine, SystemConfig};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shards the composed grid is cut into; `--seed S` runs shard
/// `S mod SHARDS`. A prime, so every shard strides across all six axes
/// and the six modes instead of pinning some of them: shards cost the
/// same to within a percent and a seed picks a sample of the grid, not a
/// corner of it. 6144 jobs / 127 = 48 or 49 cells a shard, ~1.3 s a cold
/// pass.
pub const SHARDS: usize = 127;

struct Ctx {
    built: Built,
    captures: Vec<KeyedCapture>,
    spec: SweepSpec,
    shard: (usize, usize),
    /// `sweep_warm` only: the cache the cold fill wrote, and its cells.
    warm: Option<(PathBuf, Vec<CellResult>)>,
}

/// Options of a cold pass (journal at `journal`) or, with no journal
/// path, of a warm one.
fn options(ctx: &Ctx, cache: &Path, journal: Option<&Path>) -> SweepOptions {
    SweepOptions {
        cache_dir: Some(cache.to_path_buf()),
        shard: ctx.shard,
        journal: journal.map(Path::to_path_buf),
        ..SweepOptions::new(1, SCALE_LABEL)
    }
}

/// One set-up: build IntSort and HJ-8, capture and persist their traces
/// (as `repro --sweep` does), and for `sweep_warm` run the cold fill.
fn set_up(warm: bool, opts: &Opts, dir: &Path) -> Result<Ctx, String> {
    let cfg = SystemConfig::paper();
    let built = build_benchmarks(SWEEP_BENCHMARKS);
    let captures = built
        .workloads
        .iter()
        .map(|wl| {
            try_load_or_capture_keyed(
                Some(&dir.join("traces")),
                &cfg,
                wl,
                SCALE_LABEL,
                etpp_trace::FORMAT_VERSION,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut ctx = Ctx {
        built,
        captures,
        spec: composed_grid(),
        shard: ((opts.seed % SHARDS as u64) as usize, SHARDS),
        warm: None,
    };
    if warm {
        let cache = dir.join("cache");
        let fill = run_sweep(
            &ctx.spec,
            &ctx.built.workloads,
            &ctx.captures,
            &options(&ctx, &cache, Some(&dir.join("journal-fill.jsonl"))),
        );
        if !fill.failures.is_empty() {
            return Err(format!(
                "cold fill quarantined {} jobs",
                fill.failures.len()
            ));
        }
        ctx.warm = Some((cache, fill.cells));
    }
    Ok(ctx)
}

fn path_code(path: CellPath) -> (u64, &'static str) {
    match path {
        CellPath::Replay => (0, "replay"),
        CellPath::Cycle => (1, "cycle"),
        CellPath::Skip => (2, "skip"),
        CellPath::Failed => (3, "failed"),
    }
}

fn cell_label(c: &CellResult) -> String {
    format!(
        "{}/{}/{}#{}",
        c.workload,
        c.mode.key(),
        settings_string(&c.settings),
        c.index
    )
}

/// A sweep cell's simulated counts (what the shard file carries).
fn cell_out(c: &CellResult) -> CellOut {
    CellOut {
        counts: vec![
            ("sim.cycles".to_string(), c.cycles),
            ("sim.sweeps.host_iters".to_string(), c.host_iters),
            ("trace.replay.dep_stalls".to_string(), c.dep_stalls),
            ("sim.sweeps.path".to_string(), path_code(c.path).0),
            (
                "sim.sweeps.speedup_bits".to_string(),
                c.speedup.map_or(0, f64::to_bits),
            ),
        ],
        validated: c.validated,
    }
}

struct PassOut {
    time: Elapsed,
    run: ShardRun,
    cache_bytes: u64,
    journal_bytes: u64,
}

/// One pass. Cold passes get a fresh cache directory (removed again,
/// untimed, once its size is read); warm passes share the filled one.
fn pass(
    ctx: &Ctx,
    dir: &Path,
    n: usize,
    tracer: Option<&RefCell<Tracer>>,
    check: &mut Checker,
) -> PassOut {
    let cold_cache = dir.join(format!("cold-{n}"));
    let cache = ctx.warm.as_ref().map_or(&cold_cache, |(c, _)| c);
    let journal = dir.join(format!("journal-{n}.jsonl"));
    let sweep_opts = options(ctx, cache, ctx.warm.is_none().then_some(&journal));

    let start = Stopwatch::start();
    let (run, parsed) = span_if(tracer, Kind::Pass, || {
        let run = span_if(tracer, Kind::RunSweep, || {
            run_sweep(&ctx.spec, &ctx.built.workloads, &ctx.captures, &sweep_opts)
        });
        let text = span_if(tracer, Kind::ToJson, || run.to_json());
        let parsed = span_if(tracer, Kind::ParseShard, || parse_shard(&text));
        (run, parsed)
    });
    let time = start.elapsed();

    for c in &run.cells {
        check.attempt();
        check.require(
            c.validated && matches!(c.path, CellPath::Replay | CellPath::Cycle),
            || {
                format!(
                    "{}: path={} validated={}",
                    cell_label(c),
                    path_code(c.path).1,
                    c.validated
                )
            },
        );
    }
    check.require(run.failures.is_empty(), || {
        format!("{} jobs quarantined", run.failures.len())
    });
    match &parsed {
        Err(e) => check.require(false, || format!("parse_shard(to_json(run)): {e}")),
        Ok(file) => check.require(
            file.cells.len() == run.cells.len()
                && file.cells.iter().zip(&run.cells).all(|(p, c)| {
                    p.index == c.index
                        && p.workload == c.workload
                        && p.mode == c.mode.key()
                        && p.path == path_code(c.path).1
                        && p.cycles == c.cycles
                        && p.validated == c.validated
                        && match (p.speedup, c.speedup) {
                            // The shard file keeps four decimals.
                            (Some(a), Some(b)) => (a - b).abs() <= 1e-4,
                            (a, b) => a.is_none() && b.is_none(),
                        }
                }),
            || "parse_shard(to_json(run)) does not preserve every cell".to_string(),
        ),
    }
    if let Some((_, cold_cells)) = &ctx.warm {
        check.require(run.cache_misses() == 0 && run.escalations() == 0, || {
            format!(
                "warm pass missed {} and escalated {} lookups",
                run.cache_misses(),
                run.escalations()
            )
        });
        check.require(
            cold_cells.len() == run.cells.len()
                && cold_cells
                    .iter()
                    .zip(&run.cells)
                    .all(|(a, b)| cell_label(a) == cell_label(b) && cell_out(a) == cell_out(b)),
            || "warm cells differ from the cold fill's".to_string(),
        );
    }

    let out = PassOut {
        time,
        cache_bytes: dir_bytes(cache),
        journal_bytes: std::fs::metadata(&journal).map_or(0, |m| m.len()),
        run,
    };
    let _ = std::fs::remove_dir_all(&cold_cache);
    let _ = std::fs::remove_file(&journal);
    out
}

/// `sim.cell_setup_us` for the farm's cells, timed from outside: the
/// engine and memory-system construction every cell pays before its
/// first simulated cycle.
fn cell_setup_us(ctx: &Ctx) -> f64 {
    const REPS: usize = 8;
    let cfg = ctx.spec.base;
    let mut n = 0u32;
    let t = Instant::now();
    for wl in &ctx.built.workloads {
        for &mode in &ctx.spec.modes {
            for _ in 0..REPS {
                let engine = make_engine(&cfg, mode, wl);
                let mem = MemorySystem::new(cfg.mem, wl.image.clone());
                std::hint::black_box((engine.is_ok(), &mem));
                n += 1;
            }
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(n.max(1))
}

/// Runs one sweep workload.
///
/// # Errors
/// A set-up failure (capture or cold fill), or `peak-rss-unavailable`.
pub fn run(warm: bool, opts: &Opts, setup_reps: usize, scratch: &Path) -> Result<Measured, String> {
    let mut build_reps = Vec::new();
    let mut timed_set_up = |dir: &Path| {
        let ctx = set_up(warm, opts, dir)?;
        build_reps.push(ctx.built.build_s.clone());
        Ok(ctx)
    };
    let mut setups = Vec::new();
    let ctx = timed_setups(scratch, &mut setups, 1, None, &mut timed_set_up)?;

    let mut check = Checker::default();
    let mut first: Option<Vec<CellOut>> = None;
    let mut last = None;
    let passes = timed_passes(opts.seconds, |n| {
        let p = pass(&ctx, scratch, n, None, &mut check);
        let outs: Vec<CellOut> = p.run.cells.iter().map(cell_out).collect();
        match &first {
            None => first = Some(outs),
            Some(reference) => check.require(*reference == outs, || {
                "simulated counts differ between passes".to_string()
            }),
        }
        let time = p.time;
        last = Some(p);
        time
    });
    let last = last.expect("at least one pass ran");
    let peak_rss_mib = peak_rss_mib()?;
    let ctx = timed_setups(
        scratch,
        &mut setups,
        setup_reps,
        Some(ctx),
        &mut timed_set_up,
    )?;
    let cells = &last.run.cells;
    let accesses_per_pass = cells
        .iter()
        .map(|c| {
            ctx.built
                .workloads
                .iter()
                .position(|w| w.name == c.workload)
                .map_or(0, |i| ctx.built.accesses[i])
        })
        .sum();

    let mut layer = Layer::default();
    let mut detail = Json::Null;
    if opts.traced {
        let tracer = RefCell::new(Tracer::new());
        let traced = pass(&ctx, scratch, passes.len(), Some(&tracer), &mut check);
        let tracer = tracer.into_inner();
        let totals = tracer.totals();

        let outs: Vec<(String, CellOut)> =
            cells.iter().map(|c| (cell_label(c), cell_out(c))).collect();
        simulated_metrics(outs.iter().map(|(_, o)| o), &mut layer);
        traced_pass_metrics(&totals, traced.time, &passes, &mut layer, &mut check);
        build_metrics(&build_reps, &mut layer);
        layer.set(
            "sim_fingerprint",
            fingerprint(outs.iter().map(|(l, o)| (l.as_str(), o))) as f64,
        );
        let speedups: Vec<_> = cells
            .iter()
            .filter_map(|c| c.speedup.map(|s| (c.mode, s)))
            .collect();
        speedup_metrics(&speedups, &mut layer);
        let pass_cpu_s = fastest(&cpu_s(&passes));
        for (name, v) in [
            ("sim.cell_setup_us", cell_setup_us(&ctx)),
            (
                "sim.sweeps.cell_us",
                pass_cpu_s * 1e6 / cells.len().max(1) as f64,
            ),
            ("sim.sweeps.cache.hit", last.run.cache_hits() as f64),
            ("sim.sweeps.cache.miss", last.run.cache_misses() as f64),
            ("sim.sweeps.cache.escalated", last.run.escalations() as f64),
            ("sim.sweeps.retries", last.run.retries() as f64),
            ("sim.sweeps.quarantined", last.run.quarantined() as f64),
            ("sim.sweeps.cache_bytes", last.cache_bytes as f64),
            ("sim.sweeps.journal_bytes", last.journal_bytes as f64),
        ] {
            layer.set(name, v);
        }

        let rows = cells.iter().map(|c| {
            Json::obj([
                ("cell", Json::str(cell_label(c))),
                ("path", Json::str(path_code(c.path).1)),
                ("cached", Json::Bool(c.cached)),
                ("cycles", Json::Num(c.cycles as f64)),
                ("speedup", c.speedup.map_or(Json::Null, Json::Num)),
            ])
        });
        detail = Json::obj([
            (
                "shard",
                Json::str(format!("{}/{}", ctx.shard.0, ctx.shard.1)),
            ),
            ("cells", Json::Arr(rows.collect())),
            ("traced_pass_wall_s", Json::Num(traced.time.wall_s)),
            ("spans", tracer.to_json()),
        ]);
    }
    layer.set("harness.fail_share", check.fail_share());

    Ok(Measured {
        setups,
        passes,
        peak_rss_mib,
        accesses_per_pass,
        check,
        layer,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Scratch;
    use crate::metrics::PER_LAYER;

    #[test]
    fn sweep_warm_traced_run_simulates_nothing_and_matches_the_cold_fill() {
        let opts = Opts {
            seed: 130, // shard 3 of 127
            seconds: 0.0,
            traced: true,
        };
        let scratch = Scratch::create("-sweep-warm").unwrap();
        let m = run(true, &opts, 3, scratch.path()).unwrap();
        assert_eq!(m.check.failed, 0, "{:?}", m.check.messages);
        let cells = m.layer.get("sim.sweeps.cache.hit");
        // Every cell and both workload baselines come from the cache.
        assert!((48.0..=51.0).contains(&cells), "{cells} hits");
        assert_eq!(m.layer.get("sim.sweeps.cache.miss"), 0.0);
        assert_eq!(m.layer.get("sim.sweeps.cache.escalated"), 0.0);
        assert_eq!(
            m.layer.get("sim.sweeps.journal_bytes"),
            0.0,
            "warm runs journal-less"
        );
        assert!(m.layer.get("sim.sweeps.cache_bytes") > 0.0);
        assert!(m.layer.get("sim.sweeps.parse_shard.s") > 0.0);
        // No simulation spans: the farm is opaque and nothing simulated.
        for name in ["mem.tick.calls", "cpu.tick.calls", "engine.on_demand.calls"] {
            assert_eq!(m.layer.get(name), 0.0, "{name}");
        }
        for name in m.layer.names() {
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "{name} is emitted but not declared in PER_LAYER"
            );
        }
        assert!(
            std::fs::read_dir(scratch.path()).unwrap().count() <= 1,
            "passes clean up their journals and cold caches"
        );
    }
}
