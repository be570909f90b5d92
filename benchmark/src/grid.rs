//! The (benchmark × prefetch-mode) grid workloads: `cycle_fixed` and
//! `cycle_ppu` on the cycle core, `replay_grid` on trace replay.
//!
//! Closed loop, one cell after another on the calling thread. A pass runs
//! every cell once in a seeded order; replay passes first decode each
//! benchmark's records from the `.etpt` file set-up wrote.

use crate::cells::{
    cycle_out, fingerprint, grid_cells, replay_out, Cell, CellOut, Driver, BENCHMARKS,
};
use crate::env::{peak_rss_mib, process_cpu_s, Elapsed, Stopwatch};
use crate::json::Json;
use crate::metrics::{fastest, geomean, median};
use crate::run::{
    simulated_metrics, speedup_metrics, timed_passes, timed_setups, traced_pass_metrics, Checker,
    Layer, Measured, Opts, Rng, SCALE, SCALE_LABEL,
};
use crate::spans::{span_if, Kind, Tracer};
use crate::timed::{traced_cycle_cell, traced_replay_cell};
use etpp_isa::{run_kernel, EventCtx};
use etpp_sim::{PrefetchMode, Skip, SystemConfig};
use etpp_trace::{TraceReader, TraceRecord, TraceWriter};
use etpp_workloads::{workload_by_name, BuiltWorkload};
use std::cell::RefCell;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The built benchmarks, shared with the sweep workloads' set-up.
pub struct Built {
    pub workloads: Vec<BuiltWorkload>,
    /// Loads + stores of each benchmark's trace (`Trace::class_counts`).
    pub accesses: Vec<u64>,
    /// `Workload::build` wall time of each.
    pub build_s: Vec<f64>,
}

/// Builds the first `n` of [`BENCHMARKS`].
/// `Workload::build` takes no seed, so the simulated inputs are fixed.
pub fn build_benchmarks(n: usize) -> Built {
    let mut built = Built {
        workloads: Vec::new(),
        accesses: Vec::new(),
        build_s: Vec::new(),
    };
    for name in &BENCHMARKS[..n] {
        let t = Instant::now();
        let wl = workload_by_name(name)
            .expect("benchmark is a Table 2 workload")
            .build(SCALE);
        built.build_s.push(t.elapsed().as_secs_f64());
        let classes = wl.trace.class_counts();
        built.accesses.push(classes.loads + classes.stores);
        built.workloads.push(wl);
    }
    built
}

/// `workloads.build_s.<benchmark>`: median over the set-up repetitions.
pub fn build_metrics(reps: &[Vec<f64>], layer: &mut Layer) {
    for (i, name) in BENCHMARKS.iter().enumerate() {
        let samples: Vec<f64> = reps.iter().filter_map(|r| r.get(i).copied()).collect();
        let v = if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        };
        layer.set(format!("workloads.build_s.{name}"), v);
    }
}

/// What replay set-up leaves behind for the passes.
struct ReplaySetup {
    /// The persisted `.etpt` of each benchmark.
    paths: Vec<PathBuf>,
    /// `content_hash` of each in-memory capture.
    capture_hash: Vec<u64>,
    encode_s: f64,
    encode_bytes: u64,
    /// Cycle-core `(cycles, CPU seconds)` of each cell, canonical order.
    reference: Vec<(u64, f64)>,
}

struct Ctx {
    cfg: SystemConfig,
    built: Built,
    replay: Option<ReplaySetup>,
}

/// One set-up: build the benchmarks; for replay also capture each one's
/// demand stream on the cycle core, persist it (the write side of
/// `etpp-trace::io`) and run the cycle-core reference of every cell.
fn set_up(driver: Driver, cells: &[Cell], dir: &Path) -> Result<Ctx, String> {
    let cfg = SystemConfig::paper();
    let built = build_benchmarks(BENCHMARKS.len());
    let mut ctx = Ctx {
        cfg,
        built,
        replay: None,
    };
    if driver == Driver::Cycle {
        return Ok(ctx);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rs = ReplaySetup {
        paths: Vec::new(),
        capture_hash: Vec::new(),
        encode_s: 0.0,
        encode_bytes: 0,
        reference: Vec::new(),
    };
    for wl in &ctx.built.workloads {
        let (result, capture) =
            etpp_sim::run_captured(&cfg, PrefetchMode::None, wl, SCALE_LABEL)
                .map_err(|skip| format!("{}: capture cannot run ({skip})", wl.name))?;
        if !result.validated {
            return Err(format!("{}: capture run failed validation", wl.name));
        }
        let path = dir.join(format!("{}.etpt", wl.name));
        let t = Instant::now();
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let file = File::create(&path).map_err(io)?;
        let mut w = TraceWriter::new(BufWriter::new(file), &capture.meta).map_err(io)?;
        for r in &capture.records {
            w.record(r).map_err(io)?;
        }
        let (mut out, _) = w.finish().map_err(io)?;
        out.flush().map_err(io)?;
        rs.encode_s += t.elapsed().as_secs_f64();
        rs.encode_bytes += std::fs::metadata(&path).map_err(io)?.len();
        rs.capture_hash
            .push(etpp_trace::content_hash(&capture.records));
        rs.paths.push(path);
    }
    for cell in cells {
        let t = process_cpu_s();
        let r = etpp_sim::run(&cfg, cell.mode, &ctx.built.workloads[cell.bench])
            .map_err(|skip| format!("{}: reference cannot run ({skip})", cell.label()))?;
        rs.reference.push((r.cycles, process_cpu_s() - t));
    }
    ctx.replay = Some(rs);
    Ok(ctx)
}

/// Decodes benchmark `bench`'s records from disk and checks them against
/// the in-memory capture's hash.
fn decode(
    rs: &ReplaySetup,
    bench: usize,
    tracer: Option<&RefCell<Tracer>>,
) -> Result<Vec<TraceRecord>, String> {
    let path = &rs.paths[bench];
    let records = span_if(tracer, Kind::Decode, || {
        let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        TraceReader::new(BufReader::new(file))
            .and_then(|r| r.read_to_end())
            .map(|t| t.records)
            .map_err(|e| format!("{}: {e}", path.display()))
    })?;
    let hash = span_if(tracer, Kind::ContentHash, || {
        etpp_trace::content_hash(&records)
    });
    if hash == rs.capture_hash[bench] {
        Ok(records)
    } else {
        Err(format!(
            "{}: decoded records hash differs from the capture",
            path.display()
        ))
    }
}

fn run_cell(
    ctx: &Ctx,
    cell: Cell,
    records: Option<&[TraceRecord]>,
    tracer: Option<&RefCell<Tracer>>,
) -> Result<CellOut, Skip> {
    let (cfg, wl) = (&ctx.cfg, &ctx.built.workloads[cell.bench]);
    match (records, tracer) {
        (None, None) => etpp_sim::run(cfg, cell.mode, wl).map(|r| cycle_out(&r)),
        (None, Some(t)) => traced_cycle_cell(cfg, cell.mode, wl, t).map(|r| cycle_out(&r)),
        (Some(recs), None) => {
            etpp_sim::replay_run(cfg, cell.mode, wl, recs).map(|r| replay_out(&r))
        }
        (Some(recs), Some(t)) => {
            traced_replay_cell(cfg, cell.mode, wl, recs, t).map(|r| replay_out(&r))
        }
    }
}

/// What one pass delivered, indexed by canonical cell.
struct PassOut {
    time: Elapsed,
    outs: Vec<Option<CellOut>>,
    /// CPU seconds of each cell.
    cell_cpu_s: Vec<f64>,
    records_decoded: u64,
}

/// One pass: (replay) decode every benchmark's records, then run every
/// cell in `order`. A cell fails on `Skip`, a panic, a decode error or
/// `validated == false`.
fn pass(
    ctx: &Ctx,
    cells: &[Cell],
    order: &[usize],
    tracer: Option<&RefCell<Tracer>>,
    check: &mut Checker,
) -> PassOut {
    let start = Stopwatch::start();
    let mut out = PassOut {
        time: Elapsed::default(),
        outs: vec![None; cells.len()],
        cell_cpu_s: vec![0.0; cells.len()],
        records_decoded: 0,
    };
    span_if(tracer, Kind::Pass, || {
        let decoded: Option<Vec<Result<Vec<TraceRecord>, String>>> =
            ctx.replay.as_ref().map(|rs| {
                (0..BENCHMARKS.len())
                    .map(|bench| decode(rs, bench, tracer))
                    .collect()
            });
        for &i in order {
            let cell = cells[i];
            check.attempt();
            let records = match &decoded {
                None => None,
                Some(per_bench) => match &per_bench[cell.bench] {
                    Ok(records) => Some(records.as_slice()),
                    Err(e) => {
                        check.require(false, || format!("{}: {e}", cell.label()));
                        continue;
                    }
                },
            };
            if let Some(t) = tracer {
                t.borrow_mut().begin_cell(&cell.label());
            }
            let t0 = process_cpu_s();
            let result = span_if(tracer, Kind::Cell, || {
                catch_unwind(AssertUnwindSafe(|| run_cell(ctx, cell, records, tracer)))
            });
            out.cell_cpu_s[i] = process_cpu_s() - t0;
            if let Some(t) = tracer {
                t.borrow_mut().end_cell();
            }
            match result {
                Ok(Ok(cell_out)) => {
                    check.require(cell_out.validated, || {
                        format!("{}: post-run image failed validation", cell.label())
                    });
                    out.outs[i] = Some(cell_out);
                }
                Ok(Err(skip)) => check.require(false, || format!("{}: {skip}", cell.label())),
                Err(_) => check.require(false, || format!("{}: panicked", cell.label())),
            }
        }
        if let Some(per_bench) = &decoded {
            out.records_decoded = per_bench.iter().flatten().map(|r| r.len() as u64).sum();
        }
    });
    out.time = start.elapsed();
    out
}

/// `isa.run_kernel.ns_per_inst`: every manual and converted kernel of
/// the benchmarks through `etpp_isa::run_kernel` against a stub context,
/// a fixed number of times.
fn kernel_ns_per_inst(built: &Built) -> f64 {
    struct Stub {
        vaddr: u64,
        prefetches: u64,
    }
    impl EventCtx for Stub {
        fn vaddr(&self) -> u64 {
            self.vaddr
        }
        fn line_word(&self, off: u8) -> u64 {
            self.vaddr.rotate_left(off as u32) ^ 0x5bd1_e995
        }
        fn global(&self, idx: u8) -> u64 {
            0x1000_0000 + ((idx as u64) << 20)
        }
        fn ewma_lookahead(&self, _range: u16) -> u64 {
            4
        }
        fn prefetch(&mut self, vaddr: u64, _tag: Option<u16>, _at_inst: u64) {
            self.prefetches += black_box(vaddr) & 1;
        }
    }
    const ITERS: u64 = 2000;
    // The paper configuration's per-event budget bounds data-dependent
    // loops (list walks over the stub's pseudo-random words).
    let budget = etpp_core::PrefetcherParams::paper().max_event_insts;
    let mut ctx = Stub {
        vaddr: 0x4000_0040,
        prefetches: 0,
    };
    let mut insts = 0u64;
    let t = Instant::now();
    for wl in &built.workloads {
        for setup in [&wl.manual, &wl.converted].into_iter().flatten() {
            for kernel in &setup.program.kernels {
                for i in 0..ITERS {
                    ctx.vaddr = 0x4000_0040 + 8 * i;
                    insts += run_kernel(black_box(kernel), &mut ctx, budget).insts;
                }
            }
        }
    }
    black_box(ctx.prefetches);
    t.elapsed().as_secs_f64() * 1e9 / insts.max(1) as f64
}

/// Runs one grid workload: repeated set-ups, timed passes for
/// `opts.seconds`, and — on a traced run — one more pass through the
/// instrumented replicas.
///
/// # Errors
/// A set-up failure (I/O, or a capture that does not validate), or
/// `peak-rss-unavailable`.
pub fn run(
    driver: Driver,
    modes: &[PrefetchMode],
    opts: &Opts,
    setup_reps: usize,
    scratch: &Path,
) -> Result<Measured, String> {
    let cells = grid_cells(modes);

    let mut build_reps = Vec::new();
    let mut timed_set_up = |dir: &Path| {
        let ctx = set_up(driver, &cells, dir)?;
        build_reps.push(ctx.built.build_s.clone());
        Ok(ctx)
    };
    let mut setups = Vec::new();
    let ctx = timed_setups(scratch, &mut setups, 1, None, &mut timed_set_up)?;

    let mut check = Checker::default();
    let mut rng = Rng(opts.seed);
    let mut first: Option<Vec<Option<CellOut>>> = None;
    let mut cell_times: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let passes = timed_passes(opts.seconds, |_| {
        let order = rng.permutation(cells.len());
        let p = pass(&ctx, &cells, &order, None, &mut check);
        for (times, t) in cell_times.iter_mut().zip(&p.cell_cpu_s) {
            times.push(*t);
        }
        match &first {
            None => first = Some(p.outs),
            Some(reference) => check.require(*reference == p.outs, || {
                "simulated counts differ between passes".to_string()
            }),
        }
        p.time
    });
    let first = first.expect("at least one pass ran");
    let peak_rss_mib = peak_rss_mib()?;
    let ctx = timed_setups(
        scratch,
        &mut setups,
        setup_reps,
        Some(ctx),
        &mut timed_set_up,
    )?;
    let accesses_per_pass = cells.iter().map(|c| ctx.built.accesses[c.bench]).sum();

    let mut layer = Layer::default();
    let mut detail = Json::Null;
    if opts.traced {
        let tracer = RefCell::new(Tracer::new());
        let order = rng.permutation(cells.len());
        let traced = pass(&ctx, &cells, &order, Some(&tracer), &mut check);
        let tracer = tracer.into_inner();
        let totals = tracer.totals();
        // The wrapper and the replica loops must be transparent.
        check.require(traced.outs == first, || {
            "traced replica's simulated counts differ from the untraced run".to_string()
        });

        let delivered: Vec<(String, &CellOut)> = cells
            .iter()
            .zip(&first)
            .filter_map(|(c, o)| o.as_ref().map(|o| (c.label(), o)))
            .collect();
        simulated_metrics(delivered.iter().map(|(_, o)| *o), &mut layer);
        traced_pass_metrics(&totals, traced.time, &passes, &mut layer, &mut check);
        build_metrics(&build_reps, &mut layer);
        layer.set(
            "sim_fingerprint",
            fingerprint(delivered.iter().map(|(l, o)| (l.as_str(), *o))) as f64,
        );
        let cell_fastest: Vec<f64> = cell_times.iter().map(|t| fastest(t)).collect();
        layer.set(
            "sim.cell_cpu_max_s",
            cell_fastest.iter().copied().fold(0.0, f64::max),
        );
        if modes.iter().any(PrefetchMode::is_programmable) {
            layer.set("isa.run_kernel.ns_per_inst", kernel_ns_per_inst(&ctx.built));
        }

        // Speed-ups over no prefetching, per benchmark: the grid's own
        // `none` cell, or (cycle_ppu has none) one extra baseline run.
        let mut speedups = Vec::new();
        for bench in 0..BENCHMARKS.len() {
            let cycles_of = |mode: PrefetchMode| {
                cells
                    .iter()
                    .position(|c| c.bench == bench && c.mode == mode)
                    .and_then(|i| first[i].as_ref())
                    .map(|o| o.get("sim.cycles"))
            };
            let base = cycles_of(PrefetchMode::None).or_else(|| {
                etpp_sim::run(&ctx.cfg, PrefetchMode::None, &ctx.built.workloads[bench])
                    .ok()
                    .map(|r| r.cycles)
            });
            for &mode in modes.iter().filter(|m| **m != PrefetchMode::None) {
                if let (Some(base), Some(cycles)) = (base, cycles_of(mode)) {
                    speedups.push((mode, base as f64 / cycles.max(1) as f64));
                }
            }
        }
        speedup_metrics(&speedups, &mut layer);

        if let Some(rs) = &ctx.replay {
            layer.set("trace.encode.s", rs.encode_s);
            layer.set("trace.encode.bytes", rs.encode_bytes as f64);
            let decode_s = layer.get("trace.decode.s");
            layer.set(
                "trace.decode.records_per_s",
                traced.records_decoded as f64 / decode_s.max(1e-12),
            );
            // Replay vs the more detailed cycle core, cell for cell: the
            // only accuracy number this repo can give (it holds no paper
            // reference table).
            let mut error_max: f64 = 0.0;
            let mut host_speedups = Vec::new();
            for (i, (ref_cycles, ref_cpu_s)) in rs.reference.iter().enumerate() {
                if let Some(out) = &first[i] {
                    let agreement = out.get("sim.cycles") as f64 / (*ref_cycles).max(1) as f64;
                    error_max = error_max.max((1.0 - agreement).abs());
                    host_speedups.push(ref_cpu_s / cell_fastest[i].max(1e-12));
                }
            }
            layer.set("trace.replay.cycle_error_max", error_max);
            layer.set(
                "trace.replay.host_speedup_geomean",
                geomean(&host_speedups).unwrap_or(0.0),
            );
        }

        let rows = cells.iter().enumerate().map(|(i, c)| {
            let counts = first[i].as_ref().map_or(Json::Null, |o| {
                Json::obj(
                    o.counts
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v as f64))),
                )
            });
            Json::obj([
                ("cell", Json::str(c.label())),
                ("cpu_s_fastest", Json::Num(cell_fastest[i])),
                ("cpu_s_traced", Json::Num(traced.cell_cpu_s[i])),
                ("counts", counts),
            ])
        });
        detail = Json::obj([
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
    use crate::cells::{workload, Shape};
    use crate::env::Scratch;
    use crate::metrics::PER_LAYER;

    fn traced_run(name: &str, seed: u64) -> Measured {
        let opts = Opts {
            seed,
            seconds: 0.0,
            traced: true,
        };
        let scratch = Scratch::create(&format!("-{name}-{seed}")).unwrap();
        let Shape::Grid(driver, modes) = workload(name).unwrap().shape else {
            unreachable!("grid workloads only")
        };
        run(driver, modes, &opts, 3, scratch.path()).unwrap()
    }

    fn assert_clean_and_declared(m: &Measured) {
        assert_eq!(m.check.failed, 0, "{:?}", m.check.messages);
        assert!(m.check.attempted > 0);
        for name in m.layer.names() {
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "{name} is emitted but not declared in PER_LAYER"
            );
        }
    }

    #[test]
    fn cycle_ppu_traced_run_is_clean_and_seed_invariant_in_its_counts() {
        let (a, b) = (traced_run("cycle_ppu", 0), traced_run("cycle_ppu", 1));
        for m in [&a, &b] {
            assert_clean_and_declared(m);
            // 3 timed passes + 1 traced pass of 9 cells.
            assert_eq!(m.check.attempted, 36);
            assert_eq!(m.accesses_per_pass % 3, 0, "three modes per benchmark");
            assert!(m.layer.get("core.ppu_insts") > 0.0);
            assert!(m.layer.get("engine.on_demand.s") > 0.0);
            assert!(m.layer.get("isa.run_kernel.ns_per_inst") > 0.0);
            assert!(m.layer.get("sim.speedup_geomean.manual") > 1.0);
            assert_eq!(m.layer.get("trace.replay.host_iters"), 0.0);
        }
        // A different seed permutes the cell order and nothing else.
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            assert_eq!(
                a.layer.get(def.name),
                b.layer.get(def.name),
                "{} differs between seeds",
                def.name
            );
        }
    }

    #[test]
    fn replay_grid_traced_run_has_no_core_and_reports_fidelity() {
        let m = traced_run("replay_grid", 3);
        assert_clean_and_declared(&m);
        assert_eq!(m.check.attempted, 48);
        assert_eq!(m.layer.get("cpu.tick.calls"), 0.0, "no Core in replay");
        assert_eq!(m.layer.get("sim.driver.visits"), 0.0);
        assert!(m.layer.get("trace.replay.self_s") > 0.0);
        assert!(m.layer.get("trace.decode.records_per_s") > 0.0);
        assert!(m.layer.get("trace.encode.bytes") > 0.0);
        let error = m.layer.get("trace.replay.cycle_error_max");
        assert!(error > 0.0 && error < 1.0, "cycle error {error}");
    }
}
