//! What the grid and sweep workloads share: run options, the failure
//! tally, the timed-pass loop, the seeded cell order, and the folding of
//! per-cell simulated counts and recorded spans into per-layer metrics.

use crate::cells::{CellOut, SPEEDUP_MODES};
use crate::env::{Elapsed, Stopwatch};
use crate::json::Json;
use crate::metrics::{fastest, geomean};
use crate::spans::{Group, Kind};
use etpp_sim::PrefetchMode;
use etpp_workloads::Scale;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Timed passes per run at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Every workload runs at Tiny: the scale `BENCHMARK.json`'s bounds are
/// stated for, and the largest at which the driver's runs fit its time
/// cap.
pub const SCALE: Scale = Scale::Tiny;

/// The label `repro --scale` gives [`SCALE`] (trace metadata and cache
/// keys carry it).
pub const SCALE_LABEL: &str = "tiny";

/// One run's options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Cells attempted and failed. Every correctness check that does not
/// hold counts one failure against the cells attempted.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    /// Counts one attempted cell.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed cell or check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            // Enough to diagnose; a systematic failure repeats per cell.
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

/// Per-layer metric values by name (a name absent here reads 0).
#[derive(Debug, Default)]
pub struct Layer(BTreeMap<String, f64>);

impl Layer {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// Everything one run measured.
pub struct Measured {
    /// Each set-up repetition.
    pub setups: Vec<Elapsed>,
    /// Each timed (untraced) pass.
    pub passes: Vec<Elapsed>,
    /// `VmHWM` after the first set-up and the timed passes, before set-up
    /// repeats.
    pub peak_rss_mib: f64,
    /// Loads + stores of the benchmark traces behind one pass's cells.
    pub accesses_per_pass: u64,
    pub check: Checker,
    /// Per-layer metrics (complete only on a traced run).
    pub layer: Layer,
    /// Per-cell rows and span aggregates for the span file.
    pub detail: Json,
}

/// Sets up until `times` holds `until` repetitions (at least once when
/// there is no `product` yet), each in a fresh directory under `scratch`,
/// dropping the previous product and directory first so two are never
/// alive together. Returns the last product.
///
/// A run sets up once, runs its timed passes, reads peak memory, and
/// only then repeats set-up for the median: that is the process a user
/// runs. With every repetition up front, the allocator's state after
/// them put the peak of `sweep_cold` at 32.3, 35.3 or 37.8 MiB depending
/// on the length of the checkout's path or a one-line change elsewhere.
///
/// # Errors
/// The first set-up error.
pub fn timed_setups<C>(
    scratch: &Path,
    times: &mut Vec<Elapsed>,
    until: usize,
    mut product: Option<C>,
    set_up: &mut impl FnMut(&Path) -> Result<C, String>,
) -> Result<C, String> {
    while times.len() < until || product.is_none() {
        drop(product.take());
        let rep = times.len();
        if let Some(previous) = rep.checked_sub(1) {
            let _ = std::fs::remove_dir_all(scratch.join(format!("setup-{previous}")));
        }
        let t = Stopwatch::start();
        product = Some(set_up(&scratch.join(format!("setup-{rep}")))?);
        times.push(t.elapsed());
    }
    Ok(product.expect("the loop ran or a product was given"))
}

/// Runs `pass` until `seconds` of wall time have been measured and at
/// least [`MIN_PASSES`] passes are in; returns each pass's time as
/// reported by `pass` itself (so untimed housekeeping between passes
/// stays out).
pub fn timed_passes(seconds: f64, mut pass: impl FnMut(usize) -> Elapsed) -> Vec<Elapsed> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        times.push(pass(times.len()));
    }
    times
}

/// The CPU seconds of each interval.
pub fn cpu_s(times: &[Elapsed]) -> Vec<f64> {
    times.iter().map(|t| t.cpu_s).collect()
}

/// The wall seconds of each interval.
pub fn wall_s(times: &[Elapsed]) -> Vec<f64> {
    times.iter().map(|t| t.wall_s).collect()
}

/// splitmix64: seeds the cell execution order.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A fresh permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sums the cells' simulated counts into the exact per-layer metrics
/// (and the ratios derived from the sums).
pub fn simulated_metrics<'a>(outs: impl IntoIterator<Item = &'a CellOut>, layer: &mut Layer) {
    let mut sum: BTreeMap<&str, f64> = BTreeMap::new();
    let mut ppu_capacity = 0.0;
    for out in outs {
        for (name, v) in &out.counts {
            *sum.entry(name.as_str()).or_default() += *v as f64;
        }
        ppu_capacity += (out.get("core.ppus") * out.get("sim.cycles")) as f64;
    }
    let get = |name: &str| sum.get(name).copied().unwrap_or(0.0);
    for name in [
        "sim.cycles",
        "sim.insts",
        "sim.driver.visits",
        "cpu.loads_issued",
        "cpu.load_retries",
        "cpu.active_cycles",
        "cpu.mispredicts",
        "mem.l1.read_hits",
        "mem.l1.read_misses",
        "mem.l1.prefetch_fills",
        "mem.l1.prefetches_used",
        "mem.l1.prefetches_unused",
        "mem.l1.late_prefetch_merges",
        "mem.l2.read_misses",
        "mem.dram.reads",
        "mem.dram.row_hits",
        "mem.dram.queue_cycles",
        "mem.tlb.walks",
        "mem.prefetches_issued",
        "mem.prefetch_drops",
        "mem.prefetch_l1_redundant",
        "core.ppu_insts",
        "core.ppu_events",
        "core.obs_dropped",
        "core.req_dropped",
        "trace.replay.host_iters",
        "trace.replay.dep_stalls",
    ] {
        layer.set(name, get(name));
    }
    let host_iters =
        get("sim.driver.visits") + get("trace.replay.host_iters") + get("sim.sweeps.host_iters");
    for (name, v) in [
        ("sim.ipc", ratio(get("sim.insts"), get("sim.cycles"))),
        ("sim.fast_forward", ratio(get("sim.cycles"), host_iters)),
        (
            "sim.visits.mem_event_share",
            ratio(get("sim.visits.mem_event"), get("sim.driver.visits")),
        ),
        (
            "mem.l1.read_hit_rate",
            ratio(
                get("mem.l1.read_hits"),
                get("mem.l1.read_hits") + get("mem.l1.read_misses"),
            ),
        ),
        (
            "mem.l1.prefetch_utilisation",
            ratio(
                get("mem.l1.prefetches_used"),
                get("mem.l1.prefetches_used") + get("mem.l1.prefetches_unused"),
            ),
        ),
        (
            "core.ppu_busy_share",
            ratio(get("core.ppu_busy_cycles"), ppu_capacity),
        ),
    ] {
        layer.set(name, v);
    }
}

/// `sim.speedup_geomean.<mode>` from `(mode, speedup over no
/// prefetching)` pairs; modes without a cell read 0.
pub fn speedup_metrics(speedups: &[(PrefetchMode, f64)], layer: &mut Layer) {
    for mode in SPEEDUP_MODES {
        let of_mode: Vec<f64> = speedups
            .iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, s)| *s)
            .collect();
        layer.set(
            format!("sim.speedup_geomean.{}", mode.key()),
            geomean(&of_mode).unwrap_or(0.0),
        );
    }
}

/// Which number of a span's aggregate a metric reports.
enum Field {
    Calls,
    Total,
    SelfTime,
}

use Field::{Calls, SelfTime, Total};

/// The per-layer metrics read straight off the traced pass's span totals.
const SPAN_METRICS: &[(&str, Kind, Field)] = &[
    ("sim.driver.self_s", Kind::Driver, SelfTime),
    ("cpu.tick.calls", Kind::CpuTick, Calls),
    ("cpu.tick.s", Kind::CpuTick, Total),
    ("cpu.next_event_at.calls", Kind::CpuHorizon, Calls),
    ("cpu.next_event_at.s", Kind::CpuHorizon, Total),
    ("mem.tick.calls", Kind::MemTick, Calls),
    ("mem.tick.self_s", Kind::MemTick, SelfTime),
    ("mem.advance_to.calls", Kind::MemAdvance, Calls),
    ("mem.advance_to.self_s", Kind::MemAdvance, SelfTime),
    ("engine.on_demand.calls", Kind::EngDemand, Calls),
    ("engine.on_demand.s", Kind::EngDemand, Total),
    ("engine.on_prefetch_fill.calls", Kind::EngFill, Calls),
    ("engine.on_prefetch_fill.s", Kind::EngFill, Total),
    ("engine.tick.calls", Kind::EngTick, Calls),
    ("engine.tick.s", Kind::EngTick, Total),
    ("engine.pop_request.calls", Kind::EngPop, Calls),
    ("engine.pop_request.s", Kind::EngPop, Total),
    ("engine.horizon.calls", Kind::EngHorizon, Calls),
    ("engine.horizon.s", Kind::EngHorizon, Total),
    ("engine.config.calls", Kind::EngConfig, Calls),
    ("trace.decode.s", Kind::Decode, Total),
    ("trace.content_hash.s", Kind::ContentHash, Total),
    ("trace.replay.self_s", Kind::Replay, SelfTime),
    ("sim.sweeps.to_json.s", Kind::ToJson, Total),
    ("sim.sweeps.parse_shard.s", Kind::ParseShard, Total),
];

/// What every traced run reports from its one traced pass: the check
/// that the spans account for the pass, the per-boundary calls and host
/// seconds, and the tracing overhead against the untraced passes.
///
/// The spans nest under one `pass` span, so their self times sum to it
/// exactly; that span must cover the externally timed pass to 2 %.
pub fn traced_pass_metrics(
    totals: &Group,
    traced: Elapsed,
    passes: &[Elapsed],
    layer: &mut Layer,
    check: &mut Checker,
) {
    let covered_s = totals.self_sum_ns() as f64 * 1e-9;
    check.require(
        (covered_s - traced.wall_s).abs() <= 0.02 * traced.wall_s,
        || {
            format!(
                "span self times sum to {covered_s:.4}s but the traced pass took {:.4}s",
                traced.wall_s
            )
        },
    );
    for (name, kind, field) in SPAN_METRICS {
        let agg = totals.get(*kind);
        layer.set(
            *name,
            match field {
                Calls => agg.count as f64,
                Total => agg.total_s(),
                SelfTime => agg.self_s(),
            },
        );
    }
    let setup = totals.get(Kind::CellSetup);
    layer.set(
        "sim.cell_setup_us",
        ratio(setup.total_s() * 1e6, setup.count as f64),
    );
    let engine_s: f64 = [
        Kind::EngDemand,
        Kind::EngFill,
        Kind::EngTick,
        Kind::EngPop,
        Kind::EngHorizon,
    ]
    .iter()
    .map(|k| totals.get(*k).total_s())
    .sum();
    layer.set(
        "core.ppu_insts_per_engine_s",
        ratio(layer.get("core.ppu_insts"), engine_s),
    );
    layer.set(
        "trace_overhead_ratio",
        traced.cpu_s / fastest(&cpu_s(passes)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = Rng(7).permutation(12);
        assert_eq!(a, Rng(7).permutation(12));
        assert_ne!(a, Rng(8).permutation(12));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert!(Rng(1).permutation(0).is_empty());
    }

    #[test]
    fn timed_setups_run_up_to_the_given_count_and_keep_the_last() {
        let scratch = Path::new("unused-by-these-set-ups");
        let mut times = Vec::new();
        let mut set_up = |dir: &Path| Ok(dir.to_path_buf());
        let first = timed_setups(scratch, &mut times, 1, None, &mut set_up).unwrap();
        assert!(first.ends_with("setup-0"));
        assert_eq!(times.len(), 1);
        let last = timed_setups(scratch, &mut times, 4, Some(first), &mut set_up).unwrap();
        assert!(last.ends_with("setup-3"));
        assert_eq!(times.len(), 4);
        // Nothing left to repeat: the product comes back as it is.
        let same = timed_setups(scratch, &mut times, 4, Some(last.clone()), &mut set_up).unwrap();
        assert_eq!((same, times.len()), (last, 4));
        let mut fail = |_: &Path| Err::<(), _>("boom".to_string());
        assert_eq!(
            timed_setups(scratch, &mut Vec::new(), 2, None, &mut fail).unwrap_err(),
            "boom"
        );
    }

    #[test]
    fn timed_passes_runs_the_minimum_even_with_no_time() {
        let times = timed_passes(0.0, |i| Elapsed {
            wall_s: i as f64,
            cpu_s: 2.0 * i as f64,
        });
        assert_eq!(wall_s(&times), vec![0.0, 1.0, 2.0]);
        assert_eq!(cpu_s(&times), vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn checker_counts_failures_against_attempts() {
        let mut c = Checker::default();
        for _ in 0..4 {
            c.attempt();
        }
        c.require(true, || unreachable!());
        c.require(false, || "cell x failed".to_string());
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert_eq!(c.fail_share(), 0.25);
        assert_eq!(c.messages, ["cell x failed"]);
    }

    #[test]
    fn simulated_metrics_sum_counts_and_derive_ratios() {
        let cell = |cycles: u64, hits: u64| CellOut {
            counts: vec![
                ("sim.cycles".into(), cycles),
                ("sim.insts".into(), 2 * cycles),
                ("sim.driver.visits".into(), cycles / 10),
                ("sim.visits.mem_event".into(), cycles / 20),
                ("mem.l1.read_hits".into(), hits),
                ("mem.l1.read_misses".into(), 100 - hits),
            ],
            validated: true,
        };
        let outs = [cell(1000, 75), cell(3000, 25)];
        let mut layer = Layer::default();
        simulated_metrics(&outs, &mut layer);
        assert_eq!(layer.get("sim.cycles"), 4000.0);
        assert_eq!(layer.get("sim.ipc"), 2.0);
        assert_eq!(layer.get("sim.fast_forward"), 10.0);
        assert_eq!(layer.get("sim.visits.mem_event_share"), 0.5);
        assert_eq!(layer.get("mem.l1.read_hit_rate"), 0.5);
        assert_eq!(layer.get("core.ppu_busy_share"), 0.0);
    }

    #[test]
    fn speedup_geomeans_group_by_mode() {
        let mut layer = Layer::default();
        speedup_metrics(
            &[
                (PrefetchMode::Manual, 2.0),
                (PrefetchMode::Manual, 8.0),
                (PrefetchMode::Stride, 1.5),
            ],
            &mut layer,
        );
        assert!((layer.get("sim.speedup_geomean.manual") - 4.0).abs() < 1e-12);
        assert_eq!(layer.get("sim.speedup_geomean.stride"), 1.5);
        assert_eq!(layer.get("sim.speedup_geomean.pragma"), 0.0);
    }
}
