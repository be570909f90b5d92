//! The experiment grid: one runner, and the projections the paper's
//! figures and tables are.
//!
//! [`Grid::run`] simulates a list of (workload, column) cells across a
//! bounded pool of shared-queue worker threads ([`map_indexed`]); the
//! caller's per-cell closure picks the front end. Everything else here
//! reads a finished grid — which mode columns an experiment needs
//! ([`columns`]), and the figures' numbers — and [`crate::report`]
//! renders them in the paper's format. Results are collected by cell
//! index, so every table is byte-identical regardless of the worker
//! count or scheduling.

use crate::config::PrefetchMode;
use crate::system::{RunResult, Skip};
use crate::telemetry::TelemetryReport;
use etpp_workloads::{all_workloads, BuiltWorkload, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` across `jobs` shared-queue worker threads and returns
/// the results in index order — the deterministic worker-pool primitive
/// [`Grid::run`] and the sweep farm shard on. `jobs <= 1` (or a single
/// item) degenerates to a serial loop on the caller's thread, so
/// `--jobs 1` output is the byte-identical reference for any other
/// worker count.
pub fn map_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("poisoned")
                .expect("worker filled slot")
        })
        .collect()
}

/// The job indices shard `k` of `n` owns out of a flat `total`-job
/// list: every `i ≡ k (mod n)`, ascending. The cross-*process* analogue
/// of [`map_indexed`]'s cross-thread partition — the sweep farm hands
/// each CI runner one shard and merges the shard outputs by index, so
/// the merged tables are byte-identical for any (jobs, shard) split.
///
/// # Panics
/// Panics when `n == 0` or `k >= n` (a typo'd `--shard` must never
/// silently run the full grid).
pub fn shard_indices(total: usize, k: usize, n: usize) -> Vec<usize> {
    assert!(n > 0, "shard count must be positive");
    assert!(k < n, "shard index {k} out of range for {n} shards");
    (k..total).step_by(n).collect()
}

/// Builds every workload at `scale` across `jobs` workers.
pub fn build_all(scale: Scale, jobs: usize) -> Vec<BuiltWorkload> {
    let workloads = all_workloads();
    // map_indexed keeps Table 2 order by construction.
    map_indexed(jobs, workloads.len(), |i| workloads[i].build(scale))
}

/// A finished grid of simulations: one result per (workload, column)
/// cell, addressed by that pair. The column type is whatever varies
/// across a row — a [`PrefetchMode`] for the figure grids, a PPU
/// (count, clock) pair for Figure 9 — and the no-prefetch baseline is a
/// column like any other. Every figure and table is a projection of
/// one of these; none of them simulates.
#[derive(Debug)]
pub struct Grid<C, T> {
    /// `(workload, column, result)` in run order; `None` = the front
    /// end skipped the cell (mode not expressible on this workload).
    pub(crate) cells: Vec<(&'static str, C, Option<T>)>,
}

/// The dense cell list of an `n`-workload grid: every column on every
/// workload, workload-major.
pub fn cross<C: Copy>(n: usize, columns: &[C]) -> Vec<(usize, C)> {
    (0..n)
        .flat_map(|wi| columns.iter().map(move |&c| (wi, c)))
        .collect()
}

impl<C: Copy + PartialEq + Sync, T: Send> Grid<C, T> {
    /// The one grid runner: calls `cell(wi, &workloads[wi], column)` once
    /// per listed cell across `jobs` [`map_indexed`] workers. The closure
    /// is the only place a front end (`run`, `run_telemetry`,
    /// `replay_run`) is named; results land by cell index, so every
    /// projection is byte-identical for any worker count.
    pub fn run<W, F>(workloads: &[W], cells: &[(usize, C)], jobs: usize, cell: F) -> Self
    where
        W: std::borrow::Borrow<BuiltWorkload> + Sync,
        F: Fn(usize, &BuiltWorkload, C) -> Result<T, Skip> + Sync,
    {
        let results = map_indexed(jobs, cells.len(), |k| {
            let (wi, column) = cells[k];
            cell(wi, workloads[wi].borrow(), column).ok()
        });
        let cells = cells
            .iter()
            .zip(results)
            .map(|(&(wi, column), r)| (workloads[wi].borrow().name, column, r))
            .collect();
        Grid { cells }
    }
}

impl<C: Copy + PartialEq, T> Grid<C, T> {
    /// The result of one cell (`None` when skipped or never listed).
    pub fn get(&self, workload: &str, column: C) -> Option<&T> {
        self.cells
            .iter()
            .find(|(w, c, _)| *w == workload && *c == column)
            .and_then(|(.., r)| r.as_ref())
    }

    /// The grid's workloads, in first-run order.
    pub fn workloads(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for &(w, ..) in &self.cells {
            if !names.contains(&w) {
                names.push(w);
            }
        }
        names
    }

    /// Every cell that ran, in run order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, C, &T)> {
        self.cells
            .iter()
            .filter_map(|(w, c, r)| Some((*w, *c, r.as_ref()?)))
    }
}

/// A cycle-core grid over prefetch modes — what `repro` runs once per
/// invocation and every paper figure reads.
pub type CycleGrid = Grid<PrefetchMode, RunResult>;

/// Anything a speedup can be read off: the cycle core's and the replay
/// front end's results alike.
pub trait Cycles {
    /// Simulated cycles to completion.
    fn cycles(&self) -> u64;
}

impl Cycles for RunResult {
    fn cycles(&self) -> u64 {
        self.cycles
    }
}

impl<T: Cycles> Grid<PrefetchMode, T> {
    /// Speedup of `mode` over the grid's own no-prefetch column (`None`
    /// when either cell is absent).
    pub fn speedup(&self, workload: &str, mode: PrefetchMode) -> Option<f64> {
        let base = self.get(workload, PrefetchMode::None)?.cycles();
        Some(base as f64 / self.get(workload, mode)?.cycles() as f64)
    }

    /// Geometric mean of `mode`'s speedups over the workloads that have
    /// one (0 when none does).
    pub fn geomean(&self, mode: PrefetchMode) -> f64 {
        let logs: Vec<f64> = self
            .workloads()
            .iter()
            .filter_map(|w| self.speedup(w, mode))
            .map(f64::ln)
            .collect();
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// The mode columns `experiment` reads from the shared cycle grid
/// (empty for the experiments that read none). `repro` runs the union
/// of the requested experiments' columns, in [`PrefetchMode::ALL`]
/// order, once.
pub fn columns(experiment: &str) -> Vec<PrefetchMode> {
    use PrefetchMode::{Blocked, Manual, None, Stride};
    match experiment {
        "fig7" => [None].into_iter().chain(PrefetchMode::FIGURE7).collect(),
        "fig8" | "fig9a" | "fig9b" | "traffic" => vec![None, Manual],
        "fig10" => vec![Manual],
        "fig11" => vec![None, Blocked, Manual],
        // Also covers the adaptive-vs-static table's IntSort/HJ-8 rows.
        "zoo" => [None, Stride]
            .into_iter()
            .chain(PrefetchMode::ZOO)
            .collect(),
        _ => Vec::new(),
    }
}

/// Whether `experiment` reads `workload`'s row of the shared grid:
/// Figure 9(b) is a G500-CSR-only sweep, everything else reads all of
/// Table 2.
pub fn reads_workload(experiment: &str, workload: &str) -> bool {
    !columns(experiment).is_empty() && (experiment != "fig9b" || workload == FIG9B_WORKLOAD)
}

/// A PPU (count, clock in Hz) configuration — Figure 9's column type.
pub type Ppus = (usize, u64);

/// Table 1's 12 PPUs at 1 GHz: `SystemConfig::with_ppus` of this *is*
/// `SystemConfig::paper()`, so Figure 9 reads this point off the shared
/// grid's Manual column instead of simulating it again.
pub const PAPER_PPUS: Ppus = (12, 1_000_000_000);

/// Figure 9(a)'s clock sweep at 12 PPUs (250 MHz – 2 GHz).
pub const FIG9A_CLOCKS: [u64; 4] = [250_000_000, 500_000_000, 1_000_000_000, 2_000_000_000];

/// The benchmark Figure 9(b) sweeps.
pub const FIG9B_WORKLOAD: &str = "G500-CSR";
/// Figure 9(b)'s PPU counts.
pub const FIG9B_COUNTS: [usize; 3] = [3, 6, 12];
/// Figure 9(b)'s clock sweep (125 MHz – 4 GHz).
pub const FIG9B_CLOCKS: [u64; 6] = [
    125_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    4_000_000_000,
];

/// The off-paper Manual-mode cells the requested Figure 9 panels need,
/// each listed once even where the panels overlap (G500-CSR at 12
/// PPUs): the cell list of the one [`Ppus`]-column grid both panels
/// read beside the shared mode grid.
pub fn fig9_cells(workloads: &[&BuiltWorkload], fig9a: bool, fig9b: bool) -> Vec<(usize, Ppus)> {
    let mut cells = Vec::new();
    let mut want = |wi, ppus| {
        if ppus != PAPER_PPUS && !cells.contains(&(wi, ppus)) {
            cells.push((wi, ppus));
        }
    };
    for (wi, w) in workloads.iter().enumerate() {
        if fig9a {
            for hz in FIG9A_CLOCKS {
                want(wi, (12, hz));
            }
        }
        if fig9b && w.name == FIG9B_WORKLOAD {
            for n in FIG9B_COUNTS {
                for hz in FIG9B_CLOCKS {
                    want(wi, (n, hz));
                }
            }
        }
    }
    cells
}

/// One Figure 9 point: Manual speedup over no prefetching at `ppus`.
pub fn fig9_speedup(
    grid: &CycleGrid,
    points: &Grid<Ppus, RunResult>,
    workload: &str,
    ppus: Ppus,
) -> Option<f64> {
    let manual = if ppus == PAPER_PPUS {
        grid.get(workload, PrefetchMode::Manual)
    } else {
        points.get(workload, ppus)
    }?;
    Some(grid.get(workload, PrefetchMode::None)?.cycles as f64 / manual.cycles as f64)
}

/// Figure 10: per-PPU activity factors (busy cycles / total cycles, by
/// unit id) of one programmable-mode run under the lowest-ID-first
/// scheduler.
pub fn ppu_activity(r: &RunResult) -> Option<Vec<f64>> {
    let pf = r.pf.as_ref()?;
    Some(
        pf.per_ppu_busy
            .iter()
            .map(|&b| b as f64 / r.cycles as f64)
            .collect(),
    )
}

/// §7.1: software-prefetch dynamic-instruction overhead.
#[derive(Debug, Clone)]
pub struct SwpfOverheadRow {
    /// Benchmark.
    pub workload: &'static str,
    /// Dynamic instructions without software prefetch.
    pub base_insts: u64,
    /// Dynamic instructions with software prefetch.
    pub sw_insts: u64,
}

impl SwpfOverheadRow {
    /// Fractional overhead (1.13 = +113%).
    pub fn overhead(&self) -> f64 {
        self.sw_insts as f64 / self.base_insts.max(1) as f64 - 1.0
    }
}

/// §7.1: dynamic instruction increase from software prefetching.
pub fn swpf_overhead(workloads: &[BuiltWorkload]) -> Vec<SwpfOverheadRow> {
    workloads
        .iter()
        .filter_map(|w| {
            let sw = w.sw_trace()?;
            Some(SwpfOverheadRow {
                workload: w.name,
                base_insts: w.trace.class_counts().total(),
                sw_insts: sw.class_counts().total(),
            })
        })
        .collect()
}

/// A telemetry grid: each cell is the (telemetry-transparent) run
/// result plus everything the observability stack collected during it.
pub type TelemetryGrid = Grid<PrefetchMode, (RunResult, TelemetryReport)>;

/// Phase-sample interval per scale, sized so a run yields tens of
/// samples rather than thousands (the series is meant for eyeballing
/// phases, not cycle-accurate archaeology).
pub fn sample_interval(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 10_000,
        Scale::Small => 100_000,
        Scale::Paper => 2_000_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::faults::{run_isolated, run_isolated_budgeted, Attempts, FailureClass, RetryPolicy};
    use crate::report::{adaptive_table, grid_table};
    use crate::system::{run, run_telemetry};
    use crate::telemetry::TelemetrySpec;
    use etpp_workloads::workload_by_name;
    use std::sync::OnceLock;
    use std::time::Duration;

    fn tiny_pair() -> Vec<BuiltWorkload> {
        ["HJ-8", "IntSort"]
            .map(|name| workload_by_name(name).unwrap().build(Scale::Tiny))
            .into()
    }

    fn cycle_grid(workloads: &[BuiltWorkload], modes: &[PrefetchMode], jobs: usize) -> CycleGrid {
        let cfg = SystemConfig::paper();
        Grid::run(
            workloads,
            &cross(workloads.len(), modes),
            jobs,
            |_, w, m| run(&cfg, m, w),
        )
    }

    /// Every experiment whose table is a pure projection of the shared
    /// cycle grid.
    const PROJECTIONS: [&str; 6] = ["fig7", "fig8", "fig10", "fig11", "traffic", "zoo"];

    /// The union grid `repro all` runs over HJ-8 + IntSort, serially —
    /// built once and shared by every test that only reads it.
    fn union_grid() -> &'static CycleGrid {
        static GRID: OnceLock<CycleGrid> = OnceLock::new();
        GRID.get_or_init(|| cycle_grid(&tiny_pair(), &PrefetchMode::ALL, 1))
    }

    #[test]
    fn fig7_tiny_grid_shapes_hold() {
        let grid = union_grid();
        // Manual must win on HJ-8 and beat stride everywhere.
        let hj8_manual = grid.speedup("HJ-8", PrefetchMode::Manual).unwrap();
        let hj8_stride = grid.speedup("HJ-8", PrefetchMode::Stride).unwrap();
        assert!(hj8_manual > 1.5, "HJ-8 manual {hj8_manual}");
        assert!(hj8_manual > hj8_stride);
        let gm = grid.geomean(PrefetchMode::Manual);
        assert!(gm > 1.2, "manual geomean {gm}");
    }

    #[test]
    fn fig10_lowest_id_scheduling_skews_work() {
        let manual = union_grid().get("IntSort", PrefetchMode::Manual).unwrap();
        let a = ppu_activity(manual).unwrap();
        assert_eq!(a.len(), 12);
        assert!(
            a[0] >= a[11],
            "PPU 0 must work at least as much as PPU 11: {a:?}"
        );
    }

    #[test]
    fn every_table_is_the_same_projection_of_the_union_grid_and_of_its_own() {
        // `repro` simulates the union of the requested experiments'
        // columns once; each table must read exactly what it would have
        // read from a grid of only its own columns. The union grid ran
        // serially and the minimal grids run on four workers, so equal
        // tables pin worker-count independence too.
        fn adaptive_rows(g: &CycleGrid) -> [(&CycleGrid, &str); 2] {
            [(g, "IntSort"), (g, "HJ-8")]
        }
        let (workloads, union) = (tiny_pair(), union_grid());
        for experiment in PROJECTIONS {
            let own = cycle_grid(&workloads, &columns(experiment), 4);
            assert_eq!(
                grid_table(experiment, union),
                grid_table(experiment, &own),
                "{experiment}: union-grid and own-grid tables must be byte-identical"
            );
            if experiment == "zoo" {
                assert_eq!(
                    adaptive_table(&adaptive_rows(union)),
                    adaptive_table(&adaptive_rows(&own)),
                    "the adaptive table's Table 2 rows read the zoo columns"
                );
            }
        }
    }

    #[test]
    fn union_columns_cover_every_mode_and_fig9_points_are_listed_once() {
        let all: Vec<PrefetchMode> = PrefetchMode::ALL
            .into_iter()
            .filter(|m| PROJECTIONS.iter().any(|e| columns(e).contains(m)))
            .collect();
        assert_eq!(all, PrefetchMode::ALL, "`repro all` runs every mode once");

        // Figure 9: 8 × 3 off-paper clocks, plus G500-CSR's 18-point
        // panel minus the paper point and the three it shares with 9(a).
        let built = build_all(Scale::Tiny, 2);
        let refs: Vec<&BuiltWorkload> = built.iter().collect();
        assert_eq!(fig9_cells(&refs, true, false).len(), 24);
        assert_eq!(fig9_cells(&refs, false, true).len(), 17);
        let both = fig9_cells(&refs, true, true);
        assert_eq!(both.len(), 38);
        assert!(!both.iter().any(|&(_, ppus)| ppus == PAPER_PPUS));
    }

    #[test]
    fn sharded_grid_is_byte_identical_across_worker_counts() {
        // Telemetry snapshots merged across shards must be just as
        // worker-count-proof as the tables above: merge each cell's
        // registry in run order and compare the rendered JSON
        // byte-for-byte.
        let workloads = tiny_pair();
        let cfg = SystemConfig::paper();
        let modes = [PrefetchMode::Stride, PrefetchMode::Manual];
        let spec = TelemetrySpec::counters_only(10_000);
        let merged_json = |jobs: usize| {
            let grid: TelemetryGrid = Grid::run(&workloads, &cross(2, &modes), jobs, |_, w, m| {
                run_telemetry(&cfg, m, w, &spec)
            });
            assert_eq!(grid.iter().count(), workloads.len() * modes.len());
            let mut merged = etpp_telemetry::Registry::new();
            for (.., (_, report)) in grid.iter() {
                merged.merge(&report.registry);
            }
            merged.to_json()
        };
        assert_eq!(
            merged_json(1),
            merged_json(4),
            "merged telemetry registries must be byte-identical for any worker count"
        );
    }

    #[test]
    fn shard_indices_partition_exactly() {
        // Every index lands in exactly one shard, ascending per shard.
        for n in 1..=5usize {
            let mut seen = vec![0u32; 17];
            for k in 0..n {
                let idx = shard_indices(17, k, n);
                assert!(idx.windows(2).all(|w| w[0] < w[1]));
                for i in idx {
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "n={n}: {seen:?}");
        }
        assert_eq!(shard_indices(0, 0, 4), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_out_of_range_panics() {
        shard_indices(10, 4, 4);
    }

    #[test]
    fn map_indexed_preserves_index_order() {
        let out = map_indexed(8, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(map_indexed(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn isolated_pool_quarantines_only_the_panicking_jobs() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        // Job 5 fails permanently, job 7 recovers on its second attempt.
        let out = map_indexed(4, 10, |i| {
            run_isolated(&policy, i, &attempts, |attempt| {
                if i == 5 {
                    panic!("permanent failure in job {i}");
                }
                if i == 7 && attempt == 0 {
                    panic!("transient failure in job {i}");
                }
                i * 2
            })
        });
        for (i, slot) in out.iter().enumerate() {
            match slot {
                Ok(v) => assert_eq!((*v, i != 5), (i * 2, true)),
                Err(f) => {
                    assert_eq!((i, f.index, f.attempts), (5, 5, 3));
                    assert!(f.error.contains("permanent"), "{}", f.error);
                }
            }
        }
        // 2 wasted attempts on job 5 + 1 on job 7.
        assert_eq!(attempts.retries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn budgeted_pool_times_out_only_the_overrunning_job() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let attempts = Attempts::default();
        let budget = Some(Duration::from_millis(15));
        let out = map_indexed(2, 4, |i| {
            run_isolated_budgeted(&policy, i, &attempts, budget, |attempt, deadline| {
                let deadline = deadline.expect("budget arms every job");
                if i == 2 {
                    // A hung job: spin until the deadline expires.
                    loop {
                        std::thread::sleep(Duration::from_millis(1));
                        deadline.check(u64::from(attempt));
                    }
                }
                i
            })
        });
        for (i, slot) in out.iter().enumerate() {
            match slot {
                Ok(v) => assert_eq!((*v, i != 2), (i, true)),
                Err(fail) => {
                    assert_eq!(i, 2);
                    assert_eq!(fail.class, FailureClass::Timeout);
                    assert_eq!(
                        fail.attempts, 2,
                        "timeouts retry once at the escalated budget"
                    );
                }
            }
        }
        assert_eq!(attempts.retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn swpf_overhead_reports_expected_benchmarks() {
        let workloads = vec![
            etpp_workloads::workload_by_name("IntSort")
                .unwrap()
                .build(Scale::Tiny),
            etpp_workloads::workload_by_name("PageRank")
                .unwrap()
                .build(Scale::Tiny),
        ];
        let rows = swpf_overhead(&workloads);
        assert_eq!(rows.len(), 1, "PageRank has no software variant");
        assert!(rows[0].overhead() > 0.3);
    }
}
