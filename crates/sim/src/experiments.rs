//! Experiment drivers: one function per figure/table of the paper.
//!
//! Each driver builds (or reuses) the workloads at a given scale, runs the
//! required (workload, mode, configuration) grid across a bounded pool of
//! shared-queue worker threads ([`map_indexed`] — the same job model as
//! the replay runner in [`crate::replay`]), and returns structured rows
//! that [`crate::report`] renders in the paper's format. Results are
//! collected by job index, so every table is byte-identical regardless
//! of the worker count or scheduling.

use crate::config::{PrefetchMode, SystemConfig};
use crate::system::{run, run_telemetry, RunResult, Skip};
use crate::telemetry::{TelemetryReport, TelemetrySpec};
use etpp_workloads::{all_workloads, BuiltWorkload, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` across `jobs` shared-queue worker threads and returns
/// the results in index order — the deterministic worker-pool primitive
/// every cycle-path grid here shards on (lifted from the replay
/// runner's job model). `jobs <= 1` (or a single item) degenerates to a
/// serial loop on the caller's thread, so `--jobs 1` output is the
/// byte-identical reference for any other worker count.
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

/// A (workload × mode) speedup cell for Figure 7 / 11-style tables.
#[derive(Debug, Clone)]
pub struct SpeedupCell {
    /// Benchmark name.
    pub workload: &'static str,
    /// Prefetching scheme.
    pub mode: PrefetchMode,
    /// Speedup over the no-prefetch baseline (None = not expressible).
    pub speedup: Option<f64>,
    /// Full result for detail reporting.
    pub result: Option<RunResult>,
}

/// Builds every workload at `scale` across `jobs` workers.
pub fn build_all(scale: Scale, jobs: usize) -> Vec<BuiltWorkload> {
    let workloads = all_workloads();
    // map_indexed keeps Table 2 order by construction.
    map_indexed(jobs, workloads.len(), |i| workloads[i].build(scale))
}

fn run_grid(
    cfg: &SystemConfig,
    workloads: &[BuiltWorkload],
    modes: &[PrefetchMode],
    jobs: usize,
) -> Vec<SpeedupCell> {
    // Baselines first (one per workload), then the full grid, both
    // sharded across the worker pool.
    let baselines: Vec<u64> = map_indexed(jobs, workloads.len(), |i| {
        run(cfg, PrefetchMode::None, &workloads[i])
            .expect("baseline")
            .cycles
    });

    map_indexed(jobs, workloads.len() * modes.len(), |k| {
        let w = &workloads[k / modes.len()];
        let mode = modes[k % modes.len()];
        match run(cfg, mode, w) {
            Ok(r) => SpeedupCell {
                workload: w.name,
                mode,
                speedup: Some(baselines[k / modes.len()] as f64 / r.cycles as f64),
                result: Some(r),
            },
            Err(Skip::NotExpressible(_)) | Err(Skip::NoProgram(_)) => SpeedupCell {
                workload: w.name,
                mode,
                speedup: None,
                result: None,
            },
        }
    })
}

/// Figure 7: speedups for every scheme on every benchmark.
pub fn fig7(cfg: &SystemConfig, workloads: &[BuiltWorkload], jobs: usize) -> Vec<SpeedupCell> {
    run_grid(cfg, workloads, &PrefetchMode::FIGURE7, jobs)
}

/// Engine-zoo grid: the zoo additions beside the classic stride
/// baseline they cross-check, on any workload set (the repro driver
/// feeds it the Table 2 benchmarks plus the synthetic TwoPhase).
pub fn zoo(cfg: &SystemConfig, workloads: &[BuiltWorkload], jobs: usize) -> Vec<SpeedupCell> {
    let mut modes = vec![PrefetchMode::Stride];
    modes.extend(PrefetchMode::ZOO);
    run_grid(cfg, workloads, &modes, jobs)
}

/// The static configurations the adaptive meta-engine chooses between
/// (plus the no-prefetch baseline), for the adaptive-vs-static table.
pub const ADAPTIVE_STATICS: [PrefetchMode; 3] = [
    PrefetchMode::None,
    PrefetchMode::Stride,
    PrefetchMode::PcDelta,
];

/// One row of the adaptive-vs-static table: the meta-engine's cycles
/// next to every static config, plus its decision log.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Benchmark.
    pub workload: &'static str,
    /// Cycles under [`PrefetchMode::Adaptive`].
    pub adaptive_cycles: u64,
    /// Cycles under each of [`ADAPTIVE_STATICS`], in that order.
    pub statics: Vec<(PrefetchMode, u64)>,
    /// The meta-engine's decision log for this run.
    pub summary: crate::adaptive::AdaptiveSummary,
}

/// Runs every workload under the adaptive engine and each static
/// config, one pool job per (workload, mode) cell.
pub fn adaptive_grid(
    cfg: &SystemConfig,
    workloads: &[&BuiltWorkload],
    jobs: usize,
) -> Vec<AdaptiveRow> {
    let modes: Vec<PrefetchMode> = ADAPTIVE_STATICS
        .into_iter()
        .chain([PrefetchMode::Adaptive])
        .collect();
    let results = map_indexed(jobs, workloads.len() * modes.len(), |k| {
        let w = workloads[k / modes.len()];
        run(cfg, modes[k % modes.len()], w).expect("adaptive grid modes never skip")
    });
    workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let base = wi * modes.len();
            let adaptive = &results[base + modes.len() - 1];
            AdaptiveRow {
                workload: w.name,
                adaptive_cycles: adaptive.cycles,
                statics: ADAPTIVE_STATICS
                    .iter()
                    .enumerate()
                    .map(|(mi, &m)| (m, results[base + mi].cycles))
                    .collect(),
                summary: adaptive
                    .adaptive
                    .clone()
                    .expect("adaptive mode populates its summary"),
            }
        })
        .collect()
}

/// One Figure 8 row: utilisation and hit rates for the Manual configuration.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark.
    pub workload: &'static str,
    /// Fraction of prefetched L1 lines used before eviction (Fig. 8a).
    pub l1_utilisation: f64,
    /// L1 read hit rate without prefetching.
    pub l1_hit_nopf: f64,
    /// L1 read hit rate with the programmable prefetcher.
    pub l1_hit_pf: f64,
    /// L2 read hit rate without prefetching (G500-List annotation).
    pub l2_hit_nopf: f64,
    /// L2 read hit rate with the prefetcher.
    pub l2_hit_pf: f64,
    /// Demand misses that merged into an in-flight prefetch — the
    /// "late prefetch" count behind the telemetry lifecycle's `late`
    /// class, surfaced next to utilisation so timeliness appears in the
    /// same table as accuracy.
    pub late_pf_merges: u64,
}

/// Figure 8: L1 prefetch utilisation and read hit rates.
pub fn fig8(cfg: &SystemConfig, workloads: &[BuiltWorkload], jobs: usize) -> Vec<Fig8Row> {
    map_indexed(jobs, workloads.len(), |i| {
        let w = &workloads[i];
        let base = run(cfg, PrefetchMode::None, w).expect("baseline");
        let pf = run(cfg, PrefetchMode::Manual, w).ok()?;
        Some(Fig8Row {
            workload: w.name,
            l1_utilisation: pf.mem.l1.prefetch_utilisation(),
            l1_hit_nopf: base.mem.l1.read_hit_rate(),
            l1_hit_pf: pf.mem.l1.read_hit_rate(),
            l2_hit_nopf: base.mem.l2.read_hit_rate(),
            l2_hit_pf: pf.mem.l2.read_hit_rate(),
            late_pf_merges: pf.mem.l1.late_prefetch_merges,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One Figure 9(a) series: speedup vs PPU clock for a benchmark.
#[derive(Debug, Clone)]
pub struct Fig9aRow {
    /// Benchmark.
    pub workload: &'static str,
    /// (clock in Hz, speedup) pairs.
    pub points: Vec<(u64, f64)>,
}

/// Figure 9(a): PPU clock sweep at 12 PPUs (250 MHz – 2 GHz).
pub fn fig9a(workloads: &[BuiltWorkload], jobs: usize) -> Vec<Fig9aRow> {
    let clocks = [250_000_000u64, 500_000_000, 1_000_000_000, 2_000_000_000];
    // One job per (workload, clock) point plus one per baseline, so the
    // sweep saturates the pool even with a single benchmark.
    let baselines: Vec<u64> = map_indexed(jobs, workloads.len(), |i| {
        run(&SystemConfig::paper(), PrefetchMode::None, &workloads[i])
            .expect("baseline")
            .cycles
    });
    let points = map_indexed(jobs, workloads.len() * clocks.len(), |k| {
        let (wi, ci) = (k / clocks.len(), k % clocks.len());
        let cfg = SystemConfig::with_ppus(12, clocks[ci]);
        run(&cfg, PrefetchMode::Manual, &workloads[wi])
            .ok()
            .map(|r| (clocks[ci], baselines[wi] as f64 / r.cycles as f64))
    });
    workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| Fig9aRow {
            workload: w.name,
            points: points[wi * clocks.len()..(wi + 1) * clocks.len()]
                .iter()
                .flatten()
                .copied()
                .collect(),
        })
        .collect()
}

/// Figure 9(b): PPU-count × clock sweep on G500-CSR.
pub fn fig9b(g500csr: &BuiltWorkload, jobs: usize) -> Vec<(usize, Vec<(u64, f64)>)> {
    let clocks = [
        125_000_000u64,
        250_000_000,
        500_000_000,
        1_000_000_000,
        2_000_000_000,
        4_000_000_000,
    ];
    let counts = [3usize, 6, 12];
    let base = run(&SystemConfig::paper(), PrefetchMode::None, g500csr)
        .expect("baseline")
        .cycles;
    // Shard the full (count × clock) grid, one job per point.
    let points = map_indexed(jobs, counts.len() * clocks.len(), |k| {
        let (ni, ci) = (k / clocks.len(), k % clocks.len());
        let cfg = SystemConfig::with_ppus(counts[ni], clocks[ci]);
        run(&cfg, PrefetchMode::Manual, g500csr)
            .ok()
            .map(|r| (clocks[ci], base as f64 / r.cycles as f64))
    });
    counts
        .iter()
        .enumerate()
        .map(|(ni, &n)| {
            (
                n,
                points[ni * clocks.len()..(ni + 1) * clocks.len()]
                    .iter()
                    .flatten()
                    .copied()
                    .collect(),
            )
        })
        .collect()
}

/// Figure 10: per-PPU activity factors under the lowest-ID-first scheduler.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark.
    pub workload: &'static str,
    /// Activity factor (busy cycles / total cycles) per PPU, by unit id.
    pub activity: Vec<f64>,
}

/// Figure 10: PPU activity distribution at 12 PPUs / 1 GHz.
pub fn fig10(cfg: &SystemConfig, workloads: &[BuiltWorkload], jobs: usize) -> Vec<Fig10Row> {
    map_indexed(jobs, workloads.len(), |i| {
        let w = &workloads[i];
        let r = run(cfg, PrefetchMode::Manual, w).ok()?;
        let pf = r.pf?;
        Some(Fig10Row {
            workload: w.name,
            activity: pf
                .per_ppu_busy
                .iter()
                .map(|&b| b as f64 / r.cycles as f64)
                .collect(),
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Figure 11: event-triggered vs blocked-on-intermediate-loads.
pub fn fig11(cfg: &SystemConfig, workloads: &[BuiltWorkload], jobs: usize) -> Vec<SpeedupCell> {
    run_grid(
        cfg,
        workloads,
        &[PrefetchMode::Blocked, PrefetchMode::Manual],
        jobs,
    )
}

/// §7.2 "extra memory accesses": DRAM traffic with/without the prefetcher.
#[derive(Debug, Clone)]
pub struct TrafficRow {
    /// Benchmark.
    pub workload: &'static str,
    /// DRAM accesses without prefetching.
    pub base_accesses: u64,
    /// DRAM accesses with the Manual prefetcher.
    pub pf_accesses: u64,
}

impl TrafficRow {
    /// Fractional extra accesses (0.16 = +16%).
    pub fn extra(&self) -> f64 {
        self.pf_accesses as f64 / self.base_accesses.max(1) as f64 - 1.0
    }
}

/// §7.2: extra memory traffic from prefetching.
pub fn extra_traffic(
    cfg: &SystemConfig,
    workloads: &[BuiltWorkload],
    jobs: usize,
) -> Vec<TrafficRow> {
    map_indexed(jobs, workloads.len(), |i| {
        let w = &workloads[i];
        let base = run(cfg, PrefetchMode::None, w).expect("baseline");
        let pf = run(cfg, PrefetchMode::Manual, w).ok()?;
        Some(TrafficRow {
            workload: w.name,
            base_accesses: base.mem.dram.total_accesses(),
            pf_accesses: pf.mem.dram.total_accesses(),
        })
    })
    .into_iter()
    .flatten()
    .collect()
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
            let sw = w.sw_trace.as_ref()?;
            Some(SwpfOverheadRow {
                workload: w.name,
                base_insts: w.trace.class_counts().total(),
                sw_insts: sw.class_counts().total(),
            })
        })
        .collect()
}

/// One telemetry-enabled (workload × mode) cell: the run result plus
/// everything the observability stack collected during it.
#[derive(Debug)]
pub struct TelemetryCell {
    /// Benchmark.
    pub workload: &'static str,
    /// Prefetching scheme.
    pub mode: PrefetchMode,
    /// The (telemetry-transparent) run result.
    pub result: RunResult,
    /// Counters, histograms, lifecycle classes, phase series, spans.
    pub report: TelemetryReport,
}

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

/// Runs the telemetry grid: every (workload × mode) cell with full
/// collection per `spec`, sharded across `jobs` workers. Inexpressible
/// cells are skipped, as in the figure grids. Cell registries are
/// returned in index order, so any cross-cell merge (`Registry::merge`)
/// is byte-identical for every worker count.
pub fn telemetry_grid(
    cfg: &SystemConfig,
    workloads: &[&BuiltWorkload],
    modes: &[PrefetchMode],
    spec: &TelemetrySpec,
    jobs: usize,
) -> Vec<TelemetryCell> {
    map_indexed(jobs, workloads.len() * modes.len(), |k| {
        let w = workloads[k / modes.len()];
        let mode = modes[k % modes.len()];
        run_telemetry(cfg, mode, w, spec)
            .ok()
            .map(|(result, report)| TelemetryCell {
                workload: w.name,
                mode,
                result,
                report,
            })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Geometric mean of the speedups for one mode.
pub fn geomean(cells: &[SpeedupCell], mode: PrefetchMode) -> f64 {
    let vals: Vec<f64> = cells
        .iter()
        .filter(|c| c.mode == mode)
        .filter_map(|c| c.speedup)
        .collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{run_isolated, run_isolated_budgeted, FailureClass, RetryPolicy};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn fig7_tiny_grid_shapes_hold() {
        let workloads: Vec<BuiltWorkload> = [
            etpp_workloads::workload_by_name("HJ-8").unwrap(),
            etpp_workloads::workload_by_name("IntSort").unwrap(),
        ]
        .into_iter()
        .map(|w| w.build(Scale::Tiny))
        .collect();
        let cfg = SystemConfig::paper();
        let cells = fig7(&cfg, &workloads, 2);
        // Manual must win on HJ-8 and beat stride everywhere.
        let get = |wl: &str, m: PrefetchMode| {
            cells
                .iter()
                .find(|c| c.workload == wl && c.mode == m)
                .and_then(|c| c.speedup)
        };
        let hj8_manual = get("HJ-8", PrefetchMode::Manual).unwrap();
        let hj8_stride = get("HJ-8", PrefetchMode::Stride).unwrap();
        assert!(hj8_manual > 1.5, "HJ-8 manual {hj8_manual}");
        assert!(hj8_manual > hj8_stride);
        let gm = geomean(&cells, PrefetchMode::Manual);
        assert!(gm > 1.2, "manual geomean {gm}");
    }

    #[test]
    fn fig10_lowest_id_scheduling_skews_work() {
        let w = etpp_workloads::workload_by_name("IntSort")
            .unwrap()
            .build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let rows = fig10(&cfg, std::slice::from_ref(&w), 2);
        let a = &rows[0].activity;
        assert_eq!(a.len(), 12);
        assert!(
            a[0] >= a[11],
            "PPU 0 must work at least as much as PPU 11: {a:?}"
        );
    }

    #[test]
    fn sharded_grid_is_byte_identical_across_worker_counts() {
        let workloads: Vec<BuiltWorkload> = [
            etpp_workloads::workload_by_name("HJ-8").unwrap(),
            etpp_workloads::workload_by_name("IntSort").unwrap(),
        ]
        .into_iter()
        .map(|w| w.build(Scale::Tiny))
        .collect();
        let cfg = SystemConfig::paper();
        let modes = [PrefetchMode::Stride, PrefetchMode::Manual];
        let serial = crate::report::speedup_table("t", &fig7(&cfg, &workloads, 1), &modes);
        let sharded = crate::report::speedup_table("t", &fig7(&cfg, &workloads, 4), &modes);
        assert_eq!(
            serial, sharded,
            "worker count must never change rendered tables"
        );

        // Telemetry snapshots merged across shards must be just as
        // worker-count-proof: merge each cell's registry in index order
        // and compare the rendered JSON byte-for-byte.
        let spec = TelemetrySpec::counters_only(10_000);
        let refs: Vec<&BuiltWorkload> = workloads.iter().collect();
        let merged_json = |jobs: usize| {
            let cells = telemetry_grid(&cfg, &refs, &modes, &spec, jobs);
            assert_eq!(cells.len(), refs.len() * modes.len());
            let mut merged = etpp_telemetry::Registry::new();
            for c in &cells {
                merged.merge(&c.report.registry);
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
        let retries = AtomicU64::new(0);
        // Job 5 fails permanently, job 7 recovers on its second attempt.
        let out = map_indexed(4, 10, |i| {
            run_isolated(&policy, i, &retries, |attempt| {
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
        assert_eq!(retries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn budgeted_pool_times_out_only_the_overrunning_job() {
        let policy = RetryPolicy {
            backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let retries = AtomicU64::new(0);
        let budget = Some(Duration::from_millis(15));
        let out = map_indexed(2, 4, |i| {
            run_isolated_budgeted(&policy, i, &retries, budget, |attempt, token| {
                let token = token.expect("budget arms every job");
                if i == 2 {
                    // A hung job: spin until the deadline cancels it.
                    loop {
                        std::thread::sleep(Duration::from_millis(1));
                        token.check(u64::from(attempt));
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
        assert_eq!(retries.load(Ordering::Relaxed), 1);
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
