//! Plain-text rendering of experiment results in the paper's layout:
//! every table here reads a finished [`Grid`] and simulates nothing.

use crate::config::PrefetchMode;
use crate::experiments::{
    self as ex, CycleGrid, Cycles, Grid, Ppus, SwpfOverheadRow, TelemetryGrid,
};
use crate::system::RunResult;

/// Renders the table of an experiment that is a pure projection of the
/// shared cycle grid (`fig7`, `fig8`, `fig10`, `fig11`, `traffic`, and
/// `zoo`'s speedup half).
///
/// # Panics
/// Panics on any other experiment name.
pub fn grid_table(experiment: &str, grid: &CycleGrid) -> String {
    match experiment {
        "fig7" => speedup_table(
            "Figure 7: speedup over no prefetching",
            grid,
            &PrefetchMode::FIGURE7,
        ),
        "fig8" => fig8_table(grid),
        "fig10" => fig10_table(grid),
        "fig11" => speedup_table(
            "Figure 11: blocked vs event-triggered",
            grid,
            &[PrefetchMode::Blocked, PrefetchMode::Manual],
        ),
        "traffic" => traffic_table(grid),
        "zoo" => speedup_table(
            "Engine zoo: speedup over no prefetching",
            grid,
            &ex::columns("zoo")[1..],
        ),
        other => panic!("{other} is not a projection of the cycle grid"),
    }
}

/// Renders a Figure 7 / Figure 11 style speedup table: one row per
/// grid workload, one column per entry of `modes`, each cell the
/// speedup over the grid's no-prefetch column.
pub fn speedup_table<T: Cycles>(
    title: &str,
    grid: &Grid<PrefetchMode, T>,
    modes: &[PrefetchMode],
) -> String {
    let mut out = format!("## {title}\n\n| Benchmark |");
    for m in modes {
        out += &format!(" {} |", m.label());
    }
    out += "\n|---|";
    for _ in modes {
        out += "---|";
    }
    out += "\n";
    for w in grid.workloads() {
        out += &format!("| {w} |");
        for &m in modes {
            match grid.speedup(w, m) {
                Some(v) => out += &format!(" {v:5.2} |"),
                None => out += "     - |",
            }
        }
        out += "\n";
    }
    out += "| **geomean** |";
    for &m in modes {
        out += &format!(" {:5.2} |", grid.geomean(m));
    }
    out += "\n";
    out
}

/// The (No-PF, Manual) result pair of every workload that has a Manual
/// program — the rows of Figure 8 and the §7.2 traffic table.
fn manual_pairs(grid: &CycleGrid) -> impl Iterator<Item = (&'static str, &RunResult, &RunResult)> {
    grid.workloads().into_iter().filter_map(|w| {
        let base = grid.get(w, PrefetchMode::None)?;
        Some((w, base, grid.get(w, PrefetchMode::Manual)?))
    })
}

/// Renders Figure 8's two panels: L1 prefetch utilisation (8a) and the
/// L1/L2 read hit rates with and without the Manual prefetcher (8b),
/// with the late-prefetch merge count beside them so timeliness appears
/// in the same table as accuracy.
pub fn fig8_table(grid: &CycleGrid) -> String {
    let mut out = String::from(
        "## Figure 8: prefetch utilisation and hit rates (Manual)\n\n\
         | Benchmark | L1 PF utilisation | L1 hit (no PF) | L1 hit (PF) | L2 hit (no PF) | L2 hit (PF) | Late PF merges |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for (w, base, pf) in manual_pairs(grid) {
        out += &format!(
            "| {w} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {} |\n",
            pf.mem.l1.prefetch_utilisation(),
            base.mem.l1.read_hit_rate(),
            pf.mem.l1.read_hit_rate(),
            base.mem.l2.read_hit_rate(),
            pf.mem.l2.read_hit_rate(),
            pf.mem.l1.late_prefetch_merges
        );
    }
    out
}

/// Renders the prefetch lifecycle classification per (workload, engine):
/// what fraction of classified prefetches were accurate, late,
/// early-evicted or useless (see `etpp_mem::LifecycleCounts`).
pub fn lifecycle_table(grid: &TelemetryGrid) -> String {
    let mut out = String::from(
        "## Prefetch lifecycle (telemetry)\n\n\
         Percentages are of *classified* prefetches (reached a terminal class);\n\
         `issued` also counts dropped/redundant/demand-merged requests and\n\
         prefetches still in flight or resident-unused at run end.\n\n\
         | Benchmark | Engine | Issued | Accurate | Late | Early-evicted | Useless | Late PF merges |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for (workload, mode, (result, report)) in grid.iter() {
        let l = &report.lifecycle;
        out += &format!(
            "| {} | {} | {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {} |\n",
            workload,
            mode.label(),
            l.issued,
            l.pct(l.accurate),
            l.pct(l.late),
            l.pct(l.early_evicted),
            l.pct(l.useless),
            result.mem.l1.late_prefetch_merges,
        );
    }
    out
}

/// Renders a summary of each cell's phase time-series and span log: how
/// much the sampler and the trace exporter actually captured, plus the
/// end-of-run load-latency distribution as a quick-look.
pub fn phase_summary_table(grid: &TelemetryGrid) -> String {
    let mut out = String::from(
        "## Phase timelines and trace spans (telemetry)\n\n\
         | Benchmark | Engine | Cycles | Samples | Interval | Load-lat p50 | Load-lat p99 | Spans | Dropped |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for (workload, mode, (result, report)) in grid.iter() {
        let lat = report.registry.hist("mem.load_latency");
        let (p50, p99) = lat.map_or((0, 0), |h| (h.quantile(0.5), h.quantile(0.99)));
        out += &format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            workload,
            mode.label(),
            result.cycles,
            report.phases.samples.len(),
            report.phases.interval,
            p50,
            p99,
            report.spans.len(),
            report.spans_dropped,
        );
    }
    out
}

/// A Figure 9 header: `lead` then one column per clock.
fn clock_header(title: &str, lead: &str, clocks: &[u64]) -> String {
    let mut out = format!("## {title}\n\n| {lead} |");
    for &hz in clocks {
        out += &format!(" {} |", clock_label(hz));
    }
    out += "\n|---|";
    for _ in clocks {
        out += "---|";
    }
    out + "\n"
}

/// Renders Figure 9(a): Manual speedup vs PPU clock at 12 PPUs, the
/// 1 GHz point and the baselines read off `grid`, the rest off `points`.
pub fn fig9a_table(grid: &CycleGrid, points: &Grid<Ppus, RunResult>) -> String {
    let mut out = clock_header(
        "Figure 9a: speedup vs PPU clock (12 PPUs)",
        "Benchmark",
        &ex::FIG9A_CLOCKS,
    );
    for w in grid.workloads() {
        out += &format!("| {w} |");
        for hz in ex::FIG9A_CLOCKS {
            if let Some(s) = ex::fig9_speedup(grid, points, w, (12, hz)) {
                out += &format!(" {s:5.2} |");
            }
        }
        out += "\n";
    }
    out
}

/// Renders Figure 9(b)'s PPU count × clock sweep on G500-CSR.
pub fn fig9b_table(grid: &CycleGrid, points: &Grid<Ppus, RunResult>) -> String {
    let mut out = clock_header(
        "Figure 9b: G500-CSR, PPU count x clock",
        "PPUs",
        &ex::FIG9B_CLOCKS,
    );
    for n in ex::FIG9B_COUNTS {
        out += &format!("| {n} |");
        for hz in ex::FIG9B_CLOCKS {
            if let Some(s) = ex::fig9_speedup(grid, points, ex::FIG9B_WORKLOAD, (n, hz)) {
                out += &format!(" {s:5.2} |");
            }
        }
        out += "\n";
    }
    out
}

/// Renders Figure 10: the distribution (min/quartiles/median/max) of
/// per-PPU activity factors in each workload's Manual run at 12 PPUs /
/// 1 GHz.
pub fn fig10_table(grid: &CycleGrid) -> String {
    let mut out = String::from(
        "## Figure 10: PPU activity factors (12 PPUs @ 1GHz, lowest-ID-first)\n\n\
         | Benchmark | min | q1 | median | q3 | max | idle PPUs |\n|---|---|---|---|---|---|---|\n",
    );
    for w in grid.workloads() {
        let Some(mut sorted) = grid.get(w, PrefetchMode::Manual).and_then(ex::ppu_activity) else {
            continue;
        };
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        let idle = sorted.iter().filter(|&&a| a == 0.0).count();
        out += &format!(
            "| {w} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {idle} |\n",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
        );
    }
    out
}

/// Renders the §7.2 extra-traffic table: DRAM accesses with and without
/// the Manual prefetcher.
pub fn traffic_table(grid: &CycleGrid) -> String {
    let mut out = String::from(
        "## Extra memory accesses (Manual vs no-PF, section 7.2)\n\n\
         | Benchmark | DRAM accesses (no PF) | DRAM accesses (PF) | extra |\n|---|---|---|---|\n",
    );
    for (w, base, pf) in manual_pairs(grid) {
        let (base, pf) = (base.mem.dram.total_accesses(), pf.mem.dram.total_accesses());
        out += &format!(
            "| {w} | {base} | {pf} | {:+.1}% |\n",
            100.0 * (pf as f64 / base.max(1) as f64 - 1.0)
        );
    }
    out
}

/// Renders the §7.1 software-prefetch overhead table.
pub fn swpf_table(rows: &[SwpfOverheadRow]) -> String {
    let mut out = String::from(
        "## Software prefetch dynamic instruction overhead (section 7.1)\n\n\
         | Benchmark | plain insts | swpf insts | overhead |\n|---|---|---|---|\n",
    );
    for r in rows {
        out += &format!(
            "| {} | {} | {} | {:+.0}% |\n",
            r.workload,
            r.base_insts,
            r.sw_insts,
            100.0 * r.overhead()
        );
    }
    out
}

/// The static configurations the adaptive meta-engine chooses between
/// (plus the no-prefetch baseline), for the adaptive-vs-static table.
pub const ADAPTIVE_STATICS: [PrefetchMode; 3] = [
    PrefetchMode::None,
    PrefetchMode::Stride,
    PrefetchMode::PcDelta,
];

/// Renders the adaptive-vs-static table: for each `(grid, workload)`
/// row, the meta-engine's cycles next to every static configuration it
/// chooses between, plus its decision log (switch count, switch cycles,
/// final engine). Rows may come from different grids (the synthetic
/// TwoPhase workload has its own).
///
/// # Panics
/// Panics when a row lacks one of the four cells — none of these modes
/// ever skips.
pub fn adaptive_table(rows: &[(&CycleGrid, &str)]) -> String {
    let mut out = String::from("## Phase-adaptive engine vs static configs\n\n| Benchmark |");
    for m in ADAPTIVE_STATICS {
        out += &format!(" {} (cycles) |", m.label());
    }
    out += " Adaptive (cycles) | vs best static | Switches | Final engine |\n|---|";
    out += &"---|".repeat(ADAPTIVE_STATICS.len());
    out += "---|---|---|---|\n";
    for &(grid, workload) in rows {
        let cell = |m| {
            grid.get(workload, m)
                .expect("adaptive table modes never skip")
        };
        out += &format!("| {workload} |");
        let statics = ADAPTIVE_STATICS.map(|m| cell(m).cycles);
        for cycles in statics {
            out += &format!(" {cycles} |");
        }
        let adaptive = cell(PrefetchMode::Adaptive);
        let summary = adaptive
            .adaptive
            .as_ref()
            .expect("adaptive mode populates its summary");
        let best = statics.into_iter().min().expect("three statics");
        let switches = summary
            .switches
            .iter()
            .map(|(cy, ch)| format!("@{cy}→{}", ch.label()))
            .collect::<Vec<_>>()
            .join(", ");
        out += &format!(
            " {} | {:+.1}% | {} | {} |\n",
            adaptive.cycles,
            100.0 * (adaptive.cycles as f64 / best.max(1) as f64 - 1.0),
            if switches.is_empty() {
                summary.reconfigurations.to_string()
            } else {
                format!("{} ({switches})", summary.reconfigurations)
            },
            summary.final_choice.label(),
        );
    }
    out
}

fn clock_label(hz: u64) -> String {
    if hz >= 1_000_000_000 {
        format!("{}GHz", hz / 1_000_000_000)
    } else {
        format!("{}MHz", hz / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cycles for u64 {
        fn cycles(&self) -> u64 {
            *self
        }
    }

    #[test]
    fn speedup_table_renders_missing_bars() {
        let grid = Grid {
            cells: vec![
                ("X", PrefetchMode::None, Some(300u64)),
                ("X", PrefetchMode::Manual, Some(100)),
                ("X", PrefetchMode::Software, None),
            ],
        };
        let t = speedup_table("T", &grid, &[PrefetchMode::Software, PrefetchMode::Manual]);
        assert!(t.contains(" 3.00 |"));
        assert!(t.contains("    - |"), "missing bar rendered as dash:\n{t}");
    }

    #[test]
    fn clock_labels() {
        assert_eq!(clock_label(250_000_000), "250MHz");
        assert_eq!(clock_label(2_000_000_000), "2GHz");
    }
}
