//! The five workloads' cell lists and the flattening of a cell's result
//! into named simulated counts — the one representation the cross-pass
//! identity check, the traced-replica transparency check, the per-layer
//! sums and `sim_fingerprint` all work on.

use etpp_mem::{CacheStats, MemStats};
use etpp_sim::{PrefetchMode, ReplayRun, RunResult};
use etpp_trace::format::{fnv1a, FNV_OFFSET};

/// The Table 2 benchmarks the grid workloads simulate: IntSort is
/// stride-indirect, HJ-8 hashes then walks tagged lists, ConjGrad is
/// stride-indirect with the lowest fast-forward factor (the densest
/// `Core::tick` load) and is held back from replay tuning.
pub const BENCHMARKS: [&str; 3] = ["IntSort", "HJ-8", "ConjGrad"];

/// The composed sweep runs on the first two (as `repro --sweep` does).
pub const SWEEP_BENCHMARKS: usize = 2;

const FIXED: &[PrefetchMode] = &[
    PrefetchMode::None,
    PrefetchMode::Stride,
    PrefetchMode::GhbRegular,
    PrefetchMode::PcDelta,
];
const PPU: &[PrefetchMode] = &[
    PrefetchMode::Pragma,
    PrefetchMode::Converted,
    PrefetchMode::Manual,
];
const REPLAY: &[PrefetchMode] = &[
    PrefetchMode::None,
    PrefetchMode::Stride,
    PrefetchMode::Converted,
    PrefetchMode::Manual,
];

/// Modes `sim.speedup_geomean.<mode>` is reported for.
pub const SPEEDUP_MODES: [PrefetchMode; 7] = [
    PrefetchMode::Stride,
    PrefetchMode::RptStride,
    PrefetchMode::GhbRegular,
    PrefetchMode::PcDelta,
    PrefetchMode::Pragma,
    PrefetchMode::Converted,
    PrefetchMode::Manual,
];

/// Which driver a grid's cells run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `etpp_sim::run`.
    Cycle,
    /// `etpp_sim::replay_run` on records decoded from disk each pass.
    Replay,
}

/// How a workload's cells execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every (benchmark, mode) on one driver.
    Grid(Driver, &'static [PrefetchMode]),
    /// One shard of the composed grid through `sweeps::run_sweep`.
    Sweep { warm: bool },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub shape: Shape,
    /// Set-ups per Tiny run (`setup_s` is their median), sized so that
    /// they take about a second together (three 8 ms builds; captures
    /// and reference runs; a 1.4 s cold fill).
    pub setup_reps: usize,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "cycle_fixed",
        shape: Shape::Grid(Driver::Cycle, FIXED),
        setup_reps: 25,
    },
    WorkloadDef {
        name: "cycle_ppu",
        shape: Shape::Grid(Driver::Cycle, PPU),
        setup_reps: 25,
    },
    WorkloadDef {
        name: "replay_grid",
        shape: Shape::Grid(Driver::Replay, REPLAY),
        setup_reps: 3,
    },
    WorkloadDef {
        name: "sweep_cold",
        shape: Shape::Sweep { warm: false },
        setup_reps: 9,
    },
    WorkloadDef {
        name: "sweep_warm",
        shape: Shape::Sweep { warm: true },
        setup_reps: 3,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One (benchmark, mode) grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub bench: usize,
    pub mode: PrefetchMode,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}/{}", BENCHMARKS[self.bench], self.mode.key())
    }
}

/// Benchmark-major cell list of a grid workload.
pub fn grid_cells(modes: &[PrefetchMode]) -> Vec<Cell> {
    (0..BENCHMARKS.len())
        .flat_map(|bench| modes.iter().map(move |&mode| Cell { bench, mode }))
        .collect()
}

/// Named simulated counts of one cell, in a fixed order.
pub type Counts = Vec<(String, u64)>;

/// What a cell delivered: its counts and whether the post-run image
/// matched the workload's reference checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOut {
    pub counts: Counts,
    pub validated: bool,
}

impl CellOut {
    pub fn get(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

fn cache_counts(level: &str, s: &CacheStats, out: &mut Counts) {
    for (field, v) in [
        ("read_hits", s.read_hits),
        ("read_misses", s.read_misses),
        ("write_hits", s.write_hits),
        ("write_misses", s.write_misses),
        ("prefetch_fills", s.prefetch_fills),
        ("prefetches_used", s.prefetches_used),
        ("prefetches_unused", s.prefetches_unused),
        ("late_prefetch_merges", s.late_prefetch_merges),
        ("pf_lookup_hits", s.pf_lookup_hits),
        ("pf_lookup_misses", s.pf_lookup_misses),
    ] {
        out.push((format!("mem.{level}.{field}"), v));
    }
}

fn mem_counts(m: &MemStats, out: &mut Counts) {
    cache_counts("l1", &m.l1, out);
    cache_counts("l2", &m.l2, out);
    for (name, v) in [
        ("mem.dram.reads", m.dram.reads),
        ("mem.dram.writes", m.dram.writes),
        ("mem.dram.row_hits", m.dram.row_hits),
        ("mem.dram.row_misses", m.dram.row_misses),
        ("mem.dram.queue_cycles", m.dram.queue_cycles),
        ("mem.tlb.l1_hits", m.tlb.l1_hits),
        ("mem.tlb.l2_hits", m.tlb.l2_hits),
        ("mem.tlb.walks", m.tlb.walks),
        ("mem.tlb.walker_busy", m.tlb.walker_busy),
        ("mem.tlb.faults", m.tlb.faults),
        ("mem.prefetch_drops", m.prefetch_drops),
        ("mem.prefetch_l1_redundant", m.prefetch_l1_redundant),
        ("mem.prefetches_issued", m.prefetches_issued),
    ] {
        out.push((name.to_string(), v));
    }
}

/// Every simulated count of a cycle-core cell.
pub fn cycle_out(r: &RunResult) -> CellOut {
    let mut counts: Counts = Vec::with_capacity(80);
    for (name, v) in [
        ("sim.cycles", r.cycles),
        ("sim.driver.visits", r.host_iters),
        ("sim.insts", r.dyn_insts),
        ("cpu.loads_issued", r.core.loads_issued),
        ("cpu.load_retries", r.core.load_retries),
        ("cpu.store_forwards", r.core.store_forwards),
        ("cpu.swpf_issued", r.core.swpf_issued),
        ("cpu.swpf_dropped", r.core.swpf_dropped),
        ("cpu.branches", r.core.branches),
        ("cpu.mispredicts", r.core.mispredicts),
        ("cpu.active_cycles", r.core.active_cycles),
        ("core.final_lookahead", r.final_lookahead),
    ] {
        counts.push((name.to_string(), v));
    }
    for (key, v) in r.visits.iter() {
        counts.push((format!("sim.visits.{key}"), v));
    }
    mem_counts(&r.mem, &mut counts);
    if let Some(pf) = &r.pf {
        for (name, v) in [
            ("core.ppus", pf.per_ppu_busy.len() as u64),
            ("core.ppu_events", pf.events_run),
            ("core.events_terminated", pf.events_terminated),
            ("core.ppu_insts", pf.insts_executed),
            ("core.prefetches_emitted", pf.prefetches_emitted),
            ("core.obs_enqueued", pf.obs_enqueued),
            ("core.obs_dropped", pf.obs_dropped),
            ("core.req_dropped", pf.req_dropped),
            ("core.blocked_timeouts", pf.blocked_timeouts),
            ("core.ppu_busy_cycles", pf.per_ppu_busy.iter().sum()),
        ] {
            counts.push((name.to_string(), v));
        }
    }
    CellOut {
        counts,
        validated: r.validated,
    }
}

/// Every simulated count of a trace-replay cell.
pub fn replay_out(r: &ReplayRun) -> CellOut {
    let mut counts: Counts = Vec::with_capacity(48);
    for (name, v) in [
        ("sim.cycles", r.cycles),
        ("trace.replay.host_iters", r.host_iters),
        ("trace.replay.accesses", r.accesses),
        ("trace.replay.dep_stalls", r.dep_stalls),
    ] {
        counts.push((name.to_string(), v));
    }
    mem_counts(&r.mem, &mut counts);
    CellOut {
        counts,
        validated: r.validated,
    }
}

/// FNV-1a over every cell's label, counts and validation bit, in the
/// order given (callers pass cells in canonical, not execution, order).
/// Masked to 52 bits so the value survives a JSON number exactly.
pub fn fingerprint<'a>(cells: impl IntoIterator<Item = (&'a str, &'a CellOut)>) -> u64 {
    let mut h = FNV_OFFSET;
    for (label, out) in cells {
        h = fnv1a(label.as_bytes(), h);
        h = fnv1a(&[out.validated as u8], h);
        for (name, v) in &out.counts {
            h = fnv1a(name.as_bytes(), h);
            h = fnv1a(&v.to_le_bytes(), h);
        }
    }
    h & ((1 << 52) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_grids_have_the_documented_sizes() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        assert_eq!(grid_cells(FIXED).len(), 12);
        assert_eq!(grid_cells(PPU).len(), 9);
        assert_eq!(grid_cells(REPLAY).len(), 12);
        assert!(workload("replay_grid").is_some());
        assert!(workload("nope").is_none());
    }

    #[test]
    fn fingerprint_sees_every_count_and_the_cell_order() {
        let a = CellOut {
            counts: vec![("sim.cycles".into(), 10), ("mem.l1.read_hits".into(), 3)],
            validated: true,
        };
        let mut b = a.clone();
        b.counts[1].1 = 4;
        let base = fingerprint([("x", &a), ("y", &a)]);
        assert_eq!(base, fingerprint([("x", &a), ("y", &a)]));
        assert_ne!(base, fingerprint([("x", &a), ("y", &b)]));
        assert_ne!(base, fingerprint([("y", &a), ("x", &a)]));
        let mut c = a.clone();
        c.validated = false;
        assert_ne!(base, fingerprint([("x", &a), ("y", &c)]));
        assert!(base < (1 << 52));
    }
}
